"""Dense complex statevector engine for small qubit registers.

Conventions:
- Basis index k is read big-endian: qubit 0 is the leftmost (most significant)
  bit of the outcome string. For the four-player game, qubit 0 is Alice and
  qubit 3 is Doug, so index 0b0001 is the outcome "0001" (only Doug expensive).
  IBM-style histograms display the reversed string; we always print big-endian.
- Gates act on raw amplitude arrays of shape (2^n,) or (2^n, k), one column
  per state, with no validation between gates; this is the gate-level path of
  `circuit`, which wraps the final column in one `StateVector`. The EWL
  pipeline uses the closed-form kernel in `ewl`.
- Tolerance: 1e-9 for analytic identities (normalization, unitarity).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ValidationError

ATOL_ANALYTIC = 1e-9

MAX_QUBITS = 20  # dense amplitudes; 2^20 complex doubles is the ceiling

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state of `n` qubits as 2^n complex amplitudes."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n <= MAX_QUBITS:
            raise DomainError(f"qubit count must be in [1, {MAX_QUBITS}], got {self.n}")
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (2**self.n,):
            raise ValidationError(
                f"expected {2**self.n} amplitudes for n={self.n}, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps.view(float))):
            raise ValidationError("amplitudes must be finite")
        norm = np.sum(np.abs(amps) ** 2)
        if abs(norm - 1.0) > ATOL_ANALYTIC:
            raise ValidationError(f"state is not normalized: |amps|^2 sums to {norm!r}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    def label(self, index: int) -> str:
        return format(index, f"0{self.n}b")


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over the 2^n computational-basis outcomes."""

    n: int
    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (2**self.n,):
            raise ValidationError(
                f"expected {2**self.n} probabilities for n={self.n}, got shape {p.shape}"
            )
        if np.any(p < -ATOL_ANALYTIC) or np.any(p > 1.0 + ATOL_ANALYTIC):
            raise ValidationError("probabilities must lie in [0, 1]")
        if abs(p.sum() - 1.0) > ATOL_ANALYTIC:
            raise ValidationError(f"probabilities sum to {p.sum()!r}, expected 1")
        p = np.clip(p, 0.0, 1.0)
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    def label(self, index: int) -> str:
        return format(index, f"0{self.n}b")

    def as_dict(self) -> dict[str, float]:
        return {self.label(k): float(self.p[k]) for k in range(2**self.n)}

    def top_outcome(self) -> str:
        return self.label(int(np.argmax(self.p)))


def _qubit_count(psi: np.ndarray, *qubits: int) -> int:
    """n for amplitudes of shape (2^n, ...), after checking each qubit index."""
    n = psi.shape[0].bit_length() - 1
    for q in qubits:
        if not 0 <= q < n:
            raise DomainError(f"qubit {q} out of range for n={n}")
    return n


def apply_single_qubit(psi: np.ndarray, u: np.ndarray, qubit: int) -> np.ndarray:
    """(I ⊗ ... ⊗ u ⊗ ... ⊗ I) applied to every column of psi."""
    _qubit_count(psi, qubit)
    # Row index splits as (bits before qubit, qubit's bit, bits after).
    return (u @ psi.reshape(2**qubit, 2, -1)).reshape(psi.shape)


def apply_controlled(psi: np.ndarray, kind: str, control: int, target: int) -> np.ndarray:
    """Apply a CZ or CNOT gate to every column of psi; `kind` is "cz" or
    "cnot" (alias "cx")."""
    n = _qubit_count(psi, control, target)
    if control == target:
        raise DomainError("control and target must differ")
    rows = np.arange(2**n)
    flip = ((rows >> (n - 1 - control)) & 1) << (n - 1 - target)  # target bit where control is 1
    kind = kind.lower()
    if kind == "cz":
        out = psi.copy()
        out[(rows & flip) != 0] *= -1.0
        return out
    if kind in ("cnot", "cx"):
        return psi[rows ^ flip]
    raise DomainError(f"unknown controlled gate kind {kind!r}")


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, atol: float = ATOL_ANALYTIC) -> bool:
    """True if complex arrays a and b differ only by a unit scalar factor."""
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    if a.shape != b.shape:
        return False
    k = int(np.argmax(np.abs(a)))
    if abs(a[k]) < atol:
        return bool(np.max(np.abs(b)) < atol)
    phase = b[k] / a[k]
    if abs(abs(phase) - 1.0) > atol:
        return False
    return bool(np.max(np.abs(a * phase - b)) <= atol)
