"""Dense complex statevector engine for small qubit registers.

Conventions:
- Basis index k is read big-endian: qubit 0 is the leftmost (most significant)
  bit of the outcome string. For the four-player game, qubit 0 is Alice and
  qubit 3 is Doug, so index 0b0001 is the outcome "0001" (only Doug expensive).
  IBM-style histograms display the reversed string; we always print big-endian.
- Gates are applied qubit-wise, one at a time; this is the gate-level path
  of `circuit`. The EWL pipeline uses the closed-form kernel in `ewl`.
- Tolerances: 1e-9 for analytic identities (normalization, unitarity),
  1e-12 for pure arithmetic equalities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ValidationError

ATOL_ANALYTIC = 1e-9
ATOL_EXACT = 1e-12

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


def new_basis_state(n: int, index: int) -> StateVector:
    """Computational basis state |index> on n qubits."""
    if not 1 <= n <= MAX_QUBITS:
        raise DomainError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
    if not 0 <= index < 2**n:
        raise DomainError(f"basis index {index} out of range for n={n}")
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return StateVector(n, amps)


def _check_qubit(n: int, qubit: int) -> None:
    if not 0 <= qubit < n:
        raise DomainError(f"qubit {qubit} out of range for n={n}")


def apply_single_qubit(state: StateVector, u: np.ndarray, qubit: int) -> StateVector:
    """Apply a 2x2 unitary to one qubit: (I ⊗ ... ⊗ u ⊗ ... ⊗ I)|state>."""
    _check_qubit(state.n, qubit)
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise DomainError(f"single-qubit gate must be 2x2, got {u.shape}")
    psi = state.amps.reshape([2] * state.n)
    # Reshaped axis q holds qubit q's bit (big-endian index layout).
    psi = np.tensordot(u, psi, axes=([1], [qubit]))
    psi = np.moveaxis(psi, 0, qubit)
    return StateVector(state.n, psi.reshape(-1))


def apply_controlled(state: StateVector, kind: str, control: int, target: int) -> StateVector:
    """Apply a CZ or CNOT gate; `kind` is "cz" or "cnot" (alias "cx")."""
    _check_qubit(state.n, control)
    _check_qubit(state.n, target)
    if control == target:
        raise DomainError("control and target must differ")
    psi = state.amps.reshape([2] * state.n).copy()
    sel = [slice(None)] * state.n
    kind = kind.lower()
    if kind == "cz":
        sel[control] = 1
        sel[target] = 1
        psi[tuple(sel)] *= -1.0
    elif kind in ("cnot", "cx"):
        sel[control] = 1
        sel0 = list(sel)
        sel1 = list(sel)
        sel0[target] = 0
        sel1[target] = 1
        lo, hi = psi[tuple(sel0)].copy(), psi[tuple(sel1)].copy()
        psi[tuple(sel0)], psi[tuple(sel1)] = hi, lo
    else:
        raise DomainError(f"unknown controlled gate kind {kind!r}")
    return StateVector(state.n, psi.reshape(-1))


def probabilities(state: StateVector) -> OutcomeDistribution:
    """Born-rule outcome distribution p[k] = |amps[k]|^2."""
    return OutcomeDistribution(state.n, np.abs(state.amps) ** 2)


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
