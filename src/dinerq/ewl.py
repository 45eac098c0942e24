"""EWL quantization of the four-player diner's dilemma.

Pipeline: entangle |0000> with J, apply one local strategy unitary per player,
disentangle with J†, measure. J = (1/√2)(I⊗I⊗I⊗I + i σy⊗σy⊗σy⊗σy), which
maps |0000> to the GHZ-type state (1/√2)(|0000> + i|1111>).

Strategies are the parametric single-qubit unitaries

    U(θ, φ) = [[e^{iφ} cos(θ/2),  sin(θ/2)],
               [-sin(θ/2),        e^{-iφ} cos(θ/2)]]

with θ ∈ [0, π], φ ∈ [0, π/2]. The three named moves are C = U(0, 0)
(cheap), E = U(π, 0) (expensive) and A = U(0, π/2) (the quantum move).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import DomainError, ValidationError
from .statevector import ATOL_ANALYTIC, SIGMA_Y, OutcomeDistribution, StateVector

PLAYERS = ("alice", "bob", "colin", "doug")

# (theta, phi) of the named moves
NAMED_PARAMS = {"C": (0.0, 0.0), "E": (math.pi, 0.0), "A": (0.0, math.pi / 2)}


@dataclass(frozen=True)
class Strategy:
    """A single player's move: named C/E/A or a free (θ, φ) point."""

    theta: float
    phi: float
    name: str | None = None

    def __post_init__(self):
        if self.name is not None and self.name not in NAMED_PARAMS:
            raise DomainError(f"unknown named strategy {self.name!r}")
        if not 0.0 <= self.theta <= math.pi:
            raise DomainError(f"theta must be in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi <= math.pi / 2:
            raise DomainError(f"phi must be in [0, pi/2], got {self.phi}")

    @classmethod
    def named(cls, name: str) -> "Strategy":
        if name not in NAMED_PARAMS:
            raise DomainError(f"unknown named strategy {name!r}")
        theta, phi = NAMED_PARAMS[name]
        return cls(theta, phi, name)

    @classmethod
    def parametric(cls, theta: float, phi: float) -> "Strategy":
        return cls(float(theta), float(phi))

    def __str__(self) -> str:
        if self.name is not None:
            return self.name
        return f"theta={self.theta:g}:phi={self.phi:g}"


C = Strategy.named("C")
E = Strategy.named("E")
A = Strategy.named("A")


@dataclass(frozen=True)
class StrategyProfile:
    """Ordered moves of (Alice, Bob, Colin, Doug)."""

    alice: Strategy
    bob: Strategy
    colin: Strategy
    doug: Strategy

    @classmethod
    def from_letters(cls, letters: str) -> "StrategyProfile":
        if len(letters) != 4:
            raise DomainError(f"profile needs 4 letters, got {letters!r}")
        return cls(*(Strategy.named(ch) for ch in letters))

    def __iter__(self) -> Iterator[Strategy]:
        return iter((self.alice, self.bob, self.colin, self.doug))

    @property
    def letters(self) -> str | None:
        """Four-letter form like "CECE", or None if any entry is parametric."""
        names = [s.name for s in self]
        if any(n is None for n in names):
            return None
        return "".join(names)

    def __str__(self) -> str:
        return ",".join(str(s) for s in self)


def strategy_unitary(s: Strategy) -> np.ndarray:
    """2x2 matrix of U(θ, φ)."""
    c, sn = math.cos(s.theta / 2), math.sin(s.theta / 2)
    ph = np.exp(1j * s.phi)
    return np.array([[ph * c, sn], [-sn, c / ph]])


@lru_cache(maxsize=1)
def entangler() -> np.ndarray:
    """The 16x16 entangling operator J = (1/√2)(I⊗4 + i σy⊗4)."""
    eye16 = np.eye(16, dtype=complex)
    sy4 = SIGMA_Y
    for _ in range(3):
        sy4 = np.kron(sy4, SIGMA_Y)
    j = (eye16 + 1j * sy4) / math.sqrt(2)
    j.flags.writeable = False
    return j


@lru_cache(maxsize=1)
def disentangler() -> np.ndarray:
    """J†, the inverse of entangler()."""
    jd = entangler().conj().T.copy()
    jd.flags.writeable = False
    return jd


def _amplitudes(thetas, phis) -> np.ndarray:
    """(N, 16) final states of N profiles from (N, 4) arrays of θ and φ.

    J|0000> = (|0000> + i|1111>)/√2, so (⊗U)J|0000> is the sum of the outer
    products of each U's first and second columns; J† is one matrix product.
    """
    thetas, phis = np.asarray(thetas, dtype=float), np.asarray(phis, dtype=float)
    if thetas.shape != phis.shape or thetas.ndim != 2 or thetas.shape[1] != 4:
        raise DomainError(f"angles must be two (N, 4) arrays, got {thetas.shape}, {phis.shape}")
    # Every comparison with NaN is False, so NaN fails the range checks too.
    if not np.all((thetas >= 0.0) & (thetas <= math.pi)):
        raise DomainError("theta must be in [0, pi] for every player")
    if not np.all((phis >= 0.0) & (phis <= math.pi / 2)):
        raise DomainError("phi must be in [0, pi/2] for every player")
    c, s, ph = np.cos(thetas / 2), np.sin(thetas / 2), np.exp(1j * phis)
    u0, u1 = (ph * c, -s), (s, c / ph)  # first and second column of each U

    def outer(col):  # ⊗ₚ of one column per player, shape (N, 16)
        per_player = np.stack(col, axis=-1).transpose(1, 0, 2)
        return np.einsum("na,nb,nc,nd->nabcd", *per_player).reshape(-1, 16)

    psi = (outer(u0) + 1j * outer(u1)) / math.sqrt(2)
    return psi @ disentangler().T


def batch_probabilities(thetas, phis) -> np.ndarray:
    """(N, 16) Born probabilities of N profiles given (N, 4) arrays of θ and φ
    (players in Alice..Doug order). Angles are checked once per batch."""
    p = np.abs(_amplitudes(thetas, phis)) ** 2
    if not np.all(np.isfinite(p)) or np.any(np.abs(p.sum(axis=1) - 1.0) > ATOL_ANALYTIC):
        raise ValidationError("batch probabilities are not finite or do not sum to 1")
    return p


def _angles(profile: StrategyProfile) -> tuple[list, list]:
    return [[s.theta for s in profile]], [[s.phi for s in profile]]


def final_state(profile: StrategyProfile) -> StateVector:
    """|ψf> = J† (U_A ⊗ U_B ⊗ U_C ⊗ U_D) J |0000>."""
    return StateVector(4, _amplitudes(*_angles(profile))[0])


def outcome_distribution(profile: StrategyProfile) -> OutcomeDistribution:
    """Born probabilities of the 16 outcomes for a strategy profile."""
    return OutcomeDistribution(4, batch_probabilities(*_angles(profile))[0])
