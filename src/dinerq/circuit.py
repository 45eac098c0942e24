"""Gate-level realization of the game on a 4-qubit register.

The gate set is {u3, cz, cx, measure}. The entangling operator J is compiled
as a basis change into the parity basis, a single phase rotation, and the
inverse basis change:

    G on q0..q3,  CX(0,3) CX(1,3) CX(2,3),  U3(0,0,-pi/2) on q3,
    CX(2,3) CX(1,3) CX(0,3),  G† on q0..q3

where G = U3(pi/2, pi/2, -pi/2) = (1/√2)[[1, i], [i, 1]]. Conjugating Z by G†
gives -σy, and (-σy)⊗4 = σy⊗4, so the middle diagonal (a phase on the parity
of the register) turns into exp(i π/4 σy⊗4) = J up to a global phase. The
decomposition is re-verified against the matrix definition on first use.

U3 convention (the one under which the published parameter triples reproduce
the strategy matrices):

    U3(θ, φ, λ) = [[cos(θ/2),          -e^{iλ} sin(θ/2)],
                   [e^{iφ} sin(θ/2),    e^{i(φ+λ)} cos(θ/2)]]

Named moves: C = U3(0,0,0), E = U3(π,π,π), A = U3(0,-π/2,-π/2) (equal to the
strategy matrix up to the global phase i). A parametric move U(θ, φ) compiles
to U3(θ, π-φ, π-φ), again up to a global phase.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import ewl
from .errors import DomainError, ValidationError
from .statevector import (
    OutcomeDistribution,
    StateVector,
    apply_controlled,
    apply_single_qubit,
    equal_up_to_global_phase,
)

N_QUBITS = 4

NAMED_U3 = {
    "C": (0.0, 0.0, 0.0),
    "E": (math.pi, math.pi, math.pi),
    "A": (0.0, -math.pi / 2, -math.pi / 2),
}


@dataclass(frozen=True)
class U3Gate:
    theta: float
    phi: float
    lam: float
    target: int

    def adjoint(self) -> "U3Gate":
        # u3(θ,φ,λ)† = u3(-θ,-λ,-φ)
        return U3Gate(-self.theta, -self.lam, -self.phi, self.target)


@dataclass(frozen=True)
class CZGate:
    a: int
    b: int

    def adjoint(self) -> "CZGate":
        return self


@dataclass(frozen=True)
class CNOTGate:
    control: int
    target: int

    def adjoint(self) -> "CNOTGate":
        return self


@dataclass(frozen=True)
class MeasureGate:
    qubit: int
    cbit: int


Gate = U3Gate | CZGate | CNOTGate | MeasureGate


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list on 4 qubits; measurements only at the end."""

    gates: tuple[Gate, ...]
    n_qubits: int = N_QUBITS

    def __post_init__(self):
        seen_measure = False
        for g in self.gates:
            for q in _gate_qubits(g):
                if not 0 <= q < self.n_qubits:
                    raise ValidationError(f"qubit index {q} out of range in {g}")
            if isinstance(g, (CZGate, CNOTGate)):
                a, b = _gate_qubits(g)
                if a == b:
                    raise ValidationError(f"two-qubit gate operands must differ: {g}")
            if isinstance(g, MeasureGate):
                if not 0 <= g.cbit < self.n_qubits:
                    raise ValidationError(f"classical bit {g.cbit} out of range")
                seen_measure = True
            elif seen_measure:
                raise ValidationError("unitary gate after measurement is not supported")

    def unitary_gates(self) -> tuple[Gate, ...]:
        return tuple(g for g in self.gates if not isinstance(g, MeasureGate))

    def measures(self) -> tuple[MeasureGate, ...]:
        return tuple(g for g in self.gates if isinstance(g, MeasureGate))


def _gate_qubits(g: Gate) -> tuple[int, ...]:
    if isinstance(g, U3Gate):
        return (g.target,)
    if isinstance(g, CZGate):
        return (g.a, g.b)
    if isinstance(g, CNOTGate):
        return (g.control, g.target)
    return (g.qubit,)


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ]
    )


_ENTANGLER_G = (math.pi / 2, math.pi / 2, -math.pi / 2)


def _entangler_gates() -> tuple[Gate, ...]:
    g = _ENTANGLER_G
    g_dag = U3Gate(*g, 0).adjoint()
    gates: list[Gate] = [U3Gate(*g, q) for q in range(4)]
    gates += [CNOTGate(0, 3), CNOTGate(1, 3), CNOTGate(2, 3)]
    gates.append(U3Gate(0.0, 0.0, -math.pi / 2, 3))
    gates += [CNOTGate(2, 3), CNOTGate(1, 3), CNOTGate(0, 3)]
    gates += [U3Gate(g_dag.theta, g_dag.phi, g_dag.lam, q) for q in range(4)]
    return tuple(gates)


@lru_cache(maxsize=1)
def entangler_circuit() -> Circuit:
    """Gate sequence composing to J up to global phase (verified)."""
    circuit = Circuit(_entangler_gates())
    if not equal_up_to_global_phase(compose(circuit), ewl.entangler()):
        raise ValidationError("entangler decomposition does not match J")
    return circuit


@lru_cache(maxsize=1)
def disentangler_circuit() -> Circuit:
    """Adjoint of the entangler circuit: reversed gates, each inverted."""
    gates = tuple(g.adjoint() for g in reversed(entangler_circuit().gates))
    return Circuit(gates)


def strategy_u3(strategy: ewl.Strategy, target: int) -> U3Gate:
    """Compile one strategy to a u3 gate, checked against its matrix."""
    if strategy.name is not None:
        gate = U3Gate(*NAMED_U3[strategy.name], target)
    else:
        gate = U3Gate(
            strategy.theta, math.pi - strategy.phi, math.pi - strategy.phi, target
        )
    want = ewl.strategy_unitary(strategy)
    if not equal_up_to_global_phase(u3_matrix(gate.theta, gate.phi, gate.lam), want):
        raise ValidationError(f"u3 compilation of {strategy} is off by more than phase")
    return gate


def build_game_circuit(profile: ewl.StrategyProfile) -> Circuit:
    """Entangle, play one u3 per player on q0..q3, disentangle, measure."""
    gates: list[Gate] = list(entangler_circuit().gates)
    for qubit, strategy in enumerate(profile):
        gates.append(strategy_u3(strategy, qubit))
    gates += list(disentangler_circuit().gates)
    gates += [MeasureGate(q, q) for q in range(4)]
    return Circuit(tuple(gates))


def _run_gates(circuit: Circuit, columns: np.ndarray) -> np.ndarray:
    """The circuit's unitary gates applied, in one pass, to every column."""
    psi = columns
    for g in circuit.unitary_gates():
        if isinstance(g, U3Gate):
            psi = apply_single_qubit(psi, u3_matrix(g.theta, g.phi, g.lam), g.target)
        elif isinstance(g, CZGate):
            psi = apply_controlled(psi, "cz", g.a, g.b)
        else:
            psi = apply_controlled(psi, "cnot", g.control, g.target)
    return psi


def simulate_circuit(circuit: Circuit) -> OutcomeDistribution:
    """Exact Born distribution of the circuit applied to |0...0>."""
    n = circuit.n_qubits
    state = StateVector(n, _run_gates(circuit, np.eye(1, 2**n, dtype=complex)[0]))
    p = np.abs(state.amps) ** 2
    measures = circuit.measures()
    if not measures:
        return OutcomeDistribution(n, p)
    if len({m.qubit for m in measures}) != len(measures) or len(
        {m.cbit for m in measures}
    ) != len(measures):
        raise ValidationError("duplicate qubit or classical bit in measurements")
    if len(measures) != n:
        raise ValidationError("partial measurement is not supported")
    # outcome bit cbit is read from qubit (big-endian labels on both sides)
    k = np.arange(2**n)
    j = sum(((k >> (n - 1 - m.qubit)) & 1) << (n - 1 - m.cbit) for m in measures)
    remapped = np.empty_like(p)
    remapped[j] = p
    return OutcomeDistribution(n, remapped)


def compose(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the circuit's gate list (measurements excluded)."""
    return _run_gates(circuit, np.eye(2**circuit.n_qubits, dtype=complex))


def sample(dist: OutcomeDistribution, shots: int, seed: int) -> dict[str, int]:
    """Reproducible multinomial histogram; nonzero bins keyed by outcome."""
    if not 1 <= shots < 2**63:  # numpy draws counts as int64
        raise DomainError(f"shots must be in [1, 2**63 - 1], got {shots}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, dist.p / dist.p.sum())
    return {dist.label(k): int(c) for k, c in enumerate(counts) if c > 0}
