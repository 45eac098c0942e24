import itertools
import math

import numpy as np
import pytest

import oracle
from dinerq import circuit as circuit_mod
from dinerq import ewl
from dinerq.circuit import (
    Circuit,
    CNOTGate,
    CZGate,
    MeasureGate,
    U3Gate,
    build_game_circuit,
    compose,
    disentangler_circuit,
    entangler_circuit,
    sample,
    simulate_circuit,
    strategy_u3,
    u3_matrix,
)
from dinerq.errors import DomainError, ValidationError
from dinerq.statevector import OutcomeDistribution, equal_up_to_global_phase


def test_u3_convention():
    assert np.allclose(u3_matrix(math.pi, math.pi, math.pi), [[0, 1], [-1, 0]])
    assert np.allclose(u3_matrix(0, 0, 0), np.eye(2))
    # published triple for the quantum move: diag(1,-1) = -i * diag(i,-i)
    a = u3_matrix(0, -math.pi / 2, -math.pi / 2)
    assert np.allclose(a, np.diag([1, -1]))
    assert equal_up_to_global_phase(a, np.diag([1j, -1j]))


def test_entangler_circuit_matches_operator():
    circuit = entangler_circuit()
    first = circuit.gates[0]
    assert isinstance(first, U3Gate) and first.target == 0
    assert (first.theta, first.phi, first.lam) == (math.pi / 2, math.pi / 2, -math.pi / 2)
    composed = compose(circuit)
    assert equal_up_to_global_phase(composed, ewl.entangler(), atol=1e-9)
    assert np.allclose(composed @ composed.conj().T, np.eye(16), atol=1e-9)


def test_disentangler_circuit():
    ent, dis = compose(entangler_circuit()), compose(disentangler_circuit())
    assert np.max(np.abs(dis - compose(entangler_circuit()).conj().T)) < 1e-9
    assert equal_up_to_global_phase(dis @ ent, np.eye(16), atol=1e-9)
    # adjoint of the adjoint restores the original gate list
    twice = tuple(
        g.adjoint() for g in reversed(disentangler_circuit().gates)
    )
    assert twice == entangler_circuit().gates


def test_game_circuit_structure():
    n_ent = len(entangler_circuit().gates)
    circuit = build_game_circuit(ewl.StrategyProfile.from_letters("AAAA"))
    assert len(circuit.gates) == 2 * n_ent + 4 + 4
    strategy_layer = circuit.gates[n_ent : n_ent + 4]
    for q, g in enumerate(strategy_layer):
        assert g == U3Gate(0.0, -math.pi / 2, -math.pi / 2, q)
    circuit = build_game_circuit(ewl.StrategyProfile.from_letters("CCCC"))
    assert circuit.gates[n_ent] == U3Gate(0.0, 0.0, 0.0, 0)
    assert len(circuit.measures()) == 4


@pytest.mark.parametrize(
    "letters,outcome",
    [("CECE", "0101"), ("AAAA", "0000"), ("CCEA", "1101"), ("CCCE", "0001")],
)
def test_simulate_game_circuit(letters, outcome):
    dist = simulate_circuit(build_game_circuit(ewl.StrategyProfile.from_letters(letters)))
    assert dist.top_outcome() == outcome
    assert dist.p[int(outcome, 2)] > 1 - 1e-9


def test_empty_circuit():
    assert simulate_circuit(Circuit(())).top_outcome() == "0000"


def test_pipeline_equivalence_all_81():
    for combo in itertools.product("CEA", repeat=4):
        profile = ewl.StrategyProfile.from_letters("".join(combo))
        gate_level = simulate_circuit(build_game_circuit(profile)).p
        matrix_level = ewl.outcome_distribution(profile).p
        assert 0.5 * np.sum(np.abs(gate_level - matrix_level)) < 1e-6


def test_quantum_move_phase_safety():
    # u3 form of the quantum move differs from its strategy matrix by the
    # scalar i; distributions must agree to full precision
    for combo in itertools.product("CEA", repeat=4):
        letters = "".join(combo)
        if "A" not in letters:
            continue
        profile = ewl.StrategyProfile.from_letters(letters)
        gate_level = simulate_circuit(build_game_circuit(profile)).p
        matrix_level = ewl.outcome_distribution(profile).p
        assert np.max(np.abs(gate_level - matrix_level)) < 1e-12


def test_parametric_strategy_compiles():
    rng = np.random.default_rng(29)
    for _ in range(25):
        s = ewl.Strategy.parametric(rng.uniform(0, math.pi), rng.uniform(0, math.pi / 2))
        g = strategy_u3(s, 2)
        assert equal_up_to_global_phase(
            u3_matrix(g.theta, g.phi, g.lam), ewl.strategy_unitary(s), atol=1e-9
        )
    # full-pipeline check for a mixed named/parametric profile
    profile = ewl.StrategyProfile(
        ewl.C, ewl.Strategy.parametric(1.1, 0.4), ewl.A, ewl.Strategy.parametric(2.2, 1.0)
    )
    gate_level = simulate_circuit(build_game_circuit(profile)).p
    assert np.max(np.abs(gate_level - ewl.outcome_distribution(profile).p)) < 1e-9


def test_circuit_validation():
    with pytest.raises(ValidationError):
        Circuit((U3Gate(0, 0, 0, 5),))
    with pytest.raises(ValidationError):
        Circuit((CZGate(1, 1),))
    with pytest.raises(ValidationError):
        Circuit((MeasureGate(0, 0), CNOTGate(0, 1)))
    with pytest.raises(ValidationError):
        Circuit((MeasureGate(0, 4),))


def test_sample_point_mass():
    dist = OutcomeDistribution(4, np.eye(16)[0b0101])
    counts = sample(dist, 1024, seed=7)
    assert counts == {"0101": 1024}


def test_sample_reproducible_and_converges():
    p = np.zeros(16)
    p[0], p[15] = 0.5, 0.5
    dist = OutcomeDistribution(4, p)
    a = sample(dist, 10**5, seed=42)
    assert a == sample(dist, 10**5, seed=42)
    empirical = np.zeros(16)
    for outcome, count in a.items():
        empirical[int(outcome, 2)] = count / 10**5
    assert 0.5 * np.sum(np.abs(empirical - p)) < 0.01
    big = sample(dist, 10**6, seed=3)
    sigma = math.sqrt(10**6 * 0.25)
    assert abs(big["0000"] - 500_000) < 3 * sigma
    assert abs(big["1111"] - 500_000) < 3 * sigma


def test_sample_rejects_zero_shots():
    dist = OutcomeDistribution(4, np.eye(16)[0])
    with pytest.raises(DomainError):
        sample(dist, 0, seed=1)


def test_sample_accepts_one_shot():
    dist = OutcomeDistribution(4, np.eye(16)[0b1010])
    assert sample(dist, 1, seed=0) == {"1010": 1}


def test_sample_bounds_shots_and_seed():
    dist = OutcomeDistribution(4, np.eye(16)[0])
    assert sample(dist, 2**63 - 1, seed=0) == {"0000": 2**63 - 1}
    for shots, seed in [(2**63, 1), (10**20, 1), (10, -1)]:
        with pytest.raises(DomainError):
            sample(dist, shots, seed)


def test_measure_remapping():
    # swapped classical bits permute the recorded string
    gates = (
        U3Gate(math.pi, math.pi, math.pi, 0),  # flip qubit 0
        MeasureGate(0, 3),
        MeasureGate(1, 1),
        MeasureGate(2, 2),
        MeasureGate(3, 0),
    )
    assert simulate_circuit(Circuit(gates)).top_outcome() == "0001"


def test_compose_against_oracle_embedding():
    g = U3Gate(0.7, 0.3, -0.2, 2)
    got = compose(Circuit((g,)))
    want = oracle.embed_single(u3_matrix(0.7, 0.3, -0.2), 2)
    assert np.max(np.abs(got - want)) < 1e-12


def _dense(circuit: Circuit) -> np.ndarray:
    """Product of the 16x16 matrices of the circuit's gates, from the oracle."""
    out = np.eye(16, dtype=complex)
    for g in circuit.unitary_gates():
        if isinstance(g, U3Gate):
            m = oracle.embed_single(oracle.u3(g.theta, g.phi, g.lam), g.target)
        elif isinstance(g, CZGate):
            m = oracle.embed_controlled("cz", g.a, g.b)
        else:
            m = oracle.embed_controlled("cnot", g.control, g.target)
        out = m @ out
    return out


GATE_LOOP_CIRCUITS = {  # built inside each test, so a failing build fails only that test
    "entangler": entangler_circuit,
    "CEAA": lambda: build_game_circuit(ewl.StrategyProfile.from_letters("CEAA")),
    "parametric": lambda: build_game_circuit(
        ewl.StrategyProfile(
            ewl.Strategy.parametric(0.3, 1.2), ewl.E, ewl.Strategy.parametric(2.5, 0.1), ewl.A
        )
    ),
    "cz": lambda: Circuit((U3Gate(1.1, 0.2, -0.7, 0), U3Gate(0.4, 2.0, 1.0, 3), CZGate(3, 0),
                           CNOTGate(0, 2), CZGate(1, 2))),
}


@pytest.mark.parametrize("name", sorted(GATE_LOOP_CIRCUITS))
def test_compose_matches_dense_gate_product(name):
    circuit = GATE_LOOP_CIRCUITS[name]()
    assert np.max(np.abs(compose(circuit) - _dense(circuit))) < 1e-12


@pytest.mark.parametrize("name", sorted(GATE_LOOP_CIRCUITS))
def test_compose_equals_stacked_single_columns(name):
    # one pass over all 16 basis columns equals 16 passes over one column each
    circuit = GATE_LOOP_CIRCUITS[name]()
    whole = compose(circuit)
    columns = np.column_stack(
        [circuit_mod._run_gates(circuit, np.eye(1, 16, k, dtype=complex)[0]) for k in range(16)]
    )
    assert np.max(np.abs(whole - columns)) < 1e-14
    unmeasured = Circuit(circuit.unitary_gates())
    assert np.max(np.abs(simulate_circuit(unmeasured).p - np.abs(whole[:, 0]) ** 2)) < 1e-14


def test_simulate_validates_once(monkeypatch):
    built = []

    def counting(cls):
        def make(*args):
            built.append(cls.__name__)
            return cls(*args)

        return make

    monkeypatch.setattr(circuit_mod, "StateVector", counting(circuit_mod.StateVector))
    monkeypatch.setattr(
        circuit_mod, "OutcomeDistribution", counting(circuit_mod.OutcomeDistribution)
    )
    dist = simulate_circuit(build_game_circuit(ewl.StrategyProfile.from_letters("AECA")))
    assert np.max(np.abs(dist.p - oracle.distribution("AECA"))) < 1e-12
    assert sorted(built) == ["OutcomeDistribution", "StateVector"]
