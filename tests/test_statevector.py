import numpy as np
import pytest

import oracle
from dinerq.circuit import entangler_circuit, simulate_circuit
from dinerq.errors import DomainError, ValidationError
from dinerq.statevector import (
    SIGMA_Y,
    OutcomeDistribution,
    StateVector,
    apply_controlled,
    apply_single_qubit,
    equal_up_to_global_phase,
)

I2 = np.eye(2, dtype=complex)
E_MATRIX = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def basis(n: int, index: int) -> np.ndarray:
    """Raw amplitudes of the computational basis state |index> on n qubits."""
    return np.eye(1, 2**n, index, dtype=complex)[0]


@pytest.mark.parametrize("n", [0, 21])
def test_state_rejects_bad_qubit_count(n):
    with pytest.raises(DomainError):
        StateVector(n, np.ones(1, dtype=complex))


def test_state_rejects_nan_and_bad_norm():
    with pytest.raises(ValidationError):
        StateVector(1, np.array([np.nan, 0.0]))
    with pytest.raises(ValidationError):
        StateVector(1, np.array([0.5, 0.5]))
    with pytest.raises(ValidationError):
        StateVector(2, np.array([1.0, 0.0]))


def test_state_is_immutable():
    s = StateVector(2, basis(2, 0))
    with pytest.raises(ValueError):
        s.amps[0] = 0.0


def test_apply_single_qubit_identity():
    psi = basis(4, 5)
    out = apply_single_qubit(psi, I2, 2)
    assert np.allclose(out, psi)


def test_apply_single_qubit_examples():
    # expensive move on Alice's qubit flips the leftmost bit with a sign
    out = apply_single_qubit(basis(4, 0), E_MATRIX, 0)
    expected = np.zeros(16, complex)
    expected[0b1000] = -1.0
    assert np.allclose(out, expected)

    out = apply_single_qubit(basis(1, 0), SIGMA_Y, 0)
    assert np.allclose(out, [0.0, 1.0j])


def test_apply_single_qubit_bad_qubit():
    with pytest.raises(DomainError):
        apply_single_qubit(basis(2, 0), I2, 2)
    with pytest.raises(DomainError):
        apply_single_qubit(np.eye(4, dtype=complex), I2, -1)


def test_controlled_gate_examples():
    psi = basis(2, 0b11)
    assert np.allclose(apply_controlled(psi, "cz", 0, 1), -psi)
    psi = basis(2, 0b10)
    assert np.allclose(apply_controlled(psi, "cnot", 0, 1)[0b11], 1.0)
    assert np.allclose(apply_controlled(psi, "cx", 0, 1)[0b11], 1.0)
    assert np.allclose(apply_controlled(psi, "cz", 0, 1), psi)


def test_controlled_gate_errors():
    psi = basis(2, 0)
    with pytest.raises(DomainError):
        apply_controlled(psi, "cz", 1, 1)
    with pytest.raises(DomainError):
        apply_controlled(psi, "cnot", 0, 2)
    with pytest.raises(DomainError):
        apply_controlled(psi, "toffoli", 0, 1)


def test_controlled_gate_involution_exact():
    rng = np.random.default_rng(11)
    for _ in range(20):
        psi = oracle.random_state(rng)
        for kind in ("cz", "cnot"):
            twice = apply_controlled(apply_controlled(psi, kind, 1, 3), kind, 1, 3)
            assert np.max(np.abs(twice - psi)) < 1e-12


def test_gates_leave_their_input_unchanged():
    rng = np.random.default_rng(17)
    psi = oracle.random_states(rng, 3)
    before = psi.copy()
    apply_single_qubit(psi, oracle.random_unitary(rng), 1)
    apply_controlled(psi, "cz", 0, 2)
    apply_controlled(psi, "cnot", 2, 0)
    assert np.array_equal(psi, before)


def test_probabilities():
    # Born rule of the gate-level path: J|0000> is (|0000> + i|1111>)/√2
    d = simulate_circuit(entangler_circuit())
    assert abs(d.p[0] - 0.5) < 1e-12 and abs(d.p[15] - 0.5) < 1e-12
    assert OutcomeDistribution(4, np.abs(basis(4, 0b0101)) ** 2).as_dict()["0101"] == 1.0
    with pytest.raises(ValidationError):
        OutcomeDistribution(2, np.full(4, 0.5))


def test_qubitwise_matches_dense_kronecker():
    # fast path vs naive 16x16 matrix application
    rng = np.random.default_rng(7)
    for _ in range(200):
        psi = oracle.random_state(rng)
        u = oracle.random_unitary(rng)
        qubit = int(rng.integers(4))
        fast = apply_single_qubit(psi, u, qubit)
        dense = oracle.embed_single(u, qubit) @ psi
        assert np.max(np.abs(fast - dense)) < 1e-12
        assert abs(np.sum(np.abs(fast) ** 2) - 1.0) < 1e-9


def test_batched_gates_match_dense_kronecker():
    # every column of a (16, k) batch, k > 1, against the dense 16x16 operator
    rng = np.random.default_rng(19)
    for k in (2, 3, 16, 37):
        psi = oracle.random_states(rng, k)
        for qubit in range(4):
            u = oracle.random_unitary(rng)
            fast = apply_single_qubit(psi, u, qubit)
            assert fast.shape == (16, k)
            assert np.max(np.abs(fast - oracle.embed_single(u, qubit) @ psi)) < 1e-12
        for kind in ("cnot", "cz"):
            for control in range(4):
                for target in range(4):
                    if control == target:
                        continue
                    fast = apply_controlled(psi, kind, control, target)
                    dense = oracle.embed_controlled(kind, control, target) @ psi
                    assert fast.shape == (16, k)
                    assert np.array_equal(fast, dense)


def test_batch_columns_match_single_columns():
    rng = np.random.default_rng(23)
    psi = oracle.random_states(rng, 5)
    u = oracle.random_unitary(rng)
    batch = apply_controlled(apply_single_qubit(psi, u, 2), "cnot", 2, 0)
    for col in range(5):
        one = apply_controlled(apply_single_qubit(psi[:, col], u, 2), "cnot", 2, 0)
        assert np.max(np.abs(batch[:, col] - one)) < 1e-14


def test_unitary_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(50):
        psi = oracle.random_state(rng)
        u = oracle.random_unitary(rng)
        qubit = int(rng.integers(4))
        out = apply_single_qubit(psi, u, qubit)
        out = apply_single_qubit(out, u.conj().T, qubit)
        assert np.max(np.abs(out - psi)) < 1e-9


def test_equal_up_to_global_phase():
    rng = np.random.default_rng(3)
    psi = oracle.random_state(rng)
    assert equal_up_to_global_phase(psi, np.exp(0.7j) * psi)
    assert not equal_up_to_global_phase(psi, oracle.random_state(rng))
    assert not equal_up_to_global_phase(psi, 2.0 * psi)
