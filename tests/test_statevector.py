import numpy as np
import pytest

import oracle
from dinerq.errors import DomainError, ValidationError
from dinerq.statevector import (
    SIGMA_Y,
    StateVector,
    apply_controlled,
    apply_single_qubit,
    equal_up_to_global_phase,
    new_basis_state,
    probabilities,
)

I2 = np.eye(2, dtype=complex)
E_MATRIX = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def test_basis_states():
    s = new_basis_state(4, 0)
    assert s.amps[0] == 1 and np.count_nonzero(s.amps) == 1
    assert new_basis_state(1, 1).amps[1] == 1
    assert new_basis_state(2, 2).amps[2] == 1  # |10>


@pytest.mark.parametrize("n,index", [(4, 16), (4, -1), (0, 0), (21, 0)])
def test_basis_state_domain_errors(n, index):
    with pytest.raises(DomainError):
        new_basis_state(n, index)


def test_state_rejects_nan_and_bad_norm():
    with pytest.raises(ValidationError):
        StateVector(1, np.array([np.nan, 0.0]))
    with pytest.raises(ValidationError):
        StateVector(1, np.array([0.5, 0.5]))
    with pytest.raises(ValidationError):
        StateVector(2, np.array([1.0, 0.0]))


def test_state_is_immutable():
    s = new_basis_state(2, 0)
    with pytest.raises(ValueError):
        s.amps[0] = 0.0


def test_apply_single_qubit_identity():
    s = new_basis_state(4, 5)
    out = apply_single_qubit(s, I2, 2)
    assert np.allclose(out.amps, s.amps)


def test_apply_single_qubit_examples():
    # expensive move on Alice's qubit flips the leftmost bit with a sign
    out = apply_single_qubit(new_basis_state(4, 0), E_MATRIX, 0)
    expected = np.zeros(16, complex)
    expected[0b1000] = -1.0
    assert np.allclose(out.amps, expected)

    out = apply_single_qubit(new_basis_state(1, 0), SIGMA_Y, 0)
    assert np.allclose(out.amps, [0.0, 1.0j])


def test_apply_single_qubit_bad_qubit():
    with pytest.raises(DomainError):
        apply_single_qubit(new_basis_state(2, 0), I2, 2)


def test_controlled_gate_examples():
    s = new_basis_state(2, 0b11)
    assert np.allclose(apply_controlled(s, "cz", 0, 1).amps, -s.amps)
    s = new_basis_state(2, 0b10)
    assert np.allclose(apply_controlled(s, "cnot", 0, 1).amps[0b11], 1.0)
    assert np.allclose(apply_controlled(s, "cz", 0, 1).amps, s.amps)


def test_controlled_gate_errors():
    s = new_basis_state(2, 0)
    with pytest.raises(DomainError):
        apply_controlled(s, "cz", 1, 1)
    with pytest.raises(DomainError):
        apply_controlled(s, "cnot", 0, 2)
    with pytest.raises(DomainError):
        apply_controlled(s, "toffoli", 0, 1)


def test_controlled_gate_involution_exact():
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = StateVector(4, oracle.random_state(rng))
        for kind in ("cz", "cnot"):
            twice = apply_controlled(apply_controlled(s, kind, 1, 3), kind, 1, 3)
            assert np.max(np.abs(twice.amps - s.amps)) < 1e-12


def test_probabilities():
    j = oracle.game_operator()
    d = probabilities(StateVector(4, j @ new_basis_state(4, 0).amps))
    assert abs(d.p[0] - 0.5) < 1e-12 and abs(d.p[15] - 0.5) < 1e-12
    assert probabilities(new_basis_state(4, 0b0101)).as_dict()["0101"] == 1.0
    d = probabilities(StateVector(2, np.full(4, 0.5)))
    assert np.allclose(d.p, 0.25)


def test_qubitwise_matches_dense_kronecker():
    # fast path vs naive 16x16 matrix application
    rng = np.random.default_rng(7)
    for _ in range(200):
        psi = oracle.random_state(rng)
        u = oracle.random_unitary(rng)
        qubit = int(rng.integers(4))
        fast = apply_single_qubit(StateVector(4, psi), u, qubit)
        dense = oracle.embed_single(u, qubit) @ psi
        assert np.max(np.abs(fast.amps - dense)) < 1e-12
        assert abs(np.sum(np.abs(fast.amps) ** 2) - 1.0) < 1e-9


def test_unitary_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(50):
        psi = oracle.random_state(rng)
        u = oracle.random_unitary(rng)
        qubit = int(rng.integers(4))
        s = apply_single_qubit(StateVector(4, psi), u, qubit)
        s = apply_single_qubit(s, u.conj().T, qubit)
        assert np.max(np.abs(s.amps - psi)) < 1e-9


def test_equal_up_to_global_phase():
    rng = np.random.default_rng(3)
    psi = oracle.random_state(rng)
    assert equal_up_to_global_phase(psi, np.exp(0.7j) * psi)
    assert not equal_up_to_global_phase(psi, oracle.random_state(rng))
    assert not equal_up_to_global_phase(psi, 2.0 * psi)
