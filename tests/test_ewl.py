import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracle
from dinerq import ewl
from dinerq.errors import DomainError
from dinerq.statevector import equal_up_to_global_phase

thetas = st.floats(0.0, math.pi, allow_nan=False)
phis = st.floats(0.0, math.pi / 2, allow_nan=False)


def test_entangler_matches_closed_form():
    j = ewl.entangler()
    psi = j[:, 0]
    expected = np.zeros(16, complex)
    expected[0] = 1 / np.sqrt(2)
    expected[15] = 1j / np.sqrt(2)
    assert np.max(np.abs(psi - expected)) < 1e-12
    assert abs(j[0, 0] - 1 / np.sqrt(2)) < 1e-12
    assert np.allclose(j @ j.conj().T, np.eye(16), atol=1e-9)
    assert np.max(np.abs(j - oracle.game_operator())) < 1e-12


def test_disentangler():
    j, jd = ewl.entangler(), ewl.disentangler()
    assert np.allclose(jd @ j, np.eye(16), atol=1e-9)
    assert np.max(np.abs(jd.conj().T - j)) < 1e-12
    ghz = j[:, 0]
    back = jd @ ghz
    assert abs(back[0] - 1.0) < 1e-12


def test_named_strategy_matrices():
    assert np.allclose(ewl.strategy_unitary(ewl.C), np.eye(2))
    assert np.allclose(ewl.strategy_unitary(ewl.E), [[0, 1], [-1, 0]])
    assert np.allclose(ewl.strategy_unitary(ewl.A), np.diag([1j, -1j]))


def test_strategy_domain():
    with pytest.raises(DomainError):
        ewl.Strategy.parametric(-0.1, 0.0)
    with pytest.raises(DomainError):
        ewl.Strategy.parametric(0.0, math.pi)
    with pytest.raises(DomainError):
        ewl.Strategy.named("B")
    ewl.Strategy.parametric(math.pi, math.pi / 2)  # closed endpoints allowed


@pytest.mark.parametrize(
    "letters,basis_index",
    [("CCCC", 0b0000), ("AAAA", 0b0000), ("EEEA", 0b0001)],
)
def test_final_state_examples(letters, basis_index):
    psi = ewl.final_state(ewl.StrategyProfile.from_letters(letters))
    expected = np.zeros(16, complex)
    expected[basis_index] = 1.0
    assert equal_up_to_global_phase(psi.amps, expected)


@pytest.mark.parametrize(
    "letters,outcome",
    [("CECE", "0101"), ("CCEA", "1101"), ("CCCE", "0001")],
)
def test_outcome_distribution_point_masses(letters, outcome):
    dist = ewl.outcome_distribution(ewl.StrategyProfile.from_letters(letters))
    assert dist.top_outcome() == outcome
    assert dist.p[int(outcome, 2)] > 1 - 1e-9
    naive = oracle.distribution(letters)
    assert np.max(np.abs(dist.p - naive)) < 1e-12


def test_classical_reduction_all_16():
    # every {C,E}^4 profile collapses onto the matching bit string
    for combo in itertools.product("CE", repeat=4):
        letters = "".join(combo)
        dist = ewl.outcome_distribution(ewl.StrategyProfile.from_letters(letters))
        index = int("".join("1" if ch == "E" else "0" for ch in letters), 2)
        assert dist.p[index] > 1 - 1e-9


def test_permutation_equivariance():
    rng = np.random.default_rng(23)
    for _ in range(20):
        strategies = [
            ewl.Strategy.parametric(rng.uniform(0, math.pi), rng.uniform(0, math.pi / 2))
            for _ in range(4)
        ]
        base = ewl.outcome_distribution(ewl.StrategyProfile(*strategies)).p
        for perm in itertools.permutations(range(4)):
            permuted = ewl.outcome_distribution(
                ewl.StrategyProfile(*(strategies[p] for p in perm))
            ).p
            for k in range(16):
                bits = [(k >> (3 - q)) & 1 for q in range(4)]
                k_perm = sum(bits[p] << (3 - q) for q, p in enumerate(perm))
                assert abs(base[k] - permuted[k_perm]) < 1e-9


@given(st.sampled_from("CEA"))
def test_parametric_continuity_at_named_points(name):
    named = ewl.Strategy.named(name)
    parametric = ewl.Strategy.parametric(*ewl.NAMED_PARAMS[name])
    rest = [ewl.C, ewl.E, ewl.A]
    d1 = ewl.outcome_distribution(ewl.StrategyProfile(named, *rest[:3])).p
    d2 = ewl.outcome_distribution(ewl.StrategyProfile(parametric, *rest[:3])).p
    assert np.max(np.abs(d1 - d2)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(thetas, phis, thetas, phis)
def test_pipeline_preserves_norm(t1, p1, t2, p2):
    profile = ewl.StrategyProfile(
        ewl.Strategy.parametric(t1, p1),
        ewl.Strategy.parametric(t2, p2),
        ewl.Strategy.parametric(t2, p1),
        ewl.Strategy.parametric(t1, p2),
    )
    psi = ewl.final_state(profile)
    assert abs(np.sum(np.abs(psi.amps) ** 2) - 1.0) < 1e-9


@settings(max_examples=50, deadline=None)
@given(thetas, phis)
def test_strategy_unitary_is_unitary(theta, phi):
    u = ewl.strategy_unitary(ewl.Strategy.parametric(theta, phi))
    assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12


def test_profile_letters_and_parsing():
    p = ewl.StrategyProfile.from_letters("CEAC")
    assert p.letters == "CEAC"
    q = ewl.StrategyProfile(ewl.C, ewl.E, ewl.Strategy.parametric(1.0, 0.5), ewl.C)
    assert q.letters is None
    with pytest.raises(DomainError):
        ewl.StrategyProfile.from_letters("CE")


# --- batched kernel against the oracle ----------------------------------------

def _oracle_rows(th: np.ndarray, ph: np.ndarray) -> np.ndarray:
    return np.array(
        [
            oracle.distribution([oracle.strategy_matrix(t, p) for t, p in zip(trow, prow)])
            for trow, prow in zip(th, ph)
        ]
    )


@st.composite
def angle_batches(draw):
    # N=1, the 81-profile table size, and one past a 256-profile sweep chunk
    n = draw(st.sampled_from([1, 81, 257]))
    th = draw(hnp.arrays(float, (n, 4), elements=thetas))
    ph = draw(hnp.arrays(float, (n, 4), elements=phis))
    return th, ph


@settings(max_examples=25, deadline=None)
@given(angle_batches())
def test_batch_probabilities_match_oracle(batch):
    th, ph = batch
    got = ewl.batch_probabilities(th, ph)
    assert got.shape == (len(th), 16)
    assert np.max(np.abs(got - _oracle_rows(th, ph))) < 1e-12


def test_batch_of_named_profiles_matches_oracle():
    letters = ["".join(c) for c in itertools.product("CEA", repeat=4)]
    params = np.array([[ewl.NAMED_PARAMS[ch] for ch in row] for row in letters])
    got = ewl.batch_probabilities(params[..., 0], params[..., 1])
    want = np.array([oracle.distribution(row) for row in letters])
    assert np.max(np.abs(got - want)) < 1e-12


def test_sweep_json_matches_oracle(capsys):
    from dinerq.cli import main

    assert main([
        "sweep", "--player", "B", "--others", "CEA",
        "--theta-steps", "20", "--phi-steps", "13", "--format", "json",
    ]) == 0
    grid = json.loads(capsys.readouterr().out)["grid"]
    assert len(grid) == 260  # crosses a 256-profile chunk boundary
    named = [oracle.NAMED[ch] for ch in "CEA"]
    for point in grid:
        us = list(named)
        us.insert(1, oracle.strategy_matrix(point["theta"], point["phi"]))
        want = oracle.payoffs(oracle.distribution(us))[1]
        assert abs(point["payoff"] - want) < 1e-12


def test_final_state_matches_oracle_amplitudes():
    rng = np.random.default_rng(31)
    for _ in range(10):
        th, ph = rng.uniform(0, math.pi, 4), rng.uniform(0, math.pi / 2, 4)
        profile = ewl.StrategyProfile(*map(ewl.Strategy.parametric, th, ph))
        want = oracle.final_state([oracle.strategy_matrix(t, p) for t, p in zip(th, ph)])
        assert np.max(np.abs(ewl.final_state(profile).amps - want)) < 1e-12


@pytest.mark.parametrize(
    "theta,phi",
    [
        (-1e-12, 0.0),
        (math.pi + 1e-9, 0.0),
        (float("nan"), 0.0),
        (float("inf"), 0.0),
        (0.0, -1e-12),
        (0.0, math.pi / 2 + 1e-9),
        (0.0, float("nan")),
    ],
)
def test_batch_rejects_bad_angles(theta, phi):
    th = np.zeros((3, 4))
    ph = np.zeros((3, 4))
    th[2, 1], ph[2, 1] = theta, phi
    with pytest.raises(DomainError):
        ewl.batch_probabilities(th, ph)


def test_batch_rejects_bad_shapes():
    with pytest.raises(DomainError):
        ewl.batch_probabilities(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(DomainError):
        ewl.batch_probabilities(np.zeros((2, 4)), np.zeros((3, 4)))
    with pytest.raises(DomainError):
        ewl.batch_probabilities(np.zeros(4), np.zeros(4))
