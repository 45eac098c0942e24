import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from dinerq import equilibrium
from dinerq.equilibrium import (
    ProfileRecord,
    analyze,
    best_response,
    deviation_values,
    dominant_strategies,
    enumerate_table,
    find_nash,
    find_pareto_standard,
    find_symmetric_optima,
    profitable_deviation,
)
from dinerq.errors import DomainError, ValidationError
from dinerq.payoff import PayoffTable, from_symmetric
from dinerq.statevector import OutcomeDistribution

# the 8 profiles reaching (6,6,6,6): {C,A}^4 with an even number of A's
SYMMETRIC_OPTIMA = ["CCCC", "CCAA", "CACA", "CAAC", "ACCA", "ACAC", "AACC", "AAAA"]


def point_mass(outcome: str) -> OutcomeDistribution:
    p = np.zeros(16)
    p[int(outcome, 2)] = 1.0
    return OutcomeDistribution(4, p)


def toy_records(payoff_by_letters: dict) -> list:
    return [
        ProfileRecord(letters, point_mass("0000"), tuple(map(float, pay)))
        for letters, pay in payoff_by_letters.items()
    ]


def test_enumerate_counts_and_order(classical_records, quantum_records):
    assert len(classical_records) == 16
    assert len(quantum_records) == 81
    assert [r.letters for r in classical_records[:3]] == ["CCCC", "CCCE", "CCEC"]
    assert quantum_records[0].letters == "CCCC"
    assert quantum_records[-1].letters == "AAAA"
    # C < E < A ordering within the last player
    assert [r.letters for r in quantum_records[:3]] == ["CCCC", "CCCE", "CCCA"]


def test_enumerate_is_deterministic(table, quantum_records):
    again = enumerate_table("quantum", table)
    for a, b in zip(quantum_records, again):
        assert a.letters == b.letters
        assert np.array_equal(a.distribution.p, b.distribution.p)
        assert a.payoffs == b.payoffs


def test_enumerate_rejects_unknown_model(table):
    with pytest.raises(DomainError):
        enumerate_table("mixed", table)
    with pytest.raises(DomainError):
        enumerate_table(["quantum"], table)


def test_quantum_rows_match_oracle(quantum_records):
    for r in quantum_records:
        assert np.max(np.abs(np.array(r.payoffs) - oracle.profile_payoffs(r.letters))) < 1e-9


def test_quantum_row_examples(quantum_records):
    rows = {r.letters: r for r in quantum_records}
    assert np.allclose(rows["AAAA"].payoffs, [6, 6, 6, 6], atol=1e-9)
    assert np.allclose(rows["EEEE"].payoffs, [1, 1, 1, 1], atol=1e-9)
    assert rows["CCEA"].distribution.top_outcome() == "1101"
    assert np.allclose(rows["CCEA"].payoffs, [3, 3, 0, 3], atol=1e-9)


def test_classical_row_examples(classical_records):
    rows = {r.letters: r.payoffs for r in classical_records}
    assert rows["EEEE"] == (1, 1, 1, 1)
    assert rows["CCCC"] == (6, 6, 6, 6)
    assert rows["CCCE"] == (4, 4, 4, 8)


def test_classical_quantum_consistency(classical_records, quantum_records):
    quantum = {r.letters: r.payoffs for r in quantum_records}
    for r in classical_records:
        assert np.max(np.abs(np.array(r.payoffs) - np.array(quantum[r.letters]))) < 1e-9


def test_table_symmetry(quantum_records):
    pay = {r.letters: r.payoffs for r in quantum_records}
    rng = np.random.default_rng(17)
    profiles = rng.choice(sorted(pay), size=20, replace=False)
    for letters in profiles:
        for perm in itertools.permutations(range(4)):
            permuted = "".join(letters[p] for p in perm)
            for q in range(4):
                assert abs(pay[letters][perm[q]] - pay[permuted][q]) < 1e-9


def test_classical_nash(classical_records):
    assert find_nash(classical_records) == ["EEEE"]
    weak = find_nash(classical_records, strict=False)
    assert "EEEE" in weak and "CCCE" in weak  # payoff ties admit weak equilibria
    assert weak == sorted(
        (p for p in ("".join(t) for t in itertools.product("CE", repeat=4))
         if _is_weak_nash_oracle(p)),
        key=lambda s: ["CE".index(c) for c in s],
    )


def _is_weak_nash_oracle(letters: str) -> bool:
    base = oracle.profile_payoffs(letters)
    for i in range(4):
        for alt in "CE":
            if alt == letters[i]:
                continue
            dev = oracle.profile_payoffs(letters[:i] + alt + letters[i + 1 :])
            if dev[i] > base[i] + 1e-9:
                return False
    return True


def test_quantum_nash(quantum_records):
    nash = find_nash(quantum_records)
    assert "AAAA" in nash
    assert "EEEE" not in nash
    assert "EEEE" not in find_nash(quantum_records, strict=False)


def test_constant_table_weak_nash_everywhere():
    records = toy_records(
        {"".join(t): (1, 1, 1, 1) for t in itertools.product("CE", repeat=4)}
    )
    assert len(find_nash(records, strict=False)) == 16
    assert find_nash(records, strict=True) == []  # ties rule out strictness
    assert dominant_strategies(records) == (None, None, None, None)


def test_pareto_standard_classical(classical_records):
    pareto = find_pareto_standard(classical_records)
    assert "CCCC" in pareto
    assert "CCCE" in pareto  # (4,4,4,8) carries the maximal utility 8
    assert sorted(pareto) == sorted(["CCCC", "CCCE", "CCEC", "CECC", "ECCC"])


def test_pareto_toy_strict_domination():
    records = toy_records({"CCCC": (1, 1, 1, 1), "CCCE": (2, 2, 2, 2)})
    assert find_pareto_standard(records) == ["CCCE"]


def test_symmetric_optima(classical_records, quantum_records):
    assert find_symmetric_optima(classical_records) == ["CCCC"]
    optima = find_symmetric_optima(quantum_records)
    assert len(optima) == 8
    assert sorted(optima) == sorted(SYMMETRIC_OPTIMA)


def test_best_responses(classical_records, quantum_records):
    assert best_response(quantum_records, 3, ("E", "E", "E")) == ["A"]
    assert best_response(quantum_records, 3, ("C", "C", "C")) == ["E"]
    assert best_response(classical_records, 3, ("C", "C", "C")) == ["E"]
    # two cheap players: the other two best-respond with matching C or A
    assert best_response(quantum_records, 3, ("C", "C", "C")) == ["E"]
    with pytest.raises(DomainError):
        best_response(quantum_records, 3, ("C", "C", "Q"))
    with pytest.raises(DomainError):  # a substring of "CEA" is not a strategy
        best_response(quantum_records, 3, ("CE", "C", "C"))
    with pytest.raises(DomainError):
        best_response(quantum_records, 4, ("C", "C", "C"))


def test_dominant_strategies(classical_records, quantum_records):
    assert dominant_strategies(classical_records) == ("E", "E", "E", "E")
    assert dominant_strategies(quantum_records) == (None, None, None, None)


def test_deviations_from_best_profile(quantum_records):
    devs = deviation_values(quantum_records, "AAAA")
    assert len(devs) == 12  # 4 players x {C, E, A}
    for player, alt, after, before in devs:
        assert abs(before - 6.0) < 1e-9
        assert after <= before + 1e-9
    assert profitable_deviation(quantum_records, "AAAA") is None


def test_eeee_witness(quantum_records):
    witness = profitable_deviation(quantum_records, "EEEE")
    assert witness is not None
    player, alt, after, before = witness
    assert alt == "A" and after > before + 1e-9


def test_incomplete_records_rejected(quantum_records):
    with pytest.raises(ValidationError):
        find_nash(quantum_records[:-1])


def test_analyze_report(quantum_records):
    report = analyze(quantum_records, "quantum")
    assert report.nash == ("AAAA",)
    assert len(report.symmetric_optima) == 8
    assert report.aaaa_deviations is not None and len(report.aaaa_deviations) == 12
    assert report.eeee_witness is not None


# Values within, at and beyond TIE_TOL of each other, so that ties decide;
# 0, 1e-9 and 2e-9 differ by exactly TIE_TOL.
TIE_VALUES = [0.0, 1e-9, 2e-9, 3e-10, 1.0, 1.0 + 5e-10, 1.0 - 5e-10, 1.0 + 1e-9, 2.0, -1.0]
letter_sets = st.sets(st.sampled_from("CEA"), min_size=1).map(
    lambda chosen: "".join(ch for ch in "CEA" if ch in chosen)
)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(*[letter_sets] * 4),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["ties", "equal", "normal"]),
)
def test_routines_match_loop_reference(sets, seed, values):
    rng = np.random.default_rng(seed)
    profiles = oracle.profiles(sets)
    draw = {
        "ties": lambda: rng.choice(TIE_VALUES, size=4),
        "equal": lambda: np.repeat(rng.choice(TIE_VALUES), 4),  # symmetric vectors
        "normal": lambda: rng.normal(size=4),
    }[values]
    pay = {p: tuple(draw()) for p in profiles}
    records = toy_records({p: pay[p] for p in rng.permutation(profiles)})
    for strict in (True, False):
        assert find_nash(records, strict) == oracle.nash(pay, sets, strict)
    assert find_pareto_standard(records) == oracle.pareto(pay, sets)
    assert find_symmetric_optima(records) == oracle.symmetric_optima(pay, sets)
    assert dominant_strategies(records) == oracle.dominant(pay, sets)
    player = int(rng.integers(4))
    opponents = tuple(sets[i][int(rng.integers(len(sets[i])))] for i in range(4) if i != player)
    assert best_response(records, player, opponents) == oracle.best_response(
        pay, sets, player, opponents
    )
    letters = profiles[int(rng.integers(len(profiles)))]
    assert deviation_values(records, letters) == [
        (i, alt, pay[letters[:i] + alt + letters[i + 1 :]][i], pay[letters][i])
        for i in range(4)
        for alt in sets[i]
    ]


# --- metamorphic relations on integer tables ----------------------------------
# Integer utilities keep every payoff gap at 0 or at least 1, far from TIE_TOL,
# so a relation that holds for exact payoffs must hold bit for bit here.

MODELS = ("classical", "quantum")
SWAP_CE = str.maketrans("CE", "EC")


def integer_table(rng) -> np.ndarray:
    """A random 16x4 integer table, half the time in symmetric form."""
    if rng.integers(2):
        return rng.integers(-9, 10, size=(16, 4))
    return from_symmetric(rng.integers(-9, 10, size=4), rng.integers(-9, 10, size=4)).u


def equilibrium_sets(model: str, u: np.ndarray) -> tuple:
    records = enumerate_table(model, PayoffTable(u))
    return (
        find_nash(records),
        find_nash(records, strict=False),
        find_pareto_standard(records),
        dominant_strategies(records),
    )


def permute_players(u: np.ndarray, perm) -> np.ndarray:
    """The table in which player k is player perm[k] of `u`."""
    out = np.empty_like(u)
    for outcome in range(16):
        bits = format(outcome, "04b")
        moved = int("".join(bits[perm[k]] for k in range(4)), 2)
        out[moved] = [u[outcome, perm[k]] for k in range(4)]
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(MODELS))
def test_positive_affine_utilities_keep_every_set(seed, model):
    rng = np.random.default_rng(seed)
    u = integer_table(rng)
    a, b = rng.integers(1, 6, size=4), rng.integers(-20, 21, size=4)
    assert equilibrium_sets(model, a * u + b) == equilibrium_sets(model, u)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(MODELS), st.permutations(range(4)))
def test_permuting_players_permutes_every_set(seed, model, perm):
    u = integer_table(np.random.default_rng(seed))
    nash, weak, pareto, dominant = equilibrium_sets(model, u)
    p_nash, p_weak, p_pareto, p_dominant = equilibrium_sets(model, permute_players(u, perm))

    def moved(profiles):
        return {"".join(p[perm[k]] for k in range(4)) for p in profiles}

    assert set(p_nash) == moved(nash)
    assert set(p_weak) == moved(weak)
    assert set(p_pareto) == moved(pareto)
    assert p_dominant == tuple(dominant[perm[k]] for k in range(4))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_complementing_outcomes_swaps_c_and_e(seed):
    u = integer_table(np.random.default_rng(seed))
    nash, weak, pareto, dominant = equilibrium_sets("classical", u)
    c_nash, c_weak, c_pareto, c_dominant = equilibrium_sets("classical", u[np.arange(16) ^ 15])
    assert set(c_nash) == {p.translate(SWAP_CE) for p in nash}
    assert set(c_weak) == {p.translate(SWAP_CE) for p in weak}
    assert set(c_pareto) == {p.translate(SWAP_CE) for p in pareto}
    assert c_dominant == tuple(s and s.translate(SWAP_CE) for s in dominant)


# --- one payoff array per analysis -------------------------------------------


def test_analyze_builds_the_payoff_array_once(quantum_records, monkeypatch):
    calls = []
    build = equilibrium._payoff_array
    monkeypatch.setattr(
        equilibrium, "_payoff_array", lambda records: calls.append(1) or build(records)
    )
    analyze(quantum_records, "quantum")
    assert len(calls) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(MODELS))
def test_analyze_equals_public_routines(seed, model):
    records = enumerate_table(model, PayoffTable(integer_table(np.random.default_rng(seed))))
    report = analyze(records, model)
    assert report.model == model
    assert report.nash == tuple(find_nash(records))
    assert report.weak_nash == tuple(find_nash(records, strict=False))
    assert report.pareto_standard == tuple(find_pareto_standard(records))
    assert report.symmetric_optima == tuple(find_symmetric_optima(records))
    assert report.dominant == dominant_strategies(records)
    aaaa = tuple(deviation_values(records, "AAAA")) if model == "quantum" else None
    assert report.aaaa_deviations == aaaa
    assert report.eeee_witness == profitable_deviation(records, "EEEE")
