"""Acceptance suite: one test per headline claim, with a printed verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

import oracle
from dinerq import ewl
from dinerq.circuit import build_game_circuit, compose, entangler_circuit, simulate_circuit
from dinerq.cli import main
from dinerq.equilibrium import (
    analyze,
    best_response,
    deviation_values,
    dominant_strategies,
    enumerate_table,
    find_nash,
    find_symmetric_optima,
)
from dinerq.payoff import builtin_table
from dinerq.qasm import export_qasm, import_qasm
from dinerq.statevector import apply_single_qubit


def report(criterion: str):
    print(f"PASS {criterion}")


def test_criterion_1_best_profile_payoff(quantum_records, capsys):
    start = time.perf_counter()
    rows = {r.letters: r.payoffs for r in enumerate_table("quantum", builtin_table())}
    elapsed = time.perf_counter() - start
    for value in rows["AAAA"]:
        assert abs(value - 6.0) < 1e-9
    assert elapsed < 1.0
    code = main(["analyze", "--model", "quantum", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["payoffs"]["AAAA"] == pytest.approx([6, 6, 6, 6], abs=1e-9)
    report(f"criterion 1: AAAA payoff 6 for all players ({elapsed:.3f}s)")


def test_criterion_2_deviation_inequalities(quantum_records, capsys):
    devs = deviation_values(quantum_records, "AAAA")
    assert len(devs) == 12
    for player, alt, after, before in devs:
        assert after <= 6.0 + 1e-9
    code = main(["analyze", "--model", "quantum"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("<= 6.0000") == 12  # each deviation's value printed
    assert "Deviation check: PASS" in out
    report("criterion 2: all 12 unilateral deviations from AAAA stay <= 6")


def test_criterion_3_classical_game(classical_records):
    assert find_nash(classical_records) == ["EEEE"]
    rows = {r.letters: r.payoffs for r in classical_records}
    assert rows["EEEE"] == (1.0, 1.0, 1.0, 1.0)
    assert dominant_strategies(classical_records) == ("E", "E", "E", "E")
    assert find_symmetric_optima(classical_records) == ["CCCC"]
    assert rows["CCCC"] == (6.0, 6.0, 6.0, 6.0)
    report("criterion 3: classical NE {EEEE}, dominant E, optimum {CCCC}")


def test_criterion_4_quantum_best_replies(quantum_records):
    pay = {r.letters: r.payoffs for r in quantum_records}
    assert best_response(quantum_records, 3, ("E", "E", "E")) == ["A"]
    assert abs(pay["EEEA"][3] - 8.0) < 1e-9
    assert best_response(quantum_records, 3, ("C", "C", "C")) == ["E"]
    assert abs(pay["CCCE"][3] - 8.0) < 1e-9
    report("criterion 4: Doug's best replies (A vs EEE, E vs CCC), payoff 8")


def test_criterion_5_optimum_count(quantum_records):
    optima = find_symmetric_optima(quantum_records)
    assert len(optima) == 8
    # independently: two-branch evaluation says outcome 0000 exactly for
    # {C,A}^4 profiles with an even number of A's
    predicted = set()
    for combo in itertools.product("CA", repeat=4):
        letters = "".join(combo)
        if letters.count("A") % 2 == 0:
            assert oracle.distribution(letters)[0] > 1 - 1e-9
            predicted.add(letters)
    assert set(optima) == predicted
    report("criterion 5: exactly 8 symmetric optima = {C,A}^4 with even A count")


def test_criterion_6_eeee_not_equilibrium(quantum_records, capsys):
    assert "EEEE" not in find_nash(quantum_records)
    assert "EEEE" not in find_nash(quantum_records, strict=False)
    report_obj = analyze(quantum_records, "quantum")
    assert report_obj.eeee_witness is not None
    player, alt, after, before = report_obj.eeee_witness
    assert after > before + 1e-9
    code = main(["analyze", "--model", "quantum"])
    out = capsys.readouterr().out
    assert code == 0
    assert "EEEE is not an equilibrium" in out
    report(
        f"criterion 6: EEEE excluded; witness {'ABCD'[player]} -> {alt} "
        f"({after:.4f} > {before:.4f})"
    )


@pytest.mark.parametrize(
    "letters,outcome",
    [("CECE", "0101"), ("CCEA", "1101"), ("CCCE", "0001"), ("AAAA", "0000")],
)
def test_criterion_7_histogram_profiles(letters, outcome):
    dist = ewl.outcome_distribution(ewl.StrategyProfile.from_letters(letters))
    assert dist.p[int(outcome, 2)] > 1 - 1e-9
    # independent dense 16-dimensional evaluation agrees
    assert oracle.distribution(letters)[int(outcome, 2)] > 1 - 1e-9
    report(f"criterion 7: {letters} -> point mass at {outcome}")


def test_criterion_8_classical_reduction(classical_records, quantum_records):
    quantum = {r.letters: r.payoffs for r in quantum_records}
    for r in classical_records:
        deviation = np.max(np.abs(np.array(r.payoffs) - np.array(quantum[r.letters])))
        assert deviation < 1e-9
        assert np.allclose(r.payoffs, oracle.profile_payoffs(r.letters), atol=1e-9)
    report("criterion 8: all 16 {C,E}^4 quantum profiles reproduce classical payoffs")


def test_criterion_9_circuit_equivalence():
    start = time.perf_counter()
    for combo in itertools.product("CEA", repeat=4):
        profile = ewl.StrategyProfile.from_letters("".join(combo))
        gate_level = simulate_circuit(build_game_circuit(profile)).p
        matrix_level = ewl.outcome_distribution(profile).p
        assert 0.5 * np.sum(np.abs(gate_level - matrix_level)) < 1e-6
    composed = compose(entangler_circuit())
    target = ewl.entangler()
    phase = target[0, 0] / composed[0, 0]
    assert np.max(np.abs(composed * phase - target)) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(f"criterion 9: gate-level matches matrix pipeline on all 81 ({elapsed:.3f}s)")


def test_criterion_10_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(101)

    # normalization + unitarity round trips
    for _ in range(100):
        psi = oracle.random_state(rng)
        u = oracle.random_unitary(rng)
        qubit = int(rng.integers(4))
        s = apply_single_qubit(psi, u, qubit)
        assert abs(np.sum(np.abs(s) ** 2) - 1.0) < 1e-9
        back = apply_single_qubit(s, u.conj().T, qubit)
        assert np.max(np.abs(back - psi)) < 1e-9

    # qubit-wise application vs dense Kronecker oracle
    for _ in range(100):
        psi = oracle.random_state(rng)
        u = oracle.random_unitary(rng)
        qubit = int(rng.integers(4))
        fast = apply_single_qubit(psi, u, qubit)
        dense = oracle.embed_single(u, qubit) @ psi
        assert np.max(np.abs(fast - dense)) < 1e-12

    # permutation symmetry of the pipeline
    for _ in range(5):
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

    # QASM round trip over the whole named strategy space
    for combo in itertools.product("CEA", repeat=4):
        circuit = build_game_circuit(ewl.StrategyProfile.from_letters("".join(combo)))
        assert import_qasm(export_qasm(circuit)).gates == circuit.gates

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(f"criterion 10: property suites green ({elapsed:.3f}s)")
