import itertools
import json

import numpy as np
import pytest

import oracle
from dinerq.errors import DomainError, ValidationError
from dinerq.payoff import (
    builtin_table,
    dump_table,
    expected_payoffs,
    from_symmetric,
    load_table,
    symmetric_payoff,
)
from dinerq.statevector import OutcomeDistribution


def point_mass(outcome: str) -> OutcomeDistribution:
    p = np.zeros(16)
    p[int(outcome, 2)] = 1.0
    return OutcomeDistribution(4, p)


def test_builtin_entries():
    table = builtin_table()
    assert table.utilities("0000") == (6, 6, 6, 6)
    assert table.utilities("0001") == (4, 4, 4, 8)
    assert table.utilities("1110") == (3, 3, 3, 0)
    assert table.utilities("1111") == (1, 1, 1, 1)


def test_doug_column_coefficients():
    table = builtin_table()
    assert tuple(table.u[:, 3]) == tuple(float(v) for v in oracle.DOUG_COEFFS)


def test_symmetric_payoff():
    assert symmetric_payoff("C", 0) == 6
    assert symmetric_payoff("E", 3) == 1
    assert symmetric_payoff("C", 3) == 0
    with pytest.raises(DomainError):
        symmetric_payoff("C", 4)
    with pytest.raises(DomainError):
        symmetric_payoff("A", 0)


def test_expected_payoffs_examples():
    table = builtin_table()
    assert np.allclose(expected_payoffs(point_mass("0000"), table), [6, 6, 6, 6])
    assert np.allclose(expected_payoffs(point_mass("0001"), table), [4, 4, 4, 8])
    half = OutcomeDistribution(4, np.array([0.5] + [0.0] * 14 + [0.5]))
    assert np.allclose(expected_payoffs(half, table), [3.5] * 4)


def test_doug_row_identity():
    # expected payoff equals the literal 16-term dot product
    rng = np.random.default_rng(5)
    table = builtin_table()
    for _ in range(20):
        p = rng.dirichlet(np.ones(16))
        dist = OutcomeDistribution(4, p)
        doug = expected_payoffs(dist, table)[3]
        literal = sum(p[k] * oracle.DOUG_COEFFS[k] for k in range(16))
        assert abs(doug - literal) < 1e-12


def test_symmetry_invariant():
    table = builtin_table()
    assert table.is_symmetric()
    for k in range(16):
        bits = [(k >> (3 - q)) & 1 for q in range(4)]
        for perm in itertools.permutations(range(4)):
            k_perm = sum(bits[p] << (3 - q) for q, p in enumerate(perm))
            for q in range(4):
                assert table.u[k, perm[q]] == table.u[k_perm, q]


def test_payoffs_bounded():
    rng = np.random.default_rng(9)
    table = builtin_table()
    for _ in range(50):
        dist = OutcomeDistribution(4, rng.dirichlet(np.ones(16)))
        pay = expected_payoffs(dist, table)
        assert np.all(pay >= 0.0) and np.all(pay <= 8.0)


def test_round_trip_serialization():
    table = builtin_table()
    reloaded = load_table(dump_table(table))
    assert np.array_equal(table.u, reloaded.u)


def test_symmetric_config_equals_builtin():
    text = json.dumps({"symmetric": {"C": [6, 4, 3, 0], "E": [8, 4, 3, 1]}})
    assert np.array_equal(load_table(text).u, builtin_table().u)


def test_missing_outcome_named_in_error():
    doc = json.loads(dump_table(builtin_table()))
    del doc["outcomes"]["1010"]
    with pytest.raises(ValidationError, match="1010"):
        load_table(json.dumps(doc))


def test_load_table_errors():
    with pytest.raises(ValidationError):
        load_table("not json")
    with pytest.raises(ValidationError):
        load_table(json.dumps({"symmetric": {"C": [1, 2, 3, 4]}}))
    with pytest.raises(ValidationError, match="0000"):
        load_table(json.dumps({"outcomes": {format(k, "04b"): [0, 0, 0, "x"] if k == 0 else [0, 0, 0, 0] for k in range(16)}}))
    with pytest.raises(ValidationError):
        load_table(json.dumps({"outcomes": {}, "symmetric": {}}))


def test_from_symmetric_validates_shape():
    with pytest.raises(ValidationError):
        from_symmetric([1, 2, 3], [4, 5, 6, 7])


def test_symmetric_rows_must_be_arrays():
    # a string row used to be read character by character as (6, 4, 3, 0)
    text = json.dumps({"symmetric": {"C": "6430", "E": "8431"}})
    with pytest.raises(ValidationError, match="JSON array"):
        load_table(text)


def test_outcome_rows_must_be_arrays():
    doc = json.loads(dump_table(builtin_table()))
    doc["outcomes"]["0110"] = "3333"
    with pytest.raises(ValidationError, match="0110"):
        load_table(json.dumps(doc))


def test_symmetric_must_be_an_object():
    with pytest.raises(ValidationError, match="symmetric"):
        load_table(json.dumps({"symmetric": "CE"}))
    with pytest.raises(ValidationError, match="symmetric"):
        load_table(json.dumps({"symmetric": [[6, 4, 3, 0], [8, 4, 3, 1]]}))


def _symmetric_text(cheap: str) -> str:
    return '{"symmetric": {"C": [' + cheap + '], "E": [8, 4, 3, 1]}}'


# Payoff configs that used to escape as OverflowError, ValueError,
# UnicodeDecodeError or RecursionError, or (strings, booleans) were read as
# numbers, and the non-finite numbers that `json.loads` accepts. Each must be a
# ValidationError.
BAD_PAYOFF_CONFIGS = {
    "Infinity utility": _symmetric_text("Infinity, 4, 3, 0").encode(),
    "-Infinity utility": _symmetric_text("6, 4, 3, -Infinity").encode(),
    "NaN utility": _symmetric_text("6, NaN, 3, 0").encode(),
    "400-digit integer": _symmetric_text("1" + "0" * 400 + ", 4, 3, 0").encode(),
    "5001-digit integer": _symmetric_text("1" * 5001 + ", 4, 3, 0").encode(),
    "not UTF-8": b'{"symmetric": {"C": [6, 4, 3, 0], "E": [8, 4, 3, 1]}}\xff',
    "string utility": _symmetric_text('"6", 4, 3, 0').encode(),
    "boolean utility": _symmetric_text("6, 4, true, 0").encode(),
    "deep nesting": b"[" * 100_000,
}


@pytest.mark.parametrize("case", sorted(BAD_PAYOFF_CONFIGS))
def test_bad_payoff_config_is_validation_error(case):
    data = BAD_PAYOFF_CONFIGS[case]
    with pytest.raises(ValidationError):
        load_table(data)
    if case != "not UTF-8":
        with pytest.raises(ValidationError):
            load_table(data.decode())


def test_outcome_utilities_must_be_numbers():
    doc = json.loads(dump_table(builtin_table()))
    doc["outcomes"]["1001"] = [3, 3, False, 3]
    with pytest.raises(ValidationError, match="1001"):
        load_table(json.dumps(doc))


def test_utf8_bytes_load_like_text():
    text = json.dumps({"symmetric": {"C": [6, 4, 3, 0], "E": [8, 4, 3, 1]}})
    assert np.array_equal(load_table(text.encode()).u, load_table(text).u)
