"""Input fuzzing: payoff JSON, QASM lines and CLI tokens end as GameError.

Malformed input may only ever raise `GameError` from the library, and the
CLI may only return 0 or 1 or exit 2 through argparse; any other exception is
a traceback for the user.
"""

import contextlib
import io
import json

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dinerq.cli import main, parse_profile
from dinerq.errors import GameError
from dinerq.payoff import OUTCOMES, load_table
from dinerq.qasm import HEADER, import_qasm
from test_payoff import BAD_PAYOFF_CONFIGS

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner, max_size=5),
    max_leaves=20,
)
# Rows that are mostly numbers, so the documents below get past the shape checks.
rows = st.lists(json_scalars, min_size=3, max_size=5) | json_values
symmetric_docs = st.fixed_dictionaries(
    {"symmetric": st.fixed_dictionaries({"C": rows, "E": rows}) | json_values}
)
outcome_docs = st.fixed_dictionaries(
    {"outcomes": st.fixed_dictionaries({o: rows for o in OUTCOMES})}
)
payoff_texts = (
    (json_values | symmetric_docs | outcome_docs).map(json.dumps)
    | st.text(max_size=40)
    | st.binary(max_size=40)
)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


@FUZZ
@given(payoff_texts)
@example(BAD_PAYOFF_CONFIGS["400-digit integer"].decode())
@example(BAD_PAYOFF_CONFIGS["5001-digit integer"].decode())
@example(BAD_PAYOFF_CONFIGS["not UTF-8"])
@example(BAD_PAYOFF_CONFIGS["string utility"].decode())
@example(BAD_PAYOFF_CONFIGS["boolean utility"].decode())
@example(BAD_PAYOFF_CONFIGS["deep nesting"].decode())
def test_load_table_raises_only_game_error(text):
    try:
        table = load_table(text)
    except GameError:
        return
    # Accepted: every utility was a JSON number and is in the table as given.
    doc = json.loads(text)
    if "symmetric" in doc:
        values = doc["symmetric"]["C"] + doc["symmetric"]["E"]
        assert sorted(set(map(float, values))) == sorted(set(table.u.ravel()))
    else:
        values = [v for o in OUTCOMES for v in doc["outcomes"][o]]
        assert np.array_equal(np.array(values, dtype=float), table.u.ravel())
    assert all(_is_number(v) for v in values)


qasm_tokens = st.sampled_from(
    ["u3", "cz", "cx", "measure", "q[0]", "q[3]", "q[4]", "c[1]", "->", ",", ";",
     "(", ")", "pi", "-pi/2", "pi/0", "1e999", "nan", "q[" + "9" * 5000 + "]"]
)
qasm_lines = st.text(max_size=30) | st.lists(qasm_tokens, max_size=8).map(" ".join)


@FUZZ
@given(st.lists(qasm_lines, max_size=6))
@example(["u3(0,0,0) q[" + "1" * 5000 + "];"])
@example(["u3(pi/0,0,0) q[0];"])
def test_import_qasm_raises_only_game_error(lines):
    try:
        import_qasm("\n".join(HEADER + lines))
    except GameError:
        pass


profile_texts = st.text(max_size=30) | st.lists(
    st.sampled_from(["C", "E", "A", "theta=1:phi=0.5", "theta=9:phi=0", "theta=nan:phi=0",
                     "theta=1e999:phi=0", "phi=0", "", " ", "c"]),
    max_size=5,
).map(",".join)


def _run_main(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return main(argv)
    except SystemExit as exc:
        return exc.code


@FUZZ
@given(
    text=profile_texts,
    command=st.sampled_from(["simulate", "export-qasm", "sweep"]),
    model=st.sampled_from(["classical", "quantum"]),
    steps=st.tuples(st.integers(-1, 6), st.integers(-1, 6)),
)
def test_profile_tokens_raise_only_game_error(text, command, model, steps):
    try:
        parse_profile(text)
    except GameError:
        pass
    if command == "sweep":
        argv = ["sweep", "--player", "D", "--others", text, "--model", model,
                "--theta-steps", str(steps[0]), "--phi-steps", str(steps[1])]
    elif command == "simulate":
        argv = ["simulate", "--profile", text, "--model", model, "--format", "json"]
    else:
        argv = ["export-qasm", "--profile", text]
    assert _run_main(argv) in (0, 1, 2)
