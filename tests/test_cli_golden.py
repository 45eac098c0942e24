"""Golden snapshot of CLI output.

`tests/data/cli_golden.json` holds the stdout of every case below, captured
before the batched EWL kernel replaced the per-gate pipeline. Text output and
every `table`/`analyze` output must match byte for byte. Parametric json/csv
output must have the same keys and cells, with numbers within 1e-12: the
kernel sums in a different order, so the last ulp may move.

Regenerate (only when an output change is intended):

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import pytest

from dinerq.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
NUMERIC_ATOL = 1e-12

FORMATS = ("text", "json", "csv")
_COMMANDS = [
    ["simulate", "--profile", "A,A,A,A"],
    ["simulate", "--profile", "C,E,A,E"],
    ["simulate", "--profile", "C,E,C,E", "--model", "classical"],
    ["simulate", "--profile", "A,E,C,C", "--shots", "1000", "--seed", "7"],
    ["simulate", "--profile", "theta=1.2:phi=0.3,C,E,A"],
    ["simulate", "--profile", "theta=0.7:phi=1.1,theta=2.9:phi=0.05,A,theta=1.5:phi=0.8"],
    ["table", "--model", "classical"],
    ["table", "--model", "quantum"],
    ["analyze", "--model", "classical"],
    ["analyze", "--model", "quantum"],
    ["sweep", "--player", "A", "--others", "AAA", "--theta-steps", "5", "--phi-steps", "3"],
    ["sweep", "--player", "B", "--others", "CEA", "--theta-steps", "4", "--phi-steps", "4"],
    ["sweep", "--player", "C", "--others", "EEC", "--theta-steps", "3", "--phi-steps", "6"],
    ["sweep", "--player", "D", "--others", "EEE", "--theta-steps", "9", "--phi-steps", "5"],
]
CASES = [cmd + ["--format", fmt] for cmd in _COMMANDS for fmt in FORMATS]


def run(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue()


def _is_exact(argv: list[str]) -> bool:
    return argv[0] in ("table", "analyze") or argv[-1] == "text"


def _close(a, b) -> bool:
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            _close(a[k], b[k]) for k in a
        )
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_close, a, b))
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=0.0, abs_tol=NUMERIC_ATOL)
    return a == b


def _csv_cells(text: str) -> list[list]:
    def cell(s):
        try:
            return float(s)
        except ValueError:
            return s

    return [[cell(s) for s in row] for row in csv.reader(io.StringIO(text))]


def _golden() -> dict[str, str]:
    return {" ".join(c["argv"]): c["stdout"] for c in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(argv):
    want = _golden()[" ".join(argv)]
    got = run(argv)
    if _is_exact(argv):
        assert got == want
    elif argv[-1] == "json":
        assert _close(json.loads(got), json.loads(want))
    else:
        assert _close(_csv_cells(got), _csv_cells(want))


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(" ".join(c) for c in CASES)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    doc = [{"argv": argv, "stdout": run(argv)} for argv in CASES]
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(doc)} cases to {GOLDEN}")
