"""Self-test of the benchmark's own machinery. Run from the repository root:

    python3 perfbench/selftest.py

It shows that the output check cannot pass vacuously (corrupted outputs are
counted as failed), that inputs are a pure function of the seed, that the
tracer reports a missing function as absent and leaves the package as it
found it, that the metric names match BENCHMARK.json, and that in a fresh
checkout the benchmark refuses to run without the package sources and runs
with them. Exits 0 when every check holds.
"""

from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys

import run
import workloads
from reference import check
from tracer import Tracer

FLOAT = re.compile(r"-?\d+\.\d+(?:e-?\d+)?")
COUNT = re.compile(r'(?m)^(\s*"?[01]{4}"?[:,]?\s*)(\d+)(,?)$')  # a histogram bin, any format


def drop_last_line(text: str) -> str:
    return "".join(text.splitlines(keepends=True)[:-1])


def bump_last_float(text: str) -> str | None:
    last = None
    for last in FLOAT.finditer(text):
        pass
    if last is None:
        return None
    return text[: last.start()] + repr(float(last.group()) + 0.01) + text[last.end() :]


def corruptions(op, text: str, dist):
    """Corrupted copies of a correct output, each of which must fail."""
    if op.kind == "crosscheck":
        shifted = dist.copy()
        shifted[shifted.argmax()] -= 1e-3
        shifted[(shifted.argmax() + 1) % 16] += 1e-3
        yield "probability moved", text, shifted
        yield "gate dropped", re.sub(r"^cx q\[0\],q\[3\];\n", "", text, count=1, flags=re.M), dist
        return
    yield "last line dropped", drop_last_line(text), dist
    bumped = bump_last_float(text)
    if bumped is not None:
        yield "last number +0.01", bumped, dist
    if op.params.get("shots") is not None:
        yield "one shot more", COUNT.sub(lambda m: f"{m[1]}{int(m[2]) + 1}{m[3]}", text, count=1), dist


def test_corrupted_outputs_fail(execute) -> None:
    for workload in workloads.WORKLOADS:
        work = workloads.build(workload, 11, "perfbench/out/tables")
        run.write_files(work.files)
        ops = list(itertools.islice(work.ops, 4 if workload == "sweep" else 24))
        for op in ops:
            rc, text, dist = execute(op)
            assert check(op, rc, text, dist, work.tables) is None, op.argv
            for what, bad_text, bad_dist in corruptions(op, text, dist):
                assert check(op, rc, bad_text, bad_dist, work.tables) is not None, (what, op.argv)
        assert check(ops[0], 1, "", None, work.tables) == "exit code 1"

    def corrupt(op):
        rc, text, dist = execute(op)
        _, bad_text, bad_dist = next(corruptions(op, text, dist))
        return rc, bad_text, bad_dist

    work = workloads.build("single", 11, "perfbench/out/tables")
    loop = run.Loop(work.ops, work.tables, corrupt)
    loop.run(0.5)
    assert len(loop.latency) >= run.MIN_OPS
    assert len(loop.failures) == len(loop.latency), "a corrupted output was counted as correct"


def test_inputs_follow_the_seed() -> None:
    for workload in workloads.WORKLOADS:
        first, again, other = (workloads.build(workload, seed, "t") for seed in (5, 5, 6))
        ops = [op.argv for op in itertools.islice(first.ops, 200)]
        assert ops == [op.argv for op in itertools.islice(again.ops, 200)], workload
        assert ops != [op.argv for op in itertools.islice(other.ops, 200)], workload
        assert first.files == again.files
        if workload == "analyze":
            assert first.files != other.files


def test_tracer(execute) -> None:
    from dinerq import circuit

    compose = circuit.compose
    circuit.entangler_circuit()  # cached, so compose is not needed below
    del circuit.compose  # as if a later version had removed it
    try:
        tracer = Tracer()
        work = workloads.build("single", 3, "t")
        loop = run.Loop(work.ops, work.tables, execute, tracer)
        loop.run(0.3)
        metrics, absent = run.per_layer_metrics(loop, tracer)
    finally:
        circuit.compose = compose
    assert not loop.failures, loop.failures[:3]
    assert absent == ["circuit.compose"], absent
    assert metrics["circuit.compose.calls"] == 0
    assert set(metrics) == set(run.per_layer_units())
    assert metrics["statevector.apply_single_qubit.calls"] > 0  # bound by ewl and circuit
    assert all(getattr(m, attr) is original for m, attr, original, _ in tracer.bindings)
    top = {tracer.names[s[0]] for s in tracer.spans if s[3] < 0}
    assert top == {"cli.main", "qasm.import_qasm", "circuit.simulate_circuit"}, top


def test_metric_names_match_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fresh_checkout() -> None:
    """Refuses to run with only BENCHMARK.json and perfbench/; runs once src/ is there."""
    fresh = run.OUT / "fresh"
    shutil.rmtree(fresh, ignore_errors=True)
    shutil.copytree(run.HERE, fresh / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", fresh)
    argv = [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
            "--seconds", "0.2", "--trace", "0"]
    bare = subprocess.run(argv, cwd=fresh, capture_output=True, text=True, timeout=120)
    shutil.copytree(run.SRC, fresh / "src", ignore=shutil.ignore_patterns("__pycache__"))
    full = subprocess.run(argv, cwd=fresh, capture_output=True, text=True, timeout=120)
    shutil.rmtree(fresh)
    assert bare.returncode != 0 and '"correct"' not in bare.stdout, bare
    assert full.returncode == 0 and json.loads(full.stdout.splitlines()[-1])["correct"], full


def main() -> int:
    cli, qasm, circuit = run.load_package()
    run.os.chdir(run.ROOT)
    execute = run.make_execute(cli, qasm, circuit)
    tests = [
        ("metric names match BENCHMARK.json", test_metric_names_match_benchmark_json),
        ("inputs follow the seed", test_inputs_follow_the_seed),
        ("corrupted outputs fail", lambda: test_corrupted_outputs_fail(execute)),
        ("tracer reports absent functions", lambda: test_tracer(execute)),
        ("fresh checkout: refuses without src/, runs with it", test_fresh_checkout),
    ]
    for name, test in tests:
        test()
        print(f"ok  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
