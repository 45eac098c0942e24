"""Benchmark of the dinerq CLI: one workload as a single-threaded closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload {sweep,analyze,single} --seed N \
        --seconds S --trace {0,1}

One client calls `dinerq.cli.main` in-process (plus `qasm.import_qasm` and
`circuit.simulate_circuit` for the gate-level cross-check) and sends the next
operation when the previous one returns, until the timed operations add up to
`--seconds` and at least MIN_OPS have run. The operation list and payoff files
come from `--seed` and are built before timing. Every output is checked,
outside the timed region, against `reference.py`, which shares no code with
the package.

Timings are calibrated for the machine's speed at the moment of each call
(see `calibrated`): on a shared host a core's speed changes from one second to
the next, and wall and CPU time both move with it.

`--trace 0` reports the end-to-end metrics; `--trace 1` runs every operation
twice, untraced and traced in alternating order, and reports per-layer
metrics from the traced runs. Human-readable lines come first; the last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. Span and run records go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# The client is single-threaded; so is numpy's BLAS, which would otherwise
# start a thread per core that competes with the loop on a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

MIN_OPS = 100  # so that at least 10 samples lie beyond p90
MAX_STRETCH = 5  # a slow program stops at 5 x --seconds even below MIN_OPS
SETUP_SPAWNS = 21

# Machine speed. On a shared host each core switches, from one moment to the
# next, between full speed and up to 2x slower (most likely while other
# tenants' work runs on its sibling hyperthread), and CPU time slows with it.
# So each timed call is bracketed by a fixed calibration kernel, and the call's
# time is scaled by REFERENCE_CAL_S / (the kernel's time around it): the call's
# time on a core at full speed. The kernel is shaped like the program's work (small complex
# matrices, a dict of floats, JSON text) and comes from reference.py, which
# shares no code with the package, so a change to the package cannot move it.
CAL_PROFILES = (
    ((0.3, 0.2), (1.1, 0.7), (2.0, 1.3), (0.0, 1.5)),
    ((2.9, 0.1), (0.4, 1.2), (1.7, 0.5), (3.1, 0.9)),
    ((1.0, 1.0), (0.2, 0.3), (2.5, 1.4), (0.8, 0.0)),
)
# The kernel at full speed: the 5th percentile of its time on a 2-vCPU
# Intel Xeon VM at 2.1 GHz (Python 3.11.7, numpy 2.4.6).
REFERENCE_CAL_S = 110e-6

# What a fresh `dinerq` process does before its first command: import the CLI
# and finish the lazy set-up (J, and the entangler circuit whose check calls
# compose). Functions a later version no longer has are skipped.
SETUP_CODE = """\
import dinerq.cli
from dinerq import circuit, ewl
for setup in (getattr(ewl, "entangler", None), getattr(circuit, "entangler_circuit", None)):
    if setup is not None:
        setup()
"""

END_TO_END = {
    "setup_s": "s",
    "profiles_per_s": "profiles/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

LAYER_FIELDS = {"calls": "count", "busy_ms": "ms", "self_ms": "ms", "failed": "count"}

# Function-level metrics and the end-to-end metric each should move
# (perfbench/README.md).
FUNCTION_METRICS = (
    ("cli.build_parser", "busy_ms"),
    ("ewl.outcome_distribution", "calls"),
    ("ewl.outcome_distribution", "busy_ms"),
    ("statevector.apply_single_qubit", "calls"),
    ("statevector.apply_controlled", "calls"),
    ("circuit.build_game_circuit", "busy_ms"),
    ("circuit.simulate_circuit", "busy_ms"),
    ("circuit.strategy_u3", "calls"),
    ("circuit.compose", "calls"),
    ("qasm.export_qasm", "busy_ms"),
    ("qasm.import_qasm", "busy_ms"),
    ("payoff.load_table", "busy_ms"),
    ("payoff.expected_payoffs", "calls"),
    ("equilibrium.enumerate_table", "busy_ms"),
    ("equilibrium.analyze", "busy_ms"),
    ("equilibrium.find_pareto_standard", "busy_ms"),
    ("equilibrium.find_nash", "busy_ms"),
    ("equilibrium.dominant_strategies", "busy_ms"),
    ("equilibrium.best_response", "calls"),
)

RATIO_METRICS = (
    "ewl.distinct_profile_ratio",
    "input.op_repeat_ratio",
    "input.table_repeat_ratio",
    "trace.coverage_ratio",
    "trace.overhead_ratio",
)


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.{field}": unit for layer in LAYERS for field, unit in LAYER_FIELDS.items()}
    units.update({f"{name}.{field}": LAYER_FIELDS[field] for name, field in FUNCTION_METRICS})
    units.update({name: "ratio" for name in RATIO_METRICS})
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_package():
    """Import dinerq from this checkout's src/, never from anywhere else."""
    if not (SRC / "dinerq" / "__init__.py").is_file():
        raise SystemExit(f"error: no dinerq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dinerq
    from dinerq import circuit, cli, qasm

    if Path(dinerq.__file__).resolve().parent != (SRC / "dinerq").resolve():
        raise SystemExit(f"error: imported dinerq from {dinerq.__file__}, not {SRC}")
    return cli, qasm, circuit


def pin_to_one_cpu() -> None:
    """Run on one CPU, so that the calibration around each call measures the
    core the call ran on. Set-up processes inherit the affinity."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def calibration_s() -> float:
    """Seconds for the calibration kernel, the lower of two tries."""

    def once() -> float:
        start = time.perf_counter()
        for moves in CAL_PROFILES:
            p = reference.distribution(moves)
            json.dumps(dict(zip(reference.OUTCOMES, p.tolist())))
        return time.perf_counter() - start

    return min(once(), once())


def calibrated(call):
    """(seconds, full-speed seconds, result) of call(): the wall time, and the
    wall time scaled by the machine's speed just before and just after."""
    before = calibration_s()
    seconds, result = call()
    after = calibration_s()
    return seconds, seconds * 2 * REFERENCE_CAL_S / (before + after), result


def make_execute(cli, qasm, circuit):
    """One operation as the user runs it. Module attributes are looked up at
    call time, so the tracer's wrappers are seen when installed."""

    def execute(op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(op.argv))
        text = out.getvalue()
        if op.kind != "crosscheck" or rc != 0:
            return rc, text, None
        return rc, text, circuit.simulate_circuit(qasm.import_qasm(text)).p

    return execute


def write_files(files: dict[str, str]) -> None:
    """Write generated input files (paths relative to the checkout root)."""
    for path, text in files.items():
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text, encoding="utf-8")


def timed(execute, op):
    """(seconds, (rc, text, dist)) or (seconds, reason) if the call raised."""
    start = time.perf_counter()
    try:
        outcome = execute(op)
    except SystemExit as exc:  # argparse rejects the argv
        outcome = f"exit {exc.code}"
    except Exception as exc:
        outcome = f"raised {exc!r}"
    return time.perf_counter() - start, outcome


class Loop:
    """Closed-loop measurement of a stream of operations."""

    def __init__(self, ops, tables, execute, tracer=None):
        self.ops, self.tables, self.execute, self.tracer = ops, tables, execute, tracer
        self.latency: list[float] = []  # every timed call, traced or not
        self.full_speed: list[float] = []  # the same calls at full speed
        self.kinds: list[str] = []  # kind of each operation run, in order
        self.profiles = 0
        self.failures: list[tuple[str, str]] = []
        self.traced_s = self.untraced_s = 0.0
        self._argvs: set = set()
        self._tables: set = set()
        self.op_repeats = self.table_repeats = 0

    def attempt(self, op, traced: bool = False) -> float:
        def call():
            if traced:
                self.tracer.install(len(self.kinds))
            try:
                return timed(self.execute, op)
            finally:
                if traced:
                    self.tracer.uninstall()

        seconds, full_speed, outcome = calibrated(call)
        self.full_speed.append(full_speed)
        if traced:
            self.traced_s += seconds
        else:
            self.untraced_s += seconds
        error = outcome if isinstance(outcome, str) else reference.check(op, *outcome, self.tables)
        if error is not None:
            self.failures.append((" ".join(op.argv), error))
        return seconds

    def run(self, seconds: float) -> None:
        budget = 0.0
        while (budget < seconds or len(self.latency) < MIN_OPS) and budget < MAX_STRETCH * seconds:
            op = next(self.ops)
            if self.tracer is None:
                passes = (False,)
            else:  # alternate the order so warm caches favour neither side
                passes = (False, True) if len(self.kinds) % 2 == 0 else (True, False)
            for traced in passes:
                dt = self.attempt(op, traced)
                self.latency.append(dt)
                budget += dt
            self._record(op)

    def _record(self, op) -> None:
        self.kinds.append(op.kind)
        self.profiles += op.profiles
        table = op.params.get("table", "builtin")
        key = hash(op.argv)  # not the argv itself: memory must not grow with speed
        self.op_repeats += key in self._argvs
        self.table_repeats += table in self._tables
        self._argvs.add(key)
        self._tables.add(table)


def measure_setup(spawns: int = SETUP_SPAWNS) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters doing SETUP_CODE, and the same at full
    speed; the first spawn, which may compile bytecode, is dropped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))

    def spawn():
        start = time.perf_counter()
        # No timeout: with one, subprocess polls the child with sleeps of up
        # to 50 ms, which would quantize the measured time.
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
            stdout=subprocess.DEVNULL,
        )
        return time.perf_counter() - start, None

    times = [calibrated(spawn)[:2] for _ in range(spawns + 1)][1:]
    return [t for t, _ in times], [f for _, f in times]


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, if it has one (read directly, so
    nothing outside the checkout is consulted)."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def metadata(seed: int) -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def end_to_end_metrics(loop: Loop, setup_times: list[float]) -> dict[str, float]:
    """Timings at full speed (see `calibrated`)."""
    lat = loop.full_speed
    return {
        "setup_s": statistics.median(setup_times),
        "profiles_per_s": loop.profiles / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(loop: Loop, tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics per traced operation, and the named functions that
    this version of the package does not have."""
    n = len(loop.kinds)
    totals = tracer.totals()
    fields = [(layer, field) for layer in LAYERS for field in LAYER_FIELDS] + list(FUNCTION_METRICS)
    metrics = {f"{name}.{field}": totals.get(name, {}).get(field, 0) / n for name, field in fields}
    absent = sorted({name for name, _ in FUNCTION_METRICS if name not in tracer.names})
    metrics["ewl.distinct_profile_ratio"] = tracer.distinct_ratio("ewl.outcome_distribution")
    metrics["input.op_repeat_ratio"] = loop.op_repeats / n
    metrics["input.table_repeat_ratio"] = loop.table_repeats / n
    metrics["trace.coverage_ratio"] = tracer.top_level_ns() / 1e9 / loop.traced_s
    metrics["trace.overhead_ratio"] = loop.traced_s / loop.untraced_s
    return metrics, absent


def main_parts(loop: Loop, tracer, kind: str) -> dict[str, float]:
    """Share of `cli.main` time on operations of `kind`, by direct child."""
    ops = {i for i, k in enumerate(loop.kinds) if k == kind}
    if not ops or "cli.main" not in tracer.names:
        return {}
    parts = tracer.parts_of("cli.main", ops)
    total = sum(parts.values())
    return {name: ns / total for name, ns in sorted(parts.items(), key=lambda kv: -kv[1])}


def main(argv=None) -> int:
    args = parse_args(argv)
    cli, qasm, circuit = load_package()
    os.chdir(ROOT)
    reference.self_check()

    table_dir = OUT / "tables"
    shutil.rmtree(table_dir, ignore_errors=True)
    OUT.mkdir(exist_ok=True)
    work = workloads.build(args.workload, args.seed, str(table_dir.relative_to(ROOT)))
    write_files(work.files)

    pin_to_one_cpu()
    setup_wall, setup_times = measure_setup() if args.trace == 0 else ([], [])
    tracer = Tracer() if args.trace else None
    loop = Loop(work.ops, work.tables, make_execute(cli, qasm, circuit), tracer)
    warm_ops = workloads.warmup(args.workload)
    warm = Loop(iter(warm_ops), work.tables, loop.execute)
    for op in warm_ops:
        warm.attempt(op)
    gc.collect()
    loop.run(args.seconds)

    failures = warm.failures + loop.failures
    attempted = len(warm_ops) + len(loop.latency)
    meta = metadata(args.seed)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace, "meta": meta,
              "operations": len(loop.kinds), "failures": failures[:20]}
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"operations={len(loop.kinds)} samples={len(loop.latency)} "
          f"failed_ratio={len(failures) / attempted!r} "
          f"op_repeat_ratio={loop.op_repeats / len(loop.kinds):.4f} "
          f"table_repeat_ratio={loop.table_repeats / len(loop.kinds):.4f}")
    for argv_text, error in failures[:5]:
        print(f"FAILED {argv_text}: {error}", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end_metrics(loop, setup_times)
        units = END_TO_END
        record["setup_times_s"] = setup_times
        record["setup_wall_s"] = setup_wall
        record["wall_latency_ms"] = {"p50": statistics.median(loop.latency) * 1e3,
                                     "p90": statistics.quantiles(loop.latency, n=10)[-1] * 1e3}
        speed = statistics.median(f / w for f, w in zip(loop.full_speed, loop.latency))
        print(f"wall time: setup_s={statistics.median(setup_wall):.4f} "
              f"latency_p50_ms={record['wall_latency_ms']['p50']:.4f} "
              f"latency_p90_ms={record['wall_latency_ms']['p90']:.4f} "
              f"(median speed {speed:.3f} of full)")
    else:
        metrics, absent = per_layer_metrics(loop, tracer)
        units = per_layer_units()
        record["absent"] = absent
        record["simulate_main_parts"] = main_parts(loop, tracer, "simulate")
        if absent:
            print("absent: " + " ".join(absent))
        if record["simulate_main_parts"]:
            print("cli.main on simulate operations: " + "  ".join(
                f"{name}={share:.1%}" for name, share in list(record["simulate_main_parts"].items())[:4]))
        tracer.write_spans(OUT / f"spans-{args.workload}.tsv")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    record["metrics"] = metrics
    (OUT / f"run-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str) + "\n", encoding="utf-8"
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
