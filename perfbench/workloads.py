"""Seeded operation streams for the three workloads.

An operation is one closed-loop request: a `dinerq` CLI argv, or for the
gate-level cross-check an `export-qasm` argv whose output is then imported and
simulated. Everything is drawn from `numpy.random.default_rng(seed)`, so one
seed gives one sequence of operations and one set of payoff files. The
sequence is endless and generated one operation at a time, between timed
calls, so the benchmark holds no list that grows with the run and adds
nothing that scales with speed to the measured peak memory.

Each workload is built from blocks with a fixed composition (grid-size
classes for `sweep`, command/model mix for `analyze` and `single`) in a seeded
order, so that a run that stops at any point has seen close to the same mix,
and the median and p90 fall inside one mode of the latency distribution
whatever the seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from reference import BUILTIN, NAMED, OUTCOMES, expand_symmetric

WORKLOADS = ("sweep", "analyze", "single")
FORMATS = ("text", "json", "csv")

# sweep: 15 grid-size classes, log-spaced from 15 to 1000 points, once each
# per block. With 15 classes p50 and p90 fall mid-class (ranks 7.5 and 13.5 of
# 15), not on a boundary between two sizes.
SWEEP_SIZES = tuple(round(15 * (1000 / 15) ** (k / 14)) for k in range(15))

# analyze: per block of 12, ordered here by cost. Quantum `analyze`, where the
# equilibrium routines run, holds ranks 3/12 to 12/12, so p50 and p90 fall at
# its 1/3 and 13/15 quantiles: inside the mode, where its latencies are dense,
# not on a boundary between modes.
ANALYZE_BLOCK = (
    ("table", "classical"),
    ("analyze", "classical"),
    ("table", "quantum"),
) + (("analyze", "quantum"),) * 9
TABLE_POOL = 192  # payoff files written per run; once all are used, draws repeat

# single: 6 simulate : 2 cross-check, so p50 lies in the simulate mode and
# p90 in the cross-check mode.
SINGLE_BLOCK = ("simulate",) * 6 + ("crosscheck",) * 2
SHOTS = (100, 1000, 1024, 4096)


@dataclass(frozen=True)
class Op:
    """One operation: its kind, CLI argv, profiles evaluated and what the
    reference needs to check the output."""

    kind: str
    argv: tuple[str, ...]
    profiles: int
    params: dict


@dataclass(frozen=True)
class Workload:
    ops: Iterator[Op]
    tables: dict[str, np.ndarray]  # table name -> 16x4 utilities
    files: dict[str, str]  # relative path -> JSON text of a payoff file


def _token(move: tuple[float, float] | str) -> str:
    if isinstance(move, str):
        return move
    return f"theta={move[0]!r}:phi={move[1]!r}"


def _random_profile(rng: np.random.Generator) -> list:
    """Half all-named profiles, half with each player parametric at even odds."""
    named = rng.random() < 0.5
    moves = []
    for _ in range(4):
        if named or rng.random() < 0.5:
            moves.append("CEA"[rng.integers(3)])
        else:
            moves.append((float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, math.pi / 2))))
    return moves


def _params(moves: list) -> list[tuple[float, float]]:
    return [NAMED[m] if isinstance(m, str) else m for m in moves]


def sweep_ops(rng: np.random.Generator) -> Iterator[Op]:
    """The seed picks each grid's theta x phi split, player, opponents and format."""
    while True:
        for k in rng.permutation(len(SWEEP_SIZES)):
            target = SWEEP_SIZES[k]
            phi_steps = max(2, round(math.sqrt(target) * math.exp(rng.uniform(-0.5, 0.5))))
            theta_steps = max(2, round(target / phi_steps))
            player = "ABCD"[rng.integers(4)]
            others = "".join("CEA"[k] for k in rng.integers(3, size=3))
            fmt = FORMATS[rng.integers(3)]
            argv = ("sweep", "--player", player, "--others", others,
                    "--theta-steps", str(theta_steps), "--phi-steps", str(phi_steps),
                    "--format", fmt)
            params = {"player": player, "others": others, "theta_steps": theta_steps,
                      "phi_steps": phi_steps, "format": fmt}
            yield Op("sweep", argv, theta_steps * phi_steps, params)


def _random_table(rng: np.random.Generator) -> tuple[np.ndarray, str]:
    """Integer utilities 0..9: ties are exact, so no result sits on TIE_TOL."""
    if rng.random() < 0.5:
        cheap, expensive = (rng.integers(10, size=4).tolist() for _ in range(2))
        doc = {"symmetric": {"C": cheap, "E": expensive}}
        return expand_symmetric(cheap, expensive), json.dumps(doc, sort_keys=True)
    u = rng.integers(10, size=(16, 4))
    doc = {"outcomes": {o: u[k].tolist() for k, o in enumerate(OUTCOMES)}}
    return u.astype(float), json.dumps(doc, sort_keys=True)


def analyze_ops(rng: np.random.Generator, pool: list[str]) -> Iterator[Op]:
    """`table`/`analyze` over a seeded table pool. Each operation takes the
    built-in table (1/4), a table an earlier operation used (1/4), or the next
    unused file of the pool (1/2, while the pool lasts)."""
    used = 0
    while True:
        for k in rng.permutation(len(ANALYZE_BLOCK)):
            command, model = ANALYZE_BLOCK[k]
            r = rng.random()
            if r < 0.25:
                name = "builtin"
            elif used and (r < 0.5 or used == len(pool)):
                name = pool[rng.integers(used)]
            else:
                name = pool[used]
                used += 1
            fmt = ("json", "csv")[rng.integers(2)]
            argv = (command, "--model", model, "--format", fmt)
            if name != "builtin":
                argv += ("--payoffs", name)
            params = {"model": model, "format": fmt, "table": name}
            yield Op(command, argv, 16 if model == "classical" else 81, params)


def single_ops(rng: np.random.Generator) -> Iterator[Op]:
    while True:
        for k in rng.permutation(len(SINGLE_BLOCK)):
            kind = SINGLE_BLOCK[k]
            moves = _random_profile(rng)
            profile = ",".join(_token(m) for m in moves)
            params = {"moves": _params(moves), "shots": None, "seed": None}
            if kind == "crosscheck":
                yield Op(kind, ("export-qasm", "--profile", profile), 1, params)
                continue
            fmt = FORMATS[rng.integers(3)]
            argv = ("simulate", "--profile", profile, "--format", fmt)
            params["format"] = fmt
            if rng.random() < 1 / 3:
                params["shots"] = int(SHOTS[rng.integers(len(SHOTS))])
                params["seed"] = int(rng.integers(2**31))
                argv += ("--shots", str(params["shots"]), "--seed", str(params["seed"]))
            yield Op(kind, argv, 1, params)


def build(workload: str, seed: int, table_dir: str) -> Workload:
    """The seeded operations of a workload; payoff files go under `table_dir`."""
    rng = np.random.default_rng(seed)
    if workload == "sweep":
        return Workload(sweep_ops(rng), {"builtin": BUILTIN}, {})
    if workload == "analyze":
        tables, files = {"builtin": BUILTIN}, {}
        for k in range(TABLE_POOL):
            name = f"{table_dir}/t{k:03d}.json"
            tables[name], files[name] = _random_table(rng)
        return Workload(analyze_ops(rng, list(files)), tables, files)
    if workload == "single":
        return Workload(single_ops(rng), {"builtin": BUILTIN}, {})
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str) -> list[Op]:
    """Fixed small operations run before timing, so lazy set-up is done."""
    if workload == "sweep":
        params = {"player": "D", "others": "EEE", "theta_steps": 3, "phi_steps": 2, "format": "csv"}
        argv = ("sweep", "--player", "D", "--others", "EEE", "--theta-steps", "3",
                "--phi-steps", "2", "--format", "csv")
        return [Op("sweep", argv, 6, params)]
    if workload == "analyze":
        return [
            Op(command, (command, "--model", model, "--format", "json"),
               16 if model == "classical" else 81,
               {"model": model, "format": "json", "table": "builtin"})
            for command in ("table", "analyze")
            for model in ("classical", "quantum")
        ]
    moves = [(0.0, math.pi / 2)] * 4
    return [
        Op("simulate", ("simulate", "--profile", "A,A,A,A", "--format", "json"), 1,
           {"moves": moves, "shots": None, "seed": None, "format": "json"}),
        Op("crosscheck", ("export-qasm", "--profile", "A,A,A,A"), 1, {"moves": moves}),
    ]
