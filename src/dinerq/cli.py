"""Command-line front end.

Commands: simulate, table, analyze, sweep, export-qasm. Output formats are
text (human, 4 decimal places), json and csv (machine, full precision).
Identical arguments, including the seed, produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import circuit as circuit_mod
from . import equilibrium, ewl, qasm
from .errors import GameError
from .payoff import PayoffTable, builtin_table, expected_payoffs, load_table
from .statevector import OutcomeDistribution

PLAYER_INDEX = {"A": 0, "B": 1, "C": 2, "D": 3}

MAX_SWEEP_POINTS = 1_000_000  # --theta-steps x --phi-steps
SWEEP_CHUNK = 256  # profiles per kernel call: bounds the temporary arrays


def parse_strategy_token(token: str) -> ewl.Strategy:
    token = token.strip()
    if token in ewl.NAMED_PARAMS:
        return ewl.Strategy.named(token)
    if token.startswith("theta="):
        parts = dict(p.split("=", 1) for p in token.split(":") if "=" in p)
        if set(parts) == {"theta", "phi"}:
            try:
                return ewl.Strategy.parametric(float(parts["theta"]), float(parts["phi"]))
            except ValueError:
                pass
    raise GameError(f"cannot parse strategy token {token!r}")


def parse_profile(text: str) -> ewl.StrategyProfile:
    tokens = text.split(",")
    if len(tokens) != 4:
        raise GameError(f"profile needs 4 comma-separated entries, got {text!r}")
    return ewl.StrategyProfile(*(parse_strategy_token(t) for t in tokens))


def _load_payoffs(path: str | None) -> PayoffTable:
    if path is None:
        return builtin_table()
    with open(path, "rb") as fh:
        return load_table(fh.read())


def _dist_for(profile: ewl.StrategyProfile, model: str) -> OutcomeDistribution:
    if model == "classical":
        letters = profile.letters
        if letters is None or "A" in letters:
            raise GameError("classical model only accepts profiles over {C, E}")
        return equilibrium.classical_distribution(letters)
    return ewl.outcome_distribution(profile)


def _fmt(x: float) -> str:
    return repr(float(x))


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv_text(rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# --- simulate ---------------------------------------------------------------

def run_simulate(args) -> str:
    profile = parse_profile(args.profile)
    table = _load_payoffs(args.payoffs)
    dist = _dist_for(profile, args.model)
    pay = expected_payoffs(dist, table)
    counts = None
    if args.shots is not None:
        if args.seed is None:
            raise GameError("--shots requires --seed for reproducibility")
        counts = circuit_mod.sample(dist, args.shots, args.seed)

    if args.format == "json":
        doc = {
            "profile": str(profile),
            "model": args.model,
            "distribution": {dist.label(k): float(p) for k, p in enumerate(dist.p) if p > 1e-15},
            "payoffs": [float(v) for v in pay],
        }
        if counts is not None:
            doc["shots"] = args.shots
            doc["seed"] = args.seed
            doc["counts"] = counts
        return _json_text(doc)
    if args.format == "csv":
        rows = [["outcome", "probability" if counts is None else "counts"]]
        if counts is None:
            rows += [[dist.label(k), _fmt(p)] for k, p in enumerate(dist.p) if p > 1e-15]
        else:
            rows += [[o, c] for o, c in counts.items()]
        rows.append(["payoffs"] + [_fmt(v) for v in pay])
        return _csv_text(rows)

    lines = [f"profile: {profile}  (model: {args.model})"]
    if counts is None:
        lines.append("outcome  probability")
        lines += [
            f"{dist.label(k)}     {p:.4f}" for k, p in enumerate(dist.p) if p > 1e-12
        ]
    else:
        lines.append(f"outcome  counts  (shots={args.shots}, seed={args.seed})")
        lines += [f"{o}     {c}" for o, c in counts.items()]
    lines.append(
        "payoffs: " + "  ".join(f"{n}={v:.4f}" for n, v in zip("ABCD", pay))
    )
    return "\n".join(lines) + "\n"


# --- table ------------------------------------------------------------------

def run_table(args) -> str:
    table = _load_payoffs(args.payoffs)
    records = equilibrium.enumerate_table(args.model, table)
    outcomes = [format(k, "04b") for k in range(16)]

    if args.format == "json":
        doc = {
            "model": args.model,
            "rows": [
                {
                    "profile": r.letters,
                    "probabilities": {o: float(r.distribution.p[int(o, 2)]) for o in outcomes},
                    "payoffs": [float(v) for v in r.payoffs],
                }
                for r in records
            ],
        }
        return _json_text(doc)
    if args.format == "csv":
        header = ["profile"] + [f"p_{o}" for o in outcomes] + [f"payoff_{n}" for n in "ABCD"]
        rows = [header]
        for r in records:
            rows.append(
                [r.letters]
                + [_fmt(p) for p in r.distribution.p]
                + [_fmt(v) for v in r.payoffs]
            )
        return _csv_text(rows)

    lines = [f"{args.model} table: {len(records)} profiles"]
    lines.append("profile  top outcome  payoffs (A, B, C, D)")
    for r in records:
        pay = "  ".join(f"{v:.4f}" for v in r.payoffs)
        lines.append(f"{r.letters}     {r.distribution.top_outcome()}         {pay}")
    return "\n".join(lines) + "\n"


# --- analyze ----------------------------------------------------------------

def run_analyze(args) -> str:
    table = _load_payoffs(args.payoffs)
    records = equilibrium.enumerate_table(args.model, table)
    report = equilibrium.analyze(records, args.model)
    pay = {r.letters: r.payoffs for r in records}

    if args.format == "json":
        doc = {
            "model": report.model,
            "nash": list(report.nash),
            "weak_nash": list(report.weak_nash),
            "pareto_standard": list(report.pareto_standard),
            "symmetric_optima": list(report.symmetric_optima),
            "dominant": list(report.dominant),
            "payoffs": {p: list(map(float, v)) for p, v in pay.items()},
        }
        if report.aaaa_deviations is not None:
            doc["aaaa_deviations"] = [
                {"player": "ABCD"[i], "alternative": alt, "payoff": after, "baseline": before}
                for i, alt, after, before in report.aaaa_deviations
            ]
        if report.eeee_witness is not None:
            i, alt, after, before = report.eeee_witness
            doc["eeee_witness"] = {
                "player": "ABCD"[i], "alternative": alt, "payoff": after, "baseline": before
            }
        return _json_text(doc)
    if args.format == "csv":
        rows = [["section", "value1", "value2", "value3", "value4"]]
        for p in report.nash:
            rows.append(["nash", p] + [_fmt(v) for v in pay[p][:3]])
        for p in report.pareto_standard:
            rows.append(["pareto_standard", p, "", "", ""])
        for p in report.symmetric_optima:
            rows.append(["symmetric_optimum", p, "", "", ""])
        rows.append(["dominant"] + [s or "none" for s in report.dominant])
        if report.aaaa_deviations is not None:
            for i, alt, after, before in report.aaaa_deviations:
                rows.append(["aaaa_deviation", "ABCD"[i], alt, _fmt(after), _fmt(before)])
        if report.eeee_witness is not None:
            i, alt, after, before = report.eeee_witness
            rows.append(["eeee_witness", "ABCD"[i], alt, _fmt(after), _fmt(before)])
        return _csv_text(rows)

    lines = [f"{report.model} game analysis ({len(records)} profiles)"]
    lines.append("")
    lines.append("Nash equilibria (strict):")
    for p in report.nash:
        payoffs = "  ".join(f"{v:.4f}" for v in pay[p])
        lines.append(f"  {p}  payoffs {payoffs}")
    lines.append(f"Weak Nash equilibria (ties allowed): {len(report.weak_nash)} profiles")
    lines.append("Symmetric optima: " + "  ".join(report.symmetric_optima))
    lines.append(
        f"Pareto optimal (standard): {len(report.pareto_standard)} profiles: "
        + "  ".join(report.pareto_standard)
    )
    lines.append(
        "Dominant strategies: "
        + "  ".join(f"{n}={s or 'none'}" for n, s in zip("ABCD", report.dominant))
    )
    if report.aaaa_deviations is not None:
        lines.append("")
        lines.append("Unilateral deviations from AAAA (payoff after vs 6):")
        ok = True
        for i, alt, after, before in report.aaaa_deviations:
            mark = "ok" if after <= before + equilibrium.TIE_TOL else "VIOLATION"
            ok = ok and mark == "ok"
            lines.append(f"  {'ABCD'[i]} -> {alt}: {after:.4f} <= {before:.4f}  [{mark}]")
        lines.append(f"Deviation check: {'PASS' if ok else 'FAIL'}")
    if report.eeee_witness is not None:
        i, alt, after, before = report.eeee_witness
        lines.append("")
        lines.append(
            f"EEEE is not an equilibrium: player {'ABCD'[i]} deviates to {alt} "
            f"for payoff {after:.4f} > {before:.4f}"
        )
    return "\n".join(lines) + "\n"


# --- sweep ------------------------------------------------------------------

def run_sweep(args) -> str:
    table = _load_payoffs(args.payoffs)
    if args.theta_steps < 2 or args.phi_steps < 2:
        raise GameError("sweep needs --theta-steps >= 2 and --phi-steps >= 2")
    if args.theta_steps * args.phi_steps > MAX_SWEEP_POINTS:
        raise GameError(f"sweep grid is limited to {MAX_SWEEP_POINTS} points")
    player = PLAYER_INDEX[args.player]
    others = args.others.strip().upper()
    if len(others) != 3 or any(ch not in ewl.NAMED_PARAMS for ch in others):
        raise GameError(f"--others must be 3 letters from C/E/A, got {args.others!r}")

    # Row-major (theta outer, phi inner) grid; the other players stay fixed.
    thetas = np.repeat(np.linspace(0.0, math.pi, args.theta_steps), args.phi_steps)
    phis = np.tile(np.linspace(0.0, math.pi / 2, args.phi_steps), args.theta_steps)
    profiles = np.empty((thetas.size, 4, 2))  # (theta, phi) per player
    profiles[:, [i for i in range(4) if i != player]] = [ewl.NAMED_PARAMS[ch] for ch in others]
    profiles[:, player] = np.column_stack([thetas, phis])
    values = np.concatenate([
        ewl.batch_probabilities(chunk[..., 0], chunk[..., 1]) @ table.u[:, player]
        for chunk in np.split(profiles, range(SWEEP_CHUNK, thetas.size, SWEEP_CHUNK))
    ])
    grid = list(zip(thetas.tolist(), phis.tolist(), values.tolist()))

    if args.format == "json":
        doc = {
            "player": args.player,
            "others": others,
            "grid": [{"theta": t, "phi": p, "payoff": v} for t, p, v in grid],
        }
        return _json_text(doc)
    if args.format == "csv":
        rows = [["theta", "phi", "payoff"]]
        rows += [[_fmt(t), _fmt(p), _fmt(v)] for t, p, v in grid]
        return _csv_text(rows)

    lines = [f"payoff of {args.player} vs {others} over (theta, phi)"]
    lines += [f"theta={t:.4f} phi={p:.4f} payoff={v:.4f}" for t, p, v in grid]
    return "\n".join(lines) + "\n"


# --- export-qasm ------------------------------------------------------------

def run_export_qasm(args) -> str:
    profile = parse_profile(args.profile)
    return qasm.export_qasm(circuit_mod.build_game_circuit(profile))


# --- entry point ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dinerq", description="Quantum diner's dilemma engine"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, profile=False, models=("classical", "quantum")):
        """Add the flags the command reads; an empty `models` means no
        --model, --payoffs or --format (export-qasm writes QASM only)."""
        if profile:
            p.add_argument("--profile", required=True, help="e.g. C,E,C,E or theta=1.2:phi=0.3 per player")
        if models:
            p.add_argument("--model", choices=models, default="quantum")
            p.add_argument("--payoffs", help="JSON payoff-table file (default: built-in game)")
            p.add_argument("--format", choices=["text", "json", "csv"], default="text")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("simulate", help="distribution and payoffs of one profile")
    common(p, profile=True)
    p.add_argument("--shots", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=run_simulate)

    p = sub.add_parser("table", help="full per-profile table")
    common(p)
    p.set_defaults(func=run_table)

    p = sub.add_parser("analyze", help="equilibrium and optimality report")
    common(p)
    p.set_defaults(func=run_analyze)

    p = sub.add_parser("sweep", help="payoff grid over one player's (theta, phi)")
    common(p, models=("quantum",))  # a classical game has no (theta, phi) landscape
    p.add_argument("--player", choices=list("ABCD"), required=True)
    p.add_argument("--others", required=True, help="3 named strategies, e.g. EEE")
    p.add_argument("--theta-steps", type=int, default=9)
    p.add_argument("--phi-steps", type=int, default=5)
    p.set_defaults(func=run_sweep)

    p = sub.add_parser("export-qasm", help="QASM 2.0 text of the game circuit")
    common(p, profile=True, models=())
    p.set_defaults(func=run_export_qasm)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.func(args)
        _write(text, args.out)
    except GameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
