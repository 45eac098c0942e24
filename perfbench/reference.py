"""Independent reference for checking dinerq outputs.

Everything here is rebuilt from the game's definitions with numpy alone and
imports nothing from `dinerq`, so a defect in the package cannot pass by being
shared with its check:

- the EWL pipeline is the dense product J† (U_A ⊗ U_B ⊗ U_C ⊗ U_D) J |0000>
  with J = (I⊗4 + i σy⊗4)/√2 built by Kronecker products;
- strict/weak Nash, Pareto, symmetric optima and dominance are brute force
  over the named profiles with the tie tolerance TIE_TOL;
- exported QASM text is simulated gate by gate with dense 16x16 matrices.

`check(op, rc, text, dist)` returns None when an operation's output is right
and a one-line reason when it is not.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import re

import numpy as np

TIE_TOL = 1e-9
EXACT_TOL = 1e-9  # json and csv print full precision
TEXT_TOL = 5e-5 + 1e-9  # text prints 4 decimals
TV_TOL = 1e-6  # circuit against matrix, total variation
MISSING_TOL = 1e-9  # an outcome left out of a sparse listing has p below this

NAMED = {"C": (0.0, 0.0), "E": (math.pi, 0.0), "A": (0.0, math.pi / 2)}
PLAYERS = "ABCD"
OUTCOMES = tuple(format(k, "04b") for k in range(16))

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


class Mismatch(Exception):
    """An output differs from the reference."""


def kron(*mats: np.ndarray) -> np.ndarray:
    """Dense Kronecker product of 2-D arrays (np.kron, without its overhead)."""
    out = mats[0]
    for m in mats[1:]:
        rows, cols = out.shape[0] * m.shape[0], out.shape[1] * m.shape[1]
        out = (out[:, None, :, None] * m[None, :, None, :]).reshape(rows, cols)
    return out


J = (np.eye(16) + 1j * kron(*[SIGMA_Y] * 4)) / math.sqrt(2)
J_DAG = J.conj().T


def strategy_matrix(theta: float, phi: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[np.exp(1j * phi) * c, s], [-s, np.exp(-1j * phi) * c]])


def distribution(moves) -> np.ndarray:
    """Born probabilities of the 16 outcomes; `moves` is four (theta, phi)."""
    psi = J_DAG @ kron(*(strategy_matrix(*m) for m in moves)) @ J[:, 0]
    return np.abs(psi) ** 2


@functools.lru_cache(maxsize=None)
def profile_distribution(letters: str, model: str) -> np.ndarray:
    if model == "classical":
        p = np.zeros(16)
        p[int(letters.replace("C", "0").replace("E", "1"), 2)] = 1.0
    else:
        p = distribution([NAMED[ch] for ch in letters])
    p.flags.writeable = False
    return p


def expand_symmetric(cheap, expensive) -> np.ndarray:
    """16x4 utilities u[outcome, player] of a symmetric game."""
    u = np.empty((16, 4))
    for k, outcome in enumerate(OUTCOMES):
        bits = [int(b) for b in outcome]
        for i in range(4):
            row = expensive if bits[i] else cheap
            u[k, i] = row[sum(bits) - bits[i]]
    return u


BUILTIN = expand_symmetric((6, 4, 3, 0), (8, 4, 3, 1))


# --- equilibrium analysis by brute force ------------------------------------


def _swap(letters: str, player: int, alt: str) -> str:
    return letters[:player] + alt + letters[player + 1 :]


class Game:
    """All named profiles of one model under one payoff table."""

    def __init__(self, model: str, u: np.ndarray):
        self.model = model
        self.letters = "CE" if model == "classical" else "CEA"
        self.profiles = ["".join(t) for t in itertools.product(self.letters, repeat=4)]
        self.dist = {p: profile_distribution(p, model) for p in self.profiles}
        self.pay = {p: self.dist[p] @ u for p in self.profiles}

    def nash(self, strict: bool) -> list[str]:
        limit = -TIE_TOL if strict else TIE_TOL
        return [
            p
            for p in self.profiles
            if all(
                self.pay[_swap(p, i, alt)][i] - self.pay[p][i] <= limit
                for i in range(4)
                for alt in self.letters
                if alt != p[i]
            )
        ]

    def pareto(self) -> list[str]:
        v = np.array([self.pay[p] for p in self.profiles])
        # beats[q, p]: q is at least as good for everyone and better for someone
        beats = np.all(v[:, None] >= v[None, :] - TIE_TOL, axis=2) & np.any(
            v[:, None] > v[None, :] + TIE_TOL, axis=2
        )
        np.fill_diagonal(beats, False)
        return [p for j, p in enumerate(self.profiles) if not beats[:, j].any()]

    def symmetric_optima(self) -> list[str]:
        equal = {p: v[0] for p, v in self.pay.items() if max(v) - min(v) <= TIE_TOL}
        if not equal:
            return []
        best = max(equal.values())
        return [p for p in self.profiles if p in equal and equal[p] >= best - TIE_TOL]

    def dominant(self) -> list[str | None]:
        result: list[str | None] = []
        for i in range(4):
            found = None
            for own in self.letters:
                weakly, strictly = True, False
                for rest in itertools.product(self.letters, repeat=3):
                    base = "".join(rest[:i]) + own + "".join(rest[i:])
                    for alt in self.letters:
                        if alt == own:
                            continue
                        diff = self.pay[base][i] - self.pay[_swap(base, i, alt)][i]
                        weakly = weakly and diff >= -TIE_TOL
                        strictly = strictly or diff > TIE_TOL
                if weakly and strictly:
                    found = own
                    break
            result.append(found)
        return result

    def deviations(self, letters: str) -> list[tuple[int, str, float, float]]:
        return [
            (i, alt, self.pay[_swap(letters, i, alt)][i], self.pay[letters][i])
            for i in range(4)
            for alt in self.letters
        ]

    def witness(self, letters: str):
        for dev in self.deviations(letters):
            if dev[2] > dev[3] + TIE_TOL:
                return dev
        return None


# Headline facts of the paper on the built-in table.
HEADLINE_NASH = {"classical": ["EEEE"], "quantum": ["AAAA"]}


def self_check() -> None:
    """Raise if the reference itself disagrees with the paper's headline facts."""
    for model, nash in HEADLINE_NASH.items():
        if Game(model, BUILTIN).nash(strict=True) != nash:
            raise AssertionError(f"reference: strict Nash of {model} game is not {nash}")
    if not np.allclose(Game("quantum", BUILTIN).pay["AAAA"], 6.0, atol=TIE_TOL):
        raise AssertionError("reference: AAAA does not pay 6 to every player")


# --- gate-level reference ----------------------------------------------------


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [[c, -np.exp(1j * lam) * s], [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]]
    )


def _on_qubit(u: np.ndarray, qubit: int) -> np.ndarray:
    return kron(*[u if q == qubit else np.eye(2) for q in range(4)])


@functools.lru_cache(maxsize=None)
def _controlled(kind: str, a: int, b: int) -> np.ndarray:
    m = np.zeros((16, 16))
    for k in range(16):
        bits = [(k >> (3 - q)) & 1 for q in range(4)]
        if kind == "cx":
            if bits[a]:
                bits[b] ^= 1
            m[int("".join(map(str, bits)), 2), k] = 1.0
        else:
            m[k, k] = -1.0 if bits[a] and bits[b] else 1.0
    m.flags.writeable = False
    return m


_QASM_HEADER = ['OPENQASM 2.0;', 'include "qelib1.inc";', "qreg q[4];", "creg c[4];"]
_U3 = re.compile(r"^u3\(([^,]+),([^,]+),([^,]+)\) q\[(\d)\];$")
_TWO = re.compile(r"^(cx|cz) q\[(\d)\],q\[(\d)\];$")
_MEASURE = re.compile(r"^measure q\[(\d)\] -> c\[(\d)\];$")
_PI = re.compile(r"^(-?)pi(?:/(\d+))?$")


def _angle(text: str) -> float:
    m = _PI.match(text)
    if m:
        value = math.pi / int(m.group(2) or 1)
        return -value if m.group(1) else value
    return float(text)


def qasm_distribution(text: str) -> np.ndarray:
    """Simulate exported QASM with dense matrices; measurements must map q[i] to c[i]."""
    lines = text.splitlines()
    if lines[:4] != _QASM_HEADER:
        raise Mismatch("QASM header differs")
    psi = np.zeros(16, dtype=complex)
    psi[0] = 1.0
    measured = []
    for line in lines[4:]:
        if m := _U3.match(line):
            angles = [_angle(g) for g in m.groups()[:3]]
            psi = _on_qubit(u3_matrix(*angles), int(m.group(4))) @ psi
        elif m := _TWO.match(line):
            psi = _controlled(m.group(1), int(m.group(2)), int(m.group(3))) @ psi
        elif m := _MEASURE.match(line):
            measured.append((int(m.group(1)), int(m.group(2))))
        else:
            raise Mismatch(f"unexpected QASM line {line!r}")
    if sorted(measured) != [(q, q) for q in range(4)]:
        raise Mismatch(f"QASM measures {measured}, expected q[i] -> c[i] for all 4")
    return np.abs(psi) ** 2


# --- output checks -----------------------------------------------------------


def _close(got, want: float, tol: float, what: str) -> None:
    value = float(got)
    if not abs(value - want) <= tol:
        raise Mismatch(f"{what}: got {value!r}, reference {float(want)!r}")


def _sparse(got: dict, want: np.ndarray, tol: float, what: str) -> None:
    """A {outcome: p} listing that may leave out (near-)zero outcomes."""
    for label in got:
        if label not in OUTCOMES:
            raise Mismatch(f"{what}: unknown outcome {label!r}")
    for k, label in enumerate(OUTCOMES):
        if label in got:
            _close(got[label], want[k], tol, f"{what}[{label}]")
        elif want[k] > MISSING_TOL:
            raise Mismatch(f"{what}: outcome {label} missing, reference p={want[k]!r}")


def _same(got, want, tol: float, what: str) -> None:
    """Structural comparison: floats within tol, everything else exact."""
    if isinstance(want, float):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            raise Mismatch(f"{what}: got {got!r}, expected a number")
        _close(got, want, tol, what)
    elif isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            raise Mismatch(f"{what}: keys differ")
        for key in want:
            _same(got[key], want[key], tol, f"{what}.{key}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            raise Mismatch(f"{what}: got {got!r}, reference {want!r}")
        for k, (g, w) in enumerate(zip(got, want)):
            _same(g, w, tol, f"{what}[{k}]")
    elif got != want:
        raise Mismatch(f"{what}: got {got!r}, reference {want!r}")


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _same_rows(got: list[list[str]], want: list[list], what: str) -> None:
    """CSV rows: float cells within EXACT_TOL, other cells exact."""
    if len(got) != len(want):
        raise Mismatch(f"{what}: {len(got)} rows, reference {len(want)}")
    for r, (g, w) in enumerate(zip(got, want)):
        if len(g) != len(w):
            raise Mismatch(f"{what} row {r}: {g!r}, reference {w!r}")
        for c, (gc, wc) in enumerate(zip(g, w)):
            if isinstance(wc, float):
                _close(gc, wc, EXACT_TOL, f"{what} row {r} col {c}")
            elif gc != str(wc):
                raise Mismatch(f"{what} row {r} col {c}: {gc!r}, reference {wc!r}")


def _floats(pattern: re.Pattern, line: str, what: str) -> list[float]:
    m = pattern.match(line)
    if not m:
        raise Mismatch(f"{what}: cannot read {line!r}")
    return [float(g) for g in m.groups()]


_SWEEP_LINE = re.compile(r"^theta=(\S+) phi=(\S+) payoff=(\S+)$")
_PAYOFF_LINE = re.compile(r"^payoffs: A=(\S+)  B=(\S+)  C=(\S+)  D=(\S+)$")
_TEXT_ROW = re.compile(r"^([01]{4})     (\S+)$")


def _check_sweep(op, text: str) -> None:
    prm = op.params
    player = PLAYERS.index(prm["player"])
    thetas = np.linspace(0.0, math.pi, prm["theta_steps"])
    phis = np.linspace(0.0, math.pi / 2, prm["phi_steps"])
    grid = []
    for theta in thetas:
        for phi in phis:
            moves = [NAMED[ch] for ch in prm["others"]]
            moves.insert(player, (float(theta), float(phi)))
            grid.append((float(theta), float(phi), float(distribution(moves) @ BUILTIN[:, player])))
    fmt = prm["format"]
    if fmt == "json":
        want = {
            "player": prm["player"],
            "others": prm["others"],
            "grid": [{"theta": t, "phi": p, "payoff": v} for t, p, v in grid],
        }
        _same(json.loads(text), want, EXACT_TOL, "sweep")
    elif fmt == "csv":
        _same_rows(_csv_rows(text), [["theta", "phi", "payoff"]] + [list(g) for g in grid], "sweep")
    else:
        lines = text.splitlines()
        if lines[0] != f"payoff of {prm['player']} vs {prm['others']} over (theta, phi)":
            raise Mismatch(f"sweep title {lines[0]!r}")
        if len(lines) != len(grid) + 1:
            raise Mismatch(f"sweep has {len(lines) - 1} points, expected {len(grid)}")
        for line, point in zip(lines[1:], grid):
            for got, want in zip(_floats(_SWEEP_LINE, line, "sweep"), point):
                _close(got, want, TEXT_TOL, f"sweep {line!r}")


def _check_table(op, text: str, tables) -> None:
    game = Game(op.params["model"], tables[op.params["table"]])
    if op.params["format"] == "json":
        want = {
            "model": game.model,
            "rows": [
                {
                    "profile": p,
                    "probabilities": {o: float(game.dist[p][k]) for k, o in enumerate(OUTCOMES)},
                    "payoffs": [float(v) for v in game.pay[p]],
                }
                for p in game.profiles
            ],
        }
        _same(json.loads(text), want, EXACT_TOL, "table")
    else:
        header = ["profile"] + [f"p_{o}" for o in OUTCOMES] + [f"payoff_{n}" for n in PLAYERS]
        rows = [[p] + [float(x) for x in game.dist[p]] + [float(v) for v in game.pay[p]] for p in game.profiles]
        _same_rows(_csv_rows(text), [header] + rows, "table")


def _deviation_doc(dev) -> dict:
    i, alt, after, before = dev
    return {"player": PLAYERS[i], "alternative": alt, "payoff": float(after), "baseline": float(before)}


def _check_analyze(op, text: str, tables) -> None:
    model, name = op.params["model"], op.params["table"]
    game = Game(model, tables[name])
    nash = game.nash(strict=True)
    if name == "builtin" and nash != HEADLINE_NASH[model]:
        raise Mismatch(f"reference lost the headline fact: strict Nash {nash}")
    pareto, optima, dominant = game.pareto(), game.symmetric_optima(), game.dominant()
    aaaa = game.deviations("AAAA") if model == "quantum" else None
    witness = game.witness("EEEE")
    if op.params["format"] == "json":
        want = {
            "model": model,
            "nash": nash,
            "weak_nash": game.nash(strict=False),
            "pareto_standard": pareto,
            "symmetric_optima": optima,
            "dominant": dominant,
            "payoffs": {p: [float(v) for v in game.pay[p]] for p in game.profiles},
        }
        if aaaa is not None:
            want["aaaa_deviations"] = [_deviation_doc(d) for d in aaaa]
        if witness is not None:
            want["eeee_witness"] = _deviation_doc(witness)
        _same(json.loads(text), want, EXACT_TOL, "analyze")
        return
    rows = [["section", "value1", "value2", "value3", "value4"]]
    rows += [["nash", p] + [float(v) for v in game.pay[p][:3]] for p in nash]
    rows += [["pareto_standard", p, "", "", ""] for p in pareto]
    rows += [["symmetric_optimum", p, "", "", ""] for p in optima]
    rows.append(["dominant"] + [s or "none" for s in dominant])
    for i, alt, after, before in aaaa or []:
        rows.append(["aaaa_deviation", PLAYERS[i], alt, float(after), float(before)])
    if witness is not None:
        i, alt, after, before = witness
        rows.append(["eeee_witness", PLAYERS[i], alt, float(after), float(before)])
    _same_rows(_csv_rows(text), rows, "analyze")


def _check_counts(counts: dict, shots: int, p: np.ndarray) -> None:
    if sum(counts.values()) != shots:
        raise Mismatch(f"counts sum to {sum(counts.values())}, requested {shots} shots")
    for label, c in counts.items():
        if label not in OUTCOMES or c < 1 or p[OUTCOMES.index(label)] <= MISSING_TOL:
            raise Mismatch(f"count {label}={c} on an outcome of reference p~0")


_TOKEN = re.compile(r"^theta=(\S+):phi=(\S+)$")


def _check_profile(got: str, moves) -> None:
    """The echoed profile: a letter per named move, else theta/phi printed
    to 6 significant digits."""
    tokens = got.split(",")
    if len(tokens) != 4:
        raise Mismatch(f"profile {got!r}")
    for token, move in zip(tokens, moves):
        if token in NAMED and NAMED[token] == tuple(move):
            continue
        for value, want in zip(_floats(_TOKEN, token, "profile"), move):
            _close(value, want, 1e-5 * max(1.0, abs(want)), f"profile {token!r}")


def _check_simulate(op, text: str) -> None:
    prm = op.params
    p = distribution(prm["moves"])
    pay = [float(v) for v in p @ BUILTIN]
    shots, fmt = prm["shots"], prm["format"]
    if fmt == "json":
        doc = json.loads(text)
        want_keys = {"profile", "model", "distribution", "payoffs"}
        if shots is not None:
            want_keys |= {"shots", "seed", "counts"}
        if set(doc) != want_keys or doc["model"] != "quantum":
            raise Mismatch(f"simulate keys {sorted(doc)}")
        _check_profile(doc["profile"], prm["moves"])
        _sparse(doc["distribution"], p, EXACT_TOL, "distribution")
        _same(doc["payoffs"], pay, EXACT_TOL, "payoffs")
        if shots is not None:
            _same([doc["shots"], doc["seed"]], [shots, prm["seed"]], 0.0, "shots/seed")
            _check_counts(doc["counts"], shots, p)
        return
    if fmt == "csv":
        rows = _csv_rows(text)
        head, body, last = rows[0], rows[1:-1], rows[-1]
        if head != ["outcome", "probability" if shots is None else "counts"]:
            raise Mismatch(f"simulate header {head!r}")
        if shots is None:
            _sparse({o: v for o, v in body}, p, EXACT_TOL, "distribution")
        else:
            _check_counts({o: int(c) for o, c in body}, shots, p)
        _same_rows([last], [["payoffs"] + pay], "payoffs")
        return
    lines = text.splitlines()
    title = re.match(r"^profile: (\S+)  \(model: quantum\)$", lines[0])
    if not title:
        raise Mismatch(f"simulate title {lines[0]!r}")
    _check_profile(title.group(1), prm["moves"])
    want_head = "outcome  probability" if shots is None else f"outcome  counts  (shots={shots}, seed={prm['seed']})"
    if lines[1] != want_head:
        raise Mismatch(f"simulate header {lines[1]!r}")
    body = {}
    for line in lines[2:-1]:
        m = _TEXT_ROW.match(line)
        if not m:
            raise Mismatch(f"simulate row {line!r}")
        body[m.group(1)] = m.group(2)
    if shots is None:
        _sparse(body, p, TEXT_TOL, "distribution")
    else:
        _check_counts({o: int(c) for o, c in body.items()}, shots, p)
    for got, want in zip(_floats(_PAYOFF_LINE, lines[-1], "payoffs"), pay):
        _close(got, want, TEXT_TOL, "payoffs")


def _check_crosscheck(op, text: str, dist) -> None:
    p = distribution(op.params["moves"])
    for what, q in (("circuit", np.asarray(dist, dtype=float)), ("exported QASM", qasm_distribution(text))):
        tv = 0.5 * float(np.abs(q - p).sum())
        if not tv < TV_TOL:
            raise Mismatch(f"{what} vs matrix total variation {tv!r}")


def check(op, rc, text: str, dist, tables) -> str | None:
    """None if the operation's output matches the reference, else the reason.

    `dist` is the circuit-simulated distribution of a cross-check operation;
    `tables` maps payoff-table names to their 16x4 utilities.
    """
    if rc != 0:
        return f"exit code {rc}"
    try:
        if op.kind == "sweep":
            _check_sweep(op, text)
        elif op.kind == "table":
            _check_table(op, text, tables)
        elif op.kind == "analyze":
            _check_analyze(op, text, tables)
        elif op.kind == "simulate":
            _check_simulate(op, text)
        else:
            _check_crosscheck(op, text, dist)
    except (Mismatch, ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
