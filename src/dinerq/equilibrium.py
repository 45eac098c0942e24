"""Exhaustive analysis of the discrete strategy space.

The classical game enumerates {C,E}^4 (16 profiles, deterministic outcomes);
the quantum game enumerates {C,E,A}^4 (81 profiles) through the full EWL
pipeline. Profiles are ordered lexicographically in (Alice, Bob, Colin, Doug)
with C < E < A.

Two equilibrium notions are provided. `find_nash` defaults to strict
equilibria (every unilateral deviation strictly lowers the deviator's payoff);
with strict=False it returns the weak set (no strictly profitable deviation).
The built-in game has payoff ties, so the weak set is much larger; the strict
set is {EEEE} classically and {AAAA} quantum-mechanically.

Likewise two efficiency notions: `find_pareto_standard` (textbook Pareto
undominated) and `find_symmetric_optima` (profiles reaching the best equal
payoff vector, (6,6,6,6) for the built-in game; there are 8 of them).

Every routine works on one dense array P[s_A, s_B, s_C, s_D, player] built
from the records; a player's alternatives lie along their own axis of P.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import ewl
from .errors import DomainError, ValidationError
from .payoff import PayoffTable, expected_payoffs
from .statevector import OutcomeDistribution

TIE_TOL = 1e-9

LETTER_ORDER = "CEA"
CLASSICAL_LETTERS = "CE"
QUANTUM_LETTERS = "CEA"

PLAYER_NAMES = ("Alice", "Bob", "Colin", "Doug")


@dataclass(frozen=True)
class ProfileRecord:
    """One analyzed profile: its letters, outcome distribution and payoffs."""

    letters: str
    distribution: OutcomeDistribution
    payoffs: tuple[float, float, float, float]


def classical_distribution(letters: str) -> OutcomeDistribution:
    """Point mass on the outcome a classical {C, E} profile plays for sure."""
    index = int("".join("1" if ch == "E" else "0" for ch in letters), 2)
    p = np.zeros(16)
    p[index] = 1.0
    return OutcomeDistribution(4, p)


def enumerate_table(model: str, table: PayoffTable) -> list[ProfileRecord]:
    """All profile records for the given model, in deterministic order."""
    if model == "classical":
        letter_set = CLASSICAL_LETTERS
    elif model == "quantum":
        letter_set = QUANTUM_LETTERS
    else:
        raise DomainError(f"model must be 'classical' or 'quantum', got {model!r}")
    combos = ["".join(combo) for combo in itertools.product(letter_set, repeat=4)]
    if model == "classical":
        dists = [classical_distribution(letters) for letters in combos]
    else:
        params = np.array([[ewl.NAMED_PARAMS[ch] for ch in letters] for letters in combos])
        probs = ewl.batch_probabilities(params[..., 0], params[..., 1])
        dists = [OutcomeDistribution(4, p) for p in probs]
    return [
        ProfileRecord(letters, dist, tuple(float(v) for v in expected_payoffs(dist, table)))
        for letters, dist in zip(combos, dists)
    ]


def _payoff_array(records: list[ProfileRecord]) -> tuple[np.ndarray, tuple[str, ...], list[str]]:
    """Validate completeness and return (P, per-player sets, profiles): P is
    P[s_A, s_B, s_C, s_D, player] over the per-player letter sets, and the
    profiles are listed in P's C order, which is the C < E < A order."""
    pay = {r.letters: r.payoffs for r in records}
    sets = tuple(
        "".join(ch for ch in LETTER_ORDER if ch in {r.letters[i] for r in records})
        for i in range(4)
    )
    profiles = ["".join(t) for t in itertools.product(*sets)]
    if set(pay) != set(profiles):
        missing = sorted(set(profiles) - set(pay))
        raise ValidationError(
            f"records do not cover the full strategy product; missing {missing[:3]}"
        )
    payoffs = np.array([pay[p] for p in profiles], dtype=float)
    return payoffs.reshape(*map(len, sets), 4), sets, profiles


def _own_axis(P: np.ndarray, player: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(after, before, same) along `player`'s own axis: before[s] is the
    player's payoff at profile s, after[a, s] their payoff once they switch to
    their a-th strategy, and same[a, s] whether that strategy is their move at s."""
    before = P[..., player]
    n = before.shape[player]
    after = np.expand_dims(np.moveaxis(before, player, 0), player + 1)
    same = np.eye(n, dtype=bool).reshape((n,) + tuple(n if k == player else 1 for k in range(4)))
    return after, before, same


def find_nash(records: list[ProfileRecord], strict: bool = True) -> list[str]:
    """Nash equilibria. Strict: every deviation strictly hurts the deviator;
    weak (strict=False): no deviation strictly helps."""
    P, _, profiles = _payoff_array(records)
    stable = np.ones(P.shape[:4], dtype=bool)
    for player in range(4):
        after, before, same = _own_axis(P, player)
        gain = after - before
        breaks = gain > -TIE_TOL if strict else gain > TIE_TOL
        stable &= ~np.any(breaks & ~same, axis=0)
    return [profiles[k] for k in np.flatnonzero(stable)]


def find_pareto_standard(records: list[ProfileRecord]) -> list[str]:
    """Profiles whose payoff vector no other profile weakly dominates with at
    least one strict improvement."""
    P, _, profiles = _payoff_array(records)
    v = P.reshape(-1, 1, 4)  # v[p] against every w[q]
    w = P.reshape(1, -1, 4)
    beaten = np.all(w >= v - TIE_TOL, axis=2) & np.any(w > v + TIE_TOL, axis=2)
    return [p for p, dominated in zip(profiles, beaten.any(axis=1)) if not dominated]


def find_symmetric_optima(records: list[ProfileRecord]) -> list[str]:
    """Profiles achieving the maximal equal payoff vector (v, v, v, v)."""
    P, _, profiles = _payoff_array(records)
    v = P.reshape(-1, 4)
    symmetric = v.max(axis=1) - v.min(axis=1) <= TIE_TOL
    if not symmetric.any():
        return []
    best = v[symmetric, 0].max()
    return [profiles[k] for k in np.flatnonzero(symmetric & (v[:, 0] >= best - TIE_TOL))]


def best_response(
    records: list[ProfileRecord], player: int, opponents: tuple[str, str, str]
) -> list[str]:
    """All strategies maximizing `player`'s payoff against fixed opponents
    (ties within tolerance all returned)."""
    P, sets, _ = _payoff_array(records)
    if not 0 <= player <= 3:
        raise DomainError(f"player index must be 0..3, got {player}")
    others = [i for i in range(4) if i != player]
    if len(opponents) != 3 or any(ch not in tuple(sets[i]) for ch, i in zip(opponents, others)):
        raise DomainError(f"opponents must be 3 analyzed strategies, got {opponents!r}")
    at: list = [slice(None)] * 4
    for ch, i in zip(opponents, others):
        at[i] = sets[i].index(ch)
    values = P[tuple(at) + (player,)]
    best = values.max()
    return [s for s, v in zip(sets[player], values) if v >= best - TIE_TOL]


def dominant_strategies(records: list[ProfileRecord]) -> tuple[str | None, ...]:
    """Per player: the strategy that is weakly best against every opponent
    combination and strictly best for at least one, or None."""
    P, sets, _ = _payoff_array(records)
    result: list[str | None] = []
    for player in range(4):
        after, before, _ = _own_axis(P, player)
        axes = (0,) + tuple(k + 1 for k in range(4) if k != player)
        weakly_best = ~np.any(before < after - TIE_TOL, axis=axes)
        somewhere_strict = np.any(before > after + TIE_TOL, axis=axes)
        found = np.flatnonzero(weakly_best & somewhere_strict)
        result.append(sets[player][found[0]] if found.size else None)
    return tuple(result)


def deviation_values(
    records: list[ProfileRecord], letters: str
) -> list[tuple[int, str, float, float]]:
    """Every unilateral substitution at `letters`, the current strategy
    included: (player, alternative, deviator's payoff after, payoff before)."""
    P, sets, profiles = _payoff_array(records)
    if letters not in profiles:
        raise DomainError(f"profile {letters!r} is not in the analyzed set")
    at = np.unravel_index(profiles.index(letters), P.shape[:4])
    out = []
    for player in range(4):
        row = P[at[:player] + (slice(None),) + at[player + 1 :] + (player,)].tolist()
        out += [(player, alt, after, row[at[player]]) for alt, after in zip(sets[player], row)]
    return out


def profitable_deviation(
    records: list[ProfileRecord], letters: str
) -> tuple[int, str, float, float] | None:
    """A witness (player, alternative, new payoff, old payoff) showing that
    `letters` is not even a weak equilibrium, or None."""
    for player, alt, after, before in deviation_values(records, letters):
        if after > before + TIE_TOL:
            return (player, alt, after, before)
    return None


@dataclass(frozen=True)
class EquilibriumReport:
    """Full analysis of one model's table."""

    model: str
    nash: tuple[str, ...]
    weak_nash: tuple[str, ...]
    pareto_standard: tuple[str, ...]
    symmetric_optima: tuple[str, ...]
    dominant: tuple[str | None, ...]
    aaaa_deviations: tuple[tuple[int, str, float, float], ...] | None
    eeee_witness: tuple[int, str, float, float] | None


def analyze(records: list[ProfileRecord], model: str) -> EquilibriumReport:
    _, sets, _ = _payoff_array(records)
    aaaa = None
    if all("A" in s for s in sets):
        aaaa = tuple(deviation_values(records, "AAAA"))
    return EquilibriumReport(
        model=model,
        nash=tuple(find_nash(records, strict=True)),
        weak_nash=tuple(find_nash(records, strict=False)),
        pareto_standard=tuple(find_pareto_standard(records)),
        symmetric_optima=tuple(find_symmetric_optima(records)),
        dominant=dominant_strategies(records),
        aaaa_deviations=aaaa,
        eeee_witness=profitable_deviation(records, "EEEE"),
    )
