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


def _classical_distribution(letters: str) -> OutcomeDistribution:
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
        dists = [_classical_distribution(letters) for letters in combos]
    else:
        params = np.array([[ewl.NAMED_PARAMS[ch] for ch in letters] for letters in combos])
        probs = ewl.batch_probabilities(params[..., 0], params[..., 1])
        dists = [OutcomeDistribution(4, p) for p in probs]
    return [
        ProfileRecord(letters, dist, tuple(float(v) for v in expected_payoffs(dist, table)))
        for letters, dist in zip(combos, dists)
    ]


def _payoff_map(records: list[ProfileRecord]) -> tuple[dict[str, tuple], tuple[str, ...]]:
    """Validate completeness and return (letters -> payoffs, per-player sets)."""
    pay = {r.letters: r.payoffs for r in records}
    sets = tuple(
        "".join(ch for ch in LETTER_ORDER if ch in {r.letters[i] for r in records})
        for i in range(4)
    )
    expected = {"".join(t) for t in itertools.product(*sets)}
    if set(pay) != expected:
        missing = sorted(expected - set(pay))
        raise ValidationError(
            f"records do not cover the full strategy product; missing {missing[:3]}"
        )
    return pay, sets


def _deviations(letters: str, player: int, letter_set: str):
    for alt in letter_set:
        if alt != letters[player]:
            yield alt, letters[:player] + alt + letters[player + 1 :]


def find_nash(records: list[ProfileRecord], strict: bool = True) -> list[str]:
    """Nash equilibria. Strict: every deviation strictly hurts the deviator;
    weak (strict=False): no deviation strictly helps."""
    pay, sets = _payoff_map(records)
    result = []
    for letters in sorted(pay, key=_profile_key):
        ok = True
        for player in range(4):
            for _, dev in _deviations(letters, player, sets[player]):
                gain = pay[dev][player] - pay[letters][player]
                if (strict and gain > -TIE_TOL) or (not strict and gain > TIE_TOL):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            result.append(letters)
    return result


def find_pareto_standard(records: list[ProfileRecord]) -> list[str]:
    """Profiles whose payoff vector no other profile weakly dominates with at
    least one strict improvement."""
    pay, _ = _payoff_map(records)
    vecs = {p: np.array(v) for p, v in pay.items()}
    result = []
    for p, v in vecs.items():
        dominated = any(
            np.all(w >= v - TIE_TOL) and np.any(w > v + TIE_TOL)
            for q, w in vecs.items()
            if q != p
        )
        if not dominated:
            result.append(p)
    return sorted(result, key=_profile_key)


def find_symmetric_optima(records: list[ProfileRecord]) -> list[str]:
    """Profiles achieving the maximal equal payoff vector (v, v, v, v)."""
    pay, _ = _payoff_map(records)
    symmetric = {
        p: v[0] for p, v in pay.items() if max(v) - min(v) <= TIE_TOL
    }
    if not symmetric:
        return []
    best = max(symmetric.values())
    return sorted(
        (p for p, v in symmetric.items() if v >= best - TIE_TOL), key=_profile_key
    )


def best_response(
    records: list[ProfileRecord], player: int, opponents: tuple[str, str, str]
) -> list[str]:
    """All strategies maximizing `player`'s payoff against fixed opponents
    (ties within tolerance all returned)."""
    pay, sets = _payoff_map(records)
    if not 0 <= player <= 3:
        raise DomainError(f"player index must be 0..3, got {player}")
    opponent_sets = [s for i, s in enumerate(sets) if i != player]
    if len(opponents) != 3 or any(
        ch not in allowed for ch, allowed in zip(opponents, opponent_sets)
    ):
        raise DomainError(f"opponents must be 3 analyzed strategies, got {opponents!r}")
    values = {}
    for own in sets[player]:
        rest = list(opponents)
        rest.insert(player, own)
        values[own] = pay["".join(rest)][player]
    best = max(values.values())
    return [s for s in sets[player] if values[s] >= best - TIE_TOL]


def dominant_strategies(records: list[ProfileRecord]) -> tuple[str | None, ...]:
    """Per player: the strategy that is weakly best against every opponent
    combination and strictly best for at least one, or None."""
    pay, sets = _payoff_map(records)
    result: list[str | None] = []
    for player in range(4):
        found = None
        opponent_sets = [s for i, s in enumerate(sets) if i != player]
        for own in sets[player]:
            weakly_best, somewhere_strict = True, False
            for opp in itertools.product(*opponent_sets):
                rest = list(opp)
                rest.insert(player, own)
                base = pay["".join(rest)][player]
                for alt in sets[player]:
                    if alt == own:
                        continue
                    rest[player] = alt
                    other = pay["".join(rest)][player]
                    rest[player] = own
                    if base < other - TIE_TOL:
                        weakly_best = False
                    elif base > other + TIE_TOL:
                        somewhere_strict = True
                if not weakly_best:
                    break
            if weakly_best and somewhere_strict:
                found = own
                break
        result.append(found)
    return tuple(result)


def deviation_values(
    records: list[ProfileRecord], letters: str
) -> list[tuple[int, str, float, float]]:
    """Every unilateral substitution at `letters`, the current strategy
    included: (player, alternative, deviator's payoff after, payoff before)."""
    pay, sets = _payoff_map(records)
    if letters not in pay:
        raise DomainError(f"profile {letters!r} is not in the analyzed set")
    out = []
    for player in range(4):
        for alt in sets[player]:
            dev = letters[:player] + alt + letters[player + 1 :]
            out.append((player, alt, pay[dev][player], pay[letters][player]))
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


def _profile_key(letters: str) -> tuple[int, ...]:
    return tuple(LETTER_ORDER.index(ch) for ch in letters)


@dataclass(frozen=True)
class EquilibriumReport:
    """Full analysis of one model's table."""

    model: str
    nash: tuple[str, ...]
    weak_nash: tuple[str, ...]
    pareto_standard: tuple[str, ...]
    symmetric_optima: tuple[str, ...]
    dominant: tuple[str | None, ...]
    best_responses: dict[tuple[int, str], tuple[str, ...]]
    aaaa_deviations: tuple[tuple[int, str, float, float], ...] | None
    eeee_witness: tuple[int, str, float, float] | None


def analyze(records: list[ProfileRecord], model: str) -> EquilibriumReport:
    _, sets = _payoff_map(records)
    best_responses = {
        (player, "".join(opp)): tuple(best_response(records, player, tuple(opp)))
        for player in range(4)
        for opp in itertools.product(*(s for i, s in enumerate(sets) if i != player))
    }
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
        best_responses=best_responses,
        aaaa_deviations=aaaa,
        eeee_witness=profitable_deviation(records, "EEEE"),
    )
