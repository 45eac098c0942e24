"""Per-outcome utilities for the four-player diner's dilemma.

The built-in game is symmetric: a player's utility depends only on their own
order (cheap/expensive) and on how many of the other three ordered expensive.
The two rows of that symmetric form are

    cheap:     (6, 4, 3, 0)   for 0..3 expensive co-diners
    expensive: (8, 4, 3, 1)

which expand to the full 16-outcome table. Utilities are kept real-valued so
that expected payoffs of superposed outcomes are well defined.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .statevector import ATOL_ANALYTIC, OutcomeDistribution

OUTCOMES = tuple(format(k, "04b") for k in range(16))

SYMMETRIC_ROWS = {"C": (6.0, 4.0, 3.0, 0.0), "E": (8.0, 4.0, 3.0, 1.0)}


def symmetric_payoff(own: str, others_expensive: int) -> float:
    """Utility of a player ordering `own` ("C" or "E") against a count of
    expensive co-diners."""
    if own not in SYMMETRIC_ROWS:
        raise DomainError(f"own order must be 'C' or 'E', got {own!r}")
    if not 0 <= others_expensive <= 3:
        raise DomainError(f"count of expensive co-diners must be 0..3, got {others_expensive}")
    return SYMMETRIC_ROWS[own][others_expensive]


@dataclass(frozen=True)
class PayoffTable:
    """Utilities u[outcome, player] for the 16 outcomes and 4 players."""

    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.shape != (16, 4):
            raise ValidationError(f"payoff table must be 16x4, got shape {u.shape}")
        if not np.all(np.isfinite(u)):
            raise ValidationError("payoff table entries must be finite")
        u = u.copy()
        u.flags.writeable = False
        object.__setattr__(self, "u", u)

    def utilities(self, outcome: str) -> tuple[float, float, float, float]:
        if outcome not in OUTCOMES:
            raise DomainError(f"unknown outcome {outcome!r}")
        return tuple(self.u[int(outcome, 2)])

    def is_symmetric(self) -> bool:
        """True if u_i(s) depends only on (own bit, number of other 1-bits)."""
        rows: dict[tuple[int, int], float] = {}
        for k in range(16):
            bits = [(k >> (3 - q)) & 1 for q in range(4)]
            for i in range(4):
                key = (bits[i], sum(bits) - bits[i])
                val = self.u[k, i]
                if key in rows and abs(rows[key] - val) > ATOL_ANALYTIC:
                    return False
                rows[key] = val
        return True


def from_symmetric(cheap_row, expensive_row) -> PayoffTable:
    """Expand a symmetric form (two 4-value rows) into the full 16x4 table."""
    rows = {0: [float(v) for v in cheap_row], 1: [float(v) for v in expensive_row]}
    if len(rows[0]) != 4 or len(rows[1]) != 4:
        raise ValidationError("symmetric rows must have 4 values each (counts 0..3)")
    u = np.empty((16, 4))
    for k in range(16):
        bits = [(k >> (3 - q)) & 1 for q in range(4)]
        for i in range(4):
            u[k, i] = rows[bits[i]][sum(bits) - bits[i]]
    return PayoffTable(u)


def builtin_table() -> PayoffTable:
    table = from_symmetric(SYMMETRIC_ROWS["C"], SYMMETRIC_ROWS["E"])
    assert table.is_symmetric()
    return table


def expected_payoffs(dist: OutcomeDistribution, table: PayoffTable) -> np.ndarray:
    """Expected utility of each player: Pf_i = Σ_s p(s) u_i(s)."""
    if dist.n != 4:
        raise ValidationError(f"expected a 4-qubit outcome distribution, got n={dist.n}")
    return dist.p @ table.u


def load_table(text: str | bytes) -> PayoffTable:
    """Parse a payoff-table config (JSON text, or UTF-8 bytes of it).

    Accepts either {"outcomes": {"0000": [u_A,u_B,u_C,u_D], ...}} with all 16
    outcomes, or {"symmetric": {"C": [...4 values...], "E": [...]}}. Every
    utility must be a JSON number.
    """
    try:
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too many digits, too deep
        raise ValidationError(f"payoff config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("payoff config must be a JSON object")
    if ("outcomes" in doc) == ("symmetric" in doc):
        raise ValidationError("payoff config needs exactly one of 'outcomes' or 'symmetric'")

    if "symmetric" in doc:
        sym = doc["symmetric"]
        if not isinstance(sym, dict):
            raise ValidationError("'symmetric' must map 'C' and 'E' to 4 utilities each")
        for key in ("C", "E"):
            if key not in sym:
                raise ValidationError(f"symmetric payoff config is missing row {key!r}")
        extra = set(sym) - {"C", "E"}
        if extra:
            raise ValidationError(f"unexpected symmetric row {sorted(extra)[0]!r}")
        return from_symmetric(_numeric_row(sym["C"], "C"), _numeric_row(sym["E"], "E"))

    entries = doc["outcomes"]
    if not isinstance(entries, dict):
        raise ValidationError("'outcomes' must map outcome strings to 4 utilities")
    for outcome in OUTCOMES:
        if outcome not in entries:
            raise ValidationError(f"missing outcome {outcome!r}")
    extra = set(entries) - set(OUTCOMES)
    if extra:
        raise ValidationError(f"unknown outcome key {sorted(extra)[0]!r}")
    u = np.empty((16, 4))
    for outcome in OUTCOMES:
        row = _numeric_row(entries[outcome], outcome)
        if len(row) != 4:
            raise ValidationError(f"outcome {outcome!r} must list 4 utilities")
        u[int(outcome, 2)] = row
    return PayoffTable(u)


def dump_table(table: PayoffTable) -> str:
    """Serialize a table to the explicit 16-outcome JSON form."""
    doc = {"outcomes": {o: list(table.u[int(o, 2)]) for o in OUTCOMES}}
    return json.dumps(doc, indent=2, sort_keys=True)


def _numeric_row(values, key: str) -> list[float]:
    if not isinstance(values, list):
        raise ValidationError(f"utilities under {key!r} must be a JSON array")
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values):
        raise ValidationError(f"non-numeric utility under {key!r}")
    try:
        return [float(v) for v in values]
    except OverflowError as exc:
        raise ValidationError(f"utility under {key!r} is too large") from exc
