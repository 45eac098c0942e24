"""Independent brute-force reference implementations used by the tests.

Everything here is computed from first principles with explicit loops and
dense 16x16 linear algebra, deliberately sharing no code with the package
under test.
"""

import numpy as np

IDENTITY = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product via explicit index loops (no numpy.kron)."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for m in range(cb):
                    out[i * rb + k, j * cb + m] = a[i, j] * b[k, m]
    return out


def kron4(a, b, c, d) -> np.ndarray:
    return kron(kron(kron(a, b), c), d)


def embed_single(u: np.ndarray, qubit: int, n: int = 4) -> np.ndarray:
    mats = [IDENTITY] * n
    mats[qubit] = u
    out = mats[0]
    for m in mats[1:]:
        out = kron(out, m)
    return out


def strategy_matrix(theta: float, phi: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array(
        [[np.exp(1j * phi) * c, s], [-s, np.exp(-1j * phi) * c]]
    )


NAMED = {
    "C": strategy_matrix(0.0, 0.0),
    "E": strategy_matrix(np.pi, 0.0),
    "A": strategy_matrix(0.0, np.pi / 2),
}


def game_operator() -> np.ndarray:
    """The entangler (1/sqrt 2)(I⊗4 + i σy⊗4)."""
    return (kron4(*([IDENTITY] * 4)) + 1j * kron4(*([PAULI_Y] * 4))) / np.sqrt(2)


def final_state(unitaries) -> np.ndarray:
    """Full pipeline on |0000> given four 2x2 unitaries (or letters)."""
    us = [NAMED[u] if isinstance(u, str) else u for u in unitaries]
    j = game_operator()
    psi = np.zeros(16, dtype=complex)
    psi[0] = 1.0
    return j.conj().T @ (kron4(*us) @ (j @ psi))


def distribution(unitaries) -> np.ndarray:
    return np.abs(final_state(unitaries)) ** 2


CHEAP_ROW = (6.0, 4.0, 3.0, 0.0)
EXPENSIVE_ROW = (8.0, 4.0, 3.0, 1.0)

DOUG_COEFFS = (6, 8, 4, 4, 4, 4, 3, 3, 4, 4, 3, 3, 3, 3, 0, 1)


def utility(outcome_index: int, player: int) -> float:
    bits = [(outcome_index >> (3 - q)) & 1 for q in range(4)]
    own, others = bits[player], sum(bits) - bits[player]
    return (EXPENSIVE_ROW if own else CHEAP_ROW)[others]


def payoffs(dist: np.ndarray) -> np.ndarray:
    return np.array(
        [sum(dist[k] * utility(k, i) for k in range(16)) for i in range(4)]
    )


def profile_payoffs(letters: str) -> np.ndarray:
    return payoffs(distribution(letters))


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng: np.random.Generator, n: int = 4) -> np.ndarray:
    z = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return z / np.linalg.norm(z)


# --- equilibrium routines as explicit loops over a letters -> payoffs dict ----
# `sets` lists each player's strategies in C < E < A order; `pay` covers their
# product. The tie comparisons are written exactly as the package writes them.

TIE_TOL = 1e-9


def _swap(letters: str, player: int, alt: str) -> str:
    return letters[:player] + alt + letters[player + 1 :]


def profiles(sets) -> list[str]:
    out = [""]
    for s in sets:
        out = [p + ch for p in out for ch in s]
    return out


def nash(pay: dict, sets, strict: bool) -> list[str]:
    def breaks(gain):
        return gain > -TIE_TOL if strict else gain > TIE_TOL

    return [
        p
        for p in profiles(sets)
        if not any(
            breaks(pay[_swap(p, i, alt)][i] - pay[p][i])
            for i in range(4)
            for alt in sets[i]
            if alt != p[i]
        )
    ]


def pareto(pay: dict, sets) -> list[str]:
    def beats(w, v):
        return all(a >= b - TIE_TOL for a, b in zip(w, v)) and any(
            a > b + TIE_TOL for a, b in zip(w, v)
        )

    return [p for p in profiles(sets) if not any(beats(pay[q], pay[p]) for q in pay if q != p)]


def symmetric_optima(pay: dict, sets) -> list[str]:
    equal = [p for p in profiles(sets) if max(pay[p]) - min(pay[p]) <= TIE_TOL]
    if not equal:
        return []
    best = max(pay[p][0] for p in equal)
    return [p for p in equal if pay[p][0] >= best - TIE_TOL]


def dominant(pay: dict, sets) -> tuple:
    result = []
    for i in range(4):
        found = None
        for own in sets[i]:
            at_own = [p for p in profiles(sets) if p[i] == own]
            pairs = [(pay[p][i], pay[_swap(p, i, alt)][i]) for p in at_own for alt in sets[i] if alt != own]
            if all(not base < other - TIE_TOL for base, other in pairs) and any(
                base > other + TIE_TOL for base, other in pairs
            ):
                found = own
                break
        result.append(found)
    return tuple(result)


def best_response(pay: dict, sets, player: int, opponents) -> list[str]:
    values = {}
    for own in sets[player]:
        rest = list(opponents)
        rest.insert(player, own)
        values[own] = pay["".join(rest)][player]
    best = max(values.values())
    return [s for s in sets[player] if values[s] >= best - TIE_TOL]
