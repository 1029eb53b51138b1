"""Independent oracles: the trust base the tests check gfibdiv against.

Each oracle is written once, here, from the definitions alone: the
recurrence G_0 = 0, G_1 = 1, G_{n+1} = p*G_n + q*G_{n-1}, its companion
matrix, trial division, and the statements of the theorems as divisibility
of integers.  They take plain ints and return ints or plain containers of
them.  This module imports the standard library only and nothing from
gfibdiv (tests/test_oracles.py checks that), so no oracle calls a kernel it
is used to check.  Each takes the plainest correct way to its answer, not
the fastest.
"""

from __future__ import annotations


def g_values(p: int, q: int, n_max: int) -> list[int]:
    """G_0..G_{n_max} exactly, the recurrence written as an explicit list."""
    values = [0, 1]
    while len(values) <= n_max:
        values.append(p * values[-1] + q * values[-2])
    return values[: n_max + 1]


def naive_g(p: int, q: int, n: int) -> int:
    """G_n exactly, from the explicit list."""
    return g_values(p, q, n)[n]


def zero_indices(p: int, q: int, n_max: int) -> set[int]:
    """The n <= n_max with G_n = 0, from exact values, holding two at a time."""
    zeros, g, g_next = set(), 0, 1
    for n in range(n_max + 1):
        if g == 0:
            zeros.add(n)
        g, g_next = g_next, p * g_next + q * g
    return zeros


def _mat_mul(x, y, m: int):
    """The product of 2x2 matrices x and y mod m, each a row-major 4-tuple."""
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g) % m, (a * f + b * h) % m, (c * e + d * g) % m, (c * f + d * h) % m


def mat_pow(p: int, q: int, n: int, m: int):
    """M^n mod m, row-major, for the companion matrix M = [[p, q], [1, 0]], by repeated squaring.

    M^n = [[G_{n+1}, q*G_n], [G_n, q*G_{n-1}]].
    """
    acc = (1 % m, 0, 0, 1 % m)
    base = (p % m, q % m, 1 % m, 0)
    while n:
        if n & 1:
            acc = _mat_mul(acc, base, m)
        base = _mat_mul(base, base, m)
        n >>= 1
    return acc


def mat_g_mod(p: int, q: int, n: int, m: int) -> int:
    """G_n mod m, the lower-left entry of M^n mod m."""
    return mat_pow(p, q, n, m)[2]


def brute_factorization(m: int) -> list[tuple[int, int]]:
    """(d, e) for each d = 2, 3, ... dividing what is left of |m|, e times: d is prime, having no smaller factor left.

    Once d^2 passes what is left, that is 1 or a prime.
    """
    m, pairs, d = abs(m), [], 2
    while d * d <= m:
        e = 0
        while m % d == 0:
            m, e = m // d, e + 1
        if e:
            pairs.append((d, e))
        d += 1
    return pairs + [(m, 1)] if m > 1 else pairs


def brute_rank(p: int, q: int, m: int) -> int | None:
    """The least n >= 1 with m | G_n, or None: walk (G_n, G_{n+1}) mod m from n = 1 until a state repeats."""
    state, n, seen = (1 % m, p % m), 1, set()
    while state not in seen:
        if state[0] == 0:
            return n
        seen.add(state)
        state, n = (state[1], (p * state[1] + q * state[0]) % m), n + 1
    return None


def divides(a: int, b: int) -> bool:
    """a | b, where 0 divides only 0."""
    return b == 0 if a == 0 else b % a == 0


def direct_failures(kind: str, gs: list[int], s: int, k_max: int, n_max: int, scales=(1,)) -> set[tuple[int, int]]:
    """Failing (k, n) of a conclusion, straight from its statement with %, on exact values gs.

    kind is "mult-div" (s^k*G_n | G_{s^k*n}), "scaled" (a*s^k*G_n | a*G_{s^k*n}
    for each a in scales), "equiv" (s^k | n <=> s^k | G_n), "base-equiv" (the
    equivalence at exponent min(k, 1)) or "classical" (mult-div and equiv).
    gs holds G_0..G_{s^k_max * n_max}, or G_0..G_{n_max} for an equivalence.
    """
    divisibility = kind in ("mult-div", "scaled", "classical")
    equivalence = kind in ("equiv", "base-equiv", "classical")
    failing = set()
    for k in range(k_max + 1):
        sk = s**k
        d = s ** min(k, 1) if kind == "base-equiv" else sk
        for n in range(n_max + 1):
            if (divisibility and not all(divides(a * sk * gs[n], a * gs[sk * n]) for a in scales)) or (
                equivalence and (n % d == 0) != (gs[n] % d == 0)
            ):
                failing.add((k, n))
    return failing


def divisibility_failures(p: int, q: int, s_values, k_max: int, n_max: int) -> dict[int, dict]:
    """s -> {(k, n): remainder} for each failure of s^k*G_n | G_{s^k*n}, for each s in s_values.

    Where G_n != 0 the remainder is that of G_{s^k*n} modulo the whole divisor
    s^k*|G_n|, from the residue of the big index (mat_g_mod), and (k, n) fails
    where it is not 0.  Where G_n = 0, (k, n) fails where G_{s^k*n} != 0
    (zero_indices), as 0 divides only 0, and its remainder is None.
    """
    gs = g_values(p, q, n_max)
    zeros = zero_indices(p, q, max(s_values) ** k_max * n_max) if 0 in gs[1:] else {0}
    failing = {}
    for s in s_values:
        failing[s] = {}
        for k in range(k_max + 1):
            for n in range(n_max + 1):
                if gs[n] == 0:
                    if s**k * n not in zeros:
                        failing[s][k, n] = None
                elif remainder := mat_g_mod(p, q, s**k * n, s**k * abs(gs[n])):
                    failing[s][k, n] = remainder
    return failing


def lift_failure(p: int, q: int, s: int, t_max: int) -> int | None:
    """The least t <= t_max with s not dividing t and s^2 | G_{s*t}, or None.

    (G_{s*t+1}, G_{s*t}) mod s^2 is (M^s)^t applied to (G_1, G_0) = (1, 0),
    so each t steps the one before by M^s mod s^2.
    """
    m = s * s
    a, b, c, d = mat_pow(p, q, s, m)
    upper, lower = 1 % m, 0
    for t in range(1, t_max + 1):
        upper, lower = (a * upper + b * lower) % m, (c * upper + d * lower) % m
        if t % s and lower == 0:
            return t
    return None


def residue_lemma_pairs(s: int) -> list[tuple[int, int]]:
    """The pairs (a, b) of residues mod s with s | a^2 + 4b, found by scanning 4b mod s for every b."""
    by_residue = {}
    for b in range(s):
        by_residue.setdefault(4 * b % s, []).append(b)
    return [(a, b) for a in range(s) for b in by_residue.get(-a * a % s, [])]
