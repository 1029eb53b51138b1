"""The benchmark's own residue oracle and the seeded residue samples.

`mat_g` raises the companion matrix [[p, q], [1, 0]] to the n-th power,
exactly or modulo m, and shares no code with gfibdiv's fast-doubling kernel.
The samples draw (p, q, n, modulus) from the moduli that the equiv-grid and
deep-classical jobs hand to `g_mod`.
"""

from __future__ import annotations

import random


def mat_g(p: int, q: int, n: int, m: int | None = None) -> int:
    """G_n, or G_n mod m, for G_0 = 0, G_1 = 1, G_n = p*G_{n-1} + q*G_{n-2}."""

    def reduce(x: int) -> int:
        return x if m is None else x % m

    def mul(x, y):
        return (
            (reduce(x[0][0] * y[0][0] + x[0][1] * y[1][0]), reduce(x[0][0] * y[0][1] + x[0][1] * y[1][1])),
            (reduce(x[1][0] * y[0][0] + x[1][1] * y[1][0]), reduce(x[1][0] * y[0][1] + x[1][1] * y[1][1])),
        )

    acc = ((reduce(1), 0), (0, reduce(1)))
    base = ((reduce(p), reduce(q)), (reduce(1), 0))
    while n:
        if n & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        n >>= 1
    return acc[1][0]


def _divisors(m: int) -> list[int]:
    m = abs(m)
    return [d for d in range(1, m + 1) if m % d == 0]


def equiv_samples(rng: random.Random, count: int) -> list[tuple[int, int, int, int]]:
    """(p, q, n, s^e): |p|, |q| <= 8, n <= 2000, s | r or s | r/4, e <= 3."""
    out = []
    while len(out) < count:
        p, q = rng.randint(-8, 8), rng.randint(-8, 8)
        r = p * p + 4 * q
        if r == 0:
            continue
        divisors = _divisors(r // 4 if r % 4 == 0 and rng.random() < 0.5 else r)
        out.append((p, q, rng.randint(0, 2000), rng.choice(divisors) ** rng.randint(1, 3)))
    return out


CLASSICAL = ((1, 1, 5), (2, 1, 2), (1, 2, 3))  # Fibonacci, Pell, Jacobsthal with their s


def deep_samples(rng: random.Random, count: int, k_min: int = 1) -> list[tuple[int, int, int, int]]:
    """(p, q, s^k * n, s^k * |G_n|): the divisibility residues of a Cor 1.4
    check at k <= 5, 1 <= n <= 5000, with moduli thousands of digits long."""
    out = []
    for _ in range(count):
        p, q, s = rng.choice(CLASSICAL)
        k, n = rng.randint(k_min, 5), rng.randint(1, 5000)
        sk = s**k
        out.append((p, q, sk * n, sk * abs(mat_g(p, q, n))))
    return out


def mismatches(g_mod, sequence_params, samples) -> list[tuple[int, int, int, int]]:
    """Samples where gfibdiv's g_mod disagrees with the matrix oracle."""
    return [
        (p, q, n, m)
        for p, q, n, m in samples
        if g_mod(sequence_params(p, q), n, m) != mat_g(p, q, n, m)
    ]
