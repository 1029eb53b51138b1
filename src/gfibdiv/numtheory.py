"""Integer utilities: divisibility (with the 0|0 convention), s-adic
valuation, factorization by trial division and Pollard's rho and the divisors
built from it, deterministic primality below psi_12 (about 3.2e23)."""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .errors import DomainError


def divides(a: int, b: int) -> bool:
    """True iff b = k*a for some integer k; in particular 0 | 0."""
    if a == 0:
        return b == 0
    return b % a == 0


class Valuation(NamedTuple):
    """s-adic valuation: exponent k, or None for the infinite case (m = 0)."""

    exponent: int | None

    @property
    def is_infinite(self) -> bool:
        return self.exponent is None


INFINITE = Valuation(None)


def valuation(m: int, s: int) -> Valuation:
    """Largest k with s^k | m; infinite exactly when m = 0.  Requires s >= 2."""
    if s <= 1:
        raise DomainError(f"valuation base must be >= 2, got {s}")
    if m == 0:
        return INFINITE
    k = 0
    m = abs(m)
    while m % s == 0:
        m //= s
        k += 1
    return Valuation(k)


def factorize(m: int, *, check=None) -> list[tuple[int, int]]:
    """Ascending (prime, exponent) pairs of |m|: trial division below 2^10, then Pollard's rho (_rho).

    is_prime proves each part left below psi_12 prime, and rho splits the others.  Past psi_12 a strong
    probable prime is not split, rho takes at most _RHO_CAP steps on any other part, and a part left
    unsplit raises DomainError naming it.  check(), where given, runs every _RHO_BLOCK rho steps.
    """
    if m == 0:
        raise DomainError("0 has no prime factorization")
    m, pairs = abs(m), []
    for d in _SMALL_PRIMES:
        if d * d > m:
            return pairs + [(m, 1)] if m > 1 else pairs
        if m % d == 0:
            e = 0
            while m % d == 0:
                m, e = m // d, e + 1
            pairs.append((d, e))
    primes, parts = [], [m] if m > 1 else []
    while parts:
        if (part := parts.pop()) < _PSI_12 and is_prime(part):
            primes.append(part)
        elif part >= _PSI_12 and _strong_probable_prime(part) or (d := _rho(part, check)) is None:
            raise DomainError(f"cannot factor {part}: primality is proven only below {_PSI_12}")
        else:
            parts += [d, part // d]
    return pairs + sorted((f, primes.count(f)) for f in set(primes))


def _rho(n: int, check) -> int | None:
    """A proper divisor of n by Pollard's rho, Brent's form (BIT 20 (1980)); None after _RHO_CAP steps past psi_12.

    y steps by y^2 + c mod n from 2, for c = 1, 2, ... in turn.  x jumps to y at each power of 2 of the
    steps, and from 3/4 of the way to the next jump the products of x - y are taken, a batch at a time.
    A batch whose gcd is n is replayed step by step; where that meets n too, the next c starts.
    """
    steps, cap = 0, None if n < _PSI_12 else _RHO_CAP
    for c in itertools.count(1):
        x = y = 2
        product, jump = 1, 2 * _RHO_BATCH
        for walked in itertools.count(0, _RHO_BATCH):
            if walked == jump:
                x, jump = y, 2 * jump
            start, compare = y, 4 * walked >= 3 * jump
            for _ in range(_RHO_BATCH):
                y = (y * y + c) % n
                if compare:
                    product = product * (x - y) % n
            if (g := math.gcd(product, n)) == n:
                y = start
                while (g := math.gcd(x - (y := (y * y + c) % n), n)) == 1:
                    pass
            if 1 < g < n:
                return g
            if (steps := steps + _RHO_BATCH) == cap:
                return None
            if g == n:
                break
            if check is not None and steps % _RHO_BLOCK == 0:
                check()


def factored_divisors(m: int, *, check=None) -> list[tuple[int, list[tuple[int, int]]]]:
    """Ascending (d, factorize(d)) pairs of the positive divisors d of |m|, from one factorize(m, check=check)."""
    divisors = [(1, [])]
    for f, e in factorize(m, check=check):
        divisors = [(d * f**i, pairs + [(f, i)] if i else pairs) for i in range(e + 1) for d, pairs in divisors]
    return sorted(divisors)


def positive_divisors(m: int, *, check=None) -> list[int]:
    """Sorted positive divisors of |m| (factored_divisors); m = 0 is an error."""
    return [d for d, _ in factored_divisors(m, check=check)]


# The first 12 primes as strong-probable-prime bases; psi_12 is the least
# strong pseudoprime to all of them, so they decide primality exactly below it
# (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 318665857834031151167461
# factorize's trial divisors, the primes below 2^10: past 37, those prime to the bases.
_SMALL_PRIMES = _MR_BASES + tuple(d for d in range(38, 1 << 10) if math.gcd(d, math.prod(_MR_BASES)) == 1)
# Rho steps between two gcds, between two calls of factorize's check, and at most on a part past psi_12.
_RHO_BATCH, _RHO_BLOCK, _RHO_CAP = 1 << 7, 1 << 12, 1 << 16


def is_prime(s: int) -> bool:
    """Deterministic primality below psi_12 (Miller-Rabin, fixed bases); past it, DomainError unless a base divides s."""
    if s < 2:
        return False
    for p in _MR_BASES:
        if s % p == 0:
            return s == p
    if s >= _PSI_12:
        raise DomainError(f"primality of {s} is not decided: the test is proven only below {_PSI_12}")
    return _strong_probable_prime(s)


def _strong_probable_prime(s: int) -> bool:
    """Whether s, with no factor among the bases, is a strong probable prime to each: exactly the primes below psi_12."""
    d, r = s - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, s)
        if x == 1 or x == s - 1:
            continue
        for _ in range(r - 1):
            x = x * x % s
            if x == s - 1:
                break
        else:
            return False
    return True
