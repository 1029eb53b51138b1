"""Integer utilities: divisibility (with the 0|0 convention), s-adic
valuation, factorization by trial division and the divisors built from it,
deterministic primality below psi_12 (about 3.2e23)."""

from __future__ import annotations

import itertools
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


# Trial divisors tried between two calls of factorize's check.
_TRIAL_BLOCK = 1 << 12


def factorize(m: int, *, max_trials: int | None = None, check=None) -> list[tuple[int, int]] | None:
    """Ascending (prime, exponent) pairs of |m|, by trial division.

    The trial divisors are 2, then the odd numbers, while their square is at
    most the part of |m| not yet factored.  With max_trials, None when
    factoring would take more trial divisors.  check(), where given, runs
    before each block of _TRIAL_BLOCK trial divisors after the first (the
    caller's budget).
    """
    if m == 0:
        raise DomainError("0 has no prime factorization")
    m = abs(m)
    pairs, d, tried = [], 2, 0
    while d * d <= m:
        if tried == max_trials:
            return None
        if tried and check is not None:
            check()
        stop = tried + _TRIAL_BLOCK if max_trials is None else min(tried + _TRIAL_BLOCK, max_trials)
        # the (tried + 1)-th to the stop-th of the trial divisors 2, 3, 5, 7, ...
        for d in range(2 * tried + 1, 2 * stop + 1, 2) if tried else itertools.chain((2,), range(3, 2 * stop + 1, 2)):
            if d * d > m:
                break
            if m % d == 0:
                e = 0
                while m % d == 0:
                    m, e = m // d, e + 1
                pairs.append((d, e))
        else:
            d, tried = 2 * stop + 1, stop
    return pairs + [(m, 1)] if m > 1 else pairs


def positive_divisors(m: int, *, check=None) -> list[int]:
    """Sorted positive divisors of |m|, the products of the prime powers of factorize(m, check=check); m = 0 is an error."""
    divisors = [1]
    for prime, exponent in factorize(m, check=check):
        divisors = [d * prime**e for e in range(exponent + 1) for d in divisors]
    return sorted(divisors)


# The first 12 primes as strong-probable-prime bases; psi_12 is the least
# strong pseudoprime to all of them, so they decide primality exactly below it
# (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 318665857834031151167461


def is_prime(s: int) -> bool:
    """Deterministic primality for s < psi_12 (Miller-Rabin, fixed bases).

    Above that it still answers for s with a factor among the bases, and
    raises DomainError otherwise.
    """
    if s < 2:
        return False
    for p in _MR_BASES:
        if s % p == 0:
            return s == p
    if s >= _PSI_12:
        raise DomainError(f"primality of {s} is not decided: the test is proven only below {_PSI_12}")
    d = s - 1
    r = 0
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
