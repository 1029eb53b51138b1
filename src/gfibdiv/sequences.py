"""Exact and modular evaluation of <p,q>-Fibonacci sequences.

The sequence is G_0 = 0, G_1 = 1, G_n = p*G_{n-1} + q*G_{n-2}.  Alongside G
we keep the companion integers A_n, B_n defined by

    A_n + B_n*sqrt(r) = (p + sqrt(r))^n,    r = p^2 + 4q,

which satisfy B_n = 2^(n-1) * G_n and A_n^2 - r*B_n^2 = (-4q)^n.  All exact
arithmetic is arbitrary precision; g_exact and the modular kernels take
O(log n) multiplications and accept decimal-string indices of any length,
and the residue stream g_pairs_mod walks many indices mod m at O(1) per step.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError, InputError, ResourceLimitError

DEFAULT_MAX_TERMS = 10**6


class SequenceParams(NamedTuple):
    """The recurrence coefficients (p, q); r = p^2 + 4q is derived."""

    p: int
    q: int

    @property
    def r(self) -> int:
        return self.p * self.p + 4 * self.q


class ABPair(NamedTuple):
    """Companion integers (A_n, B_n) at index n."""

    n: int
    a: int
    b: int


def _index_digits(text: str) -> str:
    """The canonical digits of a nonnegative decimal index string, of any width.

    Surrounding blanks, a sign and leading zeros are dropped, and decimal
    digits of other scripts become ASCII, so " +07" gives "7".
    """
    digits = text.strip()
    negative = digits[:1] == "-"
    if digits[:1] in ("+", "-"):
        digits = digits[1:]
    if not digits.isdecimal():
        raise InputError(f"malformed decimal index: {text!r}")
    if not digits.isascii():
        digits = "".join(str(int(ch)) for ch in digits)
    digits = digits.lstrip("0") or "0"
    if negative and digits != "0":
        raise InputError(f"index must be nonnegative, got -{digits}")
    return digits


# int(str) refuses more digits than sys.get_int_max_str_digits() (4,300 by
# default, never below 640 when set), so longer strings are read in parts.
_DIGIT_CHUNK = 640


def _decimal_value(digits: str) -> int:
    if len(digits) <= _DIGIT_CHUNK:
        return int(digits)
    low = len(digits) // 2
    return _decimal_value(digits[:-low]) * 10**low + _decimal_value(digits[-low:])


def _parse_index(n) -> int:
    """Accept a nonnegative int or decimal string, arbitrary width."""
    if isinstance(n, bool):
        raise InputError("index must be an integer, not bool")
    if isinstance(n, str):
        return _decimal_value(_index_digits(n))
    if not isinstance(n, int):
        raise InputError(f"index must be int or decimal string, got {type(n).__name__}")
    if n < 0:
        raise InputError(f"index must be nonnegative, got {n}")
    return n


def g_exact(params: SequenceParams, n: int) -> int:
    """Exact G_n in O(log n) multiplications: _pair_mod's doubling steps with no modulus."""
    n = _parse_index(n)
    p, q = params.p, params.q
    a, b = 0, 1  # G_j, G_{j+1}, j the bits of n read so far
    for bit in bin(n)[2:]:
        if bit == "1":
            a, b = b * b + q * a * a, b * (p * b + 2 * q * a)
        else:
            a, b = a * (2 * b - p * a), b * b + q * a * a
    return a


def g_range(
    params: SequenceParams, n_max: int, *, max_terms: int = DEFAULT_MAX_TERMS, out: list[int] | None = None,
    n_last: int | None = None,
) -> list[int]:
    """[G_0, ..., G_{n_max}]; refuses to allocate beyond max_terms terms.

    Given out, a list of G_0, G_1, ... (possibly empty), it grows out itself
    to at least G_{n_max} and returns it.  A caller that grows out in steps
    names the last index it will read as n_last (>= n_max), and the ceiling
    is checked on that, before any term is built.
    """
    n_max = _parse_index(n_max)
    last = n_max if n_last is None else n_last
    if last + 1 > max_terms:
        raise ResourceLimitError(f"g_range of {last + 1} terms exceeds ceiling {max_terms}")
    p, q = params.p, params.q
    gs = [] if out is None else out
    if len(gs) < 2:
        gs[:] = [0, 1]
    for _ in range(n_max + 1 - len(gs)):
        gs.append(p * gs[-1] + q * gs[-2])
    return gs[: n_max + 1] if out is None else gs


def ab_exact(params: SequenceParams, n: int) -> ABPair:
    """Exact (A_n, B_n) via the coupled step A' = pA + rB, B' = A + pB."""
    n = _parse_index(n)
    p, r = params.p, params.r
    a, b = 1, 0  # A_0, B_0
    for _ in range(n):
        a, b = p * a + r * b, a + p * b
    return ABPair(n=n, a=a, b=b)


def _pair_mod(p: int, q: int, n: int, m: int) -> tuple[int, int]:
    """(U_n, U_{n+1}) mod m for U_0=0, U_1=1, U_j = p*U_{j-1} + q*U_{j-2}.

    Fast doubling: U_{2j} = U_j*(2*U_{j+1} - p*U_j), U_{2j+1} = U_{j+1}^2 + q*U_j^2,
    and U_{2j+2} = U_{j+1}*(p*U_{j+1} + 2*q*U_j) for a set bit of n.
    """
    p %= m
    q %= m
    a, b = 0, 1 % m
    for bit in bin(n)[2:]:
        if bit == "1":
            a, b = (b * b + q * a * a) % m, b * (p * b + 2 * q * a) % m
        else:
            a, b = a * (2 * b - p * a) % m, (b * b + q * a * a) % m
    return a, b


# Past this many linear steps forward, one fast-doubling seed is cheaper.
_STEP_LIMIT = 64


def g_pairs_mod(params: SequenceParams, ns, m: int):
    """Lazily yield (G_n mod m, G_{n+1} mod m) for each nonnegative int n in ns.

    The residue stream: one fast-doubling seed at the first n, then linear
    steps forward, so a run of consecutive indices costs O(1) each.  An n that
    is not a short step forward of the one before is seeded afresh, so ns may
    come in any order and with any gaps.
    """
    if m < 1:
        raise DomainError(f"modulus must be >= 1, got {m}")
    return _stream_pairs(params.p % m, params.q % m, ns, m)


def _stream_pairs(p: int, q: int, ns, m: int):
    at = None
    for n in ns:
        if at is not None and 0 <= n - at <= _STEP_LIMIT:
            for _ in range(n - at):
                a, b = b, (p * b + q * a) % m
        else:
            n = _parse_index(n)
            a, b = _pair_mod(p, q, n, m)
        at = n
        yield a, b


def g_mod(params: SequenceParams, n, m: int) -> int:
    """G_n mod m in O(log n) multiplications; n may be a decimal string."""
    if m < 1:
        raise DomainError(f"modulus must be >= 1, got {m}")
    n = _parse_index(n)
    return _pair_mod(params.p, params.q, n, m)[0]


def g_is_zero(params: SequenceParams, n) -> bool:
    """Whether G_n = 0, decidable for astronomically large n.

    For q != 0 the positive-index zeros, when they exist, are exactly the
    multiples of the smallest one, and that smallest zero index is at most 6
    (the root ratio is then a root of unity in a field of degree <= 2).
    """
    n = _parse_index(n)
    if n == 0:
        return True
    if params.q == 0:
        # G_n = p^(n-1) for n >= 1
        return params.p == 0 and n >= 2
    for n0 in range(1, 7):
        if g_exact(params, n0) == 0:
            return n % n0 == 0
    return False
