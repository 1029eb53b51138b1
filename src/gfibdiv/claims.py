"""The divisibility theorems encoded as machine-checkable claims.

Each claim is a pair (hypothesis, conclusion) over the parameters (p, q) and
a positive integer s.  Hypotheses are conjunctions of named atomic conditions
arranged in "or"-separated cases, mirroring the case structure of the source
statements; conclusions are predicates over an additional exponent k and
index n.  Conclusions are evaluable even when the hypothesis fails, which is
what makes relaxed-hypothesis counterexample search possible.  Modular mode
decides some from the rank of apparition (_rank; rank_of_apparition reads it).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from enum import Enum
from typing import NamedTuple

from .errors import DomainError, InputError
from .numtheory import divides, factorize, is_prime
# g_is_zero is not called here; it stays importable because perfbench/tracer.py
# wraps claims.g_is_zero.
from .sequences import SequenceParams, _pair_mod, g_exact, g_is_zero, g_mod, g_pairs_mod

# Scale factors used by the scaled-seed claim (seeds (0, alpha) give alpha*G_n).
DEFAULT_SCALE_FACTORS = (-3, -1, 2, 5)


class ClaimId(Enum):
    Thm1_1_MultDiv = "thm1.1-multdiv"
    Thm1_1_Equiv = "thm1.1-equiv"
    Thm1_2_BaseEquiv = "thm1.2-base-equiv"
    Thm1_2_LiftedEquiv = "thm1.2-lifted-equiv"
    Cor_Square = "cor-square"
    Cor_Fibonacci = "cor-fibonacci"
    Cor_Pell = "cor-pell"
    Cor_Jacobsthal = "cor-jacobsthal"
    Cor_Q1 = "cor-q1"
    Cor_P1P2 = "cor-p1p2"
    Cor_PrimeR = "cor-prime-r"
    Cor_PrimeRover4 = "cor-prime-r4"
    Remark_Scaled = "remark-scaled"


# Atomic hypothesis conditions.  A condition that does not read s takes
# (p, q), so hypothesis_gate decides it once per cell; the rest take (p, q, s).
_CONDITIONS = {
    "r-nonzero": lambda p, q: p * p + 4 * q != 0,
    "p-odd": lambda p, q: p % 2 == 1,
    "p-even": lambda p, q: p % 2 == 0,
    "p-nonzero": lambda p, q: p != 0,
    "p-eq-1": lambda p, q: p == 1,
    "p-eq-2": lambda p, q: p == 2,
    "q-eq-1": lambda p, q: q == 1,
    "q-eq-2": lambda p, q: q == 2,
    "q-positive": lambda p, q: q >= 1,
    "gcd-pq": lambda p, q: math.gcd(p, q) == 1,
    "gcd-p2-q": lambda p, q: p % 2 == 0 and math.gcd(p // 2, q) == 1,
    "s-div-r": lambda p, q, s: divides(s, p * p + 4 * q),
    "s-div-r4": lambda p, q, s: (p * p + 4 * q) % 4 == 0 and divides(s, (p * p + 4 * q) // 4),
    "s2-div-r": lambda p, q, s: divides(s * s, p * p + 4 * q),
    "s2-div-r4": lambda p, q, s: (p * p + 4 * q) % 4 == 0 and divides(s * s, (p * p + 4 * q) // 4),
    "4-div-r": lambda p, q: (p * p + 4 * q) % 4 == 0,
    "s-prime": lambda p, q, s: is_prime(s),
    "s-ge-3": lambda p, q, s: s >= 3,
    "r-prime": lambda p, q: is_prime(p * p + 4 * q),
    "r4-prime": lambda p, q: (p * p + 4 * q) % 4 == 0 and is_prime((p * p + 4 * q) // 4),
    "s-eq-r": lambda p, q, s: s == p * p + 4 * q,
    "s-eq-r4": lambda p, q, s: (p * p + 4 * q) % 4 == 0 and s == (p * p + 4 * q) // 4,
    "s-eq-2": lambda p, q, s: s == 2,
    "s-eq-3": lambda p, q, s: s == 3,
    "s-eq-5": lambda p, q, s: s == 5,
    "s-div-4q1": lambda p, q, s: divides(s, 4 * q + 1),
    "s-div-q1": lambda p, q, s: divides(s, q + 1),
    # (3 does not divide q+1) or (3 does not divide s)
    "mod3-guard": lambda p, q, s: (q + 1) % 3 != 0 or s % 3 != 0,
}
_S_FREE = frozenset(name for name, fn in _CONDITIONS.items() if fn.__code__.co_argcount == 2)


class ConclusionKind(Enum):
    MULT_DIV = "mult-div"  # s^k * G_n  divides  G_{s^k * n}
    EQUIV = "equiv"  # s^k | n  <=>  s^k | G_n
    BASE_EQUIV = "base-equiv"  # the k=1 equivalence (exponent clamped to 1)
    CLASSICAL = "classical"  # MULT_DIV and EQUIV together
    SCALED = "scaled"  # MULT_DIV for every configured seed scale


class ClaimSpec(NamedTuple):
    claim: ClaimId
    statement: str
    citation: str
    global_conditions: tuple[str, ...]
    cases: tuple[tuple[str, ...], ...]
    conclusion: ConclusionKind

    @property
    def condition_names(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.global_conditions + tuple(c for case in self.cases for c in case)))


_EQUIV_CASES_THM11 = (
    ("p-odd", "gcd-pq", "s-div-r"),
    ("p-even", "gcd-p2-q", "s-div-r4"),
    ("gcd-pq", "s-ge-3", "s-prime", "s-div-r"),
)

_EQUIV_CASES_THM12 = (
    ("p-odd", "gcd-pq", "s-div-r"),
    ("p-even", "gcd-p2-q", "s-div-r4"),
    ("gcd-pq", "s-prime", "s-div-r"),
)

REGISTRY: tuple[ClaimSpec, ...] = (
    ClaimSpec(
        ClaimId.Thm1_1_MultDiv,
        "For r != 0 and every s in N with s | r: s^k * G_n divides G_{s^k * n} "
        "for all k, n >= 0.",
        "Theorem 1.1(1)",
        ("r-nonzero",),
        (("s-div-r",),),
        ConclusionKind.MULT_DIV,
    ),
    ClaimSpec(
        ClaimId.Thm1_1_Equiv,
        "For r != 0, under any of: [p odd, (p,q)=1, s | r], [p even, (p/2,q)=1, "
        "s | r/4], [(p,q)=1, s >= 3 prime, s | r], and provided 3 does not divide "
        "both q+1 and s: s^k | n iff s^k | G_n for all k, n >= 0.",
        "Theorem 1.1(2)",
        ("r-nonzero", "mod3-guard"),
        _EQUIV_CASES_THM11,
        ConclusionKind.EQUIV,
    ),
    ClaimSpec(
        ClaimId.Thm1_2_BaseEquiv,
        "For r != 0, under any of: [p odd, (p,q)=1, s | r], [p even, (p/2,q)=1, "
        "s | r/4], [(p,q)=1, s prime, s | r]: s | n iff s | G_n for all n >= 0.",
        "Theorem 1.2(1)",
        ("r-nonzero",),
        _EQUIV_CASES_THM12,
        ConclusionKind.BASE_EQUIV,
    ),
    ClaimSpec(
        ClaimId.Thm1_2_LiftedEquiv,
        "Under the same cases as the base equivalence, if additionally s^2 never "
        "divides G_{s*t} for t not divisible by s (checked up to a bound), then "
        "s^k | n iff s^k | G_n for all k, n >= 0.",
        "Theorem 1.2(2)",
        ("r-nonzero",),
        _EQUIV_CASES_THM12,
        ConclusionKind.EQUIV,
    ),
    ClaimSpec(
        ClaimId.Cor_Square,
        "For r != 0, under [p odd, (p,q)=1, s^2 | r] or [p even, (p/2,q)=1, "
        "s^2 | r/4]: s^k | n iff s^k | G_n for all k, n >= 0.",
        "Corollary 1.3",
        ("r-nonzero",),
        (("p-odd", "gcd-pq", "s2-div-r"), ("p-even", "gcd-p2-q", "s2-div-r4")),
        ConclusionKind.EQUIV,
    ),
    ClaimSpec(
        ClaimId.Cor_Fibonacci,
        "Fibonacci (p=1, q=1), s=5: 5^k * F_n | F_{5^k * n}, and 5^k | n iff "
        "5^k | F_n, for all k, n >= 0.",
        "Corollary 1.4(1)",
        (),
        (("p-eq-1", "q-eq-1", "s-eq-5"),),
        ConclusionKind.CLASSICAL,
    ),
    ClaimSpec(
        ClaimId.Cor_Pell,
        "Pell (p=2, q=1), s=2: 2^k * P_n | P_{2^k * n}, and 2^k | n iff "
        "2^k | P_n, for all k, n >= 0.",
        "Corollary 1.4(2)",
        (),
        (("p-eq-2", "q-eq-1", "s-eq-2"),),
        ConclusionKind.CLASSICAL,
    ),
    ClaimSpec(
        ClaimId.Cor_Jacobsthal,
        "Jacobsthal (p=1, q=2), s=3: 3^k * J_n | J_{3^k * n}, and 3^k | n iff "
        "3^k | J_n, for all k, n >= 0.",
        "Corollary 1.4(3)",
        (),
        (("p-eq-1", "q-eq-2", "s-eq-3"),),
        ConclusionKind.CLASSICAL,
    ),
    ClaimSpec(
        ClaimId.Cor_Q1,
        "For q = 1 (so r = p^2 + 4), under [p odd, s | r] or [p even, s | r/4] "
        "or [s >= 3 prime, s | r]: s^k | n iff s^k | G_n for all k, n >= 0.",
        "Corollary 1.5",
        ("q-eq-1",),
        (("p-odd", "s-div-r"), ("p-even", "s-div-r4"), ("s-ge-3", "s-prime", "s-div-r")),
        ConclusionKind.EQUIV,
    ),
    ClaimSpec(
        ClaimId.Cor_P1P2,
        "Under [p = 1, s | 4q+1] or [p = 2, s | q+1], and provided 3 does not "
        "divide both q+1 and s: s^k | n iff s^k | G_n for all k, n >= 0 (the "
        "k <= 1 instances need no mod-3 proviso).",
        "Corollary 1.6",
        ("mod3-guard",),
        (("p-eq-1", "s-div-4q1"), ("p-eq-2", "s-div-q1")),
        ConclusionKind.EQUIV,
    ),
    ClaimSpec(
        ClaimId.Cor_PrimeR,
        "For q >= 1 with r = p^2 + 4q prime and s = r: r^k | n iff r^k | G_n "
        "for all k, n >= 0.",
        "Corollary 1.7(1)",
        (),
        (("q-positive", "r-prime", "s-eq-r"),),
        ConclusionKind.EQUIV,
    ),
    ClaimSpec(
        ClaimId.Cor_PrimeRover4,
        "For q >= 1, p != 0, 4 | r with r/4 prime and s = r/4: (r/4)^k | n iff "
        "(r/4)^k | G_n for all k, n >= 0.",
        "Corollary 1.7(2)",
        (),
        (("q-positive", "p-nonzero", "4-div-r", "r4-prime", "s-eq-r4"),),
        ConclusionKind.EQUIV,
    ),
    ClaimSpec(
        ClaimId.Remark_Scaled,
        "For r != 0 and s | r, the sequence with seeds (0, alpha) satisfies "
        "s^k * alpha*G_n | alpha*G_{s^k * n} for all k, n >= 0 (checked for a "
        "configured set of alpha).",
        "Remark 1.8",
        ("r-nonzero",),
        (("s-div-r",),),
        ConclusionKind.SCALED,
    ),
)

_BY_ID = {spec.claim: spec for spec in REGISTRY}
_BY_NAME = {spec.claim.value: spec for spec in REGISTRY}


def claim_spec(claim: ClaimId) -> ClaimSpec:
    return _BY_ID[claim]


def claim_by_name(name: str) -> ClaimSpec:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise InputError(f"unknown claim {name!r}; known: {sorted(_BY_NAME)}") from None


class HypothesisReport(NamedTuple):
    claim: ClaimId
    conditions: tuple[tuple[str, bool], ...]
    applicable: bool


def _evaluate_conditions(spec: ClaimSpec, p: int, q: int, s: int) -> dict[str, bool]:
    return {
        name: _CONDITIONS[name](p, q) if name in _S_FREE else _CONDITIONS[name](p, q, s)
        for name in spec.condition_names
    }


# Each claim's hypothesis G and (C1 or C2 or ...) as one list of cases
# (G and C1), (G and C2), ...: the global conditions G come first in each.
_CASES = {spec.claim: tuple(spec.global_conditions + case for case in spec.cases) for spec in REGISTRY}


def _applicable(spec: ClaimSpec, values: dict[str, bool]) -> bool:
    return any(all(values[name] for name in case) for case in _CASES[spec.claim])


def hypothesis_check(claim: ClaimId, params: SequenceParams, s: int) -> HypothesisReport:
    """Evaluate every atomic condition of the claim and its case structure.

    Unlike hypothesis_gate it skips none, so a primality condition at a strong
    probable prime >= psi_12 (is_prime) raises DomainError even where the other
    conditions decide the case.
    """
    spec = _BY_ID[claim]
    values = _evaluate_conditions(spec, params.p, params.q, s)
    return HypothesisReport(claim=claim, conditions=tuple(values.items()), applicable=_applicable(spec, values))


def hypothesis_gate(claim: ClaimId, params: SequenceParams, relaxed: str | None = None):
    """The claim's hypothesis on the cell (p, q): None if no s qualifies, else a predicate on s.

    Without relaxed, s qualifies where the hypothesis holds, as in
    hypothesis_check(...).applicable.  With a relaxed condition, s qualifies
    where that condition fails and the hypothesis fails, but holds once the
    condition is forced true: the points a relaxed search probes.  The gate
    decides the conditions of each case of _CASES (the folded cases, global
    conditions first) that do not read s here, once per case of the cell, and
    drops a case where one fails.  A case left answers yes where it names
    relaxed (every case does without relaxed); the others, and the relaxed
    condition where it reads s, answer no, since each makes the hypothesis
    hold, and come first.  The predicate answers with the first case whose
    conditions on s all hold (no if none does), evaluating them lazily, and
    never a condition that does not read s.
    """
    p, q = params.p, params.q
    if relaxed in _S_FREE and _CONDITIONS[relaxed](p, q):
        return None
    cases = [([_CONDITIONS[relaxed]], False)] if relaxed is not None and relaxed not in _S_FREE else []
    for case in _CASES[claim]:
        names = [name for name in case if name != relaxed]  # relaxed is forced true
        if all(_CONDITIONS[name](p, q) for name in names if name in _S_FREE):
            on_s = [_CONDITIONS[name] for name in names if name not in _S_FREE]
            cases.append((on_s, relaxed is None or relaxed in case))
    cases.sort(key=lambda case: case[1])  # stable: each group keeps its declared order
    if not cases or not cases[-1][1]:
        return None
    return lambda s: next((answer for on_s, answer in cases if all(condition(p, q, s) for condition in on_s)), False)


@functools.lru_cache(maxsize=1 << 15)
def _lifted_quotient(d: int, v: int, q_pow: int) -> int:
    """W mod d, where G_{d*n} = G_n * W, from V_n and (-q)^n mod d.

    Lucas (1878): G_n = U_n(p, -q) and U_{mn} = U_n * U_m(V_n, Q^n), where
    Q = -q and V_n = 2*G_{n+1} - p*G_n.  So W is G_d of the sequence
    <V_n, -(-q)^n>, and d*G_n | G_{d*n} iff W is 0 mod d.  Where G_n = 0 both
    sides are 0, and W is 0 mod d too: that sequence is then <2x, -x^2> with
    x = G_{n+1}, whose term at m is m*x^(m-1).  So W mod d is a function of
    (d, V_n mod d, (-q)^n mod d) alone, whatever (p, q) and n gave them, and
    Cassini, (-q)^n = G_{n+1}^2 - p*G_n*G_{n+1} - q*G_n^2, gives (-q)^n mod d
    from (G_n, G_{n+1}) mod d.  Being pure, it is cached for the process, on
    the 2^15 keys used last; cache_clear() frees them.
    """
    return _pair_mod(v, -q_pow, d, d)[0]


def _rank(params: SequenceParams, d: int, primes: list[tuple[int, int]] | None = None, check=None) -> int | None:
    """alpha(d), the least n >= 1 with d | G_n, or None where d divides no G_n; primes = factorize(d).

    None where a prime l | d divides q but not p (G_n = p^(n-1) mod l): then
    gcd(d, q) does not divide p^e, e its bit length.  That is read before d is
    factored (with check, where no primes are given; a part left unsplit
    raises DomainError).  Else split d = L*t, L the l^e || d with l | q, E
    their largest e.  Mod t the zeros of G are the multiples of alpha(t) (law
    of apparition: t | G_a makes G_{a+1} a unit, by Cassini, and G_{a+n} =
    G_{a+1}*G_n mod t), the lcm over l^e || t of alpha(l)*l^(e-1) is one (law
    of repetition; Lucas 1878, Carmichael 1913), alpha(l) dividing l if l | r,
    3 if l = 2, else l - (r/l) (factored with check), and each prime is
    divided out while it leaves a zero.  Each l | L divides p and q, so the
    term j of G_n = sum_j C(n-1-j, j)*p^(n-1-2j)*q^j has l-adic valuation
    n-1-j >= (n-1)/2 or more: every n > 2E is a zero mod L, and alpha(d) is
    the least multiple of alpha(t) that is one, one g_mod each up to 2E.
    """
    if pow(params.p, (shared := math.gcd(d, params.q)).bit_length(), shared):
        return None
    if primes is None:
        primes = factorize(d, check=check)
    zero, r, divisors, big_l, big_e = 1, params.r, set(), 1, 0
    for ell, e in primes:
        if params.q % ell == 0:
            big_l, big_e = big_l * ell**e, max(big_e, e)
            continue
        known = ell if r % ell == 0 else 3 if ell == 2 else ell - 1 if pow(r, ell // 2, ell) == 1 else ell + 1
        zero = math.lcm(zero, known * ell ** (e - 1))
        divisors.update([ell] if known == ell else [ell, *(f for f, _ in factorize(known, check=check))])
    for f in divisors:
        while zero % f == 0 and g_mod(params, zero // f, d // big_l) == 0:
            zero //= f
    below = (n for n in range(zero, 2 * big_e + 1, zero) if g_mod(params, n, big_l) == 0)
    return next(below, -(-(2 * big_e + 1) // zero) * zero)


def rank_of_apparition(params: SequenceParams, s: int, n_bound: int) -> int | None:
    """Smallest n in [1, n_bound] with s | G_n: alpha(s) (_rank), or None where it is past n_bound or there is none.

    Where factorize leaves a part past psi_12 unsplit, a modular scan of n = 1, ..., n_bound decides.
    """
    if s < 2:
        raise InputError(f"rank of apparition needs s >= 2, got {s}")
    try:
        rank = _rank(params, s)
    except DomainError:  # a part of s past psi_12 left unsplit
        ns = range(1, n_bound + 1)
        return next((n for n, (g, _) in zip(ns, g_pairs_mod(params, ns, s)) if g == 0), None)
    return None if rank is None or rank > n_bound else rank


# Indices walked between two calls of conclusion_failures' check: one residue
# seed per block, and no check at all where ns fits in one block.
# thm12_lift_condition checks as often.
_BLOCK = 1 << 12


def conclusion_failures(claim: ClaimId, params: SequenceParams, s: int, ks, ns, *, modular=False, check=None, factors=None):
    """Yield (k, n, (d, g, w)) wherever the claim's conclusion fails, in (k, n) order.

    This is the one place a conclusion is decided.  ks is an ascending
    iterable of exponents, read once and in order; ns is an ascending
    sequence of indices; s >= 1.  The hypothesis need not hold, so relaxed
    searches can probe failures.  Each kind has a divisibility half, an
    equivalence half, or both, each decided from (G_n, G_{n+1}) mod d, where
    d = s^k (s for the base equivalence), read from one residue stream per
    modulus (g_pairs_mod) in blocks of _BLOCK indices.  The evidence is d,
    g = G_n mod d and w = W mod d, the Lucas quotient (_lifted_quotient): w
    is nonzero exactly where the divisibility half failed (checked first),
    and 0 at an equivalence failure; witness() states it with exact values.
    Exact mode walks every (k, n).  Modular mode skips the divisibility half
    where s | r (Theorem 1.1(1), proved where it is dropped), and a modulus
    d = s^j left with only an equivalence half where alpha(d) = d (_rank):
    gcd(q, s) = 1, each prime of s divides r, and factors = factorize(s), here
    computed only where the caller passes None, not raising DomainError.  A
    certified point opens no stream, yet ks is still drawn, each k in turn.
    check, where given, is the caller's budget: check() runs while s is
    factored, check(k) before each k and between two blocks of its modulus.
    """
    if s < 1:
        raise InputError(f"s must be >= 1, got {s}")
    kind = _BY_ID[claim].conclusion
    divisibility = kind in (ConclusionKind.MULT_DIV, ConclusionKind.CLASSICAL, ConclusionKind.SCALED)
    equivalence = kind in (ConclusionKind.EQUIV, ConclusionKind.BASE_EQUIV, ConclusionKind.CLASSICAL)
    p, q = params.p, params.q
    if modular and divisibility and params.r % s == 0:
        # L(s): s | G_s(a, b) wherever s | a^2 + 4b.  It holds for every s by
        # induction on the primes of s.  Repeated root: G_n(2c, -c^2) =
        # n*c^(n-1), so a prime l | a^2 + 4b divides G_l(a, b) (c = a/2 mod l
        # for odd l; a is even and G_2 = a for l = 2).  Lucas product
        # (_lifted_quotient): G_{l*m} = G_m * W, W being G_l of
        # <V_m, -(-b)^m>, of discriminant (a^2 + 4b)*G_m^2, so l | W, m | G_m.
        # Applied k times, L(s) on the sequences <V_{s^j*n}, -(-q)^(s^j*n)>,
        # of discriminant r*G_{s^j*n}^2, gives s^k*G_n | G_{s^k*n}.
        divisibility = False
    # Certify where each prime l of s divides r (s | r^e, e its bit length): alpha(l) | l, so _rank factors no l - (r/l).
    if not (modular and equivalence and not divisibility) or math.gcd(q, s) > 1 or pow(params.r, s.bit_length(), s):
        factors = None
    elif factors is None:
        with contextlib.suppress(DomainError):  # a part of s past psi_12 left unsplit
            factors = factorize(s, check=check)

    def failures(d: int, j: int, k: int):
        if not (divisibility or equivalence) or factors and _rank(params, d, [(ell, e * j) for ell, e in factors]) == d:
            return
        # Blocks are sliced from ns: len() fails on a range past sys.maxsize.
        blocks = itertools.takewhile(len, (ns[i : i + _BLOCK] for i in itertools.count(0, _BLOCK)))
        for i, block in enumerate(blocks):
            if i and check is not None:
                check(k)
            for n, (g, g_next) in zip(block, g_pairs_mod(params, block, d)):
                if divisibility:
                    # W mod d on (d, V_n, (-q)^n by Cassini), all mod d
                    w = _lifted_quotient(d, (2 * g_next - p * g) % d, (g_next * (g_next - p * g) - q * g * g) % d)
                    if w:
                        yield n, (d, g, w)
                        continue
                if equivalence and (n % d == 0) != (g == 0):
                    yield n, (d, g, 0)

    # The modulus never decreases along ks, so the k sharing one are
    # adjacent: each distinct d is evaluated once and replayed.
    last_d, last = 1, []  # d = 1 never fails
    for k in ks:
        if check is not None:
            check(k)
        # The base equivalence asserts only the exponent-1 instance.
        j = min(k, 1) if kind is ConclusionKind.BASE_EQUIV else k
        if (d := s**j) == last_d:
            for n, evidence in last:
                yield k, n, evidence
            continue
        last_d, last = d, []
        for n, evidence in failures(d, j, k):
            last.append((n, evidence))
            yield k, n, evidence


def witness(claim: ClaimId, params: SequenceParams, n: int, d: int, g: int, w: int) -> dict:
    """A failure of conclusion_failures at index n, from its evidence (d, g, w), with exact values.

    A divisibility failure (w != 0) gives {divisor, index, g_n, remainder}:
    a*G_{d*n} = a*G_n*W with W = w (mod d), so modulo the divisor a*d*G_n its
    remainder is a*G_n*w, where a is the first scale of the scaled kind
    (a*d*G_n | a*G_{d*n} does not depend on a != 0) and 1 otherwise.  An
    equivalence failure gives {s_pow, s_pow_divides_n, s_pow_divides_g,
    g_residue}.  A search states its failures with _search_witness.
    """
    if w:
        scale = DEFAULT_SCALE_FACTORS[0] if _BY_ID[claim].conclusion is ConclusionKind.SCALED else 1
        g_n = g_exact(params, n)
        divisor = scale * d * g_n
        return {"divisor": divisor, "index": d * n, "g_n": g_n, "remainder": scale * g_n * w % abs(divisor)}
    return {"s_pow": d, "s_pow_divides_n": n % d == 0, "s_pow_divides_g": g == 0, "g_residue": g}


def _search_witness(params: SequenceParams, n: int, d: int, g: int, w: int) -> dict:
    """A search's failure at index n from the walk's evidence (d, g, w), with exact values.

    w != 0 is a divisibility failure, {divisor, index, g_n, dividend_g}, with d = s^k (only the base
    equivalence clamps d, and it has no divisibility half); else the equivalence failed at d, {s_pow,
    s_pow_divides_n, s_pow_divides_g, g_n}.
    """
    g_n = g_exact(params, n)
    if w:
        return {"divisor": d * g_n, "index": d * n, "g_n": g_n, "dividend_g": g_exact(params, d * n)}
    return {"s_pow": d, "s_pow_divides_n": n % d == 0, "s_pow_divides_g": g == 0, "g_n": g_n}


def conclusion_holds(
    claim: ClaimId, params: SequenceParams, s: int, k: int, n: int, *, modular: bool = False
) -> bool:
    """Evaluate the claim's conclusion at the one point (p, q, s, k, n); s >= 1."""
    if k < 0 or n < 0:
        raise InputError("k and n must be nonnegative")
    return next(conclusion_failures(claim, params, s, (k,), (n,), modular=modular), None) is None


class LiftCheck(NamedTuple):
    """Bounded check that s | t fails implies s^2 does not divide G_{s*t}."""

    holds: bool
    t_max: int
    first_failing_t: int | None = None


def thm12_lift_condition(params: SequenceParams, s: int, t_max: int, *, check=None) -> LiftCheck:
    """Check the lift hypothesis for all t <= t_max with s not dividing t.

    The hypothesis quantifies over all t in N; this is verified only up to
    t_max and reported as such.  By the Lucas product (_lifted_quotient),
    G_{s*t} = G_s * H_t with H = <V_s, -(-q)^s>, so one residue stream of H
    mod s^2 (g_pairs_mod) walks every t, seeded by G_s and G_{s+1} mod s^2.
    check(), where given, runs before every _BLOCK-th t (the caller's budget).
    """
    if s < 2:
        raise InputError(f"lift condition needs s >= 2, got {s}")
    s2 = s * s
    g_s, g_next = _pair_mod(params.p, params.q, s, s2)
    lifted = SequenceParams(2 * g_next - params.p * g_s, -pow(-params.q, s, s2))
    for t, (h, _) in enumerate(g_pairs_mod(lifted, range(1, t_max + 1), s2), 1):
        if t % _BLOCK == 0 and check is not None:
            check()
        if t % s and g_s * h % s2 == 0:
            return LiftCheck(holds=False, t_max=t_max, first_failing_t=t)
    return LiftCheck(holds=True, t_max=t_max)


def catalog() -> list[dict]:
    """Claim catalog for documentation and the CLI (JSON-serializable)."""
    return [
        {
            "id": spec.claim.name,
            "name": spec.claim.value,
            "statement": spec.statement,
            "citation": spec.citation,
            "global_conditions": list(spec.global_conditions),
            "cases": [list(case) for case in spec.cases],
            "conclusion": spec.conclusion.value,
        }
        for spec in REGISTRY
    ]
