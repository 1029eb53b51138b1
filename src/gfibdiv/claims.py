"""The divisibility theorems encoded as machine-checkable claims.

Each claim is a pair (hypothesis, conclusion) over the parameters (p, q) and
a positive integer s.  Hypotheses are conjunctions of named atomic conditions
arranged in "or"-separated cases, mirroring the case structure of the source
statements; conclusions are predicates over an additional exponent k and
index n.  Conclusions are evaluable even when the hypothesis fails, which is
what makes relaxed-hypothesis counterexample search possible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

from .errors import InputError
from .numtheory import divides, is_prime, prime_factors
# g_exact and g_is_zero are not called here; they stay importable because
# perfbench/tracer.py wraps claims.g_exact and claims.g_is_zero.
from .sequences import SequenceParams, g_exact, g_is_zero, g_mod, g_pairs_mod, g_range

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


def _safe_coprime(a: int, b: int) -> bool:
    if a == 0 and b == 0:
        return False
    return math.gcd(a, b) == 1


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
    "gcd-pq": lambda p, q: _safe_coprime(p, q),
    "gcd-p2-q": lambda p, q: p % 2 == 0 and _safe_coprime(p // 2, q),
    "s-div-r": lambda p, q, s: divides(s, p * p + 4 * q),
    "s-div-r4": lambda p, q, s: (p * p + 4 * q) % 4 == 0 and divides(s, (p * p + 4 * q) // 4),
    "s2-div-r": lambda p, q, s: divides(s * s, p * p + 4 * q),
    "s2-div-r4": lambda p, q, s: (p * p + 4 * q) % 4 == 0 and divides(s * s, (p * p + 4 * q) // 4),
    "4-div-r": lambda p, q: (p * p + 4 * q) % 4 == 0,
    "s-prime": lambda p, q, s: s >= 0 and is_prime(s),
    "s-ge-3": lambda p, q, s: s >= 3,
    "r-prime": lambda p, q: p * p + 4 * q >= 2 and is_prime(p * p + 4 * q),
    "r4-prime": lambda p, q: (p * p + 4 * q) % 4 == 0
    and (p * p + 4 * q) // 4 >= 2
    and is_prime((p * p + 4 * q) // 4),
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


@dataclass(frozen=True)
class ClaimSpec:
    claim: ClaimId
    statement: str
    citation: str
    global_conditions: tuple[str, ...]
    cases: tuple[tuple[str, ...], ...]
    conclusion: ConclusionKind

    @functools.cached_property
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


@dataclass(frozen=True)
class HypothesisReport:
    claim: ClaimId
    conditions: tuple[tuple[str, bool], ...]
    applicable: bool


def _evaluate_conditions(spec: ClaimSpec, p: int, q: int, s: int) -> dict[str, bool]:
    return {
        name: _CONDITIONS[name](p, q) if name in _S_FREE else _CONDITIONS[name](p, q, s)
        for name in spec.condition_names
    }


def _applicable(spec: ClaimSpec, values: dict[str, bool]) -> bool:
    if not all(values[name] for name in spec.global_conditions):
        return False
    return any(all(values[name] for name in case) for case in spec.cases)


def hypothesis_check(claim: ClaimId, params: SequenceParams, s: int) -> HypothesisReport:
    """Evaluate every atomic condition of the claim and its case structure."""
    spec = _BY_ID[claim]
    values = _evaluate_conditions(spec, params.p, params.q, s)
    return HypothesisReport(
        claim=claim,
        conditions=tuple(values.items()),
        applicable=_applicable(spec, values),
    )


def hypothesis_gate(claim: ClaimId, params: SequenceParams, relaxed: str | None = None):
    """The claim's hypothesis on the cell (p, q): None if no s qualifies, else a predicate on s.

    Without relaxed, s qualifies where the hypothesis holds, as in
    hypothesis_check(...).applicable.  With a relaxed condition, s qualifies
    where that condition fails and the hypothesis fails, but holds once the
    condition is forced true: the points a relaxed search probes.  Conditions
    that do not read s are decided here, once per cell; the predicate
    evaluates only the rest, lazily, each case in declared order.
    """
    spec = _BY_ID[claim]
    p, q = params.p, params.q

    def rest(names):
        """The conditions among names that read s, or None if one that does not fails."""
        out = []
        for name in names:
            if name == relaxed:
                continue  # forced true; its failure is checked on its own
            if name not in _S_FREE:
                out.append(_CONDITIONS[name])
            elif not _CONDITIONS[name](p, q):
                return None
        return out

    if relaxed in _S_FREE and _CONDITIONS[relaxed](p, q):
        return None
    common = rest(spec.global_conditions)
    if common is None:
        return None
    # A relaxed case (one the relaxed condition belongs to, or every case when
    # it is global) must hold; any other case holding makes the hypothesis hold.
    every_case = relaxed is None or relaxed in spec.global_conditions
    relaxed_cases, other_cases = [], []
    for case in spec.cases:
        residue = rest(case)
        if residue is not None:
            (relaxed_cases if every_case or relaxed in case else other_cases).append(residue)
    if not relaxed_cases:
        return None
    must_fail = _CONDITIONS[relaxed] if relaxed is not None and relaxed not in _S_FREE else None

    def holds(conditions, s: int) -> bool:
        return all(condition(p, q, s) for condition in conditions)

    def qualifies(s: int) -> bool:
        return (
            not (must_fail is not None and must_fail(p, q, s))
            and holds(common, s)
            and not any(holds(case, s) for case in other_cases)
            and any(holds(case, s) for case in relaxed_cases)
        )

    return qualifies


def applicable_claims(params: SequenceParams, s: int) -> list[ClaimId]:
    """All claims whose hypothesis holds at (p, q, s), in registry order."""
    return [spec.claim for spec in REGISTRY if hypothesis_check(spec.claim, params, s).applicable]


def _equiv_witness(d: int, n: int, residue: int) -> dict:
    return {"s_pow": d, "s_pow_divides_n": n % d == 0, "s_pow_divides_g": residue == 0, "g_residue": residue}


def _lifted_quotient(params: SequenceParams, sk: int, n: int, g_n: int, g_next: int) -> int:
    """W mod s^k, where G_{s^k*n} = G_n * W, from G_n and G_{n+1} known mod s^k.

    Lucas (1878): G_n = U_n(p, -q) and U_{mn} = U_n * U_m(V_n, Q^n), where
    Q = -q and V_n = 2*G_{n+1} - p*G_n.  So W is G_{s^k} of the sequence
    <V_n, -(-q)^n>, and s^k*G_n | G_{s^k*n} iff W is 0 mod s^k.  Where
    G_n = 0 both sides are 0, and W is 0 mod s^k too: that sequence is then
    <2x, -x^2> with x = G_{n+1}, whose term at m is m*x^(m-1).
    """
    lifted = SequenceParams((2 * g_next - params.p * g_n) % sk, -pow(-params.q, n, sk))
    return g_mod(lifted, sk, sk)


def _rank_is_modulus(params: SequenceParams, d: int, primes: list[int]) -> bool:
    """Whether the rank of apparition of d is d itself, so d | n <=> d | G_n for all n.

    Requires gcd(q, d) = 1; primes are the primes dividing d.  If d | G_d,
    let a be the least a >= 1 with d | G_a.  Cassini gives G_{a+1}^2 = (-q)^a
    (mod d), so G_{a+1} is a unit, and G_{a+n} = G_{a+1}*G_n + q*G_a*G_{n-1}
    = G_{a+1}*G_n (mod d): the zeros of G mod d are exactly the multiples of a
    (Lucas 1878; Carmichael 1913).  So a | d, and G_{d/l} != 0 (mod d) for
    each prime l | d rules out every proper divisor of d: a = d.
    """
    return g_mod(params, d, d) == 0 and all(g_mod(params, d // ell, d) for ell in primes)


def conclusion_failures(
    claim: ClaimId, params: SequenceParams, s: int, ks, ns, *, modular: bool = False, table=None
):
    """Yield (k, n, witness) wherever the claim's conclusion fails, in (k, n) order.

    This is the one place a conclusion is decided.  ks and ns are ascending
    sequences of exponents and indices, and s >= 1.  The hypothesis need not
    hold, so relaxed searches can probe failures.  Every kind is decided from
    (G_n, G_{n+1}) mod d, where d = s^k (s for the base equivalence): from one
    residue stream per modulus in modular mode, from the exact table in exact
    mode (the cross-check).  An equivalence failure has the witness {s_pow,
    s_pow_divides_n, s_pow_divides_g, g_residue}; a divisibility failure has
    {divisor, index, g_n, remainder}, and at a CLASSICAL point it is checked
    first.  Modular mode builds the exact table only to state G_n in a
    divisibility witness, and skips the stream of an equivalence modulus whose
    rank of apparition it certifies (_rank_is_modulus) where gcd(q, s) = 1 and
    s factors within len(ns) trial divisions; exact mode never does.  table,
    if given, returns [G_0, ..., G_N] with N > max(ns), so a caller can share
    one exact table between the s of a cell; by default one is built here,
    at most once and only when needed.
    """
    if s < 1:
        raise InputError(f"s must be >= 1, got {s}")
    kind = _BY_ID[claim].conclusion
    equivalence = kind in (ConclusionKind.EQUIV, ConclusionKind.BASE_EQUIV)
    # a*s^k*G_n | a*G_{s^k*n} does not depend on the scale a != 0, so the
    # SCALED kind is decided once; its witness names the first scale.
    scale = DEFAULT_SCALE_FACTORS[0] if kind is ConclusionKind.SCALED else 1
    if table is None:
        table = functools.cache(lambda: g_range(params, max(ns, default=0) + 1))
    primes = None  # the primes of s, where a modulus may be certified
    if modular and equivalence and math.gcd(params.q, s) == 1:
        primes = prime_factors(s, max_trials=len(ns))

    def failures(d: int):
        if primes is not None and _rank_is_modulus(params, d, primes):
            return
        if modular:
            pairs = zip(ns, g_pairs_mod(params, ns, d))
        else:
            gs = table()
            pairs = ((n, (gs[n] % d, gs[n + 1])) for n in ns)  # G_{n+1} is reduced where used
        if equivalence:
            for n, (g, _) in pairs:
                if (n % d == 0) != (g == 0):
                    yield n, _equiv_witness(d, n, g)
            return
        for n, (g, g_next) in pairs:
            w = _lifted_quotient(params, d, n, g, g_next)
            if w:
                # a*G_{d*n} = a*G_n*W with W = w (mod d), so modulo the
                # divisor a*d*G_n its remainder is a*G_n*w.
                g_n = table()[n]
                divisor = scale * d * g_n
                remainder = scale * g_n * w % abs(divisor)
                yield n, {"divisor": divisor, "index": d * n, "g_n": g_n, "remainder": remainder}
            elif kind is ConclusionKind.CLASSICAL and (n % d == 0) != (g == 0):
                yield n, _equiv_witness(d, n, g)

    # The modulus never decreases along ks, so the k sharing one are
    # adjacent: each distinct d is evaluated once and replayed.
    last_d, last = 1, []  # d = 1 never fails
    for k in ks:
        # The base equivalence asserts only the exponent-1 instance.
        d = s ** min(k, 1) if kind is ConclusionKind.BASE_EQUIV else s**k
        if d == last_d:
            for n, witness in last:
                yield k, n, dict(witness)
            continue
        last_d, last = d, []
        for n, witness in failures(d):
            last.append((n, witness))
            yield k, n, witness


def conclusion_holds(
    claim: ClaimId, params: SequenceParams, s: int, k: int, n: int, *, modular: bool = False
) -> bool:
    """Evaluate the claim's conclusion at the one point (p, q, s, k, n); s >= 1."""
    if k < 0 or n < 0:
        raise InputError("k and n must be nonnegative")
    return next(conclusion_failures(claim, params, s, (k,), (n,), modular=modular), None) is None


@dataclass(frozen=True)
class LiftCheck:
    """Bounded check that s | t fails implies s^2 does not divide G_{s*t}."""

    holds: bool
    t_max: int
    first_failing_t: int | None = None


def thm12_lift_condition(params: SequenceParams, s: int, t_max: int) -> LiftCheck:
    """Check the lift hypothesis for all t <= t_max with s not dividing t.

    The hypothesis quantifies over all t in N; this is verified only up to
    t_max and reported as such.
    """
    if s < 2:
        raise InputError(f"lift condition needs s >= 2, got {s}")
    s2 = s * s
    for t in range(1, t_max + 1):
        if t % s == 0:
            continue
        if g_mod(params, s * t, s2) == 0:
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
