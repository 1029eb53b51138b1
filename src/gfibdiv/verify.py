"""Grid sweeps, identity checks, golden examples, counterexample search,
rank of apparition, and the exploratory converse survey.

Sweeps are embarrassingly parallel over (p, q) cells; results are merged in
canonical cell order so reports are byte-identical regardless of worker
count.  Every conclusion is decided by claims.conclusion_failures.
"""

from __future__ import annotations

import functools
import time
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum

# conclusion_holds, hypothesis_check, _applicable, g_mod and g_is_zero are
# not called here; they stay importable because perfbench/tracer.py wraps
# them under these names.
from .claims import (
    ClaimId,
    claim_spec,
    conclusion_failures,
    conclusion_holds,
    hypothesis_check,
    hypothesis_gate,
    thm12_lift_condition,
    _applicable,
    _evaluate_conditions,
)
from .errors import InputError, ResourceLimitError
from .numtheory import binomial, divides, positive_divisors
from .sequences import SequenceParams, ab_exact, g_exact, g_is_zero, g_mod, g_pairs_mod, g_range


class Mode(Enum):
    EXACT = "exact"
    MODULAR = "modular"


class Verdict(Enum):
    ALL_PASS = "all-pass"
    VIOLATIONS = "violations"
    NEVER_APPLICABLE = "hypothesis-never-applicable"


@dataclass(frozen=True)
class SweepConfig:
    p_range: tuple[int, int]
    q_range: tuple[int, int]
    # "divisors-of-r", "divisors-of-r4", or an explicit tuple of s values
    s_source: str | tuple[int, ...] = "divisors-of-r"
    k_max: int = 3
    n_max: int = 40
    t_max: int = 50
    mode: Mode = Mode.EXACT
    worker_count: int = 1
    time_budget_s: float | None = None

    def __post_init__(self) -> None:
        for name in ("p_range", "q_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise InputError(f"{name} must not be empty, got [{lo}, {hi}]")
        if not isinstance(self.s_source, str) and min(self.s_source, default=1) < 1:
            raise InputError(f"s_source values must be >= 1, got {min(self.s_source)}")
        for name, least in (("k_max", 0), ("n_max", 0), ("t_max", 1), ("worker_count", 1), ("time_budget_s", 0)):
            value = getattr(self, name)
            if value is not None and not value >= least:  # NaN fails too
                raise InputError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class Counterexample:
    claim: ClaimId
    p: int
    q: int
    s: int
    k: int
    n: int
    witness: dict
    relaxed_condition: str | None = None


@dataclass(frozen=True)
class VerificationReport:
    claim: ClaimId
    config: SweepConfig
    points_checked: int
    violations: tuple[Counterexample, ...]
    elapsed_s: float
    verdict: Verdict


def _cells(config: SweepConfig, *, scan: bool = False) -> list[tuple[int, int]]:
    """The grid's (p, q) cells, p-major.

    Canonical order is ascending.  Scan order sorts p and q by absolute value,
    positive before negative, so a search meets the smallest examples first.
    """

    def values(lo: int, hi: int):
        span = range(lo, hi + 1)
        return sorted(span, key=lambda v: (abs(v), v < 0)) if scan else span

    return [(p, q) for p in values(*config.p_range) for q in values(*config.q_range)]


def _resolve_s(config: SweepConfig, params: SequenceParams) -> list[int]:
    source = config.s_source
    if isinstance(source, str):
        r = params.r
        if source == "divisors-of-r":
            return positive_divisors(r) if r != 0 else []
        if source == "divisors-of-r4":
            return positive_divisors(r // 4) if r != 0 and r % 4 == 0 else []
        raise InputError(f"unknown s_source {source!r}")
    return sorted(set(source))


def _sweep_cell(args) -> tuple[int, list[Counterexample]]:
    claim, config, p, q = args
    params = SequenceParams(p, q)
    s_values = _resolve_s(config, params)
    qualifies = hypothesis_gate(claim, params) if s_values else None  # no s, no condition evaluated
    if qualifies is None:
        return 0, []
    table = functools.cache(lambda: g_range(params, config.n_max + 1))  # shared by the cell's s
    points = 0
    violations: list[Counterexample] = []
    for s in s_values:
        if not qualifies(s):
            continue
        if (
            claim is ClaimId.Thm1_2_LiftedEquiv
            and s >= 2
            and not thm12_lift_condition(params, s, config.t_max).holds
        ):
            continue
        points += (config.k_max + 1) * (config.n_max + 1)
        failures = conclusion_failures(
            claim, params, s, range(config.k_max + 1), range(config.n_max + 1),
            modular=config.mode is Mode.MODULAR, table=table,
        )
        violations.extend(Counterexample(claim, p, q, s, k, n, witness) for k, n, witness in failures)
    return points, violations


def _check_budget(config: SweepConfig, start: float, what: str, where, pool=None) -> None:
    """Raise ResourceLimitError once more than time_budget_s has passed since start.

    where() says how far the run got; a process pool is cancelled first.
    """
    if config.time_budget_s is None:
        return
    elapsed = time.monotonic() - start
    if elapsed > config.time_budget_s:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        raise ResourceLimitError(
            f"{what} stopped after {elapsed:.1f}s {where()}, over the {config.time_budget_s:.1f}s budget"
        )


def _grid(config: SweepConfig, what: str, *, scan: bool = False):
    """Yield (params, s) for each cell in _cells order and each of its s values.

    The clock starts at the first request.  Past config.time_budget_s, checked
    each time the caller asks for the next s, it raises ResourceLimitError
    naming the (p, q, s) it yielded last.
    """
    start = time.monotonic()
    for p, q in _cells(config, scan=scan):
        params = SequenceParams(p, q)
        for s in _resolve_s(config, params):
            yield params, s
            _check_budget(config, start, what, lambda: f"at (p, q, s) = ({p}, {q}, {s})")


def verify_claim(claim: ClaimId, config: SweepConfig) -> VerificationReport:
    """Sweep the grid; evaluate the conclusion wherever the hypothesis holds."""
    start = time.monotonic()
    cells = [(claim, config, p, q) for p, q in _cells(config)]
    points = 0
    violations: list[Counterexample] = []
    parallel = config.worker_count > 1 and len(cells) > 1
    if parallel:
        # Imported only here, so a serial run does not load the pool's modules.
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=config.worker_count) if parallel else nullcontext() as pool:
        if pool is None:
            results = map(_sweep_cell, cells)
        else:
            results = pool.map(_sweep_cell, cells, chunksize=max(1, len(cells) // (4 * config.worker_count)))
        # The budget is checked after each cell, so a sweep stops soon after it passes.
        for done, (cell_points, cell_violations) in enumerate(results, 1):
            points += cell_points
            violations.extend(cell_violations)
            _check_budget(config, start, "sweep", lambda: f"and {done} of {len(cells)} cells", pool)
    elapsed = time.monotonic() - start
    if points == 0:
        verdict = Verdict.NEVER_APPLICABLE
    elif violations:
        verdict = Verdict.VIOLATIONS
    else:
        verdict = Verdict.ALL_PASS
    return VerificationReport(
        claim=claim,
        config=config,
        points_checked=points,
        violations=tuple(violations),
        elapsed_s=elapsed,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


def _ring_mul(x: tuple[int, int], y: tuple[int, int], r: int) -> tuple[int, int]:
    """(a + b*w)(c + d*w) with w^2 = r."""
    a, b = x
    c, d = y
    return a * c + b * d * r, a * d + b * c


def _ring_pow(base: tuple[int, int], e: int, r: int) -> tuple[int, int]:
    out = (1, 0)
    while e:
        if e & 1:
            out = _ring_mul(out, base, r)
        base = _ring_mul(base, base, r)
        e >>= 1
    return out


def _b_expansion(params: SequenceParams, a: int, b: int, s: int) -> int:
    """sum over odd t <= s of C(s,t) * a^(s-t) * b^t * r^((t-1)/2)."""
    r = params.r
    total = 0
    for t in range(1, s + 1, 2):
        total += binomial(s, t) * a ** (s - t) * b**t * r ** ((t - 1) // 2)
    return total


def _half_expansion(params: SequenceParams, n: int, parity: int) -> int:
    """sum over t = parity mod 2, t <= n, of C(n,t) * (p/2)^(n-t) * (r/4)^(t//2 or (t-1)//2)."""
    ph = params.p // 2
    rh = params.r // 4
    total = 0
    for t in range(parity, n + 1, 2):
        exp = t // 2 if parity == 0 else (t - 1) // 2
        total += binomial(n, t) * ph ** (n - t) * rh**exp
    return total


@dataclass
class IdentityResult:
    name: str
    passed: bool
    checked: int
    first_failure: dict | None = None


def identity_suite(
    params: SequenceParams, n_max: int, s_list: list[int]
) -> list[IdentityResult]:
    """Exact checks of the companion-pair identities up to n_max.

    Identities: the quadratic-ring closed form (p + w)^n = A_n + B_n*w with
    w^2 = r; the bridge B_n = 2^(n-1) G_n; the power step (A_n + B_n*w)^s =
    A_{sn} + B_{sn}*w; the odd-term binomial expansions of B_{sn} and B_n;
    A_n^2 = 4^(n-1) r G_n^2 + (-4q)^n; and, for even p, the expansions of
    G_n and A_n/2^n in p/2 and r/4 (the latter exactly integral).
    """
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    r = params.r
    p_even = params.p % 2 == 0
    names = [
        "closed-form-pair",
        "b-to-g-bridge",
        "power-step",
        "bsn-expansion",
        "bn-expansion",
        "quadratic",
    ]
    if p_even:
        names += ["g-half-expansion", "a-half-integer"]
    results = {name: IdentityResult(name, True, 0) for name in names}

    def check(name: str, ok: bool, context: dict) -> None:
        res = results[name]
        res.checked += 1
        if not ok and res.first_failure is None:
            res.passed = False
            res.first_failure = context

    gs = g_range(params, n_max * max(s_list + [1]))
    abs_ = [ab_exact(params, n) for n in range(n_max + 1)]
    ab_big = {}

    def ab_at(n: int):
        if n <= n_max:
            return abs_[n]
        if n not in ab_big:
            ab_big[n] = ab_exact(params, n)
        return ab_big[n]

    for n in range(1, n_max + 1):
        a_n, b_n = abs_[n].a, abs_[n].b
        pw = _ring_pow((params.p, 1), n, r)
        check("closed-form-pair", pw == (a_n, b_n), {"n": n, "got": pw, "want": (a_n, b_n)})
        check(
            "b-to-g-bridge",
            b_n == 2 ** (n - 1) * gs[n],
            {"n": n, "b_n": b_n, "g_n": gs[n]},
        )
        expansion = _b_expansion(params, params.p, 1, n)
        check("bn-expansion", expansion == b_n, {"n": n, "got": expansion, "want": b_n})
        quad = a_n * a_n == 4 ** (n - 1) * r * gs[n] ** 2 + (-4 * params.q) ** n
        check("quadratic", quad, {"n": n, "a_n": a_n, "g_n": gs[n]})
        for s in s_list:
            target = ab_at(s * n)
            pw_s = _ring_pow((a_n, b_n), s, r)
            check(
                "power-step",
                pw_s == (target.a, target.b),
                {"n": n, "s": s, "got": pw_s, "want": (target.a, target.b)},
            )
            bsn = _b_expansion(params, a_n, b_n, s)
            check("bsn-expansion", bsn == target.b, {"n": n, "s": s, "got": bsn, "want": target.b})
        if p_even:
            g_half = _half_expansion(params, n, parity=1)
            check("g-half-expansion", g_half == gs[n], {"n": n, "got": g_half, "want": gs[n]})
            ok = a_n % 2**n == 0 and a_n // 2**n == _half_expansion(params, n, parity=0)
            check("a-half-integer", ok, {"n": n, "a_n": a_n})
    return list(results.values())


# ---------------------------------------------------------------------------
# Golden examples
# ---------------------------------------------------------------------------

# (example id, p, q, list of (index, G value), list of (divisor, dividend, divides?))
_GOLDEN = (
    ("2.1", 1, 1, [(3, 2)], [(3, "G", 3, False)]),
    ("2.2", 3, 9, [(2, 3)], [(3, "G", 2, True), (3, "n", 2, False)]),
    (
        "2.3",
        4,
        1,
        [(10, 416020), (2, 4)],
        [(20, "G", 10, True), (20, "n", 10, False), (4, "G", 2, True), (4, "n", 2, False)],
    ),
    (
        "2.4",
        4,
        4,
        [(2, 4), (3, 20)],
        [(4, "G", 2, True), (4, "n", 2, False), (2, "G", 3, True), (2, "n", 3, False)],
    ),
    ("2.5", 5, 2, [(3, 27)], [(9, "G", 3, True), (9, "n", 3, False)]),
    ("2.6", 2, 5, [(3, 9)], [(9, "G", 3, True), (9, "n", 3, False)]),
    (
        "2.7",
        2,
        2,
        [(6, 120), (3, 6)],
        [(12, "G", 6, True), (12, "n", 6, False), (2, "G", 3, True), (2, "n", 3, False)],
    ),
    ("2.8", 4, 2, [(3, 18)], [(6, "G", 3, True), (6, "n", 3, False)]),
    ("2.9", 1, 8, [(3, 9)], [(9, "G", 3, True), (9, "n", 3, False)]),
    ("2.10", 0, 2, [(3, 2)], [(2, "G", 3, True), (2, "n", 3, False)]),
    ("2.11", 5, -5, [(2, 5)], [(5, "G", 2, True), (5, "n", 2, False)]),
    ("2.12", 4, -2, [(3, 14)], [(2, "G", 3, True), (2, "n", 3, False)]),
)


@dataclass
class ExampleResult:
    example: str
    p: int
    q: int
    expected: dict
    observed: dict
    passed: bool


def reproduce_examples() -> list[ExampleResult]:
    """Recompute each quoted sequence value and divisibility fact."""
    out = []
    for ex_id, p, q, values, facts in _GOLDEN:
        params = SequenceParams(p, q)
        expected: dict = {}
        observed: dict = {}
        ok = True
        for n, want in values:
            got = g_exact(params, n)
            expected[f"G_{n}"] = want
            observed[f"G_{n}"] = got
            ok = ok and got == want
        for d, target, n, want in facts:
            if target == "G":
                got = divides(d, g_exact(params, n))
                key = f"{d}|G_{n}"
            else:
                got = divides(d, n)
                key = f"{d}|{n}"
            expected[key] = want
            observed[key] = got
            ok = ok and got == want
        out.append(ExampleResult(ex_id, p, q, expected, observed, ok))
    return out


# ---------------------------------------------------------------------------
# Counterexample search
# ---------------------------------------------------------------------------


def iter_counterexamples(claim: ClaimId, relaxed_condition: str, bounds: SweepConfig):
    """Yield counterexamples in scan order: |p|, |q|, s, n, k; positive first.

    A point qualifies when every hypothesis condition of some case holds
    except the relaxed one (which must fail), the full hypothesis is not
    applicable, and the conclusion is false.  The hypothesis is decided per
    cell first (hypothesis_gate), then per s.  Past bounds.time_budget_s,
    checked after each s before its counterexamples are yielded, it raises
    ResourceLimitError.
    """
    spec = claim_spec(claim)
    if relaxed_condition not in spec.condition_names:
        raise InputError(
            f"{relaxed_condition!r} is not a condition of {claim.value}; "
            f"conditions: {list(spec.condition_names)}"
        )

    @functools.lru_cache(maxsize=1)  # _grid walks one cell at a time
    def cell(params: SequenceParams):
        table = functools.cache(lambda: g_range(params, bounds.n_max + 1))  # also the evaluator's
        return hypothesis_gate(claim, params, relaxed_condition), table

    found: list[Counterexample] = []
    # _grid checks the budget when asked for the next s, so each s's
    # counterexamples are held until then.
    for params, s in _grid(bounds, "search", scan=True):
        yield from found
        found = []
        qualifies, table = cell(params)
        if qualifies is not None and qualifies(s):
            failures = conclusion_failures(
                claim, params, s, range(bounds.k_max + 1), range(bounds.n_max + 1),
                modular=bounds.mode is Mode.MODULAR, table=table,
            )
            found = [
                Counterexample(
                    claim=claim,
                    p=params.p,
                    q=params.q,
                    s=s,
                    k=k,
                    n=n,
                    witness=_search_witness(params, table()[n], s**k, n, witness),
                    relaxed_condition=relaxed_condition,
                )
                for k, n, witness in sorted(failures, key=lambda f: (f[1], f[0]))
            ]
    yield from found


def _search_witness(params: SequenceParams, g_n: int, sk: int, n: int, witness: dict) -> dict:
    """Restate a failure with exact values, naming the half that failed."""
    if "divisor" in witness:
        return {"divisor": sk * g_n, "index": sk * n, "g_n": g_n, "dividend_g": g_exact(params, sk * n)}
    return {
        "s_pow": witness["s_pow"],
        "s_pow_divides_n": witness["s_pow_divides_n"],
        "s_pow_divides_g": witness["s_pow_divides_g"],
        "g_n": g_n,
    }


def search_counterexample(
    claim: ClaimId, relaxed_condition: str, bounds: SweepConfig
) -> Counterexample | None:
    """First counterexample in scan order, or None."""
    return next(iter_counterexamples(claim, relaxed_condition, bounds), None)


# ---------------------------------------------------------------------------
# Rank of apparition and converse survey
# ---------------------------------------------------------------------------


def rank_of_apparition(params: SequenceParams, s: int, n_bound: int) -> int | None:
    """Smallest n in [1, n_bound] with s | G_n, by a modular linear scan."""
    if s < 2:
        raise InputError(f"rank of apparition needs s >= 2, got {s}")
    ns = range(1, n_bound + 1)
    return next((n for n, (g, _) in zip(ns, g_pairs_mod(params, ns, s)) if g == 0), None)


@dataclass
class SurveyRow:
    p: int
    q: int
    s: int
    smallest_violating_n: int
    failing_conditions: tuple[str, ...]


@dataclass
class SurveyReport:
    note: str
    config: SweepConfig
    rows: tuple[SurveyRow, ...]


_SURVEY_NOTE = (
    "Exploratory data only: sufficient conditions for the equivalence "
    "s | n <=> s | G_n are known, but a full characterization of when it "
    "holds is an open question.  Rows list (p, q, s) with s dividing r (or "
    "r/4) where the equivalence fails within the bound, with the failing "
    "hypothesis conditions of the base-equivalence claim."
)


def converse_survey(bounds: SweepConfig) -> SurveyReport:
    """Catalog where the base equivalence fails although s divides r (or r/4).

    Past bounds.time_budget_s, checked after each s, it raises ResourceLimitError.
    """
    spec = claim_spec(ClaimId.Thm1_2_BaseEquiv)
    modular = bounds.mode is Mode.MODULAR
    rows = []
    for params, s in _grid(bounds, "survey"):
        if params.r == 0:
            continue
        first = next(
            conclusion_failures(spec.claim, params, s, (1,), range(bounds.n_max + 1), modular=modular),
            None,
        )
        if first is not None:
            values = _evaluate_conditions(spec, params.p, params.q, s)
            failing = tuple(name for name, held in values.items() if not held)
            rows.append(SurveyRow(params.p, params.q, s, first[1], failing))
    return SurveyReport(note=_SURVEY_NOTE, config=bounds, rows=tuple(rows))
