"""Grid sweeps, identity checks, golden examples, counterexample search and
the exploratory converse survey.

Sweeps are embarrassingly parallel over (p, q) cells; results are merged in
canonical cell order so reports are byte-identical regardless of worker
count.  Every conclusion is decided, and each failure stated, in claims.
"""

from __future__ import annotations

import functools
import math
import os
import time
from enum import Enum
from typing import NamedTuple

from . import claims

# conclusion_holds, hypothesis_check, _applicable, positive_divisors, g_mod
# and g_is_zero are not called here; they stay importable because
# perfbench/tracer.py wraps them under these names.
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
from .numtheory import divides, factored_divisors, positive_divisors
from .sequences import SequenceParams, ab_exact, g_exact, g_is_zero, g_mod, g_range


class Mode(Enum):
    EXACT = "exact"
    MODULAR = "modular"


class Verdict(Enum):
    ALL_PASS = "all-pass"
    VIOLATIONS = "violations"
    NEVER_APPLICABLE = "hypothesis-never-applicable"


# The named sources of s, each a map from r to the (s, factorize(s)) pairs of
# a cell; check is the budget, called while r is factored
S_SOURCES = {
    "divisors-of-r": lambda r, check: factored_divisors(r, check=check) if r != 0 else [],
    "divisors-of-r4": lambda r, check: factored_divisors(r // 4, check=check) if r != 0 and r % 4 == 0 else [],
}


class _SweepFields(NamedTuple):
    p_range: tuple[int, int]
    q_range: tuple[int, int]
    # a name in S_SOURCES, or explicit s values, kept as a sorted tuple of distinct values
    s_source: str | tuple[int, ...] = "divisors-of-r"
    k_max: int = 3
    n_max: int = 40
    t_max: int = 50
    mode: Mode = Mode.EXACT
    worker_count: int = 1
    time_budget_s: float | None = None


class SweepConfig(_SweepFields):
    """A sweep's grid and bounds, checked when built: a bad field raises InputError naming it."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        fields = _SweepFields(*args, **kwargs)
        for name in ("p_range", "q_range"):
            value = getattr(fields, name)
            if not (isinstance(value, (tuple, list)) and len(value) == 2 and all(type(v) is int for v in value)):
                raise InputError(f"{name} must be a pair of ints, got {value!r}")
            if value[0] > value[1]:
                raise InputError(f"{name} must not be empty, got [{value[0]}, {value[1]}]")
        if not isinstance(fields.mode, Mode):
            raise InputError(f"mode must be a Mode, got {fields.mode!r}")
        source = fields.s_source
        if isinstance(source, str):
            if source not in S_SOURCES:
                raise InputError(f"unknown s_source {source!r}; known: {sorted(S_SOURCES)}")
        elif isinstance(source, (tuple, list, set, frozenset, range)) and all(type(s) is int and s >= 1 for s in source):
            source = tuple(sorted(set(source)))
        else:
            raise InputError(f"s_source must be a name or ints >= 1, got {source!r}")
        for name, least in (("k_max", 0), ("n_max", 0), ("t_max", 1), ("worker_count", 1)):
            value = getattr(fields, name)
            if type(value) is not int or value < least:  # a bool is not an int here
                raise InputError(f"{name} must be an int >= {least}, got {value!r}")
        budget = fields.time_budget_s
        if budget is not None and not (type(budget) in (int, float) and budget >= 0):  # NaN fails too
            raise InputError(f"time_budget_s must be None or a number >= 0, got {budget!r}")
        return super().__new__(cls, *fields._replace(s_source=source))

    @classmethod
    def _make(cls, iterable):
        """Build through __new__, so _make and _replace (which calls it) validate too."""
        return cls(*iterable)


class Counterexample(NamedTuple):
    claim: ClaimId
    p: int
    q: int
    s: int
    k: int
    n: int
    witness: dict
    relaxed_condition: str | None = None


class VerificationReport(NamedTuple):
    claim: ClaimId
    config: SweepConfig
    points_checked: int
    violations: tuple[Counterexample, ...]
    elapsed_s: float
    verdict: Verdict


def _cells(config: SweepConfig, *, scan: bool = False, part=(0, None)):
    """The grid's (p, q) cells, p-major, as a generator over the slice part = (lo, hi) of that order.

    Canonical order is ascending.  Scan order sorts p and q by absolute value,
    positive before negative, so a search meets the smallest examples first.
    Cells and the values on each axis are reached by index, so a part starts
    at its first cell at once, and nothing grows with the grid.
    """

    def values(lo: int, hi: int):  # the map from index to value on the axis [lo, hi]
        if not scan or lo >= 0:
            return range(lo, hi + 1).__getitem__
        if hi <= 0:
            return range(hi, lo - 1, -1).__getitem__
        m = min(hi, -lo)  # 0, 1, -1, ..., m, -m, then the longer side alone
        return lambda i: ((i + 1) // 2 if i % 2 else -(i // 2)) if i <= 2 * m else (i - m if hi > m else m - i)

    (p_lo, p_hi), (q_lo, q_hi) = config.p_range, config.q_range
    p_at, q_at, width = values(p_lo, p_hi), values(q_lo, q_hi), q_hi - q_lo + 1
    return ((p_at(i // width), q_at(i % width)) for i in range((p_hi - p_lo + 1) * width)[slice(*part)])


def _resolve_s(config: SweepConfig, params: SequenceParams, check=None) -> list[tuple[int, list | None]]:
    """The cell's ascending (s, factorize(s)) pairs from one factorization of r; an explicit s pairs with None."""
    source = config.s_source
    return S_SOURCES[source](params.r, check) if isinstance(source, str) else [(s, None) for s in source]


def _grid(config: SweepConfig, what: str, claim: ClaimId, gate, ks, *, scan=False, start=None, part=(0, None)):
    """Yield (params, s, failures, check) for each (p, q, s) of the part where the claim's conclusion is walked.

    part = (lo, hi) is a slice of the _cells order, reached by index; (0, None)
    is the whole grid.  gate(params) is called once for each cell that has an
    s; None rules the cell out, else it is a predicate on s.  For each s, in
    this order: the budget is checked, the predicate must hold, and, for the
    lifted equivalence at s >= 2, the lift condition must hold up to
    config.t_max.  Then failures is conclusion_failures(claim, params, s, ks,
    range(config.n_max + 1), factors=...) with the factors _resolve_s gave s,
    not yet started.  This is the one place that reads the clock: past
    config.time_budget_s since start (the first request where start is None)
    it raises ResourceLimitError "{what} stopped ...", checked before each
    cell, while a named s_source factors its r, before each s, and at each
    call of check (check() names (p, q, s), check(k) (p, q, s, k)) by the lift
    condition and the conclusion.  A sweep passes its own start, so the parts
    a pool's workers walk share the run's clock: time.monotonic is
    system-wide on Linux, so a forked worker reads it too.
    """
    budget = config.time_budget_s
    if start is None:
        start = time.monotonic()
    lifted = claim is ClaimId.Thm1_2_LiftedEquiv
    ns = range(config.n_max + 1)
    modular = config.mode is Mode.MODULAR

    def check(*at: int) -> None:  # at is the (p, q), (p, q, s) or (p, q, s, k) about to be walked
        if budget is not None and (elapsed := time.monotonic() - start) > budget:
            where = f"({', '.join('pqsk'[:len(at)])}) = ({', '.join(map(str, at))})"
            raise ResourceLimitError(f"{what} stopped after {elapsed:.1f}s at {where}, over the {budget:.1f}s budget")

    for p, q in _cells(config, scan=scan, part=part):
        check(p, q)
        params = SequenceParams(p, q)
        s_values = _resolve_s(config, params, functools.partial(check, p, q))
        qualifies = gate(params) if s_values else None
        if qualifies is None:
            continue
        for s, factors in s_values:
            check(p, q, s)
            if not qualifies(s):
                continue
            at_s = functools.partial(check, p, q, s)
            if not lifted or s < 2 or thm12_lift_condition(params, s, config.t_max, check=at_s).holds:
                failures = conclusion_failures(claim, params, s, ks, ns, modular=modular, check=at_s, factors=factors)
                yield params, s, failures, at_s


def _sweep_cell(args) -> tuple[int, list[Counterexample]]:
    """Sweep one part (lo, hi) of the grid: a part walked in-process, or a pool task."""
    claim, config, start, part, what = args
    points = 0
    violations: list[Counterexample] = []
    gate = functools.partial(hypothesis_gate, claim)
    for params, s, failures, _ in _grid(config, what, claim, gate, range(config.k_max + 1), start=start, part=part):
        points += (config.k_max + 1) * (config.n_max + 1)
        violations.extend(
            Counterexample(claim, params.p, params.q, s, k, n, claims.witness(claim, params, n, *evidence))
            for k, n, evidence in failures
        )
    return points, violations


# Seconds a parallel sweep walks in-process before it hands the cells left to a
# pool.  Criterion 2's larger sweep takes about 0.2 s, so host noise does not
# start a pool near the end of a sweep that short.
_POOL_AFTER_S = 0.5


def verify_claim(claim: ClaimId, config: SweepConfig, *, what: str = "sweep") -> VerificationReport:
    """Sweep the grid; evaluate the conclusion wherever the hypothesis holds.

    The sweep walks the cells in canonical order in this process.  With more
    than one worker, it checks before each cell whether the run has lasted
    _POOL_AFTER_S; once it has, the cells left go to a process pool as about
    four parts per worker.  Results merge in canonical order: this process's
    cells, then the parts.  Past config.time_budget_s it raises
    ResourceLimitError ("{what} stopped ..."); a pool's parts that have not
    started are cancelled, and a budget shorter than _POOL_AFTER_S stops the
    run before any pool starts.
    """
    start = time.monotonic()
    cells = math.prod(hi - lo + 1 for lo, hi in (config.p_range, config.q_range))
    # More processes than cells or CPUs would only add start-up cost.
    workers = min(config.worker_count, cells, os.cpu_count() or 1)
    budget = config.time_budget_s
    # A walk that may hand off takes one cell per part, so it can stop between
    # any two cells.  A budget shorter than the hand-off stops the run before
    # any pool starts.
    if workers > 1 and (budget is None or budget >= _POOL_AFTER_S):
        step, handoff = 1, _POOL_AFTER_S
    else:
        step, handoff = cells, math.inf
    results = []
    lo = 0
    while lo < cells and time.monotonic() - start < handoff:
        results.append(_sweep_cell((claim, config, start, (lo, lo + step), what)))
        lo += step
    if lo < cells:
        # Imported only here, so a run that ends before the hand-off does not load the pool's modules.
        from concurrent.futures import ProcessPoolExecutor

        workers = min(workers, cells - lo)
        step = -(-(cells - lo) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            tasks = [(claim, config, start, (i, i + step), what) for i in range(lo, cells, step)]
            results.extend(pool.map(_sweep_cell, tasks))
    points = sum(part_points for part_points, _ in results)
    violations = [v for _, part_violations in results for v in part_violations]
    elapsed = time.monotonic() - start
    if points == 0:
        verdict = Verdict.NEVER_APPLICABLE
    elif violations:
        verdict = Verdict.VIOLATIONS
    else:
        verdict = Verdict.ALL_PASS
    return VerificationReport(claim, config, points, tuple(violations), elapsed, verdict)


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


def _parity_expansion(n: int, parity: int, x: int, y: int, z: int) -> int:
    """sum over t <= n with t = parity mod 2 of C(n,t) * x^(n-t) * y^t * z^(t//2).

    C(n, t) is stepped from C(n, parity), not recomputed:
    C(n, t+2) = C(n, t)(n-t)(n-t-1) / ((t+1)(t+2)), an exact division.
    """
    total, coefficient = 0, n if parity else 1
    for t in range(parity, n + 1, 2):
        total += coefficient * x ** (n - t) * y**t * z ** (t // 2)
        coefficient = coefficient * (n - t) * (n - t - 1) // ((t + 1) * (t + 2))
    return total


class IdentityResult(NamedTuple):
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
    checked = dict.fromkeys(names, 0)
    first_failure: dict[str, dict] = {}

    def check(name: str, ok: bool, context: dict) -> None:
        checked[name] += 1
        if not ok:
            first_failure.setdefault(name, context)

    gs = g_range(params, n_max)
    ab_at = functools.cache(lambda n: ab_exact(params, n))
    for n in range(1, n_max + 1):
        a_n, b_n = ab_at(n).a, ab_at(n).b
        pw = _ring_pow((params.p, 1), n, r)
        check("closed-form-pair", pw == (a_n, b_n), {"n": n, "got": pw, "want": (a_n, b_n)})
        check(
            "b-to-g-bridge",
            b_n == 2 ** (n - 1) * gs[n],
            {"n": n, "b_n": b_n, "g_n": gs[n]},
        )
        expansion = _parity_expansion(n, 1, params.p, 1, r)
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
            bsn = _parity_expansion(s, 1, a_n, b_n, r)
            check("bsn-expansion", bsn == target.b, {"n": n, "s": s, "got": bsn, "want": target.b})
        if p_even:
            g_half = _parity_expansion(n, 1, params.p // 2, 1, r // 4)
            check("g-half-expansion", g_half == gs[n], {"n": n, "got": g_half, "want": gs[n]})
            ok = a_n % 2**n == 0 and a_n // 2**n == _parity_expansion(n, 0, params.p // 2, 1, r // 4)
            check("a-half-integer", ok, {"n": n, "a_n": a_n})
    return [IdentityResult(name, name not in first_failure, checked[name], first_failure.get(name)) for name in names]


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


class ExampleResult(NamedTuple):
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
    applicable, and the conclusion is false; for the lifted equivalence the
    lift condition must hold up to bounds.t_max, as in a sweep.  Each s is
    decided by _grid, the sweep's too, and each s's counterexamples
    are yielded as soon as it is decided, each witness written with exact G
    values (claims._search_witness) only as it is drawn.  Past
    bounds.time_budget_s, checked by _grid before each cell, each s and each
    k, and before each witness is written, it raises ResourceLimitError.
    """
    spec = claim_spec(claim)
    if relaxed_condition not in spec.condition_names:
        raise InputError(
            f"{relaxed_condition!r} is not a condition of {claim.value}; "
            f"conditions: {list(spec.condition_names)}"
        )

    gate = functools.partial(hypothesis_gate, claim, relaxed=relaxed_condition)
    for params, s, failures, check in _grid(bounds, "search", claim, gate, range(bounds.k_max + 1), scan=True):
        for k, n, evidence in sorted(failures, key=lambda f: (f[1], f[0])):
            check(k)
            stated = claims._search_witness(params, n, *evidence)
            yield Counterexample(claim, params.p, params.q, s, k, n, stated, relaxed_condition)


def search_counterexample(
    claim: ClaimId, relaxed_condition: str, bounds: SweepConfig
) -> Counterexample | None:
    """First counterexample in scan order, or None."""
    return next(iter_counterexamples(claim, relaxed_condition, bounds), None)


# ---------------------------------------------------------------------------
# Converse survey
# ---------------------------------------------------------------------------


class SurveyRow(NamedTuple):
    p: int
    q: int
    s: int
    smallest_violating_n: int
    failing_conditions: tuple[str, ...]


class SurveyReport(NamedTuple):
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

    Past bounds.time_budget_s, checked by _grid before each cell (one with no
    s included) and each s, and by the walk of each s before its k = 1 and
    between blocks of indices, it raises ResourceLimitError.
    """
    spec = claim_spec(ClaimId.Thm1_2_BaseEquiv)
    every_s = lambda params: (lambda s: True) if params.r else None  # r = 0 is not surveyed
    rows = []
    for params, s, failures, _ in _grid(bounds, "survey", spec.claim, every_s, (1,)):
        first = next(failures, None)
        if first is not None:
            values = _evaluate_conditions(spec, params.p, params.q, s)
            failing = tuple(name for name, held in values.items() if not held)
            rows.append(SurveyRow(params.p, params.q, s, first[1], failing))
    return SurveyReport(note=_SURVEY_NOTE, config=bounds, rows=tuple(rows))
