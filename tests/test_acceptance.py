"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines as
they print; pytest shows them in the summary otherwise).
"""

import random
import time

import pytest

import oracles
from gfibdiv import (
    ClaimId,
    Mode,
    SequenceParams,
    SweepConfig,
    Verdict,
    g_mod,
    identity_suite,
    iter_counterexamples,
    reproduce_examples,
    verify_claim,
)
from gfibdiv import reporting, verify

GRID = (-8, 8)


def report_line(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_golden_examples():
    start = time.monotonic()
    results = reproduce_examples()
    elapsed = time.monotonic() - start
    ok = len(results) == 12 and all(r.passed for r in results) and elapsed < 1.0
    report_line(1, ok, f"12 golden examples, {sum(r.passed for r in results)}/12 pass, {elapsed:.2f}s (< 1s)")


def test_criterion_2_multdiv_exact_sweep():
    start = time.monotonic()
    reports = [
        verify_claim(
            ClaimId.Thm1_1_MultDiv,
            SweepConfig(
                p_range=GRID, q_range=GRID, s_source=source,
                k_max=3, n_max=40, mode=Mode.EXACT, worker_count=1,
            ),
        )
        for source in ("divisors-of-r", "divisors-of-r4")
    ]
    elapsed = time.monotonic() - start
    points = sum(r.points_checked for r in reports)
    ok = all(r.verdict is Verdict.ALL_PASS for r in reports) and elapsed < 60.0
    report_line(2, ok, f"Thm1.1(1) exact sweep, {points} points, 0 violations expected, {elapsed:.1f}s (< 60s, 1 worker)")


def test_criterion_3_equiv_modular_sweeps():
    start = time.monotonic()
    reports = [
        verify_claim(
            claim,
            SweepConfig(
                p_range=GRID, q_range=GRID, k_max=3, n_max=2000,
                mode=Mode.MODULAR, worker_count=4,
            ),
        )
        for claim in (ClaimId.Thm1_1_Equiv, ClaimId.Thm1_2_BaseEquiv)
    ]
    elapsed = time.monotonic() - start
    ok = all(r.verdict is Verdict.ALL_PASS for r in reports) and elapsed < 120.0
    report_line(3, ok, f"Thm1.1(2)+Thm1.2(1) modular sweeps, n<=2000, {elapsed:.1f}s (< 120s, 4 workers)")


def test_criterion_4_deep_classical_checks():
    ok = True
    details = []
    for claim, p, q, s in (
        (ClaimId.Cor_Fibonacci, 1, 1, 5),
        (ClaimId.Cor_Pell, 2, 1, 2),
        (ClaimId.Cor_Jacobsthal, 1, 2, 3),
    ):
        report = verify_claim(
            claim,
            SweepConfig(
                p_range=(p, p), q_range=(q, q), s_source=(s,),
                k_max=5, n_max=5000, mode=Mode.MODULAR, worker_count=1,
            ),
        )
        ok = ok and report.verdict is Verdict.ALL_PASS
        details.append(f"({p},{q},s={s}):{report.verdict.value}")
    report_line(4, ok, "Cor 1.4 deep checks k<=5 n<=5000 modular: " + ", ".join(details))


def test_criterion_5_identity_suite():
    failures = []
    checked = 0
    for p in range(GRID[0], GRID[1] + 1):
        for q in range(GRID[0], GRID[1] + 1):
            for res in identity_suite(SequenceParams(p, q), n_max=30, s_list=[2, 3, 5, 7]):
                checked += res.checked
                if not res.passed:
                    failures.append((p, q, res.name, res.first_failure))
    report_line(5, not failures, f"identity suite |p|,|q|<=8 n<=30 s in (2,3,5,7): {checked} checks, {len(failures)} failures")


REDISCOVERY = (
    ("2.2", ClaimId.Thm1_1_Equiv, "gcd-pq", (3, 9, 3)),
    ("2.3a", ClaimId.Thm1_1_Equiv, "s-prime", (4, 1, 20)),
    ("2.3b", ClaimId.Thm1_1_Equiv, "s-ge-3", (4, 1, 2)),
    ("2.4a", ClaimId.Thm1_1_Equiv, "gcd-p2-q", (4, 4, 4)),
    ("2.4b", ClaimId.Cor_Square, "gcd-p2-q", (4, 4, 2)),
    ("2.5", ClaimId.Thm1_1_Equiv, "mod3-guard", (5, 2, 3)),
    ("2.6a", ClaimId.Thm1_1_Equiv, "mod3-guard", (2, 5, 3)),
    ("2.6b", ClaimId.Cor_P1P2, "mod3-guard", (2, 5, 3)),
    ("2.7a", ClaimId.Cor_PrimeR, "r-prime", (2, 2, 12)),
    ("2.7b", ClaimId.Cor_P1P2, "s-div-q1", (2, 2, 2)),
    ("2.8", ClaimId.Cor_PrimeRover4, "r4-prime", (4, 2, 6)),
    ("2.9", ClaimId.Cor_P1P2, "mod3-guard", (1, 8, 3)),
    ("2.10", ClaimId.Cor_PrimeRover4, "p-nonzero", (0, 2, 2)),
    ("2.11", ClaimId.Cor_PrimeR, "q-positive", (5, -5, 5)),
    ("2.12", ClaimId.Cor_PrimeRover4, "q-positive", (4, -2, 2)),
)


def test_criterion_6_counterexample_rediscovery():
    bounds = SweepConfig(
        p_range=(-10, 10), q_range=(-10, 10), s_source=tuple(range(1, 21)),
        k_max=2, n_max=12,
    )
    misses = []
    for example, claim, relax, (p, q, s) in REDISCOVERY:
        found = list(iter_counterexamples(claim, relax, bounds))
        hit = any(c.p == p and c.q == q and c.s == s for c in found)
        if not found or not hit:
            misses.append(example)
    report_line(
        6,
        not misses,
        f"examples 2.2-2.12 rediscovered via relaxed search ({len(REDISCOVERY)} searches)"
        + (f"; missing: {misses}" if misses else ""),
    )


def test_criterion_7_performance_kernel():
    rng = random.Random(20260823)
    mismatches = 0
    for _ in range(100):
        p, q = rng.randint(-50, 50), rng.randint(-50, 50)
        m = rng.randint(1, 10**9)
        n = 10**18
        if g_mod(SequenceParams(p, q), str(n), m) != oracles.mat_g_mod(p, q, n, m):
            mismatches += 1
    queries = [
        (SequenceParams(rng.randint(-100, 100), rng.randint(-100, 100)),
         rng.randint(0, 10**18), rng.randint(1, 10**9))
        for _ in range(100_000)
    ]
    start = time.monotonic()
    for params, n, m in queries:
        g_mod(params, n, m)
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 5.0
    report_line(7, ok, f"g_mod vs matrix oracle at n=1e18: {mismatches} mismatches; 1e5 queries in {elapsed:.2f}s (< 5s)")


def test_criterion_8_exact_modular_cross_validation():
    shared = dict(p_range=(-8, 8), q_range=(-8, 8), k_max=3, n_max=2000)
    agree = True
    for claim in (ClaimId.Thm1_1_Equiv, ClaimId.Thm1_2_BaseEquiv):
        exact = reporting.report_to_dict(
            verify_claim(claim, SweepConfig(mode=Mode.EXACT, **shared))
        )
        modular = reporting.report_to_dict(
            verify_claim(claim, SweepConfig(mode=Mode.MODULAR, **shared))
        )
        exact["config"].pop("mode")
        modular["config"].pop("mode")
        agree = agree and exact == modular
    report_line(8, agree, "exact and modular sweeps identical (verdicts and violations) on shared grid n<=2000")


def test_criterion_9_determinism_across_workers(monkeypatch):
    monkeypatch.setattr(verify, "_POOL_AFTER_S", 0)  # every multi-worker sweep runs in a pool
    documents = []
    for workers in (1, 2, 8):
        batch = []
        # criterion 2 config
        batch.append(
            reporting.to_json(
                reporting.report_to_dict(
                    verify_claim(
                        ClaimId.Thm1_1_MultDiv,
                        SweepConfig(p_range=GRID, q_range=GRID, k_max=3, n_max=40,
                                    mode=Mode.EXACT, worker_count=workers),
                    )
                )
            )
        )
        # criterion 3 configs
        for claim in (ClaimId.Thm1_1_Equiv, ClaimId.Thm1_2_BaseEquiv):
            batch.append(
                reporting.to_json(
                    reporting.report_to_dict(
                        verify_claim(
                            claim,
                            SweepConfig(p_range=GRID, q_range=GRID, k_max=3, n_max=2000,
                                        mode=Mode.MODULAR, worker_count=workers),
                        )
                    )
                )
            )
        # criterion 4 config
        batch.append(
            reporting.to_json(
                reporting.report_to_dict(
                    verify_claim(
                        ClaimId.Cor_Fibonacci,
                        SweepConfig(p_range=(1, 1), q_range=(1, 1), s_source=(5,),
                                    k_max=5, n_max=5000, mode=Mode.MODULAR,
                                    worker_count=workers),
                    )
                )
            )
        )
        # criterion 5 artifacts (representative sub-grid; the suite is sequential)
        for p in range(-2, 3):
            for q in range(-2, 3):
                batch.append(
                    reporting.to_json(
                        reporting.identities_to_dict(
                            identity_suite(SequenceParams(p, q), n_max=30, s_list=[2, 3, 5, 7])
                        )
                    )
                )
        # criterion 6 artifacts: every rediscovery search, serialized
        bounds = SweepConfig(p_range=(-10, 10), q_range=(-10, 10),
                             s_source=tuple(range(1, 21)), k_max=2, n_max=12)
        for _, claim, relax, _point in REDISCOVERY:
            found = list(iter_counterexamples(claim, relax, bounds))
            batch.append(reporting.violations_to_csv(found))
        documents.append(batch)
    ok = documents[0] == documents[1] == documents[2]
    report_line(9, ok, "criteria 2-6 reports byte-identical across worker counts 1, 2, 8")


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
