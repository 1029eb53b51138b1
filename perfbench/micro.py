"""Layer microbenchmarks through gfibdiv's public functions only.

Each returns ({name: (value, unit)}, checks, failures): timings are medians over repeated
passes, and every benchmarked result is also checked, so a fast wrong kernel
counts as failed.
"""

from __future__ import annotations

import json
import random
import statistics
import time

from jobs import REDISCOVERY, SEARCH_BOUNDS
from oracle import CLASSICAL, deep_samples, mat_g, mismatches

REPEATS = 5


def _median_pass(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times)


def g_mod_mix(gfibdiv, seed: int, count: int = 4000) -> tuple[dict, int, int]:
    """The acceptance-gate criterion-7 query mix: |p|, |q| <= 100,
    n <= 1e18, m <= 1e9, drawn from the seed."""
    rng = random.Random(seed)
    params = gfibdiv.SequenceParams
    queries = [
        (params(rng.randint(-100, 100), rng.randint(-100, 100)), rng.randint(0, 10**18), rng.randint(1, 10**9))
        for _ in range(count)
    ]
    g_mod = gfibdiv.g_mod

    def run():
        for query in queries:
            g_mod(*query)

    ns = _median_pass(run) / count
    checked = [(qp.p, qp.q, n, m) for qp, n, m in queries[:50]]
    bad = mismatches(g_mod, params, checked)
    return {"sequences.g_mod.ns_per_call": (ns, "ns")}, len(checked), len(bad)


def g_mod_deep(gfibdiv, seed: int, count: int = 12) -> tuple[dict, int, int]:
    """g_mod at deep-classical moduli: s^5 * G_n for n in 1..5000."""
    samples = deep_samples(random.Random(seed), count, k_min=5)
    g_mod, params = gfibdiv.g_mod, gfibdiv.SequenceParams
    prepared = [(params(p, q), n, m) for p, q, n, m in samples]

    def run():
        for query in prepared:
            g_mod(*query)

    us = _median_pass(run) / count / 1e3
    bad = mismatches(g_mod, params, samples)
    return {"sequences.g_mod.deep_us_per_call": (us, "us")}, len(samples), len(bad)


def g_range_5000(gfibdiv) -> tuple[dict, int, int]:
    """g_range(·, 5000) for the three classical sequences of Cor 1.4."""
    params = [gfibdiv.SequenceParams(p, q) for p, q, _ in CLASSICAL]
    g_range = gfibdiv.g_range

    def run():
        for pq in params:
            g_range(pq, 5000)

    ms = _median_pass(run) / len(params) / 1e6
    bad = sum(g_range(pq, 5000)[5000] != mat_g(pq.p, pq.q, 5000) for pq in params)
    return {"sequences.g_range.ms_at_5000": (ms, "ms")}, len(params), bad


def relaxed_search_output(gfibdiv) -> list:
    """Every counterexample of the relaxed-search workload, computed in-process."""
    config = gfibdiv.SweepConfig(**SEARCH_BOUNDS)
    found = []
    for _, claim, relax, _ in REDISCOVERY:
        found.extend(gfibdiv.iter_counterexamples(gfibdiv.ClaimId(claim), relax, config))
    return found


def reporting_serializers(gfibdiv, counterexamples: list) -> tuple[dict, int, int]:
    """to_json and violations_to_csv on the relaxed-search output."""
    from gfibdiv import reporting

    doc = {
        "kind": "counterexample-search",
        "counterexamples": [reporting.counterexample_to_dict(ce) for ce in counterexamples],
        "found": bool(counterexamples),
    }
    json_ms = _median_pass(lambda: reporting.to_json(doc)) / 1e6
    csv_ms = _median_pass(lambda: reporting.violations_to_csv(counterexamples)) / 1e6
    bad = int(json.loads(reporting.to_json(doc)) != doc)
    bad += int(reporting.violations_to_csv(counterexamples).count("\n") != len(counterexamples) + 1)
    return {"reporting.to_json.ms": (json_ms, "ms"), "reporting.violations_to_csv.ms": (csv_ms, "ms")}, 2, bad
