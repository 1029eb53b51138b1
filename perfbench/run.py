"""gfibdiv benchmark: CLI workloads at the acceptance-gate grids.

    python3 perfbench/run.py --workload equiv-grid --seed 1 --seconds 20 --trace 0

With --trace 0 it runs the workload's job list (one `gfibdiv` process per
job, JSON to a file) repeatedly for about --seconds seconds and reports the
end-to-end metrics: wall_s, setup_s, cpu_s, peak_rss_mb.  With --trace 1 it
makes one untraced and one traced pass at one worker, runs the layer
microbenchmarks and reports the per-layer metrics with an attribution table.
Every job's exit code and semantic result is checked against
perfbench/expected.json, and seeded g_mod residues are checked against the
benchmark's own matrix-power oracle.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  See
perfbench/README.md for the metric catalogue.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from jobs import (
    OUT,
    ROOT,
    SRC,
    WORKERS,
    WORKLOADS,
    check,
    cli_argv,
    load_expected,
    run_cli,
    spawn,
)

SETUP_FIRST = 3
SETUP_EVERY_S = 1.5
ORACLE_SAMPLES = {"equiv-grid": 200, "deep-classical": 30}
TRACE_JOB = Path(__file__).resolve().parent / "trace_job.py"


class Tally:
    """Operations attempted and failed; a failure keeps its reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, what: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{what}: {reason}")

    def add_many(self, what: str, checked: int, bad: int) -> None:
        self.attempted += checked
        self.failures.extend(f"{what}: mismatch" for _ in range(bad))


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    n = len(samples)
    if n <= 10:
        return None
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return {"percentile": pct, "value": sorted(samples)[rank - 1], "samples": n}


def run_list(workload: str, workers: int, expected: dict, outdir: Path, tally: Tally, after_job=None) -> dict:
    """One pass over the workload's jobs; times exclude the answer checks."""
    wall = cpu = 0.0
    rss = 0
    for job in WORKLOADS[workload]:
        output = outdir / f"{job.name}.json"
        output.unlink(missing_ok=True)
        result = run_cli(job, workers, output)
        tally.add(job.name, check(job, expected[job.name], result.exit_code, output))
        wall += result.wall_s
        cpu += result.cpu_s
        rss = max(rss, result.rss_kb)
        if after_job is not None:
            after_job()
    return {"wall_s": wall, "cpu_s": cpu, "rss_kb": rss}


class SetupSampler:
    """Fresh interpreters running `import gfibdiv.cli` and build_parser().

    Samples are spread over the whole run, one at most every SETUP_EVERY_S
    seconds between jobs, so that their median sees the same drift in
    machine speed as the passes do."""

    ARGS = ["-c", "import gfibdiv.cli as cli; cli.build_parser()"]

    def __init__(self, outdir: Path, tally: Tally) -> None:
        self.log, self.tally = outdir / "setup.log", tally
        spawn(self.ARGS, self.log)  # warm-up: byte-compiles the sources once
        self.times: list[float] = []
        for _ in range(SETUP_FIRST):
            self.sample()

    def sample(self) -> None:
        result = spawn(self.ARGS, self.log)
        self.tally.add("setup", None if result.exit_code == 0 else f"exit code {result.exit_code}")
        self.times.append(result.wall_s)
        self.last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.sample()


def oracle_checks(workload: str, seed: int, tally: Tally) -> None:
    import gfibdiv
    from oracle import deep_samples, equiv_samples, mismatches

    count = ORACLE_SAMPLES.get(workload)
    if count is None:
        return
    rng = random.Random(seed)
    samples = equiv_samples(rng, count) if workload == "equiv-grid" else deep_samples(rng, count)
    bad = mismatches(gfibdiv.g_mod, gfibdiv.SequenceParams, samples)
    tally.add_many("g_mod oracle", len(samples), len(bad))


def timed_runs(workload: str, seconds: int, expected: dict, outdir: Path, tally: Tally) -> tuple[dict, dict]:
    setup = SetupSampler(outdir, tally)
    workers = WORKERS.get(workload, 1)
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(run_list(workload, workers, expected, outdir, tally, setup.maybe_sample))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r["wall_s"] for r in reps) > seconds:
            break
    walls = [r["wall_s"] for r in reps]
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(setup.times), "s"),
        "cpu_s": metric(statistics.median(r["cpu_s"] for r in reps), "s"),
        "peak_rss_mb": metric(statistics.median(r["rss_kb"] for r in reps) / 1024, "MB"),
    }
    detail = {
        "workers": workers,
        "wall_s_samples": walls,
        "wall_s_tail": tail(walls),
        "setup_s_samples": setup.times,
        "cpu_s_samples": [r["cpu_s"] for r in reps],
    }
    return metrics, detail


def traced_pass(workload: str, expected: dict, outdir: Path, tally: Tally) -> tuple[list, float]:
    """Each job untraced, then traced, both at one worker; returns the trace
    dumps with their wall times and the untraced wall time of the list.
    Alternating job by job keeps a drift in machine speed out of the
    difference between the two."""
    from tracer import Tracer

    outer_ns, inner_ns = Tracer().calibrate()
    dumps = []
    untraced = 0.0
    for job in WORKLOADS[workload]:
        output = outdir / f"{job.name}.json"
        output.unlink(missing_ok=True)
        result = run_cli(job, 1, output)
        tally.add(job.name, check(job, expected[job.name], result.exit_code, output))
        untraced += result.wall_s
        spans = outdir / f"{job.name}.spans.json"
        output.unlink(missing_ok=True)
        result = spawn(
            [str(TRACE_JOB), str(spans), str(outer_ns), str(inner_ns), "--", *cli_argv(job, 1, output)],
            output.with_suffix(".log"),
        )
        reason = check(job, expected[job.name], result.exit_code, output)
        tally.add(f"traced {job.name}", reason)
        if reason is None:
            dumps.append((json.loads(spans.read_text(encoding="utf-8")), result.wall_s))
    return dumps, untraced


def parallel_efficiency(expected: dict, outdir: Path, tally: Tally) -> float:
    """multdiv-pool's job list: one-worker wall / (2 x two-worker wall)."""
    walls: dict[int, list[float]] = {1: [], 2: []}
    for workers in (1, 2, 2, 1):
        walls[workers].append(run_list("multdiv-pool", workers, expected, outdir, tally)["wall_s"])
    return statistics.median(walls[1]) / (2 * statistics.median(walls[2]))


def layer_metrics(workload: str, seed: int, all_expected: dict, outdir: Path, tally: Tally) -> tuple[dict, dict]:
    import gfibdiv
    from attribution import blocked_lines, summarize, table
    import micro

    expected = all_expected[workload]
    dumps, untraced_wall = traced_pass(workload, expected, outdir, tally)
    summary = summarize(dumps)
    bytes_out = sum((outdir / f"{job.name}.json").stat().st_size for job in WORKLOADS[workload]
                    if (outdir / f"{job.name}.json").exists())
    fns, layers = summary["functions"], summary["layers"]

    def calls(*names: str) -> int:
        return sum(fns.get(name, {}).get("calls", 0) for name in names)

    def self_s(*names: str) -> float:
        return sum(fns.get(name, {}).get("self_s", 0.0) for name in names)

    triples = sum(entry["triples"] for entry in summary["hypotheses"].values())
    applicable = sum(entry["applicable"] for entry in summary["hypotheses"].values())
    metrics = {
        "sequences.self_s": metric(layers["sequences"]["self_s"], "s"),
        "sequences.g_mod.calls": metric(calls("sequences.g_mod"), "count"),
        "sequences.g_mod.self_s": metric(self_s("sequences.g_mod"), "s"),
        "sequences.g_mod.modulus_bits_max": metric(summary["modulus_bits_max"], "bits"),
        "sequences.g_range.calls": metric(calls("sequences.g_range"), "count"),
        "sequences.g_range.self_s": metric(self_s("sequences.g_range"), "s"),
        "sequences.g_exact.calls": metric(calls("sequences.g_exact"), "count"),
        "sequences.g_exact.self_s": metric(self_s("sequences.g_exact"), "s"),
        "numtheory.self_s": metric(layers["numtheory"]["self_s"], "s"),
        "numtheory.positive_divisors.calls": metric(calls("numtheory.positive_divisors"), "count"),
        "numtheory.positive_divisors.self_s": metric(self_s("numtheory.positive_divisors"), "s"),
        "numtheory.is_prime.calls": metric(calls("numtheory.is_prime"), "count"),
        "numtheory.is_prime.self_s": metric(self_s("numtheory.is_prime"), "s"),
        "claims.self_s": metric(layers["claims"]["self_s"], "s"),
        "claims.hypothesis.calls": metric(calls("claims.hypothesis_check", "claims._evaluate_conditions"), "count"),
        "claims.hypothesis.self_s": metric(
            self_s("claims.hypothesis_check", "claims._evaluate_conditions", "claims._applicable"), "s"),
        "claims.applicable_ratio": metric(applicable / triples if triples else 0.0, "ratio"),
        "claims.conclusion_holds.calls": metric(calls("claims.conclusion_holds"), "count"),
        "claims.conclusion_holds.self_s": metric(self_s("claims.conclusion_holds"), "s"),
        "verify.cells": metric(summary["cells"], "count"),
        "verify.points": metric(summary["points"], "count"),
        "verify.self_s": metric(layers["verify"]["self_s"], "s"),
        "reporting.self_s": metric(layers["reporting"]["self_s"], "s"),
        "reporting.bytes_out": metric(bytes_out, "bytes"),
        "cli.self_s": metric(layers["cli"]["self_s"], "s"),
        "process.self_s": metric(summary["process_s"], "s"),
        "trace.overhead_s": metric(summary["traced_wall_s"] - untraced_wall, "s"),
    }
    for what, (values, checked, bad) in {
        "g_mod mix": micro.g_mod_mix(gfibdiv, seed),
        "g_mod deep": micro.g_mod_deep(gfibdiv, seed),
        "g_range": micro.g_range_5000(gfibdiv),
    }.items():
        tally.add_many(what, checked, bad)
        metrics.update({name: metric(*vu) for name, vu in values.items()})
    found = micro.relaxed_search_output(gfibdiv)
    values, checked, bad = micro.reporting_serializers(gfibdiv, found)
    tally.add_many("serializers", checked, bad)
    metrics.update({name: metric(*vu) for name, vu in values.items()})
    metrics["verify.parallel_efficiency"] = metric(
        parallel_efficiency(all_expected["multdiv-pool"], outdir, tally), "ratio")
    detail = {
        "untraced_wall_s": untraced_wall,
        "attribution": summary,
        "table": table(summary, untraced_wall),
        "blocked": blocked_lines(summary["hypotheses"]),
    }
    return metrics, detail


def machine() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gfibdiv").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "gfibdiv" / "cli.py").is_file():
        print(f"error: no gfibdiv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    all_expected = load_expected()
    outdir = OUT / f"{args.workload}-trace{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()

    oracle_checks(args.workload, args.seed, tally)
    if args.trace:
        metrics, detail = layer_metrics(args.workload, args.seed, all_expected, outdir, tally)
    else:
        metrics, detail = timed_runs(args.workload, args.seconds, all_expected[args.workload], outdir, tally)

    info = machine()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {info['nproc']}  python {info['python']}  git {info['git_sha'] or '-'}")
    for name, m in metrics.items():
        print(f"  {name:<38} {m['value']:>14.6g} {m['unit']}")
    if args.trace:
        print("\n".join(detail["table"]))
        print("hypothesis conditions that blocked applicability:")
        print("\n".join(detail["blocked"]))
    else:
        t = detail["wall_s_tail"]
        print(f"  wall_s: median of {len(detail['wall_s_samples'])} passes; "
              + (f"p{t['percentile']} {t['value']:.4f} s" if t else "too few passes for a tail percentile"))
    print(f"  failed_ratio {len(tally.failures)}/{tally.attempted}")
    for failure in tally.failures[:20]:
        print(f"  FAILED {failure}")

    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }
    record = {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": info, "detail": detail, "failures": tally.failures}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
