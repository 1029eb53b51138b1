"""Self times, call counts and the attribution table from traced jobs.

A record's self time is its busy time minus the time of its wrapped children
and, for hot kernels, minus the calibrated wrapper cost inside their timed
interval.  Summed over one job, the layers' self times plus the trace bucket
(calibrated wrapper cost and observers) equal the duration of the `cli.main`
span; the rest of the job's wall time is `process`: interpreter start-up,
imports and exit.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import LAYERS


def summarize(jobs: list[tuple[dict, float]]) -> dict:
    """`jobs` holds (trace dump, traced wall seconds) per job."""
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    points = cells = bits = 0
    process_ns = trace_ns = wall_ns = 0
    hypotheses: dict = {}
    for dump, wall_s in jobs:
        inner = dump["inner_ns_per_call"]
        root_ns = 0
        for span in dump["spans"]:
            calls[span["name"]] += 1
            self_ns[span["name"]] += span["busy_ns"] - span["child_ns"]
            if span["parent"] == -1:
                root_ns += span["busy_ns"]
        for _, name, count, total, child in dump["aggregates"]:
            calls[name] += count
            self_ns[name] += total - child - count * inner
            if name == "claims.conclusion_holds":
                points += count
            if name == "verify._resolve_s":
                cells += count
        points += dump["points_reported"]
        bits = max(bits, dump["modulus_bits_max"])
        wall_ns += round(wall_s * 1e9)
        process_ns += round(wall_s * 1e9) - root_ns
        trace_ns += dump["aggregate_calls"] * inner
        trace_ns += (dump["calls"] - 1) * dump["outer_ns_per_call"] + dump["observe_ns"]
        _merge_hypotheses(hypotheses, dump["hypotheses"])

    layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for name, ns in self_ns.items():
        entry = layers[name.split(".", 1)[0]]
        entry["self_s"] += ns / 1e9
        entry["calls"] += calls[name]
    return {
        "functions": {name: {"calls": calls[name], "self_s": self_ns[name] / 1e9} for name in sorted(calls)},
        "layers": layers,
        "process_s": process_ns / 1e9,
        "trace_s": trace_ns / 1e9,
        "traced_wall_s": wall_ns / 1e9,
        "points": points,
        "cells": cells,
        "modulus_bits_max": bits,
        "hypotheses": hypotheses,
    }


def _merge_hypotheses(into: dict, part: dict) -> None:
    for claim, entry in part.items():
        target = into.setdefault(claim, {"triples": 0, "applicable": 0, "conditions": {}})
        target["triples"] += entry["triples"]
        target["applicable"] += entry["applicable"]
        for cond, stats in entry["conditions"].items():
            dest = target["conditions"].setdefault(cond, {"failed": 0, "sole_blocker": 0})
            dest["failed"] += stats["failed"]
            dest["sole_blocker"] += stats["sole_blocker"]


def table(summary: dict, untraced_wall_s: float) -> list[str]:
    """Rows: layer, self time, share of the traced wall time, calls."""
    wall = summary["traced_wall_s"]
    rows = [(layer, entry["self_s"], entry["calls"]) for layer, entry in summary["layers"].items()]
    rows.append(("process", summary["process_s"], None))
    rows.append(("trace", summary["trace_s"], None))
    lines = [f"{'layer':<10} {'self_s':>9} {'share':>7} {'calls':>10}"]
    for name, seconds, count in rows:
        share = seconds / wall if wall else 0.0
        lines.append(f"{name:<10} {seconds:9.3f} {share:7.1%} {'' if count is None else count:>10}")
    accounted = sum(seconds for _, seconds, _ in rows)
    lines.append(f"{'sum':<10} {accounted:9.3f} {accounted / wall if wall else 0.0:7.1%}")
    lines.append(
        f"traced wall {wall:.3f} s; untraced wall_s {untraced_wall_s:.3f} s; "
        f"trace.overhead_s {wall - untraced_wall_s:.3f} s"
    )
    return lines


def blocked_lines(hypotheses: dict) -> list[str]:
    """Why hypotheses were inapplicable: per claim, each condition's counts."""
    lines = []
    for claim, entry in sorted(hypotheses.items()):
        lines.append(f"{claim}: {entry['applicable']}/{entry['triples']} triples applicable")
        ranked = sorted(entry["conditions"].items(), key=lambda kv: (-kv[1]["sole_blocker"], -kv[1]["failed"], kv[0]))
        for cond, stats in ranked:
            lines.append(f"  {cond:<12} failed {stats['failed']:>7}  sole blocker {stats['sole_blocker']:>7}")
    return lines
