"""In-memory span recorder wrapped around the layer boundaries of gfibdiv.

Each wrapped name is replaced where it is looked up (`gfibdiv.verify.g_mod`,
`gfibdiv.claims.is_prime`, ...), because the modules import names with
`from .x import y`.  Boundary calls that happen a few thousand times per job
become individual spans (name, start, end, parent).  Hot kernels, called up
to millions of times under one cell, are recorded as one aggregate per
(parent span, name): a call count, the summed duration and the summed time of
their own wrapped children, so memory stays bounded.

Self time of a record is its duration minus the time its wrapped children
took.  The wrapper's own cost is calibrated once and charged to a separate
`trace` bucket rather than to the caller or the callee.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter

# A recorded name is "<layer>.<function>"; the layer is the gfibdiv module.
LAYERS = ("cli", "verify", "claims", "numtheory", "sequences", "reporting")

# (module, attribute looked up there, recorded name); spans first, then hot names.
SPANS = (
    ("cli", "verify_claim", "verify.verify_claim"),
    ("cli", "iter_counterexamples", "verify.iter_counterexamples"),
    ("cli", "search_counterexample", "verify.search_counterexample"),
    ("cli", "converse_survey", "verify.converse_survey"),
    ("verify", "_sweep_cell", "verify._sweep_cell"),
    ("reporting", "to_json", "reporting.to_json"),
    ("reporting", "report_to_dict", "reporting.report_to_dict"),
    ("reporting", "survey_to_dict", "reporting.survey_to_dict"),
    ("reporting", "violations_to_csv", "reporting.violations_to_csv"),
    ("reporting", "survey_to_csv", "reporting.survey_to_csv"),
)
HOT = (
    ("verify", "_resolve_s", "verify._resolve_s"),
    ("verify", "hypothesis_check", "claims.hypothesis_check"),
    ("verify", "_evaluate_conditions", "claims._evaluate_conditions"),
    ("verify", "_applicable", "claims._applicable"),
    ("verify", "conclusion_holds", "claims.conclusion_holds"),
    ("verify", "thm12_lift_condition", "claims.thm12_lift_condition"),
    ("verify", "positive_divisors", "numtheory.positive_divisors"),
    ("claims", "is_prime", "numtheory.is_prime"),
    ("verify", "g_mod", "sequences.g_mod"),
    ("claims", "g_mod", "sequences.g_mod"),
    ("cli", "g_mod", "sequences.g_mod"),
    ("verify", "g_range", "sequences.g_range"),
    ("cli", "g_range", "sequences.g_range"),
    ("verify", "g_exact", "sequences.g_exact"),
    ("claims", "g_exact", "sequences.g_exact"),
    ("cli", "g_exact", "sequences.g_exact"),
    ("verify", "g_is_zero", "sequences.g_is_zero"),
    ("claims", "g_is_zero", "sequences.g_is_zero"),
    ("reporting", "config_to_dict", "reporting.config_to_dict"),
    ("reporting", "counterexample_to_dict", "reporting.counterexample_to_dict"),
)


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        self.spans: list[dict] = []
        self.aggregates: dict[tuple[int, str], list[int]] = {}  # -> [count, total_ns, child_ns]
        # One accumulator of wrapped-child time per active call; the bottom
        # entry collects time of calls made outside any span.
        self.frames: list[list[int]] = [[0]]
        self.span_ids: list[int] = [-1]
        self.calls = 0
        # Per-call wrapper cost outside and inside the callee, from calibrate().
        self.outer_ns = 0
        self.inner_ns = 0
        self.observe_ns = 0  # time spent in observers, charged to the trace bucket
        self.modulus_max = 0
        self.points_reported = 0
        self.hypotheses: Counter = Counter()  # (claim, conditions) -> evaluations

    # -- recording -------------------------------------------------------

    def _open_span(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "parent": self.span_ids[-1],
                "start_ns": self.clock(), "end_ns": 0, "busy_ns": 0, "child_ns": 0}
        self.spans.append(span)
        return span

    def span(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._span_generator(name, fn)
        clock, frames, span_ids = self.clock, self.frames, self.span_ids
        observe = self._observer(name)

        def wrapper(*args, **kwargs):
            span = self._open_span(name)
            frame = [0]
            frames.append(frame)
            span_ids.append(span["id"])
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                span_ids.pop()
                frames.pop()
                frames[-1][0] += dur + self.outer_ns
                span["end_ns"] = clock()
                span["busy_ns"] = dur
                span["child_ns"] = frame[0]
                self.calls += 1
            if observe is not None:
                self._timed_observe(observe, args, result)
            return result

        return wrapper

    def _span_generator(self, name: str, fn):
        """A generator's span is busy only while it runs, between yields."""
        clock, frames, span_ids = self.clock, self.frames, self.span_ids

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            span = self._open_span(name)
            frame = [0]
            try:
                while True:
                    frames.append(frame)
                    span_ids.append(span["id"])
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        dur = clock() - t0
                        span_ids.pop()
                        frames.pop()
                        frames[-1][0] += dur + self.outer_ns
                        span["busy_ns"] += dur
                        self.calls += 1
                    yield item
            finally:
                gen.close()
                span["end_ns"] = clock()
                span["child_ns"] = frame[0]

        return wrapper

    def hot(self, name: str, fn):
        clock, frames, span_ids, aggregates = self.clock, self.frames, self.span_ids, self.aggregates
        observe = self._observer(name)
        if name == "sequences.g_mod":
            fn = self._track_modulus(fn)

        def wrapper(*args, **kwargs):
            frame = [0]
            frames.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                frames.pop()
                frames[-1][0] += dur + self.outer_ns
                key = (span_ids[-1], name)
                rec = aggregates.get(key)
                if rec is None:
                    aggregates[key] = [1, dur, frame[0]]
                else:
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += frame[0]
            if observe is not None:
                self._timed_observe(observe, args, result)
            return result

        return wrapper

    def _timed_observe(self, observe, args, result) -> None:
        """Run an observer; its time goes to the trace bucket, not the caller."""
        t0 = self.clock()
        observe(args, result)
        extra = self.clock() - t0
        self.frames[-1][0] += extra
        self.observe_ns += extra

    def _track_modulus(self, g_mod):
        """g_mod that records the largest modulus.  It runs inside the timed
        call, because a separate observer would cost more than the compare
        on millions of calls."""

        def tracked(params, n, m):
            if m > self.modulus_max:
                self.modulus_max = m
            return g_mod(params, n, m)

        return tracked

    def _observer(self, name: str):
        if name == "claims.hypothesis_check":
            def observe(args, report):
                self.hypotheses[args[0].value, report.conditions] += 1
        elif name == "claims._evaluate_conditions":
            def observe(args, values):
                self.hypotheses[args[0].claim.value, tuple(values.items())] += 1
        elif name == "verify.verify_claim":
            def observe(args, report):
                self.points_reported += report.points_checked
        else:
            return None
        return observe

    # -- installation and output -----------------------------------------

    def calibrate(self, rounds: int = 100_000) -> tuple[int, int]:
        """Per-call wrapper cost (outside, inside) the callee's timed interval.

        The outside part is charged to the trace bucket instead of the
        caller; the inside part is subtracted from the callee's self time.
        """

        def noop():
            return None

        self.frames.append([0])
        wrapped = self.hot("calibration", noop)
        clock = self.clock
        bare = total = None
        for _ in range(3):
            t0 = clock()
            for _ in range(rounds):
                noop()
            t1 = clock()
            for _ in range(rounds):
                wrapped()
            t2 = clock()
            bare = t1 - t0 if bare is None else min(bare, t1 - t0)
            total = t2 - t1 if total is None else min(total, t2 - t1)
        count, timed_ns, _ = self.aggregates.pop((-1, "calibration"))
        self.frames.pop()
        inner = timed_ns / count
        outer = (total - bare) / rounds - inner
        return max(0, round(outer)), max(0, round(inner - bare / rounds))

    def install(self, gfibdiv_modules: dict) -> None:
        for module, attr, name in SPANS:
            mod = gfibdiv_modules[module]
            setattr(mod, attr, self.span(name, getattr(mod, attr)))
        for module, attr, name in HOT:
            mod = gfibdiv_modules[module]
            setattr(mod, attr, self.hot(name, getattr(mod, attr)))

    def dump(self, claims_module) -> dict:
        return {
            "spans": self.spans,
            "aggregates": [[parent, name, *rec] for (parent, name), rec in self.aggregates.items()],
            "calls": self.calls + sum(rec[0] for rec in self.aggregates.values()),
            "aggregate_calls": sum(rec[0] for rec in self.aggregates.values()),
            "outer_ns_per_call": self.outer_ns,
            "inner_ns_per_call": self.inner_ns,
            "observe_ns": self.observe_ns,
            "modulus_bits_max": self.modulus_max.bit_length(),
            "points_reported": self.points_reported,
            "hypotheses": blocked_conditions(self.hypotheses, claims_module),
        }


def blocked_conditions(hypotheses: Counter, claims_module) -> dict:
    """Per claim: triples evaluated, applicable, and for each condition how
    often it was false on an inapplicable triple (`failed`) and how often it
    was the only thing keeping the hypothesis from holding (`sole_blocker`)."""
    out: dict = {}
    for (claim, conditions), count in hypotheses.items():
        spec = claims_module.claim_by_name(claim)
        values = dict(conditions)
        entry = out.setdefault(claim, {"triples": 0, "applicable": 0, "conditions": {}})
        entry["triples"] += count
        if claims_module._applicable(spec, values):
            entry["applicable"] += count
            continue
        for cond, held in conditions:
            if held:
                continue
            stats = entry["conditions"].setdefault(cond, {"failed": 0, "sole_blocker": 0})
            stats["failed"] += count
            if claims_module._applicable(spec, {**values, cond: True}):
                stats["sole_blocker"] += count
    return out
