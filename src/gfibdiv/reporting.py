"""Canonical JSON and CSV serialization of reports.

JSON output is the stable machine contract: keys are sorted and execution
details (timing, worker count) are excluded by default, so identical
configurations produce byte-identical documents regardless of parallelism.
"""

from __future__ import annotations

import csv
import io
import json

from .verify import (
    Counterexample,
    ExampleResult,
    IdentityResult,
    SurveyReport,
    SweepConfig,
    VerificationReport,
)


def config_to_dict(config: SweepConfig) -> dict:
    source = config.s_source
    return {
        "p_range": list(config.p_range),
        "q_range": list(config.q_range),
        "s_source": source if isinstance(source, str) else sorted(set(source)),
        "k_max": config.k_max,
        "n_max": config.n_max,
        "t_max": config.t_max,
        "mode": config.mode.value,
    }


def counterexample_to_dict(ce: Counterexample) -> dict:
    return {
        "claim": ce.claim.value,
        "p": ce.p,
        "q": ce.q,
        "s": ce.s,
        "k": ce.k,
        "n": ce.n,
        "relaxed_condition": ce.relaxed_condition,
        "witness": ce.witness,
    }


def report_to_dict(report: VerificationReport, *, include_timing: bool = False) -> dict:
    out = {
        "kind": "verification-report",
        "claim": report.claim.value,
        "config": config_to_dict(report.config),
        "points_checked": report.points_checked,
        "violation_count": len(report.violations),
        "violations": [counterexample_to_dict(ce) for ce in report.violations],
        "verdict": report.verdict.value,
    }
    if include_timing:
        out["elapsed_s"] = report.elapsed_s
    return out


def survey_to_dict(report: SurveyReport) -> dict:
    return {
        "kind": "converse-survey",
        "note": report.note,
        "config": config_to_dict(report.config),
        "rows": [
            {
                "p": row.p,
                "q": row.q,
                "s": row.s,
                "smallest_violating_n": row.smallest_violating_n,
                "failing_conditions": list(row.failing_conditions),
            }
            for row in report.rows
        ],
    }


def examples_to_dict(results: list[ExampleResult]) -> dict:
    return {
        "kind": "example-reproduction",
        "results": [
            {
                "example": r.example,
                "p": r.p,
                "q": r.q,
                "expected": r.expected,
                "observed": r.observed,
                "passed": r.passed,
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }


def identities_to_dict(results: list[IdentityResult]) -> dict:
    return {
        "kind": "identity-report",
        "results": [
            {
                "identity": r.name,
                "passed": r.passed,
                "checked": r.checked,
                "first_failure": r.first_failure,
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }


def to_json(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


_VIOLATION_FIELDS = ["claim", "p", "q", "s", "k", "n", "relaxed_condition", "witness"]


def violations_to_csv(violations) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_VIOLATION_FIELDS, lineterminator="\n")
    writer.writeheader()
    for ce in violations:
        row = counterexample_to_dict(ce)
        row["witness"] = json.dumps(row["witness"], sort_keys=True)
        writer.writerow(row)
    return buf.getvalue()


def survey_to_csv(report: SurveyReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["p", "q", "s", "smallest_violating_n", "failing_conditions"])
    for row in report.rows:
        writer.writerow([row.p, row.q, row.s, row.smallest_violating_n, ";".join(row.failing_conditions)])
    return buf.getvalue()


def examples_to_csv(results: list[ExampleResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["example", "p", "q", "passed", "expected", "observed"])
    for r in results:
        writer.writerow(
            [
                r.example,
                r.p,
                r.q,
                r.passed,
                json.dumps(r.expected, sort_keys=True),
                json.dumps(r.observed, sort_keys=True),
            ]
        )
    return buf.getvalue()
