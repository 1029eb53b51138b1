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
        "s_source": source if isinstance(source, str) else list(source),
        "k_max": config.k_max,
        "n_max": config.n_max,
        "t_max": config.t_max,
        "mode": config.mode.value,
    }


def counterexample_to_dict(ce: Counterexample) -> dict:
    return {**ce._asdict(), "claim": ce.claim.value}


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
        "rows": [row._asdict() for row in report.rows],
    }


def examples_to_dict(results: list[ExampleResult]) -> dict:
    return {
        "kind": "example-reproduction",
        "results": [r._asdict() for r in results],
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


def to_csv(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


_VIOLATION_FIELDS = ["claim", "p", "q", "s", "k", "n", "relaxed_condition", "witness"]


def violations_to_csv(violations) -> str:
    rows = []
    for ce in violations:
        row = counterexample_to_dict(ce)
        row["witness"] = json.dumps(row["witness"], sort_keys=True)
        rows.append([row[field] for field in _VIOLATION_FIELDS])
    return to_csv(_VIOLATION_FIELDS, rows)


def survey_to_csv(report: SurveyReport) -> str:
    return to_csv(
        ["p", "q", "s", "smallest_violating_n", "failing_conditions"],
        ([row.p, row.q, row.s, row.smallest_violating_n, ";".join(row.failing_conditions)] for row in report.rows),
    )


def examples_to_csv(results: list[ExampleResult]) -> str:
    return to_csv(
        ["example", "p", "q", "passed", "expected", "observed"],
        (
            [r.example, r.p, r.q, r.passed, json.dumps(r.expected, sort_keys=True), json.dumps(r.observed, sort_keys=True)]
            for r in results
        ),
    )
