"""Workload job lists, the process runner and the semantic answer check.

A job is one `gfibdiv` CLI invocation with JSON written to a file, the way a
user runs it.  Each workload is a fixed list of jobs at the paper's
acceptance-gate grids; only the worker count differs between workloads.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

GRID8 = ("--pmin", "-8", "--pmax", "8", "--qmin", "-8", "--qmax", "8")


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    # (p, q, s) the counterexample search must rediscover (paper Examples 2.2-2.12)
    must_find: tuple[int, int, int] | None = None


def _equiv_grid() -> list[Job]:
    common = GRID8 + ("--kmax", "3", "--nmax", "2000", "--mode", "modular")
    return [
        Job("sweep-thm1.1-equiv", ("sweep", "--claim", "thm1.1-equiv") + common),
        Job("sweep-thm1.2-base-equiv", ("sweep", "--claim", "thm1.2-base-equiv") + common),
        Job("survey", ("survey",) + common),
    ]


def _deep_classical() -> list[Job]:
    return [
        Job(
            f"check-{claim}",
            ("check", "--claim", claim, "-p", p, "-q", q, "-s", s,
             "--kmax", "5", "--nmax", "5000", "--mode", "modular"),
        )
        for claim, p, q, s in (
            ("cor-fibonacci", "1", "1", "5"),
            ("cor-pell", "2", "1", "2"),
            ("cor-jacobsthal", "1", "2", "3"),
        )
    ]


# Criterion 6 of the acceptance gate: (example, claim, relaxed condition, point).
REDISCOVERY = (
    ("2.2", "thm1.1-equiv", "gcd-pq", (3, 9, 3)),
    ("2.3a", "thm1.1-equiv", "s-prime", (4, 1, 20)),
    ("2.3b", "thm1.1-equiv", "s-ge-3", (4, 1, 2)),
    ("2.4a", "thm1.1-equiv", "gcd-p2-q", (4, 4, 4)),
    ("2.4b", "cor-square", "gcd-p2-q", (4, 4, 2)),
    ("2.5", "thm1.1-equiv", "mod3-guard", (5, 2, 3)),
    ("2.6a", "thm1.1-equiv", "mod3-guard", (2, 5, 3)),
    ("2.6b", "cor-p1p2", "mod3-guard", (2, 5, 3)),
    ("2.7a", "cor-prime-r", "r-prime", (2, 2, 12)),
    ("2.7b", "cor-p1p2", "s-div-q1", (2, 2, 2)),
    ("2.8", "cor-prime-r4", "r4-prime", (4, 2, 6)),
    ("2.9", "cor-p1p2", "mod3-guard", (1, 8, 3)),
    ("2.10", "cor-prime-r4", "p-nonzero", (0, 2, 2)),
    ("2.11", "cor-prime-r", "q-positive", (5, -5, 5)),
    ("2.12", "cor-prime-r4", "q-positive", (4, -2, 2)),
)
# Criterion 6's bounds, as SweepConfig fields.
SEARCH_BOUNDS = {"p_range": (-10, 10), "q_range": (-10, 10), "s_source": tuple(range(1, 21)), "k_max": 2, "n_max": 12}


def _relaxed_search() -> list[Job]:
    b = SEARCH_BOUNDS
    bounds = (
        "--pmin", str(b["p_range"][0]), "--pmax", str(b["p_range"][1]),
        "--qmin", str(b["q_range"][0]), "--qmax", str(b["q_range"][1]),
        "--s-source", ",".join(map(str, b["s_source"])), "--kmax", str(b["k_max"]), "--nmax", str(b["n_max"]),
    )
    return [
        Job(f"search-{ex}", ("search", "--claim", claim, "--relax", relax, "--all") + bounds, point)
        for ex, claim, relax, point in REDISCOVERY
    ]


def _multdiv_pool() -> list[Job]:
    common = GRID8 + ("--kmax", "3", "--nmax", "40", "--mode", "exact")
    return [
        Job(f"sweep-multdiv-{source}", ("sweep", "--claim", "thm1.1-multdiv", "--s-source", source) + common)
        for source in ("divisors-of-r", "divisors-of-r4")
    ]


WORKLOADS = {
    "equiv-grid": _equiv_grid(),
    "deep-classical": _deep_classical(),
    "relaxed-search": _relaxed_search(),
    "multdiv-pool": _multdiv_pool(),
}
# Timed worker count per workload; the traced run always uses one worker.
WORKERS = {"multdiv-pool": 2}


def cli_argv(job: Job, workers: int, output: Path) -> list[str]:
    return list(job.argv) + ["--workers", str(workers), "--format", "json", "--output", str(output)]


def job_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("GFIBDIV_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass(frozen=True)
class ProcResult:
    exit_code: int
    wall_s: float
    cpu_s: float  # user + system, reaped descendants (pool workers) included
    rss_kb: int  # peak RSS of the process or any reaped descendant


def spawn(args: list[str], log: Path) -> ProcResult:
    """Run `python3 args...` to completion, stdout/stderr to `log`."""
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, fd, 1),
        (os.POSIX_SPAWN_DUP2, fd, 2),
    ]
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], job_env(), file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
    finally:
        os.close(fd)
    return ProcResult(
        exit_code=os.waitstatus_to_exitcode(status),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_kb=usage.ru_maxrss,
    )


def run_cli(job: Job, workers: int, output: Path) -> ProcResult:
    return spawn(["-m", "gfibdiv.cli", *cli_argv(job, workers, output)], output.with_suffix(".log"))


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def semantic(doc: dict) -> dict:
    """The answer a job must reproduce; the config echo is left out."""
    kind = doc["kind"]
    if kind == "verification-report":
        return {
            "verdict": doc["verdict"],
            "points_checked": doc["points_checked"],
            "violation_count": len(doc["violations"]),
            "violations_sha256": _digest(doc["violations"]),
        }
    if kind == "counterexample-search":
        return {
            "found": doc["found"],
            "count": len(doc["counterexamples"]),
            "counterexamples_sha256": _digest(doc["counterexamples"]),
        }
    if kind == "converse-survey":
        return {"row_count": len(doc["rows"]), "rows_sha256": _digest(doc["rows"])}
    raise ValueError(f"unexpected report kind {kind!r}")


def check(job: Job, expected: dict, exit_code: int, output: Path) -> str | None:
    """None when the job's exit code and semantic result match, else why not."""
    if exit_code != expected["exit_code"]:
        return f"exit code {exit_code}, expected {expected['exit_code']}"
    try:
        doc = json.loads(output.read_text(encoding="utf-8"))
        got = semantic(doc)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    if got != expected["result"]:
        return f"semantic result {got}, expected {expected['result']}"
    if job.must_find is not None:
        points = {(ce["p"], ce["q"], ce["s"]) for ce in doc["counterexamples"]}
        if job.must_find not in points:
            return f"counterexample {job.must_find} not rediscovered"
    return None


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))
