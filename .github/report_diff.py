"""Compare the CLI's reports of two source trees, job by job.

Usage: python3 .github/report_diff.py BASE_TREE HEAD_TREE

Each job of the benchmark (perfbench/jobs.py's WORKLOADS, read from
HEAD_TREE) and each job in EXTRA below runs as `python3 -m gfibdiv.cli` on the
src/ of both trees, at --workers 1, once with --format json and once with
--format text.  Each run's report file, stdout, stderr and exit code must be
the same on both trees, save for lines that start with "elapsed: ".  One
SAME or DIFF line is printed per job; the exit code is 1 if any job differs.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

GRID4 = ("--pmin", "-4", "--pmax", "4", "--qmin", "-4", "--qmax", "4")
GRID8 = ("--pmin", "-8", "--pmax", "8", "--qmin", "-8", "--qmax", "8")

# (name, argv): relaxed divisibility searches, whose points mostly fail, the
# exact-mode counterparts of equiv-grid's modular runs, and a sweep with
# violations (the lift condition checked only up to t = 3), since every
# benchmark sweep passes and so writes no witness.
EXTRA = (
    ("search-multdiv-s-div-r", ("search", "--claim", "thm1.1-multdiv", "--relax", "s-div-r", "--all") + GRID4
     + ("--s-source", ",".join(map(str, range(1, 21))), "--kmax", "2", "--nmax", "12")),
    ("search-scaled-s-div-r", ("search", "--claim", "remark-scaled", "--relax", "s-div-r", "--all",
     "--pmin", "-3", "--pmax", "3", "--qmin", "-3", "--qmax", "3", "--s-source", "1,2,3,4,6", "--kmax", "2",
     "--nmax", "12")),
    ("survey-exact", ("survey",) + GRID8 + ("--kmax", "3", "--nmax", "2000", "--mode", "exact")),
    ("sweep-thm1.2-base-equiv-exact", ("sweep", "--claim", "thm1.2-base-equiv") + GRID8
     + ("--kmax", "3", "--nmax", "2000", "--mode", "exact")),
    ("sweep-lifted-equiv-tmax3", ("sweep", "--claim", "thm1.2-lifted-equiv", "--pmin", "-10", "--pmax", "10",
     "--qmin", "-10", "--qmax", "10", "--kmax", "2", "--nmax", "200", "--tmax", "3")),
)
FORMATS = ("json", "text")
FIELDS = ("report", "stdout", "stderr", "exit code")


def benchmark_jobs(tree: Path) -> list[tuple[str, tuple[str, ...]]]:
    """(name, argv) of every job in tree's perfbench/jobs.py, loaded without writing bytecode."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(tree / "perfbench"))
    import jobs

    return [(f"{workload}/{job.name}", job.argv) for workload, listed in jobs.WORKLOADS.items() for job in listed]


def without_elapsed(data: bytes) -> bytes:
    return b"".join(line for line in data.splitlines(keepends=True) if not line.startswith(b"elapsed: "))


def run(tree: Path, argv: tuple[str, ...], fmt: str, output: Path) -> tuple:
    """(report, stdout, stderr, exit code) of one CLI run on tree's src/."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GFIBDIV_")}
    env["PYTHONPATH"] = str(tree / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    output.unlink(missing_ok=True)
    cmd = [sys.executable, "-m", "gfibdiv.cli", *argv, "--workers", "1", "--format", fmt, "--output", str(output)]
    proc = subprocess.run(cmd, env=env, capture_output=True, stdin=subprocess.DEVNULL)
    report = without_elapsed(output.read_bytes()) if output.exists() else None
    return report, without_elapsed(proc.stdout), without_elapsed(proc.stderr), proc.returncode


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base, head = (Path(tree).resolve() for tree in argv)
    differ = 0
    with tempfile.TemporaryDirectory() as scratch:
        output = Path(scratch) / "report"
        for name, job_argv in benchmark_jobs(head) + list(EXTRA):
            diffs = []
            for fmt in FORMATS:
                base_run, head_run = (run(tree, job_argv, fmt, output) for tree in (base, head))
                diffs += [f"{fmt} {field}" for field, a, b in zip(FIELDS, base_run, head_run) if a != b]
            differ += bool(diffs)
            print(f"{'DIFF' if diffs else 'SAME'} {name}" + (f": {', '.join(diffs)}" if diffs else ""), flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
