"""Compare the CLI's reports of two source trees, job by job.

Usage: python3 .github/report_diff.py BASE_TREE HEAD_TREE

Each job of the benchmark (perfbench/jobs.py's WORKLOADS, read from
HEAD_TREE) and each job in EXTRA below runs as `python3 -m gfibdiv.cli` on the
src/ of both trees, once with --format json and once with --format text, at
--workers 1 where the command takes it (cli_argv).  Each run's report file,
stdout, stderr and exit code must be the same on both trees, save for lines
that start with "elapsed: ".  One SAME or DIFF line is printed per job; the
exit code is 1 if any job differs.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

GRID4 = ("--pmin", "-4", "--pmax", "4", "--qmin", "-4", "--qmax", "4")
GRID8 = ("--pmin", "-8", "--pmax", "8", "--qmin", "-8", "--qmax", "8")

GRID60 = ("--pmin", "-60", "--pmax", "60", "--qmin", "-60", "--qmax", "60")

# (name, argv): relaxed divisibility searches, whose points mostly fail, the
# exact-mode counterparts of equiv-grid's modular runs, a sweep with
# violations (the lift condition checked only up to t = 3), since every
# benchmark sweep passes and so writes no witness, a sweep whose lift
# condition holds at some points for all t <= 20000, modular
# divisibility sweeps whose r have divisors s past 2^12 (certified by s | r
# alone), a relaxed search of the lifted equivalence, whose lift
# condition the grid walk decides before each conclusion walk, a sweep at
# |p| near 10^6, whose r near 10^12 are factored by Pollard's rho, rank
# queries down each path of rank_of_apparition (the laws of apparition and
# repetition once s is factored, gcd(q, s) > 1 included, the shortcut where a
# prime of s divides q but not p, ahead of any factoring, and the scan to
# --bound where s has a part past psi_12 that factorize leaves unsplit, such as
# the prime F_131, or the prime 2^89 - 1, whose scan runs to the default --bound),
# the check refused at s = psi_12, a strong pseudoprime to all twelve bases,
# modular relaxed searches of the equivalence, whose s have primes
# that do not divide r (the rank certificate leaves those moduli to their
# residue streams), a modular sweep of the one cell whose r is 4 times
# two primes near 10^12, split once by rho, each divisor of r carrying its
# factorization to the certificate, and relaxed searches of a global
# condition that does not read s, a branch of the hypothesis gate that no
# benchmark job takes: q-eq-1, which finds counterexamples, and r-nonzero,
# which finds none (its relaxed points on GRID8 are (+-2, -1), where
# G_n = +-n), and the two callers that fall back to the residue stream where
# rho leaves a composite s past psi_12 unsplit at its step cap, s being
# (10^12 + 39)(10^12 + 61): the rank scan to the default --bound, and a modular
# check at r = 3s, whose rank certificate is not tried.
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
    ("sweep-lifted-equiv-tmax20000", ("sweep", "--claim", "thm1.2-lifted-equiv", "--pmin", "-6", "--pmax", "6",
     "--qmin", "-6", "--qmax", "6", "--kmax", "2", "--nmax", "100", "--tmax", "20000")),
    ("sweep-multdiv-modular-60", ("sweep", "--claim", "thm1.1-multdiv") + GRID60 + ("--mode", "modular")),
    ("sweep-scaled-modular-60", ("sweep", "--claim", "remark-scaled") + GRID60 + ("--mode", "modular")),
    ("search-lifted-equiv-s-div-r", ("search", "--claim", "thm1.2-lifted-equiv", "--relax", "s-div-r", "--all",
     "--pmin", "-6", "--pmax", "6", "--qmin", "-6", "--qmax", "6", "--s-source", ",".join(map(str, range(1, 13))),
     "--kmax", "2", "--nmax", "40", "--tmax", "50")),
    ("sweep-base-equiv-modular-wide-p", ("sweep", "--claim", "thm1.2-base-equiv", "--pmin", "1000000", "--pmax",
     "1000014", "--qmin", "1", "--qmax", "14", "--mode", "modular")),
    ("rank-prime-10000019", ("rank", "-p", "1", "-q", "1", "-s", "10000019", "--bound", "1000000000000")),
    ("rank-6-not-dividing-r", ("rank", "-p", "3", "-q", "1", "-s", "6")),
    ("rank-laws-gcd-q-s", ("rank", "-p", "2", "-q", "2", "-s", "12")),
    ("rank-laws-gcd-q-s-is-s", ("rank", "-p", "6", "-q", "12", "-s", "72")),
    ("rank-rho-semiprime", ("rank", "-p", "1", "-q", "1", "-s", "1000000016000000063")),
    ("rank-scan-past-psi12", ("rank", "-p", "1", "-q", "1", "-s", "1066340417491710595814572169", "--bound",
     "1000000000000")),
    ("rank-scan-past-psi12-default-bound", ("rank", "-p", "1", "-q", "1", "-s", "618970019642690137449562111")),
    ("check-psi12-refused", ("check", "--claim", "thm1.1-equiv", "-p", "1", "-q", "1", "-s",
     "318665857834031151167461", "--kmax", "1", "--nmax", "10")),
    ("rank-none-before-factoring", ("rank", "-p", "1", "-q", "2", "-s", "2132680834983421191629144338", "--bound",
     "1000000000000")),
    ("search-equiv-s-div-r-modular", ("search", "--claim", "thm1.1-equiv", "--relax", "s-div-r", "--all") + GRID8
     + ("--s-source", ",".join(map(str, range(2, 31))), "--kmax", "2", "--nmax", "60", "--mode", "modular")),
    ("search-equiv-s-div-r-modular-s40", ("search", "--claim", "thm1.1-equiv", "--relax", "s-div-r", "--all") + GRID4
     + ("--s-source", ",".join(map(str, range(2, 41))), "--kmax", "2", "--nmax", "400", "--mode", "modular")),
    ("sweep-base-equiv-modular-two-large-primes", ("sweep", "--claim", "thm1.2-base-equiv", "--pmin", "2", "--pmax",
     "2", "--qmin", "240000000023800000000588", "--qmax", "240000000023800000000588", "--mode", "modular")),
    ("search-cor-q1-q-eq-1", ("search", "--claim", "cor-q1", "--relax", "q-eq-1", "--all", "--pmin", "-6", "--pmax",
     "6", "--qmin", "-6", "--qmax", "6", "--s-source", ",".join(map(str, range(1, 11))), "--kmax", "2", "--nmax",
     "30")),
    ("search-equiv-r-nonzero", ("search", "--claim", "thm1.1-equiv", "--relax", "r-nonzero", "--all") + GRID8
     + ("--s-source", ",".join(map(str, range(1, 13))), "--kmax", "2", "--nmax", "40")),
    ("rank-scan-rho-capped-composite", ("rank", "-p", "1", "-q", "1", "-s", "1000000000100000000002379")),
    ("check-rho-capped-s-walks", ("check", "--claim", "thm1.2-base-equiv", "-p", "1", "-q", "750000000075000000001784",
     "-s", "1000000000100000000002379", "--kmax", "2", "--nmax", "200", "--mode", "modular")),
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


# The commands that take --workers; rank, examples, compute and claims do not.
POOLED = ("check", "sweep", "search", "survey")


def cli_argv(argv: tuple[str, ...], fmt: str, output: Path) -> list[str]:
    """A job's command line, at --workers 1 where its command takes that option."""
    workers = ["--workers", "1"] if argv[0] in POOLED else []
    return [*argv, *workers, "--format", fmt, "--output", str(output)]


def run(tree: Path, argv: tuple[str, ...], fmt: str, output: Path) -> tuple:
    """(report, stdout, stderr, exit code) of one CLI run on tree's src/."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GFIBDIV_")}
    env["PYTHONPATH"] = str(tree / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    output.unlink(missing_ok=True)
    cmd = [sys.executable, "-m", "gfibdiv.cli", *cli_argv(argv, fmt, output)]
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
