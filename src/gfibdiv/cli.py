"""Command-line front end.

Exit codes are a stable contract:
  0  success / all points pass
  1  claim violation found (check, sweep) or nothing found (search, examples)
  2  input error
  3  hypothesis never applicable on the grid
  4  resource ceiling hit

Text output is human-oriented; JSON and CSV are the stable formats.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import claims as claims_mod
from . import reporting
from .errors import DomainError, InputError, ResourceLimitError
from .sequences import (
    DEFAULT_MAX_TERMS,
    SequenceParams,
    _index_digits,
    _parse_index,
    g_exact,
    g_mod,
    g_pairs_mod,
    g_range,
)
from .verify import (
    Mode,
    SweepConfig,
    Verdict,
    converse_survey,
    iter_counterexamples,
    rank_of_apparition,
    reproduce_examples,
    search_counterexample,
    verify_claim,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_NEVER_APPLICABLE = 3
EXIT_RESOURCE = 4

FORMATS = ("text", "json", "csv")


def _default_workers() -> int:
    env = os.environ.get("GFIBDIV_WORKERS")
    if env:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"GFIBDIV_WORKERS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def _default_format() -> str:
    env = os.environ.get("GFIBDIV_FORMAT") or "text"
    if env not in FORMATS:
        raise InputError(f"GFIBDIV_FORMAT must be one of {', '.join(FORMATS)}, got {env!r}")
    return env


def _render(args, doc: dict, csv, text) -> None:
    """Write doc as JSON, csv() as CSV, or the lines of text(), to --output or stdout."""
    if args.format == "json":
        out = reporting.to_json(doc)
    elif args.format == "csv":
        out = csv()
    else:
        out = "\n".join(text()) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=FORMATS, help="default: $GFIBDIV_FORMAT, else text")
    parser.add_argument("--output", help="write the report to this file instead of stdout")
    parser.add_argument("--timing", action="store_true", help="include elapsed time in JSON output")


def _add_bounds(parser: argparse.ArgumentParser, *, k_max: int, n_max: int) -> None:
    parser.add_argument("--pmin", type=int, required=True)
    parser.add_argument("--pmax", type=int, required=True)
    parser.add_argument("--qmin", type=int, required=True)
    parser.add_argument("--qmax", type=int, required=True)
    parser.add_argument(
        "--s-source",
        default="divisors-of-r",
        help='"divisors-of-r", "divisors-of-r4", or a comma-separated list of s values',
    )
    _add_sweep_options(parser, k_max=k_max, n_max=n_max)


def _add_sweep_options(parser: argparse.ArgumentParser, *, k_max: int, n_max: int) -> None:
    parser.add_argument("--kmax", type=int, default=k_max)
    parser.add_argument("--nmax", type=int, default=n_max)
    parser.add_argument("--tmax", type=int, default=50)
    parser.add_argument("--mode", choices=["exact", "modular"], default="exact")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--time-budget", type=float, default=None, metavar="SECONDS")


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse_s_source(text: str):
    if text in ("divisors-of-r", "divisors-of-r4"):
        return text
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InputError(f"bad --s-source {text!r}") from None


def _sweep_config(args, *, p_range=None, q_range=None, s_source=None) -> SweepConfig:
    return SweepConfig(
        p_range=p_range or (args.pmin, args.pmax),
        q_range=q_range or (args.qmin, args.qmax),
        s_source=s_source if s_source is not None else _parse_s_source(args.s_source),
        k_max=args.kmax,
        n_max=args.nmax,
        t_max=args.tmax,
        mode=Mode(args.mode),
        worker_count=_default_workers() if args.workers is None else args.workers,
        time_budget_s=args.time_budget,
    )


def _cmd_compute(args) -> int:
    params = SequenceParams(args.p, args.q)
    doc = {"kind": "compute", "p": args.p, "q": args.q}
    if args.mod is not None:
        doc["mod"] = args.mod
    if args.range is not None:
        if args.mod is not None:
            values = [g for g, _ in g_pairs_mod(params, range(args.range + 1), args.mod)]
        else:
            values = g_range(params, args.range, max_terms=args.max_terms)
        doc["values"] = values
        rows = list(enumerate(values))
    else:
        # n is echoed as parsed, in canonical digits: str() of an int refuses
        # more than 4,300 digits.
        n = _index_digits(args.n)
        if args.mod is not None:
            value = g_mod(params, n, args.mod)
        elif _parse_index(n) + 1 > args.max_terms:
            raise ResourceLimitError(f"exact evaluation at n={n} exceeds the {args.max_terms}-term ceiling; use --mod")
        else:
            value = g_exact(params, n)
        doc["n"], doc["value"] = n, value
        rows = [(n, value)]
    _render(
        args,
        doc,
        lambda: "n,value\n" + "".join(f"{n},{v}\n" for n, v in rows),
        lambda: [str(v) for _, v in rows],
    )
    return EXIT_OK


def _cmd_claims(args) -> int:
    catalog = claims_mod.catalog()

    def text():
        for entry in catalog:
            yield f"{entry['name']}  [{entry['id']}]  ({entry['citation']})"
            yield f"  {entry['statement']}"
            yield f"  conditions: {entry['global_conditions']} + any of {entry['cases']}"

    fields = ["id", "name", "citation", "statement"]
    _render(
        args,
        {"kind": "claim-catalog", "claims": catalog},
        lambda: reporting.to_csv(fields, ([entry[f] for f in fields] for entry in catalog)),
        text,
    )
    return EXIT_OK


def _report_out(report, args) -> int:
    """Write a sweep's report; the exit code follows its verdict."""

    def text():
        yield f"claim: {report.claim.value}"
        yield f"points checked: {report.points_checked}"
        yield f"violations: {len(report.violations)}"
        yield f"verdict: {report.verdict.value}"
        yield f"elapsed: {report.elapsed_s:.2f}s"
        for ce in report.violations[:20]:
            yield f"  p={ce.p} q={ce.q} s={ce.s} k={ce.k} n={ce.n} witness={ce.witness}"
        if len(report.violations) > 20:
            yield f"  ... {len(report.violations) - 20} more"

    _render(
        args,
        reporting.report_to_dict(report, include_timing=args.timing),
        lambda: reporting.violations_to_csv(report.violations),
        text,
    )
    return {
        Verdict.ALL_PASS: EXIT_OK,
        Verdict.VIOLATIONS: EXIT_VIOLATION,
        Verdict.NEVER_APPLICABLE: EXIT_NEVER_APPLICABLE,
    }[report.verdict]


def _cmd_check(args) -> int:
    spec = claims_mod.claim_by_name(args.claim)
    config = _sweep_config(
        args,
        p_range=(args.p, args.p),
        q_range=(args.q, args.q),
        s_source=(args.s,),
    )
    return _report_out(verify_claim(spec.claim, config), args)


def _cmd_sweep(args) -> int:
    spec = claims_mod.claim_by_name(args.claim)
    return _report_out(verify_claim(spec.claim, _sweep_config(args)), args)


def _cmd_search(args) -> int:
    spec = claims_mod.claim_by_name(args.claim)
    bounds = _sweep_config(args)
    if args.all:
        found = list(iter_counterexamples(spec.claim, args.relax, bounds))
    else:
        first = search_counterexample(spec.claim, args.relax, bounds)
        found = [first] if first is not None else []
    doc = {
        "kind": "counterexample-search",
        "claim": spec.claim.value,
        "relaxed_condition": args.relax,
        "config": reporting.config_to_dict(bounds),
        "counterexamples": [reporting.counterexample_to_dict(ce) for ce in found],
        "found": bool(found),
    }
    _render(
        args,
        doc,
        lambda: reporting.violations_to_csv(found),
        lambda: [
            f"p={ce.p} q={ce.q} s={ce.s} k={ce.k} n={ce.n} relaxed={ce.relaxed_condition} witness={ce.witness}"
            for ce in found
        ]
        or ["no counterexample within bounds"],
    )
    return EXIT_OK if found else EXIT_VIOLATION


def _cmd_examples(args) -> int:
    results = reproduce_examples()
    passed = sum(r.passed for r in results)
    _render(
        args,
        reporting.examples_to_dict(results),
        lambda: reporting.examples_to_csv(results),
        lambda: [f"example {r.example} (p={r.p}, q={r.q}): {'pass' if r.passed else 'FAIL'}" for r in results]
        + [f"{passed}/{len(results)} pass"],
    )
    return EXIT_OK if passed == len(results) else EXIT_VIOLATION


def _cmd_survey(args) -> int:
    report = converse_survey(_sweep_config(args))
    _render(
        args,
        reporting.survey_to_dict(report),
        lambda: reporting.survey_to_csv(report),
        lambda: [report.note, ""]
        + [
            f"p={row.p} q={row.q} s={row.s} first violating n={row.smallest_violating_n} "
            f"failing: {', '.join(row.failing_conditions) or '(none)'}"
            for row in report.rows
        ],
    )
    return EXIT_OK


def _cmd_rank(args) -> int:
    rank = rank_of_apparition(SequenceParams(args.p, args.q), args.s, args.bound)
    doc = {"kind": "rank-of-apparition", "p": args.p, "q": args.q, "s": args.s, "bound": args.bound, "rank": rank}
    fields = ["p", "q", "s", "bound", "rank"]
    _render(
        args,
        doc,
        lambda: reporting.to_csv(fields, [[doc[f] for f in fields]]),
        lambda: ["none" if rank is None else str(rank)],
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfibdiv",
        description="Divisibility of <p,q>-Fibonacci sequences by factors of the discriminant.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate G_n exactly or modulo m")
    p_compute.add_argument("-p", type=int, required=True)
    p_compute.add_argument("-q", type=int, required=True)
    group = p_compute.add_mutually_exclusive_group(required=True)
    group.add_argument("-n", help="index (decimal string; arbitrary size with --mod)")
    group.add_argument("--range", type=_nonnegative_int, metavar="N_MAX", help="print G_0..G_N_MAX")
    p_compute.add_argument("--mod", type=int, help="reduce modulo this integer")
    p_compute.add_argument("--max-terms", type=_nonnegative_int, default=DEFAULT_MAX_TERMS)
    _add_common(p_compute)
    p_compute.set_defaults(func=_cmd_compute)

    p_claims = sub.add_parser("claims", help="claim catalog")
    p_claims.add_argument("action", choices=["list"])
    _add_common(p_claims)
    p_claims.set_defaults(func=_cmd_claims)

    p_check = sub.add_parser("check", help="verify one claim at fixed (p, q, s)")
    p_check.add_argument("--claim", required=True)
    p_check.add_argument("-p", type=int, required=True)
    p_check.add_argument("-q", type=int, required=True)
    p_check.add_argument("-s", type=int, required=True)
    _add_sweep_options(p_check, k_max=3, n_max=200)
    _add_common(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_sweep = sub.add_parser("sweep", help="verify one claim over a (p, q, s) grid")
    p_sweep.add_argument("--claim", required=True)
    _add_bounds(p_sweep, k_max=3, n_max=40)
    _add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_search = sub.add_parser("search", help="hypothesis-relaxed counterexample search")
    p_search.add_argument("--claim", required=True)
    p_search.add_argument("--relax", required=True, metavar="CONDITION")
    p_search.add_argument("--all", action="store_true", help="emit every counterexample in bounds")
    _add_bounds(p_search, k_max=2, n_max=12)
    _add_common(p_search)
    p_search.set_defaults(func=_cmd_search)

    p_examples = sub.add_parser("examples", help="reproduce the golden examples")
    _add_common(p_examples)
    p_examples.set_defaults(func=_cmd_examples)

    p_survey = sub.add_parser("survey", help="catalog equivalence failures among divisors of r")
    _add_bounds(p_survey, k_max=1, n_max=100)
    _add_common(p_survey)
    p_survey.set_defaults(func=_cmd_survey)

    p_rank = sub.add_parser("rank", help="smallest n >= 1 with s | G_n")
    p_rank.add_argument("-p", type=int, required=True)
    p_rank.add_argument("-q", type=int, required=True)
    p_rank.add_argument("-s", type=int, required=True)
    p_rank.add_argument("--bound", type=_nonnegative_int, default=10**6)
    _add_common(p_rank)
    p_rank.set_defaults(func=_cmd_rank)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.format = args.format or _default_format()
        return args.func(args)
    except (InputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
