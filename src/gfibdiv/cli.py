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
from .sequences import DEFAULT_MAX_TERMS, SequenceParams, g_exact, g_mod, g_pairs_mod, g_range
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


def _default_workers() -> int:
    env = os.environ.get("GFIBDIV_WORKERS")
    if env:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"GFIBDIV_WORKERS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def _default_format() -> str:
    return os.environ.get("GFIBDIV_FORMAT", "text")


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["text", "json", "csv"], default=_default_format())
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
        time_budget_s=getattr(args, "time_budget", None),
    )


def _verdict_exit(verdict: Verdict) -> int:
    return {
        Verdict.ALL_PASS: EXIT_OK,
        Verdict.VIOLATIONS: EXIT_VIOLATION,
        Verdict.NEVER_APPLICABLE: EXIT_NEVER_APPLICABLE,
    }[verdict]


def _cmd_compute(args) -> int:
    params = SequenceParams(args.p, args.q)
    if args.mod is not None:
        if args.range is not None:
            values = [g for g, _ in g_pairs_mod(params, range(args.range + 1), args.mod)]
            doc = {"kind": "compute", "p": args.p, "q": args.q, "mod": args.mod, "values": values}
        else:
            residue = g_mod(params, args.n, args.mod)
            doc = {"kind": "compute", "p": args.p, "q": args.q, "n": args.n, "mod": args.mod, "value": residue}
    else:
        if args.range is not None:
            values = g_range(params, args.range, max_terms=args.max_terms)
            doc = {"kind": "compute", "p": args.p, "q": args.q, "values": values}
        else:
            from .sequences import _parse_index

            n = _parse_index(args.n)
            if n + 1 > args.max_terms:
                raise ResourceLimitError(
                    f"exact evaluation at n={n} exceeds the {args.max_terms}-term ceiling; use --mod"
                )
            doc = {"kind": "compute", "p": args.p, "q": args.q, "n": args.n, "value": g_exact(params, n)}
    if args.format == "json":
        _emit(reporting.to_json(doc), args.output)
    elif args.format == "csv":
        if "values" in doc:
            rows = "\n".join(f"{i},{v}" for i, v in enumerate(doc["values"]))
            _emit("n,value\n" + rows + "\n", args.output)
        else:
            _emit(f"n,value\n{doc['n']},{doc['value']}\n", args.output)
    else:
        if "values" in doc:
            _emit("\n".join(str(v) for v in doc["values"]) + "\n", args.output)
        else:
            _emit(f"{doc['value']}\n", args.output)
    return EXIT_OK


def _cmd_claims(args) -> int:
    catalog = claims_mod.catalog()
    doc = {"kind": "claim-catalog", "claims": catalog}
    if args.format == "json":
        _emit(reporting.to_json(doc), args.output)
    elif args.format == "csv":
        import csv as _csv
        import io as _io

        buf = _io.StringIO()
        writer = _csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "name", "citation", "statement"])
        for entry in catalog:
            writer.writerow([entry["id"], entry["name"], entry["citation"], entry["statement"]])
        _emit(buf.getvalue(), args.output)
    else:
        lines = []
        for entry in catalog:
            lines.append(f"{entry['name']}  [{entry['id']}]  ({entry['citation']})")
            lines.append(f"  {entry['statement']}")
            lines.append(f"  conditions: {entry['global_conditions']} + any of {entry['cases']}")
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _report_out(report, args) -> None:
    if args.format == "json":
        _emit(reporting.to_json(reporting.report_to_dict(report, include_timing=args.timing)), args.output)
    elif args.format == "csv":
        _emit(reporting.violations_to_csv(report.violations), args.output)
    else:
        lines = [
            f"claim: {report.claim.value}",
            f"points checked: {report.points_checked}",
            f"violations: {len(report.violations)}",
            f"verdict: {report.verdict.value}",
            f"elapsed: {report.elapsed_s:.2f}s",
        ]
        for ce in report.violations[:20]:
            lines.append(f"  p={ce.p} q={ce.q} s={ce.s} k={ce.k} n={ce.n} witness={ce.witness}")
        if len(report.violations) > 20:
            lines.append(f"  ... {len(report.violations) - 20} more")
        _emit("\n".join(lines) + "\n", args.output)


def _cmd_check(args) -> int:
    spec = claims_mod.claim_by_name(args.claim)
    config = _sweep_config(
        args,
        p_range=(args.p, args.p),
        q_range=(args.q, args.q),
        s_source=(args.s,),
    )
    report = verify_claim(spec.claim, config)
    _report_out(report, args)
    return _verdict_exit(report.verdict)


def _cmd_sweep(args) -> int:
    spec = claims_mod.claim_by_name(args.claim)
    report = verify_claim(spec.claim, _sweep_config(args))
    _report_out(report, args)
    return _verdict_exit(report.verdict)


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
    if args.format == "json":
        _emit(reporting.to_json(doc), args.output)
    elif args.format == "csv":
        _emit(reporting.violations_to_csv(found), args.output)
    else:
        if found:
            lines = [
                f"p={ce.p} q={ce.q} s={ce.s} k={ce.k} n={ce.n} relaxed={ce.relaxed_condition} "
                f"witness={ce.witness}"
                for ce in found
            ]
            _emit("\n".join(lines) + "\n", args.output)
        else:
            _emit("no counterexample within bounds\n", args.output)
    return EXIT_OK if found else EXIT_VIOLATION


def _cmd_examples(args) -> int:
    results = reproduce_examples()
    if args.format == "json":
        _emit(reporting.to_json(reporting.examples_to_dict(results)), args.output)
    elif args.format == "csv":
        _emit(reporting.examples_to_csv(results), args.output)
    else:
        lines = [
            f"example {r.example} (p={r.p}, q={r.q}): {'pass' if r.passed else 'FAIL'}"
            for r in results
        ]
        passed = sum(r.passed for r in results)
        lines.append(f"{passed}/{len(results)} pass")
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VIOLATION


def _cmd_survey(args) -> int:
    report = converse_survey(_sweep_config(args))
    if args.format == "json":
        _emit(reporting.to_json(reporting.survey_to_dict(report)), args.output)
    elif args.format == "csv":
        _emit(reporting.survey_to_csv(report), args.output)
    else:
        lines = [report.note, ""]
        for row in report.rows:
            lines.append(
                f"p={row.p} q={row.q} s={row.s} first violating n={row.smallest_violating_n} "
                f"failing: {', '.join(row.failing_conditions) or '(none)'}"
            )
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_rank(args) -> int:
    rank = rank_of_apparition(SequenceParams(args.p, args.q), args.s, args.bound)
    doc = {
        "kind": "rank-of-apparition",
        "p": args.p,
        "q": args.q,
        "s": args.s,
        "bound": args.bound,
        "rank": rank,
    }
    if args.format == "json":
        _emit(reporting.to_json(doc), args.output)
    elif args.format == "csv":
        _emit(f"p,q,s,bound,rank\n{args.p},{args.q},{args.s},{args.bound},{'' if rank is None else rank}\n", args.output)
    else:
        _emit(f"{'none' if rank is None else rank}\n", args.output)
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
    p_compute.add_argument("--max-terms", type=int, default=DEFAULT_MAX_TERMS)
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
    p_check.add_argument("--kmax", type=int, default=3)
    p_check.add_argument("--nmax", type=int, default=200)
    p_check.add_argument("--tmax", type=int, default=50)
    p_check.add_argument("--mode", choices=["exact", "modular"], default="exact")
    p_check.add_argument("--workers", type=int, default=None)
    p_check.add_argument("--time-budget", type=float, default=None)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
