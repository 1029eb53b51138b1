import ast
import csv
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from importlib import resources

import jsonschema

import gfibdiv
from gfibdiv import claims as claims_mod
from gfibdiv import cli
from gfibdiv.numtheory import factorize

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
GOLDEN = Path(__file__).resolve().parent / "cli_golden"


def load_schema():
    text = resources.files("gfibdiv").joinpath("schemas/cli_output.schema.json").read_text()
    return json.loads(text)


SCHEMA = load_schema()


def declared_entry_point():
    """The ``gfibdiv`` target declared under ``[project.scripts]``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["gfibdiv"]


def run_main(argv, capsys):
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def run_json(argv, capsys):
    code, out, err = run_main(argv + ["--format", "json"], capsys)
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return code, doc


class TestCompute:
    def test_exact_value(self, capsys):
        code, out, _ = run_main(["compute", "-p", "4", "-q", "1", "-n", "10"], capsys)
        assert code == 0
        assert out.strip() == "416020"

    def test_modular_value(self, capsys):
        n = str(10**18)
        code, out, _ = run_main(["compute", "-p", "1", "-q", "1", "-n", n, "--mod", "12"], capsys)
        assert code == 0
        assert out.strip() == "3"

    def test_range(self, capsys):
        code, out, _ = run_main(["compute", "-p", "1", "-q", "2", "--range", "5"], capsys)
        assert code == 0
        assert out.split() == ["0", "1", "1", "3", "5", "11"]

    def test_huge_exact_hits_resource_ceiling(self, capsys):
        code, _, err = run_main(["compute", "-p", "1", "-q", "1", "-n", str(10**18)], capsys)
        assert code == cli.EXIT_RESOURCE
        assert "--mod" in err

    def test_malformed_index(self, capsys):
        code, _, err = run_main(["compute", "-p", "1", "-q", "1", "-n", "12x"], capsys)
        assert code == cli.EXIT_INPUT
        assert "error" in err

    def test_index_of_any_width(self, capsys):
        nines = "9" * 5000  # past int()'s 4,300-digit limit on strings
        code, out, _ = run_main(["compute", "-p", "1", "-q", "1", "-n", nines, "--mod", "7"], capsys)
        assert (code, out) == (0, "1\n")  # the Pisano period of 7 is 16, and 10^5000 - 1 = 15 (mod 16)
        code, out, _ = run_main(["compute", "-p", "1", "-q", "1", "-n", "0" + nines, "--mod", "7", "--format", "csv"], capsys)
        assert (code, out) == (0, f"n,value\n{nines},1\n")
        code, out, err = run_main(["compute", "-p", "1", "-q", "1", "-n", nines], capsys)
        assert (code, out) == (cli.EXIT_RESOURCE, "")
        assert f"n={nines} exceeds" in err

    @pytest.mark.parametrize("typed,parsed", [(" +07", "7"), ("0", "0"), ("-000", "0"), ("\u0663", "3")])
    def test_echoes_the_parsed_index(self, capsys, typed, parsed):
        value = {"7": 13, "0": 0, "3": 2}[parsed]
        code, out, _ = run_main(["compute", "-p", "1", "-q", "1", "-n", typed, "--format", "csv"], capsys)
        assert (code, out) == (0, f"n,value\n{parsed},{value}\n")
        code, doc = run_json(["compute", "-p", "1", "-q", "1", "-n", typed, "--mod", "100"], capsys)
        assert (code, doc["n"], doc["value"]) == (0, parsed, value)

    @pytest.mark.parametrize("typed", ["\u00b2", "-7", "1_000", ""])
    def test_bad_index_rejected(self, capsys, typed):
        code, out, err = run_main(["compute", "-p", "1", "-q", "1", "-n", typed], capsys)
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert "index" in err

    def test_zero_modulus(self, capsys):
        code, _, _ = run_main(["compute", "-p", "1", "-q", "1", "-n", "5", "--mod", "0"], capsys)
        assert code == cli.EXIT_INPUT

    @pytest.mark.parametrize("mod", [1, 7, 20, 10**12 + 39])
    def test_modular_range_matches_g_mod(self, capsys, mod):
        code, out, _ = run_main(
            ["compute", "-p", "-3", "-q", "5", "--range", "200", "--mod", str(mod)], capsys
        )
        assert code == 0
        params = gfibdiv.SequenceParams(-3, 5)
        assert out.split() == [str(gfibdiv.g_mod(params, n, mod)) for n in range(201)]

    @pytest.mark.parametrize("mod", [[], ["--mod", "7"]])
    def test_negative_range_rejected(self, capsys, mod):
        code, out, err = run_main(["compute", "-p", "1", "-q", "1", "--range", "-1"] + mod, capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert "--range" in err

    @pytest.mark.parametrize("mod", [[], ["--mod", "7"]])
    def test_range_over_the_term_ceiling(self, capsys, mod):
        # --max-terms bounds every --range, modular or exact, before any term is computed.
        argv = ["compute", "-p", "1", "-q", "1", "--max-terms", "10"] + mod
        start = time.perf_counter()
        code, out, err = run_main(argv + ["--range", "2000000"], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (cli.EXIT_RESOURCE, "")
        assert err == "resource limit: --range 2000000 exceeds the 10-term ceiling (--max-terms)\n"
        code, out, _ = run_main(argv + ["--range", "9"], capsys)
        assert code == 0 and len(out.split()) == 10

    def test_negative_max_terms_rejected(self, capsys):
        code, out, err = run_main(["compute", "-p", "1", "-q", "1", "-n", "10", "--max-terms", "-5"], capsys)
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert "--max-terms" in err

    def test_json_schema(self, capsys):
        code, doc = run_json(["compute", "-p", "1", "-q", "1", "-n", "10"], capsys)
        assert code == 0
        assert doc == {"kind": "compute", "p": 1, "q": 1, "n": "10", "value": 55}

    def test_csv(self, capsys):
        code, out, _ = run_main(
            ["compute", "-p", "1", "-q", "1", "--range", "3", "--format", "csv"], capsys
        )
        assert code == 0
        assert out.splitlines() == ["n,value", "0,0", "1,1", "2,1", "3,2"]


class TestLongIntegers:
    """Exact values longer than the 4,300 digits str() of an int gives by default."""

    SEARCH = ["search", "--claim", "thm1.1-multdiv", "--relax", "s-div-r", "--pmin", "10", "--pmax", "10",
              "--qmin", "1", "--qmax", "1", "--s-source", "7", "--kmax", "3", "--nmax", "20", "--all"]

    def run(self, argv, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, err = run_main(argv, capsys)
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit  # lifted only while the report is written
        return out

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_compute(self, capsys, fmt):
        out = self.run(["compute", "-p", "1", "-q", "1", "-n", "30000", "--format", fmt], capsys)
        with cli._any_int_digits():
            value = gfibdiv.g_exact(gfibdiv.SequenceParams(1, 1), 30000)
            assert len(str(value)) == 6270
            if fmt == "json":
                assert json.loads(out) == {"kind": "compute", "p": 1, "q": 1, "n": "30000", "value": value}
            else:
                assert out == {"text": f"{value}\n", "csv": f"n,value\n30000,{value}\n"}[fmt]

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_search_witness(self, capsys, fmt):
        out = self.run(self.SEARCH + ["--format", fmt], capsys)
        with cli._any_int_digits():
            if fmt == "json":
                found = [(ce["k"], ce["n"], ce["witness"]) for ce in json.loads(out)["counterexamples"]]
            elif fmt == "csv":
                found = [(int(row["k"]), int(row["n"]), json.loads(row["witness"])) for row in csv.DictReader(out.splitlines())]
            else:
                lines = [re.fullmatch(r"p=10 q=1 s=7 k=(\d+) n=(\d+) relaxed=s-div-r witness=(.*)", line) for line in out.splitlines()]
                found = [(int(m[1]), int(m[2]), ast.literal_eval(m[3])) for m in lines]
            params = gfibdiv.SequenceParams(10, 1)
            assert found
            for k, n, witness in found:
                g_n, d = gfibdiv.g_exact(params, n), 7**k
                assert witness == {"divisor": d * g_n, "index": d * n, "g_n": g_n, "dividend_g": gfibdiv.g_exact(params, d * n)}
            assert max(len(str(witness["dividend_g"])) for _, _, witness in found) > 4300

    def test_compute_at_the_term_ceiling(self, capsys):
        # 999,999 + 1 terms is the default ceiling exactly; fast doubling answers in about a second.
        out = self.run(["compute", "-p", "1", "-q", "1", "-n", "999999", "--format", "csv"], capsys)
        header, row = out.splitlines()
        n, value = row.split(",")
        assert (header, n) == ("n,value", "999999")
        assert value[-18:] == f"{gfibdiv.g_mod(gfibdiv.SequenceParams(1, 1), 999999, 10**18):018d}"
        code, out, err = run_main(["compute", "-p", "1", "-q", "1", "-n", "1000000"], capsys)
        assert (code, out) == (cli.EXIT_RESOURCE, "")
        assert err == "resource limit: exact evaluation at n=1000000 exceeds the 1000000-term ceiling; use --mod\n"

    def test_arguments_keep_the_limit(self, capsys):
        code, out, err = run_main(["compute", "-p", "1" * 5000, "-q", "1", "-n", "3"], capsys)
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert "invalid int value" in err


class TestClaims:
    def test_list_json(self, capsys):
        code, doc = run_json(["claims", "list"], capsys)
        assert code == 0
        assert len(doc["claims"]) == 13
        names = {entry["name"] for entry in doc["claims"]}
        assert "thm1.1-multdiv" in names and "remark-scaled" in names

    def test_list_text_has_citations(self, capsys):
        code, out, _ = run_main(["claims", "list"], capsys)
        assert code == 0
        assert "Theorem 1.1(1)" in out and "Remark 1.8" in out


class TestCheck:
    def test_pass(self, capsys):
        code, doc = run_json(
            ["check", "--claim", "thm1.1-equiv", "-p", "1", "-q", "1", "-s", "5"], capsys
        )
        assert code == 0
        assert doc["verdict"] == "all-pass"

    def test_time_budget_stops_between_exponents(self, capsys):
        # One (p, q, s) whose k-th modulus 5^k costs more with each k: the
        # budget is checked before each k, not only before the cell and s.
        start = time.perf_counter()
        code, out, err = run_main(
            ["check", "--claim", "cor-fibonacci", "-p", "1", "-q", "1", "-s", "5", "--kmax", "800", "--nmax", "1",
             "--mode", "modular", "--time-budget", "0.1"],
            capsys,
        )
        assert time.perf_counter() - start < 3.0
        assert (code, out) == (cli.EXIT_RESOURCE, "")
        assert re.fullmatch(r"resource limit: sweep stopped after .* at \(p, q, s, k\) = \(1, 1, 5, \d+\), over .*\n", err)

    def test_time_budget_stops_within_one_modulus(self, capsys):
        # One k whose modulus 65537 = r walks 3 * 10^6 + 1 indices, several
        # seconds of residues: the budget is checked between blocks of them.
        # The prime 65537 is past the residue lemma's cap, so the stream runs.
        start = time.perf_counter()
        code, out, err = run_main(
            ["check", "--claim", "thm1.1-multdiv", "-p", "1", "-q", "16384", "-s", "65537", "--kmax", "1",
             "--nmax", "3000000", "--mode", "modular", "--time-budget", "0.1"],
            capsys,
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (cli.EXIT_RESOURCE, "")
        assert re.fullmatch(
            r"resource limit: sweep stopped after .* at \(p, q, s, k\) = \(1, 16384, 65537, 1\), over .*\n", err
        )

    def test_time_budget_stops_the_exact_table(self, capsys):
        # Exact mode walks all 3,000,001 indices, with no certificate, longer
        # than the budget; the budget is checked between blocks of indices.
        start = time.perf_counter()
        code, out, err = run_main(
            ["check", "--claim", "thm1.1-equiv", "-p", "1", "-q", "1", "-s", "5", "--kmax", "1", "--nmax", "3000000",
             "--mode", "exact", "--time-budget", "0.1"],
            capsys,
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (cli.EXIT_RESOURCE, "")
        assert re.fullmatch(r"resource limit: sweep stopped after .* at \(p, q, s, k\) = \(1, 1, 5, 1\), over .*\n", err)

    def test_time_budget_stops_the_lift_condition(self, capsys):
        # The lift condition at s = 5 holds for every t <= 2 * 10^6, several
        # seconds of g_mod calls; it checks the budget every few thousand t.
        start = time.perf_counter()
        code, out, err = run_main(
            ["check", "--claim", "thm1.2-lifted-equiv", "-p", "1", "-q", "1", "-s", "5", "--tmax", "2000000",
             "--time-budget", "0.1"],
            capsys,
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (cli.EXIT_RESOURCE, "")
        assert re.fullmatch(r"resource limit: sweep stopped after .* at \(p, q, s\) = \(1, 1, 5\), over .*\n", err)

    def test_never_applicable(self, capsys):
        code, doc = run_json(
            ["check", "--claim", "thm1.1-equiv", "-p", "3", "-q", "9", "-s", "3"], capsys
        )
        assert code == cli.EXIT_NEVER_APPLICABLE
        assert doc["verdict"] == "hypothesis-never-applicable"

    def test_unknown_claim(self, capsys):
        code, _, err = run_main(
            ["check", "--claim", "bogus", "-p", "1", "-q", "1", "-s", "5"], capsys
        )
        assert code == cli.EXIT_INPUT
        assert "unknown claim" in err

    def test_primality_beyond_proven_range_rejected(self, capsys):
        # r = 1 + 4q = s = psi_12, a strong pseudoprime to all twelve bases.
        psi12 = "318665857834031151167461"
        code, out, err = run_main(
            ["check", "--claim", "cor-prime-r", "-p", "1", "-q", "79666464458507787791865",
             "-s", psi12, "--kmax", "1", "--nmax", "10"],
            capsys,
        )
        assert code == cli.EXIT_INPUT
        assert psi12 in err and out == ""

    @pytest.mark.parametrize(
        "p,q,verdict",
        [
            ("1", "79666464458507787791865", "all-pass"),  # s = r, p odd, (p, q) = 1: case 1 holds
            ("2", "2", "hypothesis-never-applicable"),  # (p, q) = 2 rules out the prime case
        ],
    )
    def test_primality_not_needed_is_not_tested(self, capsys, p, q, verdict):
        psi12 = "318665857834031151167461"
        code, doc = run_json(
            ["check", "--claim", "thm1.1-equiv", "-p", p, "-q", q, "-s", psi12, "--kmax", "1", "--nmax", "10"],
            capsys,
        )
        assert doc["verdict"] == verdict
        assert code == (cli.EXIT_OK if verdict == "all-pass" else cli.EXIT_NEVER_APPLICABLE)

    def test_large_prime_s_keeps_the_stream(self, capsys, monkeypatch):
        # s = r = 10^18 + 9 is prime; factoring it by trial division would take
        # about 10^9 steps, so the check gives up after len(ns) of them and
        # streams residues.
        factored = []

        def recording(m, *, max_trials):
            assert max_trials <= 201  # the check's indices 0..200
            factored.append(factorize(m, max_trials=max_trials))
            return factored[-1]

        monkeypatch.setattr(claims_mod, "factorize", recording)
        s = 10**18 + 9
        start = time.perf_counter()
        code, doc = run_json(
            ["check", "--claim", "thm1.1-equiv", "-p", "1", "-q", str((s - 1) // 4), "-s", str(s),
             "--mode", "modular", "--workers", "1"],
            capsys,
        )
        assert time.perf_counter() - start < 2.0
        assert code == 0 and doc["verdict"] == "all-pass"
        assert factored == [None]

    def test_sweep_option_defaults(self):
        parser = cli.build_parser()
        check = parser.parse_args(["check", "--claim", "x", "-p", "1", "-q", "1", "-s", "5"])
        sweep = parser.parse_args(
            ["sweep", "--claim", "x", "--pmin", "0", "--pmax", "0", "--qmin", "0", "--qmax", "0"]
        )
        for args, k_max, n_max in ((check, 3, 200), (sweep, 3, 40)):
            assert (args.kmax, args.nmax, args.tmax, args.mode) == (k_max, n_max, 50, "exact")
            assert args.workers is None and args.time_budget is None


class TestSweep:
    ARGS = [
        "sweep", "--claim", "thm1.2-base-equiv",
        "--pmin", "-3", "--pmax", "3", "--qmin", "-3", "--qmax", "3",
        "--nmax", "30", "--workers", "1",
    ]

    def test_all_pass(self, capsys):
        code, doc = run_json(self.ARGS, capsys)
        assert code == 0
        assert doc["verdict"] == "all-pass"
        assert doc["violation_count"] == 0

    def test_byte_identical_across_workers(self, capsys):
        _, out1, _ = run_main(self.ARGS[:-1] + ["1", "--format", "json"], capsys)
        _, out2, _ = run_main(self.ARGS[:-1] + ["2", "--format", "json"], capsys)
        assert out1 == out2

    def test_time_budget_exit(self, capsys):
        code, _, err = run_main(self.ARGS + ["--time-budget", "0.0"], capsys)
        assert code == cli.EXIT_RESOURCE
        assert "budget" in err

    def test_explicit_s_source(self, capsys):
        code, doc = run_json(
            [
                "sweep", "--claim", "cor-fibonacci",
                "--pmin", "1", "--pmax", "1", "--qmin", "1", "--qmax", "1",
                "--s-source", "5", "--nmax", "25", "--workers", "1",
            ],
            capsys,
        )
        assert code == 0
        assert doc["config"]["s_source"] == [5]

    def test_bad_s_source(self, capsys):
        code, _, _ = run_main(
            self.ARGS[:3] + ["--pmin", "1", "--pmax", "1", "--qmin", "1", "--qmax", "1",
                             "--s-source", "2;3"],
            capsys,
        )
        assert code == cli.EXIT_INPUT

    def test_violation_exit(self, capsys):
        code, doc = run_json(
            ["sweep", "--claim", "thm1.2-lifted-equiv", "--pmin", "-10", "--pmax", "-10",
             "--qmin", "-1", "--qmax", "-1", "--s-source", "12", "--kmax", "2", "--nmax", "48",
             "--tmax", "3", "--workers", "1"],
            capsys,
        )
        assert code == cli.EXIT_VIOLATION
        assert doc["verdict"] == "violations"
        assert doc["violation_count"] == 1

    @pytest.mark.parametrize(
        "flag,value,field",
        [
            ("--s-source", "-5", "s_source"),
            ("--s-source", "3,0", "s_source"),
            ("--kmax", "-1", "k_max"),
            ("--nmax", "-1", "n_max"),
            ("--tmax", "0", "t_max"),
            ("--workers", "0", "worker_count"),
            ("--workers", "-2", "worker_count"),
            ("--pmax", "-4", "p_range"),
            ("--qmax", "-4", "q_range"),
            ("--time-budget", "-1", "time_budget_s"),
            ("--time-budget", "nan", "time_budget_s"),
        ],
    )
    def test_bad_bound_rejected(self, capsys, flag, value, field):
        code, _, err = run_main(self.ARGS + [flag, value], capsys)
        assert code == cli.EXIT_INPUT
        assert field in err

    def test_bad_workers_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GFIBDIV_WORKERS", "abc")
        code, _, err = run_main(self.ARGS[:-2], capsys)
        assert code == cli.EXIT_INPUT
        assert "GFIBDIV_WORKERS" in err


    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_workers_env(self, capsys, monkeypatch, value):
        monkeypatch.setenv("GFIBDIV_WORKERS", value)
        code, _, err = run_main(self.ARGS[:-2], capsys)
        assert code == cli.EXIT_INPUT
        assert "worker_count" in err


class TestSearch:
    BOUNDS = ["--pmin", "-6", "--pmax", "6", "--qmin", "-6", "--qmax", "6",
              "--s-source", "1,2,3,4,5,6,7,8,9,10", "--kmax", "2", "--nmax", "12"]

    def test_found(self, capsys):
        code, doc = run_json(
            ["search", "--claim", "thm1.1-equiv", "--relax", "gcd-pq"] + self.BOUNDS, capsys
        )
        assert code == 0
        assert doc["found"] is True
        assert len(doc["counterexamples"]) == 1
        ce = doc["counterexamples"][0]
        assert ce["relaxed_condition"] == "gcd-pq"

    def test_not_found(self, capsys):
        code, doc = run_json(
            ["search", "--claim", "thm1.1-equiv", "--relax", "gcd-pq",
             "--pmin", "1", "--pmax", "1", "--qmin", "1", "--qmax", "1",
             "--s-source", "5", "--kmax", "1", "--nmax", "5"],
            capsys,
        )
        assert code == cli.EXIT_VIOLATION
        assert doc["found"] is False

    @pytest.mark.parametrize("every", [[], ["--all"]])
    def test_time_budget_exit(self, capsys, every):
        code, out, err = run_main(
            ["search", "--claim", "thm1.1-equiv", "--relax", "gcd-pq", "--pmin", "-3", "--pmax", "3",
             "--qmin", "-3", "--qmax", "3", "--time-budget", "0"] + every,
            capsys,
        )
        assert code == cli.EXIT_RESOURCE
        assert "search stopped after" in err and "budget" in err and out == ""

    def test_time_budget_stops_writing_witnesses(self, capsys):
        # The walk of s = 2 finds 13,334 failing n <= 20000 at once; stating
        # two exact values for each takes seconds, so the budget is checked
        # before each counterexample is written out.
        start = time.perf_counter()
        code, out, err = run_main(
            ["search", "--claim", "thm1.1-multdiv", "--relax", "s-div-r", "--all", "--pmin", "1", "--pmax", "1",
             "--qmin", "1", "--qmax", "1", "--s-source", "2", "--kmax", "1", "--nmax", "20000",
             "--time-budget", "0.1"],
            capsys,
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (cli.EXIT_RESOURCE, "")
        assert re.fullmatch(r"resource limit: search stopped after .* at \(p, q, s, k\) = \(1, 1, 2, 1\), over .*\n", err)

    @pytest.mark.parametrize("flag,field", [("--pmax", "p_range"), ("--qmax", "q_range")])
    def test_empty_range_rejected(self, capsys, flag, field):
        code, out, err = run_main(
            ["search", "--claim", "thm1.1-equiv", "--relax", "gcd-pq"] + self.BOUNDS + [flag, "-7"], capsys
        )
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert f"{field} must not be empty" in err

    def test_unknown_condition(self, capsys):
        code, _, err = run_main(
            ["search", "--claim", "thm1.1-equiv", "--relax", "bogus"] + self.BOUNDS, capsys
        )
        assert code == cli.EXIT_INPUT
        assert "not a condition" in err


class TestExamples:
    def test_all_pass(self, capsys):
        code, doc = run_json(["examples"], capsys)
        assert code == 0
        assert doc["all_passed"] is True
        assert len(doc["results"]) == 12

    def test_text_summary(self, capsys):
        code, out, _ = run_main(["examples"], capsys)
        assert code == 0
        assert "12/12 pass" in out


class TestSurvey:
    def test_json_schema(self, capsys):
        code, doc = run_json(
            ["survey", "--pmin", "4", "--pmax", "4", "--qmin", "1", "--qmax", "1",
             "--nmax", "30"],
            capsys,
        )
        assert code == 0
        rows = {(r["p"], r["q"], r["s"]): r for r in doc["rows"]}
        assert rows[(4, 1, 20)]["smallest_violating_n"] == 10


    def test_time_budget_exit(self, capsys):
        code, out, err = run_main(
            ["survey", "--pmin", "-3", "--pmax", "3", "--qmin", "-3", "--qmax", "3", "--time-budget", "0"],
            capsys,
        )
        assert code == cli.EXIT_RESOURCE
        assert "survey stopped after" in err and "budget" in err and out == ""

    @pytest.mark.parametrize(
        "flag,value,field",
        [
            ("--pmax", "-4", "p_range"),
            ("--qmax", "-4", "q_range"),
            ("--time-budget", "-1", "time_budget_s"),
            ("--time-budget", "nan", "time_budget_s"),
        ],
    )
    def test_bad_bound_rejected(self, capsys, flag, value, field):
        code, out, err = run_main(
            ["survey", "--pmin", "-3", "--pmax", "3", "--qmin", "-3", "--qmax", "3", flag, value], capsys
        )
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert field in err

    def test_time_budget_stops_the_survey_within_one_modulus(self, capsys):
        # The survey's one modulus 5 walks 3,000,001 indices in exact mode,
        # past the budget; its walk checks the budget before k = 1 and between blocks.
        start = time.perf_counter()
        code, out, err = run_main(
            ["survey", "--pmin", "1", "--pmax", "1", "--qmin", "1", "--qmax", "1", "--nmax", "3000000",
             "--mode", "exact", "--time-budget", "0.1"],
            capsys,
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (cli.EXIT_RESOURCE, "")
        assert re.fullmatch(r"resource limit: survey stopped after .* at \(p, q, s, k\) = \(1, 1, 5, 1\), over .*\n", err)


class TestRank:
    def test_text(self, capsys):
        code, out, _ = run_main(["rank", "-p", "3", "-q", "4", "-s", "5", "--bound", "100"], capsys)
        assert code == 0
        assert out.strip() == "5"

    def test_json_none(self, capsys):
        code, doc = run_json(["rank", "-p", "1", "-q", "1", "-s", "7", "--bound", "5"], capsys)
        assert code == 0
        assert doc["rank"] is None

    def test_huge_bound_stops_at_the_orbit(self, capsys):
        # 2 never divides a Jacobsthal number J_n, n >= 1, since 2 | q and 2 !| p: no scan runs.
        for s in ["2", "2000000"]:
            start = time.monotonic()
            code, out, _ = run_main(["rank", "-p", "1", "-q", "2", "-s", s, "--bound", "1000000000000"], capsys)
            assert (code, out.strip()) == (0, "none"), s
            assert time.monotonic() - start < 2, s

    def test_negative_bound_rejected(self, capsys):
        code, out, err = run_main(["rank", "-p", "1", "-q", "1", "-s", "7", "--bound", "-1"], capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert "--bound" in err


class TestWriters:
    """Exact text, JSON and CSV output of every command, pinned in tests/cli_golden/<case>.<format>."""

    CASES = {
        "compute-n": (["compute", "-p", "1", "-q", "1", "-n", "10"], 0),
        "compute-range": (["compute", "-p", "3", "-q", "2", "--range", "6"], 0),
        "compute-mod": (["compute", "-p", "1", "-q", "1", "-n", "100", "--mod", "7"], 0),
        "compute-range-mod": (["compute", "-p", "1", "-q", "1", "--range", "8", "--mod", "5"], 0),
        "claims-list": (["claims", "list"], 0),
        "check-pass": (["check", "--claim", "cor-fibonacci", "-p", "1", "-q", "1", "-s", "5", "--nmax", "30", "--workers", "1"], 0),
        "check-violations": (
            ["check", "--claim", "thm1.2-lifted-equiv", "-p", "-10", "-q", "-1", "-s", "12",
             "--kmax", "2", "--nmax", "1500", "--tmax", "3", "--workers", "1"],
            1,
        ),
        "sweep": (
            ["sweep", "--claim", "thm1.2-lifted-equiv", "--pmin", "-10", "--pmax", "-10", "--qmin", "-1",
             "--qmax", "-1", "--s-source", "12", "--kmax", "2", "--nmax", "100", "--tmax", "3", "--workers", "1"],
            1,
        ),
        "search-found": (
            ["search", "--claim", "thm1.1-equiv", "--relax", "gcd-pq", "--pmin", "2", "--pmax", "3",
             "--qmin", "6", "--qmax", "9", "--s-source", "3", "--kmax", "1", "--nmax", "6", "--all"],
            0,
        ),
        "search-divisibility": (
            ["search", "--claim", "cor-fibonacci", "--relax", "s-eq-5", "--pmin", "1", "--pmax", "1",
             "--qmin", "1", "--qmax", "1", "--s-source", "2", "--kmax", "1", "--nmax", "4", "--all"],
            0,
        ),
        "search-not-found": (
            ["search", "--claim", "thm1.1-equiv", "--relax", "gcd-pq", "--pmin", "1", "--pmax", "1",
             "--qmin", "1", "--qmax", "1", "--s-source", "5", "--kmax", "1", "--nmax", "5"],
            1,
        ),
        "examples": (["examples"], 0),
        "survey": (["survey", "--pmin", "4", "--pmax", "4", "--qmin", "1", "--qmax", "2", "--nmax", "30"], 0),
        "rank": (["rank", "-p", "1", "-q", "1", "-s", "8", "--bound", "100"], 0),
        "rank-none": (["rank", "-p", "1", "-q", "1", "-s", "7", "--bound", "5"], 0),
    }

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_output_pinned(self, capsys, case, fmt):
        argv, want_code = self.CASES[case]
        code, out, err = run_main(argv + ["--format", fmt], capsys)
        assert (code, err) == (want_code, "")
        # The text report's elapsed time is the one line that is not reproducible.
        out = re.sub(r"^elapsed: \d+\.\d\ds$", "elapsed: <seconds>", out, flags=re.M)
        assert out == (GOLDEN / f"{case}.{fmt}").read_text(encoding="utf-8")


class TestArgHandling:
    def test_unknown_command(self, capsys):
        code, _, _ = run_main(["frobnicate"], capsys)
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run_main(["compute", "-p", "1", "-q", "1", "-n", "1", "--bogus"], capsys)
        assert code == 2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run_main(
            ["compute", "-p", "1", "-q", "1", "-n", "10", "--format", "json",
             "--output", str(target)],
            capsys,
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["value"] == 55

    def test_unwritable_output_is_an_input_error(self, capsys, tmp_path):
        code, out, err = run_main(["examples", "--output", str(tmp_path / "missing" / "x.json")], capsys)
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err.startswith("error: cannot write --output ") and "Traceback" not in err

    def test_bad_format_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GFIBDIV_FORMAT", "xml")
        code, out, err = run_main(["examples"], capsys)
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert "GFIBDIV_FORMAT" in err
        # An explicit --format does not read the variable.
        assert run_main(["examples", "--format", "csv"], capsys)[0] == 0

    def test_format_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("GFIBDIV_FORMAT", "json")
        code, out, _ = run_main(["compute", "-p", "1", "-q", "1", "-n", "10"], capsys)
        assert code == 0
        assert json.loads(out)["value"] == 55

    def test_workers_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("GFIBDIV_WORKERS", "1")
        code, doc = run_json(
            ["check", "--claim", "cor-pell", "-p", "2", "-q", "1", "-s", "2", "--nmax", "30"],
            capsys,
        )
        assert code == 0
        assert doc["verdict"] == "all-pass"


class TestEntryPoint:
    def test_console_script_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gfibdiv.cli", "compute", "-p", "1", "-q", "1", "-n", "12"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "144"

    def test_console_script_binary(self, tmp_path):
        # Build the launcher an installer generates for the declared entry
        # point, so the console script runs by name from a plain checkout.
        module, _, func = declared_entry_point().partition(":")
        launcher = tmp_path / "gfibdiv"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {func}\n"
            f"sys.exit({func}())\n"
        )
        launcher.chmod(0o755)
        src_dir = str(Path(gfibdiv.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join(filter(None, [str(tmp_path), env.get("PATH")]))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            ["gfibdiv", "examples"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert "12/12 pass" in proc.stdout

    @staticmethod
    def loaded_pool_modules(argv: list[str]) -> str:
        """Which of the pool's modules, dataclasses and inspect a CLI run on two CPUs loads."""
        code = (
            "import os, sys\n"
            "os.cpu_count = lambda: 2\n"
            "from gfibdiv import cli\n"
            f"cli.main({argv!r})\n"
            "print(sorted({'concurrent.futures', 'multiprocessing', 'dataclasses', 'inspect'} & set(sys.modules)))\n"
        )
        src_dir = str(Path(gfibdiv.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    def test_serial_run_loads_no_pool(self):
        # The process pool's modules load only when a sweep hands cells to a
        # pool, and no run loads dataclasses or the inspect module it pulls in.
        argv = ["check", "--claim", "cor-fibonacci", "-p", "1", "-q", "1", "-s", "5", "--workers", "1"]
        assert self.loaded_pool_modules(argv) == "[]"

    def test_short_parallel_run_loads_no_pool(self):
        # Two workers, but the sweep ends long before the hand-off to a pool.
        argv = ["sweep", "--claim", "thm1.1-equiv", "--pmin", "-2", "--pmax", "2", "--qmin", "-2", "--qmax", "2",
                "--workers", "2"]
        assert self.loaded_pool_modules(argv) == "[]"

    @pytest.mark.skipif(
        shutil.which("gfibdiv") is None, reason="gfibdiv console script not installed"
    )
    def test_installed_console_script_binary(self):
        proc = subprocess.run(
            [shutil.which("gfibdiv"), "examples"], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert "12/12 pass" in proc.stdout
