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
from gfibdiv.numtheory import prime_factors

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
            factored.append(prime_factors(m, max_trials=max_trials))
            return factored[-1]

        monkeypatch.setattr(claims_mod, "prime_factors", recording)
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


class TestRank:
    def test_text(self, capsys):
        code, out, _ = run_main(["rank", "-p", "3", "-q", "4", "-s", "5", "--bound", "100"], capsys)
        assert code == 0
        assert out.strip() == "5"

    def test_json_none(self, capsys):
        code, doc = run_json(["rank", "-p", "1", "-q", "1", "-s", "7", "--bound", "5"], capsys)
        assert code == 0
        assert doc["rank"] is None

    def test_negative_bound_rejected(self, capsys):
        code, out, err = run_main(["rank", "-p", "1", "-q", "1", "-s", "7", "--bound", "-1"], capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert "--bound" in err


class TestWriters:
    """Exact text and CSV output of every command, pinned in tests/cli_golden/<case>.<format>."""

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

    @pytest.mark.parametrize("fmt", ["text", "csv"])
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

    def test_serial_run_loads_no_pool(self):
        # The process pool's modules load only when a sweep runs in parallel.
        code = (
            "import sys\n"
            "from gfibdiv import cli\n"
            "cli.main(['check', '--claim', 'cor-fibonacci', '-p', '1', '-q', '1', '-s', '5', '--workers', '1'])\n"
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n"
        )
        src_dir = str(Path(gfibdiv.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.skipif(
        shutil.which("gfibdiv") is None, reason="gfibdiv console script not installed"
    )
    def test_installed_console_script_binary(self):
        proc = subprocess.run(
            [shutil.which("gfibdiv"), "examples"], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert "12/12 pass" in proc.stdout
