import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from importlib import resources

import jsonschema

import gfibdiv
from gfibdiv import cli

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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

    @pytest.mark.skipif(
        shutil.which("gfibdiv") is None, reason="gfibdiv console script not installed"
    )
    def test_installed_console_script_binary(self):
        proc = subprocess.run(
            [shutil.which("gfibdiv"), "examples"], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert "12/12 pass" in proc.stdout
