"""The oracle module stands alone: it imports the standard library only, and
its oracles agree with one another.

Its imports are read from its source with ast, as test_tracer_names.py reads
the tracer, so a gfibdiv import anywhere in it, even inside a function,
fails here.
"""

import ast
import math
import sys
from pathlib import Path

import oracles

ORACLES = Path(__file__).resolve().parent / "oracles.py"


def imported_modules() -> list[str]:
    """Every module oracles.py imports, at any depth; a relative import as '.' plus its name."""
    modules = []
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    return modules


def test_imports_nothing_from_gfibdiv():
    modules = imported_modules()
    assert "__future__" in modules  # the scan sees the module's imports
    assert not [name for name in modules if name.split(".")[0] == "gfibdiv"], modules
    assert all(name.split(".")[0] in sys.stdlib_module_names for name in modules), modules


def test_matrix_power_matches_exact_values():
    for p in range(-5, 6):
        for q in range(-5, 6):
            gs = oracles.g_values(p, q, 40)
            for m in (1, 2, 9, 97, 10**12 + 39):
                assert [oracles.mat_g_mod(p, q, n, m) for n in range(41)] == [g % m for g in gs], (p, q, m)


def test_zeros_and_ranks_match_exact_values():
    for p in range(-5, 6):
        for q in range(-5, 6):
            gs = oracles.g_values(p, q, 400)
            assert oracles.zero_indices(p, q, 400) == {n for n, g in enumerate(gs) if g == 0}, (p, q)
            for m in range(2, 20):
                # A rank, where one exists, is at most m^2: the states (G_n, G_{n+1}) mod m repeat by then.
                assert oracles.brute_rank(p, q, m) == next((n for n in range(1, m * m + 1) if gs[n] % m == 0), None)


def test_lift_failure_matches_the_statement():
    for p in range(-4, 5):
        for q in range(-4, 5):
            for s in range(2, 9):
                gs = oracles.g_values(p, q, 40 * s)
                want = next((t for t in range(1, 41) if t % s and gs[s * t] % (s * s) == 0), None)
                assert oracles.lift_failure(p, q, s, 40) == want, (p, q, s)


def test_divisibility_failures_match_the_statement():
    for p in range(-3, 4):
        for q in range(-3, 4):
            gs = oracles.g_values(p, q, 4**2 * 10)
            for s, failing in oracles.divisibility_failures(p, q, range(1, 5), 2, 10).items():
                assert set(failing) == oracles.direct_failures("mult-div", gs, s, 2, 10), (p, q, s)
                for k, n in failing:
                    divisor = s**k * abs(gs[n])
                    assert failing[k, n] == (gs[s**k * n] % divisor if divisor else None), (p, q, s, k, n)


def test_brute_factorization_and_residue_pairs():
    for m in range(1, 500):
        pairs = oracles.brute_factorization(m)
        assert math.prod(d**e for d, e in pairs) == m
        assert all(all(d % e for e in range(2, d)) for d, _ in pairs), m
    for s in range(1, 40):
        assert oracles.residue_lemma_pairs(s) == [(a, b) for a in range(s) for b in range(s) if (a * a + 4 * b) % s == 0]
