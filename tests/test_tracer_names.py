"""The benchmark's tracer wraps gfibdiv names by (module, attribute).

A refactor that drops one of them breaks every traced benchmark job, so each
pair is checked here.  The tracer's tables are read from its source without
importing or executing it.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_tables() -> dict:
    tables = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("SPANS", "HOT"):
                tables[target.id] = ast.literal_eval(node.value)
    return tables


TABLES = tracer_tables()


def test_tables_found():
    assert set(TABLES) == {"SPANS", "HOT"}
    assert all(TABLES.values())


@pytest.mark.parametrize(
    "module,attr", sorted({(module, attr) for table in TABLES.values() for module, attr, _ in table})
)
def test_wrapped_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"gfibdiv.{module}"), attr, None))
