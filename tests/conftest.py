import pytest

from gfibdiv import claims, sequences, verify


@pytest.fixture(autouse=True)
def cold_caches():
    """Start each test with the process-wide caches of claims empty, as a fresh process does."""
    claims._lifted_quotient.cache_clear()


@pytest.fixture
def no_g_range(monkeypatch):
    """Make g_range raise under its name in each module that walks the sequence.

    claims imports no g_range, so the name is set there too: a table built
    by a conclusion walk would fail the test as well.
    """

    def no_table(*args, **kwargs):
        raise AssertionError("exact table built")

    for module in (sequences, claims, verify):
        monkeypatch.setattr(module, "g_range", no_table, raising=False)
