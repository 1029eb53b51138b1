import pytest

from gfibdiv import claims


@pytest.fixture(autouse=True)
def cold_caches():
    """Start each test with the process-wide caches of claims empty, as a fresh process does."""
    claims._lifted_quotient.cache_clear()
    claims._exact_table.cache_clear()
    claims._prime_power_lemma.cache_clear()
