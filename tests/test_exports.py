"""The package's public names: every entry of gfibdiv.__all__ resolves, once."""

from collections import Counter

import gfibdiv


def test_all_names_resolve_once():
    repeated = [name for name, count in Counter(gfibdiv.__all__).items() if count > 1]
    missing = [name for name in gfibdiv.__all__ if not hasattr(gfibdiv, name)]
    assert (repeated, missing) == ([], [])
