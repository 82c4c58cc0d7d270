"""The package root's export list."""

import scckm


def test_all_names_are_exported():
    assert len(scckm.__all__) == len(set(scckm.__all__))
    missing = [name for name in scckm.__all__ if not hasattr(scckm, name)]
    assert missing == []
    namespace = {}
    exec("from scckm import *", namespace)
    assert set(scckm.__all__) <= set(namespace)
