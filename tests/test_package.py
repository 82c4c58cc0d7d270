"""The package root's export list."""

import pathlib
import re

import scckm

_SRC = pathlib.Path(scckm.__file__).parent
_ACCEPTANCE = pathlib.Path(__file__).with_name("test_acceptance.py")


def test_all_names_are_exported():
    assert len(scckm.__all__) == len(set(scckm.__all__))
    missing = [name for name in scckm.__all__ if not hasattr(scckm, name)]
    assert missing == []
    namespace = {}
    exec("from scckm import *", namespace)
    assert set(scckm.__all__) <= set(namespace)


def test_every_export_is_used_by_the_simulator_or_the_gate():
    # a use is a whole-word mention in a module other than __init__.py, on a
    # line other than the name's own def or class line, or in the acceptance
    # tests; an export that neither uses is surface with no reader
    lines = [line for path in sorted(_SRC.glob("*.py")) if path.name != "__init__.py"
             for line in path.read_text(encoding="utf-8").splitlines()]
    gate = _ACCEPTANCE.read_text(encoding="utf-8")
    unused = []
    for name in scckm.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not (word.search(gate)
                or any(word.search(line) and not own.match(line) for line in lines)):
            unused.append(name)
    assert unused == []
