"""README's API section names what the package exports, and no removed name.

Every name in the first column of the "Main entry points" table resolves on
mhdlab and is in __all__. Every name listed under "Removed names" is gone
from its module: a dotted name from the module or class it names, a bare
name from every module of the package. A removed parameter, written with
its call's parentheses, is not a name and is not checked here.
"""
import importlib
import re

import pytest

import mhdlab
from conftest import SRC

README = (SRC.parent / "README.md").read_text()
MODULES = {p.stem: importlib.import_module(f"mhdlab.{p.stem}")
           for p in sorted((SRC / "mhdlab").glob("*.py")) if not p.stem.startswith("__")}


def _section(start: str, stop: str) -> str:
    body = README.split(start, 1)[1]
    return body.split(stop, 1)[0]


def _table_names():
    """The dotted names in the table's first column, arguments dropped."""
    names = []
    for line in _section("Main entry points:\n\n", "\n\n").splitlines():
        cells = line.split("|")
        if len(cells) < 3 or cells[1].strip() in ("call", "---"):
            continue
        names += [re.match(r"[\w.]+", span).group() for span in re.findall(r"`([^`]+)`", cells[1])]
    return names


def _removed_names():
    """The backquoted names before each bullet's first colon, parameters left out."""
    bullets = _section("Removed names:", "\n## ").split("\n- ")[1:]
    spans = [re.findall(r"`([^`]+)`", bullet.split(": ", 1)[0]) for bullet in bullets]
    return [name for group in spans for name in group if "(" not in name]


def test_the_sections_list_names():
    assert len(_table_names()) >= 15
    assert len(_removed_names()) >= 10


@pytest.mark.parametrize("name", _table_names())
def test_every_table_name_is_exported(name):
    head, *attrs = name.split(".")
    assert head in mhdlab.__all__
    obj = getattr(mhdlab, head)
    for attr in attrs:
        obj = getattr(obj, attr)


@pytest.mark.parametrize("name", _removed_names())
def test_every_removed_name_is_gone(name):
    head, *attrs = name.split(".")
    if head in MODULES:
        owners, attrs = [MODULES[head]], attrs
    elif attrs:
        owners = [getattr(m, head) for m in MODULES.values() if hasattr(m, head)]
        assert owners, f"{head} names no module and no class of the package"
    else:
        owners = list(MODULES.values())
    for owner in owners:
        *path, last = attrs or [head]
        for attr in path:
            owner = getattr(owner, attr)
        assert not hasattr(owner, last), f"{name} is still defined on {owner!r}"
