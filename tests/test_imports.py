"""Every name a package module imports is used by that module.

A name imported into a module of src/mhdlab must be referenced in that
module's code, or, in the package's __init__, be listed in __all__.
Re-exports through any other module are not allowed, so deleting code
cannot leave a stale import behind unnoticed. The CLI, the config
reader, the classifier and the solver import no NumPy themselves: NumPy
stays in dispersion, hadamard and vacuum_green. No module imports gc. No
module raises a builtin exception class by name: a failure the package
reports is one of the errors.py types.
Every module-level _name a module defines is used by that module or
imported by another. A value is built without its constructor's checks
(object.__new__) only in domain.assemble and SweepSpec.points, and
assemble builds only frozen dataclasses.
"""
import ast
import builtins
import dataclasses
import importlib

import pytest

from conftest import SRC

MODULES = sorted((SRC / "mhdlab").glob("*.py"))


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        used |= _exported_names(tree)
    unused = sorted(set(_imported_names(tree)) - used)
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def _private_definitions(tree):
    """The names a module binds at module level by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_every_private_name_is_used():
    # a helper whose last caller a refactor removed shows up here; tests do not count
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    imported = {(node.module.rpartition(".")[2], alias.name)  # (defining module, name)
                for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module for alias in node.names}
    dead = []
    for module, tree in trees.items():
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        dead += [f"{module}.{name}" for name in _private_definitions(tree)
                 if name.startswith("_") and not name.startswith("__")
                 and name not in loaded and (module, name) not in imported]
    assert dead == [], f"private names nothing in the package uses: {dead}"


def test_the_package_exports_exactly_what_it_imports():
    tree = ast.parse((SRC / "mhdlab" / "__init__.py").read_text())
    assert _exported_names(tree) == set(_imported_names(tree))


def _imported_modules(tree):
    """The top-level package of every module a tree imports."""
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module]
    return [m.split(".")[0] for m in modules]


@pytest.mark.parametrize("name", ["cli.py", "config.py", "classifier.py", "roots.py"])
def test_module_imports_no_numpy(name):
    tree = ast.parse((SRC / "mhdlab" / name).read_text())
    assert "numpy" not in _imported_modules(tree)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_gc(path):
    # the collector is process-wide state; the package leaves it to its caller
    tree = ast.parse(path.read_text(), filename=str(path))
    assert "gc" not in _imported_modules(tree)


def _builtin_exception(name):
    obj = getattr(builtins, name, None)
    return isinstance(obj, type) and issubclass(obj, BaseException)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_raises_a_builtin_exception(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    raised = [node.exc.func if isinstance(node.exc, ast.Call) else node.exc
              for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc is not None]
    builtin = [f"line {exc.lineno}: {exc.id}" for exc in raised
               if isinstance(exc, ast.Name) and _builtin_exception(exc.id)]
    assert builtin == [], f"{path.name} raises builtin exceptions: {builtin}"


def _new_calls(tree):
    """The qualified name of the function around each object.__new__ call."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, scope + [child.name])
                continue
            func = getattr(child, "func", None)
            if (isinstance(child, ast.Call) and isinstance(func, ast.Attribute)
                    and func.attr == "__new__" and isinstance(func.value, ast.Name)
                    and func.value.id == "object"):
                yield ".".join(scope)
            yield from visit(child, scope)
    yield from visit(tree, [])


def test_values_skip_their_checks_only_through_the_documented_places():
    # domain.assemble is the one helper that builds an already-checked value;
    # SweepSpec.points stays inline, since a call per point costs ~0.1 us of ~3 us
    found = sorted(f"{path.stem}.{where}" for path in MODULES
                   for where in _new_calls(ast.parse(path.read_text(), filename=str(path))))
    assert found == ["classifier.SweepSpec.points", "domain.assemble"]


def _assemble_targets(tree):
    """(first argument, enclosing class name or None) of each assemble call."""
    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.ClassDef) else cls
            func = getattr(child, "func", None)
            if isinstance(child, ast.Call) and (
                isinstance(func, ast.Name) and func.id == "assemble"
                or isinstance(func, ast.Attribute) and func.attr == "assemble"
            ):
                yield child.args[0], cls
            yield from visit(child, inner)
    yield from visit(tree, None)


def _frozen_dataclass(obj):
    return (isinstance(obj, type) and dataclasses.is_dataclass(obj)
            and obj.__dataclass_params__.frozen)


def test_assemble_builds_only_frozen_dataclasses():
    # assemble skips __init__, so a class whose __init__ does work of its own
    # (as ModeSymbol's does) must not go through it
    found, bad = [], []
    for path in MODULES:
        for arg, cls in _assemble_targets(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.stem}:{arg.lineno}: {ast.unparse(arg)}"
            found.append(where)
            name = cls if ast.unparse(arg) == "type(self)" else getattr(arg, "id", None)
            module = importlib.import_module(f"mhdlab.{path.stem}")
            if not _frozen_dataclass(getattr(module, str(name), None)):
                bad.append(where)
    assert len(found) >= 6 and not any("ModeSymbol" in where for where in found)
    assert bad == [], f"assemble builds what is not a frozen dataclass: {bad}"
