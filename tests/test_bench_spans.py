"""The benchmark's traced run wraps package functions by name.

bench/layers.py lists each traced function as a (module, name) pair in
SPANS. A rename in the package breaks that trace; this reads the list
(without changing it) and checks that every pair still names a function
the package defines, so the break shows here and not only in the
benchmark's own subprocess runs.
"""
import ast
import importlib
import importlib.util
import inspect
import pkgutil
import textwrap

import pytest

from conftest import SRC
import mhdlab
from mhdlab import classifier, cli, roots


def _spans():
    path = SRC.parent / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


SPANS = _spans()


@pytest.mark.parametrize("module, name, span", SPANS, ids=[span for _, _, span in SPANS])
def test_every_traced_name_is_a_package_function(module, name, span):
    fn = getattr(module, name, None)
    assert inspect.isfunction(fn), f"{module.__name__}.{name} is not a function"
    assert fn.__module__.startswith("mhdlab"), f"{span} resolves outside the package"


def called_names(fn) -> set:
    """Names that fn's source calls as plain module globals."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def test_the_polish_evaluates_through_the_traced_names():
    """The traced run counts determinant evaluations where newton_refine
    calls dispersion_eval and dispersion_scale by their roots-module names;
    an evaluation made any other way reads as 0 calls in the benchmark."""
    assert {"dispersion_eval", "dispersion_scale"} <= called_names(roots.newton_refine)


def test_the_sweep_classifies_through_the_traced_name():
    """The traced run counts classifications where sweep calls classify_frozen
    by its classifier-module name; a sweep that decided every point another
    way would read as 0 classify calls in the benchmark."""
    assert "classify_frozen" in called_names(classifier.sweep)


def test_the_cli_sweeps_through_the_traced_name():
    """The traced run reads classifier.sweep_wait_ms from the span around
    sweep, so cmd_sweep calls sweep by its name, and the axis parts that
    decide which points of a sweep share an outcome are read inside sweep."""
    assert "sweep" in called_names(cli.cmd_sweep)
    callers = {name for name, fn in package_functions() if "_axis_parts" in called_names(fn)}
    assert callers == {"mhdlab.classifier.sweep"}


def package_functions():
    """(dotted name, function) of every function and method written in the
    package's modules."""
    for info in pkgutil.iter_modules(mhdlab.__path__):
        module = importlib.import_module(f"mhdlab.{info.name}")
        scopes = [module] + [c for c in vars(module).values() if inspect.isclass(c)]
        for scope in scopes:
            for name, fn in vars(scope).items():
                if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                    owner = "" if scope is module else f".{scope.__name__}"
                    yield f"{module.__name__}{owner}.{name}", fn


def test_the_mode_terms_are_built_inside_the_traced_fd_check():
    """The traced run times pde_residual_fd as hadamard.fd_ms and build_mode as
    hadamard.build_mode_ms; the grid-independent terms of an FD check stay in
    fd_ms only while pde_residual_fd is the one function that builds them."""
    callers = {name for name, fn in package_functions() if "_mode_terms" in called_names(fn)}
    assert callers == {"mhdlab.hadamard.pde_residual_fd"}


def test_the_solve_stages_run_inside_the_traced_solve():
    """The traced run times solve_dispersion's own work as roots.solve_self_ms
    and counts its newton_refine calls as roots.newton_calls; both read the
    same work only while solve_dispersion is the one function that runs the
    candidate and accept stages and it polishes through the traced name."""
    for stage in ("_candidates", "_accept"):
        callers = {name for name, fn in package_functions() if stage in called_names(fn)}
        assert callers == {"mhdlab.roots.solve_dispersion"}, stage
    assert "newton_refine" in called_names(roots.solve_dispersion)
