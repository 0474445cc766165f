"""The benchmark's traced run wraps package functions by name.

bench/layers.py lists each traced function as a (module, name) pair in
SPANS. A rename in the package breaks that trace; this reads the list
(without changing it) and checks that every pair still names a function
the package defines, so the break shows here and not only in the
benchmark's own subprocess runs.
"""
import importlib.util
import inspect

import pytest

from conftest import SRC


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
