"""The benchmark's tracer wraps genfields functions by name; each must exist.

``perfbench/tracing.py`` replaces the bindings in its ``WRAPPED`` list before a
traced run and reads some arguments by position.  A change that drops or
renames one of them, or moves such an argument, would otherwise show only
when the benchmark runs traced.  The tracer is loaded from its file and left
as it is.
"""

import importlib
import importlib.util
import inspect
import pathlib
import sys

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, spec.name, module)  # dataclasses look it up
        spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves(tracing):
    assert tracing.WRAPPED
    for module, name in tracing.WRAPPED:
        fn = getattr(importlib.import_module(module), name, None)
        assert callable(fn), f"{module}.{name}"


def test_traced_arguments_keep_their_places(tracing):
    # The tracer reads (arch, layer, ..., sim_base) and (a, b, scales) by position.
    from genfields import losses, oracle

    for fn in (oracle.boolean_footprint, oracle.numeric_footprint):
        assert list(inspect.signature(fn).parameters)[:4] == ["arch", "layer", "semantics", "sim_base"]
    assert list(inspect.signature(losses.ms_ssim).parameters)[2] == "scales"
    assert set(tracing.ATTRS) <= {name for _, name in tracing.WRAPPED}
