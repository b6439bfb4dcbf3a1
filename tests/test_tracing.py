"""The benchmark's span tracing installs on the library and comes off again.

``bench/spans.install_library_tracing`` wraps library functions and methods
by name, so deleting or renaming one of them (``NetBuilder.apply_level``,
``parallel``, ...) breaks every ``bench/run.py --trace 1`` run.  This test
catches that in the main suite; it imports ``bench/spans.py`` and changes
nothing there.
"""

import importlib.util
from pathlib import Path

import numpy as np

from cpwlrelu import compiler, cpwl, galerkin1d, mesh, quantize, relu_net

MODULES = (compiler, cpwl, galerkin1d, mesh, quantize, relu_net)

#: Bindings the tracer replaces: every module binding of each wrapped
#: function, plus the wrapped methods and counted callables.
TRACED_BINDINGS = 46


def _spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """``(owner, name) -> value`` for every module binding of the library
    and every attribute of the classes it defines."""
    owners = [*MODULES]
    for mod in MODULES:
        owners += [v for v in vars(mod).values()
                   if isinstance(v, type) and v.__module__ == mod.__name__]
    return {(owner, key): value for owner in owners for key, value in vars(owner).items()}


def test_library_tracing_installs_and_uninstalls():
    spans = _spans()
    before = _bindings()
    tracer = spans.Tracer()
    try:
        spans.install_library_tracing(tracer)
        during = _bindings()
        changed = [key for key, value in during.items() if value is not before[key]]
        assert len(changed) == TRACED_BINDINGS
        assert (relu_net.NetBuilder, "apply_level") in changed
        assert (compiler, "parallel") in changed and (relu_net, "parallel") in changed
        # a traced call records its span
        relu_net.eval_network(relu_net.affine_network([1.0], 0.0), np.zeros((3, 1)))
        assert [s[0] for s in tracer.spans] == ["relu_net.eval_network"]
        assert tracer.counters["relu_net.eval_points"] == 3
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
