"""The benchmark's span tracing installs on the library and comes off again.

``bench/spans.install_library_tracing`` wraps library functions and methods
by name, so deleting or renaming one of them (``NetBuilder.apply_level``,
``parallel``, ...) breaks every ``bench/run.py --trace 1`` run.  This test
catches that in the main suite; it imports ``bench/spans.py`` and changes
nothing there.  Likewise the audited rewrite steps of one pass over the
bench's shallow workloads, which a traced run reports as
``compiler.rewrite_audits``, and its dependency searches are pinned here by
importing ``bench/workloads.py``, and so are the shallow FE merged term
counts of its items under a scale of their coefficients and the bytes of its
shallow FE networks.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import network_digest

from cpwlrelu import compiler, cpwl, galerkin1d, mesh, quantize, relu_net

MODULES = (compiler, cpwl, galerkin1d, mesh, quantize, relu_net)

#: Bindings the tracer replaces: every module binding of each wrapped
#: function, plus the wrapped methods and counted callables.  ``mesh`` binds
#: ``vertex_star`` and ``is_locally_convex``; ``compiler`` reads stars through
#: ``vertex_stars`` and binds neither.
TRACED_BINDINGS = 44


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name: str, monkeypatch):
    """Imports ``bench/<name>.py`` with ``bench`` on the path (its modules
    import each other); ``monkeypatch`` restores the path and
    ``sys.modules[name]``."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
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


def test_library_tracing_installs_and_uninstalls(monkeypatch):
    spans = _bench_module("spans", monkeypatch)
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
        # the hooks that read arguments by position still find them
        square = mesh.build_mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                                 np.array([[0, 1, 3], [0, 3, 2]]))
        mesh.find_simplex(square, np.full((5, 2), 0.25))
        assert tracer.counters["mesh.located_points"] == 5
        dead = relu_net.ReluNetwork(1, [(np.array([[1.0], [0.0]]), np.zeros(2)),
                                        (np.array([[1.0, 1.0]]), np.zeros(1))])
        assert relu_net.prune_dead_channels(dead).size == 1
        assert tracer.counters["relu_net.pruned_channels"] == 1
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("workload, audits", [("fem-shallow", 6853), ("pieces", 10105)])
def test_bench_pass_rewrite_audit_count_is_pinned(monkeypatch, workload, audits):
    """Compiling every item of the workload once runs exactly ``audits``
    audited rewrite steps; the item inputs do not depend on the seed."""
    workloads = _bench_module("workloads", monkeypatch)
    before = compiler.REWRITE_CHECKS_PASSED
    for item in workloads.WORKLOADS[workload]().items:
        item.compile(item.setup(np.random.default_rng(0)))
    assert compiler.REWRITE_CHECKS_PASSED - before == audits


@pytest.mark.parametrize("workload, searches", [("fem-shallow", 951), ("pieces", 1131)])
def test_bench_pass_dependency_search_count_is_pinned(monkeypatch, workload, searches):
    """One pass over the workload searches ``searches`` argument blocks for
    their affine dependency: each distinct block once per compile, where
    one search per elimination made 1 799 (fem-shallow) and 2 503 (pieces)."""
    workloads = _bench_module("workloads", monkeypatch)
    find, calls = compiler._find_dependency, []

    def counting(rows, d):
        calls.append(len(rows))
        return find(rows, d)

    monkeypatch.setattr(compiler, "_find_dependency", counting)
    for item in workloads.WORKLOADS[workload]().items:
        item.compile(item.setup(np.random.default_rng(0)))
    assert len(calls) == searches


def test_fem_shallow_bench_terms_do_not_move_with_coefficient_scale(monkeypatch):
    """The shallow FE rewrite and merge key see only the mesh, so a power-of-two
    scale of the coefficients leaves every bench item's merged term count
    ``M`` as it is.  (Network sizes may still differ by a neuron: pruning
    drops channels by an absolute weight tolerance.)"""
    workloads = _bench_module("workloads", monkeypatch)
    pinned = {"crisscross-3x3": 168, "crisscross-4x4": 467, "delaunay-rim-9": 111}
    for item in workloads.WORKLOADS["fem-shallow"]().items:
        m, c = item.setup(np.random.default_rng(0))
        Ms = {s: compiler.compile_fem_shallow(m, s * c)[1].M for s in (1.0, 2.0**10, 2.0**-10)}
        assert set(Ms.values()) == {pinned[item.name]}, (item.name, Ms)


#: ``network_digest`` of each fem-shallow bench item's network, as the
#: workload compiles it (coefficient seed 2, the library's default
#: self-check points).
_PINNED_FEM_SHALLOW_NETS = {
    "crisscross-3x3": "3217e2c3d49b841f342bc86b3f41bb86f03956d8a9e75fbf09d0f1345e196e6f",
    "crisscross-4x4": "532a9a124e3923300651ac6bc44dcf1a142ab05c4bf65bd07a2ab70304db8951",
    "delaunay-rim-9": "1b8b11783d9577c6f17ae3078e29c44eb3f36d7fe171e8e281b42b083ecda3d9",
}


def test_fem_shallow_bench_networks_are_pinned(monkeypatch):
    """Every fem-shallow bench network keeps its bytes: a change to the
    rewrite, the merge or the emission that moves one shows here."""
    workloads = _bench_module("workloads", monkeypatch)
    digests = {item.name: network_digest(item.compile(item.setup(np.random.default_rng(0))).net)
               for item in workloads.WORKLOADS["fem-shallow"]().items}
    assert digests == _PINNED_FEM_SHALLOW_NETS
