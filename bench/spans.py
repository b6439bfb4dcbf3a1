"""Span tracing from outside the library.

A :class:`Tracer` replaces public functions of the ``cpwlrelu`` modules with
wrappers that record one span per call (name, start, end, parent span, input
id) and optional counters.  Because the modules import each other's names
(``compiler`` calls ``mesh.interpolate`` and ``relu_net.eval_network`` through
its own bindings), every module binding that refers to a wrapped function is
replaced, and all of them are restored by :meth:`Tracer.uninstall`.

Spans stay in memory; :func:`self_times` turns a span list into per-span
self time (duration minus the part of it covered by child spans).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Records spans and counters for wrapped library calls."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.input_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def span(self, name: str, fn, *args, **kwargs):
        """Calls ``fn`` inside a span named ``name`` and returns its result."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.input_id))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.input_id)

    # -- installing wrappers -------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _spanning(self, original, name: str, on_result):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = self.span(name, original, *args, **kwargs)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return wrapper

    def wrap(self, modules, module, attr: str, name: str, on_result=None) -> None:
        """Wraps ``module.attr`` and every other binding of it in ``modules``.

        ``on_result(tracer, args, kwargs, result)`` may add counters.
        """
        original = getattr(module, attr)
        wrapper = self._spanning(original, name, on_result)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, wrapper)

    def wrap_method(self, cls, attr: str, name: str, on_result=None) -> None:
        self._replace(cls, attr, self._spanning(getattr(cls, attr), name, on_result))

    def counting(self, owner, attr: str, counter: str) -> None:
        """Counts calls of ``owner.attr`` without opening a span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.counters[counter] += 1
            return original(*args, **kwargs)

        self._replace(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


def self_times(spans) -> np.ndarray:
    """Self time of each span: its duration minus the union of its children.

    Children of one parent run one after another in a single thread, but the
    union is taken anyway so that overlapping children are not subtracted
    twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = np.empty(len(spans))
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out[i] = (end - start) - covered
    return out


def install_library_tracing(tracer: Tracer) -> None:
    """Wraps the public functions of every ``cpwlrelu`` layer."""
    from cpwlrelu import compiler, cpwl, galerkin1d, mesh, quantize, relu_net

    mods = [compiler, cpwl, galerkin1d, mesh, quantize, relu_net]

    def add_rows(counter, arg_index):
        def hook(tr, args, kwargs, result):
            X = args[arg_index] if len(args) > arg_index else kwargs.get("X")
            tr.count(counter, np.atleast_2d(np.asarray(X)).shape[0])
        return hook

    # mesh
    tracer.counting(mesh, "linprog", "mesh.lp_calls")
    for fn in ("build_mesh", "vertex_star", "is_locally_convex", "interpolate",
               "sample_points", "compute_kh"):
        tracer.wrap(mods, mesh, fn, f"mesh.{fn}")
    tracer.wrap(mods, mesh, "find_simplex", "mesh.find_simplex",
                add_rows("mesh.located_points", 1))

    # cpwl
    tracer.counting(cpwl.AffineFunc, "__call__", "cpwl.affine_evals")
    for fn in ("unique_order_partition", "eval_pieces", "eval_lattice"):
        tracer.wrap(mods, cpwl, fn, f"cpwl.{fn}")
    tracer.wrap_method(cpwl.CpwlPieces, "validate", "cpwl.validate")
    for fn in ("lattice_from_unique_order", "lattice_from_convex_regions"):
        tracer.wrap(mods, cpwl, fn, f"cpwl.{fn}",
                    lambda tr, a, k, lat: tr.count("cpwl.lattice_clauses", lat.num_clauses))

    # compiler
    for fn in ("compile_fem_deep", "compile_fem_shallow", "compile_cpwl_shallow"):
        tracer.wrap(mods, compiler, fn, f"compiler.{fn}")
    tracer.wrap(mods, compiler, "reduce_term_width", "compiler.reduce_term_width",
                lambda tr, a, k, r: tr.count("compiler.reduce_term_width_calls"))
    tracer.wrap(mods, compiler, "equivalence_report", "compiler.equivalence_report",
                lambda tr, a, k, rep: tr.count("compiler.checked_points", rep.samples))

    # relu_net
    tracer.wrap(mods, relu_net, "eval_network", "relu_net.eval_network",
                add_rows("relu_net.eval_points", 1))
    tracer.wrap_method(relu_net.NetBuilder, "apply_level", "relu_net.apply_level",
                       lambda tr, a, k, r: tr.count("relu_net.apply_level_calls"))
    tracer.wrap(mods, relu_net, "pad_network", "relu_net.pad_network",
                lambda tr, a, k, r: tr.count("relu_net.pad_network_calls"))
    tracer.wrap(mods, relu_net, "prune_dead_channels", "relu_net.prune_dead_channels",
                lambda tr, a, k, r: tr.count("relu_net.pruned_channels", a[0].size - r.size))
    for fn in ("parallel", "linear_combine", "network_to_dict", "network_from_dict",
               "network_stats"):
        tracer.wrap(mods, relu_net, fn, f"relu_net.{fn}")

    # quantize
    tracer.wrap(mods, quantize, "check_structured", "quantize.check_structured",
                lambda tr, a, k, rep: tr.count("quantize.checked_params", rep.checked_params))

    # galerkin1d
    tracer.wrap(mods, galerkin1d, "solve_algorithm1", "galerkin1d.solve_algorithm1",
                lambda tr, a, k, st: tr.count("galerkin1d.iterations", len(st.trace)))
    for fn in ("solve_afem", "eval_state", "state_to_network"):
        tracer.wrap(mods, galerkin1d, fn, f"galerkin1d.{fn}")
