"""The benchmark's three workloads and what each of their inputs is for.

``--seed`` drives every point the benchmark draws (verification, evaluation,
the piece-list validation samples) and the FE coefficients of ``fem-deep``.
The inputs of ``fem-shallow`` and ``pieces`` are fixed by the workload
definition: the shallow pathway merges equal terms by keys rounded to 12
decimals, so its network size moves with the exact input values (even under
a power-of-two scale), and network sizes must compare across seeds.

A workload is a list of :class:`Item` s.  Each item knows how to set its
input up from the seed (generate and validate it), how to compile it through
the library's public API, which independent reference the network must
match, and where to draw evaluation points.  The harness runs every item
through the same steps the CLI takes: compile, serialize round trip,
verify against the reference, check low-bit structure, evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from cpwlrelu import compiler, galerkin1d, mesh
from inputs import crisscross, delaunay_rim, fe_coeffs, kuhn_grid, piece_list


@dataclass
class Compiled:
    """What one compile step produced."""

    net: object
    predicted_depth: int
    reference: Callable  # points -> values


@dataclass
class Item:
    """One input of a workload.

    Attributes:
        name: Row name in the output.
        setup: ``rng -> input``; generation and validation, timed as set-up.
        compile: ``input -> Compiled``; timed as compile.  Compiles use the
            library's default generator for their self-check points: those
            points steer the rewrite's numerical tests, so drawing them from
            ``--seed`` would change network sizes from seed to seed.
        points: ``(input, n, rng) -> points`` inside the input's domain.
        anchors: ``input -> points`` always added to the verification
            points, so that verification touches every mesh element.
        structured: Whether the low-bit structure check applies to the
            network (it is a property of the paper's constructions only).
    """

    name: str
    setup: Callable
    compile: Callable
    points: Callable
    anchors: Callable = lambda inp: None
    structured: bool = True


@dataclass
class Workload:
    name: str
    items: list[Item]
    batch: int  # points per network per eval batch
    # At least 50: a run makes at least two passes, and the batch latency's
    # 90th percentile needs 10 batches beyond it.
    batches_per_pass: int


# ---------------------------------------------------------------------------
# FE functions on meshes
# ---------------------------------------------------------------------------


def _fe_setup(arrays, coeff_seed):
    def setup(rng):
        V, S = arrays()
        m = mesh.build_mesh(V, S, validate=True)
        coeff_rng = rng if coeff_seed is None else np.random.default_rng(coeff_seed)
        return m, fe_coeffs(m.num_vertices, coeff_rng)
    return setup


def _fe_compile(compile_fn):
    def run(inp):
        m, c = inp
        net, bound = compile_fn(m, c)
        return Compiled(net, bound.predicted_depth, lambda P: mesh.interpolate(m, c, P))
    return run


def _fe_points(inp, n, rng):
    m, _ = inp
    return mesh.sample_points(m, n, rng)


def _fe_centroids(inp):
    m, _ = inp
    return m.vertices[m.simplices].mean(axis=1)


def _fe_item(name, arrays, compile_fn, coeff_seed):
    return Item(name, _fe_setup(arrays, coeff_seed), _fe_compile(compile_fn),
                _fe_points, anchors=_fe_centroids)


def fem_deep() -> Workload:
    # The compile functions are looked up at call time, so that the tracing
    # wrappers installed on the module are the ones called.
    deep = lambda name, arrays: _fe_item(
        name, arrays, lambda *a: compiler.compile_fem_deep(*a), coeff_seed=None)
    return Workload("fem-deep", [
        # Small 2D grid: validation is cheap here, so compile and the sparse
        # NetBuilder network carry a visible share of the run.
        deep("crisscross-8x8", lambda: crisscross(8)),
        # 2828 overlap LPs make this the set-up heavyweight; its widest layer
        # has 4.9 M dense entries, so today's dense JSON round trip refuses it.
        deep("crisscross-16x16", lambda: crisscross(16)),
        # 3D, valence kh = 24: the deepest network (6 hidden layers) and the
        # most apply_level rounds; almost every element pair needs an LP.
        deep("kuhn-2x2x2", lambda: kuhn_grid(2)),
    ], batch=256, batches_per_pass=80)


def fem_shallow() -> Workload:
    shallow = lambda name, arrays: _fe_item(
        name, arrays, lambda *a: compiler.compile_fem_shallow(*a), coeff_seed=2)
    return Workload("fem-shallow", [
        # Smallest grid with an interior vertex: term rewriting on few stars.
        shallow("crisscross-3x3", lambda: crisscross(3)),
        # The dense gadget tree stores 7.1 M entries for 22 k nonzeros; it
        # dominates eval, verify and check_structured, and today's dense JSON
        # round trip refuses it.  5x5 and larger do not fit a run.
        shallow("crisscross-4x4", lambda: crisscross(4)),
        # Every vertex is on the boundary and valences are uneven, so the
        # inclusion-exclusion expansion meets stars of many sizes.  The point
        # set is fixed so that the network size does not depend on --seed.
        shallow("delaunay-rim-9", lambda: delaunay_rim(9, 5)),
    ], batch=64, batches_per_pass=50)


# ---------------------------------------------------------------------------
# Piece lists and free-knot states
# ---------------------------------------------------------------------------


def _pieces_item(name, kind, dims, piece_seed, route):
    def setup(rng):
        f = piece_list(kind, dims, piece_seed)
        f.validate(rng)
        return f

    def run(f):
        net, bound = compiler.compile_cpwl_shallow(f, route=route)
        return Compiled(net, bound.predicted_depth, lambda P: np.asarray(f(P)))

    return Item(f"{name}/{route}", setup, run, lambda f, n, rng: f.sample_domain(n, rng))


def _state_item(N):
    def run(problem):
        state = galerkin1d.solve_algorithm1(problem, galerkin1d.SolverConfig(N=N))
        net = galerkin1d.state_to_network(state)
        ref = lambda P: galerkin1d.eval_state(state.t, state.theta, np.asarray(P)[:, 0])
        return Compiled(net, 1, ref)

    # The output weights are slope jumps, not grid values: the low-bit
    # structure is a property of the lattice constructions only.
    name = f"free-knot-N{N}"
    return Item(name, lambda rng: galerkin1d.Bvp1dProblem.standard(), run,
                lambda _, n, rng: rng.uniform(0.0, 1.0, (n, 1)), structured=False)


def pieces() -> Workload:
    items = []
    # (name, kind, dims, piece seed).  Each d <= 2 instance goes through
    # both lattice routes; d = 3 has only the convex-regions route.
    for name, kind, dims, ss in (
        # 1D max-affine: the cheapest rewrite, a floor for per-call overhead.
        ("maxaffine-d1m5", "maxaffine", (1, 5), 11),
        # 2D max-affine, m = 5 and 6: rewrite and audit counts grow steeply
        # with m; 6 is the largest that keeps a pass within a few seconds.
        ("maxaffine-d2m5", "maxaffine", (2, 5), 12),
        ("maxaffine-d2m6", "maxaffine", (2, 6), 13),
        # Fans are non-convex: the unique-order partition has more cells
        # than pieces, so the two routes produce different lattice forms.
        ("fan-m5", "fan", (5,), 21),
        ("fan-m6", "fan", (6,), 22),
        # Zigzags: 1D, many dependent triples, deep rewrite recursion.
        ("zigzag-m6", "zigzag", (6,), 31),
        ("zigzag-m7", "zigzag", (7,), 33),
    ):
        for route in ("order", "regions"):
            items.append(_pieces_item(name, kind, dims, ss, route))
    # 3D max-affine: the only d = 3 lattice, built from convex regions.
    items.append(_pieces_item("maxaffine-d3m5", "maxaffine", (3, 5), 14, "regions"))
    # Free-knot solves of the 1D model problem (the paper's Table 1 sizes),
    # converted to one-hidden-layer networks: the galerkin1d layer.
    items += [_state_item(N) for N in (23, 37, 53)]
    return Workload("pieces", items, batch=128, batches_per_pass=50)


WORKLOADS = {"fem-deep": fem_deep, "fem-shallow": fem_shallow, "pieces": pieces}
