"""Exact compilation of CPWL functions into ReLU networks.

Two constructive pathways, both exact (no approximation):

* **Deep pathway** (`compile_fem_deep`): a nodal hat function on a mesh
  whose vertex star is convex equals ``max(0, min_k g_k)`` over the star's
  local affine functions.  The min is realized by a balanced binary tree of
  3-neuron gadgets, topped by one ``relu`` neuron for the ``max(0, .)``;
  hidden depth is ``ceil(log2(valence)) + 1``.  A finite element function is the signed
  sum of its hats scaled by ``|c_i|`` in the first layer; a single hat is
  the function with one unit coefficient.

* **Shallow pathway** (`compile_lattice_shallow`, `compile_cpwl_shallow`,
  `compile_fem_shallow`): a max-of-mins lattice form is expanded into a
  signed sum of plain max terms; terms with more than ``d + 1`` arguments
  are rewritten — using exact max-algebra identities — into terms of at
  most ``d + 1`` arguments, so the final network has hidden depth
  ``ceil(log2(d + 1))`` regardless of the input's complexity.  One loop
  (:func:`reduce_term_width`) rewrites all terms of a compile, recording
  each step and numerically verifying the recorded steps in batches that
  may span terms.  The piece-list and FE compiles share one term
  pipeline, :func:`_shallow_net`: it rewrites the terms, merges the pure
  terms that read the same leaf block (a nonzero constant is the leaf
  ``[0, ..., 0, c0]``, a zero one a ``relu`` neuron) by summing their
  weights, and emits one max tree per merged term, so no two output
  entries read one root.
  A term's weight ``w`` (the expansion's integer, times ``c_i`` for a hat)
  is folded into its first layer (``|w| max(S) = max(|w| S)``), leaving
  only its sign to the output.

Both pathways hold their gadget trees as arrays (:class:`_Forest`: one
entry per node, in post-order), built from one index template per
balanced-tree shape, so a deep compile reads every star in one
:func:`~cpwlrelu.mesh.vertex_stars` pass and builds the trees of all hats
of one valence at once.  :func:`_emit_trees` emits the trees through one
:class:`NetBuilder` per compile, level by level, as sparse CSR layers: all
hats or terms share the builder, each tree's root is carried to the common
depth, and the output layer sums the roots with their signs.  Each
distinct subexpression is emitted once, by hash-consing level by level:
one ``np.unique`` keys the leaves by the exact bytes of their affine rows,
and one per level keys the gadgets by their code and their children's
keys, so a leaf, gadget or carry that several trees hold is one set of
neurons that each consumer reads with its own +-1 weight.  The neurons
keep the order of a depth-first interning of the trees, one after
another.  Every hidden layer past the first keeps weights in ``{0, +-1}``
with zero bias.  `compile_max_of_m` combines arbitrary networks pairwise,
seeding a builder on each pair side by side; the trees' builder is seeded
on the zero-hidden-layer network of their distinct leaves.

Every compile function checks the network against its reference at sample
points (`SelfCheckFailed` otherwise) and returns it together with a
:class:`BoundReport` whose predicted depth and size bounds have been
asserted against the actual network (`BoundViolated` otherwise).
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .cpwl import (
    AffineFunc,
    CpwlPieces,
    LatticeForm,
    eval_lattice,
    lattice_from_convex_regions,
    lattice_from_unique_order,
    unique_order_partition,
)
from .errors import (
    BoundViolated,
    ClauseTooWide,
    DimensionMismatch,
    EmptyList,
    ExpansionOverflow,
    NotLocallyConvex,
    NumericalDependenceAmbiguous,
    RewriteCheckFailed,
    SelfCheckFailed,
)
from .mesh import (
    INTERP_RESIDUAL_TOL,
    SimplicialMesh,
    StarTable,
    compute_kh,
    interpolate,
    sample_points,
    vertex_stars,
)
from .relu_net import (
    GADGETS,
    OPS,
    NetBuilder,
    ReluNetwork,
    eval_network,
    parallel,
    prune_dead_channels,
)

logger = logging.getLogger(__name__)

#: Caps for the shallow expansion (raising them only costs memory/time).
MAX_PIECES_SHALLOW = 8
MAX_CLAUSES_SHALLOW = 64
#: Cap on the deep pathway's size bound ``(5 kh - 4) N``, checked before
#: any emission: 2^21 neurons.  The 256 x 256 criss-cross grid (kh = 6,
#: bound 1 703 936) compiles in about 1 GB; 512 x 512 (6 815 744) is refused.
MAX_NEURONS_DEEP = 2**21

#: Dependency-fit acceptance and ambiguity thresholds (relative).
DEP_ACCEPT = 1e-8
DEP_AMBIGUOUS = 1e-4
#: Tolerance for the per-step numerical identity checks of the rewrites.
REWRITE_TOL = 1e-10
# Running count of rewrite steps that passed their numerical re-check;
# tests read (and may reset) this to confirm every recursion step is audited.
REWRITE_CHECKS_PASSED = 0
#: Tolerance for the post-compilation sampling self-check.
COMPILE_TOL = 1e-9


def ceil_log2(n: int) -> int:
    """Smallest ``k`` with ``2^k >= n`` (0 for ``n <= 1``)."""
    return 0 if n <= 1 else (int(n) - 1).bit_length()


def _neurons(kind: str) -> int:
    """Hidden neurons of one builder operation: a gadget, a ``relu``, or
    one level of an identity carry (``"id"``)."""
    return len(GADGETS[kind][0])


@dataclass
class BoundReport:
    """Predicted-versus-actual accounting for one compilation.

    Attributes:
        pathway: Which construction produced the network.
        predicted_depth: Upper bound on hidden layers promised beforehand.
        actual_depth: Hidden layers of the produced network.
        predicted_size_bound: Upper bound on hidden neurons promised
            beforehand (may be astronomically loose for the shallow
            pathway; it is an exact integer).
        actual_size: Hidden neurons of the produced network.
        d: Input dimension.
        kh: Maximum vertex valence of the mesh (mesh pathways only).
        m: Number of affine pieces involved (pathway-specific; see the
            compile function docstrings).
        M: Number of lattice clauses / expansion terms (pathway-specific).
    """

    pathway: str
    predicted_depth: int
    actual_depth: int
    predicted_size_bound: int
    actual_size: int
    d: int
    kh: int | None = None
    m: int | None = None
    M: int | None = None

    def to_dict(self) -> dict:
        return {**asdict(self), "predicted_size_bound": str(self.predicted_size_bound)}


def _bound_report(net: ReluNetwork, **fields) -> BoundReport:
    """The bound report of ``net``: the given pathway, predictions and counts
    beside the hidden depth and size read off the network.

    Raises:
        BoundViolated: If the network is deeper or larger than predicted.
    """
    report = BoundReport(
        actual_depth=net.hidden_layer_count, actual_size=net.size, **fields
    )
    for what, actual, bound in (
        ("depth", report.actual_depth, report.predicted_depth),
        ("size", report.actual_size, report.predicted_size_bound),
    ):
        if actual > bound:
            raise BoundViolated(
                f"{report.pathway}: {what} {actual} exceeds predicted {bound}"
            )
    return report


@dataclass
class EquivalenceReport:
    """Result of sampling-based network-vs-reference comparison.

    Attributes:
        passed: True when the largest deviation is within tolerance.
        max_abs_diff: Largest absolute deviation observed.
        worst_point: Sample point achieving it.
        samples: Number of points compared.
        tol: Tolerance used.
    """

    passed: bool
    max_abs_diff: float
    worst_point: NDArray[np.float64]
    samples: int
    tol: float


def equivalence_report(
    net: ReluNetwork, reference, X: NDArray[np.float64], tol: float = COMPILE_TOL
) -> EquivalenceReport:
    """Compares network output against a reference callable on points ``X``.

    For a multi-output network a point's deviation is its worst output's.
    :func:`eval_network` bounds the activation memory itself.

    Raises:
        ValueError: If ``X`` holds no points.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if n == 0:
        raise ValueError("no points were given to compare the network at")
    got = np.asarray(eval_network(net, X), dtype=float).reshape(n, -1)
    want = np.asarray(reference(X), dtype=float).reshape(n, -1)
    diffs = np.abs(got - want).max(axis=1)
    worst = int(np.argmax(diffs))
    return EquivalenceReport(
        passed=bool(diffs[worst] <= tol),
        max_abs_diff=float(diffs[worst]),
        worst_point=X[worst],
        samples=X.shape[0],
        tol=tol,
    )


def _self_check(net: ReluNetwork, reference, X: NDArray, what: str) -> None:
    rep = equivalence_report(net, reference, X, COMPILE_TOL)
    if not rep.passed:
        raise SelfCheckFailed(
            f"internal error: {what} deviates by {rep.max_abs_diff:.3e} "
            f"at {rep.worst_point!r}"
        )


# ---------------------------------------------------------------------------
# Min/max gadget trees, emitted level-synchronously through one NetBuilder
# ---------------------------------------------------------------------------


#: Node codes of a gadget forest: an ``OPS`` code, or ``LEAF`` for a leaf.
MIN, MAX, ID, RELU = (OPS.index(kind) for kind in ("min", "max", "id", "relu"))
LEAF = -1


class _Forest(NamedTuple):
    """Trees of min/max/relu gadgets over affine leaves, as arrays over
    their nodes in post-order (children before their parent, left before
    right, tree after tree), so that a tree's ``span`` nodes end at its
    root.  A repeated subtree is listed at every place it occurs.  The
    ``r``-th leaf in this order reads row ``r`` of the block of
    ``[gradient, offset]`` rows that the forest is emitted with.

    Attributes:
        code: Each node's ``OPS`` code, ``LEAF`` for a leaf.
        kids: Its children's node indices, shape ``(P, 2)``, -1 padded.
        roots: The root node of each tree.
        span: The number of nodes of each tree.
    """

    code: NDArray[np.int64]
    kids: NDArray[np.int64]
    roots: NDArray[np.int64]
    span: NDArray[np.int64]


def _ranks(counts: NDArray[np.int64]) -> NDArray[np.int64]:
    """``0, 1, ..., counts[g] - 1`` for each group ``g`` in turn."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _leaves(n: int) -> _Forest:
    """``n`` one-node trees."""
    return _Forest(np.full(n, LEAF), np.full((n, 2), -1), np.arange(n), np.ones(n, dtype=np.int64))


def _template(code: int, width: int, zero_led: bool) -> tuple[NDArray, NDArray, NDArray]:
    """The balanced ``OPS[code]`` tree over ``width`` arguments, after a
    constant 0 if ``zero_led``, in post-order: per node its code (``LEAF``
    for an argument), its argument's index (or -1) and its children's node
    indices (-1 padded).

    The left half takes ``ceil(n/2)`` of the ``n`` arguments, so a leading
    constant 0 of a max ends in a pair ``max(0, x)``, one ``relu`` node.
    """
    if width < 1:
        raise EmptyList(f"cannot take {OPS[code]} of zero arguments")
    nodes: list[tuple[int, int, int, int]] = []

    def build(lo: int, hi: int, zero: bool) -> int:
        n = hi - lo + zero
        if zero and n == 2:
            nodes.append((RELU, -1, build(lo, hi, False), -1))
        elif n == 1:
            nodes.append((LEAF, lo, -1, -1))
        else:
            mid = lo + (n + 1) // 2 - zero
            nodes.append((code, -1, build(lo, mid, zero), build(mid, hi, False)))
        return len(nodes) - 1

    build(0, width, zero_led)
    codes, items, left, right = np.array(nodes).T
    return codes, items, np.stack([left, right], axis=1)


def _gadget_trees(code: int, widths, items: _Forest, zero_led=False) -> _Forest:
    """One balanced ``OPS[code]`` tree per entry of ``widths``, in order:
    tree ``t`` takes the next ``widths[t]`` trees of ``items`` as its
    arguments, after a constant 0 where ``zero_led`` (a flag for every tree
    or one per tree; max trees only) is set.

    The trees are built from one :func:`_template` per distinct shape: each
    template node becomes one gadget node, and each argument node the
    argument's whole tree, copied with its node indices shifted.
    """
    widths = np.asarray(widths, dtype=np.int64)
    if widths.sum() != len(items.roots):
        raise ValueError(f"{widths.sum()} arguments for {len(items.roots)} trees")
    if not len(widths):
        return _leaves(0)
    shapes, shape_of = np.unique(2 * widths + np.asarray(zero_led), return_inverse=True)
    tabs = [_template(code, int(s) // 2, bool(s % 2)) for s in shapes]
    length = np.array([len(t[0]) for t in tabs], dtype=np.int64)
    t_code, t_item, t_kids = (np.concatenate([t[f] for t in tabs]) for f in range(3))
    # Every template node of every tree, tree after tree: its tree, and its
    # row of the concatenated templates.
    L = length[shape_of]
    base = np.cumsum(L) - L
    tree = np.repeat(np.arange(len(widths)), L)
    tab = np.repeat((np.cumsum(length) - length)[shape_of], L) + _ranks(L)
    node_code = t_code[tab]
    arg = node_code == LEAF
    item = (np.cumsum(widths) - widths)[tree[arg]] + t_item[tab[arg]]
    chunk = np.ones(len(tab), dtype=np.int64)
    chunk[arg] = items.span[item]
    end = np.cumsum(chunk)  # each template node's root is node end - 1
    code_out = np.empty(end[-1], dtype=np.int64)
    kids = np.full((end[-1], 2), -1)
    g = ~arg
    at = end[g] - 1
    code_out[at] = node_code[g]
    tk = t_kids[tab[g]]
    kids[at] = np.where(tk >= 0, end[base[tree[g]][:, None] + tk] - 1, -1)
    n = chunk[arg]
    src = np.repeat(items.roots[item] - n + 1, n) + _ranks(n)
    shift = np.repeat(end[arg] - 1 - items.roots[item], n)
    code_out[src + shift] = items.code[src]
    moved = items.kids[src]
    kids[src + shift] = np.where(moved >= 0, moved + shift[:, None], -1)
    return _Forest(code_out, kids, end[base + L - 1] - 1, np.add.reduceat(chunk, base))


def _depths(trees: _Forest) -> NDArray[np.int64]:
    """Each node's level: 0 for a leaf, else one above its deepest child."""
    depth = np.zeros(len(trees.code), dtype=np.int64)
    g = np.flatnonzero(trees.code != LEAF)
    kids = trees.kids[g]
    kids = np.where(kids < 0, kids[:, :1], kids)
    while True:
        new = 1 + depth[kids].max(axis=1, initial=0)
        if np.array_equal(new, depth[g]):
            return depth
        depth[g] = new


def _parents(trees: _Forest) -> NDArray[np.int64]:
    """Each node's parent, -1 for a root."""
    parent = np.full(len(trees.code), -1)
    for c in (0, 1):
        has = np.flatnonzero(trees.kids[:, c] >= 0)
        parent[trees.kids[has, c]] = has
    return parent


def _tree_sizes(trees: _Forest) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
    """Each tree's depth and its neurons as a tree: 3 per gadget, 1 per
    ``relu``, plus 2 per level of identity carry of a child finished before
    its parent's level.  :func:`_emit_trees` emits a repeated subtree once,
    so a tree's size bounds its network from above."""
    depth, parent = _depths(trees), _parents(trees)
    neurons = np.array([_neurons(k) for k in OPS] + [0])  # LEAF = -1 is last
    cost = neurons[trees.code]
    has = np.flatnonzero(parent >= 0)
    cost[has] += _neurons("id") * (depth[parent[has]] - 1 - depth[has])
    total = np.concatenate([[0], np.cumsum(cost)])
    return depth[trees.roots], total[trees.roots + 1] - total[trees.roots + 1 - trees.span]


def _intern(key: NDArray[np.int64], nodes: NDArray[np.int64], packed: NDArray) -> NDArray[np.int64]:
    """Hash-consing of one batch: gives ``nodes`` one key per distinct
    ``packed`` value, new keys numbered on from ``key``'s largest in
    first-use order, and returns the index in ``nodes`` of each new key's
    first node, in key order."""
    _, first, inverse = np.unique(packed, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(first), dtype=np.int64)
    rank[order] = np.arange(len(first))
    key[nodes] = key.max(initial=-1) + 1 + rank[inverse]
    return first[order]


def _emit_trees(
    dim: int, rows: NDArray[np.float64], trees: _Forest, signs: NDArray[np.float64]
) -> ReluNetwork:
    """Emits the trees, one hidden layer per level, into a builder seeded on
    the zero-hidden-layer network of their distinct leaf rows (``rows`` is
    the ``(n, dim + 1)`` block of the ``n`` leaves), and returns the pruned
    network computing ``sum_t signs[t] * tree_t``.

    Equal subtrees are emitted once, by hash-consing level by level
    (:func:`_intern`): a leaf is keyed by the exact bytes of its row and
    becomes a level-0 channel in first-use order; a gadget is keyed by its
    code and its children's keys, one batch per level.  A consumer at level
    ``L`` reads its child's channel at level ``L - 1``, so a value finished
    before its last consumer's level rides one chain of identity carries
    (2 neurons per level) that every consumer reads from, and every root is
    carried to the deepest root's level.  Each neuron computes what it
    would in an unshared emission; a shared channel is read with each
    consumer's own +-1 weight.

    Within a level the operations follow the nodes in post-order: a gadget
    comes at its key's first node, and a carry of a key to level ``L`` at
    the first node of that key read at level ``L`` or above.  This is the
    order in which interning the trees depth first, one after another,
    would schedule them.
    """
    code, kids = trees.code, trees.kids
    depth = _depths(trees)
    top = int(depth[trees.roots].max(initial=0))
    key = np.full(len(code), -1, dtype=np.int64)
    rows = np.ascontiguousarray(rows, dtype=float).reshape(-1, dim + 1)
    row_bytes = rows.view(np.dtype((np.void, rows.itemsize * (dim + 1)))).ravel()
    seed = rows[_intern(key, np.flatnonzero(code == LEAF), row_bytes)]
    # Operations, one tuple of columns per batch: level, node, code,
    # operand keys a and b (-1 for none), result key.
    ops = []
    for level in range(1, top + 1):
        at = np.flatnonzero(depth == level)
        a, b = key[kids[at, 0]], np.where(kids[at, 1] >= 0, key[kids[at, 1]], -1)
        radix = key.max() + 2
        new = _intern(key, at, (code[at] * radix + a) * radix + b + 1)
        ops.append((np.full(len(new), level), at[new], code[at[new]], a[new], b[new], key[at[new]]))
    # Carries: a node is read at its parent's level - 1 (a root at the top
    # level); a key's chain grows at each node that reads it above its reach.
    parent = _parents(trees)
    read = np.where(parent >= 0, depth[parent] - 1, top)
    node = np.argsort(key, kind="stable")  # by key, in post-order within a key
    k, stride = key[node], top + 1
    reach = np.maximum.accumulate(k * stride + read[node])
    before = np.maximum(np.concatenate([[-1], reach[:-1]]), k * stride + depth[node]) - k * stride
    grow = np.maximum(read[node] - before, 0)
    k = np.repeat(k, grow)
    ops.append((np.repeat(before, grow) + 1 + _ranks(grow), np.repeat(node, grow),
                np.full(len(k), ID), k, np.full(len(k), -1), k))
    level, node, op, a, b, k = (np.concatenate(col) for col in zip(*ops))
    order = np.lexsort((node, level))
    level, op, a, b, k = level[order], op[order], a[order], b[order], k[order]
    builder = NetBuilder(ReluNetwork(dim, [(seed[:, :-1], seed[:, -1])]))
    channel = np.arange(key.max(initial=-1) + 1)  # of each key, at the current level
    bounds = np.searchsorted(level, np.arange(1, top + 2))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        builder.apply_level(op[lo:hi], channel[a[lo:hi]],
                            np.where(b[lo:hi] >= 0, channel[b[lo:hi]], -1))
        channel[k[lo:hi]] = np.arange(hi - lo)
    return prune_dead_channels(builder.finish([(signs, channel[key[trees.roots]])]))


def _max_of_nets(nets: list[ReluNetwork]) -> ReluNetwork:
    """Balanced pairwise max: each pair step runs the two halves side by
    side, then adds one 3-neuron max gadget on their outputs."""
    if len(nets) == 1:
        return nets[0]
    k = (len(nets) + 1) // 2
    pair = parallel([_max_of_nets(nets[:k]), _max_of_nets(nets[k:])])
    builder = NetBuilder(pair)
    builder.apply_level([MAX], [0], [1])
    return builder.finish([([1.0], [0])])


def compile_max_of_m(nets: list[ReluNetwork]) -> tuple[ReluNetwork, BoundReport]:
    """Maximum of ``m`` single-output networks via a balanced gadget tree.

    Each pair step pads only the shallower of its two arguments.  Depth
    bound: ``max_i depth_i + ceil(log2 m) + 1``.  Size bound: the sum of the
    equal-depth padded input sizes plus ``3 (2m - 1)``.  The tree has
    ``m - 1`` max gadgets of 3 neurons; padding the inputs to one depth
    first costs no less than padding lazily, and then the two halves of a
    balanced step differ by at most one level, one 2-neuron carry per step.

    Returns:
        The max network and its checked bound report.
    """
    if not nets:
        raise EmptyList("cannot take the maximum of zero networks")
    if any(n.output_dim != 1 for n in nets):
        raise DimensionMismatch("the maximum is defined for single-output networks")
    m = len(nets)
    depth = max(n.hidden_layer_count for n in nets)
    padded_sizes = [n.size + _neurons("id") * (depth - n.hidden_layer_count) for n in nets]
    net = prune_dead_channels(_max_of_nets(nets))
    X = np.random.default_rng(12345).normal(size=(64, nets[0].input_dim))
    _self_check(net, lambda P: np.max([eval_network(n, P) for n in nets], axis=0), X,
                "max of networks")
    return net, _bound_report(
        net,
        pathway="max-of-m",
        predicted_depth=depth + ceil_log2(m) + 1,
        predicted_size_bound=sum(padded_sizes) + _neurons("max") * (2 * m - 1),
        d=nets[0].input_dim,
        m=m,
    )


# ---------------------------------------------------------------------------
# Deep pathway: hats as relu(min of star affines)
# ---------------------------------------------------------------------------


def _checked_coeffs(mesh: SimplicialMesh, coeffs) -> NDArray[np.float64]:
    """``coeffs`` as floats, one finite value per mesh vertex.

    Raises:
        ValueError: On a wrong shape, or naming the first vertex whose
            coefficient is NaN or infinite.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (mesh.num_vertices,):
        raise ValueError("need one coefficient per mesh vertex")
    bad = np.flatnonzero(~np.isfinite(coeffs))
    if bad.size:
        raise ValueError(
            f"the coefficient of vertex {bad[0]} is {coeffs[bad[0]]}; "
            "FE coefficients must be finite"
        )
    return coeffs


def _hat_stars(mesh: SimplicialMesh, used: NDArray[np.int64]) -> StarTable:
    """The stars of the used vertices, whose hats are ``max(0, min_k g_k)``
    over their affines, from one :func:`vertex_stars` pass.

    Raises:
        NotLocallyConvex: If the first faulty star (in ``used`` order) is
            not convex.
        SingularSystem: If its affines miss their nodal values.
    """
    stars = vertex_stars(mesh, used)
    fault = ~stars.convex
    owner = np.repeat(np.arange(len(used)), np.diff(stars.starts))
    fault[owner[stars.residual > INTERP_RESIDUAL_TOL]] = True
    if fault.any():
        u = int(np.argmax(fault))
        if not stars.convex[u]:
            raise NotLocallyConvex(
                f"the star of vertex {used[u]} is not convex; its hat function is "
                "not the max-min form of its local affines"
            )
        stars.check_residual(u)
    return stars


def compile_fem_deep(
    mesh: SimplicialMesh,
    coeffs: NDArray[np.float64],
    rng: np.random.Generator | None = None,
) -> tuple[ReluNetwork, BoundReport]:
    """Compiles a nodal finite element function via the deep pathway.

    The function ``sum_i c_i phi_i`` over the vertices with ``c_i != 0`` is
    one tree ``relu(min_k g_k^(i))`` per hat over its star affines, all
    emitted by one builder; each hat's affines are scaled by ``|c_i|`` in
    the first layer and its sign lands in the output combination, so all
    layers past the first stay on the low-bit grid with zero bias.  For a
    convex star the tree equals ``c_i`` times the nodal hat on the meshed
    domain.  Bounds (checked): hidden depth ``ceil(log2 kh) + 1``, size
    ``(5 kh - 4) N`` with ``N`` the number of nonzero coefficients.  A hat
    over ``n <= kh`` star affines costs ``n - 1`` min gadgets (3 neurons
    each), at most one 2-neuron carry per min gadget (the halves of a
    balanced tree differ by at most one level), the top ``relu`` neuron,
    and a carry from depth ``ceil(log2 n) + 1`` to the common depth, at
    most ``2 (kh - n)`` neurons: ``5 (n - 1) + 1 + 2 (kh - n) = 3 n - 4 +
    2 kh <= 5 kh - 4``.

    Raises:
        ValueError: If a coefficient is missing, NaN or infinite.
        ExpansionOverflow: If the size bound exceeds ``MAX_NEURONS_DEEP``;
            checked before any star is read.
        NotLocallyConvex: If a used vertex has a non-convex star.
    """
    rng = rng or np.random.default_rng(12345)
    coeffs = _checked_coeffs(mesh, coeffs)
    used = np.flatnonzero(coeffs)
    kh = compute_kh(mesh)
    bound = len(used) * ((_neurons("min") + _neurons("id")) * (kh - 1) + _neurons("relu"))
    if bound > MAX_NEURONS_DEEP:
        raise ExpansionOverflow(
            f"the deep network's size bound (5 kh - 4) N = {bound} (kh = {kh}, "
            f"N = {len(used)}) exceeds the limit MAX_NEURONS_DEEP = {MAX_NEURONS_DEEP}"
        )
    stars = _hat_stars(mesh, used)
    c = coeffs[used]
    hats = _gadget_trees(MIN, np.diff(stars.starts), _leaves(len(stars.incident)))
    trees = _gadget_trees(MAX, np.ones(len(used)), hats, zero_led=True)
    rows = stars.affine_rows * np.repeat(np.abs(c), np.diff(stars.starts))[:, None]
    net = _emit_trees(mesh.dim, rows, trees, np.sign(c))
    X = sample_points(mesh, 128, rng)
    _self_check(net, lambda P: interpolate(mesh, coeffs, P), X, "deep FE function")
    return net, _bound_report(
        net,
        pathway="deep",
        predicted_depth=ceil_log2(kh) + 1,
        predicted_size_bound=bound,
        d=mesh.dim,
        kh=kh,
        m=len(used),
    )


# ---------------------------------------------------------------------------
# Shallow pathway: expansion into signed max terms
# ---------------------------------------------------------------------------


def _expand_lattice_terms(clauses: list[tuple[int, ...]]) -> dict[frozenset, int]:
    """Expands ``max_j min s_j`` into integer-weighted plain max terms.

    Works backwards through the clause list; the running state maps each
    argument set ``S`` to an integer weight, with the invariant that the
    function equals ``sum_S w_S max({running prefix} U S)``.  Merging after
    every clause keeps at most ``2^m`` live terms.
    """
    state: dict[frozenset, int] = {frozenset(): 1}
    for s in reversed(clauses):
        subsets = []
        members = sorted(s)
        for r in range(1, len(members) + 1):
            for T in itertools.combinations(members, r):
                subsets.append((frozenset(T), -1 if r % 2 == 0 else 1))
        nxt: Counter = Counter()
        for S, w in state.items():
            for T, sg in subsets:
                nxt[S | T] += w * sg
        state = {S: w for S, w in nxt.items() if w != 0}
    if any(not S for S in state):
        raise AssertionError("internal error: empty argument set after expansion")
    return state


# --- exact term rewriting to bounded width --------------------------------


@dataclass
class _Term:
    """One signed max term, possibly with a dependent extra argument.

    Value: ``sign * max({c0} U rows U {dep})`` over the affine arguments
    whose ``[gradient, offset]`` rows form the ``(w, d + 1)`` block ``rows``;
    the dependent argument is ``sum_j alphas[j] * rows[j] + alpha0`` (absent
    when ``alphas`` is None).  ``c0 = None`` means no constant argument.
    Terms share blocks, so a rewrite writes only to copies.
    """

    sign: int
    c0: float | None
    rows: NDArray[np.float64]
    alphas: NDArray[np.float64] | None = None
    alpha0: float = 0.0

    @property
    def width(self) -> int:
        """Arguments besides the dependent one, the constant included."""
        return len(self.rows) + (self.c0 is not None)


def _term_values(terms: list[_Term], X: NDArray[np.float64]) -> NDArray[np.float64]:
    """The ``(k, n)`` values of the ``k`` terms at the ``n`` rows of ``X``.

    Terms of one shape (row count, dependent or not, constant or not) are
    evaluated together: one product ``(k, L, d) @ X.T`` plus offsets fills
    their affine arguments, one ``einsum`` their dependent ones, and one max
    runs over the arguments.
    """
    X = np.atleast_2d(X)
    out = np.empty((len(terms), X.shape[0]))
    groups: dict[tuple, list[int]] = {}
    for i, t in enumerate(terms):
        groups.setdefault((len(t.rows), t.alphas is not None, t.c0 is not None), []).append(i)
    for (_, dep, const), idx in groups.items():
        group = [terms[i] for i in idx]
        R = np.stack([t.rows for t in group])
        V = R[:, :, :-1] @ X.T
        V += R[:, :, -1:]
        best = V.max(axis=1, initial=-np.inf)
        if dep:
            alphas = np.array([t.alphas for t in group])
            alpha0 = np.array([t.alpha0 for t in group])
            np.maximum(best, np.einsum("kl,kln->kn", alphas, V) + alpha0[:, None], out=best)
        if const:
            np.maximum(best, np.array([t.c0 for t in group])[:, None], out=best)
        out[idx] = np.array([t.sign for t in group])[:, None] * best
    return out


def _deviates(before: NDArray, after: NDArray) -> NDArray[np.bool_]:
    """Per row, whether ``|after - before| <= REWRITE_TOL * max(1,
    max|before|)`` fails at some point; a NaN on either side fails."""
    scale = np.maximum(1.0, np.abs(before).max(axis=-1))
    return ~(np.abs(before - after).max(axis=-1) <= REWRITE_TOL * scale)


#: Recorded rewrite steps that, once waiting, are audited as one batch;
#: bounds the audit's memory.
AUDIT_CHUNK = 128

#: One recorded rewrite step: a term, the parts whose signed sum replaces
#: it, and the kind of rewrite.
_Step = tuple[_Term, list[_Term], str]


def _audit_batch(steps: list[_Step], pts: NDArray) -> None:
    """Numerically re-checks the steps at ``pts`` (and counts them).

    Every distinct term of the steps is evaluated once, from its own
    arguments (:func:`_term_values`); each step's parent is compared with
    the sum of its parts' values.  The ``"elimination step"`` entries are
    checked but not counted.

    Raises:
        RewriteCheckFailed: Naming the kind of the first failing step.
    """
    global REWRITE_CHECKS_PASSED
    index: dict[int, int] = {}
    terms: list[_Term] = []
    for parent, parts, _ in steps:
        for t in (parent, *parts):
            if id(t) not in index:
                index[id(t)] = len(terms)
                terms.append(t)
    values = _term_values(terms, pts)
    part_rows = [index[id(t)] for _, ps, _ in steps for t in ps]
    # Offsets summed in Python: np.cumsum here left small long-lived blocks
    # among each batch's garbage, which kept about 10 MB of freed memory
    # from the system in an 8x8 shallow compile.
    starts = list(itertools.accumulate([len(ps) for _, ps, _ in steps[:-1]], initial=0))
    after = np.add.reduceat(values[part_rows], starts, axis=0)
    bad = _deviates(values[[index[id(parent)] for parent, _, _ in steps]], after)
    if bad.any():
        raise RewriteCheckFailed(f"{steps[int(np.argmax(bad))][2]} failed numerical check")
    REWRITE_CHECKS_PASSED += sum(kind != "elimination step" for _, _, kind in steps)


def _resolve_dependent(t: _Term, out: list[_Term], steps: list[_Step]) -> None:
    """Eliminates the dependent argument of ``t``, appending pure terms.

    Implements the exact rewriting recursion symbolically: each rewrite is
    recorded in ``steps`` as ``(parent, parts, kind)`` for
    :func:`_audit_batch` to re-verify numerically (a mismatch would mean a
    bug, not an input problem).  Branching is at most ``2^(k+1) - 1`` for
    dependent support size ``k``.
    """
    alphas, a0 = t.alphas, t.alpha0
    assert alphas is not None
    J = [j for j in range(len(alphas)) if abs(alphas[j]) > 1e-12]
    rows = t.rows
    if not J:
        c0 = a0 if t.c0 is None else max(t.c0, a0)
        result = _Term(t.sign, c0, rows)
        steps.append((t, [result], "constant-merge"))
        out.append(result)
        return
    ones = [j for j in J if abs(alphas[j] - 1.0) <= 1e-12]
    if len(J) == 1 and len(ones) == 1:
        j = J[0]
        if a0 > 0:
            shifted = rows.copy()
            shifted[j, -1] += a0
            result = _Term(t.sign, t.c0, shifted)
        else:
            result = _Term(t.sign, t.c0, rows)
        steps.append((t, [result], "domination"))
        out.append(result)
        return
    zero = np.zeros(rows.shape[1])
    if len(ones) == len(J):
        # All unit coefficients: re-root the dependency on a new member
        # l_eta' = sum_{j in J} l_j + a0, expressing the old member through
        # it with coefficients {+1, -1...} so the next step can pivot.
        eta = J[-1]
        rerooted = rows.copy()
        rerooted[eta] = sum((rows[j] for j in J), zero)
        rerooted[eta, -1] += a0
        alphas2 = np.zeros(len(rows))
        alphas2[J[:-1]] = -1.0
        alphas2[eta] = 1.0
        t2 = _Term(t.sign, t.c0, rerooted, alphas2, -a0)
        steps.append((t, [t2], "re-rooting"))
        _resolve_dependent(t2, out, steps)
        return
    # General pivot: largest index with coefficient outside {0, 1}.
    eta = max(j for j in J if abs(alphas[j] - 1.0) > 1e-12)
    alpha = float(alphas[eta])
    abar = 1.0 / (1.0 - alpha)
    rest = [j for j in J if j != eta]
    h = sum((alphas[j] * rows[j] for j in rest), zero)
    h[-1] += a0
    # Dependent for branches A and B: abar * h over the unchanged indices.
    alphas_h = np.zeros(len(rows))
    alphas_h[rest] = abar * alphas[rest]
    const_h = abar * a0
    rows_b = rows.copy()
    rows_b[eta] = alpha * rows[eta] + h
    if alpha > 1.0:
        signs = (-1, 1, 1)
        rows_c = rows  # median is the member itself
    elif 0.0 < alpha < 1.0:
        signs = (1, -1, 1)
        rows_c = rows_b
    else:
        signs = (1, 1, -1)
        rows_c = rows.copy()
        rows_c[eta] = abar * h
    branch_a = _Term(t.sign * signs[0], t.c0, rows, alphas_h.copy(), const_h)
    branch_b = _Term(t.sign * signs[1], t.c0, rows_b, alphas_h.copy(), const_h)
    branch_c = _Term(t.sign * signs[2], t.c0, rows_c)
    steps.append((t, [branch_a, branch_b, branch_c], f"three-term (alpha={alpha:.6g})"))
    _resolve_dependent(branch_a, out, steps)
    _resolve_dependent(branch_b, out, steps)
    out.append(branch_c)


def _find_dependency(
    rows: NDArray[np.float64], d: int
) -> tuple[int, NDArray[np.float64], float]:
    """Finds one argument affinely expressible through at most ``d`` others.

    Scans elimination targets from the last argument down; for each target,
    tries size-``d`` subsets of the remaining arguments and solves the
    (d+1)-parameter interpolation system.  A relative residual below
    ``1e-8`` accepts; a residual in the ambiguity band ``[1e-8, 1e-4]``
    aborts, because acting on an uncertain dependency could silently change
    the function.

    Returns:
        ``(target index, coefficients over the remaining args, constant)``.

    Raises:
        NumericalDependenceAmbiguous: On an ambiguous fit or when no clean
            dependency is found.
    """
    L = len(rows)
    # Column j < L is [gradient_j; offset_j]; column L is the constant [0; 1].
    A = np.zeros((d + 1, L + 1))
    A[:, :L] = rows.T
    A[d, L] = 1.0
    for tgt in range(L - 1, -1, -1):
        others = [j for j in range(L) if j != tgt]
        v = A[:, tgt]
        scale = max(1.0, float(np.max(np.abs(v))))
        for subset in itertools.combinations(others, min(d, len(others))):
            M = A[:, subset + (L,)]
            x, *_ = np.linalg.lstsq(M, v, rcond=None)
            resid = float(np.max(np.abs(M @ x - v)))
            if resid < DEP_ACCEPT * scale:
                alphas = np.zeros(L - 1)
                for pos, j in enumerate(subset):
                    alphas[others.index(j)] = x[pos]
                return tgt, alphas, float(x[-1])
            if resid <= DEP_AMBIGUOUS * scale:
                raise NumericalDependenceAmbiguous(
                    f"dependency fit residual {resid:.3e} is in the ambiguity "
                    f"band [{DEP_ACCEPT}, {DEP_AMBIGUOUS}] (relative)"
                )
    raise NumericalDependenceAmbiguous(
        "no clean affine dependency found although the argument count "
        "guarantees one exists"
    )


def reduce_term_width(
    terms: list[tuple[float, float | None, NDArray[np.float64]]],
    pts: NDArray[np.float64],
) -> list[tuple[float, _Term]]:
    """Rewrites each weighted max term ``w * max({c0} U rows)`` into pure
    terms with at most ``d + 1`` arguments, for ``(w, c0, rows)`` terms
    whose ``rows`` are ``(k, d + 1)`` blocks.

    ``c0 = None`` means no constant argument (see :class:`_Term`); a
    constant counts as an argument, and ``rows`` is read, never written.
    Each elimination step removes one affine argument by expressing it
    through at most ``d`` others plus a constant
    (:func:`_find_dependency`), then resolves the resulting dependent
    argument exactly (:func:`_resolve_dependent`).  The dependency is a
    function of the argument block alone, so it is searched once per call
    for each distinct block (same shape and bytes); a repeated block reuses
    the reduced rows and coefficients found first, shared read-only, and
    its steps are still recorded and audited.  The rewrite runs
    symbolically; every recorded step, each elimination included, is
    re-verified numerically at ``pts`` by :func:`_audit_batch`, once at
    least ``AUDIT_CHUNK`` steps wait (so a batch may span terms, and holds
    fewer than ``AUDIT_CHUNK`` plus one elimination's steps) and at the
    end.  If the rewrite raises, the waiting steps are audited first, so
    a wrong step is reported as RewriteCheckFailed rather than as a later
    error it may have caused.

    Returns:
        ``(w * sign, term)`` for each pure term, term after term, whose
        weighted sum equals that of the input terms.
    """
    out: list[tuple[float, _Term]] = []
    steps: list[_Step] = []
    found: dict[tuple, tuple] = {}
    try:
        for w, c0, rows in terms:
            d = rows.shape[1] - 1
            queue = [_Term(1, c0, rows)]
            while queue:
                t = queue.pop()
                if t.width <= d + 1:
                    out.append((w * t.sign, t))
                    continue
                key = (t.rows.shape, t.rows.tobytes())
                if key not in found:
                    tgt, alphas, a0 = _find_dependency(t.rows, d)
                    rest = np.delete(t.rows, tgt, axis=0)
                    rest.flags.writeable = alphas.flags.writeable = False
                    found[key] = rest, alphas, a0
                rest, alphas, a0 = found[key]
                twd = _Term(t.sign, t.c0, rest, alphas, a0)
                pieces: list[_Term] = []
                _resolve_dependent(twd, pieces, steps)
                if len(pieces) > 2 ** (d + 1) - 1:
                    raise AssertionError(
                        f"elimination produced {len(pieces)} terms, above the "
                        f"guaranteed 2^(d+1)-1 = {2 ** (d + 1) - 1}"
                    )
                steps.append((t, pieces, "elimination step"))
                queue.extend(pieces)
                if len(steps) >= AUDIT_CHUNK:
                    # Rebound first, so a failing batch is not audited again.
                    batch, steps = steps, []
                    _audit_batch(batch, pts)
    finally:
        if steps:
            _audit_batch(steps, pts)
    return out


# --- pure terms to networks ------------------------------------------------


def _shallow_net(
    terms: list[tuple[float, float | None, NDArray[np.float64]]],
    d: int,
    pts: NDArray[np.float64],
) -> tuple[ReluNetwork, int]:
    """One network for ``sum w * max({c0} U rows)`` over the ``(w, c0,
    rows)`` terms, and the number of max trees it holds.

    Each term is rewritten to at most ``d + 1`` arguments
    (:func:`reduce_term_width`, audited at ``pts``), and each pure term is
    keyed by the leaf block its tree reads: a nonzero constant is the leaf
    ``[0, ..., 0, c0]`` in front of the rows, and ``c0 = 0`` is a flag: its
    tree takes the zero as a ``relu`` neuron.  Rows are rounded to 12 decimals
    and taken in any order.  The weights of one key are summed correctly
    rounded (``math.fsum``), so weights that cancel exactly leave no term,
    in any order.  Each merged term is one balanced max tree over its first
    block, in a shared builder (:func:`_emit_trees`); its weight folds into
    the first layer (``k max(S) = max(k S)`` for ``k > 0``), so only its
    sign reaches the output combination and every output entry is ``+-1``.
    """
    pure = reduce_term_width(terms, pts)
    # One np.round over all constants, and one over all rows, as leaf entries.
    consts = np.round([t.c0 or 0.0 for _, t in pure], 12)
    leaf_rows = np.round(np.vstack([np.zeros((0, d + 1))] + [t.rows for _, t in pure]), 12)
    ends = itertools.accumulate(len(t.rows) for _, t in pure)
    acc: dict[tuple, tuple] = {}
    for (w, t), c, end in zip(pure, consts, ends):
        leaves = list(map(tuple, leaf_rows[end - len(t.rows) : end].tolist()))
        if t.c0:
            leaves.append((0.0,) * d + (c,))
        acc.setdefault((t.c0 == 0, tuple(sorted(leaves))), ([], t))[0].append(w)
    merged = [(math.fsum(ws), t) for ws, t in acc.values()]
    merged = [(w, t) for w, t in merged if w != 0]
    blocks = [np.vstack([np.append(np.zeros(d), t.c0), t.rows]) if t.c0 else t.rows
              for _, t in merged]
    widths = [len(block) for block in blocks]
    trees = _gadget_trees(MAX, widths, _leaves(sum(widths)),
                          zero_led=[t.c0 == 0 for _, t in merged])
    rows = np.concatenate([abs(w) * block for (w, _), block in zip(merged, blocks)]
                          or [np.zeros((0, d + 1))])
    signs = np.sign([w for w, _ in merged])
    return _emit_trees(d, rows, trees, signs), len(merged)


# --- shallow compile entry points ------------------------------------------


def _piece_rows(pieces: list[AffineFunc]) -> NDArray[np.float64]:
    """The ``(m, d + 1)`` block of rows ``[gradient, offset]`` of ``pieces``."""
    return np.array([np.append(p.gradient, p.offset) for p in pieces])


def compile_lattice_shallow(lat: LatticeForm) -> tuple[ReluNetwork, BoundReport]:
    """Compiles a max-of-mins form whose clauses have at most d+1 members.

    Per-clause min trees (depth at most ``ceil(log2(d+1))`` each) feed a
    balanced max tree; total depth is at most
    ``ceil(log2(d+1)) + ceil(log2 M) + 1`` and the size obeys the generic
    max-of-m bound over the padded clause networks.

    Raises:
        ClauseTooWide: If some clause has more than ``d + 1`` members.
    """
    d = lat.pieces[0].dim
    M = lat.num_clauses
    for k, s in enumerate(lat.clauses):
        if len(s) > d + 1:
            raise ClauseTooWide(
                f"clause {k} has {len(s)} members, above d+1 = {d + 1}; "
                "rewrite the form first (compile_cpwl_shallow does this)"
            )
    P = _piece_rows(lat.pieces)
    members = [list(s) for s in lat.clauses]
    clauses = _gadget_trees(MIN, [len(s) for s in members], _leaves(sum(map(len, members))))
    depths, sizes = _tree_sizes(clauses)
    depth = int(depths.max())
    if depth > ceil_log2(d + 1):
        raise BoundViolated("a clause tree is deeper than ceil(log2(d+1))")
    padded_sizes = sizes + _neurons("id") * (depth - depths)
    rows = P[np.concatenate(members)]
    net = _emit_trees(d, rows, _gadget_trees(MAX, [M], clauses), np.ones(1))
    X = np.random.default_rng(12345).normal(size=(64, d))
    _self_check(net, lambda P: eval_lattice(lat, P), X, "shallow lattice compile")
    return net, _bound_report(
        net,
        pathway="shallow-lattice",
        predicted_depth=ceil_log2(d + 1) + ceil_log2(M) + 1,
        predicted_size_bound=int(padded_sizes.sum()) + _neurons("max") * (2 * M - 1),
        d=d,
        m=lat.num_pieces,
        M=M,
    )


def compile_cpwl_shallow(
    f: CpwlPieces,
    rng: np.random.Generator | None = None,
    route: str = "auto",
) -> tuple[ReluNetwork, BoundReport]:
    """Compiles a piece-list CPWL function into a fixed-depth network.

    Builds a max-of-mins form (via the unique-order partition for d <= 2,
    or via the convex piece regions otherwise), expands it into a signed
    sum of plain max terms, rewrites every term to at most ``d + 1``
    arguments, and emits one balanced max tree per merged term into a
    shared builder (:func:`_shallow_net`).  Hidden depth is at most
    ``ceil(log2(d+1))`` — independent of the number of pieces.
    Size bound (checked): at most ``(2^m - 1)^M (2^(d+1) - 1)^max(m-d-1, 0)``
    terms, each a tree of at most ``5 d + 2 ceil(log2(d+1))`` neurons
    (:func:`_term_size_bound`).

    Args:
        f: The function; needs a domain box.
        rng: Generator for the verification sample points.
        route: ``"order"``, ``"regions"``, or ``"auto"`` (order for d <= 2).

    Returns:
        Network and checked bound report (``m`` pieces, ``M`` clauses).

    Raises:
        ExpansionOverflow: If ``m`` or ``M`` exceed the expansion caps.
    """
    rng = rng or np.random.default_rng(12345)
    d = f.dim
    m = f.num_pieces
    if m > MAX_PIECES_SHALLOW:
        raise ExpansionOverflow(
            f"{m} pieces exceed the expansion cap {MAX_PIECES_SHALLOW}"
        )
    if route == "auto":
        route = "order" if d <= 2 else "regions"
    if route == "order":
        lat = lattice_from_unique_order(f, unique_order_partition(f)).dedup()
    elif route == "regions":
        lat = lattice_from_convex_regions(f).dedup()
    else:
        raise ValueError(f"unknown route {route!r}")
    M = lat.num_clauses
    if M > MAX_CLAUSES_SHALLOW:
        raise ExpansionOverflow(
            f"{M} clauses exceed the expansion cap {MAX_CLAUSES_SHALLOW}"
        )
    pts = f.sample_domain(64, rng)
    state = _expand_lattice_terms(lat.clauses)
    P = _piece_rows(lat.pieces)
    terms = [(w, None, P[sorted(S)])
             for S, w in sorted(state.items(), key=lambda kv: sorted(kv[0]))]
    # Sanity: the expansion must reproduce the lattice form exactly.
    expansion = np.array([w for w, _, _ in terms]) @ _term_values(
        [_Term(1, None, rows) for _, _, rows in terms], pts)
    if _deviates(eval_lattice(lat, pts), expansion):
        raise RewriteCheckFailed("internal error: lattice expansion failed numerical check")
    net, _ = _shallow_net(terms, d, pts)
    _self_check(net, lambda P: np.asarray(f(P)), pts, "shallow CPWL compile")
    predicted_size = (
        _term_size_bound(d + 1, d)
        * (2**m - 1) ** M
        * (2 ** (d + 1) - 1) ** max(m - d - 1, 0)
    )
    return net, _bound_report(
        net,
        pathway="shallow",
        predicted_depth=ceil_log2(d + 1),
        predicted_size_bound=predicted_size,
        d=d,
        m=m,
        M=M,
    )


def _term_size_bound(width: int, d: int) -> int:
    """Neurons of one term's balanced max tree over ``width <= d + 1``
    leaves, its root carried to depth ``ceil(log2(d + 1))``.

    The tree has ``width - 1`` max gadgets (3 neurons each) and at most one
    one-level carry (2 neurons) per gadget, since the halves of a balanced
    tree differ by at most one level; its root rides at most
    ``ceil(log2(d + 1))`` levels of carry to the common depth.
    """
    gadget, carry = _neurons("max"), _neurons("id")
    return (gadget + carry) * (width - 1) + carry * ceil_log2(d + 1)


def _basis_shallow_size_bound(n: int, d: int) -> int:
    """Size bound for one hat compiled shallow from an n-element star: each
    of its ``C(n, j)`` terms over ``j`` star affines and the constant 0 is
    one tree if ``j <= d``, and else rewrites into at most
    ``(2^(d+1) - 1)^(j - d)`` trees of ``d + 1`` leaves."""
    total = 0
    for j in range(1, min(d, n) + 1):
        total += math.comb(n, j) * _term_size_bound(j + 1, d)
    for j in range(d + 1, n + 1):
        total += (
            math.comb(n, j) * _term_size_bound(d + 1, d) * (2 ** (d + 1) - 1) ** (j - d)
        )
    return total


def compile_fem_shallow(
    mesh: SimplicialMesh,
    coeffs: NDArray[np.float64],
    rng: np.random.Generator | None = None,
) -> tuple[ReluNetwork, BoundReport]:
    """Compiles a nodal finite element function via the shallow pathway.

    Each hat ``max(0, min_k g_k)`` with nonzero coefficient is expanded by
    inclusion-exclusion into ``2^n - 1`` terms ``w max(0, max_{k in T} g_k)``
    over its ``n`` star affines; wide terms are rewritten on the star's own
    rows to at most ``d + 1`` arguments, each pure term weighs ``c_i w``,
    identical terms merge across hats, and each merged weight folds into the
    first layer as in the deep pathway, its sign into the output.
    Hidden depth stays at most ``ceil(log2(d+1))`` regardless of the mesh;
    the size bound is combinatorial in the valences.

    Raises:
        ValueError: If a coefficient is missing, NaN or infinite.
        ExpansionOverflow: If a used vertex's valence exceeds
            ``MAX_PIECES_SHALLOW`` (its hat is a max-min over that many
            pieces); every used vertex is checked before any expansion.
        NotLocallyConvex: If a used vertex has a non-convex star.
    """
    rng = rng or np.random.default_rng(12345)
    coeffs = _checked_coeffs(mesh, coeffs)
    used = np.flatnonzero(coeffs)
    valence = np.bincount(mesh.simplices.ravel(), minlength=mesh.num_vertices)[used]
    over = np.flatnonzero(valence > MAX_PIECES_SHALLOW)
    if over.size:
        i, n = used[over[0]], valence[over[0]]
        raise ExpansionOverflow(
            f"vertex {i} has valence {n}: its hat's {n} star pieces exceed "
            f"the expansion cap {MAX_PIECES_SHALLOW}"
        )
    d = mesh.dim
    stars = _hat_stars(mesh, used)
    pts = sample_points(mesh, 128, rng)
    terms = []
    for u, i in enumerate(used):
        gs = stars.affine_rows[stars.starts[u] : stars.starts[u + 1]]
        for T, w in _expand_lattice_terms([tuple(range(len(gs)))]).items():
            terms.append((coeffs[i] * w, 0.0, gs[sorted(T)]))
    net, M = _shallow_net(terms, d, pts)
    _self_check(net, lambda P: interpolate(mesh, coeffs, P), pts, "shallow FE function")
    bound = sum(_basis_shallow_size_bound(int(n), d) for n in valence)
    return net, _bound_report(
        net,
        pathway="shallow",
        predicted_depth=ceil_log2(d + 1),
        predicted_size_bound=bound,
        d=d,
        kh=compute_kh(mesh),
        m=len(used),
        M=M,
    )
