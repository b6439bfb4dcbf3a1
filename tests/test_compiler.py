"""Compiler pathways: gadget trees, rewriting, deep and shallow compilers.

Oracles are independent re-implementations: a hardcoded 3-neuron min/max
gadget, the three-way rewrite identity evaluated from its own sign table,
brute-force max/min evaluation, and combinatorial size-bound formulas.
"""

import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
from helpers import (
    crisscross_mesh,
    kuhn_cube_mesh,
    net_per_compile_path,
    network_digest,
    random_fan,
    random_max_affine,
    random_zigzag,
    square_two_triangles,
    unit,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cpwlrelu.compiler as C
from cpwlrelu.compiler import (
    ceil_log2,
    compile_cpwl_shallow,
    compile_fem_deep,
    compile_fem_shallow,
    compile_lattice_shallow,
    compile_max_of_m,
    equivalence_report,
    reduce_term_width,
)
from cpwlrelu.cpwl import AffineFunc, LatticeForm, eval_pieces
from cpwlrelu.errors import (
    BoundViolated,
    ClauseTooWide,
    DimensionMismatch,
    ExpansionOverflow,
    NotLocallyConvex,
    NumericalDependenceAmbiguous,
    RewriteCheckFailed,
    SelfCheckFailed,
    SingularSystem,
)
from cpwlrelu.mesh import build_mesh, compute_kh, interpolate, sample_points
from cpwlrelu.quantize import QuantGrid, check_structured
from cpwlrelu.relu_net import (
    GADGETS,
    OPS,
    NetBuilder,
    ReluNetwork,
    affine_network,
    eval_network,
    load_network,
    network_from_dict,
    network_stats,
    network_to_dict,
    save_network,
)


def test_ceil_log2_oracle():
    for n in range(1, 40):
        assert ceil_log2(n) == math.ceil(math.log2(n)), n
    assert ceil_log2(1) == 0


# ---------------------------------------------------------------------------
# Scalar gadget identity (independent hardcoded oracle)
# ---------------------------------------------------------------------------

# min(a, b) = a - relu(a - b) and max(a, b) = a + relu(b - a), with
# a = relu(a) - relu(-a).
ORACLE_MIN_W = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, -1.0]])
ORACLE_MIN_V = np.array([1.0, -1.0, -1.0])
ORACLE_MAX_W = np.array([[1.0, 0.0], [-1.0, 0.0], [-1.0, 1.0]])
ORACLE_MAX_V = np.array([1.0, -1.0, 1.0])


def test_gadget_patterns_match_hardcoded_oracle():
    for kind, W, v in (("min", ORACLE_MIN_W, ORACLE_MIN_V), ("max", ORACLE_MAX_W, ORACLE_MAX_V)):
        patterns, combo = GADGETS[kind]
        assert np.array_equal(np.array(patterns), W), kind
        assert np.array_equal(np.array(combo), v), kind
        # the builder writes exactly these rows and output weights
        nb = NetBuilder(ReluNetwork(2, [(np.eye(2), np.zeros(2))]))  # the inputs x_0, x_1
        nb.apply_level([OPS.index(kind)], [0], [1])
        net = nb.finish([([1.0], [0])])
        assert np.array_equal(net.layers[0][0].toarray(), W), kind
        assert np.array_equal(net.layers[1][0].toarray(), v[None, :]), kind


def test_scalar_gadget_exact(rng):
    """Bit-exact on [-1, 1]: uniform doubles are multiples of 2**-52, so
    a - b, b - a and every partial sum of the output (a subset of a, the
    relu of a - b or b - a, and the result min or max) are multiples of
    2**-52 of magnitude at most 2, hence exactly representable."""
    Z = rng.uniform(-1.0, 1.0, size=(2, 20_000))
    got_min = ORACLE_MIN_V @ np.maximum(ORACLE_MIN_W @ Z, 0.0)
    got_max = ORACLE_MAX_V @ np.maximum(ORACLE_MAX_W @ Z, 0.0)
    assert np.array_equal(got_min, np.minimum(Z[0], Z[1]))
    assert np.array_equal(got_max, np.maximum(Z[0], Z[1]))


# ---------------------------------------------------------------------------
# Generic max-of-m trees
# ---------------------------------------------------------------------------


def _padded_size_bound(nets):
    target = max(n.hidden_layer_count for n in nets)
    return sum(
        network_stats(n).size + 2 * (target - n.hidden_layer_count) for n in nets
    )


def test_compile_max_of_m_exact_and_bounds(rng):
    for trial in range(10):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(2, 7))
        nets = [affine_network(rng.normal(size=d), float(rng.normal())) for _ in range(m)]
        net, rep = compile_max_of_m(nets)
        X = rng.uniform(-2, 2, size=(300, d))
        ref = np.max(
            np.stack([eval_network(n, X) for n in nets]), axis=0
        )
        assert np.max(np.abs(eval_network(net, X) - ref)) < 1e-12
        # independent bound recomputation
        assert net.hidden_layer_count <= 0 + ceil_log2(m) + 1
        assert network_stats(net).size <= _padded_size_bound(nets) + 4 * (2 * m - 1)
        assert rep.actual_depth == net.hidden_layer_count
        assert rep.actual_size == network_stats(net).size


def test_compile_max_of_m_mixed_depths(rng):
    a = affine_network(np.array([1.0]), 0.0)
    nested, _ = compile_max_of_m(
        [affine_network(np.array([1.0]), -0.5), affine_network(np.array([-1.0]), 0.5)]
    )
    net, rep = compile_max_of_m([a, nested])
    X = np.linspace(-2, 2, 201)[:, None]
    ref = np.maximum(X[:, 0], np.maximum(X[:, 0] - 0.5, 0.5 - X[:, 0]))
    assert np.max(np.abs(eval_network(net, X) - ref)) < 1e-12
    assert net.hidden_layer_count <= nested.hidden_layer_count + ceil_log2(2) + 1


def test_compile_max_of_m_pads_lazily():
    """Each pair step pads only its shallower argument: padding all three
    inputs to the common depth first would give depth 4."""
    x = lambda a, b: affine_network(np.array([a]), b)
    third, _ = compile_max_of_m([x(1.0, 0.0), x(-1.0, 0.0), x(0.5, -0.25)])
    net, rep = compile_max_of_m([x(2.0, -1.0), x(-2.0, -1.0), third])
    assert (net.hidden_layer_count, net.size) == (3, 16)
    X = np.linspace(-2, 2, 401)[:, None]
    ref = np.max(np.stack([2 * X - 1, -2 * X - 1, X, -X, X / 2 - 0.25]), axis=0)[:, 0]
    assert np.max(np.abs(eval_network(net, X) - ref)) < 1e-12


# Gadget trees as nested tuples: ``(kind, child, ...)`` with an ``int`` leaf
# naming its row; the oracles below read them directly.
ZERO = "zero"


def _balanced_expr(kind, args):
    """The balanced ``kind`` tree over ``args``: the left half takes
    ``ceil(m/2)`` of them, so a leading ``ZERO`` of a max list ends in the
    pair ``max(0, x) = ("relu", x)``."""
    if len(args) == 1:
        return args[0]
    if kind == "max" and len(args) == 2 and args[0] is ZERO:
        return ("relu", args[1])
    k = (len(args) + 1) // 2
    return (kind, _balanced_expr(kind, args[:k]), _balanced_expr(kind, args[k:]))


def _forest(exprs):
    """``C._Forest`` of the trees, listed node by node in post-order, and
    the rows its leaves read in that order."""
    code, kids, leaf, roots, span = [], [], [], [], []

    def visit(e):
        if isinstance(e, int):
            code.append(C.LEAF), kids.append((-1, -1)), leaf.append(e)
        else:
            ch = [visit(c) for c in e[1:]]
            code.append(OPS.index(e[0])), kids.append((ch + [-1])[:2])
        return len(code) - 1

    for e in exprs:
        start = len(code)
        roots.append(visit(e))
        span.append(len(code) - start)
    arrays = (np.array(code), np.array(kids).reshape(-1, 2), np.array(roots), np.array(span))
    return C._Forest(*(a.astype(np.int64) for a in arrays)), leaf


def _expr_value(e, rows, X):
    if isinstance(e, int):
        return X @ rows[e, :-1] + rows[e, -1]
    vals = [_expr_value(c, rows, X) for c in e[1:]]
    if e[0] == "relu":
        return np.maximum(vals[0], 0.0)
    return (np.minimum if e[0] == "min" else np.maximum)(*vals)


def _expr_size(e):
    """``(depth, neurons)`` of a tree emitted without sharing: 3 per gadget,
    1 per relu, 2 per level of carry of a child finished early."""
    if isinstance(e, int):
        return 0, 0
    kids = [_expr_size(c) for c in e[1:]]
    depth = 1 + max(d for d, _ in kids)
    neurons = len(GADGETS[e[0]][0])
    return depth, neurons + sum(s + 2 * (depth - 1 - d) for d, s in kids)


def _kinds(trees):
    return [OPS[c] for c in trees.code if c != C.LEAF]


def test_gadget_trees_match_balanced_oracle(rng):
    """``_gadget_trees`` lists the balanced trees of its templates as the
    nested-tuple oracle does, also composed over trees of a first stage and
    led by a zero."""
    for trial in range(30):
        kinds = [str(k) for k in rng.choice(["min", "max"], size=2)]
        widths = rng.integers(1, 8, size=int(rng.integers(1, 6)))
        zero = [kinds[0] == "max" and rng.random() < 0.5 for _ in widths]
        stage = C._gadget_trees(OPS.index(kinds[0]), widths, C._leaves(widths.sum()), zero)
        first, rows = [], list(range(int(widths.sum())))
        for w, z in zip(widths, zero):
            first.append(_balanced_expr(kinds[0], [ZERO] * z + rows[:w]))
            rows = rows[w:]
        assert all(np.array_equal(a, b) for a, b in zip(stage, _forest(first)[0])), trial
        tops = rng.multinomial(len(widths) - 1, np.ones(2) / 2) + np.array([1, 0])
        tops = tops[tops > 0]
        top_zero = [kinds[1] == "max" and rng.random() < 0.5 for _ in tops]
        second = C._gadget_trees(OPS.index(kinds[1]), tops, stage, top_zero)
        want = []
        for w, z in zip(tops, top_zero):
            want.append(_balanced_expr(kinds[1], [ZERO] * z + first[:w]))
            first = first[w:]
        assert all(np.array_equal(a, b) for a, b in zip(second, _forest(want)[0])), trial


def test_node_size_matches_emitted_network(rng):
    """The size model counts what the builder emits: for a random balanced
    tree of min/max subtrees over distinct random affine leaves, where
    nothing can be shared, ``_tree_sizes`` gives the tree's size (the
    unequal subtrees force identity carries, the zero-led max lists relu
    nodes), and so does the network."""
    relus = 0
    for trial in range(40):
        d = int(rng.integers(1, 4))
        groups, n = [], 0
        for _ in range(int(rng.integers(1, 6))):
            w = int(rng.integers(1, 7))
            kind = str(rng.choice(["min", "max"]))
            zero = [ZERO] if kind == "max" and rng.random() < 0.5 else []
            groups.append(_balanced_expr(kind, zero + list(range(n, n + w))))
            n += w
        kind = str(rng.choice(["min", "max"]))
        zero = [ZERO] if kind == "max" and rng.random() < 0.5 else []
        root = _balanced_expr(kind, zero + groups)
        rows = rng.normal(size=(n, d + 1))
        trees, order = _forest([root])
        assert order == list(range(n))
        depth, size = _expr_size(root)
        assert [a.tolist() for a in C._tree_sizes(trees)] == [[depth], [size]], trial
        X = rng.uniform(-2, 2, size=(200, d))
        relus += _kinds(trees).count("relu")
        net = C._emit_trees(d, rows, trees, np.ones(1))
        assert (net.hidden_layer_count, net.size) == (depth, size), trial
        assert np.max(np.abs(eval_network(net, X) - _expr_value(root, rows, X))) < 1e-12, trial
    assert relus > 0


def test_emit_trees_emits_each_distinct_subtree_once(rng, monkeypatch):
    """Equal subtrees and repeated leaves are emitted once and read by every
    consumer: ``max(a, b)`` is listed four times and emitted as one gadget,
    ``min(max(a, b), c)`` is a root and a subtree of another root,
    ``relu(max(a, b))`` is a root read with both signs, and each of the
    three rows is one level-0 channel, read by up to five leaves."""
    rows = rng.normal(size=(3, 3))
    ab = ("max", 0, 1)
    roots = [("min", ab, 2), ("relu", ab), ("max", ("min", ab, 2), 0), ("relu", ab)]
    signs = np.array([1.0, 1.0, -1.0, -1.0])
    X = rng.uniform(-2, 2, size=(500, 2))
    want = sum(s * _expr_value(r, rows, X) for s, r in zip(signs, roots))
    seeds = []
    monkeypatch.setattr(C, "NetBuilder", lambda net: seeds.append(net.output_dim)
                        or NetBuilder(net))
    trees, order = _forest(roots)
    net = C._emit_trees(2, rows[order], trees, signs)
    assert seeds == [3]
    # The distinct nodes: max(a, b) 3; c carried to level 1, 2; min 3 and its
    # carry to the top, 2; relu 1 and its carry, 2; a carried to level 2
    # for the top max, 4; the top max 3.  As trees the roots cost 37.
    depth, size = C._tree_sizes(trees)
    assert int((size + 2 * (3 - depth)).sum()) == 37
    assert (net.hidden_layer_count, net.size) == (3, 20)
    assert np.max(np.abs(eval_network(net, X) - want)) < 1e-12
    assert check_structured(net, QuantGrid(0, 2)).passed


def test_compile_max_of_m_rejects_multi_output():
    two = ReluNetwork(2, [(np.eye(2), np.zeros(2))])
    with pytest.raises(DimensionMismatch):
        compile_max_of_m([two, affine_network(np.array([1.0, 0.0]), 0.0)])
    with pytest.raises(DimensionMismatch):
        compile_max_of_m([two])


# ---------------------------------------------------------------------------
# The three-way rewrite identity (independent sign table)
# ---------------------------------------------------------------------------


def _oracle_three_term(F, g, h, alpha, X):
    """max(F, g, alpha*g + h) via the identity, with its own sign table."""
    abar = 1.0 / (1.0 - alpha)
    vF = [f_(X) for f_ in F]
    vg = g(X)
    vh = h(X)
    vmix = alpha * vg + vh
    vbar = abar * vh
    if alpha > 1.0:
        s, gbar = (-1, 1, 1), vg
    elif 0 < alpha < 1:
        s, gbar = (1, -1, 1), vmix
    else:
        s, gbar = (1, 1, -1), vbar
    t1 = np.max(np.stack(vF + [vg, vbar]), axis=0)
    t2 = np.max(np.stack(vF + [vmix, vbar]), axis=0)
    t3 = np.max(np.stack(vF + [gbar]), axis=0)
    return s[0] * t1 + s[1] * t2 + s[2] * t3


def test_three_term_identity_all_regimes(rng):
    d = 2
    for trial in range(60):
        alpha = float(rng.choice([rng.uniform(1.1, 5), rng.uniform(0.05, 0.95),
                                  rng.uniform(-5, -0.05)]))
        F = [AffineFunc(rng.normal(size=d), float(rng.normal())) for _ in range(2)]
        g = AffineFunc(rng.normal(size=d), float(rng.normal()))
        h = AffineFunc(rng.normal(size=d), float(rng.normal()))
        X = rng.uniform(-4, 4, size=(400, d))
        lhs = np.max(
            np.stack([f_(X) for f_ in F] + [g(X), alpha * g(X) + h(X)]), axis=0
        )
        rhs = _oracle_three_term(F, g, h, alpha, X)
        scale = max(1.0, np.max(np.abs(lhs)))
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale, alpha


# ---------------------------------------------------------------------------
# Width reduction
# ---------------------------------------------------------------------------


def test_reduce_term_width_postconditions(rng):
    d = 2
    for trial in range(20):
        n_args = int(rng.integers(4, 7))
        affs = [AffineFunc(rng.normal(size=d), float(rng.normal())) for _ in range(n_args)]
        c0 = float(rng.normal()) if rng.random() < 0.5 else None
        pts = rng.uniform(-3, 3, size=(250, d))
        before = C.REWRITE_CHECKS_PASSED
        out = reduce_term_width([(1.0, c0, C._piece_rows(affs))], pts)
        assert C.REWRITE_CHECKS_PASSED > before  # every step was audited
        for w, t in out:
            assert t.alphas is None  # pure terms only
            assert w == t.sign
            width = len(t.rows) + (1 if t.c0 is not None else 0)
            assert width <= d + 1
        stacked = [a(pts) for a in affs] + ([] if c0 is None else [np.full(len(pts), c0)])
        ref = np.max(np.stack(stacked), axis=0)
        got = C._term_values([t for _, t in out], pts).sum(axis=0)
        scale = max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(got - ref)) < 1e-9 * scale


def test_reduce_width_noop_when_narrow(rng):
    d = 2
    affs = [AffineFunc(rng.normal(size=d), 0.0) for _ in range(2)]
    pts = rng.uniform(-1, 1, size=(50, d))
    out = reduce_term_width([(-2.5, None, C._piece_rows(affs))], pts)
    assert len(out) == 1 and out[0][0] == -2.5 and out[0][1].alphas is None


def _kind_counts(steps) -> dict:
    """How many recorded rewrite steps of each kind, eliminations aside."""
    kinds = [kind.split()[0] for _, _, kind in steps if kind != "elimination step"]
    return {k: kinds.count(k) for k in set(kinds)}


def _pinned_rows(rng):
    """Three random arguments, one parallel to the first and one equal to
    the sum of the first two plus a constant, so that every rewrite kind
    runs."""
    g = [AffineFunc(rng.normal(size=2), float(rng.normal())) for _ in range(4)]
    return C._piece_rows(g[:3] + [
        AffineFunc(g[0].gradient, g[0].offset + 0.5),
        AffineFunc(g[0].gradient + g[1].gradient, g[0].offset + g[1].offset - 0.3),
    ])


def _record_batches(monkeypatch) -> list:
    """Wraps ``_audit_batch``; returns the list of batches it is handed,
    each a copy of its steps taken before the real audit runs on them."""
    batches = []
    audit = C._audit_batch

    def recording(steps, p):
        batches.append(list(steps))
        return audit(steps, p)

    monkeypatch.setattr(C, "_audit_batch", recording)
    return batches


def test_reduce_term_width_audit_count_is_pinned(monkeypatch):
    # 164 audited steps and 133 pure terms were recorded for this input
    # when each step was audited as it happened; every step must still be
    # audited.
    rng = np.random.default_rng(31)
    rows = _pinned_rows(rng)
    pts = rng.uniform(-3, 3, size=(200, 2))
    batches = _record_batches(monkeypatch)
    before = C.REWRITE_CHECKS_PASSED
    out = reduce_term_width([(1.0, 0.25, rows)], pts)
    steps = [step for batch in batches for step in batch]
    assert C.REWRITE_CHECKS_PASSED - before == sum(_kind_counts(steps).values()) == 164
    assert len(out) == 133
    assert _kind_counts(steps) == {
        "constant-merge": 90, "domination": 7, "re-rooting": 1, "three-term": 66
    }


def test_dependency_searches_are_shared_within_one_call_only(monkeypatch):
    """A repeated argument block reuses its dependency within one call, read
    only: every call searches the same blocks again, and no dependency of
    one call is handed to the next."""
    rng = np.random.default_rng(31)
    rows = _pinned_rows(rng)
    pts = rng.uniform(-3, 3, size=(200, 2))
    find, resolve = C._find_dependency, C._resolve_dependent
    searched, dependents = [], []

    def counting(r, d):
        searched.append(r)
        return find(r, d)

    def resolving(t, out, steps):
        dependents.append(t)
        return resolve(t, out, steps)

    monkeypatch.setattr(C, "_find_dependency", counting)
    monkeypatch.setattr(C, "_resolve_dependent", resolving)
    counts, shared = [], []
    for _ in range(2):
        searched.clear()
        dependents.clear()
        reduce_term_width([(1.0, 0.25, rows)], pts)
        counts.append(len(searched))
        # Each elimination's dependent term holds the shared read-only arrays.
        shared.append([t for t in dependents if not t.alphas.flags.writeable])
    assert counts[0] == counts[1] > 0
    first, second = ({id(t.alphas) for t in call} for call in shared)
    assert len(first) == len(second) == counts[0] and not first & second
    uses = [t.alphas for t in shared[1]]
    hit = next(t for t in shared[1] if sum(a is t.alphas for a in uses) > 1)
    with pytest.raises(ValueError, match="read-only"):
        hit.alphas[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        hit.rows[0, 0] = 1.0


def test_audit_rejects_a_wrong_rewrite(rng):
    # A dependent argument 2.5 a0 + 0.7 a1 - 0.1 takes the three-term pivot;
    # take that rewrite's recorded branches, then corrupt them.
    affs = [AffineFunc(rng.normal(size=2), float(rng.normal())) for _ in range(2)]
    t = C._Term(1, 0.3, C._piece_rows(affs), np.array([2.5, 0.7]), -0.1)
    pts = rng.uniform(-3, 3, size=(200, 2))
    steps = []
    C._resolve_dependent(t, [], steps)
    parent, branches, kind = steps[0]
    assert parent is t and kind.split()[0] == "three-term" and len(branches) == 3
    C._audit_batch([(t, branches, "three-term")], pts)  # the true rewrite passes

    a, b, c = branches
    flipped = C._Term(-a.sign, a.c0, a.rows, a.alphas, a.alpha0)
    with pytest.raises(AssertionError, match="sign-flipped"):
        C._audit_batch([(t, [flipped, b, c], "sign-flipped")], pts)

    # Move the offset of the argument of the pure branch that is its max
    # most often, so the move shows at the audit points.
    winners = np.argmax(pts @ c.rows[:, :-1].T + c.rows[:, -1], axis=1)
    j = int(np.bincount(winners).argmax())
    moved_rows = c.rows.copy()
    moved_rows[j, -1] += 1e-6
    moved = C._Term(c.sign, c.c0, moved_rows)
    moved_value, c_value = C._term_values([moved, c], pts)
    assert np.any(moved_value != c_value)
    with pytest.raises(AssertionError, match="offset-moved"):
        C._audit_batch([(t, [a, b, moved], "offset-moved")], pts)


@pytest.mark.parametrize("side", [0, 1])
def test_audit_fails_closed_on_nan(side):
    """A NaN on either side of a check is a failure, not a pass: the
    comparison is ``dev <= tol * scale``, which NaN never satisfies."""
    before, after = np.array([0.0, 1.0]), np.array([0.0, 1.0])
    (before, after)[side][0] = np.nan
    assert C._deviates(before, after)
    assert C._deviates(np.stack([after, before]), np.stack([before, after])).tolist() == [
        True, True]
    # The batched audit: a NaN in a part's offset, then in the parent's.
    rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    t = C._Term(1, 0.0, rows)
    bad = rows.copy()
    bad[0, -1] = np.nan
    pair = [t, C._Term(1, 0.0, bad)]
    pts = np.random.default_rng(0).uniform(-1, 1, size=(20, 2))
    with pytest.raises(RewriteCheckFailed, match="nan-step"):
        C._audit_batch([(pair[side], [pair[1 - side]], "nan-step")], pts)


def _max_affine_oracle(terms, pts):
    """``sum w * max({c0} U rows)`` over the ``(w, c0, rows)`` terms."""
    total = np.zeros(len(pts))
    for w, c0, rows in terms:
        args = pts @ rows[:, :-1].T + rows[:, -1]
        if c0 is not None:
            args = np.column_stack([args, np.full(len(pts), c0)])
        total += w * args.max(axis=1)
    return total


def test_audit_batches_span_terms_and_hold_every_step(monkeypatch):
    """Every step goes through exactly one audit batch, in order.  A batch
    is flushed once ``AUDIT_CHUNK`` steps wait, after the elimination that
    reached it, so it holds fewer than ``AUDIT_CHUNK`` steps plus one
    elimination's (the last batch fewer than ``AUDIT_CHUNK``), and batches
    run across term boundaries.  The pure terms come term after term, as
    one call per term gives them, each weighted by its input term's weight
    times its sign."""
    rng = np.random.default_rng(31)
    rows = _pinned_rows(rng)
    pts = rng.uniform(-3, 3, size=(200, 2))
    terms = [(1.0, 0.25, rows), (-2.0, None, rows[::-1].copy()), (0.5, 0.25, rows)]
    batches = _record_batches(monkeypatch)
    find, searched = C._find_dependency, []

    def counting(r, d):
        searched.append((r.shape, r.tobytes()))
        return find(r, d)

    monkeypatch.setattr(C, "_find_dependency", counting)
    before = C.REWRITE_CHECKS_PASSED
    out = reduce_term_width(terms, pts)
    audited = C.REWRITE_CHECKS_PASSED - before
    # Two copies of the pinned term (164 steps each) and one reversed copy.
    assert audited > 2 * 164
    eliminated = [t for batch in batches for t, _, kind in batch if kind == "elimination step"]
    assert sum(map(len, batches)) == audited + len(eliminated)
    # One dependency search per distinct argument block eliminated from; the
    # second copy of the pinned term repeats the first one's blocks.
    blocks = {(t.rows.shape, t.rows.tobytes()) for t in eliminated}
    assert len(searched) == len(set(searched)) == len(blocks) < len(eliminated)
    assert set(searched) == blocks
    mid_batch_starts = 0
    for k, batch in enumerate(batches):
        marks = [i for i, (_, _, kind) in enumerate(batch) if kind == "elimination step"]
        if k < len(batches) - 1:
            assert marks[-1] == len(batch) - 1 and len(batch) >= C.AUDIT_CHUNK
            waiting = marks[-2] + 1 if len(marks) > 1 else 0
            assert waiting < C.AUDIT_CHUNK  # before the last elimination
        else:
            assert len(batch) < C.AUDIT_CHUNK
        # Only a term's first elimination has the caller's block as its rows.
        mid_batch_starts += sum(any(batch[i][0].rows is block for _, _, block in terms)
                                for i in marks[1:])
    assert mid_batch_starts > 0
    got = np.array([w * t.sign for w, t in out]) @ C._term_values([t for _, t in out], pts)
    want = _max_affine_oracle(terms, pts)
    assert np.max(np.abs(got - want)) < 1e-9 * max(1.0, np.max(np.abs(want)))
    alone = [pair for term in terms for pair in reduce_term_width([term], pts)]
    assert [w for w, _ in out] == [w for w, _ in alone]
    assert all(t.rows.tobytes() == u.rows.tobytes() and t.c0 == u.c0
               for (_, t), (_, u) in zip(out, alone))


def test_audit_chunks_catch_a_late_corrupted_step(monkeypatch):
    """A wrong step after the first batch is still caught, named by its
    kind; the batches before it passed and were counted, the failing one
    was not, and no later batch runs."""
    rng = np.random.default_rng(31)
    rows = _pinned_rows(rng)
    pts = rng.uniform(-3, 3, size=(200, 2))
    batches = _record_batches(monkeypatch)
    resolve, corrupted = C._resolve_dependent, []

    def corrupting(t, out, steps):
        resolve(t, out, steps)
        if batches and not corrupted:  # the first step after the first batch
            corrupted.append(t)
            steps.append((t, [C._Term(-t.sign, t.c0, t.rows, t.alphas, t.alpha0)],
                          "corrupted"))

    monkeypatch.setattr(C, "_resolve_dependent", corrupting)
    before = C.REWRITE_CHECKS_PASSED
    with pytest.raises(RewriteCheckFailed, match="corrupted"):
        reduce_term_width([(1.0, 0.25, rows)] * 3, pts)
    assert len(batches) == 2 and any(kind == "corrupted" for _, _, kind in batches[1])
    assert C.REWRITE_CHECKS_PASSED - before == sum(_kind_counts(batches[0]).values())


@pytest.mark.parametrize("then", ["dependency fit fails", "too many pieces"])
def test_audit_reports_a_wrong_step_before_a_later_error(monkeypatch, then):
    """A wrong step followed by an error in the symbolic phase is reported
    as RewriteCheckFailed: the steps taken before the error are audited
    first, also when fewer than ``AUDIT_CHUNK`` of them wait."""
    rng = np.random.default_rng(31)
    rows = _pinned_rows(rng)
    pts = rng.uniform(-3, 3, size=(200, 2))
    resolve, find = C._resolve_dependent, C._find_dependency
    calls = []

    def corrupting(t, out, steps):
        top = not calls
        calls.append(t)
        resolve(t, out, steps)
        if top:  # the first elimination's dependent term, after its steps
            steps.append((t, [C._Term(-t.sign, t.c0, t.rows, t.alphas, t.alpha0)], "corrupted"))
            if then == "too many pieces":
                out.extend(out[:1] * 2 ** 3)

    def failing_second(rows, d):
        if len(calls) > 1:
            raise NumericalDependenceAmbiguous("stand-in for a later failure")
        return find(rows, d)

    monkeypatch.setattr(C, "_resolve_dependent", corrupting)
    monkeypatch.setattr(C, "_find_dependency", failing_second)
    with pytest.raises(RewriteCheckFailed, match="corrupted") as info:
        reduce_term_width([(1.0, 0.25, rows)], pts)
    later = NumericalDependenceAmbiguous if then == "dependency fit fails" else AssertionError
    assert isinstance(info.value.__context__, later)
    assert "corrupted" not in str(info.value.__context__)


def test_audit_reports_a_wrong_step_before_a_later_terms_error(monkeypatch):
    """Audit batches span terms: a wrong step in one term, still waiting
    for its batch, is reported as RewriteCheckFailed when the next term's
    dependency fit raises."""
    rng = np.random.default_rng(31)
    first = rng.normal(size=(4, 3))  # one elimination, fewer than AUDIT_CHUNK steps
    second = _pinned_rows(rng)
    pts = rng.uniform(-3, 3, size=(200, 2))
    resolve, find = C._resolve_dependent, C._find_dependency
    corrupted, raised = [], []

    def corrupting(t, out, steps):
        top = not corrupted
        corrupted.append(t)
        resolve(t, out, steps)
        if top:
            steps.append((t, [C._Term(-t.sign, t.c0, t.rows, t.alphas, t.alpha0)], "corrupted"))

    def failing_on_second(rows, d):
        if rows is second:
            raised.append(rows)
            raise NumericalDependenceAmbiguous("stand-in for a later term's failure")
        return find(rows, d)

    batches = _record_batches(monkeypatch)
    monkeypatch.setattr(C, "_resolve_dependent", corrupting)
    monkeypatch.setattr(C, "_find_dependency", failing_on_second)
    with pytest.raises(RewriteCheckFailed, match="corrupted") as info:
        reduce_term_width([(1.0, 0.25, first), (1.0, 0.25, second)], pts)
    assert raised and len(batches) == 1 and len(batches[0]) < C.AUDIT_CHUNK
    assert isinstance(info.value.__context__, NumericalDependenceAmbiguous)
    assert "later term" in str(info.value.__context__)


def test_rewrites_leave_shared_rows_unchanged(rng, monkeypatch):
    """Terms share row blocks, so a rewrite may change rows only in a copy:
    the caller's block, each parent term's rows and every recorded part's
    rows keep, to the end, the bits they had when first seen, and a compile
    leaves ``mesh.bary_inverse`` as it was.

    A term is first seen when the recursion enters it (before any deeper
    step) or, at the latest, when the step recording it enters the next
    call or reaches the audit, which still runs on every step."""
    first_seen, kinds, recorded = {}, set(), []
    audit, resolve = C._audit_batch, C._resolve_dependent

    def remember(t):
        first_seen.setdefault(id(t), (t, t.rows.tobytes()))

    def resolving(t, out, steps):
        remember(t)
        for parent, parts, _ in steps:
            for u in (parent, *parts):
                remember(u)
        return resolve(t, out, steps)

    def snapshot(steps, p):
        for step in steps:
            for u in (step[0], *step[1]):
                remember(u)
            kinds.add(step[2].split()[0])
            recorded.append(step)
        return audit(steps, p)

    monkeypatch.setattr(C, "_resolve_dependent", resolving)
    monkeypatch.setattr(C, "_audit_batch", snapshot)
    audited = C.REWRITE_CHECKS_PASSED
    pts = rng.uniform(-3, 3, size=(200, 2))
    # three-term pivots with 0 < alpha < 1, alpha > 1 and alpha < 0,
    # re-rooting, domination with a shifted offset, constant merge
    for alphas, a0 in (([2.5, 0.7], -0.1), ([0.5, 3.0], 0.2), ([1.0, -2.0], 0.1),
                       ([1.0, 1.0], 0.3), ([0.0, 1.0], 0.4), ([0.0, 0.0], 0.1)):
        rows = rng.normal(size=(2, 3))
        t = C._Term(1, 0.3, rows, np.array(alphas), a0)
        before = rows.tobytes()
        steps = []
        C._resolve_dependent(t, [], steps)
        C._audit_batch(steps, pts)
        assert t.rows is rows and rows.tobytes() == before, alphas
    g = rng.normal(size=(4, 3))
    rows = np.vstack([g[:3], g[0] + [0, 0, 0.5], g[0] + g[1] - [0, 0, 0.3]])
    before = rows.tobytes()
    reduce_term_width([(1.0, 0.25, rows), (-1.0, None, rows)], pts)
    assert rows.tobytes() == before
    assert kinds == {"constant-merge", "domination", "re-rooting", "three-term", "elimination"}
    assert all(t.rows.tobytes() == b for t, b in first_seen.values())
    # The audit counted every step the wrapper passed on.
    assert C.REWRITE_CHECKS_PASSED - audited == sum(_kind_counts(recorded).values()) > 0

    mesh = crisscross_mesh(np.linspace(0, 1, 4), np.linspace(0, 1, 4))
    bary = mesh.bary_inverse.tobytes()
    coeffs = rng.normal(size=mesh.num_vertices)
    compile_fem_deep(mesh, coeffs)
    compile_fem_shallow(mesh, coeffs)
    assert mesh.bary_inverse.tobytes() == bary


def test_term_value_matches_per_argument_evaluation(rng):
    affs = [AffineFunc(rng.normal(size=3), float(rng.normal())) for _ in range(4)]
    X = rng.uniform(-2, 2, size=(100, 3))
    cols = np.stack([a(X) for a in affs], axis=1)
    cases = ((None, None, 0.0), (0.4, None, 0.0), (-0.2, rng.normal(size=4), 0.3))
    for c0, alphas, a0 in cases:
        want = cols
        if alphas is not None:
            want = np.column_stack([want, cols @ alphas + a0])
        if c0 is not None:
            want = np.column_stack([want, np.full(len(X), c0)])
        (got,) = C._term_values([C._Term(-1, c0, C._piece_rows(affs), alphas, a0)], X)
        assert np.allclose(got, -want.max(axis=1), rtol=0, atol=1e-12)

    # A mixed batch: terms of different row counts, with and without a
    # dependent or a constant argument, interleaved, each against its own
    # per-argument evaluation.
    terms, wants = [], []
    for k in range(24):
        L = int(rng.integers(1, 5))
        rows = rng.normal(size=(L, 4))
        alphas = rng.normal(size=L) if k % 3 == 0 else None
        c0 = float(rng.normal()) if k % 2 else None
        sign = int(rng.choice([-1, 1]))
        args = [X @ r[:-1] + r[-1] for r in rows]
        if alphas is not None:
            args.append(sum(a * v for a, v in zip(alphas, args)) + 0.7)
        if c0 is not None:
            args.append(np.full(len(X), c0))
        terms.append(C._Term(sign, c0, rows, alphas, 0.7))
        wants.append(sign * np.max(args, axis=0))
    assert len({(len(t.rows), t.alphas is None, t.c0 is None) for t in terms}) > 4
    got = C._term_values(terms, X)
    assert got.shape == (len(terms), len(X))
    assert np.allclose(got, np.array(wants), rtol=0, atol=1e-12)


def test_shallow_compiles_repeat_exactly(rng):
    f = random_max_affine(2, 5, rng)
    mesh = crisscross_mesh(np.linspace(0, 1, 4), np.linspace(0, 1, 4))
    coeffs = rng.normal(size=mesh.num_vertices)
    for compile_once in (
        lambda: compile_cpwl_shallow(f)[0],
        lambda: compile_fem_shallow(mesh, coeffs)[0],
    ):
        first, second = compile_once(), compile_once()
        assert len(first.layers) == len(second.layers)
        for (W1, b1), (W2, b2) in zip(first.layers, second.layers):
            assert np.array_equal(W1.indptr, W2.indptr)
            assert np.array_equal(W1.indices, W2.indices)
            assert np.array_equal(W1.data, W2.data)
            assert np.array_equal(b1, b2)


def test_ambiguous_dependency_is_a_hard_error(rng):
    # Gradients of the first candidate subset span only the x-axis while the
    # target has a 1e-6 y-component: the fit residual lands in the ambiguity
    # band and must abort rather than silently rewrite.
    affs = [
        AffineFunc(np.array([1.0, 0.0]), 0.0),
        AffineFunc(np.array([2.0, 0.0]), 0.3),
        AffineFunc(np.array([1.0, 1e-6]), 0.1),
    ]
    pts = np.random.default_rng(0).uniform(-1, 1, size=(50, 2))
    with pytest.raises(NumericalDependenceAmbiguous):
        reduce_term_width([(1.0, 0.5, C._piece_rows(affs))], pts)


# ---------------------------------------------------------------------------
# Deep pathway
# ---------------------------------------------------------------------------


def test_deep_basis_exact_and_structured(rng):
    mesh = crisscross_mesh(np.linspace(0, 1, 4), np.linspace(0, 1, 4))
    center = 5  # an interior vertex of the 4x4 grid
    coeffs = unit(mesh, center)
    net, rep = compile_fem_deep(mesh, coeffs)
    X = sample_points(mesh, 3000, rng)
    diff = np.abs(eval_network(net, X) - interpolate(mesh, coeffs, X))
    assert np.max(diff) < 1e-9
    assert rep.pathway == "deep"
    assert check_structured(net).passed
    kh = compute_kh(mesh)
    assert net.hidden_layer_count == ceil_log2(kh) + 1
    assert network_stats(net).size <= 8 * kh


def test_deep_fem_exact(rng, mesh_corpus):
    for name, mesh in mesh_corpus[:8]:
        coeffs = rng.normal(size=len(mesh.vertices))
        net, rep = compile_fem_deep(mesh, coeffs)
        X = sample_points(mesh, 1500, rng)
        diff = np.abs(eval_network(net, X) - interpolate(mesh, coeffs, X))
        assert np.max(diff) < 1e-9, name
        assert check_structured(net).passed, name
        assert net.hidden_layer_count == ceil_log2(compute_kh(mesh)) + 1, name


def test_deep_fem_zero_coefficients(rng):
    mesh = square_two_triangles()
    net, rep = compile_fem_deep(mesh, np.zeros(4))
    X = sample_points(mesh, 100, rng)
    assert np.max(np.abs(eval_network(net, X))) == 0.0


def test_deep_rejects_nonconvex_star():
    verts = np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    )
    simp = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 4]])
    mesh = build_mesh(verts, simp)
    with pytest.raises(NotLocallyConvex):
        compile_fem_deep(mesh, unit(mesh, 0))


def _two_l_shapes():
    """Two L-shaped three-quadrant patches side by side; only their corner
    vertices 0 and 5 have non-convex stars."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    simp = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 4]])
    return build_mesh(np.vstack([verts, verts + [5.0, 0.0]]), np.vstack([simp, simp + 5]))


@pytest.mark.parametrize("compile_fn", [compile_fem_deep, compile_fem_shallow])
def test_fem_compiles_name_the_first_nonconvex_used_vertex(compile_fn):
    mesh = _two_l_shapes()
    for used, first in (([0, 5], 0), ([1, 5], 5), ([5, 6, 0], 0)):
        coeffs = np.zeros(mesh.num_vertices)
        coeffs[used] = 1.0
        with pytest.raises(NotLocallyConvex, match=f"^the star of vertex {first} is not convex"):
            compile_fn(mesh, coeffs)


@pytest.mark.parametrize("compile_fn", [compile_fem_deep, compile_fem_shallow])
def test_fem_compiles_name_a_corrupted_hat_row(compile_fn):
    """A hat row of ``bary_inverse`` that misses its nodal values raises
    SingularSystem naming its element and the star's vertex, before any
    emission; a corrupted row of an unused vertex is never read."""
    mesh = crisscross_mesh(np.linspace(0, 1, 3), np.linspace(0, 1, 3))
    k, j = 5, 1
    v = int(mesh.simplices[k, j])
    mesh.bary_inverse[k, j, -1] += 1e-6
    coeffs = np.random.default_rng(0).normal(size=mesh.num_vertices)
    with pytest.raises(SingularSystem, match=f"^interpolation residual 1.000e-06 on element {k} "
                                             f"at vertex {v}$"):
        compile_fn(mesh, coeffs)
    coeffs[v] = 0.0
    compile_fn(mesh, coeffs)


@pytest.mark.parametrize("compile_fn", [compile_fem_deep, compile_fem_shallow])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fem_compiles_reject_non_finite_coefficients(compile_fn, bad, monkeypatch):
    """Checked next to the shape, before the stars are read."""
    monkeypatch.setattr(C, "vertex_stars", None)
    mesh = crisscross_mesh(np.linspace(0, 1, 3), np.linspace(0, 1, 3))
    coeffs = np.ones(mesh.num_vertices)
    coeffs[[3, 7]] = bad
    with pytest.raises(ValueError, match=f"^the coefficient of vertex 3 is {bad}; "
                                         "FE coefficients must be finite$"):
        compile_fn(mesh, coeffs)
    with pytest.raises(ValueError, match="one coefficient per mesh vertex"):
        compile_fn(mesh, coeffs[:-1])


def test_deep_size_limit_is_typed(monkeypatch):
    """The size bound ``(5 kh - 4) N`` is checked against ``MAX_NEURONS_DEEP``
    before any star is read; the 256 x 256 grid fits the default and
    512 x 512 does not."""
    mesh = crisscross_mesh(np.linspace(0, 1, 4), np.linspace(0, 1, 4))
    coeffs = np.random.default_rng(0).normal(size=mesh.num_vertices)
    bound = (5 * compute_kh(mesh) - 4) * mesh.num_vertices
    stars = C.vertex_stars
    monkeypatch.setattr(C, "vertex_stars", None)
    monkeypatch.setattr(C, "MAX_NEURONS_DEEP", bound - 1)
    limit = f"exceeds the limit MAX_NEURONS_DEEP = {bound - 1}$"
    with pytest.raises(ExpansionOverflow, match=rf"\(5 kh - 4\) N = {bound} \(kh = 6, N = 16\) {limit}"):
        compile_fem_deep(mesh, coeffs)
    monkeypatch.setattr(C, "vertex_stars", stars)
    monkeypatch.setattr(C, "MAX_NEURONS_DEEP", bound)
    assert compile_fem_deep(mesh, coeffs)[1].predicted_size_bound == bound
    monkeypatch.undo()
    assert (5 * 6 - 4) * 256**2 <= C.MAX_NEURONS_DEEP < (5 * 6 - 4) * 512**2


def test_fem_compiles_read_every_star_in_one_pass(mesh_corpus, monkeypatch, rng):
    """No per-vertex star or convexity call: one ``vertex_stars`` pass per
    compile, and one ``apply_level`` per hidden layer."""
    import cpwlrelu.mesh as M

    calls = {"stars": 0, "levels": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("vertex_star", "is_locally_convex"):
        monkeypatch.setattr(M, name, None)
    monkeypatch.setattr(C, "vertex_stars", counted("stars", C.vertex_stars))
    monkeypatch.setattr(NetBuilder, "apply_level", counted("levels", NetBuilder.apply_level))
    for name, mesh in mesh_corpus:
        for compile_fn in (compile_fem_deep, compile_fem_shallow):
            calls.update(stars=0, levels=0)
            net, _ = compile_fn(mesh, rng.normal(size=mesh.num_vertices))
            assert calls == {"stars": 1, "levels": net.hidden_layer_count}, (name, compile_fn)


def test_deep_depth_overflow_is_bound_violated(monkeypatch):
    """Valence 1 predicts one hidden layer; the 3x3 grid's min trees over up
    to six star affines need more."""
    monkeypatch.setattr(C, "compute_kh", lambda mesh: 1)
    mesh = crisscross_mesh(np.linspace(0, 1, 3), np.linspace(0, 1, 3))
    with pytest.raises(BoundViolated, match=r"^deep: depth \d+ exceeds predicted 1$"):
        compile_fem_deep(mesh, np.ones(mesh.num_vertices))


def test_shallow_size_overflow_is_bound_violated(monkeypatch):
    monkeypatch.setattr(C, "_basis_shallow_size_bound", lambda n, d: 0)
    mesh = square_two_triangles()
    with pytest.raises(BoundViolated, match=r"^shallow: size \d+ exceeds predicted 0$"):
        compile_fem_shallow(mesh, np.ones(mesh.num_vertices))


# ---------------------------------------------------------------------------
# Shallow pathway
# ---------------------------------------------------------------------------


def _shallow_basis_bound(n, d):
    """Combinatorial size bound for the inclusion-exclusion hat expansion."""
    total = 0
    for j in range(1, min(d, n) + 1):
        total += math.comb(n, j) * (10 * j + 6)
    for j in range(d + 1, n + 1):
        total += (10 * d + 6) * math.comb(n, j) * (2 ** (d + 1) - 1) ** (j - d)
    return total


def test_shallow_basis_hat_exact(rng):
    mesh = crisscross_mesh(np.linspace(0, 1, 4), np.linspace(0, 1, 4))
    for vertex in (5, 0):  # interior (valence 6) and corner (valence 1)
        coeffs = unit(mesh, vertex)
        net, rep = compile_fem_shallow(mesh, coeffs)
        X = sample_points(mesh, 2500, rng)
        diff = np.abs(eval_network(net, X) - interpolate(mesh, coeffs, X))
        assert np.max(diff) < 1e-9, vertex
        assert net.hidden_layer_count <= ceil_log2(3) + 1  # ceil(log2(d+1)) with d=2
        n = int(np.count_nonzero(mesh.simplices == vertex))
        assert network_stats(net).size <= _shallow_basis_bound(n, 2)
        assert check_structured(net).passed


def test_shallow_cpwl_exact_routes(rng):
    f = random_max_affine(2, 4, rng)
    X = f.sample_domain(1200, rng)
    ref = eval_pieces(f, X)
    for route in ("order", "regions", "auto"):
        net, rep = compile_cpwl_shallow(f, rng, route=route)
        assert np.max(np.abs(eval_network(net, X) - ref)) < 1e-9, route
        assert net.hidden_layer_count <= 2
        assert check_structured(net).passed
        assert network_stats(net).size <= rep.predicted_size_bound


def test_shallow_cpwl_nonconvex_fan(rng):
    f = random_fan(5, rng)
    net, rep = compile_cpwl_shallow(f, rng)
    X = f.sample_domain(1200, rng)
    assert np.max(np.abs(eval_network(net, X) - eval_pieces(f, X))) < 1e-9
    assert check_structured(net).passed


def test_shallow_zigzag_depth_one(rng):
    f = random_zigzag(4, rng)
    net, rep = compile_cpwl_shallow(f, rng)
    X = f.sample_domain(800, rng)
    assert np.max(np.abs(eval_network(net, X) - eval_pieces(f, X))) < 1e-9
    assert net.hidden_layer_count <= 1  # ceil(log2(d+1)) with d=1


# SHA-256 over every layer's CSR indptr, indices, data and bias, recorded for
# the networks of both lattice routes on piece lists shaped like the
# benchmark's (same kinds, sizes and seeds, drawn by the test generators).
_PINNED_CPWL_NETS = {
    ("maxaffine-d1m5", 11): "605edd7663ea64aa8635abd02cdd2809a6c5e942e2274136af3b7cde9d736eac",
    ("maxaffine-d2m5", 12): "9cae2c441916acce087355137a1a7917505be847e66638d54cf6802e8e8fba73",
    ("maxaffine-d2m6", 13): "d3486f379974e71513a8efddcfccee69c7768a30eef9e0f7d399188615e14361",
    ("fan-m5", 21): "d1f38e38efa5210bf2594eb6498f9f56d329946c4fcd8a5896b2a27790ef89b4",
    ("fan-m6", 22): "d75ca3c0880d15637d49f0c5ef63e4506a30d74e9fa140bc3d92aaf1875fea3c",
    ("zigzag-m6", 31): "b6a558393757b6e8e43a7a006baba6e6ce4c146960c2d6393934758b15f05c79",
    ("zigzag-m7", 33): "ab5928d1a70bcc80d5bd9ae90b55f990ff0bb7b615670a3ea13264da332d7a06",
    ("maxaffine-d3m5", 14): "ada465edc7778ed5b4bf97a03b8d973136acb36e2fc655a649c75d88412747eb",
}


@pytest.mark.parametrize("name, seed", list(_PINNED_CPWL_NETS))
def test_shallow_cpwl_networks_pinned(name, seed):
    kind, size = name.rsplit("-", 1)
    rng = np.random.default_rng(seed)
    if kind == "maxaffine":
        f = random_max_affine(int(size[1]), int(size[3:]), rng)
    else:
        f = (random_fan if kind == "fan" else random_zigzag)(int(size[1:]), rng)
    routes = ("regions",) if f.dim == 3 else ("order", "regions")
    for route in routes:
        net, _ = compile_cpwl_shallow(f, np.random.default_rng(0), route=route)
        assert network_digest(net) == _PINNED_CPWL_NETS[name, seed], route


# The same digest for one network of every compile path (each goes through
# NetBuilder) and for the deep networks of the 8x8 criss-cross grid and the
# Kuhn cube, with standard normal coefficients of seed 0.
_PINNED_BUILDER_NETS = {
    "fem-deep": "667ede5061fd715f5685c98f8ea5b16f4780d2b84ccf6786e8c09e1829f3c580",
    "fem-shallow": "37432d5195fb181de1fa2e2d5b58386835e0e0b09426e04c3df88e6337abd3c9",
    "cpwl-shallow": "9f472eae58b7f3e1ea264db862758f6ba8b7dbe466068cd9f8ee72e374622a32",
    "lattice-shallow": "03bc2dfe1ad2490940b4bc5e42c353d984cbb575b9e0a96b20c9011e03bf1321",
    "max-of-m": "4bfd70d87dd285f99a16bd8e9ae11d7f749151108a79069ac484b8107f61ddeb",
    "crisscross-8x8-deep": "b7df11503afb696050728f1ce3ae098ab39efdfaa70867fc61f851ebb70ebb60",
    "kuhn-cube-deep": "b201d58efe412e2187e843962538ceb73951eb009ceee1107b1fbbb1ffab84ce",
}


def test_builder_networks_pinned(tmp_path):
    nets = net_per_compile_path(np.random.default_rng(0))
    g = np.linspace(0, 1, 8)
    for name, mesh in [
        ("crisscross-8x8-deep", crisscross_mesh(g, g)),
        ("kuhn-cube-deep", kuhn_cube_mesh()),
    ]:
        coeffs = np.random.default_rng(0).normal(size=mesh.num_vertices)
        nets[name] = compile_fem_deep(mesh, coeffs)[0]
    digests = {name: network_digest(net) for name, net in nets.items()}
    assert digests == _PINNED_BUILDER_NETS
    path = str(tmp_path / "net.json")
    for name, net in nets.items():  # a file keeps every bit, -0.0 biases too
        save_network(net, path)
        assert network_digest(load_network(path)) == digests[name], name


def test_shallow_piece_cap(rng):
    f = random_max_affine(2, C.MAX_PIECES_SHALLOW + 1, rng)
    with pytest.raises(ExpansionOverflow):
        compile_cpwl_shallow(f, rng)


def test_fem_shallow_valence_cap(monkeypatch):
    """A hat over ``n`` star elements is a max-min over ``n`` pieces, so the
    shallow FE pathway refuses a used vertex whose valence exceeds the piece
    cap, before expanding any hat: the Kuhn 2^3 centre (valence 24) would
    expand into 2^24 - 1 terms."""
    mesh = kuhn_cube_mesh(2)
    coeffs = np.random.default_rng(0).normal(size=mesh.num_vertices)

    def refuse(clauses):
        pytest.fail("a hat was expanded before every vertex was checked")

    monkeypatch.setattr(C, "_expand_lattice_terms", refuse)
    with pytest.raises(
        ExpansionOverflow,
        match=rf"^vertex 4 has valence 12: .* the expansion cap {C.MAX_PIECES_SHALLOW}$",
    ):
        compile_fem_shallow(mesh, coeffs)
    coeffs[:13] = 0.0  # the first used vertex over the cap is now the centre
    with pytest.raises(ExpansionOverflow, match=r"^vertex 13 has valence 24: "):
        compile_fem_shallow(mesh, coeffs)
    monkeypatch.undo()
    # The cap reads only the used vertices: vertex 0 (valence 6) alone compiles.
    net, _ = compile_fem_shallow(mesh, unit(mesh, 0))
    X = sample_points(mesh, 500, np.random.default_rng(1))
    assert np.max(np.abs(eval_network(net, X) - interpolate(mesh, unit(mesh, 0), X))) < 1e-9


def test_fem_shallow_kuhn_valence_8_vertices_compile():
    """The rewrite runs on the star's own rows, whatever the coefficient:
    Kuhn 2^3 with seed-0 coefficients on the valence-8 vertices 1 and 25
    compiles shallow and matches the interpolant."""
    mesh = kuhn_cube_mesh(2)
    coeffs = np.zeros(mesh.num_vertices)
    coeffs[[1, 25]] = np.random.default_rng(0).normal(size=mesh.num_vertices)[[1, 25]]
    net, report = compile_fem_shallow(mesh, coeffs)
    assert report.actual_depth == 2
    X = sample_points(mesh, 500, np.random.default_rng(1))
    assert np.max(np.abs(eval_network(net, X) - interpolate(mesh, coeffs, X))) < 1e-9


def test_lattice_clause_width_cap(rng):
    pieces = [AffineFunc(rng.normal(size=2), float(rng.normal())) for _ in range(5)]
    lat = LatticeForm(pieces, [(0, 1, 2, 3, 4)])
    with pytest.raises(ClauseTooWide):
        compile_lattice_shallow(lat)


def test_fem_shallow_small_mesh(rng):
    mesh = square_two_triangles()
    coeffs = rng.normal(size=4)
    net, rep = compile_fem_shallow(mesh, coeffs)
    X = sample_points(mesh, 1500, rng)
    diff = np.abs(eval_network(net, X) - interpolate(mesh, coeffs, X))
    assert np.max(diff) < 1e-9
    assert check_structured(net).passed
    assert net.hidden_layer_count <= 2


def _capture_emits(monkeypatch) -> list:
    """Wraps the tree emitter; returns the list of (rows, trees, signs) it sees."""
    seen = []
    emit_trees = C._emit_trees

    def emit(dim, rows, trees, signs):
        seen.append((rows, trees, signs))
        return emit_trees(dim, rows, trees, signs)

    monkeypatch.setattr(C, "_emit_trees", emit)
    return seen


def test_fem_compiles_hand_the_builder_no_zero_leaf(mesh_corpus, monkeypatch, rng):
    """Both FE pathways write ``max(0, .)`` as one ``relu`` neuron: no
    level-0 leaf is the constant zero, whose gadget neurons ``relu(+-0)``
    would be dead on arrival, and every deep hat is a ``relu`` root."""
    seen = _capture_emits(monkeypatch)
    for name, mesh in mesh_corpus:
        coeffs = rng.normal(size=mesh.num_vertices)
        for compile_fn in (compile_fem_deep, compile_fem_shallow):
            seen.clear()
            compile_fn(mesh, coeffs)
            ((leaves, trees, _),) = seen
            assert all(row.any() for row in leaves), (name, compile_fn.__name__)
            assert "relu" in _kinds(trees), (name, compile_fn.__name__)
            if compile_fn is compile_fem_deep:
                assert trees.code[trees.roots].tolist() == [C.RELU] * mesh.num_vertices, name


def test_merged_weights_that_cancel_leave_no_term(rng, monkeypatch):
    """Hat coefficients that cancel exactly drop their term in any order;
    a running float sum would leave ``0.1 + 0.2 - 0.1 - 0.2 = 2.8e-17``."""
    rows = rng.normal(size=(2, 3))
    pts = rng.uniform(-2, 2, size=(50, 2))
    t, u = (0.0, rows), (0.0, rows[::-1].copy())
    _, M = C._shallow_net([(0.1, *t), (0.2, *t), (-0.1, *u), (-0.2, *u)], 2, pts)
    assert M == 0
    seen = _capture_emits(monkeypatch)
    _, M = C._shallow_net([(0.1, *t), (0.2, *t), (-0.1, *u)], 2, pts)
    ((leaves, trees, signs),) = seen
    assert M == 1 and signs.tolist() == [1.0]
    assert sorted(_kinds(trees)) == ["max", "relu"]  # c0 = 0 is a relu, not a leaf
    assert np.array_equal(leaves, 0.2 * rows)  # weight 0.2, the first block's rows


def test_shallow_net_merges_terms_by_the_leaf_block_they_emit(rng):
    """``max(x, R)`` and ``max([0, 0, x] U R)`` read the same leaves, so they
    are one tree: equal weights add up in its first layer, and opposite
    weights leave no term, instead of two output entries on one root."""
    R = rng.normal(size=(2, 3))
    x = float(rng.normal())
    pts = rng.uniform(-2, 2, size=(200, 2))
    lead = np.vstack([[0.0, 0.0, x], R])
    for w in (1.0, -0.7):
        net, M = C._shallow_net([(w, x, R), (w, None, lead)], 2, pts)
        assert M == 1
        out = net.layers[-1][0].toarray()
        assert set(out[out != 0].tolist()) <= {1.0, -1.0}
        ref = 2 * w * np.maximum(x, (pts @ R[:, :-1].T + R[:, -1]).max(axis=1))
        assert np.max(np.abs(eval_network(net, pts) - ref)) < 1e-12
        assert check_structured(net).passed
        _, M = C._shallow_net([(w, x, R), (-w, None, lead[::-1].copy())], 2, pts)
        assert M == 0


def test_weighted_term_folds_into_one_subnetwork(rng):
    """Weight 3 scales the term's affines instead of copying its network."""
    affs = [AffineFunc(rng.normal(size=2), float(rng.normal())) for _ in range(3)]
    X = rng.uniform(-2, 2, size=(2000, 2))
    net, M = C._shallow_net([(3, None, C._piece_rows(affs))], 2, X)
    assert M == 1 and net.hidden_layer_count == 2
    assert net.size == 8  # two gadgets and one carry, not two copies (16)
    ref = 3 * np.max(np.stack([a(X) for a in affs]), axis=0)
    assert np.max(np.abs(eval_network(net, X) - ref)) < 1e-12
    out = net.layers[-1][0].toarray()
    assert set(out[out != 0].tolist()) <= {1.0, -1.0}


def test_every_compile_entry_point_checks_itself(rng, monkeypatch):
    """Each compile compares its network with its own reference; a negative
    tolerance makes every one of those checks fail, as a typed error."""
    mesh = crisscross_mesh(np.linspace(0, 1, 3), np.linspace(0, 1, 3))
    coeffs = rng.normal(size=mesh.num_vertices)
    pieces = [AffineFunc(rng.normal(size=2), float(rng.normal())) for _ in range(4)]
    nets = [affine_network(rng.normal(size=2), 0.0) for _ in range(3)]
    monkeypatch.setattr(C, "COMPILE_TOL", -1.0)
    for compile_call in (
        lambda: compile_fem_deep(mesh, coeffs),
        lambda: compile_fem_shallow(mesh, coeffs),
        lambda: compile_cpwl_shallow(random_max_affine(2, 4, rng), rng),
        lambda: compile_lattice_shallow(LatticeForm(pieces, [(0, 1, 2), (1, 3), (2,)])),
        lambda: compile_max_of_m(nets),
    ):
        with pytest.raises(SelfCheckFailed, match="^internal error: .* deviates by"):
            compile_call()


def test_lattice_and_max_of_m_self_checks_see_a_wrong_network(monkeypatch):
    """Both checks compare with a reference of their own: an output bias off
    by 1e-6 fails them at the default tolerance."""

    def off(net):
        W, b = net.layers[-1]
        return ReluNetwork(net.input_dim, [*net.layers[:-1], (W, b + 1e-6)])

    prune = C.prune_dead_channels
    monkeypatch.setattr(C, "prune_dead_channels", lambda net: off(prune(net)))
    pieces = [AffineFunc(np.array([1.0, 0.0]), 0.0), AffineFunc(np.array([0.0, 1.0]), 0.0)]
    with pytest.raises(SelfCheckFailed, match="shallow lattice compile"):
        compile_lattice_shallow(LatticeForm(pieces, [(0,), (1,)]))
    with pytest.raises(SelfCheckFailed, match="max of networks"):
        compile_max_of_m([affine_network([1.0, 0.0], 0.0), affine_network([0.0, 1.0], 0.0)])


def test_compiled_layers_are_all_csr(rng):
    for name, net in net_per_compile_path(rng).items():
        assert net.hidden_layer_count >= 1, name
        assert all(sp.isspmatrix_csr(W) for W, _ in net.layers), name


def test_compiled_networks_roundtrip_bit_exact(rng):
    X = rng.uniform(0, 1, size=(500, 2))
    for name, net in net_per_compile_path(rng).items():
        back = network_from_dict(json.loads(json.dumps(network_to_dict(net))))
        assert np.array_equal(eval_network(back, X), eval_network(net, X)), name


# ---------------------------------------------------------------------------
# Equivalence reporting
# ---------------------------------------------------------------------------


def test_equivalence_report_flags_mismatch(rng):
    net = affine_network(np.array([1.0]), 0.0)
    X = np.linspace(-1, 1, 101)[:, None]
    good = equivalence_report(net, lambda P: P[:, 0], X)
    assert good.passed and good.max_abs_diff == 0.0
    bad = equivalence_report(net, lambda P: P[:, 0] + 1e-6, X, tol=1e-9)
    assert not bad.passed
    assert bad.max_abs_diff == pytest.approx(1e-6)
    assert bad.worst_point.shape == (1,)


def test_equivalence_report_needs_points():
    """Zero points compare nothing: a ValueError that says so, not a
    reshape error from deep inside."""
    net = affine_network(np.array([1.0, 2.0]), 0.0)
    with pytest.raises(ValueError, match="^no points were given"):
        equivalence_report(net, lambda P: P[:, 0], np.zeros((0, 2)))


def test_equivalence_report_multi_output_worst_point():
    net = ReluNetwork(2, [(np.eye(2), np.zeros(2))])
    X = np.arange(10.0).reshape(5, 2)
    for row in (4, 2):
        def reference(P, row=row):
            out = P.copy()
            out[row, 1] += 1e-6
            return out

        rep = equivalence_report(net, reference, X, tol=1e-9)
        assert not rep.passed
        assert rep.max_abs_diff == pytest.approx(1e-6)
        assert np.array_equal(rep.worst_point, X[row])
        assert rep.samples == 5


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5000), m=st.integers(2, 5))
@example(seed=585, m=5)  # equal terms with and without a constant: one tree, not two roots
def test_property_zigzag_compiles_exactly(seed, m):
    rng = np.random.default_rng(seed)
    f = random_zigzag(m, rng)
    net, rep = compile_cpwl_shallow(f, rng)
    X = f.sample_domain(400, rng)
    assert np.max(np.abs(eval_network(net, X) - eval_pieces(f, X))) < 1e-9
    assert check_structured(net).passed


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 5000))
def test_property_maxaffine_compiles_exactly(seed):
    rng = np.random.default_rng(seed)
    f = random_max_affine(2, 4, rng)
    net, _ = compile_cpwl_shallow(f, rng)
    X = f.sample_domain(400, rng)
    assert np.max(np.abs(eval_network(net, X) - eval_pieces(f, X))) < 1e-9
