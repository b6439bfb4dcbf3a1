"""Acceptance suite: the ten primary checks, at their stated tolerances.

One test per criterion; each prints a single summary line on success (the
pytest -v PASSED/FAILED line doubles as the pass/fail record).  Every check
compares the implementation against an oracle computed independently in
this file: plain numpy evaluations, combinatorial bound formulas, finite
differences, and exhaustive enumeration.
"""

import contextlib
import io
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import cpwlrelu.compiler as comp
from cpwlrelu.cli import main as cli_main
from cpwlrelu.compiler import (
    ceil_log2,
    compile_cpwl_shallow,
    compile_fem_deep,
    compile_fem_shallow,
    compile_max_of_m,
)
from cpwlrelu.cpwl import (
    AffineFunc,
    lattice_from_convex_regions,
    lattice_from_unique_order,
    unique_order_partition,
    eval_lattice,
    verify_1d_path_lemma,
)
from cpwlrelu.errors import PairwiseDependent
from cpwlrelu.galerkin1d import (
    Bvp1dProblem,
    energy,
    grad_knots,
    report_table,
)
from cpwlrelu.mesh import (
    compute_kh,
    interpolate,
    mesh_to_dict,
    sample_points,
    vertex_star,
)
from cpwlrelu.quantize import QuantGrid, check_structured, project
from cpwlrelu.relu_net import (
    GADGETS,
    ReluNetwork,
    eval_network,
    independence_check,
    network_to_dict,
)

from helpers import (
    chain_mesh,
    crisscross_mesh,
    net_per_compile_path,
    random_fan,
    random_max_affine,
    random_path_instance,
    random_zigzag,
    unit,
)


def _ok(num, detail):
    print(f"CRITERION {num:02d} PASS — {detail}")


# ---------------------------------------------------------------------------
# Criterion 1: the two-argument gadget is exact in double arithmetic
# ---------------------------------------------------------------------------


def test_criterion_01_gadget_identity_exact():
    """10^6 random pairs plus boundary cases, error exactly 0.0, under 1 s.

    Exactness holds because the inputs are multiples of 2^-52 with
    magnitude at most 1.  So a - b and b - a are multiples of 2^-52 of
    magnitude at most 2, and so is every partial sum of the output layer
    (min(a, b) = relu(a) - relu(-a) - relu(a - b), max likewise with
    relu(b - a)): each is exactly representable, in any summation order.
    The subnormal cases are exact because the sums stay far below 1.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(20260823)
    W_min, v_min = (np.array(t, dtype=float) for t in GADGETS["min"])
    W_max, v_max = (np.array(t, dtype=float) for t in GADGETS["max"])

    Z = rng.uniform(-1.0, 1.0, size=(1_000_000, 2))
    tiny = 5e-324  # smallest subnormal double
    boundary = np.array(
        [
            (0.0, 0.0), (1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0),
            (0.0, 1.0), (0.0, -1.0), (0.5, 0.25), (-0.5, -0.25),
            (0.75, 0.75), (-0.3125, -0.3125),
            (2 * tiny, 0.0), (-2 * tiny, 0.0), (tiny, -tiny),
            (2.2250738585072014e-308, 0.0),
            (-2.2250738585072014e-308, 2.2250738585072014e-308),
            (2.0**-52, 2.0**-53),
        ]
    )
    Z = np.vstack([Z, boundary])

    mins = v_min @ np.maximum(W_min @ Z.T, 0.0)
    maxs = v_max @ np.maximum(W_max @ Z.T, 0.0)
    assert np.array_equal(mins, np.minimum(Z[:, 0], Z[:, 1]))
    assert np.array_equal(maxs, np.maximum(Z[:, 0], Z[:, 1]))

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"gadget check took {elapsed:.2f}s"
    _ok(1, f"min/max exact on {len(Z):,} pairs in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 2: deep pathway is exact on the whole mesh corpus
# ---------------------------------------------------------------------------


def test_criterion_02_deep_compile_exact_on_corpus(mesh_corpus):
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    assert len(mesh_corpus) >= 20
    dims = {mesh.dim for _, mesh in mesh_corpus}
    assert dims == {1, 2, 3}, "corpus must span 1D chains, 2D meshes, a 3D cube"

    worst = 0.0
    for name, mesh in mesh_corpus:
        coeffs = rng.normal(size=mesh.num_vertices)
        net, rep = compile_fem_deep(mesh, coeffs)
        X = sample_points(mesh, 10_000, rng)
        err = float(np.max(np.abs(eval_network(net, X) - interpolate(mesh, coeffs, X))))
        assert err < 1e-9, f"{name}: compiled function off by {err:.2e}"
        worst = max(worst, err)
        kh = compute_kh(mesh)
        assert net.hidden_layer_count == ceil_log2(kh) + 1, (
            f"{name}: depth {net.hidden_layer_count} != ceil(log2({kh})) + 1"
        )
        assert net.size <= 8 * kh * mesh.num_vertices, f"{name}: size bound violated"

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"corpus run took {elapsed:.1f}s"
    _ok(2, f"{len(mesh_corpus)} meshes exact (worst {worst:.2e}), "
           f"depth = ceil(log2(kh)) + 1 on all, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 3: shallow pathway equivalence, depth cap, size bounds
# ---------------------------------------------------------------------------


def _shallow_basis_bound(n: int, d: int) -> int:
    """Worst-case neuron count for a shallow nodal-basis compile.

    Subsets of up to d incident cells keep their width; wider subsets are
    width-reduced, multiplying the term count by at most (2^(d+1) - 1) per
    eliminated argument.  Each emitted term costs at most 10j + 6 neurons
    at width j (j <= d + 1)."""
    total = 0
    for j in range(1, min(d, n) + 1):
        total += math.comb(n, j) * (10 * j + 6)
    for j in range(d + 1, n + 1):
        total += (10 * d + 6) * math.comb(n, j) * (2 ** (d + 1) - 1) ** (j - d)
    return total


def test_criterion_03_shallow_equivalence(mesh_corpus, cpwl_instances):
    start = time.perf_counter()
    rng = np.random.default_rng(3)

    n_hats = 0
    worst_hat = 0.0
    for name, mesh in mesh_corpus:
        if mesh.dim != 2:
            continue
        for i in range(mesh.num_vertices):
            n = len(vertex_star(mesh, i).incident)
            if n > 7:
                continue
            coeffs = unit(mesh, i)
            net, rep = compile_fem_shallow(mesh, coeffs)
            X = sample_points(mesh, 1000, rng)
            err = float(
                np.max(np.abs(eval_network(net, X) - interpolate(mesh, coeffs, X)))
            )
            assert err < 1e-9, f"{name} vertex {i}: off by {err:.2e}"
            worst_hat = max(worst_hat, err)
            assert net.hidden_layer_count <= ceil_log2(mesh.dim + 1)
            assert net.size <= _shallow_basis_bound(n, mesh.dim), (
                f"{name} vertex {i}: {net.size} > bound {_shallow_basis_bound(n, mesh.dim)}"
            )
            n_hats += 1
    assert n_hats >= 100  # every 2D corpus vertex has valence <= 7

    worst_inst = 0.0
    assert len(cpwl_instances) >= 10
    for nm, f in cpwl_instances:
        net, rep = compile_cpwl_shallow(f)
        X = f.sample_domain(1000, rng)
        err = float(np.max(np.abs(eval_network(net, X) - np.asarray(f(X)))))
        assert err < 1e-9, f"{nm}: off by {err:.2e}"
        worst_inst = max(worst_inst, err)
        d, m = f.dim, len(f.pieces)
        assert net.hidden_layer_count <= ceil_log2(d + 1)
        # independent clause count and the explicit size bound from it
        M = lattice_from_unique_order(f, unique_order_partition(f)).dedup().num_clauses
        assert (rep.d, rep.m, rep.M) == (d, m, M)
        bound = (10 * d + 6) * (2**m - 1) ** M * (2 ** (d + 1) - 1) ** max(m - d - 1, 0)
        assert net.size <= bound, f"{nm}: {net.size} > {bound}"

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"shallow suite took {elapsed:.1f}s"
    _ok(3, f"{n_hats} hats (worst {worst_hat:.2e}) and {len(cpwl_instances)} "
           f"instances (worst {worst_inst:.2e}) within depth/size bounds, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 4: lattice-form properties and the 1D path lemma
# ---------------------------------------------------------------------------


def _fresh_instances(rng, count=20):
    out = []
    kinds = ["maxaffine", "zigzag", "fan"]
    while len(out) < count:
        kind = kinds[len(out) % 3]
        m = int(rng.integers(3, 6))
        try:
            if kind == "maxaffine":
                f = random_max_affine(int(rng.integers(1, 3)), m, rng)
            elif kind == "zigzag":
                f = random_zigzag(m, rng)
            else:
                f = random_fan(m, rng)
        except (RuntimeError, ValueError):
            continue
        out.append((f"{kind}-{len(out)}", f))
    return out


def test_criterion_04_lattice_properties(cpwl_instances):
    rng = np.random.default_rng(4)
    instances = list(cpwl_instances) + _fresh_instances(rng)

    for nm, f in instances:
        m = len(f.pieces)
        part = unique_order_partition(f)
        lat = lattice_from_unique_order(f, part)  # one clause per order cell
        M = lat.num_clauses
        assert m <= M <= math.factorial(m), f"{nm}: M={M} outside [m, m!]"
        X = f.sample_domain(500, rng)
        ref = np.asarray(f(X))
        assert np.max(np.abs(eval_lattice(lat, X) - ref)) < 1e-9, nm
        lat_r = lattice_from_convex_regions(f)
        assert np.max(np.abs(eval_lattice(lat_r, X) - ref)) < 1e-9, nm

    for trial in range(100):
        m = int(rng.integers(3, 6))
        f = random_path_instance(m, rng)
        slopes = np.array([float(p.gradient[0]) for p in f.pieces])
        offsets = np.array([float(p.offset) for p in f.pieces])
        # hypotheses: the first piece dominates the last at both endpoints
        assert offsets[0] > offsets[-1] and slopes[0] + offsets[0] > slopes[-1] + offsets[-1]
        p = verify_1d_path_lemma(f)
        assert offsets[p] >= offsets[0] - 1e-10
        assert slopes[p] + offsets[p] <= slopes[-1] + offsets[-1] + 1e-10

    _ok(4, f"{len(instances)} lattice instances in [m, m!] and both routes exact; "
           f"100 path-lemma witnesses verified")


# ---------------------------------------------------------------------------
# Criterion 5: rewrite identity, audited reduction, max-of-m bounds
# ---------------------------------------------------------------------------


def _three_term_identity_check(rng, alpha):
    """Evaluates both sides of the dependent-argument rewrite directly."""
    d = int(rng.integers(1, 3))
    n_extra = int(rng.integers(0, 4))
    F = [AffineFunc(rng.normal(size=d), float(rng.normal())) for _ in range(n_extra)]
    g = AffineFunc(rng.normal(size=d), float(rng.normal()))
    h = AffineFunc(rng.normal(size=d), float(rng.normal()))
    X = rng.uniform(-2, 2, size=(400, d))

    def vmax(funcs):
        return np.max(np.stack([fn(X) for fn in funcs], axis=1), axis=1)

    dep = AffineFunc(alpha * g.gradient + h.gradient, alpha * g.offset + h.offset)
    lhs = vmax(F + [g, dep])

    abar = 1.0 / (1.0 - alpha)
    hbar = AffineFunc(abar * h.gradient, abar * h.offset)
    if alpha > 1.0:
        signs, last = (-1.0, 1.0, 1.0), g
    elif alpha > 0.0:
        signs, last = (1.0, -1.0, 1.0), dep
    else:
        signs, last = (1.0, 1.0, -1.0), hbar
    rhs = (
        signs[0] * vmax(F + [g, hbar])
        + signs[1] * vmax(F + [dep, hbar])
        + signs[2] * vmax(F + [last])
    )
    scale = max(1.0, float(np.max(np.abs(lhs))))
    return float(np.max(np.abs(lhs - rhs))) / scale


def test_criterion_05_identity_suite():
    rng = np.random.default_rng(5)

    worst = 0.0
    for trial in range(120):
        alpha = [
            float(rng.uniform(1.2, 4.0)),
            float(rng.uniform(0.1, 0.9)),
            float(rng.uniform(-4.0, -0.1)),
        ][trial % 3]
        worst = max(worst, _three_term_identity_check(rng, alpha))
    assert worst < 1e-10, f"rewrite identity off by {worst:.2e}"

    comp.REWRITE_CHECKS_PASSED = 0
    n_clauses = 0
    for trial in range(20):
        d = int(rng.integers(1, 3))
        m = int(rng.integers(d + 2, 7))
        affs = [AffineFunc(rng.normal(size=d), float(rng.normal())) for _ in range(m)]
        pts = rng.uniform(-2, 2, size=(400, d))
        terms = [t for _, t in comp.reduce_term_width([(1.0, None, comp._piece_rows(affs))], pts)]
        for t in terms:
            assert t.alphas is None and len(t.rows) + (t.c0 is not None) <= d + 1
        got = comp._term_values(terms, pts).sum(axis=0)
        ref = np.max(np.stack([a(pts) for a in affs], axis=1), axis=1)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(got - ref)) < 1e-9 * scale
        n_clauses += 1
    audited = comp.REWRITE_CHECKS_PASSED
    assert audited >= n_clauses, "width reduction ran without audited steps"

    def random_net(d, k, width):
        layers, prev = [], d
        for _ in range(k):
            layers.append((rng.normal(size=(width, prev)), rng.normal(size=width)))
            prev = width
        layers.append((rng.normal(size=(1, prev)), rng.normal(size=1)))
        return ReluNetwork(d, layers)

    for trial in range(100):
        m = int(rng.integers(2, 7))
        equal_depth = trial < 50
        k_max = int(rng.integers(1, 4))
        ks = [k_max] * m if equal_depth else [int(rng.integers(1, k_max + 1)) for _ in range(m)]
        ks[rng.integers(0, m)] = k_max
        nets = [random_net(2, k, int(rng.integers(2, 5))) for k in ks]
        out, rep = compile_max_of_m(nets)
        X = rng.uniform(-2, 2, size=(400, 2))
        ref = np.max(np.stack([eval_network(n, X) for n in nets]), axis=0)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(eval_network(out, X) - ref)) < 1e-9 * scale
        assert out.hidden_layer_count <= k_max + ceil_log2(m) + 1
        padded = sum(n.size + 2 * (k_max - n.hidden_layer_count) for n in nets)
        assert out.size <= padded + 4 * (2 * m - 1)
        if equal_depth:  # here the literal sum-of-sizes form applies
            assert out.size <= sum(n.size for n in nets) + 4 * (2 * m - 1)

    _ok(5, f"rewrite identity <= {worst:.1e}; {audited} audited reduction steps; "
           f"100 max-of-m instances within depth/size bounds")


# ---------------------------------------------------------------------------
# Criterion 6: low-bit weight structure and grid projection
# ---------------------------------------------------------------------------


def test_criterion_06_low_bit_structure(mesh_corpus, cpwl_instances):
    rng = np.random.default_rng(6)
    grid = QuantGrid(0, 3)

    nets = []
    for name, mesh in mesh_corpus:
        net, _ = compile_fem_deep(mesh, rng.normal(size=mesh.num_vertices))
        nets.append((f"deep-fem:{name}", net))
    for name, mesh in mesh_corpus[:4]:
        net, _ = compile_fem_deep(mesh, unit(mesh, 1))
        nets.append((f"deep-basis:{name}", net))
    cc = dict(mesh_corpus)["cc-2x2"]
    for i in range(cc.num_vertices):
        net, _ = compile_fem_shallow(cc, unit(cc, i))
        nets.append((f"shallow-basis:cc-2x2:{i}", net))
    for nm, f in cpwl_instances:
        net, _ = compile_cpwl_shallow(f)
        nets.append((f"shallow-cpwl:{nm}", net))

    for nm, net in nets:
        rep = check_structured(net, grid)
        assert rep.passed, f"{nm}: {rep.violations[:3]}"
        assert not rep.vacuous and rep.checked_params > 0
    n_checked = len(nets)

    scalars = np.concatenate(
        [
            rng.uniform(-3, 3, size=9_970),
            [0.0, 0.25, -0.25, 0.75, -0.75, 0.5, 1.0, -1.0, 2.0, -2.0,
             1e-13, -1e-13, 0.2500000001, 0.7499999999, 1e9, -1e9,
             0.375, -0.375, 5e-324, -5e-324, 1.5, -1.5, 0.6, -0.6,
             0.49999999, -0.49999999, 0.1, 2.5, -2.5, 100.0],
        ]
    )
    assert len(scalars) == 10_000
    vals = grid.values
    for w in scalars:
        brute = sorted(vals, key=lambda v: (abs(w - v), abs(v)))[0]
        assert project(float(w), grid) == brute, f"projection mismatch at {w!r}"

    _ok(6, f"{n_checked} compiled networks structured (hidden weights in "
           f"{{0, ±1/2, ±1}}, zero hidden biases); projection matches "
           f"enumeration on 10,000 scalars")


def test_compiled_networks_are_ternary(mesh_corpus, cpwl_instances):
    """The 3-neuron gadgets keep every layer past the first on {0, ±1}:
    criterion 6's networks (drawn from the same seed) and one network of
    every compile path pass the (0, 2) grid, not only (0, 3)."""
    rng = np.random.default_rng(6)
    nets = [
        (f"deep-fem:{name}", compile_fem_deep(mesh, rng.normal(size=mesh.num_vertices))[0])
        for name, mesh in mesh_corpus
    ]
    nets += [
        (f"deep-basis:{name}", compile_fem_deep(mesh, unit(mesh, 1))[0])
        for name, mesh in mesh_corpus[:4]
    ]
    cc = dict(mesh_corpus)["cc-2x2"]
    nets += [
        (f"shallow-basis:cc-2x2:{i}", compile_fem_shallow(cc, unit(cc, i))[0])
        for i in range(cc.num_vertices)
    ]
    nets += [(f"shallow-cpwl:{nm}", compile_cpwl_shallow(f)[0]) for nm, f in cpwl_instances]
    nets += list(net_per_compile_path(np.random.default_rng(0)).items())
    assert {"max-of-m", "lattice-shallow"} <= {nm for nm, _ in nets}
    for nm, net in nets:
        rep = check_structured(net, QuantGrid(0, 2))
        assert rep.passed, f"{nm}: {rep.violations[:3]}"
        assert not rep.vacuous and rep.checked_params > 0, nm


# ---------------------------------------------------------------------------
# Criterion 7: the three-column solver table
# ---------------------------------------------------------------------------


def test_criterion_07_solver_table():
    start = time.perf_counter()
    rows = report_table(Bvp1dProblem.standard(), [23, 37, 53])

    ref_err_u = {23: 0.2779, 37: 0.1717, 53: 0.1193}
    ref_en_u = {23: -0.7047, 37: -0.7285, 53: -0.7362}
    ref_err_o = {23: 0.1094, 37: 0.0663, 53: 0.0456}
    ref_en_o = {23: -0.7373, 37: -0.7411, 53: -0.7422}

    for r in rows:
        N = r["N"]
        assert abs(r["err_uniform"] - ref_err_u[N]) / ref_err_u[N] < 0.05
        assert abs(r["energy_uniform"] - ref_en_u[N]) / abs(ref_en_u[N]) < 0.05
        assert abs(r["err_opt"] - ref_err_o[N]) / ref_err_o[N] < 0.15
        assert abs(r["energy_opt"] - ref_en_o[N]) < 0.002
        # adaptive grids are held to the orderings only
        assert r["energy_opt"] <= r["energy_afem"] <= r["energy_uniform"]
        assert r["err_opt"] <= r["err_afem"] <= r["err_uniform"]

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"table run took {elapsed:.1f}s"
    _ok(7, "uniform columns within 5%, optimized errors within 15% and "
           f"energies within 0.002, orderings hold for N=23/37/53, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 8: knot gradient against central differences
# ---------------------------------------------------------------------------


def test_criterion_08_knot_gradient():
    problem = Bvp1dProblem.standard()
    rng = np.random.default_rng(8)
    worst = 0.0
    for trial in range(50):
        n_cells = int(rng.integers(6, 16))
        while True:
            t = np.concatenate([[0.0], np.sort(rng.uniform(0.04, 0.96, n_cells - 1)), [1.0]])
            if np.min(np.diff(t)) > 2e-3:
                break
        theta = rng.normal(size=n_cells)
        g = grad_knots(problem, t, theta, quad_order=40)
        fd = np.zeros_like(g)
        h = 1e-7
        for j in range(1, len(t) - 1):
            tp, tm = t.copy(), t.copy()
            tp[j] += h
            tm[j] -= h
            fd[j] = (
                energy(problem, tp, theta, quad_order=40)
                - energy(problem, tm, theta, quad_order=40)
            ) / (2 * h)
        rel = float(np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(fd)))
        assert rel < 1e-6, f"state {trial}: gradient off by {rel:.2e}"
        worst = max(worst, rel)
    _ok(8, f"50 random states, worst relative gradient error {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion 9: feature independence and rank
# ---------------------------------------------------------------------------


def _draw_independent_params(rng, d, m, box=10.0):
    """Draws (W, b) whose units are pairwise independent with a quantitative
    margin: every hinge hyperplane crosses the sampling box, and no two rows
    of [W | b] are near-parallel.  This keeps the rank oracle numerically
    well posed (exactly-proportional rows are still rejected separately)."""
    while True:
        W = rng.normal(size=(m, d))
        b = rng.normal(size=m)
        if np.max(np.abs(b) / np.linalg.norm(W, axis=1)) > 0.8 * box:
            continue
        rows = np.hstack([W, b[:, None]])
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        gram = np.abs(rows @ rows.T)
        np.fill_diagonal(gram, 0.0)
        if gram.max() <= 0.98:
            return W, b


def test_criterion_09_feature_rank():
    rng = np.random.default_rng(9)
    box = 10.0
    for trial in range(100):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(2, 9))
        W, b = _draw_independent_params(rng, d, m, box=box)
        assert independence_check(W, b, rng, box=box) is True
        X = rng.uniform(-box, box, size=(20 * m + 100, d))
        Phi = np.maximum(X @ W.T + b, 0.0)
        assert np.linalg.matrix_rank(Phi) == m, f"trial {trial}: rank deficit"

        i, j = rng.choice(m, size=2, replace=False)
        c = float(rng.uniform(0.3, 3.0))
        W2, b2 = W.copy(), b.copy()
        W2[j], b2[j] = c * W[i], c * b[i]
        with pytest.raises(PairwiseDependent):
            independence_check(W2, b2, rng, box=box)
        Phi2 = np.maximum(X @ W2.T + b2, 0.0)
        assert np.linalg.matrix_rank(Phi2) < m
    _ok(9, "rank = m on 100 independent parameter sets; every planted "
           "dependent pair detected")


# ---------------------------------------------------------------------------
# Criterion 10: negative control and best-effort shallow fit
# ---------------------------------------------------------------------------


def _quiet_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        return cli_main(argv)


def _dense_layers(net):
    return [
        (np.asarray(W.todense()) if hasattr(W, "todense") else W.copy(), b.copy())
        for W, b in net.layers
    ]


def test_criterion_10_negative_control(tmp_path):
    rng = np.random.default_rng(10)
    mesh = chain_mesh(np.linspace(0, 1, 5))
    # e_2 - e_3: two hats give more hidden weights to flip than the floor
    # below; one hat alone has only 6
    coeffs = np.array([0.0, 0.0, 1.0, -1.0, 0.0])
    net, _ = compile_fem_deep(mesh, coeffs)
    X = rng.uniform(0, 1, size=(10_000, 1))
    ref = interpolate(mesh, coeffs, X)
    assert np.max(np.abs(eval_network(net, X) - ref)) < 1e-9

    mesh_path = tmp_path / "mesh.json"
    mesh_path.write_text(json.dumps(mesh_to_dict(mesh)))
    coeff_path = tmp_path / "coeffs.json"
    coeff_path.write_text(json.dumps(coeffs.tolist()))
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(network_to_dict(net)))
    verify_args = ["--against", "mesh", "--mesh", str(mesh_path),
                   "--coeffs", str(coeff_path), "--samples", "10000"]
    assert _quiet_cli(["verify", "--net", str(net_path), *verify_args]) == 0

    layers0 = _dense_layers(net)
    n_flips = 0
    for li in range(len(layers0) - 1):
        W, _ = layers0[li]
        for (r, c) in np.argwhere(np.abs(W) > 1e-6):
            layers = [(Wl.copy(), bl.copy()) for Wl, bl in layers0]
            layers[li][0][r, c] = -layers[li][0][r, c]
            bad = ReluNetwork(net.input_dim, layers)
            diff = float(np.max(np.abs(eval_network(bad, X) - ref)))
            assert diff > 1e-9, f"flip at layer {li} ({r},{c}) went unnoticed"
            bad_path = tmp_path / "bad.json"
            bad_path.write_text(json.dumps(network_to_dict(bad)))
            rc = _quiet_cli(["verify", "--net", str(bad_path), *verify_args])
            assert rc == 2, f"flip at layer {li} ({r},{c}): verify exit {rc}"
            n_flips += 1
    assert n_flips >= 10

    proc = subprocess.run(
        [sys.executable, "-m", "cpwlrelu", "verify", "--net",
         str(tmp_path / "bad.json"), *verify_args],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stderr

    # best-effort one-hidden-layer fit of a 2D hat (reported, not gated)
    mesh2 = crisscross_mesh(np.linspace(0, 1, 3), np.linspace(0, 1, 3))
    c2 = np.zeros(mesh2.num_vertices)
    c2[4] = 1.0
    P = sample_points(mesh2, 3000, rng)
    y = interpolate(mesh2, c2, P)
    best = np.inf
    for restart in range(20):
        Wr = rng.normal(scale=2.0, size=(50, 2))
        br = rng.uniform(-2, 2, size=50)
        Phi = np.maximum(P @ Wr.T + br, 0.0)
        A = np.hstack([Phi, np.ones((len(P), 1))])
        sol, *_ = np.linalg.lstsq(A, y, rcond=None)
        rmse = float(np.sqrt(np.mean((A @ sol - y) ** 2)))
        best = min(best, rmse)
    assert np.isfinite(best)

    _ok(10, f"all {n_flips} sign flips detected (library diff > 1e-9 and "
            f"verify exit 2); width-50 single-layer fit best RMSE {best:.4f} "
            f"(reported only)")
