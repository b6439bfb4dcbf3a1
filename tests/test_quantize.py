"""Dyadic weight grids, nearest projection, and structure verification.

Oracle: exhaustive enumeration over the (finite) grid values, with the
tie-break "prefer the smaller magnitude" applied explicitly.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cpwlrelu.quantize import (
    QuantGrid,
    check_structured,
    project,
    project_matrix,
    project_network,
)
from cpwlrelu.relu_net import ReluNetwork, affine_network, eval_network


def brute_nearest(w: float, grid: QuantGrid) -> float:
    """Exhaustive nearest grid value; ties go to the smaller magnitude."""
    vals = sorted(grid.values, key=lambda v: (abs(w - v), abs(v)))
    return vals[0]


# ---------------------------------------------------------------------------
# Grid values
# ---------------------------------------------------------------------------


def test_grid_values_low_bit():
    g = QuantGrid(0, 3)
    assert set(np.round(g.values, 12)) == {0.0, 1.0, -1.0, 0.5, -0.5}


def test_grid_values_scaled():
    g = QuantGrid(1, 3)
    assert set(np.round(g.values, 12)) == {0.0, 2.0, -2.0, 1.0, -1.0}
    g2 = QuantGrid(0, 2)
    assert set(np.round(g2.values, 12)) == {0.0, 1.0, -1.0}


def test_grid_rejects_tiny_bit_width():
    with pytest.raises(Exception):
        QuantGrid(0, 1)


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


def test_project_matches_bruteforce(rng):
    g = QuantGrid(0, 3)
    w = np.concatenate(
        [rng.uniform(-2, 2, 500), rng.normal(scale=0.3, size=500)]
    )
    got = project(w, g)
    want = np.array([brute_nearest(x, g) for x in w])
    assert np.array_equal(got, want)


def test_project_tie_prefers_smaller_magnitude():
    g = QuantGrid(0, 3)
    # 0.25 is equidistant from 0 and 0.5; 0.75 equidistant from 0.5 and 1.
    assert project(0.25, g) == 0.0
    assert project(-0.25, g) == 0.0
    assert project(0.75, g) == 0.5
    assert project(-0.75, g) == -0.5


def test_project_idempotent(rng):
    g = QuantGrid(0, 4)
    w = rng.uniform(-3, 3, 200)
    once = project(w, g)
    assert np.array_equal(project(once, g), once)


def test_project_matrix_sparse_stays_sparse():
    g = QuantGrid(0, 3)
    W = sp.csr_matrix(np.array([[0.6, 0.0, 0.2], [0.0, -1.2, 0.0]]))
    P = project_matrix(W, g)
    assert sp.issparse(P)
    assert np.allclose(P.toarray(), [[0.5, 0.0, 0.0], [0.0, -1.0, 0.0]])
    assert P.nnz == 2  # 0.2 projects to 0 and is no longer stored


def test_project_network_skips_first_layer(rng):
    layers = [
        (rng.normal(size=(4, 2)), rng.normal(size=4)),
        (np.array([[0.6, -0.4, 1.2, 0.0]]), np.zeros(1)),
    ]
    net = ReluNetwork(2, layers)
    out = project_network(net, QuantGrid(0, 3))
    assert np.array_equal(out.layers[0][0].toarray(), layers[0][0])
    assert np.allclose(out.layers[1][0].toarray(), [[0.5, -0.5, 1.0, 0.0]])
    withfirst = project_network(net, QuantGrid(0, 3), include_first=True)
    assert not np.array_equal(withfirst.layers[0][0].toarray(), layers[0][0])


# ---------------------------------------------------------------------------
# Structure verification
# ---------------------------------------------------------------------------


def _structured_net():
    return ReluNetwork(
        2,
        [
            (np.array([[1.3, -0.7], [0.2, 0.9]]), np.array([0.4, -0.1])),
            (np.array([[1.0, -0.5], [0.0, 1.0]]), np.zeros(2)),
            (np.array([[0.5, -1.0]]), np.zeros(1)),
        ],
    )


def test_check_structured_passes_on_grid():
    rep = check_structured(_structured_net())
    assert rep.passed and not rep.vacuous
    assert rep.checked_layers == [1, 2]
    assert rep.checked_params == 5
    assert rep.violations == []


def test_check_structured_flags_offgrid_weight():
    net = _structured_net()
    net.layers[1][0][0, 0] = 0.75
    rep = check_structured(net)
    assert not rep.passed
    assert any(v.layer == 1 and v.kind == "weight" for v in rep.violations)


def test_check_structured_flags_hidden_bias():
    net = _structured_net()
    net.layers[1][1][1] = 0.125
    rep = check_structured(net)
    assert not rep.passed
    assert any(v.kind == "bias" for v in rep.violations)


def test_check_structured_first_layer_exempt():
    net = _structured_net()
    net.layers[0][0][0, 0] = 123.456  # arbitrary: layer 0 is unconstrained
    assert check_structured(net).passed


def test_check_structured_tolerance():
    net = _structured_net()
    net.layers[1][0][0, 0] = 1.0 + 1e-12
    assert not check_structured(net, tol=0.0).passed
    assert check_structured(net, tol=1e-9).passed


def test_duplicate_entries_checked_and_projected_as_their_sum():
    # layer 1 stores column 0 of row 0 twice, 1.0 + 1.0: each copy is on the
    # (0,3) grid, the weight the network computes with (2.0) is not
    W1 = sp.csr_matrix(
        (np.array([1.0, 1.0]), np.array([0, 0]), np.array([0, 2])), shape=(1, 2)
    )
    net = ReluNetwork(1, [(np.array([[1.0], [-1.0]]), np.zeros(2)), (W1, np.zeros(1))])
    rep = check_structured(net)
    assert not rep.passed
    assert rep.violations[0].layer == 1 and rep.violations[0].example == 2.0
    q = project_network(net, QuantGrid(0, 3))
    assert check_structured(q).passed
    assert np.array_equal(q.layers[1][0].toarray(), [[1.0, 0.0]])


def test_check_structured_vacuous_single_layer():
    net = affine_network(np.array([1.0, 2.0]), 0.5)
    rep = check_structured(net)
    assert rep.vacuous and rep.passed


def test_projection_preserves_structured_function(rng):
    """Projecting an already-structured net is the identity on layers >= 1."""
    net = _structured_net()
    out = project_network(net, QuantGrid(0, 3))
    X = rng.normal(size=(100, 2))
    assert np.array_equal(eval_network(out, X), eval_network(net, X))


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(w=st.floats(-8, 8), k=st.integers(-1, 2), l=st.integers(2, 5))
def test_property_projection_is_nearest(w, k, l):
    g = QuantGrid(k, l)
    p = project(w, g)
    dists = np.abs(np.asarray(g.values) - w)
    assert abs(w - p) <= dists.min() + 1e-15
