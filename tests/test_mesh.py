"""Mesh construction, validation, geometry, and nodal-basis tests.

Oracles are independent of the implementation: hand geometry (unit right
triangle incircle/circumcircle, regular simplex ratios), the affine patch
test for interpolation, and direct evaluation for hat functions.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from helpers import chain_mesh, crisscross_mesh, kuhn_cube_mesh, square_two_triangles
from scipy.spatial import Delaunay

from cpwlrelu import mesh as mesh_module
from cpwlrelu.errors import (
    DegenerateSimplex,
    DimensionMismatch,
    NonConforming,
    OutsideDomain,
)
from cpwlrelu.mesh import (
    BARY_TOL,
    LOCATE_ENTRIES_PER_ELEMENT,
    build_mesh,
    compute_kh,
    find_simplex,
    interpolate,
    is_locally_convex,
    mesh_from_dict,
    mesh_to_dict,
    sample_points,
    shape_regularity,
    vertex_star,
    vertex_stars,
)


# ---------------------------------------------------------------------------
# Validation errors
# ---------------------------------------------------------------------------


def test_rejects_out_of_range_index():
    with pytest.raises(NonConforming):
        build_mesh(np.array([[0.0], [1.0]]), np.array([[0, 2]]))


def test_rejects_repeated_vertex_in_element():
    with pytest.raises(NonConforming):
        build_mesh(np.array([[0.0], [1.0]]), np.array([[1, 1]]))


def test_rejects_degenerate_element():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(DegenerateSimplex):
        build_mesh(verts, np.array([[0, 1, 2]]))


def test_rejects_duplicate_elements():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(NonConforming):
        build_mesh(verts, np.array([[0, 1, 2], [2, 0, 1]]))


def test_rejects_unused_vertex():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    with pytest.raises(NonConforming):
        build_mesh(verts, np.array([[0, 1, 2]]))


def test_rejects_overtriangulated_facet():
    # Three segments out of two vertices share the same 0-facet three times.
    verts = np.array([[0.0], [1.0], [2.0], [3.0]])
    simp = np.array([[0, 1], [1, 2], [1, 3]])
    with pytest.raises(NonConforming):
        build_mesh(verts, simp)


def test_rejects_hanging_node():
    # A vertex of the lower triangle sits on the upper triangle's edge.
    verts = np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.0], [1.5, -1.0], [-0.5, -1.0]]
    )
    simp = np.array([[0, 1, 2], [3, 4, 5]])
    with pytest.raises(NonConforming):
        build_mesh(verts, simp)
    # without deep validation the same mesh is accepted
    build_mesh(verts, simp, validate=False)


def test_rejects_hanging_node_at_large_scale():
    # The same mesh scaled by 1e4, with the hanging vertex 5e-7 below the
    # edge: its barycentric coordinate there is -5e-11, within BARY_TOL, but
    # the two bounding boxes are 5e-7 apart.
    verts = 1e4 * np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.0], [1.5, -1.0], [-0.5, -1.0]]
    )
    verts[3, 1] = -5e-7
    with pytest.raises(NonConforming):
        build_mesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_vertex(bad):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    verts[3, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        build_mesh(verts, np.array([[0, 1, 3], [0, 3, 2]]))


@pytest.fixture()
def lp_calls(monkeypatch):
    """Counts the linear programs build_mesh solves."""
    calls = []
    real = mesh_module.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(mesh_module, "linprog", counting)
    return calls


def test_overlap_without_contained_vertices_goes_to_lp(lp_calls):
    # Each triangle pokes through the other's long edge; no vertex of one
    # lies in the other, and no edge separates them.
    verts = np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.5, 0.9], [0.0, 0.6], [1.0, 0.6], [0.5, -0.3]]
    )
    with pytest.raises(NonConforming, match="overlap"):
        build_mesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))
    assert len(lp_calls) == 1


def _edge_separated_tets(shift: float) -> np.ndarray:
    """Tet A has an x-edge at z=0 and a y-edge at z=1; tet B (shifted up by
    ``shift``) a y-edge at z=-0.1 and an x-edge at z=-1.1.  Only the plane
    between the two middle edges separates them, and it is no facet plane.
    Both are rotated 45 degrees about x and then 30 about y, so that their
    bounding boxes meet."""
    A = [[1, 0, 0], [-1, 0, 0], [0, 1, 1], [0, -1, 1]]
    B = [[0, 1, -0.1], [0, -1, -0.1], [1, 0, -1.1], [-1, 0, -1.1]]
    V = np.array(A + B, dtype=float)
    V[4:, 2] += shift
    a, b = np.pi / 4, np.pi / 6
    Rx = np.array([[1, 0, 0], [0, np.cos(a), -np.sin(a)], [0, np.sin(a), np.cos(a)]])
    Ry = np.array([[np.cos(b), 0, np.sin(b)], [0, 1, 0], [-np.sin(b), 0, np.cos(b)]])
    return V @ (Ry @ Rx).T


def test_edge_separated_tets_accepted_by_one_lp(lp_calls):
    build_mesh(_edge_separated_tets(0.0), np.array([[0, 1, 2, 3], [4, 5, 6, 7]]))
    assert len(lp_calls) == 1
    with pytest.raises(NonConforming, match="overlap"):
        build_mesh(_edge_separated_tets(0.3), np.array([[0, 1, 2, 3], [4, 5, 6, 7]]))


def test_conforming_meshes_need_no_lp(lp_calls):
    crisscross_mesh(np.linspace(0, 1, 16), np.linspace(0, 1, 16))
    kuhn_cube_mesh()
    assert len(lp_calls) == 0


def test_rejects_overlap_without_shared_vertices():
    verts = np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.2, 0.2], [1.2, 0.2], [0.2, 1.2]]
    )
    simp = np.array([[0, 1, 2], [3, 4, 5]])
    with pytest.raises(NonConforming):
        build_mesh(verts, simp)


def test_rejects_overlap_across_shared_edge():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.4, 0.3]])
    simp = np.array([[0, 1, 2], [0, 1, 3]])
    with pytest.raises(NonConforming):
        build_mesh(verts, simp)


# ---------------------------------------------------------------------------
# Geometry oracles
# ---------------------------------------------------------------------------


def test_barycentric_reproduces_points(rng):
    mesh = square_two_triangles()
    for k in range(len(mesh.simplices)):
        lam = rng.dirichlet(np.ones(3), size=20)
        pts = lam @ mesh.vertices[mesh.simplices[k]]
        back = mesh.barycentric(k, pts)
        assert np.allclose(back, lam, atol=1e-12)
        assert np.allclose(back.sum(axis=1), 1.0, atol=1e-12)


def test_boundary_vertices_oracle():
    chain = chain_mesh(np.linspace(0, 1, 5))
    assert set(chain.boundary_vertices) == {0, 4}
    assert set(chain.interior_vertices) == {1, 2, 3}
    cc = crisscross_mesh(np.linspace(0, 1, 3), np.linspace(0, 1, 3))
    inner = {4}  # center of the 3x3 vertex grid
    assert set(cc.interior_vertices) == inner
    assert set(cc.boundary_vertices) == set(range(9)) - inner


def test_facet_table_oracle(mesh_corpus):
    """``neighbors[k, j]`` is the other element holding the facet opposite
    local vertex ``j`` of element ``k``, or -1 when no element does; the
    boundary vertices are the vertices of the -1 facets."""
    for name, mesh in mesh_corpus:
        sets = [set(s) for s in mesh.simplices.tolist()]
        assert mesh.neighbors.shape == mesh.simplices.shape, name
        rim = set()
        for k, simplex in enumerate(mesh.simplices.tolist()):
            for j, v in enumerate(simplex):
                facet = sets[k] - {v}
                holders = [l for l, s in enumerate(sets) if l != k and facet <= s]
                assert mesh.neighbors[k, j] == (holders[0] if holders else -1), (name, k, j)
                if not holders:
                    rim |= facet
        assert set(mesh.boundary_vertices.tolist()) == rim, name


def test_volumes_oracle():
    mesh = square_two_triangles()
    assert np.allclose(mesh.volumes, 0.5)
    cube = kuhn_cube_mesh()
    assert np.allclose(cube.volumes, 1.0 / 6.0)
    assert np.isclose(cube.volumes.sum(), 1.0)


def test_shape_regularity_known_values():
    # 1D elements: ratio is 1 by convention (in/out radii coincide).
    assert shape_regularity(chain_mesh([0.0, 0.3, 1.0])) == pytest.approx(1.0)
    # Unit right triangle: r = (a + b - c)/2, R = c/2.
    tri = build_mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]])
    )
    r = (2.0 - np.sqrt(2.0)) / 2.0
    R = np.sqrt(2.0) / 2.0
    assert shape_regularity(tri) == pytest.approx(r / R, rel=1e-12)
    # Equilateral triangle: r/R = 1/2.
    eq = build_mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]]),
        np.array([[0, 1, 2]]),
    )
    assert shape_regularity(eq) == pytest.approx(0.5, rel=1e-12)
    # Regular tetrahedron: r/R = 1/3.
    tet = build_mesh(
        np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]),
        np.array([[0, 1, 2, 3]]),
    )
    assert shape_regularity(tet) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_kh_oracle(mesh_corpus):
    for name, mesh in mesh_corpus:
        # independent recount straight from the element array
        counts = np.bincount(mesh.simplices.ravel(), minlength=len(mesh.vertices))
        assert compute_kh(mesh) == counts.max(), name


def test_find_simplex_and_outside():
    mesh = square_two_triangles()
    idx = find_simplex(mesh, np.array([[0.75, 0.1], [0.1, 0.75]]))
    assert idx[0] == 0 and idx[1] == 1
    with pytest.raises(OutsideDomain):
        interpolate(mesh, np.zeros(4), np.array([[2.0, 2.0]]))


def test_one_dimensional_arrays_are_read_as_columns_and_rows(rng):
    """A 1D vertex array is ``(n, 1)``, a 1D simplex array one element, and
    a 1D point array on a 1D mesh ``(q, 1)``."""
    line = build_mesh(np.array([0.0, 0.5, 1.0]), [[0, 1], [1, 2]])
    assert np.array_equal(line.vertices, [[0.0], [0.5], [1.0]])
    triangle = build_mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [0, 1, 2])
    assert np.array_equal(triangle.simplices, [[0, 1, 2]])
    coeffs = np.array([1.0, -2.0, 3.0])
    x = rng.uniform(0.0, 1.0, size=20)
    assert np.array_equal(interpolate(line, coeffs, x), interpolate(line, coeffs, x[:, None]))
    assert np.max(np.abs(interpolate(line, coeffs, x) - np.interp(x, [0, 0.5, 1], coeffs))) < 1e-14


def test_interpolation_patch_test(mesh_corpus, rng):
    """Nodal interpolation reproduces affine functions exactly."""
    for name, mesh in mesh_corpus:
        a = rng.normal(size=mesh.dim)
        b = float(rng.normal())
        coeffs = mesh.vertices @ a + b
        X = sample_points(mesh, 200, rng)
        vals = interpolate(mesh, coeffs, X)
        assert np.max(np.abs(vals - (X @ a + b))) < 1e-12, name


def test_interpolate_matches_per_element_reference(mesh_corpus, rng):
    """The gathered evaluation agrees with a loop over the containing elements."""
    for name, mesh in mesh_corpus:
        coeffs = rng.normal(size=len(mesh.vertices))
        X = sample_points(mesh, 200, rng)
        ks = find_simplex(mesh, X)
        ref = [mesh.barycentric(k, x)[0] @ coeffs[mesh.simplices[k]] for k, x in zip(ks, X)]
        assert np.max(np.abs(interpolate(mesh, coeffs, X) - ref)) < 1e-13, name


def test_sample_points_inside(mesh_corpus, rng):
    for name, mesh in mesh_corpus:
        X = sample_points(mesh, 300, rng)
        assert X.shape == (300, mesh.dim)
        assert np.all(find_simplex(mesh, X) >= 0), name


# ---------------------------------------------------------------------------
# Point location
# ---------------------------------------------------------------------------


def _oracle_simplex(mesh, X, tol=BARY_TOL):
    """The lowest ``k`` with every barycentric coordinate ``>= -tol``, else -1,
    by one element at a time."""
    out = np.full(len(X), -1)
    for k in reversed(range(mesh.num_simplices)):
        out[np.all(mesh.barycentric(k, X) >= -tol, axis=1)] = k
    return out


def _facet_midpoints(mesh):
    """Midpoint, element and local index ``j`` of the facet opposite vertex
    ``j`` of each element, one row per (element, j)."""
    d = mesh.dim
    others = np.nonzero(~np.eye(d + 1, dtype=bool))[1].reshape(d + 1, d)
    mid = mesh.vertices[mesh.simplices[:, others]].mean(axis=2).reshape(-1, d)
    k, j = np.divmod(np.arange(mid.shape[0]), d + 1)
    return mid, k, j


def _beyond_boundary(mesh, t):
    """Boundary-facet midpoints pushed outwards until the coordinate of the
    opposite vertex is ``-t``."""
    mid, k, j = _facet_midpoints(mesh)
    rim = mesh.neighbors.ravel() < 0
    g = mesh.bary_inverse[k[rim], j[rim], :-1]
    return mid[rim] - t * g / np.sum(g * g, axis=1, keepdims=True)


def test_find_simplex_matches_lowest_index_oracle(mesh_corpus, rng):
    # The 40 x 1e-3 strip has one bucket across its height.
    grids = [("cc-32x32", crisscross_mesh(np.linspace(0, 1, 32), np.linspace(0, 1, 32))),
             ("strip", crisscross_mesh(np.linspace(0.0, 40.0, 41), [0.0, 1e-3]))]
    for name, mesh in list(mesh_corpus) + grids:
        lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
        far = (lo + hi) / 2 + 10.0 * (hi - lo) * rng.normal(size=(20, mesh.dim))
        near, off = _beyond_boundary(mesh, 0.5 * BARY_TOL), _beyond_boundary(mesh, 1e-6)
        grid = mesh_module._bucket_grid(mesh, BARY_TOL)
        X = np.vstack([sample_points(mesh, 300, rng), mesh.vertices,
                       _facet_midpoints(mesh)[0], near, off, far, [hi + 1e6, grid.lo, grid.hi]])
        got = find_simplex(mesh, X)
        assert np.array_equal(got, _oracle_simplex(mesh, X)), name
        # Shared points go to the lowest of the elements holding them.
        nv = mesh.num_vertices
        lowest = np.full(nv, mesh.num_simplices)
        np.minimum.at(lowest, mesh.simplices, np.arange(mesh.num_simplices)[:, None])
        assert got[300:300 + nv].tolist() == lowest.tolist(), name
        assert np.all(find_simplex(mesh, near) >= 0), name
        assert np.all(find_simplex(mesh, off) == -1), name
    strip = grids[1][1]
    shape = mesh_module._bucket_grid(strip, BARY_TOL).shape
    assert shape[1] == 1 and shape[0] > 1


def test_find_simplex_rejects_malformed_points():
    mesh = square_two_triangles()
    with pytest.raises(DimensionMismatch, match=r"dimension 2, got points of shape \(4, 3\)"):
        interpolate(mesh, np.zeros(4), np.zeros((4, 3)))
    with pytest.raises(DimensionMismatch):
        find_simplex(mesh, np.zeros((4, 1)))
    bad = np.array([[np.inf, 0.5], [0.5, np.nan], [-np.inf, -np.inf], [np.nan, np.nan]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert find_simplex(mesh, bad).tolist() == [-1, -1, -1, -1]
        assert find_simplex(mesh, np.vstack([bad, [[0.75, 0.1]]]))[-1] == 0
        for row in bad:
            with pytest.raises(OutsideDomain):
                interpolate(mesh, np.zeros(4), row[None, :])
        assert find_simplex(mesh, np.zeros((0, 2))).shape == (0,)
        assert interpolate(mesh, np.zeros(4), np.zeros((0, 2))).shape == (0,)


def _crisscross_arrays(n):
    """Vertices and elements of the n x n-vertex criss-cross grid on [0, 1]^2."""
    xs = np.linspace(0.0, 1.0, n)
    verts = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
    a = (np.arange(n - 1)[None, :] + n * np.arange(n - 1)[:, None]).ravel()
    simp = np.concatenate([np.stack([a, a + 1, a + n + 1], axis=1),
                           np.stack([a, a + n + 1, a + n], axis=1)])
    return verts, simp


def test_find_simplex_on_a_128_grid(rng):
    """Locating 20 000 points on 32 258 elements is one batched pass."""
    mesh = build_mesh(*_crisscross_arrays(128), validate=False)
    X = sample_points(mesh, 20_000, rng)
    ks = find_simplex(mesh, X)
    assert np.all(ks >= 0)
    hom = np.hstack([X, np.ones((len(X), 1))])
    lam = np.einsum("qij,qj->qi", mesh.bary_inverse[ks], hom)
    assert lam.min() >= -BARY_TOL
    a, b = rng.normal(size=2), float(rng.normal())
    vals = interpolate(mesh, mesh.vertices @ a + b, X)
    assert np.max(np.abs(vals - (X @ a + b))) < 1e-12


def test_find_simplex_on_slivers_keeps_table_and_memory_small(rng):
    """The Delaunay triangulation of 3 000 points on a circle is a mesh of
    long slivers whose boxes overlap; the table stays within its bound and
    the candidates are tested in batches."""
    t = np.linspace(0.0, 2.0 * np.pi, 3000, endpoint=False)
    P = np.stack([np.cos(t), np.sin(t)], axis=1)
    mesh = build_mesh(P, Delaunay(P).simplices, validate=False)
    m = mesh.num_simplices
    members = mesh_module._bucket_grid(mesh, BARY_TOL).members
    assert members.size <= LOCATE_ENTRIES_PER_ELEMENT * m
    X = sample_points(mesh, 5000, rng)
    tracemalloc.start()
    try:
        got = find_simplex(mesh, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, _oracle_simplex(mesh, X))
    assert peak < 32e6, peak


# ---------------------------------------------------------------------------
# Vertex stars and hat functions
# ---------------------------------------------------------------------------


def test_vertex_star_affines_are_nodal(mesh_corpus):
    """Each local affine is 1 at the center and 0 at the element's others."""
    for name, mesh in mesh_corpus:
        for i in range(len(mesh.vertices)):
            star = vertex_star(mesh, i)
            for k, row in zip(star.incident, star.affine_rows):
                for v in mesh.simplices[k]:
                    want = 1.0 if v == i else 0.0
                    got = mesh.vertices[v] @ row[:-1] + row[-1]
                    assert abs(got - want) < 1e-10, (name, i)


def test_hat_equals_min_identity_on_convex_stars(mesh_corpus, rng):
    """On convex stars the hat equals max(0, min of the local affines)."""
    for name, mesh in mesh_corpus:
        for i in range(len(mesh.vertices)):
            if not is_locally_convex(mesh, i):
                continue
            star = vertex_star(mesh, i)
            coeffs = np.zeros(len(mesh.vertices))
            coeffs[i] = 1.0
            X = sample_points(mesh, 400, rng)
            hat = interpolate(mesh, coeffs, X)
            R = star.affine_rows
            expr = np.maximum(0.0, np.min(X @ R[:, :-1].T + R[:, -1], axis=1))
            assert np.max(np.abs(hat - expr)) < 1e-10, (name, i)


def _star_oracle(mesh, i, tol=BARY_TOL):
    """Vertex ``i``'s incident elements, hat rows and convexity, one star at
    a time: the rows solve each element's nodal system, and a boundary
    facet of the star (opposite ``i``, or without neighbour) supports it
    iff every star vertex is on its inner side."""
    incident = [k for k in range(mesh.num_simplices) if i in mesh.simplices[k]]
    rows, convex = [], True
    star = np.unique(mesh.simplices[incident])
    for k in incident:
        S = mesh.simplices[k]
        A = np.hstack([mesh.vertices[S], np.ones((len(S), 1))])
        rows.append(np.linalg.solve(A, (S == i).astype(float)))
        for j in range(len(S)):
            if S[j] == i or mesh.neighbors[k, j] < 0:
                lam = mesh.barycentric(k, mesh.vertices[star])[:, j]
                convex &= bool(np.all(lam >= -tol))
    return incident, np.array(rows), convex


def test_vertex_stars_match_per_vertex_oracle(mesh_corpus):
    """One pass over any list of vertices (repeats and any order) gives each
    star's elements, hat rows and convexity as the per-star oracle does,
    also on stars that are not convex."""
    darts = [
        (f"dart-{depth:g}", build_mesh(
            np.array([[0.0, 0.0], [1.0, 0.5], [0.0, 0.5 - depth], [-1.0, 0.5], [0.0, -1.0]]),
            np.array([[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1], [1, 2, 3]]),
        ))
        for depth in (0.3, 1e-6)  # the notch at vertex 2, below the chord
    ]
    ell = build_mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
        np.array([[0, 1, 2], [0, 2, 3], [0, 3, 4]]),
    )
    rng = np.random.default_rng(0)
    flags = []
    for name, mesh in [*mesh_corpus, *darts, ("ell", ell)]:
        centers = rng.permutation(np.r_[np.arange(mesh.num_vertices), [0, 0]])
        stars = vertex_stars(mesh, centers)
        assert np.array_equal(stars.centers, centers)
        assert stars.residual.max() < 1e-12, name
        for u, i in enumerate(centers):
            incident, rows, convex = _star_oracle(mesh, i)
            part = slice(stars.starts[u], stars.starts[u + 1])
            assert stars.incident[part].tolist() == incident, (name, i)
            assert np.allclose(stars.affine_rows[part], rows, rtol=0, atol=1e-9), (name, i)
            assert stars.convex[u] == convex, (name, i)
            flags.append(convex)
    assert not all(flags)
    empty = vertex_stars(ell, [])
    assert empty.starts.tolist() == [0] and empty.affine_rows.shape == (0, 3)


def test_locally_convex_negative_case():
    # Three quadrants around the origin form an L-shape: not convex there.
    verts = np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    )
    simp = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 4]])
    mesh = build_mesh(verts, simp)
    assert not is_locally_convex(mesh, 0)
    assert is_locally_convex(mesh, 1)
    # An interior vertex whose link polygon has a reflex corner at (0, 0.2),
    # below the chord of its neighbours: the star of 0 is a dart.  Element
    # [1, 2, 3] fills the notch, so the two facets that fail to support the
    # star are interior facets of the mesh.
    verts = np.array(
        [[0.0, 0.0], [1.0, 0.5], [0.0, 0.2], [-1.0, 0.5], [0.0, -1.0]]
    )
    simp = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1], [1, 2, 3]])
    mesh = build_mesh(verts, simp)
    assert list(mesh.interior_vertices) == [0, 2]
    assert not is_locally_convex(mesh, 0)
    assert is_locally_convex(mesh, 2)


def test_corpus_is_locally_convex(mesh_corpus):
    for name, mesh in mesh_corpus:
        for i in range(len(mesh.vertices)):
            assert is_locally_convex(mesh, i), (name, i)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_mesh_roundtrip(mesh_corpus, tmp_path):
    from cpwlrelu.mesh import load_mesh, save_mesh

    for name, mesh in mesh_corpus[:6]:
        p = tmp_path / f"{name}.json"
        save_mesh(mesh, str(p))
        back = load_mesh(str(p))
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.simplices, mesh.simplices)
        assert np.array_equal(back.boundary_vertices, mesh.boundary_vertices)


def test_mesh_dict_tampered_boundary_rejected():
    mesh = square_two_triangles()
    d = mesh_to_dict(mesh)
    d["boundary"] = [0]  # wrong: all four corners are boundary
    with pytest.raises(NonConforming):
        mesh_from_dict(d)


def test_mesh_dict_rejects_fractional_vertex_indices():
    d = mesh_to_dict(square_two_triangles())
    d["simplices"][0][2] += 0.7
    with pytest.raises(ValueError, match="integer vertex indices"):
        mesh_from_dict(d)


def test_mesh_dict_rejects_boolean_vertex_index():
    d = mesh_to_dict(square_two_triangles())
    assert d["simplices"][0][1] == 1  # a float cast would read True as this
    d["simplices"][0][1] = True
    with pytest.raises(ValueError, match="mesh simplices must hold integer vertex "
                                         "indices, not True"):
        mesh_from_dict(d)


@pytest.mark.parametrize("field, row", [("simplices", [0, 3]), ("vertices", [1.0])])
def test_mesh_dict_rejects_ragged_rows(field, row):
    d = mesh_to_dict(square_two_triangles())
    d[field][1] = row
    with pytest.raises(ValueError, match=rf"ragged mesh '{field}': row 1 is \[.*\]"):
        mesh_from_dict(d)


def test_mesh_dict_rejects_fractional_boundary_vertex():
    d = mesh_to_dict(square_two_triangles())
    d["boundary"][-1] += 0.5  # int() would read it back as the right vertex
    with pytest.raises(ValueError, match="boundary vertex must be an integer"):
        mesh_from_dict(d)


def test_mesh_dict_accepts_integral_float_indices():
    mesh = square_two_triangles()
    d = mesh_to_dict(mesh)
    d["simplices"] = [[float(v) for v in s] for s in d["simplices"]]
    assert np.array_equal(mesh_from_dict(d).simplices, mesh.simplices)
