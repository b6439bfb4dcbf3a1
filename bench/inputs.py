"""Seeded input generators for the benchmark.

Every generator returns plain arrays (meshes, coefficients) or a
``CpwlPieces`` built from plain arrays, so the library under test only ever
sees generated numbers.  Each generator takes the seed or generator that
fixes its draws; which draws follow ``--seed`` is decided in ``workloads.py``.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.spatial import Delaunay

from cpwlrelu.cpwl import AffineFunc, CpwlPieces


# ---------------------------------------------------------------------------
# Meshes (vertices, simplices)
# ---------------------------------------------------------------------------


def crisscross(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform ``n x n``-vertex grid on [0, 1]^2, each cell cut along SW-NE."""
    xs = np.linspace(0.0, 1.0, n)
    verts = np.array([[x, y] for y in xs for x in xs])
    simp = []
    for j in range(n - 1):
        for i in range(n - 1):
            a, b = j * n + i, j * n + i + 1
            c, d = a + n, b + n
            simp += [[a, b, d], [a, d, c]]
    return verts, np.array(simp, dtype=np.int64)


def kuhn_grid(k: int) -> tuple[np.ndarray, np.ndarray]:
    """``k^3`` unit cubes of [0, 1]^3, each split into the 6 Kuhn tetrahedra.

    Every cube is cut along its main diagonal in the same direction, so the
    faces of neighbouring cubes match and the mesh is conforming.
    """
    n = k + 1
    g = np.linspace(0.0, 1.0, n)
    verts = np.array([[x, y, z] for x in g for y in g for z in g])

    def idx(p):
        return (p[0] * n + p[1]) * n + p[2]

    tets = []
    for corner in itertools.product(range(k), repeat=3):
        for perm in itertools.permutations(range(3)):
            p = list(corner)
            path = [idx(p)]
            for axis in perm:
                p[axis] += 1
                path.append(idx(p))
            tets.append(path)
    return verts, np.array(tets, dtype=np.int64)


def delaunay_rim(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Delaunay triangulation of ``n`` points in strictly convex position.

    The points sit on the unit circle with a radial jitter far below the
    sagitta of the smallest angular gap, so every point is a hull vertex.
    Any triangulation of points in convex position has convex vertex stars
    (each star is a sub-polygon of a convex polygon), which both pathways
    require.
    """
    rng = np.random.default_rng(seed)
    while True:
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        gaps = np.diff(np.append(ang, ang[0] + 2.0 * np.pi))
        if np.min(gaps) >= 0.15:
            break
    r = 1.0 + rng.uniform(-0.002, 0.002, n)
    pts = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
    return pts, np.asarray(Delaunay(pts).simplices, dtype=np.int64)


def fe_coeffs(num_vertices: int, rng: np.random.Generator) -> np.ndarray:
    """Nodal values bounded away from zero, so every hat is compiled."""
    return rng.choice([-1.0, 1.0], num_vertices) * rng.uniform(0.5, 1.5, num_vertices)


# ---------------------------------------------------------------------------
# Piece lists
# ---------------------------------------------------------------------------


def _max_affine_base(d: int, m: int, rng: np.random.Generator):
    """Max of ``m`` tangents of ``|x|^2`` at well-separated sites in [-0.8, 0.8]^d.

    Piece ``i`` is active exactly on the Voronoi cell of its site, so every
    piece is active in the box and the regions are explicit half-spaces.
    """
    while True:
        P = rng.uniform(-0.8, 0.8, size=(m, d))
        gaps = np.linalg.norm(P[:, None, :] - P[None, :, :], axis=2) + np.eye(m)
        if np.min(gaps) > 0.2:
            break
    A, c = 2.0 * P, -np.sum(P * P, axis=1)
    regions = [
        (np.delete(A, i, axis=0) - A[i], c[i] - np.delete(c, i)) for i in range(m)
    ]
    return A, c, regions


def _fan_base(m: int, rng: np.random.Generator):
    """Positively homogeneous 2D CPWL on ``m`` cones; generically non-convex."""
    while True:
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, m))
        gaps = np.diff(np.append(ang, ang[0] + 2.0 * np.pi))
        if np.min(gaps) >= 0.3 and np.max(gaps) <= np.pi - 0.1:
            break
    rays = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    y = rng.normal(size=m)
    A = np.empty((m, 2))
    regions = []
    for i in range(m):
        j = (i + 1) % m
        A[i] = np.linalg.solve(np.stack([rays[i], rays[j]]), [y[i], y[j]])
        a, b = ang[i], ang[i] + gaps[i]
        normals = np.array([[np.sin(a), -np.cos(a)], [-np.sin(b), np.cos(b)]])
        regions.append((normals, np.zeros(2)))
    return A, np.zeros(m), regions


def _zigzag_base(m: int, rng: np.random.Generator):
    """1D CPWL with ``m`` pieces of pairwise distinct slopes on [-1, 1]."""
    while True:
        slopes = 2.0 * rng.normal(size=m)
        if np.min(np.abs(np.subtract.outer(slopes, slopes)) + np.eye(m)) > 1e-2:
            break
    while True:
        bp = np.sort(rng.uniform(-1.0, 1.0, m - 1))
        knots = np.concatenate([[-1.0], bp, [1.0]])
        if np.min(np.diff(knots)) > 0.05:
            break
    vals = np.concatenate([[rng.normal()], np.cumsum(slopes * np.diff(knots))])
    vals[1:] += vals[0]
    A = slopes[:, None]
    c = vals[:-1] - slopes * knots[:-1]
    regions = [
        (np.array([[-1.0], [1.0]]), np.array([-knots[i], knots[i + 1]])) for i in range(m)
    ]
    return A, c, regions


_BASES = {"maxaffine": _max_affine_base, "fan": _fan_base, "zigzag": _zigzag_base}


def piece_list(kind: str, dims: tuple, seed: int) -> CpwlPieces:
    """A ``kind`` piece list on ``[-1, 1]^d`` drawn from ``seed``."""
    A, c, regions = _BASES[kind](*dims, np.random.default_rng(seed))
    d = A.shape[1]
    pieces = [AffineFunc(A[i], float(c[i])) for i in range(len(c))]
    return CpwlPieces(d, pieces, regions, (-np.ones(d), np.ones(d)))
