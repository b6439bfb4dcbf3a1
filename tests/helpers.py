"""Shared corpus builders for the test suite.

Provides a deterministic corpus of small locally convex meshes (1D chains,
2D criss-cross grids, 2D Delaunay triangulations of random convex-position
points, one structured 3D cube subdivision) and generators for random small
CPWL instances in piece-list form.
"""

from __future__ import annotations

import base64
import hashlib
import itertools

import numpy as np
from scipy.spatial import Delaunay

from cpwlrelu.compiler import (
    compile_cpwl_shallow,
    compile_fem_deep,
    compile_fem_shallow,
    compile_lattice_shallow,
    compile_max_of_m,
)
from cpwlrelu.cpwl import AffineFunc, CpwlPieces, LatticeForm
from cpwlrelu.mesh import SimplicialMesh, build_mesh, is_locally_convex
from cpwlrelu.relu_net import ARRAY_DTYPES, ReluNetwork, affine_network


# ---------------------------------------------------------------------------
# Mesh builders
# ---------------------------------------------------------------------------


def chain_mesh(knots) -> SimplicialMesh:
    t = np.asarray(knots, dtype=float)
    verts = t[:, None]
    n = len(t)
    simp = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    return build_mesh(verts, simp)


def random_chain(n: int, seed: int) -> SimplicialMesh:
    rng = np.random.default_rng(seed)
    while True:
        t = np.sort(rng.uniform(0.0, 1.0, n))
        if np.min(np.diff(t)) > 0.02:
            return chain_mesh(t)


def unit(mesh: SimplicialMesh, i: int) -> np.ndarray:
    """The coefficient vector of vertex ``i``'s nodal hat: ``e_i``."""
    c = np.zeros(mesh.num_vertices)
    c[i] = 1.0
    return c


def crisscross_mesh(xs, ys) -> SimplicialMesh:
    """Tensor grid split into triangles along the SW-NE diagonal of each cell."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    nx, ny = len(xs), len(ys)
    verts = np.array([[x, y] for y in ys for x in xs])

    def idx(i, j):
        return j * nx + i

    simp = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            a, b, c, d = idx(i, j), idx(i + 1, j), idx(i, j + 1), idx(i + 1, j + 1)
            simp.append([a, b, d])
            simp.append([a, d, c])
    return build_mesh(verts, np.array(simp))


def delaunay_rim_mesh(n: int, seed: int) -> SimplicialMesh:
    """Delaunay triangulation of random convex-position points.

    Points sit on a radially perturbed circle, so all of them are hull
    vertices; seeds advance until every vertex star is locally convex and
    no triangle is degenerate.
    """
    for s in range(seed, seed + 200):
        rng = np.random.default_rng(s)
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        gaps = np.diff(np.append(ang, ang[0] + 2.0 * np.pi))
        if np.min(gaps) < 0.15:
            continue
        r = 1.0 + rng.uniform(-0.02, 0.02, n)
        pts = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
        try:
            tri = Delaunay(pts)
            mesh = build_mesh(pts, tri.simplices)
        except Exception:
            continue
        if all(is_locally_convex(mesh, i) for i in range(n)):
            return mesh
    raise RuntimeError(f"no locally convex rim mesh found for n={n}, seed={seed}")


def kuhn_cube_mesh(k: int = 1) -> SimplicialMesh:
    """``k^3`` cubes of the unit cube, each split into the 6 Kuhn tetrahedra
    that share its main diagonal (one cube by default)."""
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
    return build_mesh(verts, np.array(tets))


def single_triangle() -> SimplicialMesh:
    return build_mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]])
    )


def square_two_triangles() -> SimplicialMesh:
    return build_mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        np.array([[0, 1, 3], [0, 3, 2]]),
    )


def build_corpus() -> list[tuple[str, SimplicialMesh]]:
    """At least 20 locally convex meshes, deterministic."""
    corpus: list[tuple[str, SimplicialMesh]] = []
    for n in (3, 5, 9, 17):
        corpus.append((f"chain-u{n}", chain_mesh(np.linspace(0.0, 1.0, n))))
    for n, seed in ((6, 11), (9, 12), (12, 13)):
        corpus.append((f"chain-r{n}", random_chain(n, seed)))
    corpus.append(("cc-2x2", crisscross_mesh(np.linspace(0, 1, 3), np.linspace(0, 1, 3))))
    corpus.append(("cc-3x3", crisscross_mesh(np.linspace(0, 1, 4), np.linspace(0, 1, 4))))
    corpus.append(("cc-4x4", crisscross_mesh(np.linspace(0, 1, 5), np.linspace(0, 1, 5))))
    corpus.append(
        ("cc-3x3-nonuniform",
         crisscross_mesh([0.0, 0.2, 0.5, 1.0], [0.0, 0.35, 0.75, 1.0]))
    )
    corpus.append(
        ("cc-2x2-wide", crisscross_mesh(np.linspace(-1, 1, 3), np.linspace(-1, 1, 3)))
    )
    for n, seed in ((8, 101), (9, 202), (10, 303), (11, 404), (12, 505)):
        corpus.append((f"rim-{n}", delaunay_rim_mesh(n, seed)))
    corpus.append(("kuhn-cube", kuhn_cube_mesh()))
    corpus.append(("single-tri", single_triangle()))
    corpus.append(("square-2tri", square_two_triangles()))
    return corpus


# ---------------------------------------------------------------------------
# CPWL instance generators (piece-list form)
# ---------------------------------------------------------------------------


def random_max_affine(d: int, m: int, rng: np.random.Generator) -> CpwlPieces:
    """Max of ``m`` random affine functions; every piece active in the box.

    Pieces are tangents ``2 p_i . x - |p_i|^2`` of the paraboloid at sites
    inside the box, so piece ``i`` is active on the Voronoi cell of ``p_i``
    and the "all pieces active" property holds by construction.
    """
    while True:
        P = rng.uniform(-0.8, 0.8, size=(m, d))
        gaps = np.linalg.norm(P[:, None, :] - P[None, :, :], axis=2) + np.eye(m)
        if np.min(gaps) > 0.2:
            break
    A = 2.0 * P
    c = -np.sum(P * P, axis=1)
    X = rng.uniform(-1.0, 1.0, size=(4000, d))
    act = np.argmax(X @ A.T + c, axis=1)
    assert len(np.unique(act)) == m
    pieces = [AffineFunc(A[i], float(c[i])) for i in range(m)]
    regions = []
    for i in range(m):
        rows = np.delete(A, i, axis=0) - A[i]
        rhs = c[i] - np.delete(c, i)
        regions.append((rows, rhs))
    box = (-np.ones(d), np.ones(d))
    return CpwlPieces(d, pieces, regions, box)


def random_zigzag(
    m: int, rng: np.random.Generator, lo: float = -1.0, hi: float = 1.0
) -> CpwlPieces:
    """1D CPWL with ``m`` pieces on [lo, hi], distinct slopes."""
    while True:
        slopes = rng.normal(size=m) * 2.0
        if np.min(np.abs(np.subtract.outer(slopes, slopes) + np.eye(m))) > 1e-3:
            break
    span = hi - lo
    while True:
        bp = np.sort(rng.uniform(lo, hi, m - 1))
        gaps = np.diff(np.concatenate([[lo], bp, [hi]]))
        if np.min(gaps) > 0.025 * span:
            break
    knots = np.concatenate([[lo], bp, [hi]])
    v = float(rng.normal())
    pieces, regions = [], []
    for i in range(m):
        k = float(slopes[i])
        pieces.append(AffineFunc(np.array([k]), v - k * knots[i]))
        regions.append(
            (np.array([[-1.0], [1.0]]), np.array([-knots[i], knots[i + 1]]))
        )
        v = v + k * (knots[i + 1] - knots[i])
    return CpwlPieces(1, pieces, regions, (np.array([lo]), np.array([hi])))


def random_path_instance(m: int, rng: np.random.Generator) -> CpwlPieces:
    """Zigzag on [0, 1] whose first line strictly dominates the last at 0 and 1.

    Requires ``m >= 3``: with two pieces the lines meet at the interface
    knot inside (0, 1), so the first cannot dominate at both endpoints.
    """
    if m < 3:
        raise ValueError("endpoint domination needs at least 3 pieces")
    while True:
        f = random_zigzag(m, rng, lo=0.0, hi=1.0)
        first, last = f.pieces[0], f.pieces[-1]
        at0 = first.offset - last.offset
        at1 = (first.gradient[0] + first.offset) - (last.gradient[0] + last.offset)
        if at0 > 1e-6 and at1 > 1e-6:
            return f


def random_fan(m: int, rng: np.random.Generator, tries: int = 500) -> CpwlPieces:
    """Positively homogeneous 2D CPWL on ``m`` cones — generically non-convex."""
    for _ in range(tries):
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, m))
        gaps = np.diff(np.append(ang, ang[0] + 2.0 * np.pi))
        if np.min(gaps) < 0.3 or np.max(gaps) > np.pi - 0.1:
            continue
        rays = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        y = rng.normal(size=m)
        pieces, regions = [], []
        ok = True
        for i in range(m):
            j = (i + 1) % m
            M = np.stack([rays[i], rays[j]])
            try:
                g = np.linalg.solve(M, np.array([y[i], y[j]]))
            except np.linalg.LinAlgError:
                ok = False
                break
            pieces.append(AffineFunc(g, 0.0))
            a, b = ang[i], ang[i] + gaps[i]
            n_a = np.array([np.sin(a), -np.cos(a)])
            n_b = np.array([-np.sin(b), np.cos(b)])
            regions.append((np.stack([n_a, n_b]), np.zeros(2)))
        if not ok:
            continue
        try:
            return CpwlPieces(
                2, pieces, regions, (-np.ones(2), np.ones(2))
            )
        except Exception:
            continue
    raise RuntimeError("no valid fan instance")


def cpwl_suite(seed: int = 0) -> list[tuple[str, CpwlPieces]]:
    """Ten deterministic small instances, d <= 2 and m <= 5."""
    rng = np.random.default_rng(seed)
    out: list[tuple[str, CpwlPieces]] = []
    for d, m in ((1, 3), (1, 5), (2, 3), (2, 5)):
        out.append((f"maxaffine-d{d}m{m}", random_max_affine(d, m, rng)))
    for m in (3, 4, 5):
        out.append((f"fan-m{m}", random_fan(m, rng)))
    for m in (3, 4, 5):
        out.append((f"zigzag-m{m}", random_zigzag(m, rng)))
    return out


# ---------------------------------------------------------------------------
# Networks
# ---------------------------------------------------------------------------


def net_per_compile_path(rng: np.random.Generator) -> dict[str, ReluNetwork]:
    """One small 2D network from each compile path, keyed by path."""
    mesh = crisscross_mesh(np.linspace(0, 1, 3), np.linspace(0, 1, 3))
    coeffs = rng.normal(size=mesh.num_vertices)
    f = random_max_affine(2, 4, rng)
    pieces = [AffineFunc(rng.normal(size=2), float(rng.normal())) for _ in range(4)]
    lat = LatticeForm(pieces, [(0, 1, 2), (1, 3), (2,)])
    return {
        "fem-deep": compile_fem_deep(mesh, coeffs)[0],
        "fem-shallow": compile_fem_shallow(mesh, coeffs)[0],
        "cpwl-shallow": compile_cpwl_shallow(f, rng)[0],
        "lattice-shallow": compile_lattice_shallow(lat)[0],
        "max-of-m": compile_max_of_m(
            [affine_network(rng.normal(size=2), 0.0) for _ in range(3)]
        )[0],
    }


def network_digest(net: ReluNetwork) -> str:
    """SHA-256 over every layer's CSR indptr, indices, data and bias."""
    h = hashlib.sha256()
    for W, b in net.layers:
        for a in (W.indptr, W.indices, W.data, b):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def b64_array(field: str, values) -> str:
    """``values`` as a schema-"3" buffer of the layer array ``field``."""
    raw = np.asarray(values, dtype=ARRAY_DTYPES[field]).tobytes()
    return base64.b64encode(raw).decode("ascii")


def layer_array(layer: dict, field: str) -> np.ndarray:
    """The array ``field`` of a schema-"3" layer dict, decoded on a copy."""
    return np.frombuffer(base64.b64decode(layer[field]), ARRAY_DTYPES[field]).copy()
