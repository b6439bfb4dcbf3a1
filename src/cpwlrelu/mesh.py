"""Conforming simplicial meshes and piecewise-linear nodal interpolation.

A mesh is a list of vertices in R^d plus a list of d-simplices given by
vertex indices.  Loading or building a mesh can run a conformity check:
simplices must be non-degenerate, pairwise non-overlapping in their
interiors, and no vertex may lie inside or on a simplex it is not part of
(no hanging nodes).  Every geometric test reads the stored barycentric
transforms (``bary_inverse``): a point is on an element when its
coordinates there are all ``>= -BARY_TOL``, and two elements are disjoint
when, for some facet of one, every vertex of the other has that facet's
coordinate ``<= BARY_TOL``.  A linear program decides only the pairs that
no facet separates; on a conforming mesh these occur only for d >= 3,
where two elements can be separated along a pair of edges.

The module also provides the local objects the network compiler consumes:
the star of a vertex (its incident simplices together with the affine
function that matches the nodal hat function on each of them), a local
convexity test for stars, volume-weighted uniform sampling, and the mesh
quality numbers (maximum vertex valence, shape regularity).
"""

from __future__ import annotations

import json
import logging
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray
from scipy.optimize import linprog

from .cpwl import AffineFunc
from .errors import DegenerateSimplex, NonConforming, OutsideDomain, SingularSystem, as_int

logger = logging.getLogger(__name__)

#: Weak membership slack for barycentric coordinates.
BARY_TOL = 1e-10
#: Non-degeneracy threshold on the homogeneous vertex-matrix determinant.
DEGENERACY_TOL = 1e-12
#: Residual bound for the local affine interpolation solves.
INTERP_RESIDUAL_TOL = 1e-12

MESH_SCHEMA_VERSION = "1"


@dataclass
class SimplicialMesh:
    """A conforming simplicial mesh with precomputed barycentric transforms.

    Attributes:
        dim: Ambient (= element) dimension ``d``.
        vertices: Vertex coordinates, shape ``(n, d)``.
        simplices: Vertex indices per element, shape ``(m, d+1)``.
        boundary_vertices: Sorted indices of vertices on the domain boundary
            (vertices of facets belonging to exactly one element).
        bary_inverse: Stacked inverses of the homogeneous vertex matrices,
            shape ``(m, d+1, d+1)``; barycentric coordinates of ``x`` in
            element ``k`` are ``bary_inverse[k] @ [x, 1]``.
        volumes: Element volumes, shape ``(m,)``.
        vertex_to_simplices: For each vertex, the sorted indices of elements
            containing it.
    """

    dim: int
    vertices: NDArray[np.float64]
    simplices: NDArray[np.int64]
    boundary_vertices: NDArray[np.int64]
    bary_inverse: NDArray[np.float64]
    volumes: NDArray[np.float64]
    vertex_to_simplices: list[tuple[int, ...]] = field(repr=False)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_simplices(self) -> int:
        return self.simplices.shape[0]

    @property
    def interior_vertices(self) -> NDArray[np.int64]:
        mask = np.ones(self.num_vertices, dtype=bool)
        mask[self.boundary_vertices] = False
        return np.nonzero(mask)[0]

    def barycentric(self, k: int, X: NDArray[np.float64]) -> NDArray[np.float64]:
        """Barycentric coordinates of points ``X`` (n, d) in element ``k``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        hom = np.hstack([X, np.ones((X.shape[0], 1))])
        return hom @ self.bary_inverse[k].T

    def contains(self, k: int, X: NDArray[np.float64], tol: float = BARY_TOL) -> NDArray[np.bool_]:
        """Weak membership of points in the closed element ``k``."""
        lam = self.barycentric(k, X)
        return np.all(lam >= -tol, axis=1)


@dataclass
class VertexStar:
    """The star of a mesh vertex, with the per-element hat-function affines.

    Attributes:
        center: The vertex index.
        incident: Sorted indices of elements containing the vertex.
        local_affines: For each incident element, the affine function that
            equals 1 at the center vertex and 0 at the element's other
            vertices (parallel lists with ``incident``).
    """

    center: int
    incident: tuple[int, ...]
    local_affines: list[AffineFunc]


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def _facets(simplex: NDArray[np.int64]) -> list[frozenset[int]]:
    """All (d-1)-faces of a simplex, as frozensets of vertex indices."""
    verts = [int(v) for v in simplex]
    return [frozenset(verts[:i] + verts[i + 1 :]) for i in range(len(verts))]


def _check_no_interior_overlap(mesh: SimplicialMesh, k1: int, k2: int) -> None:
    """Raises NonConforming if elements k1, k2 share interior points.

    A linear program maximizes eps subject to all barycentric coordinates
    of a common point being >= eps in both elements: a positive optimum
    means a common interior point.
    """
    d = mesh.dim
    B = mesh.bary_inverse[[k1, k2]].reshape(2 * d + 2, d + 1)  # lam_j(x) = B[j, :d] @ x + B[j, d]
    res = linprog(
        c=np.concatenate([np.zeros(d), [-1.0]]),
        A_ub=np.hstack([-B[:, :d], np.ones((2 * d + 2, 1))]),
        b_ub=B[:, d],
        bounds=[(None, None)] * (d + 1),
        method="highs",
    )
    if res.status == 0 and res.x is not None and res.x[-1] > BARY_TOL:
        raise NonConforming(
            f"elements {k1} and {k2} overlap in their interiors "
            f"(joint slack {res.x[-1]:.3e})"
        )


def _check_conformity(mesh: SimplicialMesh) -> None:
    """Raises NonConforming on a hanging node or an interior overlap.

    Each element is tested against the later ones (in the order of the
    boxes' lower x-bounds) whose bounding boxes meet its own, each box
    padded by ``(d+1) BARY_TOL extent + BARY_TOL`` so that it holds every
    point with all coordinates ``>= -BARY_TOL``.  A facet-separated pair
    needs no linear program: its optimum is ``<= BARY_TOL`` as well.
    """
    d, S, B = mesh.dim, mesh.simplices, mesh.bary_inverse
    hom = np.hstack([mesh.vertices, np.ones((mesh.num_vertices, 1))])[S]  # (m, d+1, d+1)
    lo, hi = hom[:, :, :d].min(axis=1), hom[:, :, :d].max(axis=1)
    pad = (d + 1) * BARY_TOL * (hi - lo).max(axis=1, keepdims=True) + BARY_TOL
    lo, hi = lo - pad, hi + pad
    order = np.argsort(lo[:, 0], kind="stable")
    ends = np.searchsorted(lo[order, 0], hi[order, 0], side="right")
    for p, k in enumerate(order):
        ls = order[p + 1 : ends[p]]
        ls = ls[np.all((lo[ls] <= hi[k]) & (hi[ls] >= lo[k]), axis=1)]
        # lam_lk[c, a, i]: coordinate i in k of vertex a of ls[c]; lam_kl the reverse.
        lam_lk = hom[ls] @ B[k].T
        lam_kl = hom[k] @ B[ls].transpose(0, 2, 1)
        shared = S[ls][:, :, None] == S[k][None, None, :]
        on_k = ~shared.any(axis=2) & np.all(lam_lk >= -BARY_TOL, axis=2)
        on_l = ~shared.any(axis=1) & np.all(lam_kl >= -BARY_TOL, axis=2)
        hanging = np.argwhere(on_k | on_l)
        if hanging.size:
            c, a = hanging[0]
            v, host = (S[ls[c], a], k) if on_k[c, a] else (S[k, a], ls[c])
            raise NonConforming(
                f"vertex {v} lies on or inside element {host} without being one of its vertices"
            )
        apart = np.any(np.all(lam_lk <= BARY_TOL, axis=1), axis=1)
        apart |= np.any(np.all(lam_kl <= BARY_TOL, axis=1), axis=1)
        for l in ls[~apart]:
            _check_no_interior_overlap(mesh, int(k), int(l))


def build_mesh(
    vertices: NDArray[np.float64],
    simplices: NDArray[np.int64],
    validate: bool = True,
) -> SimplicialMesh:
    """Builds a mesh, precomputing transforms and optionally validating it.

    Always checked: finite coordinates, index bounds, repeated vertices
    within an element, element non-degeneracy, duplicate elements.  With
    ``validate=True``, additionally: no vertex inside or on a foreign
    element (hanging nodes) and pairwise disjoint element interiors, both
    read from the barycentric coordinates of each element's vertices in the
    elements whose bounding boxes meet its own; a linear program decides
    only pairs that no facet separates.

    Args:
        vertices: Coordinates, shape ``(n, d)`` (a 1D array is treated as
            ``(n, 1)``).
        simplices: Vertex index array of shape ``(m, d+1)``.
        validate: Run the full conformity check.

    Returns:
        The constructed mesh.

    Raises:
        ValueError: If a coordinate is NaN or infinite, or the element
            width does not match the dimension.
        DegenerateSimplex: If an element has (near-)zero volume.
        NonConforming: If the conformity check fails.
    """
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim == 1:
        vertices = vertices[:, None]
    simplices = np.asarray(simplices, dtype=np.int64)
    if simplices.ndim == 1:
        simplices = simplices[None, :]
    n, d = vertices.shape
    m, dd = simplices.shape
    if not np.all(np.isfinite(vertices)):
        raise ValueError("vertex coordinates must be finite")
    if dd != d + 1:
        raise ValueError(f"elements of a {d}-dimensional mesh need {d + 1} vertices")
    if simplices.min() < 0 or simplices.max() >= n:
        raise NonConforming("element refers to a vertex index out of range")
    for k in range(m):
        if len(set(int(v) for v in simplices[k])) != d + 1:
            raise NonConforming(f"element {k} repeats a vertex")

    # Homogeneous vertex matrices (columns are vertices), their inverses and volumes.
    A = np.concatenate([vertices[simplices].transpose(0, 2, 1), np.ones((m, 1, d + 1))], axis=1)
    det = np.abs(np.linalg.det(A))
    bad = np.flatnonzero(det < DEGENERACY_TOL)
    if bad.size:
        raise DegenerateSimplex(
            f"element {bad[0]} has volume ~ {det[bad[0]] / math.factorial(d):.3e}"
        )
    bary_inverse = np.linalg.inv(A)
    volumes = det / math.factorial(d)

    keys = [frozenset(int(v) for v in simplices[k]) for k in range(m)]
    if len(set(keys)) != m:
        raise NonConforming("duplicate elements")

    # Boundary vertices from facets used by exactly one element.
    facet_count = Counter(f for k in range(m) for f in _facets(simplices[k]))
    if any(cnt > 2 for cnt in facet_count.values()):
        raise NonConforming("a facet is shared by more than two elements")
    boundary: set[int] = set()
    for f, cnt in facet_count.items():
        if cnt == 1:
            boundary |= f

    v2s: list[list[int]] = [[] for _ in range(n)]
    for k in range(m):
        for v in simplices[k]:
            v2s[int(v)].append(k)
    vertex_to_simplices = [tuple(sorted(s)) for s in v2s]
    if any(not s for s in vertex_to_simplices):
        raise NonConforming("mesh has an unused vertex")

    mesh = SimplicialMesh(
        dim=d,
        vertices=vertices,
        simplices=simplices,
        boundary_vertices=np.array(sorted(boundary), dtype=np.int64),
        bary_inverse=bary_inverse,
        volumes=volumes,
        vertex_to_simplices=vertex_to_simplices,
    )

    if validate:
        _check_conformity(mesh)
        logger.debug("mesh validated: %d vertices, %d elements, d=%d", n, m, d)

    return mesh


# ---------------------------------------------------------------------------
# Stars, convexity, quality numbers
# ---------------------------------------------------------------------------


def vertex_star(mesh: SimplicialMesh, i: int) -> VertexStar:
    """Builds the star of vertex ``i`` with its per-element hat affines.

    On each incident element the returned affine function solves the
    interpolation conditions: value 1 at vertex ``i``, value 0 at the other
    element vertices.

    Raises:
        SingularSystem: If an interpolation solve leaves a residual above
            tolerance (cannot happen on a non-degenerate element).
    """
    incident = mesh.vertex_to_simplices[i]
    affines = []
    for k in incident:
        verts = mesh.simplices[k]
        M = np.hstack([mesh.vertices[verts], np.ones((mesh.dim + 1, 1))])
        rhs = (verts == i).astype(float)
        coef = np.linalg.solve(M, rhs)
        resid = float(np.max(np.abs(M @ coef - rhs)))
        if resid > INTERP_RESIDUAL_TOL:
            raise SingularSystem(
                f"interpolation residual {resid:.3e} on element {k} at vertex {i}"
            )
        affines.append(AffineFunc(coef[:-1], float(coef[-1])))
    return VertexStar(center=i, incident=incident, local_affines=affines)


def is_locally_convex(mesh: SimplicialMesh, i: int, tol: float = BARY_TOL) -> bool:
    """Tests whether the star of vertex ``i`` is a convex set.

    The star is star-shaped, so it is convex exactly when every boundary
    facet of the star (a facet belonging to exactly one incident element)
    supports it.  The facet opposite local vertex ``j`` of element ``k``
    supports the star iff every star vertex has barycentric coordinate
    ``lam_j >= -tol`` in ``k``; ``tol`` is therefore barycentric.
    """
    incident = mesh.vertex_to_simplices[i]
    facet_count = Counter(f for k in incident for f in _facets(mesh.simplices[k]))
    star = np.unique(mesh.simplices[list(incident)])
    hom = np.hstack([mesh.vertices[star], np.ones((star.size, 1))])
    for k in incident:
        lam_min = (hom @ mesh.bary_inverse[k].T).min(axis=0)
        for f, lam_j in zip(_facets(mesh.simplices[k]), lam_min):
            if facet_count[f] == 1 and lam_j < -tol:
                return False
    return True


def compute_kh(mesh: SimplicialMesh) -> int:
    """Maximum number of elements meeting at a single vertex."""
    return max(len(s) for s in mesh.vertex_to_simplices)


def _circumradius(V: NDArray[np.float64]) -> float:
    """Circumradius of the simplex with vertex rows ``V`` ((d+1, d))."""
    v0 = V[0]
    E = V[1:] - v0  # (d, d)
    # Solve 2 (v_j - v_0) . x = |v_j|^2 - |v_0|^2 for the circumcenter x.
    center = np.linalg.solve(2.0 * E, np.sum(V[1:] ** 2, axis=1) - np.sum(v0**2))
    return float(np.linalg.norm(center - v0))


def _facet_measure(P: NDArray[np.float64]) -> float:
    """(d-1)-volume of the facet with vertex rows ``P`` ((d, d)).

    A single point (d = 1) has measure 1, which makes the inradius formula
    ``r = d V / sum(facet measures)`` reduce to the half-length in 1D.
    """
    q = P.shape[0] - 1
    if q == 0:
        return 1.0
    E = P[1:] - P[0]
    G = E @ E.T
    return math.sqrt(max(float(np.linalg.det(G)), 0.0)) / math.factorial(q)


def shape_regularity(mesh: SimplicialMesh) -> float:
    """Minimum inradius/circumradius ratio over all elements.

    Inradius is ``d V / sum(facet measures)``; the circumcenter solves the
    equal-distance linear system.  For 1D meshes both radii equal the
    half-length, so the result is exactly 1.0.
    """
    best = np.inf
    for k in range(mesh.num_simplices):
        V = mesh.vertices[mesh.simplices[k]]
        facets_sum = sum(
            _facet_measure(np.delete(V, j, axis=0)) for j in range(mesh.dim + 1)
        )
        r = mesh.dim * mesh.volumes[k] / facets_sum
        R = _circumradius(V)
        best = min(best, r / R)
    return float(best)


# ---------------------------------------------------------------------------
# Point location, interpolation, sampling
# ---------------------------------------------------------------------------


def find_simplex(mesh: SimplicialMesh, X: NDArray[np.float64], tol: float = BARY_TOL) -> NDArray[np.int64]:
    """Index of a containing element per point (-1 where none contains it)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.full(X.shape[0], -1, dtype=np.int64)
    remaining = np.arange(X.shape[0])
    for k in range(mesh.num_simplices):
        if remaining.size == 0:
            break
        inside = mesh.contains(k, X[remaining], tol)
        hit = remaining[inside]
        out[hit] = k
        remaining = remaining[~inside]
    return out


def interpolate(
    mesh: SimplicialMesh, coeffs: NDArray[np.float64], X: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Evaluates the nodal piecewise-linear interpolant at points ``X``.

    Args:
        mesh: The mesh.
        coeffs: One nodal value per mesh vertex, shape ``(n,)``.
        X: Points, shape ``(q, d)`` (or ``(q,)`` for 1D meshes).

    Returns:
        Values, shape ``(q,)``.

    Raises:
        OutsideDomain: If a point lies in no element.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (mesh.num_vertices,):
        raise ValueError("need one coefficient per mesh vertex")
    X = np.asarray(X, dtype=float)
    if X.ndim == 1 and mesh.dim == 1:
        X = X[:, None]
    X = np.atleast_2d(X)
    ks = find_simplex(mesh, X)
    if np.any(ks < 0):
        bad = X[ks < 0][0]
        raise OutsideDomain(f"point {bad!r} lies outside the mesh")
    hom = np.hstack([X, np.ones((X.shape[0], 1))])
    lam = np.einsum("qij,qj->qi", mesh.bary_inverse[ks], hom)
    return np.einsum("qi,qi->q", lam, coeffs[mesh.simplices[ks]])


def sample_points(
    mesh: SimplicialMesh, n: int, rng: np.random.Generator
) -> NDArray[np.float64]:
    """Samples ``n`` points uniformly from the meshed domain.

    An element is picked with probability proportional to its volume, then a
    point is drawn uniformly inside it via symmetric-Dirichlet barycentric
    weights.
    """
    probs = mesh.volumes / mesh.volumes.sum()
    ks = rng.choice(mesh.num_simplices, size=n, p=probs)
    lam = rng.dirichlet(np.ones(mesh.dim + 1), size=n)
    return np.einsum("qj,qjd->qd", lam, mesh.vertices[mesh.simplices[ks]])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def mesh_to_dict(mesh: SimplicialMesh) -> dict:
    return {
        "schema": MESH_SCHEMA_VERSION,
        "dim": mesh.dim,
        "vertices": mesh.vertices.tolist(),
        "simplices": mesh.simplices.tolist(),
        "boundary": mesh.boundary_vertices.tolist(),
    }


def mesh_from_dict(d: dict, validate: bool = True) -> SimplicialMesh:
    """Reads a mesh dict; a malformed dict raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"a mesh must be a JSON object, not {type(d).__name__}")
    if d.get("schema", MESH_SCHEMA_VERSION) != MESH_SCHEMA_VERSION:
        raise ValueError(f"unsupported mesh schema {d.get('schema')!r}")
    try:
        for name in ("vertices", "simplices"):  # numpy's ragged-array error names neither
            width = [len(r) if isinstance(r, (list, tuple)) else -1 for r in d[name]]
            for r, w in enumerate(width):
                if w != width[0]:
                    raise ValueError(f"ragged mesh {name!r}: row {r} is {d[name][r]!r}")
        vertices = np.array(d["vertices"], dtype=float)
        entries = np.array(d["simplices"], dtype=object)
        indices = entries.astype(float)
        given = d.get("boundary")
        if given is not None:
            given = sorted(as_int(v, "boundary vertex") for v in given)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed mesh dict: {exc!r}") from exc
    # Casting straight to int64 would truncate 2.7 to 2, and a float cast
    # reads true as 1, both without a word.
    is_bool = np.vectorize(lambda v: isinstance(v, (bool, np.bool_)), otypes=[bool])
    bad = ~np.isfinite(indices) | (indices != np.round(indices)) | is_bool(entries)
    if bad.any():
        raise ValueError(
            f"mesh simplices must hold integer vertex indices, not {entries[bad][0]!r}"
        )
    mesh = build_mesh(vertices, indices.astype(np.int64), validate=validate)
    if given is not None:
        derived = mesh.boundary_vertices.tolist()
        if given != derived:
            raise NonConforming(
                "stored boundary vertex list disagrees with the mesh topology"
            )
    return mesh


def save_mesh(mesh: SimplicialMesh, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mesh_to_dict(mesh), fh)


def load_mesh(path: str, validate: bool = True) -> SimplicialMesh:
    with open(path, encoding="utf-8") as fh:
        return mesh_from_dict(json.load(fh), validate=validate)
