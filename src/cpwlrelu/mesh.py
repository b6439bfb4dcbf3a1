"""Conforming simplicial meshes and piecewise-linear nodal interpolation.

A mesh is a list of vertices in R^d plus a list of d-simplices given by
vertex indices.  Building a mesh can run a conformity check, and loading
one from a file always does: simplices must be non-degenerate, pairwise
non-overlapping in their interiors, and no vertex may lie inside or on a
simplex it is not part of (no hanging nodes).  Every geometric test reads
the stored barycentric transforms (``bary_inverse``): a point is on an
element when its coordinates there are all ``>= -BARY_TOL``, and two
elements are disjoint when, for some facet of one, every vertex of the
other has that facet's coordinate ``<= BARY_TOL``.  A linear program
decides only the pairs that no facet separates; on a conforming mesh these
occur only for d >= 3, where two elements can be separated along a pair of
edges.

``build_mesh`` computes the mesh's tables once, and the local objects the
network compiler consumes read them: the facet table (``neighbors[k, j]``
is the element across the facet opposite local vertex ``j`` of element
``k``, or -1 on the boundary) gives the boundary and the convexity test of
a vertex star, and row ``j`` of ``bary_inverse[k]`` is the affine of vertex
``j``'s hat function on element ``k``.  ``vertex_stars`` reads the stars
of any list of vertices from these tables in one pass.  The module also
provides the mesh quality numbers (maximum vertex valence, shape
regularity) and volume-weighted uniform sampling.

Points are located (``find_simplex``, under every ``interpolate``) through a
uniform bucket grid over the mesh's bounding box, built per call with at
most one bucket per element.  Each element is listed in every bucket that
its padded bounding box meets, and each point is tested against its own
bucket's list only, in one batched barycentric evaluation.  Where several
elements contain a point (on a shared facet or vertex), the lowest index
wins, as in a scan of the elements in order.  The grid is coarsened until
it lists at most ``LOCATE_ENTRIES_PER_ELEMENT`` entries per element, and
the (point, candidate) pairs are tested in batches of
``LOCATE_CHUNK_PAIRS``, so memory stays O(m + q) for ``q`` points on ``m``
elements, also on meshes of long slivers.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray
from scipy.optimize import linprog

from . import SCHEMA_VERSIONS
from .errors import (
    DegenerateSimplex,
    DimensionMismatch,
    NonConforming,
    OutsideDomain,
    SingularSystem,
    as_int,
)

logger = logging.getLogger(__name__)

#: Weak membership slack for barycentric coordinates.
BARY_TOL = 1e-10
#: Non-degeneracy threshold on the homogeneous vertex-matrix determinant.
DEGENERACY_TOL = 1e-12
#: Residual bound for the hat affines at their element's vertices.
INTERP_RESIDUAL_TOL = 1e-12
#: Bound on the bucket-table entries per element of ``find_simplex``.
LOCATE_ENTRIES_PER_ELEMENT = 32
#: (point, candidate element) pairs ``find_simplex`` tests in one batch.
LOCATE_CHUNK_PAIRS = 1 << 16
#: Offset of the point locator's grid, in buckets: 2 minus the golden ratio.
_GRID_PHASE = (3.0 - math.sqrt(5.0)) / 2.0


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
            element ``k`` are ``bary_inverse[k] @ [x, 1]``, so row ``j`` of
            ``bary_inverse[k]`` is ``[gradient, offset]`` of ``lam_j`` on
            ``k``.
        volumes: Element volumes, shape ``(m,)``.
        neighbors: The element across the facet opposite local vertex ``j``
            of element ``k``, or -1 where that facet is on the boundary,
            shape ``(m, d+1)``.  Derived by :func:`build_mesh`.
    """

    dim: int
    vertices: NDArray[np.float64]
    simplices: NDArray[np.int64]
    boundary_vertices: NDArray[np.int64]
    bary_inverse: NDArray[np.float64]
    volumes: NDArray[np.float64]
    neighbors: NDArray[np.int64]

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


@dataclass
class VertexStar:
    """The star of a mesh vertex, with the per-element hat-function affines.

    Attributes:
        center: The vertex index.
        incident: Sorted indices of elements containing the vertex.
        affine_rows: ``(len(incident), d + 1)`` block; row ``k`` is
            ``[gradient, offset]`` of the affine function on element
            ``incident[k]`` that equals 1 at the center vertex and 0 at the
            element's other vertices.
    """

    center: int
    incident: tuple[int, ...]
    affine_rows: NDArray[np.float64]


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def _row_groups(rows: NDArray[np.int64]) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
    """Each row's group of equal rows, and the group sizes: the inverse and
    the counts of ``np.unique(rows, axis=0)``, from one ``lexsort``."""
    order = np.lexsort(rows.T)
    s = rows[order]
    group = np.empty(len(rows), dtype=np.int64)
    group[order] = np.cumsum(np.r_[True, np.any(s[1:] != s[:-1], axis=1)]) - 1
    return group, np.bincount(group)


def _padded_boxes(
    corners: NDArray[np.float64], tol: float
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Lower and upper corners ``(m, d)`` of the elements' bounding boxes.

    ``corners`` holds each element's vertices, shape ``(m, d+1, d)``.  Each
    box is padded by ``(d+1) tol extent + tol``, so that it holds every
    point whose barycentric coordinates in its element are all ``>= -tol``.
    """
    lo, hi = corners.min(axis=1), corners.max(axis=1)
    pad = corners.shape[1] * tol * (hi - lo).max(axis=1, keepdims=True) + tol
    return lo - pad, hi + pad


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
    boxes' lower x-bounds) whose bounding boxes, padded by
    :func:`_padded_boxes` for ``BARY_TOL``, meet its own.  A
    facet-separated pair needs no linear program: its optimum is
    ``<= BARY_TOL`` as well.
    """
    d, S, B = mesh.dim, mesh.simplices, mesh.bary_inverse
    hom = np.hstack([mesh.vertices, np.ones((mesh.num_vertices, 1))])[S]  # (m, d+1, d+1)
    lo, hi = _padded_boxes(hom[:, :, :d], BARY_TOL)
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
    ordered = np.sort(simplices, axis=1)
    repeats = np.flatnonzero(np.any(ordered[:, 1:] == ordered[:, :-1], axis=1))
    if repeats.size:
        raise NonConforming(f"element {repeats[0]} repeats a vertex")

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

    if len(_row_groups(ordered)[1]) != m:
        raise NonConforming("duplicate elements")

    # The facet table: slot (k, j) holds the sorted facet opposite local vertex j.
    others = np.nonzero(~np.eye(d + 1, dtype=bool))[1].reshape(d + 1, d)
    facets = np.sort(simplices[:, others], axis=2).reshape(m * (d + 1), d)
    facet_id, count = _row_groups(facets)
    if count.max() > 2:
        raise NonConforming("a facet is shared by more than two elements")
    shared = count[facet_id] == 2
    owner = np.repeat(np.arange(m), d + 1)
    owners_sum = np.bincount(facet_id, weights=owner).astype(np.int64)
    neighbors = np.where(shared, owners_sum[facet_id] - owner, -1)

    valence = np.bincount(simplices.ravel(), minlength=n)
    if np.any(valence == 0):
        raise NonConforming("mesh has an unused vertex")

    mesh = SimplicialMesh(
        dim=d,
        vertices=vertices,
        simplices=simplices,
        boundary_vertices=np.unique(facets[~shared]),
        bary_inverse=bary_inverse,
        volumes=volumes,
        neighbors=neighbors.reshape(m, d + 1),
    )

    if validate:
        _check_conformity(mesh)
        logger.debug("mesh validated: %d vertices, %d elements, d=%d", n, m, d)

    return mesh


# ---------------------------------------------------------------------------
# Stars, convexity, quality numbers
# ---------------------------------------------------------------------------


class StarTable(NamedTuple):
    """The stars of a list of vertices, from :func:`vertex_stars`.

    Star ``u`` (of vertex ``centers[u]``) owns the entries ``starts[u]`` to
    ``starts[u + 1]`` of ``incident``, ``affine_rows`` and ``residual``, one
    per element containing the vertex, in element order.
    """

    centers: NDArray[np.int64]
    starts: NDArray[np.int64]
    #: The element of each entry.
    incident: NDArray[np.int64]
    #: ``[gradient, offset]`` of the hat of the star's vertex on that element.
    affine_rows: NDArray[np.float64]
    #: Largest miss of that affine's values 1 at the vertex, 0 at the
    #: element's other vertices.
    residual: NDArray[np.float64]
    #: Per star: every boundary facet of the star supports it.
    convex: NDArray[np.bool_]

    def check_residual(self, u: int) -> None:
        """Raises SingularSystem, naming the element and the vertex, if an
        affine of star ``u`` misses its values by more than
        ``INTERP_RESIDUAL_TOL`` (impossible on a non-degenerate element)."""
        c = self.starts[u] + int(np.argmax(self.residual[self.starts[u] : self.starts[u + 1]]))
        if self.residual[c] > INTERP_RESIDUAL_TOL:
            raise SingularSystem(
                f"interpolation residual {self.residual[c]:.3e} on element "
                f"{self.incident[c]} at vertex {self.centers[u]}"
            )


def vertex_stars(mesh: SimplicialMesh, centers: NDArray[np.int64]) -> StarTable:
    """The stars of ``centers``, their hat affines and convexity, in one pass.

    On each element ``k`` containing vertex ``i`` the hat of ``i`` is its
    barycentric coordinate, so its affine is the row of ``bary_inverse[k]``
    at ``i``'s local index: one stable argsort of ``simplices.ravel()``
    lists those (element, local index) slots vertex by vertex, in element
    order, and the rows are read from ``bary_inverse`` at the slots.

    A star is star-shaped, so it is convex exactly when every boundary
    facet of the star supports it.  Read from the facet table, the star's
    boundary facets are the facets opposite the centre and the facets with
    no neighbour (``neighbors == -1``); every other facet of an element of
    the star is shared with another.  The facet opposite local vertex ``j``
    of element ``k`` supports the star iff every star vertex has
    barycentric coordinate ``lam_j >= -BARY_TOL`` in ``k``; this is tested
    on all (boundary facet, star vertex) pairs at once.
    """
    d, n = mesh.dim, mesh.num_vertices
    centers = np.asarray(centers, dtype=np.int64).reshape(-1)
    flat = mesh.simplices.ravel()
    valence = np.bincount(flat, minlength=n)
    val = valence[centers]
    starts = np.concatenate([[0], np.cumsum(val)])
    owner = np.repeat(np.arange(len(centers)), val)  # the star of each entry
    within = np.arange(starts[-1]) - starts[owner]
    first = np.cumsum(valence) - valence
    slot = np.argsort(flat, kind="stable")[first[centers][owner] + within]
    elem, local = np.divmod(slot, d + 1)
    rows = mesh.bary_inverse.reshape(-1, d + 1)[slot]

    hom = np.concatenate([mesh.vertices, np.ones((n, 1))], axis=1)
    nodal = np.einsum("kac,kc->ka", hom[mesh.simplices[elem]], rows)
    nodal[np.arange(len(slot)), local] -= 1.0
    residual = np.abs(nodal).max(axis=1, initial=0.0)

    # The star's vertices, (star, vertex) pairs sorted by star and vertex.
    pair = np.unique(owner[:, None] * n + mesh.simplices[elem])
    star_of, star_v = np.divmod(pair, n)
    count = np.bincount(star_of, minlength=len(centers))
    # The boundary facets of each star, against each of its vertices.
    fk, fj = np.nonzero(mesh.neighbors[elem] < 0)
    fk, fj = np.concatenate([np.arange(len(slot)), fk]), np.concatenate([local, fj])
    per = count[owner[fk]]
    facet = np.repeat(np.arange(len(fk)), per)
    vert = star_v[
        np.repeat(np.cumsum(count)[owner[fk]] - per, per)
        + np.arange(per.sum())
        - np.repeat(np.cumsum(per) - per, per)
    ]
    lam = mesh.bary_inverse[elem[fk[facet]], fj[facet]]
    lam = np.einsum("pc,pc->p", lam, hom[vert])
    convex = np.ones(len(centers), dtype=bool)
    convex[owner[fk[facet[lam < -BARY_TOL]]]] = False
    return StarTable(centers, starts, elem, rows, residual, convex)


def vertex_star(mesh: SimplicialMesh, i: int) -> VertexStar:
    """The star of vertex ``i`` with its per-element hat affines: the
    :func:`vertex_stars` pass on one vertex.

    Raises:
        SingularSystem: If an affine misses its values 1 at ``i`` and 0 at
            the element's other vertices by more than
            ``INTERP_RESIDUAL_TOL`` (cannot happen on a non-degenerate
            element).
    """
    star = vertex_stars(mesh, [i])
    star.check_residual(0)
    return VertexStar(
        center=i, incident=tuple(star.incident.tolist()), affine_rows=star.affine_rows
    )


def is_locally_convex(mesh: SimplicialMesh, i: int) -> bool:
    """Tests whether the star of vertex ``i`` is a convex set: the
    :func:`vertex_stars` pass on one vertex, whose docstring gives the test."""
    return bool(vertex_stars(mesh, [i]).convex[0])


def compute_kh(mesh: SimplicialMesh) -> int:
    """Maximum number of elements meeting at a single vertex."""
    return int(np.bincount(mesh.simplices.ravel()).max())


def shape_regularity(mesh: SimplicialMesh) -> float:
    """Minimum inradius/circumradius ratio over all elements.

    The inradius is ``1 / sum_j |grad lam_j|``, read from ``bary_inverse``
    (``|grad lam_j|`` is the inverse height over facet ``j``); the
    circumcenter solves the equal-distance linear system.  For 1D meshes
    both radii equal the half-length, so the result is exactly 1.0.
    """
    d = mesh.dim
    r = 1.0 / np.linalg.norm(mesh.bary_inverse[:, :, :d], axis=2).sum(axis=1)
    V = mesh.vertices[mesh.simplices]
    # Solve 2 (v_j - v_0) . x = |v_j|^2 - |v_0|^2 for the circumcenter x.
    sq = np.sum(V**2, axis=2)
    center = np.linalg.solve(2.0 * (V[:, 1:] - V[:, :1]), (sq[:, 1:] - sq[:, :1])[..., None])
    R = np.linalg.norm(center[..., 0] - V[:, 0], axis=1)
    return float(np.min(r / R))


# ---------------------------------------------------------------------------
# Point location, interpolation, sampling
# ---------------------------------------------------------------------------


def _grid_shape(extent: list[float], m: int) -> NDArray[np.int64]:
    """Buckets per axis of a uniform grid over a box of the given extents:
    near-cubic buckets, at most ``m`` of them, at least one per axis.  The
    thinnest axes are cut first, so that a flat box spends its budget on
    the wide axes."""
    shape = np.ones(len(extent), dtype=np.int64)
    budget = float(m)
    axes = sorted(range(len(extent)), key=extent.__getitem__)
    for r, a in enumerate(axes):
        width = (math.prod(extent[b] for b in axes[r:]) / budget) ** (1.0 / (len(axes) - r))
        shape[a] = max(1, int(extent[a] / width))
        budget /= shape[a]
    return shape


class _BucketGrid(NamedTuple):
    """The per-call table of :func:`find_simplex`.

    A uniform grid of ``shape`` buckets of size ``width`` from ``base``
    covers the box ``[lo, hi]`` of the padded element boxes.  ``members``
    lists the elements of each bucket, bucket after bucket (C order) and in
    index order within a bucket; ``load`` holds the lists' lengths.
    """

    lo: NDArray[np.float64]
    hi: NDArray[np.float64]
    base: NDArray[np.float64]
    width: NDArray[np.float64]
    shape: NDArray[np.int64]
    members: NDArray[np.int64]
    load: NDArray[np.int64]


def _bucket_grid(mesh: SimplicialMesh) -> _BucketGrid:
    """Builds the bucket grid of :func:`find_simplex` (see the module docstring)."""
    d, m = mesh.dim, mesh.num_simplices
    lo, hi = _padded_boxes(mesh.vertices[mesh.simplices], BARY_TOL)
    box_lo, box_hi = lo.min(axis=0), hi.max(axis=0)
    buckets = m
    while True:
        shape = _grid_shape((box_hi - box_lo).tolist(), buckets)
        # The grid starts a fraction _GRID_PHASE of a bucket below the box, so
        # that bucket boundaries miss the lines of structured meshes: a box
        # ending on a boundary would spill into the next bucket by its pad.
        width = (box_hi - box_lo) / (shape - _GRID_PHASE)
        base = box_lo - _GRID_PHASE * width
        first = np.minimum(((lo - base) / width).astype(np.int64), shape - 1)
        span = np.minimum(((hi - base) / width).astype(np.int64), shape - 1) - first + 1
        cover = span.prod(axis=1)
        if cover.sum() <= LOCATE_ENTRIES_PER_ELEMENT * m:
            break
        buckets //= 2
    # Entry e lists element owner[e] in the bucket at offset[e] within its
    # box, read as a mixed-radix number with digits span[owner[e]].
    owner = np.repeat(np.arange(m), cover)
    offset = np.arange(owner.size) - np.repeat(np.cumsum(cover) - cover, cover)
    bucket = np.zeros(owner.size, dtype=np.int64)
    for a in range(d):
        bucket = bucket * shape[a] + first[owner, a] + offset % span[owner, a]
        offset //= span[owner, a]
    members = owner[np.argsort(bucket, kind="stable")]
    load = np.bincount(bucket, minlength=int(shape.prod()))
    return _BucketGrid(box_lo, box_hi, base, width, shape, members, load)


def find_simplex(mesh: SimplicialMesh, X: NDArray[np.float64]) -> NDArray[np.int64]:
    """The lowest index of an element containing each point, or -1.

    An element contains ``x`` when all barycentric coordinates of ``x`` in
    it are ``>= -BARY_TOL``.  The points are located through a bucket grid
    (see the module docstring); a batch tests at most ``LOCATE_CHUNK_PAIRS``
    (point, element) pairs, or one point's whole bucket.

    Args:
        mesh: The mesh.
        X: Points, shape ``(q, d)``; a NaN or infinite point lies in no
            element.

    Returns:
        Element indices, shape ``(q,)``.

    Raises:
        DimensionMismatch: If the points are not ``d``-dimensional.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    q, d = X.shape[0], mesh.dim
    if X.ndim != 2 or X.shape[1] != d:
        raise DimensionMismatch(
            f"mesh expects points of dimension {d}, got points of shape {X.shape}"
        )
    g = _bucket_grid(mesh)

    # Each point's bucket; a point outside the grid's box (or NaN) has no
    # candidates, and its coordinates are never computed with.
    XT = np.ascontiguousarray(X.T)
    inside = np.all((XT >= g.lo[:, None]) & (XT <= g.hi[:, None]), axis=0)
    cell = (np.where(inside, XT, g.lo[:, None]) - g.base[:, None]) / g.width[:, None]
    own = np.ravel_multi_index(np.minimum(cell.astype(np.int64), g.shape[:, None] - 1), g.shape)
    count = np.where(inside, g.load[own], 0)
    ends = np.cumsum(count)  # pairs of the points up to and including each
    shift = (np.cumsum(g.load) - g.load)[own] - (ends - count)
    # BT[c, j, k]: entry (j, c) of bary_inverse[k], so that the coordinates
    # of a batch are d multiply-adds of contiguous rows.
    BT = np.ascontiguousarray(mesh.bary_inverse.transpose(2, 1, 0))
    out = np.full(q, -1, dtype=np.int64)
    done = 0
    while done < q:
        first_pair = ends[done] - count[done]
        stop = max(done + 1, int(np.searchsorted(ends, first_pair + LOCATE_CHUNK_PAIRS, "right")))
        c = count[done:stop]
        pair_pt = np.repeat(np.arange(done, stop), c)
        k = g.members.take(np.repeat(shift[done:stop], c) + np.arange(first_pair, ends[stop - 1]))
        Bk = BT.take(k, axis=2)
        lam = Bk[d]  # lam[j, p]: coordinate j of the pair's point in the pair's element
        for a in range(d):
            lam += Bk[a] * np.repeat(XT[a, done:stop], c)
        hit = np.flatnonzero(np.all(lam >= -BARY_TOL, axis=0))
        # A point's pairs run in index order, so its first hit is the lowest.
        p = pair_pt[hit]
        lowest = np.ones(p.size, dtype=bool)
        lowest[1:] = p[1:] != p[:-1]
        out[p[lowest]] = k[hit[lowest]]
        done = stop
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
        DimensionMismatch: If the points are not ``d``-dimensional.
        OutsideDomain: If a point lies in no element (also a NaN or
            infinite point).
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
        "schema": SCHEMA_VERSIONS["mesh"],
        "dim": mesh.dim,
        "vertices": mesh.vertices.tolist(),
        "simplices": mesh.simplices.tolist(),
        "boundary": mesh.boundary_vertices.tolist(),
    }


def mesh_from_dict(d: dict) -> SimplicialMesh:
    """Reads and validates a mesh dict; a malformed dict raises ValueError,
    and a non-conforming mesh NonConforming."""
    if not isinstance(d, dict):
        raise ValueError(f"a mesh must be a JSON object, not {type(d).__name__}")
    if d.get("schema", SCHEMA_VERSIONS["mesh"]) != SCHEMA_VERSIONS["mesh"]:
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
    mesh = build_mesh(vertices, indices.astype(np.int64))
    if given is not None:
        derived = mesh.boundary_vertices.tolist()
        if given != derived:
            raise NonConforming(
                "stored boundary vertex list disagrees with the mesh topology"
            )
    return mesh


def save_mesh(mesh: SimplicialMesh, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(mesh_to_dict(mesh)))


def load_mesh(path: str) -> SimplicialMesh:
    with open(path, encoding="utf-8") as fh:
        return mesh_from_dict(json.load(fh))
