"""Continuous piecewise-linear (CPWL) functions and their lattice forms.

A CPWL function can be described two ways here:

* :class:`CpwlPieces` — an explicit list of affine pieces together with one
  convex polyhedral region per piece (half-space intersections) covering a
  box domain.
* :class:`LatticeForm` — a max-of-mins expression ``max_k min_{i in s_k} l_i``
  over a shared list of affine functions, with one index clause ``s_k`` per
  max argument.

The module constructs lattice forms from piece lists along two routes:

* via the partition of the domain into unique-order cells (cells of the
  arrangement of all pairwise difference hyperplanes, on which the value
  ordering of the pieces is constant), and
* directly from the convex piece regions, certifying clause membership at
  the region's polytope vertices.

Both routes, :func:`eval_pieces`, :func:`eval_lattice` and
:meth:`CpwlPieces.validate` evaluate through one batched pair of primitives:
the ``(n, m)`` matrix of all piece values at ``n`` points and the ``(n, R)``
boolean matrix of region membership.  ``validate`` samples the domain box and
checks that every sample lies in some region and that all regions containing
it give the same value.

It also provides the 1D separating-line witness used to justify the
lattice construction, plus polygon/polytope helpers for dimensions 1 and 2.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from . import SCHEMA_VERSIONS
from .errors import (
    AmbiguousActivePiece,
    DimensionUnsupported,
    DuplicatePieces,
    OutsideDomain,
    PreconditionViolated,
    UnboundedRegionUnsupported,
    as_int,
)

logger = logging.getLogger(__name__)

#: Tolerance for half-space membership and geometric predicates.
GEOM_TOL = 1e-10
#: Two affine pieces are considered identical if all parameters differ by
#: less than this, and polygon cells below this area are dropped.
DISTINCT_TOL = 1e-12
AREA_TOL = 1e-12


# ---------------------------------------------------------------------------
# Affine functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineFunc:
    """An affine function ``x -> gradient . x + offset`` on R^d.

    Attributes:
        gradient: Coefficient vector of shape ``(d,)``.
        offset: Constant term.
    """

    gradient: NDArray[np.float64]
    offset: float

    def __post_init__(self) -> None:
        g = np.atleast_1d(np.asarray(self.gradient, dtype=float))
        object.__setattr__(self, "gradient", g)
        object.__setattr__(self, "offset", float(self.offset))
        if not np.all(np.isfinite(g)) or not math.isfinite(self.offset):
            raise ValueError("affine function has non-finite parameters")

    @property
    def dim(self) -> int:
        return self.gradient.shape[0]

    def __call__(self, x: NDArray[np.float64]) -> NDArray[np.float64] | float:
        """Evaluates at a point ``(d,)`` or batch ``(n, d)`` of points."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(x @ self.gradient + self.offset)
        return x @ self.gradient + self.offset


def _piece_values(pieces: list[AffineFunc], X: NDArray[np.float64]) -> NDArray[np.float64]:
    """Values of every piece at every point: the ``(n, m)`` matrix ``X @ G.T + b``."""
    G = np.array([p.gradient for p in pieces])
    b = np.array([p.offset for p in pieces])
    return X @ G.T + b


def affines_close(p: AffineFunc, q: AffineFunc, tol: float = DISTINCT_TOL) -> bool:
    """True if two affine functions agree componentwise within ``tol``."""
    return bool(
        np.all(np.abs(p.gradient - q.gradient) < tol)
        and abs(p.offset - q.offset) < tol
    )


def check_distinct(pieces: list[AffineFunc], tol: float = DISTINCT_TOL) -> None:
    """Raises DuplicatePieces if any two pieces coincide within ``tol``."""
    for i, j in itertools.combinations(range(len(pieces)), 2):
        if affines_close(pieces[i], pieces[j], tol):
            raise DuplicatePieces(f"pieces {i} and {j} coincide within {tol}")


# ---------------------------------------------------------------------------
# Polyhedra helpers (half-space intersections A x <= c)
# ---------------------------------------------------------------------------


def as_halfspaces(A: NDArray[np.float64], c: NDArray[np.float64]) -> tuple[NDArray, NDArray]:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if A.shape[0] != c.shape[0]:
        raise ValueError("half-space matrix and offsets disagree in length")
    return A, c


def box_halfspaces(lo: NDArray, hi: NDArray) -> tuple[NDArray, NDArray]:
    """Half-space form of the box ``lo <= x <= hi``."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    d = lo.shape[0]
    A = np.vstack([np.eye(d), -np.eye(d)])
    c = np.concatenate([hi, -lo])
    return A, c


def polytope_vertices(
    A: NDArray[np.float64], c: NDArray[np.float64], tol: float = GEOM_TOL
) -> NDArray[np.float64]:
    """Enumerates vertices of the polytope ``{x : A x <= c}``.

    Candidate vertices are intersections of ``d`` of the bounding
    hyperplanes, kept when they satisfy all inequalities within ``tol``.
    Near-duplicate vertices are merged.

    Args:
        A: Half-space normals, shape ``(k, d)``.
        c: Half-space offsets, shape ``(k,)``.
        tol: Feasibility slack.

    Returns:
        Array of vertices, shape ``(v, d)`` (possibly empty).
    """
    A, c = as_halfspaces(A, c)
    k, d = A.shape
    verts: list[NDArray] = []
    for rows in itertools.combinations(range(k), d):
        M = A[list(rows)]
        rhs = c[list(rows)]
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        x = np.linalg.solve(M, rhs)
        if np.all(A @ x <= c + tol):
            verts.append(x)
    if not verts:
        return np.empty((0, d))
    out: list[NDArray] = []
    for v in verts:
        if not any(np.linalg.norm(v - w) < 1e-9 for w in out):
            out.append(v)
    return np.array(out)


def clip_polygon(
    poly: NDArray[np.float64], normal: NDArray[np.float64], offset: float
) -> NDArray[np.float64]:
    """Clips a convex polygon against the half-plane ``normal . x <= offset``.

    Uses Sutherland-Hodgman on the vertex loop.  Returns the clipped
    polygon's vertices (possibly empty).
    """
    if poly.shape[0] == 0:
        return poly
    out: list[NDArray] = []
    n = poly.shape[0]
    vals = poly @ normal - offset
    for i in range(n):
        j = (i + 1) % n
        vi, vj = vals[i], vals[j]
        if vi <= 0:
            out.append(poly[i])
        if (vi < 0 < vj) or (vj < 0 < vi):
            t = vi / (vi - vj)
            out.append(poly[i] + t * (poly[j] - poly[i]))
    if not out:
        return np.empty((0, poly.shape[1]))
    return np.array(out)


def polygon_area(poly: NDArray[np.float64]) -> float:
    """Area of a 2D polygon by the shoelace formula (vertices in loop order)."""
    if poly.shape[0] < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


# ---------------------------------------------------------------------------
# CPWL piece lists
# ---------------------------------------------------------------------------


@dataclass
class CpwlPieces:
    """A CPWL function given by affine pieces on convex polyhedral regions.

    Attributes:
        dim: Ambient dimension ``d``.
        pieces: Distinct affine pieces, one per region.
        regions: Convex regions as half-space pairs ``(A, c)`` meaning
            ``A x <= c``; ``regions[i]`` is where ``pieces[i]`` is active.
        domain_box: Pair ``(lo, hi)`` bounding the domain, or ``None`` for
            all of R^d (regions must then cover R^d).
    """

    dim: int
    pieces: list[AffineFunc]
    regions: list[tuple[NDArray, NDArray]]
    domain_box: tuple[NDArray, NDArray] | None = None

    def __post_init__(self) -> None:
        if len(self.pieces) != len(self.regions):
            raise ValueError("need exactly one region per piece")
        if not self.pieces:
            raise ValueError("need at least one piece")
        for p in self.pieces:
            if p.dim != self.dim:
                raise ValueError("piece dimension disagrees with dim")
        check_distinct(self.pieces)
        self.regions = [as_halfspaces(A, c) for A, c in self.regions]
        for k, (A, _) in enumerate(self.regions):
            if A.shape[1] != self.dim:
                raise ValueError(
                    f"region {k} normals have {A.shape[1]} entries, not dim = {self.dim}"
                )
        if self.domain_box is not None:
            lo = np.atleast_1d(np.asarray(self.domain_box[0], dtype=float))
            hi = np.atleast_1d(np.asarray(self.domain_box[1], dtype=float))
            if lo.shape[0] != self.dim or np.any(hi <= lo):
                raise ValueError("invalid domain box")
            self.domain_box = (lo, hi)

    @property
    def num_pieces(self) -> int:
        return len(self.pieces)

    def __call__(self, X: NDArray[np.float64]) -> NDArray[np.float64] | float:
        single = np.asarray(X).ndim == 1
        X2 = np.atleast_2d(np.asarray(X, dtype=float))
        vals = eval_pieces(self, X2)
        return float(vals[0]) if single else vals

    def sample_domain(self, n: int, rng: np.random.Generator) -> NDArray:
        """Uniform random points in the domain box."""
        if self.domain_box is None:
            raise OutsideDomain("cannot sample an unbounded domain; set a domain box")
        lo, hi = self.domain_box
        return rng.uniform(lo, hi, size=(n, self.dim))

    def validate(self, rng: np.random.Generator, samples: int = 2000) -> None:
        """Sampling check that regions cover the domain and values are continuous.

        ``samples`` uniform points of the domain box are drawn.  Every one
        must belong to at least one region (weak inequalities within
        ``GEOM_TOL``), and the pieces of all regions containing it must agree
        within 1e-8 (which is how overlapping interiors surface).  The first
        failing point in sample order is reported.  All points are checked
        in one batch, so memory is ``samples x (pieces + regions)`` entries.

        Raises:
            OutsideDomain: If a point lies in no region.
            ValueError: If the containing pieces disagree at a point.
        """
        X = self.sample_domain(samples, rng)
        P = _piece_values(self.pieces, X)
        inside = _membership(self, X)
        covered = inside.any(axis=1)
        spread = (np.where(inside, P, -np.inf).max(axis=1)
                  - np.where(inside, P, np.inf).min(axis=1))
        bad = np.flatnonzero(~covered | (spread > 1e-8))
        if bad.size:
            i = bad[0]
            if not covered[i]:
                raise OutsideDomain(f"regions do not cover domain point {X[i]!r}")
            raise ValueError(
                f"pieces disagree at {X[i]!r}: values {P[i, inside[i]].tolist()} — "
                "regions overlap on a set of positive measure or the function is "
                "discontinuous"
            )


def _membership(f: CpwlPieces, X: NDArray[np.float64]) -> NDArray[np.bool_]:
    """Region membership of every point: the ``(n, R)`` boolean matrix whose
    column ``r`` is ``all(X @ A_r.T <= c_r + GEOM_TOL)``."""
    cols = [np.all(X @ A.T <= c + GEOM_TOL, axis=1) for A, c in f.regions]
    return np.stack(cols, axis=1)


def eval_pieces(f: CpwlPieces, X: NDArray[np.float64]) -> NDArray[np.float64]:
    """Evaluates a piece-list CPWL function at a batch of points.

    Each point takes the piece of the first region containing it; on region
    boundaries continuity makes the candidate values equal.  Memory is
    ``n x (pieces + regions)`` entries.

    Args:
        f: The function.
        X: Points, shape ``(n, d)``.

    Returns:
        Values, shape ``(n,)``.

    Raises:
        OutsideDomain: If some point lies outside every region or outside
            the domain box.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if f.domain_box is not None:
        lo, hi = f.domain_box
        inside_box = np.all(X >= lo - GEOM_TOL, axis=1) & np.all(X <= hi + GEOM_TOL, axis=1)
        if not np.all(inside_box):
            bad = X[~inside_box][0]
            raise OutsideDomain(f"point {bad!r} outside the domain box")
    inside = _membership(f, X)
    found = inside.any(axis=1)
    if not np.all(found):
        bad = X[~found][0]
        raise OutsideDomain(f"point {bad!r} outside every region")
    active = inside.argmax(axis=1)
    return _piece_values(f.pieces, X)[np.arange(X.shape[0]), active]


# ---------------------------------------------------------------------------
# Lattice forms
# ---------------------------------------------------------------------------


@dataclass
class LatticeForm:
    """A max-of-mins expression over a shared affine piece list.

    Attributes:
        pieces: Affine functions ``l_1 .. l_m``.
        clauses: Non-empty index subsets; the function is
            ``max_k min_{i in clauses[k]} pieces[i]``.
    """

    pieces: list[AffineFunc]
    clauses: list[tuple[int, ...]]

    def __post_init__(self) -> None:
        m = len(self.pieces)
        self.clauses = [
            tuple(as_int(i, f"clause {k} index") for i in s) for k, s in enumerate(self.clauses)
        ]
        for s in self.clauses:
            if not s:
                raise ValueError("empty clause")
            if any(i < 0 or i >= m for i in s):
                raise ValueError("clause index out of range")
        if not self.clauses:
            raise ValueError("need at least one clause")

    @property
    def num_pieces(self) -> int:
        return len(self.pieces)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def __call__(self, X: NDArray[np.float64]) -> NDArray[np.float64] | float:
        single = np.asarray(X).ndim == 1
        vals = eval_lattice(self, np.atleast_2d(np.asarray(X, dtype=float)))
        return float(vals[0]) if single else vals

    def dedup(self) -> "LatticeForm":
        """Removes exactly-identical clauses (order preserved otherwise)."""
        seen: set[tuple[int, ...]] = set()
        out = []
        for s in self.clauses:
            key = tuple(sorted(s))
            if key not in seen:
                seen.add(key)
                out.append(s)
        return LatticeForm(self.pieces, out)


def eval_lattice(f: LatticeForm, X: NDArray[np.float64]) -> NDArray[np.float64]:
    """Evaluates ``max_k min_{i in s_k} l_i`` at a batch of points."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    P = _piece_values(f.pieces, X)
    best = np.full(X.shape[0], -np.inf)
    for s in f.clauses:
        np.maximum(best, P[:, list(s)].min(axis=1), out=best)
    return best


# ---------------------------------------------------------------------------
# Unique-order partition (d <= 2)
# ---------------------------------------------------------------------------


@dataclass
class UniqueOrderCell:
    """A cell on which the ascending order of piece values is constant.

    Attributes:
        vertices: Cell polygon vertices (2D) or segment endpoints (1D),
            shape ``(p, d)``.
        order: Piece indices sorted by ascending value on the cell.
        sample_point: Interior point (vertex centroid) used for ordering.
    """

    vertices: NDArray[np.float64]
    order: tuple[int, ...]
    sample_point: NDArray[np.float64]


@dataclass
class UniqueOrderPartition:
    """Cells of the difference-hyperplane arrangement clipped to the domain."""

    dim: int
    cells: list[UniqueOrderCell] = field(default_factory=list)

    @property
    def num_cells(self) -> int:
        return len(self.cells)


def _require_box(f: CpwlPieces) -> tuple[NDArray, NDArray]:
    if f.domain_box is None:
        raise UnboundedRegionUnsupported(
            "operation needs a bounded domain; set a domain box"
        )
    return f.domain_box


def unique_order_partition(f: CpwlPieces) -> UniqueOrderPartition:
    """Partitions the domain box into cells of constant piece-value order.

    The cells are the full-dimensional cells of the arrangement of all
    pairwise difference hyperplanes ``{x : l_i(x) = l_j(x)}`` intersected
    with the domain box.  Cells with identical orderings are kept separate.
    Degenerate cells (length/area below tolerance) are dropped.

    Args:
        f: Piece-list CPWL function with pairwise distinct pieces, d <= 2.

    Returns:
        The partition with one ascending-order permutation per cell.

    Raises:
        DimensionUnsupported: If ``f.dim > 2``.
        DuplicatePieces: If two pieces coincide.
    """
    if f.dim > 2:
        raise DimensionUnsupported("unique-order partition implemented for d <= 2")
    check_distinct(f.pieces)
    lo, hi = _require_box(f)
    m = f.num_pieces

    if f.dim == 1:
        cuts = [float(lo[0]), float(hi[0])]
        for i, j in itertools.combinations(range(m), 2):
            da = f.pieces[i].gradient[0] - f.pieces[j].gradient[0]
            db = f.pieces[i].offset - f.pieces[j].offset
            if abs(da) > DISTINCT_TOL:
                x = -db / da
                if lo[0] + AREA_TOL < x < hi[0] - AREA_TOL:
                    cuts.append(float(x))
        xs = np.array(sorted(cuts))
        xs = xs[np.concatenate([[True], np.diff(xs) > AREA_TOL])]
        polys = [np.array([[a], [b]]) for a, b in zip(xs[:-1], xs[1:])]
        samples = ((xs[:-1] + xs[1:]) / 2.0)[:, None]
        return _ordered_cells(f, polys, samples)

    # d == 2: sequential clipping of box polygon by each difference line.
    box_poly = np.array(
        [[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]]
    )
    polys = [box_poly]
    for i, j in itertools.combinations(range(m), 2):
        n_ij = f.pieces[i].gradient - f.pieces[j].gradient
        c_ij = f.pieces[j].offset - f.pieces[i].offset
        if np.all(np.abs(n_ij) < DISTINCT_TOL):
            continue  # parallel pieces never cross
        nxt: list[NDArray] = []
        for poly in polys:
            below = clip_polygon(poly, n_ij, c_ij)
            above = clip_polygon(poly, -n_ij, -c_ij)
            for part in (below, above):
                if polygon_area(part) > AREA_TOL:
                    nxt.append(part)
        polys = nxt
    logger.debug("unique-order partition: m=%d pieces -> %d cells", m, len(polys))
    return _ordered_cells(f, polys, np.array([poly.mean(axis=0) for poly in polys]))


def _ordered_cells(
    f: CpwlPieces, polys: list[NDArray], samples: NDArray[np.float64]
) -> UniqueOrderPartition:
    """Cells with their ascending piece orders, ranked at ``samples[k]``."""
    samples = samples.reshape(-1, f.dim)
    orders = np.argsort(_piece_values(f.pieces, samples), axis=1, kind="stable")
    cells = [
        UniqueOrderCell(poly, tuple(order), x_star)
        for poly, order, x_star in zip(polys, orders, samples)
    ]
    return UniqueOrderPartition(f.dim, cells)


def lattice_from_unique_order(f: CpwlPieces, p: UniqueOrderPartition) -> LatticeForm:
    """Builds the lattice form with one clause per unique-order cell.

    On each cell the active piece ``l_k`` is found through region
    containment of the cell's sample point; the clause collects every piece
    whose value at the sample point is at least ``l_k``'s (the pieces lying
    weakly above the active one on the whole cell, since orderings are
    constant on cells).

    Raises:
        AmbiguousActivePiece: If no piece reproduces the function value at a
            cell's sample point within tolerance.
    """
    S = np.array([cell.sample_point for cell in p.cells]).reshape(-1, f.dim)
    P = _piece_values(f.pieces, S)
    inside = _membership(f, S)
    clauses = []
    for x_star, vals, row in zip(S, P, inside):
        candidates = np.flatnonzero(row)
        if not candidates.size:
            raise AmbiguousActivePiece(
                f"no region of the source contains cell sample point {x_star!r}"
            )
        cand_vals = vals[candidates]
        if cand_vals.max() - cand_vals.min() > DISTINCT_TOL:
            raise AmbiguousActivePiece(
                f"regions containing {x_star!r} give conflicting values "
                f"{cand_vals.tolist()}"
            )
        # The clause is the ascending-order suffix starting at the active
        # piece: everything valued at least the active piece on this cell.
        floor = vals[candidates[0]] - DISTINCT_TOL
        clauses.append(tuple(int(i) for i in np.flatnonzero(vals >= floor)))
    return LatticeForm(list(f.pieces), clauses)


def lattice_from_convex_regions(f: CpwlPieces) -> LatticeForm:
    """Builds the lattice form with one clause per convex piece region.

    Membership of piece ``i`` in clause ``k`` means ``l_i >= l_k`` on the
    whole region of piece ``k``; because both are affine and the region is
    the convex hull of its vertices, it is enough to check the inequality at
    every vertex of the (box-clipped) region polytope.

    Raises:
        UnboundedRegionUnsupported: If no domain box is available to make
            the regions bounded.
    """
    lo, hi = _require_box(f)
    boxA, boxc = box_halfspaces(lo, hi)
    clauses = []
    for k, (A, c) in enumerate(f.regions):
        Afull = np.vstack([A, boxA])
        cfull = np.concatenate([c, boxc])
        verts = polytope_vertices(Afull, cfull)
        if verts.shape[0] == 0:
            raise PreconditionViolated(
                f"region {k} is empty within the domain box; every piece must "
                "be active somewhere"
            )
        P = _piece_values(f.pieces, verts)
        members = np.all(P - P[:, [k]] >= -GEOM_TOL, axis=0)
        clauses.append(tuple(int(i) for i in np.flatnonzero(members)))
    return LatticeForm(list(f.pieces), clauses)


# ---------------------------------------------------------------------------
# 1D separating-line witness
# ---------------------------------------------------------------------------


def verify_1d_path_lemma(f: CpwlPieces) -> int:
    """Finds the separating-line witness for a 1D CPWL path on [0, 1].

    Writing the pieces in left-to-right cell order as ``l_i(t) = k_i t + b_i``
    with first piece ``l_0`` and last piece ``l_r``, the hypotheses are that
    ``l_0 > l_r`` at both ends of [0, 1], i.e. ``b_0 > b_r`` and
    ``k_0 + b_0 > k_r + b_r``.  The witness is a piece index ``p`` with
    minimal slope; its line satisfies ``b_p >= b_0`` (so ``l_p >= l_0`` on
    the first cell) and ``k_p + b_p <= k_r + b_r`` (so ``l_p <= l_r`` on the
    last cell).

    Args:
        f: 1D piece-list function on the domain box [0, 1], with regions
            ordered however; they are sorted by interval here.

    Returns:
        The witness piece index (into the left-to-right cell order).

    Raises:
        PreconditionViolated: If the domain is not [0, 1] or the endpoint
            domination hypotheses fail.
    """
    if f.dim != 1:
        raise PreconditionViolated("path lemma is one-dimensional")
    lo, hi = _require_box(f)
    if abs(lo[0]) > GEOM_TOL or abs(hi[0] - 1.0) > GEOM_TOL:
        raise PreconditionViolated("path lemma expects the domain [0, 1]")

    # Order pieces by their interval: use each region's feasible interval.
    intervals = []
    for idx, (A, c) in enumerate(f.regions):
        left, right = lo[0], hi[0]
        for a_row, c_row in zip(A[:, 0], c):
            if a_row > GEOM_TOL:
                right = min(right, c_row / a_row)
            elif a_row < -GEOM_TOL:
                left = max(left, c_row / a_row)
        if right - left < AREA_TOL:
            raise PreconditionViolated(f"region {idx} has empty interior in [0, 1]")
        intervals.append((left, idx))
    order = [idx for _, idx in sorted(intervals)]
    slopes = np.array([f.pieces[i].gradient[0] for i in order])
    offsets = np.array([f.pieces[i].offset for i in order])

    b0, br = offsets[0], offsets[-1]
    e0, er = slopes[0] + offsets[0], slopes[-1] + offsets[-1]
    if not (b0 > br + DISTINCT_TOL and e0 > er + DISTINCT_TOL):
        raise PreconditionViolated(
            "first piece must strictly dominate the last piece at both ends"
        )
    p = int(np.argmin(slopes))
    if not (offsets[p] >= b0 - GEOM_TOL and slopes[p] + offsets[p] <= er + GEOM_TOL):
        raise AssertionError(
            "witness inequalities failed; the input violates the path structure"
        )
    return p


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def pieces_to_dict(f: CpwlPieces) -> dict:
    """JSON-ready dict: pieces, regions (as half-space objects), domain box."""
    return {
        "schema": SCHEMA_VERSIONS["cpwl"],
        "dim": f.dim,
        "pieces": [{"a": p.gradient.tolist(), "b": p.offset} for p in f.pieces],
        "regions": [
            [{"n": row.tolist(), "c": float(cc)} for row, cc in zip(A, c)]
            for A, c in f.regions
        ],
        "domain_box": None
        if f.domain_box is None
        else [f.domain_box[0].tolist(), f.domain_box[1].tolist()],
    }


def pieces_from_dict(d: dict) -> CpwlPieces:
    """Reads a piece-list dict; a malformed dict raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"a piece list must be a JSON object, not {type(d).__name__}")
    if d.get("schema", SCHEMA_VERSIONS["cpwl"]) != SCHEMA_VERSIONS["cpwl"]:
        raise ValueError(f"unsupported piece-list schema {d.get('schema')!r}")
    try:
        pieces = [AffineFunc(np.array(p["a"], dtype=float), float(p["b"])) for p in d["pieces"]]
        dim = as_int(d["dim"], "dim")
        regions = []
        for k, reg in enumerate(d["regions"]):
            for j, h in enumerate(reg):
                if len(h["n"]) != dim:  # before numpy stacks ragged rows
                    raise ValueError(
                        f"region {k} normals have {len(h['n'])} entries, "
                        f"not dim = {dim} (half-space {j})"
                    )
            A = np.array([h["n"] for h in reg], dtype=float).reshape(len(reg), dim)
            regions.append((A, np.array([h["c"] for h in reg], dtype=float)))
        box = d.get("domain_box")
        domain = None if box is None else (np.array(box[0], float), np.array(box[1], float))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed piece-list dict: {exc!r}") from exc
    return CpwlPieces(dim, pieces, regions, domain)


def lattice_to_dict(f: LatticeForm) -> dict:
    return {
        "schema": SCHEMA_VERSIONS["lattice"],
        "pieces": [{"a": p.gradient.tolist(), "b": p.offset} for p in f.pieces],
        "clauses": [list(s) for s in f.clauses],
    }


def lattice_from_dict(d: dict) -> LatticeForm:
    """Reads a lattice dict; a malformed dict raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"a lattice must be a JSON object, not {type(d).__name__}")
    if d.get("schema", SCHEMA_VERSIONS["lattice"]) != SCHEMA_VERSIONS["lattice"]:
        raise ValueError(f"unsupported lattice schema {d.get('schema')!r}")
    try:
        pieces = [AffineFunc(np.array(p["a"], dtype=float), float(p["b"])) for p in d["pieces"]]
        clauses = [tuple(s) for s in d["clauses"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed lattice dict: {exc!r}") from exc
    return LatticeForm(pieces, clauses)


def save_pieces(f: CpwlPieces, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(pieces_to_dict(f)))


def load_pieces(path: str) -> CpwlPieces:
    with open(path, encoding="utf-8") as fh:
        return pieces_from_dict(json.load(fh))
