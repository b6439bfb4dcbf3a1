"""Piece-list CPWL functions, lattice forms, and the 1D path witness.

Oracles: direct max-of-affines evaluation for convex instances, shoelace
areas for polygon clipping, brute-force lattice evaluation, and hand
geometry for the halfspace utilities.
"""

import math

import numpy as np
import pytest
from helpers import (
    cpwl_suite,
    random_fan,
    random_max_affine,
    random_path_instance,
    random_zigzag,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from cpwlrelu.compiler import compile_cpwl_shallow
from cpwlrelu.cpwl import (
    GEOM_TOL,
    AffineFunc,
    CpwlPieces,
    box_halfspaces,
    check_distinct,
    clip_polygon,
    eval_lattice,
    eval_pieces,
    lattice_from_convex_regions,
    lattice_from_dict,
    lattice_from_unique_order,
    lattice_to_dict,
    pieces_from_dict,
    pieces_to_dict,
    polygon_area,
    polytope_vertices,
    unique_order_partition,
    verify_1d_path_lemma,
)
from cpwlrelu.errors import (
    DuplicatePieces,
    OutsideDomain,
    PreconditionViolated,
)
from cpwlrelu.relu_net import eval_network


# ---------------------------------------------------------------------------
# Basics
# ---------------------------------------------------------------------------


def test_affine_eval(rng):
    a = AffineFunc(np.array([2.0, -1.0]), 0.5)
    X = rng.normal(size=(50, 2))
    assert np.allclose(a(X), X @ np.array([2.0, -1.0]) + 0.5)
    assert a(np.array([1.0, 1.0])) == pytest.approx(1.5)


def test_check_distinct_rejects_duplicates():
    p = AffineFunc(np.array([1.0]), 0.0)
    q = AffineFunc(np.array([1.0]), 0.0)
    with pytest.raises(DuplicatePieces):
        check_distinct([p, q])


def test_eval_pieces_matches_max_for_convex(rng):
    for d, m in ((1, 4), (2, 5)):
        f = random_max_affine(d, m, rng)
        X = f.sample_domain(500, rng)
        direct = np.max(np.stack([p(X) for p in f.pieces]), axis=0)
        assert np.max(np.abs(eval_pieces(f, X) - direct)) < 1e-12


def test_eval_outside_domain_raises(rng):
    f = random_max_affine(1, 3, rng)
    with pytest.raises(OutsideDomain):
        eval_pieces(f, np.array([[5.0]]))


def test_validate_catches_inconsistent_pieces(rng):
    # Two overlapping regions carrying different affine values.
    box = (np.array([-1.0]), np.array([1.0]))
    whole = (np.array([[1.0], [-1.0]]), np.array([2.0, 2.0]))
    f = CpwlPieces(
        1,
        [AffineFunc(np.array([1.0]), 0.0), AffineFunc(np.array([-1.0]), 0.0)],
        [whole, whole],
        box,
    )
    with pytest.raises(ValueError):
        f.validate(rng)


def _validate_reference(f, rng, samples=2000):
    """Per-point validation loop: one region test and one piece evaluation
    at a time, the first bad sample raising."""
    for x in f.sample_domain(samples, rng):
        idx = [i for i, (A, c) in enumerate(f.regions) if np.all(A @ x <= c + GEOM_TOL)]
        if not idx:
            raise OutsideDomain(f"regions do not cover domain point {x!r}")
        vals = [f.pieces[i](x) for i in idx]
        if max(vals) - min(vals) > 1e-8:
            raise ValueError(
                f"pieces disagree at {x!r}: values {vals} — regions overlap "
                "on a set of positive measure or the function is discontinuous"
            )


def _outcome(check, f, seed):
    """``None`` if ``check`` passes, else the exception type and message."""
    try:
        check(f, np.random.default_rng(seed))
    except (OutsideDomain, ValueError) as exc:
        return type(exc), str(exc)
    return None


def _shift_region(f, k, amount):
    """``f`` with region ``k`` grown (``amount > 0``) or shrunk by moving
    every one of its half-spaces by ``amount``."""
    regions = list(f.regions)
    A, c = regions[k]
    regions[k] = (A, c + amount * np.linalg.norm(A, axis=1))
    return CpwlPieces(f.dim, f.pieces, regions, f.domain_box)


def _line_pieces(parts):
    """1D list of ``(slope, offset, left, right)`` pieces on [0, 1]."""
    return CpwlPieces(
        1,
        [AffineFunc(np.array([k]), b) for k, b, _, _ in parts],
        [(np.array([[-1.0], [1.0]]), np.array([-lo, hi])) for _, _, lo, hi in parts],
        (np.array([0.0]), np.array([1.0])),
    )


# Pieces 0 and x overlap on [0.1, 0.9] and nothing covers (0.95, 1].
OVERLAP_THEN_GAP = _line_pieces([(0.0, 0.0, 0.0, 0.9), (1.0, 0.0, 0.1, 0.95)])


def _validate_cases():
    rng = np.random.default_rng(4)
    valid = [random_max_affine(d, m, rng) for d, m in ((1, 4), (2, 5), (2, 6), (3, 5))]
    valid += [random_fan(m, rng) for m in (4, 6)]
    valid += [random_zigzag(m, rng) for m in (5, 7)]
    cases = [pytest.param(f, None, id=f"valid-{i}") for i, f in enumerate(valid)]
    for i, f in enumerate(valid):
        cases.append(pytest.param(_shift_region(f, 1, -0.05), OutsideDomain, id=f"gap-{i}"))
        cases.append(pytest.param(_shift_region(f, 1, 0.05), ValueError, id=f"overlap-{i}"))
    cases += [
        pytest.param(OVERLAP_THEN_GAP, ValueError, id="overlap-then-gap"),
        # Nothing covers [0, 0.5); 0 and x overlap on [0.85, 0.9].
        pytest.param(_line_pieces([(0.0, 0.0, 0.5, 0.9), (1.0, 0.0, 0.85, 1.0)]),
                     OutsideDomain, id="gap-then-overlap"),
    ]
    return cases


@pytest.mark.parametrize("f, expected", _validate_cases())
def test_validate_matches_per_point_reference(f, expected):
    for seed in (0, 1, 2):
        got = _outcome(CpwlPieces.validate, f, seed)
        assert got == _outcome(_validate_reference, f, seed), seed
        assert (got and got[0]) is expected, seed


def test_validate_reports_first_bad_sample_when_a_later_one_is_uncovered():
    f = OVERLAP_THEN_GAP
    X = f.sample_domain(2000, np.random.default_rng(0))[:, 0]
    first_bad = np.flatnonzero((X >= 0.1) & (X <= 0.9) | (X > 0.95))[0]
    assert X[first_bad] <= 0.9 and np.any(X[first_bad:] > 0.95)
    with pytest.raises(ValueError, match="pieces disagree at") as exc:
        f.validate(np.random.default_rng(0))
    assert repr(X[first_bad:first_bad + 1]) in str(exc.value)


def test_validate_evaluates_no_piece_one_at_a_time(monkeypatch):
    f = random_max_affine(2, 6, np.random.default_rng(3))
    calls = []
    original = AffineFunc.__call__

    def counted(self, x):
        calls.append(1)
        return original(self, x)

    monkeypatch.setattr(AffineFunc, "__call__", counted)
    f.validate(np.random.default_rng(0))
    assert len(calls) == 0


# ---------------------------------------------------------------------------
# Polytope helpers
# ---------------------------------------------------------------------------


def test_polytope_vertices_unit_square():
    A, c = box_halfspaces(np.zeros(2), np.ones(2))
    got = {tuple(np.round(v, 9)) for v in polytope_vertices(A, c)}
    assert got == {(0, 0), (0, 1), (1, 0), (1, 1)}
    # Cut by x + y <= 1.5: the corner (1, 1) violates the cut by 0.5, which
    # only a loose feasibility tolerance would accept.
    A, c = np.vstack([A, [1.0, 1.0]]), np.append(c, 1.5)
    got = {tuple(np.round(v, 9)) for v in polytope_vertices(A, c)}
    assert got == {(0, 0), (0, 1), (1, 0), (1, 0.5), (0.5, 1)}


def test_clip_polygon_area_oracle():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert polygon_area(square) == pytest.approx(1.0)
    half = clip_polygon(square, np.array([1.0, 0.0]), 0.5)  # keep x <= 0.5
    assert polygon_area(half) == pytest.approx(0.5)
    corner = clip_polygon(square, np.array([1.0, 1.0]), 0.5)  # x + y <= 0.5
    assert polygon_area(corner) == pytest.approx(0.125)


# ---------------------------------------------------------------------------
# Unique-order partition and lattice construction
# ---------------------------------------------------------------------------


def test_unique_order_cells_have_constant_order(rng, cpwl_instances):
    """Each cell's recorded order sorts the piece values, everywhere in it."""
    for name, f in cpwl_instances:
        part = unique_order_partition(f)
        for cell in part.cells:
            x = np.asarray(cell.sample_point)
            vals = np.array([p(x) for p in f.pieces])
            ranked = np.array([vals[i] for i in cell.order])
            assert np.all(np.diff(ranked) >= -1e-9), (name, cell.order)


def test_both_lattice_routes_reproduce_source(rng, cpwl_instances):
    for name, f in cpwl_instances:
        X = f.sample_domain(1500, rng)
        ref = eval_pieces(f, X)
        for route in ("order", "regions"):
            if route == "order":
                lat = lattice_from_unique_order(f, unique_order_partition(f))
            else:
                lat = lattice_from_convex_regions(f)
            got = eval_lattice(lat, X)
            assert np.max(np.abs(got - ref)) < 1e-9, (name, route)


def test_parallel_pieces_split_no_cell(rng):
    """The ramp ``min(max(x, 0), 1)`` on ``[-1, 2] x [0, 1]``: its pieces 0
    and 1 are parallel, so only the lines x = 0 and x = 1 cut the box, and
    both lattice routes compile it exactly."""
    pieces = [AffineFunc(np.zeros(2), 0.0), AffineFunc(np.array([1.0, 0.0]), 0.0),
              AffineFunc(np.zeros(2), 1.0)]
    e = np.array([[1.0, 0.0]])
    regions = [(e, np.array([0.0])), (np.vstack([-e, e]), np.array([0.0, 1.0])),
               (-e, np.array([-1.0]))]
    f = CpwlPieces(2, pieces, regions, (np.array([-1.0, 0.0]), np.array([2.0, 1.0])))
    assert unique_order_partition(f).num_cells == 3
    X = f.sample_domain(500, rng)
    for route in ("order", "regions"):
        net, _ = compile_cpwl_shallow(f, route=route)
        assert np.max(np.abs(eval_network(net, X) - np.clip(X[:, 0], 0, 1))) < 1e-12, route


def test_lattice_clause_count_bounds(cpwl_instances):
    """One clause per order cell: piece count <= clause count <= m!.

    The order partition refines the piece regions (every region boundary is
    a difference hyperplane), giving the lower bound; each strict order is
    realized on a convex — hence connected — set, giving at most one cell
    per permutation and the upper bound.  Deduplication only shrinks.
    """
    for name, f in cpwl_instances:
        m = f.num_pieces
        part = unique_order_partition(f)
        lat = lattice_from_unique_order(f, part)
        assert lat.num_clauses == part.num_cells, name
        assert m <= lat.num_clauses <= math.factorial(m), name
        assert lat.dedup().num_clauses <= lat.num_clauses, name


def test_convex_regions_route_needs_nonempty_regions():
    # Second piece's region is empty inside the box.
    box = (np.array([-1.0]), np.array([1.0]))
    f = CpwlPieces(
        1,
        [AffineFunc(np.array([1.0]), 0.0), AffineFunc(np.array([2.0]), -10.0)],
        [
            (np.array([[0.0]]), np.array([1.0])),  # whole line
            (np.array([[-1.0]]), np.array([-5.0])),  # x >= 5: empty in box
        ],
        box,
    )
    with pytest.raises(PreconditionViolated):
        lattice_from_convex_regions(f)


def test_lattice_dedup_removes_repeats():
    from cpwlrelu.cpwl import LatticeForm

    p = [AffineFunc(np.array([1.0]), 0.0), AffineFunc(np.array([-1.0]), 0.0)]
    lat = LatticeForm(p, [(0, 1), (1, 0), (0,)])
    out = lat.dedup()
    assert out.num_clauses == 2


def test_eval_lattice_bruteforce_oracle(rng):
    p = [
        AffineFunc(np.array([1.0, 0.0]), 0.0),
        AffineFunc(np.array([0.0, 1.0]), 0.2),
        AffineFunc(np.array([-1.0, -1.0]), 0.1),
    ]
    from cpwlrelu.cpwl import LatticeForm

    lat = LatticeForm(p, [(0, 1), (2,), (1, 2)])
    X = rng.uniform(-1, 1, size=(200, 2))
    vals = np.stack([q(X) for q in p], axis=1)
    ref = np.maximum(
        np.minimum(vals[:, 0], vals[:, 1]),
        np.maximum(vals[:, 2], np.minimum(vals[:, 1], vals[:, 2])),
    )
    assert np.allclose(eval_lattice(lat, X), ref, atol=1e-12)


# ---------------------------------------------------------------------------
# 1D path lemma witness
# ---------------------------------------------------------------------------


def test_path_lemma_witness_inequalities(rng):
    for trial in range(25):
        m = int(rng.integers(3, 6))
        f = random_path_instance(m, rng)
        p = verify_1d_path_lemma(f)
        k = np.array([q.gradient[0] for q in f.pieces])
        b = np.array([q.offset for q in f.pieces])
        assert b[p] >= b[0] - 1e-10
        assert k[p] + b[p] <= k[-1] + b[-1] + 1e-10


def test_path_lemma_rejects_bad_hypotheses(rng):
    while True:  # find a zigzag violating the endpoint domination
        f = random_zigzag(3, rng, lo=0.0, hi=1.0)
        first, last = f.pieces[0], f.pieces[-1]
        if first.offset <= last.offset:
            break
    with pytest.raises(PreconditionViolated):
        verify_1d_path_lemma(f)


def test_path_lemma_rejects_wrong_domain(rng):
    f = random_zigzag(3, rng)  # domain [-1, 1]
    with pytest.raises(PreconditionViolated):
        verify_1d_path_lemma(f)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_pieces_roundtrip(rng, tmp_path, cpwl_instances):
    from cpwlrelu.cpwl import load_pieces, save_pieces

    for name, f in cpwl_instances[:4]:
        p = tmp_path / f"{name}.json"
        save_pieces(f, str(p))
        back = load_pieces(str(p))
        X = f.sample_domain(200, rng)
        assert np.max(np.abs(eval_pieces(back, X) - eval_pieces(f, X))) < 1e-12


def test_pieces_loader_rejects_non_integer_dim():
    f = CpwlPieces(1, [AffineFunc(np.array([1.0]), 0.0)],
                   [(np.array([[-1.0], [1.0]]), np.array([0.0, 1.0]))])
    d = pieces_to_dict(f)
    d["dim"] = 1.9  # int() would read it as 1 and the file would load
    with pytest.raises(ValueError, match="dim must be an integer, not 1.9"):
        pieces_from_dict(d)


def test_pieces_reject_region_normals_of_the_wrong_width():
    """A 3-wide normal in a 2-d piece list would otherwise fail only inside
    ``validate``, with numpy's matmul shape message."""
    pieces = [AffineFunc(np.array([1.0, 0.0]), 0.0), AffineFunc(np.array([0.0, 1.0]), 0.0)]
    regions = [(np.array([[1.0, -1.0]]), np.zeros(1)), (np.array([[-1.0, 1.0, 0.0]]), np.zeros(1))]
    with pytest.raises(ValueError, match="region 1 normals have 3 entries, not dim = 2"):
        CpwlPieces(2, pieces, regions)


def test_pieces_loader_rejects_region_normals_of_different_widths():
    """One 3-wide normal beside 2-wide ones: numpy would refuse to stack
    the region with its own "inhomogeneous shape" message."""
    pieces = [AffineFunc(np.array([1.0, 0.0]), 0.0), AffineFunc(np.array([0.0, 1.0]), 0.0)]
    regions = [(np.array([[1.0, -1.0]]), np.zeros(1)),
               (np.array([[-1.0, 1.0], [0.0, -1.0]]), np.zeros(2))]
    d = pieces_to_dict(CpwlPieces(2, pieces, regions))
    d["regions"][1][1]["n"].append(0.0)
    with pytest.raises(ValueError, match=r"^region 1 normals have 3 entries, "
                                         r"not dim = 2 \(half-space 1\)$"):
        pieces_from_dict(d)


@pytest.mark.parametrize("index", [0.7, True])
def test_lattice_rejects_non_integer_clause_index(index):
    """``int()`` would read 0.7 as 0 and True as 1, both valid indices."""
    from cpwlrelu.cpwl import LatticeForm

    p = [AffineFunc(np.array([1.0]), 0.0), AffineFunc(np.array([-1.0]), 0.0)]
    with pytest.raises(ValueError, match="clause 1 index must be an integer"):
        LatticeForm(p, [(0, 1), (index,)])
    d = lattice_to_dict(LatticeForm(p, [(0, 1), (0,)]))
    d["clauses"][1] = [index]
    with pytest.raises(ValueError, match="clause 1 index must be an integer"):
        lattice_from_dict(d)


def test_lattice_roundtrip(rng):
    f = random_max_affine(2, 4, rng)
    lat = lattice_from_convex_regions(f)
    back = lattice_from_dict(lattice_to_dict(lat))
    X = f.sample_domain(200, rng)
    assert np.allclose(eval_lattice(back, X), eval_lattice(lat, X), atol=0)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(2, 5))
def test_property_zigzag_lattice_equivalence(seed, m):
    rng = np.random.default_rng(seed)
    f = random_zigzag(m, rng)
    lat = lattice_from_unique_order(f, unique_order_partition(f))
    assert m <= lat.num_clauses <= math.factorial(m)
    X = f.sample_domain(300, rng)
    assert np.max(np.abs(eval_lattice(lat.dedup(), X) - eval_pieces(f, X))) < 1e-9


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_fan_routes_agree(seed):
    rng = np.random.default_rng(seed)
    f = random_fan(4, rng)
    X = f.sample_domain(300, rng)
    a = eval_lattice(lattice_from_unique_order(f, unique_order_partition(f)), X)
    b = eval_lattice(lattice_from_convex_regions(f), X)
    ref = eval_pieces(f, X)
    assert np.max(np.abs(a - ref)) < 1e-9
    assert np.max(np.abs(b - ref)) < 1e-9
