"""Exception types shared across the package.

Each exception maps to a specific failure mode of mesh construction,
piecewise-linear function handling, network compilation, or the 1D
variational solver.  All inherit from :class:`CpwlReluError` so callers can
catch package failures with a single except clause.  :func:`as_int` is
the integer check the file loaders share.
"""

from __future__ import annotations

import numbers


class CpwlReluError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------


class DegenerateSimplex(CpwlReluError):
    """A simplex has (near-)zero volume."""


class NonConforming(CpwlReluError):
    """Two simplices intersect in something other than a shared sub-simplex."""


class SingularSystem(CpwlReluError):
    """A local interpolation or stiffness system is singular."""


# ---------------------------------------------------------------------------
# cpwl
# ---------------------------------------------------------------------------


class OutsideDomain(CpwlReluError):
    """A query point lies outside the function's domain."""


class DimensionUnsupported(CpwlReluError):
    """The operation is only implemented for lower dimensions."""


class DuplicatePieces(CpwlReluError):
    """Two affine pieces are identical within tolerance."""


class AmbiguousActivePiece(CpwlReluError):
    """No affine piece matches the function value on a cell within tolerance."""


class UnboundedRegionUnsupported(CpwlReluError):
    """Vertex enumeration needs bounded regions; clip to a domain box first."""


class PreconditionViolated(CpwlReluError):
    """The hypotheses of the requested construction do not hold."""


# ---------------------------------------------------------------------------
# relu_net
# ---------------------------------------------------------------------------


class DimensionMismatch(CpwlReluError):
    """Input/output dimensions of networks or points do not chain."""


class PairwiseDependent(CpwlReluError):
    """Two (weight, bias) rows are parallel; the independence hypothesis fails."""


# ---------------------------------------------------------------------------
# compiler
# ---------------------------------------------------------------------------


class NotLocallyConvex(CpwlReluError):
    """A vertex star is not convex, so the max-min form does not apply."""


class ClauseTooWide(CpwlReluError):
    """A lattice clause has more arguments than the compile target allows."""


class NumericalDependenceAmbiguous(CpwlReluError):
    """A least-squares dependency fit falls in the undecidable residual band."""


class RewriteCheckFailed(CpwlReluError, AssertionError):
    """A width rewrite deviates from the term it replaces at the check
    points (also an AssertionError: the rewrites are exact identities)."""


class SelfCheckFailed(CpwlReluError, AssertionError):
    """A compiled network deviates from its reference at the self-check
    points (also an AssertionError: the constructions are exact)."""


class BoundViolated(CpwlReluError):
    """A compiled network exceeds its predicted size or depth bound."""


class EmptyList(CpwlReluError):
    """An operation requiring at least one operand received none."""


class ExpansionOverflow(CpwlReluError):
    """The max/min expansion or a network would exceed a configured cap
    (pieces, clauses, deep network size)."""


# ---------------------------------------------------------------------------
# galerkin1d
# ---------------------------------------------------------------------------


class KnotOrderViolated(CpwlReluError):
    """Knots are not strictly increasing (or a gap is below the floor)."""


class TargetUnreachable(CpwlReluError):
    """The requested degree-of-freedom target cannot be met."""


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


class UsageError(CpwlReluError):
    """Bad command-line arguments or malformed input files."""


def as_int(value, field: str) -> int:
    """``value`` as an int; ValueError naming ``field`` unless it is an
    integer or an integral float (``int()`` would read 2.7 as 2, True as 1)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value % 1 != 0:
        raise ValueError(f"{field} must be an integer, not {value!r}")
    return int(value)
