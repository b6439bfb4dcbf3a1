"""Dyadic low-bit weight grids, projection, and network structure checking.

A grid with parameters ``(k, l)`` is the finite symmetric set
``2^k * ({0} U {+-2^e : e = 1 - 2^(l-2), ..., 0})`` — for ``(0, 3)`` this
is ``{0, +-1/2, +-1}`` and for ``(0, 2)`` the ternary ``{0, +-1}``.
Networks produced by the structured compiler pathways promise that every
layer after the first has weights on the ternary ``(0, 2)`` grid and an
all-zero bias; :func:`check_structured` verifies exactly that and reports
violations instead of silently failing.  It checks ``(0, 3)`` unless told
otherwise, so networks written by the older 4-neuron gadgets, whose hidden
weights include ``+-1/2``, still pass.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from numpy.typing import NDArray

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class QuantGrid:
    """The weight grid ``2^k * ({0} U {+-2^e})`` with ``2^(l-1) + 1`` values.

    Attributes:
        k: Scale exponent (the grid is ``2^k`` times the base grid).
        l: Level count; must be at least 2.  ``l = 3`` gives the base grid
            ``{0, +-1/2, +-1}``.
    """

    k: int
    l: int

    def __post_init__(self) -> None:
        if self.l < 2:
            raise ValueError("grid needs l >= 2")

    @property
    def values(self) -> NDArray[np.float64]:
        """All grid values in ascending order."""
        exps = np.arange(1 - 2 ** (self.l - 2), 1)  # e = 1 - 2^(l-2), ..., 0
        mags = 2.0 ** (self.k + exps.astype(float))
        return np.sort(np.concatenate([-mags, [0.0], mags]))

    def contains(self, w: float, tol: float = 0.0) -> bool:
        return bool(np.min(np.abs(self.values - w)) <= tol)


def project(w: NDArray[np.float64] | float, grid: QuantGrid) -> NDArray[np.float64] | float:
    """Projects values onto the grid (nearest; ties go to smaller magnitude).

    Args:
        w: Scalar or array of values.
        grid: Target grid.

    Returns:
        Projected values with the input's shape.
    """
    vals = grid.values
    arr = np.atleast_1d(np.asarray(w, dtype=float))
    D = np.abs(arr.reshape(-1, 1) - vals[None, :])
    dmin = D.min(axis=1)
    mag = np.where(D == dmin[:, None], np.abs(vals)[None, :], np.inf)
    idx = np.argmin(mag, axis=1)
    out = vals[idx].reshape(arr.shape)
    if np.isscalar(w) or np.asarray(w).ndim == 0:
        return float(out.reshape(-1)[0])
    return out.reshape(np.asarray(w).shape)


def project_matrix(W: sp.csr_matrix, grid: QuantGrid) -> sp.csr_matrix:
    """Projects a CSR weight matrix entrywise, returning a new CSR matrix.

    Zero entries map to zero (0 is on every grid), so only the stored data
    needs touching; entries that project to zero are dropped.
    """
    out = W.copy()
    out.data = np.asarray(project(out.data, grid))
    out.eliminate_zeros()
    return out


def project_network(net, grid: QuantGrid, include_first: bool = False):
    """Returns a copy of ``net`` with weights projected onto the grid.

    By default the first layer is left untouched: it is the only layer
    allowed arbitrary weights and biases in the structured form, and
    projecting it would change the computed function.  Biases are never
    projected.

    Args:
        net: A :class:`~cpwlrelu.relu_net.ReluNetwork`.
        grid: Target grid.
        include_first: Also project the first layer's weights.
    """
    from .relu_net import ReluNetwork

    layers = []
    for idx, (W, b) in enumerate(net.layers):
        if idx == 0 and not include_first:
            layers.append((W, b.copy()))
        else:
            layers.append((project_matrix(W, grid), b.copy()))
    return ReluNetwork(net.input_dim, layers)


@dataclass
class LayerViolation:
    """A structure violation found in one layer.

    Attributes:
        layer: Layer index (0-based; first layer is 0).
        kind: ``"weight"`` or ``"bias"``.
        count: Number of offending entries.
        example: One offending value.
    """

    layer: int
    kind: str
    count: int
    example: float


@dataclass
class StructuredLowBitReport:
    """Result of the low-bit structure check.

    Attributes:
        passed: True when every layer after the first has grid weights and
            zero bias.
        vacuous: True when the network has no layers after the first, so the
            check holds trivially.
        grid: The grid checked against.
        checked_layers: Indices of the layers that were checked.
        violations: All violations found.
        checked_params: Number of stored weight entries examined; entries
            not stored are 0, which lies on every grid.
    """

    passed: bool
    vacuous: bool
    grid: QuantGrid
    checked_layers: list[int]
    violations: list[LayerViolation] = field(default_factory=list)
    checked_params: int = 0


def check_structured(
    net, grid: QuantGrid = QuantGrid(0, 3), tol: float = 0.0
) -> StructuredLowBitReport:
    """Checks the low-bit structure of all layers past the first.

    Every weight of layers ``1, 2, ...`` (including the output layer) must
    lie on ``grid`` within ``tol``, and those layers' biases must be zero
    within ``tol``.  The first layer is exempt by design: it absorbs the
    input affine functions.

    Args:
        net: A :class:`~cpwlrelu.relu_net.ReluNetwork`.
        grid: Grid to verify against (default the ``(0, 3)`` grid).
        tol: Allowed deviation; 0 demands exact membership.

    Returns:
        A report; ``report.passed`` is the verdict.
    """
    violations: list[LayerViolation] = []
    checked_layers = list(range(1, len(net.layers)))
    vacuous = not checked_layers
    if vacuous:
        logger.warning(
            "network has a single layer; low-bit structure check is vacuous"
        )
    gridvals = grid.values
    checked = 0
    for idx in checked_layers:
        W, b = net.layers[idx]
        data = W.data
        checked += data.size
        dist = np.min(np.abs(data[:, None] - gridvals[None, :]), axis=1)
        bad = dist > tol
        if np.any(bad):
            violations.append(
                LayerViolation(idx, "weight", int(bad.sum()), float(data[bad][0]))
            )
        bbad = np.abs(np.asarray(b)) > tol
        if np.any(bbad):
            violations.append(
                LayerViolation(idx, "bias", int(bbad.sum()), float(np.asarray(b)[bbad][0]))
            )
    return StructuredLowBitReport(
        passed=not violations,
        vacuous=vacuous,
        grid=grid,
        checked_layers=checked_layers,
        violations=violations,
        checked_params=checked,
    )
