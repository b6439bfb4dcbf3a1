"""ReLU network containers, composition operations, and a layer builder.

A network is a plain sequence of affine layers with ReLU applied between
consecutive layers (not after the last).  Every weight matrix is a scipy
CSR matrix: :class:`ReluNetwork` converts whatever it is given, so
evaluation, composition and serialization know one format.
``hidden_layer_count`` is the number of layers minus one, and ``size`` is
the total number of hidden neurons.

:class:`NetBuilder` continues a seed network level by level from *channels*:
a channel is a row of the current level's channel matrix ``C`` (at first the
seed's output layer) plus an entry of its bias vector.
Each hidden layer is ``S @ C`` for a sparse sign matrix ``S`` of min/max
gadgets (3 neurons), identity carries (2 neurons) and single ``relu``
neurons; this keeps every layer past the first with zero bias and weights
in ``{0, +-1}``, which is what the low-bit structure checker later verifies.
"""

from __future__ import annotations

import base64
import json
import logging
import numbers
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.typing import NDArray

from . import SCHEMA_VERSIONS
from .errors import DimensionMismatch, EmptyList, PairwiseDependent, as_int

logger = logging.getLogger(__name__)

#: Feature-matrix rank threshold factor for the independence check.
RANK_TOL_FACTOR = 1e-8
#: A hidden channel whose weights and bias are within this of zero (bias at
#: most this) is pruned as dead.
PRUNE_TOL = 1e-12

#: Activation entries (float64) one evaluation chunk may hold in its widest
#: layer; 2**22 entries are 32 MiB.
EVAL_CHUNK_ENTRIES = 2**22


def relu(x: NDArray[np.float64]) -> NDArray[np.float64]:
    return np.maximum(x, 0.0)


def _canonical_csr(W) -> sp.csr_matrix:
    """``W`` as float CSR with repeated entries of a row summed (on a copy), so
    entrywise code sees the weights a product computes with.  A float CSR
    matrix in canonical format is returned as it is, not validated again."""
    if not (isinstance(W, sp.csr_matrix) and W.dtype == np.float64):
        W = sp.csr_matrix(W, dtype=float)
    return W if W.has_canonical_format else W.tocoo().tocsr()


@dataclass
class ReluNetwork:
    """A feed-forward ReLU network.

    Attributes:
        input_dim: Dimension of the input.
        layers: List of ``(W, b)`` pairs; ReLU is applied after every layer
            except the last.  ``W`` is a float CSR matrix, converted on
            construction from any other format, with duplicate entries
            summed; ``b`` is a dense vector.
    """

    input_dim: int
    layers: list[tuple[sp.csr_matrix, NDArray[np.float64]]]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("a network needs at least one (output) layer")
        self.layers = [(_canonical_csr(W), b) for W, b in self.layers]
        cur = self.input_dim
        for idx, (W, b) in enumerate(self.layers):
            if W.shape[1] != cur:
                raise DimensionMismatch(
                    f"layer {idx} expects {W.shape[1]} inputs, previous width is {cur}"
                )
            if b.shape != (W.shape[0],):
                raise DimensionMismatch(f"layer {idx} bias length mismatch")
            cur = W.shape[0]

    @property
    def hidden_layer_count(self) -> int:
        return len(self.layers) - 1

    @property
    def output_dim(self) -> int:
        return self.layers[-1][0].shape[0]

    @property
    def hidden_widths(self) -> list[int]:
        return [W.shape[0] for W, _ in self.layers[:-1]]

    @property
    def size(self) -> int:
        """Total number of hidden neurons."""
        return int(sum(self.hidden_widths))

    def __call__(self, X: NDArray[np.float64]) -> NDArray[np.float64]:
        return eval_network(self, X)


@dataclass
class NetworkStats:
    """Summary numbers for a network.

    Attributes:
        hidden_layers: Number of hidden layers (layers minus one).
        size: Total number of hidden neurons.
        nonzero_params: Count of nonzero weight and bias entries.
    """

    hidden_layers: int
    size: int
    nonzero_params: int


def network_stats(net: ReluNetwork) -> NetworkStats:
    nz = sum(W.count_nonzero() + np.count_nonzero(b) for W, b in net.layers)
    return NetworkStats(net.hidden_layer_count, net.size, int(nz))


def layer_outputs(
    net: ReluNetwork, A: NDArray[np.float64]
) -> Iterator[NDArray[np.float64]]:
    """Yields each layer's output on the column-major batch ``A``, shape
    ``(input_dim, n)``: one column per point.

    Hidden layers yield their post-ReLU activations, shape ``(width, n)``;
    the last item is the linear output layer's value, shape ``(q, n)``.
    Each layer allocates only its sparse product: the bias is added and the
    ReLU applied in place, and an all-zero bias (every layer a
    :class:`NetBuilder` emits past the first) is skipped.
    """
    for idx, (W, b) in enumerate(net.layers):
        A = W @ A
        if b.any():
            A += b[:, None]
        if idx < net.hidden_layer_count:
            np.maximum(A, 0.0, out=A)
        yield A


def eval_network(net: ReluNetwork, X: NDArray[np.float64]) -> NDArray[np.float64]:
    """Evaluates the network on a batch.

    The points go through :func:`layer_outputs` in chunks of
    ``EVAL_CHUNK_ENTRIES // widest`` points, so no layer's activations hold
    more than about ``EVAL_CHUNK_ENTRIES`` floats at once, whatever the
    batch size.

    Args:
        net: The network.
        X: Points of shape ``(n, input_dim)`` or a single point ``(input_dim,)``.

    Returns:
        Shape ``(n,)`` for single-output networks, else ``(n, q)``; a single
        point yields a scalar or ``(q,)``.
    """
    X = np.asarray(X, dtype=float)
    single = X.ndim == 1
    X = np.atleast_2d(X)
    if X.shape[1] != net.input_dim:
        raise DimensionMismatch(
            f"network expects input dimension {net.input_dim}, got {X.shape[1]}"
        )
    n = X.shape[0]
    widest = max(1, *(W.shape[0] for W, _ in net.layers))
    chunk = max(1, EVAL_CHUNK_ENTRIES // widest)
    out = np.empty((net.output_dim, n))
    for s in range(0, n, chunk):
        for last in layer_outputs(net, X[s : s + chunk].T):
            pass  # keep only the output layer's block
        out[:, s : s + chunk] = last
    if net.output_dim == 1:
        return float(out[0, 0]) if single else out[0]
    return out[:, 0] if single else out.T


# ---------------------------------------------------------------------------
# Composition operations
# ---------------------------------------------------------------------------


def affine_network(a: NDArray[np.float64], b: float) -> ReluNetwork:
    """The zero-hidden-layer network computing ``a . x + b``."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    return ReluNetwork(a.shape[0], [(a[None, :], np.array([float(b)]))])


def pad_network(net: ReluNetwork, target_hidden: int) -> ReluNetwork:
    """Deepens a single-output network to ``target_hidden`` hidden layers.

    Each added level carries the scalar output through the identity
    ``t = relu(t) - relu(-t)`` at a cost of two neurons (the ``"id"``
    operation of :class:`NetBuilder`), leaving the computed function
    unchanged.
    """
    if net.output_dim != 1:
        raise DimensionMismatch("padding is defined for single-output networks")
    if net.hidden_layer_count > target_hidden:
        raise ValueError("network is already deeper than the padding target")
    if net.hidden_layer_count == target_hidden:
        return ReluNetwork(net.input_dim, list(net.layers))
    builder = NetBuilder(net)
    while builder.level < target_hidden:
        builder.apply_level([OPS.index("id")], [0], [-1])
    return builder.finish([(np.ones(1), np.zeros(1, dtype=np.int64))])


def prune_dead_channels(net: ReluNetwork) -> ReluNetwork:
    """Removes hidden channels that are provably inactive at every input.

    A channel whose incoming weights are all within ``PRUNE_TOL`` of zero and
    whose bias is at most ``PRUNE_TOL`` outputs ``relu(b) <= PRUNE_TOL``
    everywhere, so dropping it (and the columns that read it) changes the
    computed function by a negligible constant at most.  Repeats until
    stable, since removing a channel can zero out a downstream row.  A layer
    always keeps at least one channel so shapes stay valid.
    """
    layers = [(W, np.asarray(b, dtype=float).copy()) for W, b in net.layers]
    changed = True
    while changed:
        changed = False
        for li in range(len(layers) - 1):
            W, b = layers[li]
            alive = ((abs(W) > PRUNE_TOL).getnnz(axis=1) > 0) | (b > PRUNE_TOL)
            if alive.all():
                continue
            if not alive.any():
                alive[0] = True  # keep one (inactive) channel per layer
            keep = np.flatnonzero(alive)
            if len(keep) == W.shape[0]:
                continue
            layers[li] = (W[keep], b[keep])
            W_next, b_next = layers[li + 1]
            layers[li + 1] = (W_next[:, keep], b_next)
            changed = True
    return ReluNetwork(net.input_dim, layers)


def parallel(nets: list[ReluNetwork]) -> ReluNetwork:
    """Runs networks side by side on a shared input, concatenating outputs.

    Networks are first padded to a common depth.  The first layer stacks the
    nets' first layers over the shared input; later layers are block
    diagonal.  Every layer of the result is CSR.
    """
    if not nets:
        raise EmptyList("need at least one network")
    d = nets[0].input_dim
    if any(n.input_dim != d for n in nets):
        raise DimensionMismatch("parallel networks must share the input dimension")
    depth = max(n.hidden_layer_count for n in nets)
    nets = [pad_network(n, depth) if n.hidden_layer_count < depth else n for n in nets]
    layers = []
    for li in range(depth + 1):
        Ws = [n.layers[li][0] for n in nets]
        W = sp.vstack(Ws, format="csr") if li == 0 else sp.block_diag(Ws, format="csr")
        layers.append((W, np.concatenate([n.layers[li][1] for n in nets])))
    return ReluNetwork(d, layers)


def linear_combine(
    nets: list[ReluNetwork], weights: NDArray[np.float64], bias: float = 0.0
) -> ReluNetwork:
    """Builds the network computing ``sum_i weights[i] * nets[i](x) + bias``.

    All inputs must be single-output networks over the same input space.
    """
    if any(n.output_dim != 1 for n in nets):
        raise DimensionMismatch("linear_combine needs single-output networks")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(nets),):
        raise DimensionMismatch("need exactly one weight per network")
    stacked = parallel(nets)
    W, b = stacked.layers[-1]
    Wn = sp.csr_matrix(weights[None, :]) @ W
    bn = np.array([float(weights @ b) + bias])
    return ReluNetwork(stacked.input_dim, list(stacked.layers[:-1]) + [(Wn, bn)])


# ---------------------------------------------------------------------------
# First-layer independence check
# ---------------------------------------------------------------------------


def independence_check(
    W: NDArray[np.float64],
    b: NDArray[np.float64],
    rng: np.random.Generator,
    box: float = 10.0,
) -> bool:
    """Tests linear independence of the units ``x -> relu(w_i . x + b_i)``.

    First verifies that no two rows ``(w_i, b_i)`` are proportional (which
    would make the corresponding units dependent regardless of sampling);
    then forms the feature matrix of the units on ``max(200, 20 m)`` uniform
    random points in ``[-box, box]^d`` and compares its numerical rank against the unit
    count.

    Args:
        W: First-layer weights, shape ``(m, d)``.
        b: First-layer biases, shape ``(m,)``.
        rng: Random generator for the sample points.
        box: Half-width of the sampling box.

    Returns:
        True when the numerical feature rank equals ``m``.

    Raises:
        PairwiseDependent: If two rows of ``[W | b]`` are proportional.
    """
    W = np.atleast_2d(np.asarray(W, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    m, d = W.shape
    rows = np.hstack([W, b[:, None]])
    for i in range(m):
        for j in range(i + 1, m):
            pair = rows[[i, j]]
            s = np.linalg.svd(pair, compute_uv=False)
            if s[-1] <= 1e-12 * max(s[0], 1.0):
                raise PairwiseDependent(
                    f"first-layer rows {i} and {j} are proportional"
                )
    X = rng.uniform(-box, box, size=(max(200, 20 * m), d))
    F = relu(X @ W.T + b)
    s = np.linalg.svd(F, compute_uv=False)
    rank = int(np.sum(s > RANK_TOL_FACTOR * s[0])) if s[0] > 0 else 0
    logger.debug("independence check: m=%d, feature rank=%d", m, rank)
    return rank == m


# ---------------------------------------------------------------------------
# Level builder with structured channels
# ---------------------------------------------------------------------------


#: The builder's operations: ``kind -> (sign rows, output weights)``.
#: Hidden neuron ``k`` computes ``relu(sa_k * a + sb_k * b)`` and the result
#: is ``sum_k combo_k * neuron_k``: ``min(a, b) = a - relu(a - b)`` and
#: ``max(a, b) = a + relu(b - a)``, with ``a = relu(a) - relu(-a)``.  The
#: identity carry ``relu(a) - relu(-a)`` and ``relu(a)`` have no ``b``.
GADGETS = {
    "min": (((1.0, 0.0), (-1.0, 0.0), (1.0, -1.0)), (1.0, -1.0, -1.0)),
    "max": (((1.0, 0.0), (-1.0, 0.0), (-1.0, 1.0)), (1.0, -1.0, 1.0)),
    "id": (((1.0,), (-1.0,)), (1.0, -1.0)),
    "relu": (((1.0,),), (1.0,)),
}
#: Operation codes: ``OPS[code]`` is the ``GADGETS`` kind.
OPS = tuple(GADGETS)
#: Per operation code, its operands and its neurons.
_ARITY = np.array([len(GADGETS[kind][0][0]) for kind in OPS])
_SIZE = np.array([len(GADGETS[kind][0]) for kind in OPS])


class NetBuilder:
    """Continues a ReLU network one level at a time from channels.

    A *channel* of a level is a row of its channel matrix ``C`` applied to
    the level's activations, plus the entry of the bias vector beside it;
    operations name channels by their row.  The one constructor takes a
    seed network: its hidden layers become the builder's first layers, its
    output layer ``C`` and the bias vector, so that output ``r`` of the seed
    is channel ``r`` of level ``net.hidden_layer_count``.  A
    zero-hidden-layer seed ``[(G, offsets)]`` thus starts at level 0 with
    one affine channel per row.  :meth:`apply_level` turns an array of
    operations into a sparse sign matrix ``S`` (one entry per operand of
    each neuron, from :data:`GADGETS`) and emits the hidden layer
    ``S @ C``; the next level's ``C`` holds one row per operation, its
    output weights on its own neurons, with zero bias.  :meth:`finish`
    emits the output layer the same way.  Biases are therefore only ever
    written into the first layer the builder emits, and every later hidden
    layer has weights in ``{0, +-1}``: each neuron of the previous level
    belongs to one channel with weight ``+-1``, so ``S @ C`` stays on that
    set, also when a gadget reads one channel as both operands (each row's
    two signs then sum to ``0`` or ``+-1``).

    Operations, by their kind ``OPS[code]``:
        ``"min"`` — 3 neurons, channel for ``min(a, b)``.
        ``"max"`` — 3 neurons, channel for ``max(a, b)``.
        ``"id"`` — 2 neurons, carries ``a`` to the next level.
        ``"relu"`` — 1 neuron, channel for ``max(a, 0)``.
    """

    def __init__(self, net: ReluNetwork):
        self.input_dim = net.input_dim
        self.layers = list(net.layers[:-1])
        self._seeded = self.level = net.hidden_layer_count
        self._C, self._bias = net.layers[-1]

    @property
    def width(self) -> int:
        """Channels of the current level."""
        return self._C.shape[0]

    def _combine(
        self, w: NDArray[np.float64], cols: NDArray[np.int64], counts: NDArray[np.int64],
        bias: NDArray[np.float64],
    ) -> tuple[sp.csr_matrix, NDArray[np.float64]]:
        """The layer ``M @ C``, where row ``r`` of ``M`` holds the next
        ``counts[r]`` weights ``w`` on the current-level channels ``cols``,
        and ``bias`` plus each row's weighted channel biases, added in term
        order (``bias[r] += w * c``)."""
        bad = (cols < 0) | (cols >= self.width)
        if bad.any():
            raise ValueError(
                f"channel {cols[bad][0]} is not one of the {self.width} channels "
                f"of level {self.level}"
            )
        np.add.at(bias, np.repeat(np.arange(len(counts)), counts), w * self._bias[cols])
        indptr = np.concatenate([[0], np.cumsum(counts)])
        M = sp.csr_matrix((w, cols, indptr), shape=(len(counts), self.width))
        return M @ self._C, bias

    def apply_level(self, codes: NDArray[np.int64], a: NDArray[np.int64],
                    b: NDArray[np.int64]) -> None:
        """Emits one hidden layer realizing the operations and advances the
        level; the next level's channel ``j`` is operation ``j``'s result.

        Operation ``j`` is ``OPS[codes[j]]`` on the current-level channels
        ``a[j]`` and ``b[j]``; ``b[j]`` is -1 for the one-operand ``id`` and
        ``relu``.  Its neurons are rows of ``S``, operation after operation;
        ``S`` is filled by one block of index arrays per :data:`GADGETS`
        kind.
        """
        codes = np.asarray(codes, dtype=np.int64)
        args = np.stack([np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)], axis=1)
        unknown = (codes < 0) | (codes >= len(OPS))
        if unknown.any():
            raise ValueError(f"unknown builder operation code {codes[unknown][0]}")
        given = (args >= 0).sum(axis=1)
        wrong = (given != _ARITY[codes]) | (args[:, 0] < 0)
        if wrong.any():
            j = int(np.argmax(wrong))
            raise ValueError(
                f"{OPS[codes[j]]!r} takes {_ARITY[codes[j]]} operands, not {given[j]}"
            )
        sizes = _SIZE[codes]
        first = np.cumsum(sizes) - sizes  # each operation's first neuron
        counts = np.repeat(_ARITY[codes], sizes)  # entries per neuron
        entry = np.cumsum(counts) - counts  # each neuron's first entry
        w, cols = np.empty(counts.sum()), np.empty(counts.sum(), dtype=np.int64)
        combo = np.empty(sizes.sum())
        for code, (patterns, combo_w) in enumerate(GADGETS.values()):
            ops = np.flatnonzero(codes == code)
            neurons = first[ops, None] + np.arange(len(patterns))
            at = entry[neurons][..., None] + np.arange(len(patterns[0]))
            w[at] = patterns
            cols[at] = args[ops, None, : len(patterns[0])]
            combo[neurons] = combo_w
        # -0.0 is the additive identity: each bias sums ``sign * operand bias``.
        W, bias = self._combine(w, cols, counts, np.full(len(counts), -0.0))
        if len(self.layers) > self._seeded and np.any(bias != 0.0):
            raise AssertionError(
                "internal builder error: nonzero bias past the first emitted layer"
            )
        self.layers.append((W, bias))
        self.level += 1
        n = len(counts)
        self._C = sp.csr_matrix(
            (combo, np.arange(n), np.concatenate([[0], np.cumsum(sizes)])),
            shape=(len(codes), n),
        )
        self._bias = np.zeros(len(codes))

    def finish(self, rows: list[tuple[NDArray[np.float64], NDArray[np.int64]]]) -> ReluNetwork:
        """Appends the output layer combining current-level channels.

        Args:
            rows: One ``(weights, channels)`` pair per output row: the row
                is ``sum_t weights[t] * channel channels[t]``.

        Returns:
            The assembled network (sparse layers).
        """
        w = np.concatenate([np.asarray(ws, dtype=float).reshape(-1) for ws, _ in rows])
        cols = np.concatenate([np.asarray(cs, dtype=np.int64).reshape(-1) for _, cs in rows])
        counts = np.array([np.size(cs) for _, cs in rows])
        W, b = self._combine(w, cols, counts, np.zeros(len(rows)))
        return ReluNetwork(self.input_dim, self.layers + [(W, b)])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


#: Each CSR array of a schema-"3" layer and the little-endian dtype of its
#: base64 buffer; schema "2" lists are read into the same dtypes.
ARRAY_DTYPES = {
    "indptr": np.dtype("<i8"),
    "indices": np.dtype("<i4"),
    "data": np.dtype("<f8"),
    "b": np.dtype("<f8"),
}


def _layer_to_dict(W: sp.csr_matrix, b: NDArray[np.float64]) -> dict:
    """Schema "3": ``shape`` plus the base64 of each array's buffer."""
    if W.indices.size and W.indices.max() > np.iinfo(np.int32).max:
        raise ValueError(f"column index {W.indices.max()} does not fit a 32-bit integer")
    arrays = {"indptr": W.indptr, "indices": W.indices, "data": W.data, "b": b}
    layer = {"shape": list(W.shape)}
    for field, dtype in ARRAY_DTYPES.items():
        buffer = np.ascontiguousarray(arrays[field], dtype=dtype)
        layer[field] = base64.b64encode(buffer).decode("ascii")
    return layer


def _envelope(net: ReluNetwork, layers: list) -> dict:
    return {"schema": SCHEMA_VERSIONS["network"], "input_dim": net.input_dim, "layers": layers}


def network_to_dict(net: ReluNetwork) -> dict:
    """Schema "3": each layer's CSR arrays and bias as base64 buffers."""
    return _envelope(net, [_layer_to_dict(W, b) for W, b in net.layers])


def _from_buffer(text, field: str) -> NDArray:
    """A schema-"3" array: the base64 ``text`` of a ``ARRAY_DTYPES[field]``
    buffer, decoded into a new, writeable array of native byte order."""
    if not isinstance(text, str):
        raise ValueError(f"{field} must be a base64 string, not {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or text that is not ASCII
        raise ValueError(f"{field} is not base64: {exc}") from None
    dtype = ARRAY_DTYPES[field]
    if len(raw) % dtype.itemsize:
        raise ValueError(
            f"{field} holds {len(raw)} bytes, not a multiple of {dtype.itemsize} ({dtype.str})"
        )
    return np.frombuffer(raw, dtype).astype(dtype.newbyteorder("="))


def _from_list(values, field: str, dtype: np.dtype | None = None) -> NDArray:
    """A schema-"2" (or "1") array: a JSON list of integers for an integer
    dtype, of numbers otherwise; bools and strings are refused."""
    dtype = ARRAY_DTYPES[field] if dtype is None else dtype
    if not isinstance(values, list):
        raise ValueError(f"{field} must be a list, not {type(values).__name__}")
    want, kind = (numbers.Integral, "integers") if dtype.kind == "i" else (numbers.Real, "numbers")
    for t in set(map(type, values)):
        if issubclass(t, bool) or not issubclass(t, want):
            raise ValueError(f"{field} must hold {kind}, not {t.__name__}")
    return np.array(values, dtype=dtype.newbyteorder("="))


def _checked_layer(shape: tuple[int, int], indptr: NDArray, indices: NDArray, data: NDArray,
                   b: NDArray, weights: str = "data") -> tuple[sp.csr_matrix, NDArray[np.float64]]:
    """The one validator of every schema's layer: ``(W, b)``, or ValueError
    naming the field if the arrays are not a finite CSR matrix of ``shape``
    (the shape chain and bias length are :class:`ReluNetwork`'s checks).
    ``weights`` names the field the file holds ``data`` in."""
    if indptr.size != shape[0] + 1:
        raise ValueError(
            f"indptr: index pointer size {indptr.size} is not rows + 1 = {shape[0] + 1}"
        )
    if indices.size != data.size:
        raise ValueError(f"indices has {indices.size} entries and data {data.size}")
    for field, values in ((weights, data), ("b", b)):
        if not np.isfinite(values).all():
            raise ValueError(f"{field} holds a non-finite value")
    W = sp.csr_matrix((data, indices, indptr), shape=shape)
    W.check_format(full_check=True)  # the constructor skips index bounds
    if W.nnz != data.size:  # the constructor drops entries past indptr[-1]
        raise ValueError(f"indptr covers {W.nnz} of {data.size} stored entries")
    return W, b


def _layer_from_dict(layer: dict, schema: str) -> tuple[sp.csr_matrix, NDArray[np.float64]]:
    """One layer of any schema, read into arrays and through :func:`_checked_layer`."""
    if schema == "1":
        rows = layer["W"]
        if not isinstance(rows, list) or not rows:
            raise ValueError("W must be a non-empty list of rows")
        rows = [_from_list(row, "W", ARRAY_DTYPES["data"]) for row in rows]
        if len({row.size for row in rows}) != 1:
            raise ValueError("W rows differ in length")
        W, b = sp.csr_matrix(np.stack(rows)), _from_list(layer["b"], "b")
        return _checked_layer(W.shape, W.indptr, W.indices, W.data, b, weights="W")
    shape = layer["shape"]
    if not isinstance(shape, list) or len(shape) != 2:
        raise ValueError(f"shape must be [rows, cols], not {shape!r}")
    read = _from_buffer if schema == "3" else _from_list
    return _checked_layer(
        tuple(as_int(n, "shape") for n in shape), *(read(layer[f], f) for f in ARRAY_DTYPES)
    )


def network_from_dict(d: dict) -> ReluNetwork:
    """Reads schema "3", "2" or the older dense "1" into CSR layers.

    A malformed dict raises ValueError, naming the layer and field when one
    layer is at fault (DimensionMismatch if shapes do not chain).  Repeated
    column indices in a row are summed, as a product would.
    """
    if not isinstance(d, dict):
        raise ValueError(f"a network must be a JSON object, not {type(d).__name__}")
    schema = d.get("schema", "1")
    if schema not in ("1", "2", SCHEMA_VERSIONS["network"]):
        raise ValueError(f"unsupported network schema {schema!r}")
    try:
        layer_dicts = list(d["layers"])
        input_dim = as_int(d["input_dim"], "input_dim")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed network dict: {exc!r}") from exc
    layers = []
    for idx, layer in enumerate(layer_dicts):
        try:
            layers.append(_layer_from_dict(layer, schema))
        except KeyError as exc:
            raise ValueError(f"malformed network layer {idx}: no field {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed network layer {idx}: {exc}") from exc
    return ReluNetwork(input_dim, layers)


def save_network(net: ReluNetwork, path: str) -> None:
    """Writes ``json.dumps(network_to_dict(net))`` one layer at a time, and
    each layer one field at a time (the encoder's chunks, not one joined
    string), so the text of only one layer is held at once."""
    head, tail = json.dumps(_envelope(net, [])).rsplit("[]", 1)
    encode = json.JSONEncoder().iterencode
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + "[")
        for idx, (W, b) in enumerate(net.layers):
            if idx:
                fh.write(", ")
            fh.writelines(encode(_layer_to_dict(W, b)))
        fh.write("]" + tail)


def load_network(path: str) -> ReluNetwork:
    with open(path, encoding="utf-8") as fh:
        return network_from_dict(json.load(fh))
