"""Network container, composition operators, builder, and independence.

Oracles: direct numpy forward passes, the row-major loop evaluation used
before it chunked, np.minimum/np.maximum for gadget outputs, and numpy
matrix rank for the independence check.
"""

import base64
import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from helpers import b64_array, net_per_compile_path
from hypothesis import given, settings
from hypothesis import strategies as st

import cpwlrelu.relu_net as R
from cpwlrelu.errors import DimensionMismatch, EmptyList, PairwiseDependent
from cpwlrelu.relu_net import (
    OPS,
    NetBuilder,
    ReluNetwork,
    affine_network,
    eval_network,
    independence_check,
    linear_combine,
    load_network,
    network_from_dict,
    network_stats,
    network_to_dict,
    pad_network,
    parallel,
    relu,
    save_network,
)


def _random_net(rng, d=2, widths=(5, 4), out=1):
    layers = []
    prev = d
    for w in widths:
        layers.append((rng.normal(size=(w, prev)), rng.normal(size=w)))
        prev = w
    layers.append((rng.normal(size=(out, prev)), rng.normal(size=out)))
    return ReluNetwork(d, layers)


def _forward_oracle(layers, X):
    act = X
    for W, b in layers[:-1]:
        act = np.maximum(act @ W.toarray().T + b, 0.0)
    W, b = layers[-1]
    return act @ W.toarray().T + b


# ---------------------------------------------------------------------------
# Evaluation and stats
# ---------------------------------------------------------------------------


def test_eval_matches_manual_forward(rng):
    net = _random_net(rng)
    X = rng.normal(size=(100, 2))
    ref = _forward_oracle(net.layers, X)
    assert np.allclose(eval_network(net, X), ref.ravel(), atol=1e-12)


def test_eval_single_point_scalar(rng):
    net = _random_net(rng)
    v = eval_network(net, np.array([0.3, -0.2]))
    assert np.isscalar(v) or np.asarray(v).shape == ()


def test_affine_network():
    net = affine_network(np.array([2.0, -1.0]), 0.25)
    X = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert np.allclose(eval_network(net, X), [1.25, 0.25])
    assert net.hidden_layer_count == 0
    assert network_stats(net).size == 0


def test_network_stats_counts(rng):
    net = _random_net(rng, d=3, widths=(4, 2))
    s = network_stats(net)
    assert s.hidden_layers == 2
    assert s.size == 6
    dense_params = sum(np.count_nonzero(W.toarray()) for W, _ in net.layers)
    assert s.nonzero_params >= dense_params  # biases may add to the count


# ---------------------------------------------------------------------------
# Composition operators
# ---------------------------------------------------------------------------


def test_pad_preserves_function(rng):
    net = _random_net(rng)
    for extra in (1, 2, 4):
        padded = pad_network(net, net.hidden_layer_count + extra)
        assert padded.hidden_layer_count == net.hidden_layer_count + extra
        X = rng.normal(size=(200, 2))
        assert np.max(np.abs(eval_network(padded, X) - eval_network(net, X))) < 1e-10
        # identity carry costs exactly two neurons per inserted level
        assert network_stats(padded).size == network_stats(net).size + 2 * extra


def test_parallel_stacks_outputs(rng):
    a = _random_net(rng, widths=(3,))
    b = _random_net(rng, widths=(4, 2))
    both = parallel([a, b])
    X = rng.normal(size=(50, 2))
    va = eval_network(a, X)
    vb = eval_network(b, X)
    out = eval_network(both, X)
    assert out.shape == (50, 2)
    assert np.max(np.abs(out[:, 0] - va)) < 1e-10
    assert np.max(np.abs(out[:, 1] - vb)) < 1e-10


def test_parallel_empty_rejected():
    with pytest.raises(EmptyList):
        parallel([])


def test_composition_builds_csr(rng):
    a = _random_net(rng, widths=(3,))
    b = _random_net(rng, widths=(4, 2))
    for net in (pad_network(a, 3), parallel([a, b]),
                linear_combine([a, b], np.array([1.0, 2.0]))):
        assert all(sp.isspmatrix_csr(W) for W, _ in net.layers)


def test_builder_continues_a_seed_network(rng):
    """Seeding on two nets side by side and adding a max gadget gives their
    max; only the first emitted layer may carry bias."""
    a = _random_net(rng, widths=(3,))
    b = _random_net(rng, widths=(4,))
    nb = NetBuilder(parallel([a, b]))
    assert (nb.level, nb.width) == (1, 2)
    _level(nb, ("max", 0, 1))
    _level(nb, ("id", 0))
    net = nb.finish([([1.0], [0])])
    X = rng.normal(size=(200, 2))
    ref = np.maximum(eval_network(a, X), eval_network(b, X))
    assert np.max(np.abs(eval_network(net, X) - ref)) < 1e-10
    assert net.hidden_layer_count == 3
    assert np.all(net.layers[2][1] == 0.0)


def test_linear_combine(rng):
    a = _random_net(rng, widths=(3,))
    b = _random_net(rng, widths=(4,))
    combo = linear_combine([a, b], np.array([2.0, -0.5]), bias=1.0)
    X = rng.normal(size=(80, 2))
    ref = 2.0 * eval_network(a, X) - 0.5 * eval_network(b, X) + 1.0
    assert np.max(np.abs(eval_network(combo, X) - ref)) < 1e-10


# ---------------------------------------------------------------------------
# Builder: min/max/id levels
# ---------------------------------------------------------------------------


def _seed(G, offsets):
    """A builder continuing the zero-hidden-layer network ``G x + offsets``,
    and its level-0 channels, one per row of ``G``."""
    G = np.array(G, dtype=float)
    nb = NetBuilder(ReluNetwork(G.shape[1], [(G, np.array(offsets, dtype=float))]))
    return nb, list(range(G.shape[0]))


def _level(nb, *ops):
    """``nb.apply_level`` on operations written ``(kind, a)`` or
    ``(kind, a, b)`` over current-level channels; a missing operand is -1."""
    codes = [OPS.index(kind) for kind, *_ in ops]
    args = [(list(args) + [-1, -1])[:2] for _, *args in ops]
    nb.apply_level(codes, [a for a, _ in args], [b for _, b in args])


def test_builder_min_max_gadgets(rng):
    d = 2
    a_vec, a_off = np.array([1.0, -2.0]), 0.3
    b_vec, b_off = np.array([-0.5, 0.7]), -0.1
    for kind, oracle in (("min", np.minimum), ("max", np.maximum)):
        nb, (ca, cb) = _seed([a_vec, b_vec], [a_off, b_off])
        _level(nb, (kind, ca, cb))
        net = nb.finish([([1.0], [0])])
        X = rng.uniform(-3, 3, size=(500, d))
        ref = oracle(X @ a_vec + a_off, X @ b_vec + b_off)
        # affine channels are merged into the first layer, so equality is
        # up to one rounding of the merged matmul (exact-zero holds for the
        # raw scalar gadget; see the acceptance suite)
        assert np.max(np.abs(eval_network(net, X) - ref)) < 1e-12
        assert net.hidden_layer_count == 1
        assert network_stats(net).size == 3


def test_builder_id_carry(rng):
    """Two levels of carry of ``x`` and one of the gadget ``max(x, x) = x``:
    each level of carry is two neurons and leaves the value unchanged."""
    nb, (c,) = _seed([[1.0]], [0.0])
    _level(nb, ("id", c), ("max", c, c))  # channels c1 = 0, m = 1
    _level(nb, ("id", 1), ("id", 0))  # m2 = 0, c2 = 1
    net = nb.finish([([1.0], [0]), ([1.0], [1])])
    X = np.linspace(-2, 2, 101)[:, None]
    assert np.array_equal(eval_network(net, X), np.hstack([X, X]))
    assert net.hidden_widths == [2 + 3, 2 + 2]


def test_builder_relu_is_one_exact_neuron(rng):
    """``("relu", a)`` adds the one neuron ``max(a, 0)`` with output weight
    1, on a seed channel and on a gadget's channel; bit-exact on [-1, 1]
    (see the scalar gadget test in the compiler suite)."""
    nb, (c,) = _seed([[1.0]], [0.0])
    _level(nb, ("relu", c))
    net = nb.finish([([1.0], [0])])
    assert net.size == 1
    assert [W.toarray().tolist() for W, _ in net.layers] == [[[1.0]], [[1.0]]]
    X = np.linspace(-2, 2, 101)[:, None]
    assert np.array_equal(eval_network(net, X), np.maximum(X[:, 0], 0.0))

    nb, (a, b) = _seed(np.eye(2), [0.0, 0.0])
    _level(nb, ("min", a, b))
    _level(nb, ("relu", 0))
    net = nb.finish([([1.0], [0])])
    assert net.hidden_widths == [3, 1]
    assert np.all(net.layers[1][1] == 0.0)
    X = rng.uniform(-1.0, 1.0, size=(2000, 2))
    assert np.array_equal(eval_network(net, X), np.maximum(X.min(axis=1), 0.0))


def test_builder_rejects_wrong_operand_counts():
    """Each operation takes exactly its gadget's operands: ``("min", a)``
    is an error, not ``min(a, 0)``; so is an operation code outside ``OPS``."""
    nb, (a, b) = _seed([[1.0], [2.0]], [0.0, 0.0])
    for op in [("min", a), ("max", -1, b), ("id", a, b), ("relu", a, b), ("relu",)]:
        with pytest.raises(ValueError, match="operands"):
            _level(nb, op)
    with pytest.raises(ValueError, match="unknown builder operation"):
        nb.apply_level([len(OPS)], [a], [b])
    assert nb.level == 0 and not nb.layers


def test_builder_levels_have_zero_bias(rng):
    nb, (a, b) = _seed([[1.0, 1.0], [1.0, -1.0]], [0.5, -0.2])
    _level(nb, ("min", a, b))
    _level(nb, ("relu", 0))
    net = nb.finish([([0.5], [0])])
    assert net.hidden_layer_count == 2
    for W, bias in net.layers[1:]:
        assert np.all(np.asarray(bias) == 0.0)


@pytest.mark.parametrize("kind", ["min", "max"])
def test_builder_gadget_reading_one_channel_twice(rng, kind):
    """``min(a, a) = max(a, a) = a``: each neuron's two sign entries land on
    one channel and the product sums them, so the neurons see ``(sa + sb) a``
    and a neuron with ``sa + sb = 0`` stores no weight."""
    a_vec, a_off = np.array([1.5, -2.0]), 0.25
    nb, (a,) = _seed([a_vec], [a_off])
    _level(nb, (kind, a, a))
    net = nb.finish([([1.0], [0])])
    W, b = net.layers[0]
    twice = np.array([sa + sb for sa, sb in R.GADGETS[kind][0]])
    assert np.array_equal(W.toarray(), np.outer(twice, a_vec))
    assert W.nnz == 2 * np.count_nonzero(twice)
    assert np.array_equal(b, twice * a_off)
    X = rng.uniform(-3, 3, size=(200, 2))
    assert np.max(np.abs(eval_network(net, X) - (X @ a_vec + a_off))) < 1e-12


def test_builder_finish_at_level_0_sums_shared_columns(rng):
    """Output rows over level-0 channels add their terms' weights column by
    column in term order; sums that cancel store nothing."""
    rows = [np.array([1e16, 1.0]), np.array([1.0, 0.0]), np.array([-1e16, 2.0])]
    offs = [1e16, 1.0, -1e16]
    nb, (*chans, x0) = _seed([*rows, [1.0, 0.0]], [*offs, 0.0])  # x0: the input x_0
    net = nb.finish([([1.0, 1.0, 1.0], chans), ([1.0, -1.0], [x0, x0])])
    W, b = net.layers[0]
    expected_row, expected_bias = np.zeros(2), 0.0
    for r, o in zip(rows, offs):
        expected_row += r
        expected_bias += o
    assert expected_row[0] == 0.0 and expected_bias == 0.0  # (1e16 + 1) - 1e16
    assert np.array_equal(W.toarray(), [expected_row, [0.0, 0.0]])
    assert W.nnz == 1
    assert np.array_equal(b, [expected_bias, 0.0])
    assert net.hidden_layer_count == 0


def test_builder_rejects_misplaced_channels():
    """A channel is a row of the current level: a row past the level's
    width, or a negative one, is refused before any layer is written."""
    with pytest.raises(DimensionMismatch):  # a 1-wide row on a 2-d input
        NetBuilder(ReluNetwork(2, [(np.array([[1.0]]), np.array([0.0]))]))
    nb, (x, y) = _seed([[1.0], [2.0]], [0.0, 0.0])
    _level(nb, ("id", x))  # level 1 has one channel
    with pytest.raises(ValueError, match="channel 1 is not one of the 1 channels of level 1"):
        _level(nb, ("max", 0, y))
    with pytest.raises(ValueError, match="channel 2 is not one of the 1 channels of level 1"):
        nb.finish([([1.0], [2])])
    with pytest.raises(ValueError, match="channel -2 is not one of"):
        nb.finish([([1.0], [-2])])
    assert nb.level == 1 and len(nb.layers) == 1


# ---------------------------------------------------------------------------
# Independence check
# ---------------------------------------------------------------------------


def test_independence_random_units(rng):
    for m, d in ((3, 1), (6, 2), (10, 3)):
        W = rng.normal(size=(m, d))
        b = rng.normal(size=m)
        assert independence_check(W, b, rng)


def test_independence_detects_proportional_pair(rng):
    W = rng.normal(size=(5, 2))
    b = rng.normal(size=5)
    W[3] = -2.5 * W[1]
    b[3] = -2.5 * b[1]
    with pytest.raises(PairwiseDependent):
        independence_check(W, b, rng)


def test_independence_rank_oracle(rng):
    """Feature matrix rank equals the unit count, checked with numpy."""
    m, d = 7, 2
    W = rng.normal(size=(m, d))
    b = rng.normal(size=m)
    X = rng.uniform(-10, 10, size=(300, d))
    F = np.maximum(X @ W.T + b, 0.0)
    assert np.linalg.matrix_rank(F) == m
    assert independence_check(W, b, rng)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_roundtrip_dense_and_sparse(rng, tmp_path):
    dense = _random_net(rng)
    Ws = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -0.5]]))
    sparse_net = ReluNetwork(
        2, [(Ws, np.zeros(2)), (np.array([[0.5, 1.0]]), np.zeros(1))]
    )
    for i, net in enumerate((dense, sparse_net)):
        p = tmp_path / f"net{i}.json"
        save_network(net, str(p))
        back = load_network(str(p))
        X = rng.normal(size=(50, 2))
        assert np.max(np.abs(eval_network(back, X) - eval_network(net, X))) == 0.0


def test_dict_schema_version(rng):
    d = network_to_dict(_random_net(rng))
    assert d["schema"] == "3"
    network_from_dict(d)


def test_roundtrip_large_sparse_layer_is_exact(tmp_path):
    """A 2100 x 2100 hidden layer: 4.4 M entries, 2100 of them nonzero."""
    n = 2100
    eye = sp.identity(n, format="csr")
    net = ReluNetwork(
        n, [(eye, np.zeros(n)), (eye, np.zeros(n)), (np.ones((1, n)), np.zeros(1))]
    )
    p = tmp_path / "big.json"
    save_network(net, str(p))
    back = load_network(str(p))
    for (W, b), (W2, b2) in zip(net.layers, back.layers):
        assert sp.isspmatrix_csr(W2)
        for arr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(W, arr), getattr(W2, arr))
        assert np.array_equal(b, b2)
    X = np.random.default_rng(0).normal(size=(20, n))
    assert np.max(np.abs(eval_network(back, X) - eval_network(net, X))) == 0.0


def test_schema_1_dict_loads_as_csr(rng):
    W0, b0 = [[1.0, -2.0], [0.0, 0.5], [0.25, 0.0]], [0.25, -1.0, 0.0]
    W1, b1 = [[0.5, -1.0, 2.0]], [0.75]
    net = network_from_dict({
        "schema": "1", "input_dim": 2,
        "layers": [{"W": W0, "b": b0}, {"W": W1, "b": b1}],
    })
    assert all(sp.isspmatrix_csr(W) for W, _ in net.layers)
    assert net.layers[0][0].nnz == 4
    # dyadic weights and points: every sum and product below is exact
    X = rng.integers(-8, 9, size=(50, 2)) / 4.0
    ref = np.maximum(X @ np.array(W0).T + b0, 0.0) @ np.array(W1).T + b1
    assert np.array_equal(eval_network(net, X), ref[:, 0])


def _schema_2_one_row():
    """``ReluNetwork(2, [([[1.0, 0.0]], [0.0])])`` as schema "2" writes it."""
    return {"schema": "2", "input_dim": 2, "layers": [
        {"shape": [1, 2], "indptr": [0, 1], "indices": [0], "data": [1.0], "b": [0.0]}]}


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("indices", [5], "indices must be < 2"),  # column out of range
        ("indptr", [0], "index pointer size"),  # one entry short
        ("indices", [0.5], "must hold integers"),
        ("indptr", [0, 0], "covers 0 of 1"),  # the stored entry left out
        ("shape", [1, 2.5], "malformed"),
        ("b", None, "malformed"),  # missing field
        ("shape", [True, 2], "shape must be an integer, not True"),
        ("data", ["1.0"], "data must hold numbers, not str"),
        ("b", ["0.5"], "b must hold numbers, not str"),
        ("data", [True], "data must hold numbers, not bool"),
        ("indices", [True], "indices must hold integers, not bool"),
        ("data", [float("nan")], "data holds a non-finite value"),  # the NaN token
        ("b", [float("inf")], "b holds a non-finite value"),  # the Infinity token
        ("indptr", "AAAAAAAAAAABAAAAAAAAAA==", "indptr must be a list, not str"),
    ],
)
def test_loader_rejects_malformed_layer(field, value, message):
    """Schema-"2" lists, read through JSON text as a file would be."""
    d = _schema_2_one_row()
    if value is None:
        del d["layers"][0][field]
    else:
        d["layers"][0][field] = value
    with pytest.raises(ValueError, match=message) as info:
        network_from_dict(json.loads(json.dumps(d)))
    assert str(info.value).startswith("malformed network layer 0: ")
    assert field in str(info.value)


def _two_layers():
    return ReluNetwork(2, [(np.eye(2), np.zeros(2)), (np.array([[1.0, 0.0]]), np.zeros(1))])


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("indices", "AAAA!AAA", "indices is not base64"),
        ("data", "AAAAAAAA\u00e9AA=", "data is not base64: .*ASCII"),
        ("data", "AAAAAAAAAAA", "data is not base64: .*padding"),
        ("indptr", base64.b64encode(bytes(7)).decode(), "indptr holds 7 bytes, not a multiple"),
        ("indices", base64.b64encode(bytes(6)).decode(), "indices holds 6 bytes, not a multiple"),
        ("indptr", b64_array("indptr", [0]), "indptr: index pointer size 1 is not rows \\+ 1 = 2"),
        ("data", b64_array("data", [1.0, 2.0]), "indices has 1 entries and data 2"),
        ("b", [0.0], "b must be a base64 string, not list"),
        ("indices", b64_array("indices", [5]), "indices must be < 2"),
        ("indices", b64_array("indices", [-1]), "indices must be >= 0"),
        ("data", b64_array("data", [np.nan]), "data holds a non-finite value"),
        ("b", b64_array("b", [-np.inf]), "b holds a non-finite value"),
    ],
)
def test_loader_rejects_malformed_buffer(tmp_path, field, value, message):
    """Each fault of a schema-"3" layer names the layer and the field, and the
    CLI refuses the file with exit code 1."""
    from cpwlrelu.cli import main

    d = network_to_dict(_two_layers())
    d["layers"][1][field] = value
    with pytest.raises(ValueError, match=message) as info:
        network_from_dict(d)
    assert str(info.value).startswith("malformed network layer 1: ")
    assert field in str(info.value)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(d))
    assert main(["check-structured", "--net", str(path)]) == 1


@pytest.mark.parametrize(
    "W, b, message",
    [
        ([[1.0, float("nan")]], [0.0], "W holds a non-finite value"),
        ([[1.0, 0.0]], [float("-inf")], "b holds a non-finite value"),
        ([[1.0, "0"]], [0.0], "W must hold numbers, not str"),
        ([[1.0, 0.0], [1.0]], [0.0, 0.0], "W rows differ in length"),
    ],
)
def test_schema_1_loader_rejects_malformed_layer(W, b, message):
    d = {"schema": "1", "input_dim": 2, "layers": [{"W": W, "b": b}]}
    with pytest.raises(ValueError, match=f"malformed network layer 0: {message}"):
        network_from_dict(json.loads(json.dumps(d)))


def test_schema_2_dict_loads_as_schema_3_roundtrip():
    """A literal schema-"2" dict, as schema-"2" writers wrote it, loads to the
    arrays of the schema-"3" round trip, sign bits of ``-0.0`` included."""
    old = network_from_dict(json.loads(json.dumps({"schema": "2", "input_dim": 2, "layers": [
        {"shape": [3, 2], "indptr": [0, 2, 3, 4], "indices": [0, 1, 1, 0],
         "data": [1.0, -2.0, 0.5, 0.25], "b": [0.25, -0.0, 0.0]},
        {"shape": [1, 3], "indptr": [0, 3], "indices": [0, 1, 2],
         "data": [0.5, -1.0, 2.0], "b": [-0.0]},
    ]})))
    net = ReluNetwork(2, [
        (np.array([[1.0, -2.0], [0.0, 0.5], [0.25, 0.0]]), np.array([0.25, -0.0, 0.0])),
        (np.array([[0.5, -1.0, 2.0]]), np.array([-0.0])),
    ])
    new = network_from_dict(json.loads(json.dumps(network_to_dict(net))))
    for (W, b), (W2, b2) in zip(old.layers, new.layers):
        for arr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(W, arr), getattr(W2, arr)), arr
        assert np.array_equal(b, b2) and np.array_equal(np.signbit(b), np.signbit(b2))
    assert np.signbit(new.layers[1][1][0]) and np.signbit(new.layers[0][1][1])


def test_loaded_arrays_are_writeable(tmp_path):
    """Decoded buffers are copied out of the immutable ``bytes``, so the
    loaded network can be changed in place like any other."""
    path = tmp_path / "net.json"
    save_network(_two_layers(), str(path))
    net = load_network(str(path))
    for W, b in net.layers:
        assert all(a.flags.writeable for a in (W.indptr, W.indices, W.data, b))
    net.layers[0][0].data *= 2.0
    net.layers[0][1][:] = 1.0
    assert np.array_equal(eval_network(net, np.array([1.0, 0.0])), 3.0)


def test_writer_refuses_columns_past_32_bits():
    W = sp.csr_matrix(
        (np.ones(1), np.array([2**31], dtype=np.int64), np.array([0, 1])), shape=(1, 2**31 + 1)
    )
    net = ReluNetwork(2**31 + 1, [(W, np.zeros(1))])
    with pytest.raises(ValueError, match="column index 2147483648 does not fit"):
        network_to_dict(net)


@pytest.mark.parametrize(
    "width, input_dim", [(2, 2.7), (1, True), (2, "2")], ids=["float", "bool", "str"]
)
def test_loader_rejects_non_integer_input_dim(width, input_dim):
    """``int()`` would read 2.7 as 2, True as 1 and "2" as 2, and each of
    these networks would then load."""
    d = network_to_dict(ReluNetwork(width, [(np.ones((1, width)), np.zeros(1))]))
    d["input_dim"] = input_dim
    with pytest.raises(ValueError, match="input_dim must be an integer"):
        network_from_dict(d)
    d["input_dim"] = float(width)  # an integral float is the same count
    assert network_from_dict(d).input_dim == width


def _duplicate_csr():
    # row 0 stores column 0 twice (1.0 and 1.0): a product reads weight 2.0
    return sp.csr_matrix(
        (np.array([1.0, 1.0, 0.5]), np.array([0, 0, 1]), np.array([0, 2, 3])),
        shape=(2, 2),
    )


def test_duplicate_indices_are_summed_on_construction():
    W = _duplicate_csr()
    net = ReluNetwork(2, [(W, np.zeros(2))])
    W2 = net.layers[0][0]
    assert W2.has_canonical_format
    assert np.array_equal(W2.indices, [0, 1]) and np.array_equal(W2.data, [2.0, 0.5])
    assert np.array_equal(W.indices, [0, 0, 1])  # the caller's matrix is untouched
    X = np.array([[1.0, 2.0], [-3.0, 0.5]])
    assert np.array_equal(eval_network(net, X), X @ np.array([[2.0, 0.0], [0.0, 0.5]]).T)


def test_loader_sums_duplicate_indices():
    d = network_to_dict(ReluNetwork(2, [(np.eye(2), np.zeros(2))]))
    W = _duplicate_csr()
    d["layers"][0].update({f: b64_array(f, getattr(W, f)) for f in ("indptr", "indices", "data")})
    W2 = network_from_dict(d).layers[0][0]
    assert np.array_equal(W2.toarray(), [[2.0, 0.0], [0.0, 0.5]])
    assert W2.nnz == 2


# ---------------------------------------------------------------------------
# The column-major forward loop
# ---------------------------------------------------------------------------


def _row_major_eval(net, X):
    """The row-major forward pass ``eval_network`` used before it chunked:
    one ``(n, width)`` block per layer on the whole batch."""
    X = np.asarray(X, dtype=float)
    single = X.ndim == 1
    act = np.atleast_2d(X)
    for idx, (W, b) in enumerate(net.layers):
        act = np.asarray((W @ act.T).T + b)
        if idx < net.hidden_layer_count:
            act = relu(act)
    if net.output_dim == 1:
        return float(act[0, 0]) if single else act[:, 0]
    return act[0] if single else act


def _equal_to_row_major(net, X):
    got, want = eval_network(net, X), _row_major_eval(net, X)
    return type(got) is type(want) and np.shape(got) == np.shape(want) and (
        np.array_equal(got, want)
    )


def _loop_nets(rng):
    nets = net_per_compile_path(rng)
    nets["multi-output"] = _random_net(rng, widths=(6, 5), out=3)
    return nets


@pytest.mark.parametrize("chunked", [False, True])
def test_eval_equals_row_major_loop(rng, monkeypatch, chunked):
    X = rng.uniform(0, 1, size=(37, 2))
    for name, net in _loop_nets(rng).items():
        if chunked:  # chunks of 4 points: nine full ones and a ragged one
            widest = max(W.shape[0] for W, _ in net.layers)
            monkeypatch.setattr(R, "EVAL_CHUNK_ENTRIES", 4 * widest)
        assert _equal_to_row_major(net, X), name
        assert _equal_to_row_major(net, X[5]), name  # scalar or (q,)
        assert _equal_to_row_major(net, X[:0]), name  # empty (0, d) batch


def test_eval_chunk_size_is_pinned_by_the_entry_budget(monkeypatch):
    width = 5000
    rng = np.random.default_rng(3)
    W = sp.random(width, 2, density=0.5, random_state=4, format="csr")
    net = ReluNetwork(2, [(W, rng.normal(size=width)), (np.ones((1, width)), np.zeros(1))])
    seen = []
    inner = R.layer_outputs

    def recording(net, A):
        seen.append(A.shape)
        yield from inner(net, A)

    monkeypatch.setattr(R, "layer_outputs", recording)
    n = 2000
    X = rng.normal(size=(n, 2))
    got = eval_network(net, X)
    chunk = R.EVAL_CHUNK_ENTRIES // width
    assert chunk == 838
    assert seen == [(2, chunk), (2, chunk), (2, n - 2 * chunk)]
    assert np.array_equal(got, _row_major_eval(net, X))


def test_eval_memory_is_bounded_by_the_entry_budget():
    """Two 4096-wide sparse hidden layers on 4096 points: the row-major loop
    allocates several 128 MiB blocks; the chunked loop holds two chunks."""
    width, n = 4096, 4096
    rng = np.random.default_rng(5)
    W0 = sp.random(width, 2, density=0.5, random_state=6, format="csr")
    W1 = sp.random(width, width, density=1e-3, random_state=7, format="csr")
    net = ReluNetwork(2, [
        (W0, rng.normal(size=width)),
        (W1, np.zeros(width)),
        (np.ones((1, width)), np.zeros(1)),
    ])
    X = rng.normal(size=(n, 2))
    tracemalloc.start()
    try:
        out = eval_network(net, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (n,)
    assert peak < 3 * 8 * R.EVAL_CHUNK_ENTRIES + out.nbytes, peak


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), extra=st.integers(1, 3))
def test_property_pad_preserves(seed, extra):
    rng = np.random.default_rng(seed)
    net = _random_net(rng, d=int(rng.integers(1, 4)), widths=(int(rng.integers(2, 6)),))
    padded = pad_network(net, net.hidden_layer_count + extra)
    X = rng.normal(size=(60, net.input_dim))
    assert np.max(np.abs(eval_network(padded, X) - eval_network(net, X))) < 1e-9


@settings(max_examples=30, deadline=None)
@given(a=st.floats(-1e6, 1e6), b=st.floats(-1e6, 1e6))
def test_property_relu_pair_identity(a, b):
    # relu(x) - relu(-x) reconstructs x exactly in floating point
    assert relu(np.array([a]))[0] - relu(np.array([-a]))[0] == a
    assert relu(np.array([b]))[0] >= 0.0
