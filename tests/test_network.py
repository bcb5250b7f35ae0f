"""Network representation, evaluation, composition, and serialization."""

import json
import os
import tracemalloc

import numpy as np
import pytest

from reluconstruct import (
    CompositionError,
    ParseError,
    ReluNetwork,
    SampleSet,
    ShapeError,
    affine_post,
    build_1d,
    build_dd,
    compose,
    deserialize,
    evaluate,
    evaluate_batch,
    holder_family,
    lemma1_interpolant,
    parameter_count,
    serialize,
)
from reluconstruct import construct, network
from reluconstruct.cpl import _fit_one_layer_row


def naive_eval(net, x):
    """Independent straightforward matrix-chain recomputation (pure Python)."""
    h = [float(v) for v in np.atleast_1d(x)]
    for w, b in net.layers[:-1]:
        h = [
            max(0.0, sum(w[i][j] * h[j] for j in range(len(h))) + b[i])
            for i in range(len(b))
        ]
    w, b = net.layers[-1]
    return sum(w[0][j] * h[j] for j in range(len(h))) + b[0]


def out_of_place(net, xs):
    """The layer chain as one product per layer, with no blocking or buffers."""
    h = xs.reshape(len(xs), -1)
    for w, b in net.layers[:-1]:
        h = np.maximum(h @ w.T + b, 0.0)
    w, b = net.layers[-1]
    return (h @ w.T + b)[:, 0]


def random_net(rng, input_dim, widths, scale=1.0):
    layers = []
    prev = input_dim
    for w in list(widths) + [1]:
        layers.append((scale * rng.standard_normal((w, prev)), scale * rng.standard_normal(w)))
        prev = w
    return ReluNetwork(input_dim, tuple(layers))


def relu_identity_net():
    """sigma(x): identity on nonnegatives."""
    return ReluNetwork(1, ((np.array([[1.0]]), np.array([0.0])), (np.array([[1.0]]), np.array([0.0]))))


class TestEvaluate:
    def test_single_hidden_node_is_relu(self):
        net = relu_identity_net()
        assert evaluate(net, -1.0) == 0.0
        assert evaluate(net, 2.0) == 2.0

    def test_identity_interpolant(self):
        net = lemma1_interpolant(SampleSet([0.0, 1.0], [0.0, 1.0]))
        assert evaluate(net, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_matches_naive_recomputation(self):
        rng = np.random.default_rng(42)
        net = random_net(rng, 3, [5, 4])
        xs = rng.uniform(-2, 2, (10, 3))
        for x in xs:
            assert evaluate(net, x) == pytest.approx(naive_eval(net, x), abs=1e-12)

    def test_dimension_mismatch(self):
        net = relu_identity_net()
        with pytest.raises(ShapeError):
            evaluate(net, [0.5, 0.5])

    def test_nonfinite_input(self):
        net = relu_identity_net()
        with pytest.raises(ShapeError):
            evaluate(net, float("nan"))

    def test_batch_matches_scalar(self):
        # gemm and gemv kernels may order the inner sums differently, so
        # batch and scalar paths agree to rounding, not bit-for-bit
        rng = np.random.default_rng(3)
        net = random_net(rng, 2, [4])
        xs = rng.uniform(0, 1, (20, 2))
        batch = evaluate_batch(net, xs)
        for x, v in zip(xs, batch):
            assert evaluate(net, x) == pytest.approx(v, rel=1e-13, abs=1e-13)

    def test_batch_equals_out_of_place_layers_bit_for_bit(self):
        # rows that fit in one block
        rng = np.random.default_rng(8)
        for input_dim, widths in ((1, [7]), (2, [16, 9]), (3, [33, 5, 12])):
            net = random_net(rng, input_dim, widths)
            xs = rng.uniform(-2, 2, (300, input_dim))
            before = xs.copy()
            want = out_of_place(net, xs)
            got = evaluate_batch(net, xs)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert np.array_equal(xs, before)

    def test_several_blocks_agree_with_one_product(self):
        # build_1d at N = 256 is 513 wide, so its 65,793 grid nodes take 259
        # blocks of 255 rows; the reference takes them 4096 rows a product.
        # BLAS picks its kernels by the row count, so a few values move in
        # their last bits, within the 1e-11 evaluate_batch documents
        c = build_1d(holder_family("cone", 1, 0.5, 1.0), 256)
        net, grid = c.net, c.grid
        assert network._EVAL_BLOCK // max(net.hidden_widths) < grid.size
        want = np.concatenate([out_of_place(net, grid[i:i + 4096])
                               for i in range(0, grid.size, 4096)])
        np.testing.assert_allclose(evaluate_batch(net, grid), want, rtol=0, atol=1e-11)

    @pytest.mark.parametrize("block", [1, 33, 33 * 7, 33 * 1000])
    def test_every_block_size_and_remainder(self, block, monkeypatch):
        # four hidden layers take the two buffers in turn; 1000 rows leave a
        # short last block at 7 rows a block
        rng = np.random.default_rng(11)
        net = random_net(rng, 2, [33, 5, 12, 7])
        xs = rng.uniform(-2, 2, (1000, 2))
        monkeypatch.setattr(network, "_EVAL_BLOCK", block)
        np.testing.assert_allclose(evaluate_batch(net, xs), out_of_place(net, xs),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("input_dim", [1, 3])
    def test_empty_input(self, input_dim):
        net = random_net(np.random.default_rng(10), input_dim, [5, 4])
        assert evaluate_batch(net, np.empty((0, input_dim))).shape == (0,)
        if input_dim == 1:
            assert evaluate_batch(net, []).shape == (0,)

    @pytest.mark.parametrize("rows", [2048, 65536])
    def test_batch_memory_does_not_grow_with_rows(self, rows):
        # three hidden layers of width 256 share two 1 MiB block buffers;
        # besides them the output and small temporaries (ufunc buffers, one
        # output column). Two activation matrices took 256 MiB at 65,536 rows
        rng = np.random.default_rng(9)
        net = random_net(rng, 1, [256, 256, 256])
        xs = rng.uniform(-1, 1, rows)
        tracemalloc.start()
        try:
            evaluate_batch(net, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * network._EVAL_BLOCK * 8 + xs.nbytes + 2**18


class TestValidation:
    def test_chain_violation(self):
        with pytest.raises(ShapeError):
            ReluNetwork(1, ((np.ones((2, 1)), np.zeros(2)), (np.ones((1, 3)), np.zeros(1))))

    def test_final_width_must_be_one(self):
        with pytest.raises(ShapeError):
            ReluNetwork(1, ((np.ones((2, 1)), np.zeros(2)),))

    @pytest.mark.parametrize("input_dim", [True, 1.0, 0, -1, "1", None])
    def test_input_dim_is_a_positive_integer(self, input_dim):
        with pytest.raises(ShapeError, match="input_dim must be a"):
            ReluNetwork(input_dim, ((np.ones((1, 1)), np.zeros(1)),))

    def test_numpy_integer_input_dim_serializes_as_an_int(self):
        net = ReluNetwork(np.int64(1), ((np.ones((1, 1)), np.zeros(1)),))
        assert type(net.input_dim) is int
        assert json.loads(serialize(net))["input_dim"] == 1

    def test_nonfinite_weight(self):
        with pytest.raises(ShapeError):
            ReluNetwork(1, ((np.array([[np.inf]]), np.zeros(1)),))

    @pytest.mark.parametrize("make, match", [
        (lambda: ReluNetwork(1, ()), "a network needs at least one affine layer"),
        (lambda: ReluNetwork(1, ((np.ones(1), np.zeros(1)),)),
         r"layer 0: weight must be \(out, in\), bias \(out,\)"),
        (lambda: ReluNetwork(1, ((np.ones((1, 1)), np.zeros((1, 1))),)),
         r"layer 0: weight must be \(out, in\), bias \(out,\)"),
        (lambda: ReluNetwork(1, ((np.ones((2, 1)), np.zeros(1)),)),
         r"layer 0: weight must be \(out, in\), bias \(out,\)"),
        (lambda: evaluate_batch(ReluNetwork(2, ((np.ones((1, 2)), np.zeros(1)),)), np.zeros(4)),
         "flat input array only valid for input_dim=1"),
        (lambda: evaluate_batch(ReluNetwork(2, ((np.ones((1, 2)), np.zeros(1)),)),
                                np.zeros((4, 3))), "expected points of dimension 2"),
        (lambda: evaluate_batch(relu_identity_net(), np.zeros((2, 2, 1))),
         "expected points of dimension 1"),
    ], ids=["no-layers", "flat-weight", "matrix-bias", "bias-length", "flat-2d-input",
            "wrong-columns", "three-axis-input"])
    def test_input_checks(self, make, match):
        with pytest.raises(ShapeError, match=match):
            make()


class TestCompose:
    def test_relu_identity_outer_preserves_nonnegative_inner(self):
        rng = np.random.default_rng(0)
        inner = lemma1_interpolant(SampleSet([0.0, 0.3, 1.0], [0.5, 2.0, 1.0]))
        net = compose(relu_identity_net(), inner)
        for x in rng.uniform(0, 1, 50):
            assert evaluate(net, x) == pytest.approx(evaluate(inner, x), abs=1e-12)

    def test_matches_sequential_evaluation(self):
        rng = np.random.default_rng(7)
        outer = random_net(rng, 1, [3, 2], scale=0.7)
        inner = random_net(rng, 2, [4], scale=0.7)
        net = compose(outer, inner)
        for x in rng.uniform(-1, 1, (100, 2)):
            assert evaluate(net, x) == pytest.approx(
                evaluate(outer, evaluate(inner, x)), abs=1e-10
            )

    def test_widths_concatenate(self):
        rng = np.random.default_rng(1)
        outer = random_net(rng, 1, [3, 2])
        inner = random_net(rng, 2, [4, 5])
        assert compose(outer, inner).hidden_widths == [4, 5, 3, 2]

    def test_associativity_at_evaluation(self):
        rng = np.random.default_rng(11)
        a = random_net(rng, 1, [3], scale=0.5)
        b = random_net(rng, 1, [2], scale=0.5)
        c = random_net(rng, 1, [4], scale=0.5)
        left = compose(a, compose(b, c))
        right = compose(compose(a, b), c)
        for x in rng.uniform(-1, 1, 50):
            assert evaluate(left, x) == pytest.approx(evaluate(right, x), abs=1e-10)

    def test_interface_mismatch(self):
        rng = np.random.default_rng(2)
        with pytest.raises(CompositionError):
            compose(random_net(rng, 2, [3]), random_net(rng, 1, [2]))


class TestAffinePost:
    def test_identity_transform(self):
        rng = np.random.default_rng(5)
        net = random_net(rng, 1, [4])
        out = affine_post(net, 1.0, 0.0)
        for x in rng.uniform(-1, 1, 20):
            assert evaluate(out, x) == evaluate(net, x)

    def test_constant(self):
        rng = np.random.default_rng(6)
        net = random_net(rng, 1, [4])
        out = affine_post(net, 0.0, 3.5)
        assert all(evaluate(out, x) == 3.5 for x in rng.uniform(-1, 1, 20))

    def test_scaled_relation_to_rounding(self):
        # (s*W)h + (s*b + t) and s*(Wh + b) + t order the roundings
        # differently, so agreement is at the ulp level, not bit-exact
        rng = np.random.default_rng(8)
        net = random_net(rng, 2, [3])
        out = affine_post(net, 1.7, -0.3)
        for x in rng.uniform(0, 1, (20, 2)):
            assert evaluate(out, x) == pytest.approx(
                1.7 * evaluate(net, x) + -0.3, rel=1e-13, abs=1e-13
            )

    def test_architecture_unchanged(self):
        rng = np.random.default_rng(9)
        net = random_net(rng, 1, [4, 2])
        assert affine_post(net, 2.0, 1.0).hidden_widths == net.hidden_widths

    def test_nonfinite_rejected(self):
        net = relu_identity_net()
        with pytest.raises(ValueError):
            affine_post(net, float("inf"), 0.0)


def frozen(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


class TestSharedLayers:
    """A read-only array that owns its memory is shared; anything else is copied."""

    def test_read_only_owner_arrays_are_shared(self):
        w, b = frozen([[1.0], [-1.0]]), frozen([0.0, 0.5])
        net = ReluNetwork(1, ((w, b), (frozen([[1.0, 1.0]]), frozen([0.0]))))
        assert net.layers[0][0] is w and net.layers[0][1] is b

    @pytest.mark.parametrize("make", [
        lambda a: a,
        lambda a: frozen(a)[:, ::1].view(),
        lambda a: a.view(),
        lambda a: a.astype(np.float32),
        lambda a: a.tolist(),
    ], ids=["writeable", "view-of-read-only", "read-only-view-of-writeable", "float32", "list"])
    def test_everything_else_is_copied(self, make):
        w = np.array([[1.0], [-1.0]])
        given = make(w)
        if isinstance(given, np.ndarray) and given.base is w:
            given.setflags(write=False)
        net = ReluNetwork(1, ((given, [0.0, 0.5]), ([[1.0, 1.0]], [0.0])))
        layer = net.layers[0][0]
        assert not np.shares_memory(layer, w) and not layer.flags.writeable
        assert layer.dtype == np.float64 and layer.base is None

    def test_mutating_the_callers_array_leaves_the_network(self):
        w = np.array([[1.0], [-1.0]])
        net = ReluNetwork(1, ((w, np.zeros(2)), (np.ones((1, 2)), np.zeros(1))))
        before = serialize(net)
        w[0, 0] = 5.0
        assert serialize(net) == before

    def test_compose_and_affine_post_share_the_layers_they_keep(self):
        rng = np.random.default_rng(3)
        inner, outer = random_net(rng, 2, [3, 4]), random_net(rng, 1, [5, 6])
        post = affine_post(outer, 2.0, 1.0)
        assert all(a is b for a, b in zip(post.layers[0], outer.layers[0]))
        chained = compose(outer, inner)
        assert chained.layers[0][0] is inner.layers[0][0]
        assert chained.layers[-2][0] is outer.layers[-2][0]

    def test_build_1d_shares_its_hidden_layers_with_the_lemma2_net(self, monkeypatch):
        fits = []
        fit = construct.lemma2_interpolant
        monkeypatch.setattr(construct, "lemma2_interpolant",
                            lambda *a, **k: fits.append(fit(*a, **k)) or fits[-1])
        final = build_1d(holder_family("cone", 1, 0.5, 1.0), 16).net
        shared = [net for net, _ in fits if np.shares_memory(net.layers[1][0], final.layers[1][0])]
        assert len(shared) == 1
        assert all(a is b for a, b in zip(final.layers[0] + final.layers[1],
                                          shared[0].layers[0] + shared[0].layers[1]))

    def test_one_layer_fit_is_the_slope_formula_in_bounded_memory(self):
        # 513 x 513 is the lemma-2 fit at N = 256; a whole-matrix np.diff of
        # the slopes would take a second output-sized array
        rng = np.random.default_rng(513)
        xs = np.cumsum(rng.uniform(0.01, 1.0, 513))
        ys = rng.standard_normal((513, 513))
        slopes = np.diff(ys, axis=-1) / np.diff(xs)
        want = np.concatenate((slopes[..., :1], np.diff(slopes, axis=-1)), axis=-1)
        tracemalloc.start()
        try:
            weights, bias = _fit_one_layer_row(xs, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert weights.tobytes() == want.tobytes() and bias.tobytes() == ys[:, 0].tobytes()
        assert peak < 2 * weights.nbytes
        for a in (weights, bias):
            assert a.base is None and not a.flags.writeable


def extreme_net():
    """Entries whose text is long or signed: -0.0, 1e-300, 1e308 and a subnormal."""
    rng = np.random.default_rng(14)
    net = random_net(rng, 2, [5, 3])
    (w1, b1), (w2, b2), last = (tuple(a.copy() for a in layer) for layer in net.layers)
    w1[0, 0], w1[1, 1], w1[2, 0], b1[3] = -0.0, 1e-300, 1e308, 5e-324
    b2[:] = -0.0, 0.0, -1e308
    return ReluNetwork(2, ((w1, b1), (w2, b2), last))


def document_bytes(net):
    """The interchange document as one ``json.dumps`` of the whole nested list."""
    doc = {"input_dim": net.input_dim,
           "layers": [{"weight": w.tolist(), "bias": b.tolist()} for w, b in net.layers]}
    return json.dumps(doc).encode("utf-8")


class TestSerialization:
    @pytest.mark.parametrize("make", [
        lambda: build_1d(holder_family("cone", 1, 0.5, 1.0), 8).net,
        lambda: build_1d(holder_family("cone", 1, 0.5, 1.0), 64).net,
        lambda: build_1d(holder_family("cone", 1, 0.5, 1.0), 256).net,
        lambda: build_dd(holder_family("cone", 2, 1.0, 1.0), 4).net,
        lambda: random_net(np.random.default_rng(15), 3, [4, 6, 2]),
        extreme_net,
    ], ids=["1d-N8", "1d-N64", "1d-N256", "dd-d2-N4", "random", "extreme"])
    def test_row_writer_gives_the_whole_document_bytes(self, make, tmp_path):
        net = make()
        want = document_bytes(net)
        assert serialize(net) == want
        path = tmp_path / "net.json"
        with open(path, "wb") as fh:
            network._write_network(net, fh)
        assert path.read_bytes() == want

    def test_writing_the_n256_network_holds_one_row(self):
        # the whole document as tolist() floats and text traced 14.9 MiB
        net = build_1d(holder_family("cone", 1, 0.5, 1.0), 256).net
        with open(os.devnull, "wb") as fh:
            tracemalloc.start()
            try:
                network._write_network(net, fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2**20

    def test_round_trip_evaluates_identically(self):
        rng = np.random.default_rng(12)
        net = random_net(rng, 2, [4, 3])
        back = deserialize(serialize(net))
        for x in rng.uniform(-1, 1, (100, 2)):
            assert evaluate(back, x) == evaluate(net, x)

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(13)
        net = random_net(rng, 1, [7])
        back = deserialize(serialize(net))
        for (w1, b1), (w2, b2) in zip(net.layers, back.layers):
            assert (w1 == w2).all() and (b1 == b2).all()

    def test_minimal_handwritten_document(self):
        doc = json.dumps(
            {
                "input_dim": 1,
                "layers": [
                    {"weight": [[1.0]], "bias": [0.0]},
                    {"weight": [[1.0]], "bias": [0.0]},
                ],
            }
        )
        net = deserialize(doc)
        assert net.hidden_widths == [1]
        assert evaluate(net, -2.0) == 0.0

    def test_truncated_stream_is_parse_error(self):
        data = serialize(relu_identity_net())[:20]
        with pytest.raises(ParseError) as exc:
            deserialize(data)
        assert exc.value.offset is not None

    def test_chain_violation_is_validation_error(self):
        doc = json.dumps(
            {
                "input_dim": 1,
                "layers": [
                    {"weight": [[1.0]], "bias": [0.0]},
                    {"weight": [[1.0, 2.0]], "bias": [0.0]},
                ],
            }
        )
        with pytest.raises(ShapeError):
            deserialize(doc)


@pytest.mark.parametrize("input_dim", [1.9, 1.0, "x", "1", True, None, [1], 0, -2])
def test_deserialize_rejects_an_input_dim_that_is_not_a_positive_integer(input_dim):
    doc = json.dumps({"input_dim": input_dim, "layers": [{"weight": [[1.0]], "bias": [0.0]}]})
    with pytest.raises(ParseError, match="input_dim must be a"):
        deserialize(doc)


@pytest.mark.parametrize("entry", ["weight", "bias"])
@pytest.mark.parametrize("value", [{"a": 1.0}, "abc", "1.5", [[True]], [[None]], [["1"]],
                                   [[1.0], [1.0, 2.0]], [[10**400]]],
                         ids=["object", "string", "numeric-string", "bool", "null",
                              "string-entry", "ragged", "huge-int"])
def test_deserialize_rejects_a_weight_or_bias_that_is_not_numbers(entry, value):
    layer = {"weight": [[1.0]], "bias": [0.0], entry: value}
    doc = json.dumps({"input_dim": 1, "layers": [layer]})
    with pytest.raises(ParseError, match=f"layer 0 {entry} must be"):
        deserialize(doc)


@pytest.mark.parametrize("doc, match", [
    ([1.0], "network document must carry input_dim and layers"),
    ({"layers": []}, "network document must carry input_dim and layers"),
    ({"input_dim": 1}, "network document must carry input_dim and layers"),
    ({"input_dim": 1, "layers": [{"weight": [[1.0]]}]},
     "network document has malformed layer entries: 'bias'"),
    ({"input_dim": 1, "layers": 5}, "network document has malformed layer entries"),
    ({"input_dim": 1, "layers": [[1.0]]}, "network document has malformed layer entries"),
], ids=["list", "no-input-dim", "no-layers", "no-bias", "layers-number", "layer-list"])
def test_deserialize_rejects_a_document_without_its_entries(doc, match):
    with pytest.raises(ParseError, match=match):
        deserialize(json.dumps(doc))


def test_parameter_count():
    rng = np.random.default_rng(4)
    net = random_net(rng, 2, [3, 5])
    # (3*2+3) + (5*3+5) + (1*5+1)
    assert parameter_count(net) == 9 + 20 + 6
