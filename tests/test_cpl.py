"""CPL representation, the one-hidden-layer constructor, and exact integration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reluconstruct import (
    CplFunction,
    ReluNetwork,
    SampleSet,
    ShapeError,
    build_1d,
    cpl_from_net_1d,
    eval_cpl,
    evaluate,
    evaluate_batch,
    exact_l1_cpl,
    holder_family,
    lemma1_interpolant,
    net_to_cpl_exact,
)
from reluconstruct import construct
from reluconstruct.cpl import MIN_BREAK_GAP, _Mesh


def segment_is_linear(net, a, b, tol=1e-8):
    """Dense-grid second differences vanish on a genuinely linear segment."""
    ts = np.linspace(a, b, 33)
    vals = evaluate_batch(net, ts)
    d2 = vals[:-2] - 2 * vals[1:-1] + vals[2:]
    scale = max(1.0, abs(vals[-1] - vals[0]))
    return np.max(np.abs(d2)) <= tol * scale


class TestEvalCpl:
    def test_identity_segment(self):
        f = CplFunction([0.0, 1.0], [0.0, 1.0])
        assert eval_cpl(f, 0.5) == 0.5

    def test_hat(self):
        f = CplFunction([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        assert eval_cpl(f, 0.75) == pytest.approx(0.5)

    def test_end_segment_extrapolation(self):
        f = CplFunction([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        assert eval_cpl(f, -0.5) == pytest.approx(-1.0)
        assert eval_cpl(f, 1.5) == pytest.approx(-1.0)

    def test_agrees_with_interpolant_network(self):
        rng = np.random.default_rng(21)
        xs = np.cumsum(rng.uniform(0.02, 0.1, 20))
        ys = rng.uniform(-2, 2, 20)
        f = CplFunction(xs, ys)
        net = lemma1_interpolant(SampleSet(xs, ys))
        probes = rng.uniform(xs[0], xs[-1], 1000)
        np.testing.assert_allclose(eval_cpl(f, probes), evaluate_batch(net, probes), atol=1e-10)

    def test_break_collision_rejected(self):
        with pytest.raises(ShapeError):
            CplFunction([0.0, 1e-14, 1.0], [0.0, 1.0, 0.0])


class TestLemma1Interpolant:
    def test_identity_samples(self):
        net = lemma1_interpolant(SampleSet([0.0, 1.0], [0.0, 1.0]))
        assert net.hidden_widths == [1]
        assert evaluate(net, 0.3) == pytest.approx(0.3, abs=1e-12)

    def test_hat_function(self):
        net = lemma1_interpolant(SampleSet([0.0, 0.5, 1.0], [0.0, 1.0, 0.0]))
        assert net.hidden_widths == [2]
        assert evaluate(net, 0.25) == pytest.approx(0.5, abs=1e-12)
        assert evaluate(net, 0.75) == pytest.approx(0.5, abs=1e-12)

    def test_seeded_random_samples_exact_and_linear(self):
        rng = np.random.default_rng(99)
        xs = np.cumsum(rng.uniform(0.01, 0.05, 51))
        ys = rng.uniform(-5, 5, 51)
        net = lemma1_interpolant(SampleSet(xs, ys))
        assert max(abs(evaluate(net, x) - y) for x, y in zip(xs, ys)) <= 1e-9
        for a, b in zip(xs[:-1], xs[1:]):
            assert segment_is_linear(net, a, b)

    def test_width_is_sample_count_minus_one(self):
        rng = np.random.default_rng(5)
        for k in (2, 5, 17):
            xs = np.cumsum(rng.uniform(0.1, 1.0, k))
            net = lemma1_interpolant(SampleSet(xs, rng.uniform(-1, 1, k)))
            assert net.hidden_widths == [k - 1]

    def test_nonnegative_samples_give_nonnegative_cpl(self):
        rng = np.random.default_rng(6)
        xs = np.cumsum(rng.uniform(0.05, 0.2, 12))
        ys = rng.uniform(0.0, 3.0, 12)
        net = lemma1_interpolant(SampleSet(xs, ys))
        probes = np.linspace(xs[0], xs[-1], 2000)
        assert evaluate_batch(net, probes).min() >= -1e-12

    def test_preconditions(self):
        with pytest.raises(ShapeError):
            lemma1_interpolant(SampleSet([0.0], [1.0]))
        with pytest.raises(ShapeError):
            SampleSet([0.0, 0.0, 1.0], [0.0, 1.0, 2.0])


def cpl_strategy(max_breaks=6):
    def build(gaps_vals):
        gaps, vals = gaps_vals
        xs = np.cumsum(np.asarray(gaps))
        return CplFunction(xs, np.asarray(vals[: len(gaps)]))

    lengths = st.integers(2, max_breaks)
    return lengths.flatmap(
        lambda k: st.tuples(
            st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k),
            st.lists(st.floats(-3, 3), min_size=k, max_size=k),
        )
    ).map(build)


class TestExactL1:
    def test_identical_functions(self):
        f = CplFunction([0.0, 0.4, 1.0], [1.0, -1.0, 0.5])
        assert exact_l1_cpl(f, f, 0.0, 1.0) == 0.0

    def test_triangle_area(self):
        f = CplFunction([0.0, 1.0], [0.0, 1.0])
        zero = CplFunction([0.0, 1.0], [0.0, 0.0])
        assert exact_l1_cpl(f, zero, 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_sign_crossing_split(self):
        f = CplFunction([0.0, 1.0], [-0.5, 0.5])
        zero = CplFunction([0.0, 1.0], [0.0, 0.0])
        assert exact_l1_cpl(f, zero, 0.0, 1.0) == pytest.approx(0.25, abs=1e-15)

    def test_interval_order_required(self):
        f = CplFunction([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            exact_l1_cpl(f, f, 1.0, 0.0)

    @settings(max_examples=50, deadline=None)
    @given(cpl_strategy(), cpl_strategy())
    def test_symmetry(self, f, g):
        a, b = 0.1, 0.9
        assert exact_l1_cpl(f, g, a, b) == pytest.approx(exact_l1_cpl(g, f, a, b), rel=1e-12, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(cpl_strategy(), cpl_strategy(), cpl_strategy())
    def test_triangle_inequality(self, f, g, h):
        a, b = 0.1, 0.9
        fg = exact_l1_cpl(f, g, a, b)
        fh = exact_l1_cpl(f, h, a, b)
        hg = exact_l1_cpl(h, g, a, b)
        assert fg <= fh + hg + 1e-9 * (1 + fh + hg)


class TestCplFromNet:
    def test_relu_kink_found(self):
        net = lemma1_interpolant(SampleSet([0.0, 1.0], [0.0, 1.0]))
        # widen the domain so the kink at 0 is interior
        rec = cpl_from_net_1d(net, -1.0, 1.0, 2001)
        assert any(abs(b) < 1e-6 for b in rec.breaks)

    def test_round_trip_recovers_breaks_and_values(self):
        rng = np.random.default_rng(17)
        xs = np.sort(rng.uniform(0.0, 1.0, 7))
        xs[0], xs[-1] = 0.0, 1.0
        while np.diff(xs).min() < 0.05:
            xs = np.sort(rng.uniform(0.0, 1.0, 7))
            xs[0], xs[-1] = 0.0, 1.0
        ys = rng.uniform(-1, 3, 7)
        # make every interior node a genuine kink
        net = lemma1_interpolant(SampleSet(xs, ys))
        rec = cpl_from_net_1d(net, 0.0, 1.0, 4001)
        for x, y in zip(xs[1:-1], ys[1:-1]):
            j = int(np.argmin(np.abs(rec.breaks - x)))
            assert abs(rec.breaks[j] - x) <= 1e-6
            assert abs(rec.values[j] - y) <= 1e-6

    def test_constant_zero_net(self):
        net = lemma1_interpolant(SampleSet([0.0, 1.0], [0.0, 0.0]))
        rec = cpl_from_net_1d(net, 0.0, 1.0, 201)
        assert rec.breaks.tolist() == [0.0, 1.0]
        assert rec.values.tolist() == [0.0, 0.0]

    def test_probe_count_precondition(self):
        net = lemma1_interpolant(SampleSet([0.0, 1.0], [0.0, 0.0]))
        with pytest.raises(ValueError):
            cpl_from_net_1d(net, 0.0, 1.0, 2)


class TestCplJson:
    def test_round_trip(self):
        from reluconstruct import cpl_from_json, cpl_to_json

        f = CplFunction([0.0, 0.25, 1.0], [1.5, -0.5, 2.0])
        back = cpl_from_json(cpl_to_json(f))
        assert (back.breaks == f.breaks).all() and (back.values == f.values).all()

    def test_malformed_document(self):
        from reluconstruct import ParseError, cpl_from_json

        with pytest.raises(ParseError):
            cpl_from_json('{"breaks": [0, 1]')
        with pytest.raises(ParseError):
            cpl_from_json('{"breaks": [0, 1]}')


class TestNetToCplExact:
    def test_agrees_with_probe_extraction(self):
        rng = np.random.default_rng(23)
        xs = np.cumsum(rng.uniform(0.05, 0.2, 9))
        xs = (xs - xs[0]) / (xs[-1] - xs[0])
        ys = rng.uniform(0.0, 2.0, 9)
        net = lemma1_interpolant(SampleSet(xs, ys))
        exact = net_to_cpl_exact(net, 0.0, 1.0)
        probes = rng.uniform(0.0, 1.0, 500)
        np.testing.assert_allclose(
            eval_cpl(exact, probes), evaluate_batch(net, probes), atol=1e-11
        )

    def test_two_hidden_layers(self):
        rng = np.random.default_rng(29)
        w1 = rng.standard_normal((4, 1))
        b1 = rng.standard_normal(4)
        w2 = rng.standard_normal((3, 4))
        b2 = rng.standard_normal(3)
        w3 = rng.standard_normal((1, 3))
        b3 = rng.standard_normal(1)
        net = __import__("reluconstruct").ReluNetwork(1, ((w1, b1), (w2, b2), (w3, b3)))
        exact = net_to_cpl_exact(net, -2.0, 2.0)
        probes = rng.uniform(-2, 2, 1000)
        np.testing.assert_allclose(
            eval_cpl(exact, probes), evaluate_batch(net, probes), atol=1e-11
        )

    def test_subinterval_matches_whole_interval(self):
        rng = np.random.default_rng(31)
        for trial in range(30):
            layers, prev = [], 1
            for width in [*rng.integers(1, 9, size=int(rng.integers(1, 4))), 1]:
                layers.append((rng.standard_normal((width, prev)), rng.standard_normal(width)))
                prev = width
            net = ReluNetwork(1, tuple(layers))
            whole = net_to_cpl_exact(net, 0.0, 1.0)
            w1, b1 = layers[0]
            x_kink = -b1 / w1[:, 0]
            kinks = np.sort(x_kink[(x_kink > 0.01) & (x_kink < 0.99)])
            ends = [(0.0, 1.0), tuple(np.sort(rng.uniform(0.0, 1.0, 2)))]
            if kinks.size:
                # ends exactly on first-layer kinks, as the don't-care slivers have
                ends += [(0.0, kinks[0]), (kinks[-1], 1.0)]
                if kinks.size > 1:
                    ends.append((kinks[0], kinks[1]))
            for a, b in ends:
                part = net_to_cpl_exact(net, a, b)
                # both are linear between the merged breaks: compare there
                inside = whole.breaks[(whole.breaks >= a) & (whole.breaks <= b)]
                pts = np.unique(np.concatenate((part.breaks, inside)))
                np.testing.assert_allclose(
                    eval_cpl(part, pts), eval_cpl(whole, pts), rtol=0, atol=1e-12,
                    err_msg=f"trial {trial} on [{a}, {b}]",
                )

    def test_matches_per_row_interp_bit_for_bit(self):
        rng = np.random.default_rng(37)
        for trial in range(120):
            depth = int(rng.integers(1, 4))
            widths = [*rng.integers(1, 80, size=depth), 1]
            widths[-2] = max(widths[-2], 2)
            layers, prev = [], 1
            for width in widths:
                layers.append((rng.standard_normal((width, prev)), rng.standard_normal(width)))
                prev = width
            net = ReluNetwork(1, tuple(layers))
            assert_same_cpl(net_to_cpl_exact(net, -2.0, 2.0), per_row_reference(net, -2.0, 2.0),
                            f"trial {trial}, widths {widths}")

    def test_build_1d_sliver_compiles_match_per_row_interp(self, monkeypatch):
        calls = []

        def recorded(net, a, b):
            calls.append((net, a, b))
            return real(net, a, b)

        real = construct.net_to_cpl_exact
        monkeypatch.setattr(construct, "net_to_cpl_exact", recorded)
        big_n = 64
        build_1d(holder_family("cone", 1, 0.5, 1.0), big_n)
        assert len(calls) >= big_n
        for net, a, b in calls:
            assert_same_cpl(real(net, a, b), per_row_reference(net, a, b), f"sliver [{a}, {b}]")


def per_row_reference(net, a, b):
    """``net_to_cpl_exact`` with one ``np.interp`` call per unit row: the bit-level reference."""
    breaks = np.array([float(a), float(b)])
    vals = breaks[None, :]
    for li, (w, bias) in enumerate(net.layers):
        vals = w @ vals + bias[:, None]
        if li == len(net.layers) - 1:
            break
        v0, v1 = vals[:, :-1], vals[:, 1:]
        u, s = np.nonzero((v0 * v1) < 0)
        if u.size:
            x0, x1 = breaks[s], breaks[s + 1]
            t = v0[u, s] / (v0[u, s] - v1[u, s])
            new_breaks = np.unique(np.concatenate((breaks, x0 + t * (x1 - x0))))
            gap = MIN_BREAK_GAP * max(1.0, abs(a), abs(b))
            new_breaks = new_breaks[np.concatenate(([True], np.diff(new_breaks) > gap))]
            vals = np.vstack([np.interp(new_breaks, breaks, row) for row in vals])
            breaks = new_breaks
        vals = np.maximum(vals, 0.0)
    return breaks, vals[0]


def assert_same_cpl(got, want, msg):
    breaks, values = want
    assert np.array_equal(got.breaks, breaks), msg
    assert np.array_equal(got.values, values), msg


def same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


class TestMesh:
    """``_Mesh`` against ``np.interp``, bit for bit."""

    @pytest.mark.parametrize("nodes", [12, 2])
    def test_matches_interp_in_one_and_two_dimensions(self, nodes):
        rng = np.random.default_rng(41 + nodes)
        xp = 0.3 + np.cumsum(rng.uniform(0.1, 1.0, nodes)) * 1e-5
        inside = rng.uniform(xp[0], xp[-1], 200)
        # every node, the right end twice, and both sides of the mesh
        x = np.sort(np.concatenate((inside, xp, [xp[-1], xp[0] - 1e-5, xp[-1] + 1e-5])))
        # magnitudes from 1e-8 to 1e8, both signs
        fp = rng.choice([-1.0, 1.0], (129, nodes)) * 10.0 ** rng.uniform(-8, 8, (129, nodes))
        mesh = _Mesh(x, xp)
        out = mesh(fp)
        assert out.flags.c_contiguous
        assert same_bits(out, np.vstack([np.interp(x, xp, row) for row in fp]))
        for row in fp[:5]:
            assert same_bits(mesh(row), np.interp(x, xp, row))
