"""CPL representation, the one-hidden-layer constructor, and exact integration."""

import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reluconstruct import (
    CplFunction,
    DeltaPolicy,
    Lemma2Plan,
    ReluNetwork,
    SampleSet,
    ShapeError,
    build_1d,
    build_dd,
    choose_delta,
    cpl_from_net_1d,
    cpl_sup,
    eval_cpl,
    evaluate,
    evaluate_batch,
    exact_l1_cpl,
    holder_family,
    lemma1_interpolant,
    lemma2_interpolant,
    net_to_cpl_exact,
)
from reluconstruct import construct, cpl, metrics
from reluconstruct.cpl import (MIN_BREAK_GAP, _fit_one_layer_row, _merged_breaks, _sliver_l1,
                              _thin_breaks)


def segment_is_linear(net, a, b, tol=1e-8):
    """Dense-grid second differences vanish on a genuinely linear segment."""
    ts = np.linspace(a, b, 33)
    vals = evaluate_batch(net, ts)
    d2 = vals[:-2] - 2 * vals[1:-1] + vals[2:]
    scale = max(1.0, abs(vals[-1] - vals[0]))
    return np.max(np.abs(d2)) <= tol * scale


# reversed, empty, infinite and NaN ends: each is refused before any arithmetic
# (the tests turn warnings into errors)
BAD_INTERVALS = [(1.0, 0.0), (0.5, 0.5), (-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0)]


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

    @pytest.mark.parametrize("make, match", [
        (lambda: CplFunction([0.0, np.inf], [0.0, 1.0]), "breaks must be finite"),
        (lambda: SampleSet([0.0, 0.5, 1.0], [0.0, 1.0]), "sample xs and ys must have equal length"),
        (lambda: SampleSet([0.0, 1.0], [0.0, np.nan]), "sample values must be finite"),
        (lambda: SampleSet(np.linspace(0, 1, 5), np.ones(5), 2), "m and n must be given together"),
        (lambda: SampleSet(np.linspace(0, 1, 5), np.ones(5), None, 1),
         "m and n must be given together"),
        (lambda: cpl_from_net_1d(ReluNetwork(2, ((np.ones((1, 2)), np.zeros(1)),)), 0.0, 1.0),
         "cpl_from_net_1d needs a 1-D network"),
        (lambda: net_to_cpl_exact(ReluNetwork(2, ((np.ones((1, 2)), np.zeros(1)),)), 0.0, 1.0),
         "net_to_cpl_exact needs a 1-D network"),
    ], ids=["cpl-break-inf", "samples-lengths", "samples-nan", "samples-m-only",
            "samples-n-only", "probe-2d-net", "exact-2d-net"])
    def test_input_checks(self, make, match):
        with pytest.raises(ShapeError, match=match):
            make()


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

    @pytest.mark.parametrize("rows,k", [(1, 2), (1, 51), (7, 3), (33, 129), (513, 514)])
    def test_output_row_is_the_slope_formula_bit_for_bit(self, rows, k):
        # the in-place fit against the formula it replaced; lemma 2's
        # reference in test_lemma2 calls the same function
        rng = np.random.default_rng(k)
        xs = np.cumsum(rng.uniform(0.01, 1.0, k))
        ys = rng.standard_normal((rows, k))
        slopes = np.diff(ys, axis=-1) / np.diff(xs)
        want = np.concatenate((slopes[..., :1], np.diff(slopes, axis=-1)), axis=-1)
        weights, bias = _fit_one_layer_row(xs, ys)
        assert np.array_equal(weights.view(np.int64), want.view(np.int64))
        assert np.array_equal(bias, ys[:, 0])

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

    @pytest.mark.filterwarnings("error")
    def test_interval_order_required(self):
        f = CplFunction([0.0, 1.0], [0.0, 1.0])
        for a, b in BAD_INTERVALS:
            with pytest.raises(ValueError, match="interval must be finite"):
                exact_l1_cpl(f, f, a, b)

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
    @pytest.mark.filterwarnings("error")
    def test_interval_checked(self):
        net = lemma1_interpolant(SampleSet([0.0, 1.0], [0.0, 1.0]))
        for a, b in BAD_INTERVALS:
            with pytest.raises(ValueError, match="interval must be finite"):
                cpl_from_net_1d(net, a, b)

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

    @pytest.mark.parametrize("count", [3.5, 2001.0, True, "2001", None, 0, -5])
    def test_probe_count_must_be_an_integer(self, count):
        net = lemma1_interpolant(SampleSet([0.0, 1.0], [0.0, 0.0]))
        with pytest.raises(ValueError, match="probe_count"):
            cpl_from_net_1d(net, 0.0, 1.0, count)

    def test_numpy_integer_probe_count(self):
        net = lemma1_interpolant(SampleSet([0.0, 0.5, 1.0], [0.0, 1.0, 0.0]))
        got = cpl_from_net_1d(net, 0.0, 1.0, np.int64(201))
        want = cpl_from_net_1d(net, 0.0, 1.0, 201)
        assert np.array_equal(got.breaks, want.breaks)
        assert np.array_equal(got.values, want.values)


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

    @pytest.mark.parametrize("key", ["breaks", "values"])
    @pytest.mark.parametrize("value", [{"a": 1.0}, "ab", [0, "1"], [0, None], [0, True]],
                             ids=["object", "string", "string-entry", "null", "bool"])
    def test_entries_that_are_not_numbers(self, key, value):
        from reluconstruct import ParseError, cpl_from_json

        doc = {"breaks": [0.0, 1.0], "values": [1.0, 2.0], key: value}
        with pytest.raises(ParseError, match=f"{key} must be"):
            cpl_from_json(json.dumps(doc))

    def test_bytes_document(self):
        from reluconstruct import ParseError, cpl_from_json

        f = cpl_from_json(b'{"breaks": [0, 0.5, 1], "values": [1, 2, 0]}')
        assert f.breaks.tolist() == [0.0, 0.5, 1.0] and f.values.tolist() == [1.0, 2.0, 0.0]
        # bytes that are not UTF-8 decode to U+FFFD, which no JSON number holds
        with pytest.raises(ParseError, match="malformed CPL document"):
            cpl_from_json(b'{"breaks": [0, 1], "values": [0, \xff]}')

    def test_shape_errors_stay_shape_errors(self):
        from reluconstruct import cpl_from_json

        for doc in ('{"breaks": [1, 0], "values": [0, 0]}', '{"breaks": [0, 1], "values": [0]}'):
            with pytest.raises(ShapeError):
                cpl_from_json(doc)


class TestFrozenArrays:
    """A CPL or sample set keeps a read-only float64 array that owns its
    memory, copies anything else, and leaves the caller's arrays as they were."""

    @pytest.mark.parametrize("make", [
        lambda xs, ys: CplFunction(xs, ys),
        lambda xs, ys: SampleSet(xs, ys),
        lambda xs, ys: SampleSet(xs, ys, 1, 1),
    ], ids=["cpl", "samples", "plan-samples"])
    def test_callers_arrays_stay_writeable_and_apart(self, make):
        xs, ys = np.linspace(0.0, 1.0, 3), np.ones(3)
        obj = make(xs, ys)
        kept = [a.copy() for a in vars(obj).values() if isinstance(a, np.ndarray)]
        assert xs.flags.writeable and ys.flags.writeable
        xs[0], ys[0] = 0.5, 7.0
        arrays = [a for a in vars(obj).values() if isinstance(a, np.ndarray)]
        assert len(arrays) == 2
        for a, before in zip(arrays, kept):
            assert np.array_equal(a, before) and not a.flags.writeable
            assert not np.shares_memory(a, xs) and not np.shares_memory(a, ys)

    def test_read_only_owner_arrays_are_shared(self):
        xs, ys = np.array([0.0, 0.5, 1.0]), np.ones(3)
        for a in (xs, ys):
            a.setflags(write=False)
        f = CplFunction(xs, ys)
        assert f.breaks is xs and f.values is ys
        samples = SampleSet(xs, ys)
        assert samples.xs is xs and samples.ys is ys
        # a read-only view of writeable memory is copied
        view = np.array([0.0, 0.5, 1.0])[:]
        view.setflags(write=False)
        assert CplFunction(view, ys).breaks is not view

    def test_library_call_sites_copy_nothing(self, monkeypatch):
        # every array the library hands a CPL or a sample set is its own and
        # already read-only, so the freeze rule shares it
        copies, frozen = [], cpl._frozen_array

        def counted(a):
            out = frozen(a)
            if out is not a:
                copies.append(np.shape(a))
            return out

        from reluconstruct import corollary32_check, cpl_from_json, cpl_to_json, psi0

        monkeypatch.setattr(cpl, "_frozen_array", counted)
        cone = holder_family("cone", 1, 0.5, 1.0)
        build_1d(cone, 8)
        build_dd(holder_family("cone", 2, 0.5, 1.0), 4)
        psi0(4, 0.01)
        net = build_1d(cone, 4).net
        net_to_cpl_exact(net, 0.0, 1.0)
        cpl_from_net_1d(net, 0.0, 1.0)
        g = CplFunction(*(np.array(a) for a in ([0.0, 0.3, 1.0], [0.0, 1.0, -0.5])))
        copies.clear()
        corollary32_check(g, 2, 2, 1e-3)
        cpl_from_json(cpl_to_json(g))
        assert copies == []


class TestCplSup:
    @pytest.mark.filterwarnings("error")
    def test_interval_checked(self):
        f = CplFunction([0.0, 1.0], [0.0, 1.0])
        for a, b in BAD_INTERVALS:
            with pytest.raises(ValueError, match="interval must be finite"):
                cpl_sup(f, a, b)

    @staticmethod
    def loop_sup(f, a, b):
        pts = [a, b] + [x for x in f.breaks if a < x < b]
        return float(np.max(np.abs(eval_cpl(f, np.asarray(pts, dtype=float)))))

    def test_matches_loop_form(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            k = int(rng.integers(2, 40))
            breaks = np.sort(rng.uniform(-1.0, 2.0, k))
            if np.diff(breaks).min() <= 1e-9:
                continue
            f = CplFunction(breaks, rng.normal(size=k))
            # ends inside, outside and on a break
            a, b = np.sort(rng.choice(np.concatenate((breaks, rng.uniform(-2, 3, 4))), 2,
                                      replace=False))
            assert cpl_sup(f, a, b) == self.loop_sup(f, a, b)
            assert cpl_sup(f, -1, 1) == self.loop_sup(f, -1, 1)


class TestNetToCplExact:
    @pytest.mark.filterwarnings("error")
    def test_interval_checked(self):
        net = lemma1_interpolant(SampleSet([0.0, 0.5, 1.0], [0.0, 1.0, 0.0]))
        for a, b in BAD_INTERVALS:
            with pytest.raises(ValueError, match="interval must be finite"):
                net_to_cpl_exact(net, a, b)

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

    def test_matches_per_row_interp(self):
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

    def test_build_1d_sliver_compiles_match_per_row_interp(self):
        big_n = 64
        c = build_1d(holder_family("cone", 1, 0.5, 1.0), big_n)
        for j in range(1, big_n + 1):
            a, b = c.grid[j * (big_n + 1) - 1], c.grid[j * (big_n + 1)]
            assert_same_cpl(net_to_cpl_exact(c.net, a, b), per_row_reference(c.net, a, b),
                            f"sliver [{a}, {b}]")

    def test_build_1d_measures_its_slivers_without_compiling(self, monkeypatch):
        calls = []
        for name in ("net_to_cpl_exact", "exact_l1_cpl"):
            real = getattr(construct, name)
            monkeypatch.setattr(construct, name,
                                lambda *args, _real=real: calls.append(args) or _real(*args))
        build_1d(holder_family("cone", 1, 0.5, 1.0), 64)
        assert calls == []


class TestThinBreaks:
    """Close break points give way to a kept one, and never to the interval's ends."""

    @pytest.mark.parametrize("big_n", [16, 32])
    def test_floor_width_sliver_keeps_its_ends(self, big_n):
        # 15 (N = 16) or 32 (N = 32) second-layer crossings, gaps up to 7.5e-14
        net, lo, hi, _, _ = lifted_slivers(big_n, 0.5)(1e-12)
        f = net_to_cpl_exact(net, lo[0], hi[0])
        assert f.breaks[0] == lo[0] and f.breaks[-1] == hi[0]

    @pytest.mark.parametrize("big_n", [8, 256])
    def test_whole_interval_compile_ends_at_one(self, big_n):
        c = build_1d(holder_family("cone", 1, 0.5, 1.0), big_n)
        f = net_to_cpl_exact(c.net, 0.0, 1.0)
        assert f.breaks[0] == 0.0 and f.breaks[-1] == 1.0

    def test_merge_keeps_the_right_end(self):
        f = CplFunction([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        g = CplFunction([0.0, 0.25, 1.0], [1.0, 0.0, 1.0])
        # a break within the gap of b gives way to b
        assert _merged_breaks(f, g, 0.0, 0.5 + 5e-14).tolist() == [0.0, 0.25, 0.5 + 5e-14]
        assert _merged_breaks(f, g, 0.0, 0.25 + 5e-14).tolist() == [0.0, 0.25 + 5e-14]

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_kept_points_are_apart_and_cover_the_dropped(self, seed, scale):
        rng = np.random.default_rng(seed)
        # runs of points closer than the gap, some ending at the right end
        steps = np.where(rng.random(400) < 0.7, rng.uniform(0.1, 1.0, 400),
                         rng.uniform(1.0, 3.0, 400)) * MIN_BREAK_GAP * scale
        pts = np.unique(scale - np.concatenate(([0.0], np.cumsum(steps))))
        if seed % 2:
            pts[-1] = pts[-2] + 0.5 * MIN_BREAK_GAP * scale
        gap = MIN_BREAK_GAP * max(1.0, abs(pts[0]), abs(pts[-1]))
        kept = pts[_thin_breaks(pts)]
        assert kept[0] == pts[0] and kept[-1] == pts[-1]
        assert np.diff(kept).min() > gap
        dropped = np.setdiff1d(pts, kept)
        assert dropped.size > 0
        nearest = np.abs(dropped[:, None] - kept[None, :]).min(axis=1)
        assert np.all(nearest <= gap)
        # the walk: each interior point against the last kept one and the right end
        want = [pts[0]]
        for x in pts[1:-1]:
            if x - want[-1] > gap and pts[-1] - x > gap:
                want.append(x)
        assert kept.tolist() == want + [pts[-1]]


def per_row_reference(net, a, b):
    """``net_to_cpl_exact`` by whole-mesh refinement: each hidden layer is
    evaluated at the breaks of the layers before it and adds its crossings,
    and the last hidden layer is interpolated onto its own crossings with
    one ``np.interp`` call per unit row."""
    breaks = np.array([float(a), float(b)])
    *hidden, (w_out, b_out) = net.layers
    for depth, (w, bias) in enumerate(hidden):
        h = breaks[None, :]
        for w_in, b_in in hidden[:depth]:
            h = np.maximum(w_in @ h + b_in[:, None], 0.0)
        vals = w @ h + bias[:, None]
        v0, v1 = vals[:, :-1], vals[:, 1:]
        u, s = np.nonzero((v0 * v1) < 0)
        if not u.size:
            continue
        x0, x1 = breaks[s], breaks[s + 1]
        t = v0[u, s] / (v0[u, s] - v1[u, s])
        new_breaks = np.unique(np.concatenate((breaks, x0 + t * (x1 - x0))))
        new_breaks = new_breaks[_thin_breaks(new_breaks)]
        if depth == len(hidden) - 1:
            vals = np.vstack([np.interp(new_breaks, breaks, row) for row in vals])
        breaks = new_breaks
    return breaks, (w_out @ np.maximum(vals, 0.0) + b_out[:, None])[0]


# the compile sums the last layer's slope jumps where the reference
# interpolates each of its units onto every break: the breaks are the same,
# and the values agree to 4.4e-10 of the largest |value| on lemma2_net(64, 64)
COMPILE_VALUE_TOL = 1e-9


def assert_same_cpl(got, want, msg):
    breaks, values = want
    assert np.array_equal(got.breaks, breaks), msg
    np.testing.assert_allclose(got.values, values, rtol=0, err_msg=msg,
                               atol=COMPILE_VALUE_TOL * max(1.0, np.abs(values).max()))


def longdouble_values(net, xs):
    """The network at ``xs`` in extended precision, from its f64 weights."""
    h = np.asarray(xs, dtype=np.longdouble)[None, :]
    for i, (w, b) in enumerate(net.layers):
        h = w.astype(np.longdouble) @ h + b.astype(np.longdouble)[:, None]
        if i < len(net.layers) - 1:
            h = np.maximum(h, 0)
    return h[0]


def random_1d_net(rng, hidden):
    layers, prev = [], 1
    for width in [*hidden, 1]:
        layers.append((rng.standard_normal((width, prev)), rng.standard_normal(width)))
        prev = width
    return ReluNetwork(1, tuple(layers))


def lemma2_net(big_n, seed):
    rng = np.random.default_rng(seed)
    size = big_n * (big_n + 1) + 1
    xs = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, size - 2))))
    return lemma2_interpolant(Lemma2Plan(big_n, big_n,
                                         SampleSet(xs, rng.uniform(0.0, 2.0, size), big_n, big_n)))[0]


def record_blocks(monkeypatch):
    """The number of segments of each ``_last_layer`` call, in call order."""
    widths, real = [], cpl._last_layer
    monkeypatch.setattr(cpl, "_last_layer",
                        lambda z0, *args: widths.append(z0.shape[1]) or real(z0, *args))
    return widths


class TestBlockedCompile:
    """The last hidden layer, ``SEGMENT_BLOCK`` old segments at a time, gives
    the breaks of the whole-mesh compile (``per_row_reference``, each of its
    units interpolated onto every break) bit for bit and its values within
    ``COMPILE_VALUE_TOL``, in bounded memory."""

    @pytest.mark.parametrize("big_n", [8, 32, 64, 128])
    def test_build_1d(self, big_n, monkeypatch):
        net = build_1d(holder_family("cone", 1, 0.5, 1.0), big_n).net
        blocks = record_blocks(monkeypatch)
        f = net_to_cpl_exact(net, 0.0, 1.0)
        assert len(blocks) > 1 or big_n < 64
        assert_same_cpl(f, per_row_reference(net, 0.0, 1.0), f"N = {big_n}")

    @pytest.mark.parametrize("big_n", [16, 32, 64])
    def test_lemma2_networks(self, big_n):
        net = lemma2_net(big_n, big_n)
        assert_same_cpl(net_to_cpl_exact(net, 0.0, 1.0), per_row_reference(net, 0.0, 1.0),
                        f"m = n = {big_n}")

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="longdouble is float64 on this platform")
    @pytest.mark.parametrize("case", ["build_1d", "lemma2", "depth-3", "build_dd-tail"])
    def test_as_close_to_long_double_as_the_reference(self, case, monkeypatch):
        # the errors of both against the extended-precision network were
        # equal at N = 64 (6.9e-13), on lemma2_net(16, 16) (3.9e-8), on the
        # depth-3 network (7.2e-13) and on the d = 3 tail (1.5e-12)
        a, b = 0.0, 1.0
        if case == "build_1d":
            net = build_1d(holder_family("cone", 1, 0.5, 1.0), 64).net
        elif case == "lemma2":
            net = lemma2_net(16, 16)
        elif case == "depth-3":
            net, a, b = random_1d_net(np.random.default_rng(3), [150, 120, 90]), -2.0, 2.0
        else:
            # the 1-D network after the per-axis tables of build_dd at d = 3
            compiles, real = [], metrics.net_to_cpl_exact
            monkeypatch.setattr(metrics, "net_to_cpl_exact",
                                lambda *args: compiles.append(args) or real(*args))
            metrics._compile(build_dd(holder_family("cone", 3, 0.5, 1.0), 27).net,
                             (np.arange(64) + 0.5) / 64)
            (net, a, b), = compiles
        f = net_to_cpl_exact(net, a, b)
        breaks, values = per_row_reference(net, a, b)
        assert np.array_equal(f.breaks, breaks)
        pick = np.random.default_rng(0).choice(breaks.size, min(2000, breaks.size), replace=False)
        exact = longdouble_values(net, breaks[pick])
        got = float(np.max(np.abs(f.values[pick] - exact)))
        assert got <= 2.0 * float(np.max(np.abs(values[pick] - exact)))

    @pytest.mark.parametrize("depth", [2, 3])
    def test_random_networks(self, depth):
        rng = np.random.default_rng(70 + depth)
        for trial in range(20):
            net = random_1d_net(rng, rng.integers(2, 300, size=depth))
            assert_same_cpl(net_to_cpl_exact(net, -2.0, 2.0), per_row_reference(net, -2.0, 2.0),
                            f"trial {trial}, widths {net.hidden_widths}")

    @pytest.mark.parametrize("blocks", [1, 2])
    @pytest.mark.parametrize("rest", range(8))
    def test_every_remainder_at_the_module_block(self, blocks, rest, monkeypatch):
        # first-layer units of unit slope: one kink each, so the last hidden
        # layer sees exactly blocks * SEGMENT_BLOCK + rest old segments
        rng = np.random.default_rng(100 * blocks + rest)
        segments = blocks * cpl.SEGMENT_BLOCK + rest
        kinks = np.sort(rng.uniform(0.0, 1.0, segments - 1))
        net = ReluNetwork(1, ((np.ones((segments - 1, 1)), -kinks),
                              (rng.standard_normal((9, segments - 1)), rng.standard_normal(9)),
                              (rng.standard_normal((1, 9)), rng.standard_normal(1))))
        calls = record_blocks(monkeypatch)
        f = net_to_cpl_exact(net, 0.0, 1.0)
        assert calls == [cpl.SEGMENT_BLOCK] * blocks + [rest] * (rest > 0)
        assert_same_cpl(f, per_row_reference(net, 0.0, 1.0), f"{segments} segments")

    @pytest.mark.parametrize("block", [16, 32])
    def test_every_remainder_at_small_blocks(self, block, monkeypatch):
        # 2- and 3-hidden-layer networks over many blocks, whose last block
        # takes every remainder from 1 to 7 segments
        monkeypatch.setattr(cpl, "SEGMENT_BLOCK", block)
        calls = record_blocks(monkeypatch)
        rng = np.random.default_rng(block)
        seen = set()
        for trial in range(150):
            net = random_1d_net(rng, rng.integers(2, 120, size=int(rng.integers(2, 4))))
            calls.clear()
            f = net_to_cpl_exact(net, -2.0, 2.0)
            assert all(c == block for c in calls[:-1]) and 0 < calls[-1] <= block
            if len(calls) > 1:
                seen.add(calls[-1])
            assert_same_cpl(f, per_row_reference(net, -2.0, 2.0),
                            f"trial {trial}, widths {net.hidden_widths}")
        assert set(range(1, 8)) <= seen

    @pytest.mark.parametrize("big_n", [128, 256])
    def test_memory(self, big_n):
        # before blocking, the whole (257 x 32,726) last-layer matrix alone
        # took 64 MiB at N = 128, and the compile peaked at 132 MiB
        net = build_1d(holder_family("cone", 1, 0.5, 1.0), big_n).net
        tracemalloc.start()
        try:
            f = net_to_cpl_exact(net, 0.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.breaks.size > 1.9 * big_n**2
        assert peak < 16 * 2**20


def lifted_slivers(big_n, alpha):
    """``delta -> (net, lo, hi, ylo, yhi)``: the lifted network of ``build_1d`` and its slivers."""
    tgt = holder_family("cone", 1, alpha, 1.0)
    f0 = float(tgt(np.zeros((1, 1)))[0])
    n_cap = big_n * big_n
    build = construct._sliver_fit(lambda xs: construct._shifted_samples(tgt, xs[:, None], f0, 1.0),
                                  np.arange(1, n_cap) / n_cap, big_n, big_n)
    sliver = (big_n + 1) * np.arange(1, big_n + 1)

    def slivers(delta):
        xs, ys, net = build(delta)
        return net, xs[sliver - 1], xs[sliver], ys[sliver - 1], ys[sliver]

    return slivers


def per_sliver_reference(net, lo, hi, ylo, yhi):
    """One exact compile and one ``exact_l1_cpl`` per sliver."""
    return np.array([
        exact_l1_cpl(net_to_cpl_exact(net, a, b), CplFunction([a, b], [ya, yb]), a, b)
        for a, b, ya, yb in zip(lo, hi, ylo, yhi)
    ])


def fraction_sliver_l1(net, lo, hi, ylo, yhi):
    """``integral |net - secant|`` per sliver in exact rational arithmetic on the f64 weights.

    Evaluates the network directly at every second-layer zero crossing, so it
    shares no arithmetic with the slope accumulation of ``_sliver_l1``.
    """
    layers = [([list(map(Fraction, row)) for row in w.tolist()], list(map(Fraction, b.tolist())))
              for w, b in net.layers]

    def affine(layer, h):
        return [sum((wi * v for wi, v in zip(row, h)), bi) for row, bi in zip(*layer)]

    def relu(h):
        return [max(v, 0) for v in h]

    def second_layer(x):
        return affine(layers[1], relu(affine(layers[0], [x])))

    out = []
    for a, b, ya, yb in zip(*(map(Fraction, v.tolist()) for v in (lo, hi, ylo, yhi))):
        z0, z1 = second_layer(a), second_layer(b)
        knots = sorted({a, b} | {a + (b - a) * u / (u - v) for u, v in zip(z0, z1) if u * v < 0})
        h = [affine(layers[2], relu(second_layer(x)))[0] - ya - (yb - ya) * (x - a) / (b - a)
             for x in knots]
        total = Fraction(0)
        for p, q, hp, hq in zip(knots, knots[1:], h, h[1:]):
            if hp * hq >= 0:
                total += (abs(hp) + abs(hq)) / 2 * (q - p)
            else:
                total += (hp * hp + hq * hq) / (2 * (abs(hp) + abs(hq))) * (q - p)
        out.append(float(total))
    return np.array(out)


class TestSliverL1:
    """The batched sliver measurement of ``build_1d`` against the per-sliver exact compile."""

    # 128 slivers take two blocks of SEGMENT_BLOCK
    @pytest.mark.parametrize("big_n", [2, 8, 64, 128])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
    def test_matches_the_per_sliver_compile(self, big_n, alpha):
        args = lifted_slivers(big_n, alpha)(0.25 / big_n**2)
        np.testing.assert_allclose(_sliver_l1(*args), per_sliver_reference(*args),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("big_n", [2, 4, 8])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
    def test_matches_exact_rational_integrals(self, big_n, alpha):
        slivers = lifted_slivers(big_n, alpha)
        for delta in (0.25 / big_n**2, 1e-7, 1e-10):
            args = slivers(delta)
            exact = fraction_sliver_l1(*args)
            np.testing.assert_allclose(_sliver_l1(*args), exact, rtol=1e-3, atol=1e-16,
                                       err_msg=f"delta {delta}")

    @pytest.mark.parametrize("big_n", [2, 4, 8, 16, 32])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("target", [None, 1e-12])
    def test_build_1d_picks_the_delta_of_the_per_sliver_search(self, big_n, alpha, target):
        slivers = lifted_slivers(big_n, alpha)

        def h0(delta):
            net, lo, hi, ylo, yhi = slivers(delta)
            total = 0.0
            for w, err in zip(hi - lo, per_sliver_reference(net, lo, hi, ylo, yhi)):
                total += 2.0 * w ** alpha * w + err
            return total

        policy = DeltaPolicy(target=target)
        c = build_1d(holder_family("cone", 1, alpha, 1.0), big_n, policy)
        assert c.delta.delta == choose_delta(policy, min_gap=1.0 / big_n**2,
                                             budget=float(big_n) ** (-2.0 * alpha),
                                             h_error=h0).delta

    def test_matches_the_per_interval_compile_on_random_networks(self):
        rng = np.random.default_rng(61)
        for trial in range(60):
            a, b = rng.integers(1, 9), rng.integers(1, 13)
            # unit slopes put each kink exactly where its unit's value is 0.0
            w1 = rng.choice([-1.0, 1.0], (a, 1))
            b1 = rng.uniform(-1.0, 1.0, a)
            net = ReluNetwork(1, ((w1, b1), (rng.standard_normal((b, a)), rng.standard_normal(b)),
                                  (rng.standard_normal((1, b)), rng.standard_normal(1))))
            # the intervals between consecutive first-layer kinks, and both tails
            ends = np.unique(np.concatenate(([-2.0, 2.0], -b1 * w1[:, 0])))
            lo, hi = ends[:-1], ends[1:]
            ylo, yhi = rng.standard_normal((2, lo.size))
            np.testing.assert_allclose(_sliver_l1(net, lo, hi, ylo, yhi),
                                       per_sliver_reference(net, lo, hi, ylo, yhi),
                                       rtol=1e-9, atol=1e-12, err_msg=f"trial {trial}")

    def test_unit_leaving_zero_at_the_left_end_is_active(self):
        # relu(x - 1/4) + relu(1/10 - (x - 1/4)) on [1/4, 1/2]: the first unit is
        # exactly 0 at the left end, the second crosses zero at 0.35
        net = ReluNetwork(1, ((np.ones((1, 1)), np.array([-0.25])),
                              (np.array([[1.0], [-1.0]]), np.array([0.0, 0.1])),
                              (np.ones((1, 2)), np.zeros(1))))
        got = _sliver_l1(net, [0.25], [0.5], [0.0], [0.0])
        assert got[0] == pytest.approx(0.1 * 0.1 + (0.25**2 - 0.1**2) / 2, rel=1e-12)

    def test_rejects_a_first_layer_kink_inside_an_interval(self):
        rng = np.random.default_rng(53)
        w1 = np.ones((6, 1))
        kinks = np.sort(rng.uniform(0.1, 0.9, 6))
        net = ReluNetwork(1, ((w1, -kinks), (rng.standard_normal((7, 6)), rng.standard_normal(7)),
                              (rng.standard_normal((1, 7)), rng.standard_normal(1))))
        ys = np.zeros(2)
        # kink-free intervals pass; one straddling kink 3 fails
        _sliver_l1(net, kinks[[0, 4]], kinks[[1, 5]], ys, ys)
        lo, hi = kinks[[0, 3]], kinks[[1, 4]]
        lo[1] -= 1e-3
        with pytest.raises(ShapeError, match="inside an interval"):
            _sliver_l1(net, lo, hi, ys, ys)

    @pytest.mark.parametrize("lo, hi", [([0.5], [0.5]), ([0.25, 0.75], [0.5, 0.7])],
                             ids=["empty", "reversed"])
    def test_rejects_an_interval_that_is_not_increasing(self, lo, hi):
        net = ReluNetwork(1, ((np.ones((1, 1)), np.zeros(1)), (np.ones((1, 1)), np.zeros(1)),
                              (np.ones((1, 1)), np.zeros(1))))
        with pytest.raises(ValueError, match="every interval must satisfy lo < hi"):
            _sliver_l1(net, lo, hi, np.zeros(len(lo)), np.zeros(len(lo)))

    @pytest.mark.parametrize("widths", [[3, 1], [3, 4, 5, 1]])
    def test_rejects_other_shapes(self, widths):
        rng = np.random.default_rng(59)
        layers, prev = [], 1
        for width in widths:
            layers.append((rng.standard_normal((width, prev)), rng.standard_normal(width)))
            prev = width
        with pytest.raises(ShapeError, match=r"\[1, a, b, 1\]"):
            _sliver_l1(ReluNetwork(1, tuple(layers)), [0.0], [1.0], [0.0], [0.0])
