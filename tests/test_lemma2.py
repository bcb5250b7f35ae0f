"""The two-hidden-layer interpolant: exactness, linearity, sup bound, residuals."""

import numpy as np
import pytest

from reluconstruct import (
    Lemma2Plan,
    SampleSet,
    ShapeError,
    evaluate,
    evaluate_batch,
    lemma2_interpolant,
    lemma2_sup_bound,
    parameter_count,
)


def bounded_grid(rng, count):
    """Random strictly increasing abscissae on [0, 1] with bounded gap ratios."""
    xs = np.cumsum(rng.uniform(0.5, 1.5, count))
    return (xs - xs[0]) / (xs[-1] - xs[0])


def build_random(rng, m, n, y_hi=2.0):
    xs = bounded_grid(rng, m * (n + 1) + 1)
    ys = rng.uniform(0.0, y_hi, xs.size)
    plan = Lemma2Plan(m, n, SampleSet(xs, ys, m, n))
    net, trace = lemma2_interpolant(plan)
    return xs, ys, net, trace


def kept_segment_linear(net, a, b, tol=1e-7):
    ts = np.linspace(a, b, 33)
    vals = evaluate_batch(net, ts)
    d2 = vals[:-2] - 2 * vals[1:-1] + vals[2:]
    scale = max(1.0, abs(vals[-1] - vals[0]))
    return np.max(np.abs(d2)) <= tol * scale


def schedule_indices(m, n, k):
    """Union over ell <= k of (I1 - n - 1 + ell), plus the last index."""
    idx = {j * (n + 1) - n - 1 + ell for j in range(1, m + 1) for ell in range(k + 1)}
    idx.add(m * (n + 1))
    return sorted(idx)


class TestSmallestInstance:
    def test_m1_n1_contract(self):
        xs = np.array([0.0, 0.5, 1.0])
        ys = np.array([1.0, 2.0, 1.0])
        net, trace = lemma2_interpolant(Lemma2Plan(1, 1, SampleSet(xs, ys, 1, 1)))
        assert net.hidden_widths == [2, 3]
        for x, y in zip(xs, ys):
            assert evaluate(net, x) == pytest.approx(y, abs=1e-10)
        # linear on the kept interval [0, 0.5]; [0.5, 1] is the don't-care gap
        assert kept_segment_linear(net, 0.0, 0.5)

    def test_m2_n2_line_samples(self):
        xs = np.linspace(0.0, 1.0, 7)
        ys = xs + 1.0
        net, _ = lemma2_interpolant(Lemma2Plan(2, 2, SampleSet(xs, ys, 2, 2)))
        for x in xs:
            assert evaluate(net, x) == pytest.approx(x + 1.0, abs=1e-9)


class TestPaperFigureScale:
    def test_sup_bound_m4_n4(self):
        rng = np.random.default_rng(2024)
        xs, ys, net, _ = build_random(rng, 4, 4)
        dense = np.linspace(xs[0], xs[-1], 100001)
        sup = float(np.max(np.abs(evaluate_batch(net, dense))))
        assert sup <= lemma2_sup_bound(xs, 4, 4, float(ys.max()))


class TestInvariants:
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 2), (4, 4), (6, 5), (8, 8)])
    def test_widths_and_parameter_count(self, m, n):
        rng = np.random.default_rng(m * 100 + n)
        _, _, net, _ = build_random(rng, m, n)
        assert net.hidden_widths == [2 * m, 2 * n + 1]
        # W1 + b1 (4m) + rows of W2,b2 + W3 + b3
        assert parameter_count(net) == 4 * m + (2 * n + 1) * (2 * m + 1) + 2 * n + 2

    @pytest.mark.parametrize("m,n", [(2, 2), (4, 3), (8, 8)])
    def test_node_exactness(self, m, n):
        rng = np.random.default_rng(m * 10 + n)
        xs, ys, net, _ = build_random(rng, m, n)
        assert max(abs(evaluate(net, x) - y) for x, y in zip(xs, ys)) <= 1e-8

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 4)])
    def test_linearity_on_kept_intervals(self, m, n):
        rng = np.random.default_rng(m + 17 * n)
        xs, _, net, _ = build_random(rng, m, n)
        dont_care = {j * (n + 1) for j in range(1, m + 1)}
        for i in range(1, m * (n + 1) + 1):
            if i not in dont_care:
                assert kept_segment_linear(net, xs[i - 1], xs[i])

    @pytest.mark.parametrize("m,n", [(2, 2), (4, 4), (5, 3)])
    def test_residual_vanishing_schedule(self, m, n):
        rng = np.random.default_rng(31 * m + n)
        _, _, _, trace = build_random(rng, m, n)
        for k in range(n + 1):
            idx = schedule_indices(m, n, k)
            worst = max(abs(trace.residuals[k + 1][i]) for i in idx)
            assert worst <= 1e-8, f"stage {k + 1} residual {worst:.2e}"

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 4)])
    def test_sign_classes_partition(self, m, n):
        rng = np.random.default_rng(7 * m + 3 * n)
        _, _, _, trace = build_random(rng, m, n)
        for plus, minus in zip(trace.lambda_plus, trace.lambda_minus):
            joined = sorted(list(plus) + list(minus))
            assert joined == list(range(m))

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 4)])
    def test_one_sided_activation_at_grid_points(self, m, n):
        rng = np.random.default_rng(11 * m + 5 * n)
        xs, _, net, _ = build_random(rng, m, n)
        (w1, b1), (w2, b2), _ = net.layers
        hidden = np.maximum(w1 @ xs[None, :] + b1[:, None], 0.0)
        units = np.maximum(w2 @ hidden + b2[:, None], 0.0)
        # stage k's plus and minus units are the second-layer rows 2k-1, 2k
        for k in range(1, n + 1):
            assert np.all(np.minimum(units[2 * k - 1], units[2 * k]) <= 1e-12)


class TestPreconditions:
    def test_negative_values_rejected(self):
        xs = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ShapeError):
            SampleSet(xs, [0.0, 1.0, -0.5, 1.0, 0.0], 2, 1)

    def test_wrong_count_rejected(self):
        xs = np.linspace(0.0, 1.0, 6)
        with pytest.raises(ShapeError):
            SampleSet(xs, np.ones(6), 2, 2)

    def test_duplicate_abscissae_rejected(self):
        with pytest.raises(ShapeError):
            SampleSet([0.0, 0.5, 0.5, 0.75, 1.0], np.ones(5), 2, 1)
