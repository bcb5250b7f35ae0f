"""Quadrature error measurement, target families, and rate fitting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reluconstruct import (
    CertificateError,
    CplFunction,
    GridSpec,
    Lemma2Plan,
    RegistryError,
    ResourceError,
    SampleSet,
    ShapeError,
    build_1d,
    build_dd,
    default_grid,
    exact_l1_cpl,
    grid_errors,
    holder_family,
    l1_error,
    lemma1_interpolant,
    lemma2_interpolant,
    linf_error,
    net_to_cpl_exact,
    psi_projection,
    rate_fit,
    spot_check_holder,
)
from reluconstruct import metrics
from reluconstruct.network import ReluNetwork, evaluate_batch


def zero_net(d=1):
    return ReluNetwork(d, ((np.zeros((1, d)), np.zeros(1)),))


class TestGridSpec:
    def test_cap_enforced(self):
        with pytest.raises(ResourceError):
            GridSpec(3, 4000)

    def test_defaults(self):
        assert default_grid(1).points_per_axis == 10**6
        assert default_grid(2).points_per_axis == 2048
        assert default_grid(3).points_per_axis == 256

    def test_rule_names(self):
        with pytest.raises(ValueError):
            GridSpec(1, 100, rule="simpson")


class TestL1Error:
    def test_self_difference_is_zero(self):
        rng = np.random.default_rng(3)
        xs = np.cumsum(rng.uniform(0.1, 0.3, 6))
        xs = (xs - xs[0]) / (xs[-1] - xs[0])
        net = lemma1_interpolant(SampleSet(xs, rng.uniform(-1, 1, 6)))
        f = lambda pts: evaluate_batch(net, pts)
        assert l1_error(f, net, GridSpec(1, 10000)) <= 1e-12

    def test_linear_vs_zero(self):
        f = lambda pts: pts[:, 0]
        assert l1_error(f, zero_net(), GridSpec(1, 10**6)) == pytest.approx(0.5, abs=1e-6)

    def test_matches_exact_piecewise_oracle(self):
        rng = np.random.default_rng(8)
        xs = np.linspace(0.0, 1.0, 9)
        ys = rng.uniform(-1.0, 1.0, 9)
        cpl = CplFunction(xs, ys)
        net = lemma1_interpolant(SampleSet(np.linspace(0, 1, 5), rng.uniform(-1, 1, 5)))
        approx = l1_error(lambda pts: np.interp(pts[:, 0], xs, ys), net, GridSpec(1, 200000))
        exact = exact_l1_cpl(cpl, net_to_cpl_exact(net, 0.0, 1.0), 0.0, 1.0)
        assert approx == pytest.approx(exact, abs=1e-4)

    def test_trapezoid_rule(self):
        f = lambda pts: pts[:, 0]
        assert l1_error(f, zero_net(), GridSpec(1, 10**5, rule="trapezoid")) == pytest.approx(
            0.5, abs=1e-9
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            l1_error(lambda pts: pts[:, 0], zero_net(1), GridSpec(2, 64))

    def test_refinement_converges(self):
        f = lambda pts: np.abs(pts[:, 0] - 1 / 3)
        coarse = l1_error(f, zero_net(), GridSpec(1, 1000))
        mid = l1_error(f, zero_net(), GridSpec(1, 2000))
        fine = l1_error(f, zero_net(), GridSpec(1, 4000))
        exact = 1 / 2 * ((1 / 3) ** 2 + (2 / 3) ** 2)
        assert abs(fine - exact) <= abs(coarse - exact) + 1e-12
        assert abs(fine - mid) <= 0.6 * abs(mid - coarse) + 1e-12


class TestLinfError:
    def test_zero_for_self(self):
        net = zero_net()
        assert linf_error(lambda pts: np.zeros(len(pts)), net, GridSpec(1, 1000)) == 0.0

    def test_linear_approaches_one(self):
        f = lambda pts: pts[:, 0]
        v = linf_error(f, zero_net(), GridSpec(1, 10**4))
        assert v >= 1 - 1e-4
        assert v <= 1.0

    def test_hat_gap(self):
        hat = lambda pts: 1.0 - 2.0 * np.abs(pts[:, 0] - 0.5)
        tri = lemma1_interpolant(SampleSet([0.0, 0.5, 1.0], [0.0, 0.75, 0.0]))
        v = linf_error(hat, tri, GridSpec(1, 10**5))
        assert v == pytest.approx(0.25, abs=1e-4)

    def test_l1_below_linf_on_unit_measure(self):
        rng = np.random.default_rng(10)
        net = lemma1_interpolant(SampleSet(np.linspace(0, 1, 4), rng.uniform(-1, 1, 4)))
        f = lambda pts: np.sin(3 * pts[:, 0])
        g = GridSpec(1, 20000)
        assert l1_error(f, net, g) <= linf_error(f, net, g) + 1e-15


# agreement of the compiled quadrature with dense evaluation, the same
# tolerance bench/workloads.py admits for a fast path
ATOL, RTOL = 1e-11, 1e-9
RULES = ("midpoint", "trapezoid")


def dense_reference(f, net, grid):
    """(L1, Linf) from plain ``evaluate_batch`` over the same chunks."""
    total, worst = 0.0, 0.0
    for coords, weights, _ in metrics._chunks(grid, *metrics._axis_points(grid)):
        err = np.abs(f(coords) - evaluate_batch(net, coords))
        total += float(np.sum(err * weights))
        worst = max(worst, float(np.max(err)))
    return total, worst


def assert_agrees(f, net, grid):
    ref_l1, ref_linf = dense_reference(f, net, grid)
    assert abs(l1_error(f, net, grid) - ref_l1) <= ATOL + RTOL * abs(ref_l1)
    assert abs(linf_error(f, net, grid) - ref_linf) <= ATOL + RTOL * abs(ref_linf)


def random_net(rng, d, depth):
    dims = [d] + [6] * depth + [1]
    return ReluNetwork(d, tuple(
        (rng.normal(size=(o, i)), rng.normal(size=o)) for i, o in zip(dims, dims[1:])
    ))


def cone(d):
    return holder_family("cone", d, 0.5, 1.0)


def tilted(d):
    """The cone plus a slope that differs per axis: a mirrored or swapped
    axis changes its error, unlike the cone's."""
    slopes = np.arange(1, d + 1) / (4.0 * d)
    return lambda pts: cone(d)(pts) + pts @ slopes


def count_dense_calls(monkeypatch):
    calls = []

    def counted(net, xs):
        calls.append(len(xs))
        return evaluate_batch(net, xs)

    monkeypatch.setattr(metrics, "evaluate_batch", counted)
    return calls


class TestCompiledQuadrature:
    @pytest.mark.parametrize("rule", RULES)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_random_1d_networks(self, depth, rule):
        rng = np.random.default_rng(40 + depth)
        for _ in range(5):
            net = random_net(rng, 1, depth)
            assert_agrees(lambda pts: np.sin(5 * pts[:, 0]), net, GridSpec(1, 20001, rule))

    @pytest.mark.parametrize("rule", RULES)
    def test_lemma_interpolants(self, rule):
        rng = np.random.default_rng(12)
        f = tilted(1)
        grid = GridSpec(1, 50001, rule)
        xs = np.linspace(0.0, 1.0, 9)
        assert_agrees(f, lemma1_interpolant(SampleSet(xs, rng.uniform(-1, 1, 9))), grid)
        for m, n in ((1, 1), (2, 3), (4, 4)):
            xs = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0, 1, m * (n + 1) - 1))))
            plan = Lemma2Plan(m, n, SampleSet(xs, rng.uniform(0, 2, xs.size), m, n))
            assert_agrees(f, lemma2_interpolant(plan)[0], grid)

    @pytest.mark.parametrize("rule", RULES)
    @pytest.mark.parametrize("big_n", [2, 3, 5, 8, 16, 32, 64])
    def test_build_1d(self, big_n, rule):
        assert_agrees(tilted(1), build_1d(cone(1), big_n).net, GridSpec(1, 100001, rule))

    @pytest.mark.parametrize("rule", RULES)
    @pytest.mark.parametrize("d,big_n,p", [(2, 4, 256), (2, 9, 256), (2, 16, 256),
                                           (3, 8, 40), (3, 27, 40)])
    def test_build_dd(self, d, big_n, p, rule):
        assert_agrees(tilted(d), build_dd(cone(d), big_n).net, GridSpec(d, p, rule))

    @pytest.mark.parametrize("rule", RULES)
    @pytest.mark.parametrize("d", [2, 3])
    def test_psi_projection(self, d, rule):
        assert_agrees(tilted(d), psi_projection(4, d, 0.01), GridSpec(d, 64, rule))

    def test_compiled_paths_skip_dense_evaluation(self, monkeypatch):
        calls = count_dense_calls(monkeypatch)
        rng = np.random.default_rng(5)
        l1_error(cone(2), build_dd(cone(2), 9).net, GridSpec(2, 128))
        l1_error(cone(3), psi_projection(3, 3, 0.01), GridSpec(3, 16))
        l1_error(cone(1), random_net(rng, 1, 3), GridSpec(1, 1000))
        linf_error(cone(1), build_1d(cone(1), 8).net, GridSpec(1, 1000))
        # every hidden unit off on the cube: constant tables, a one-point z range
        constant = ReluNetwork(2, ((np.eye(2), np.full(2, -2.0)), (np.ones((1, 2)), [0.5])))
        assert_agrees(tilted(2), constant, GridSpec(2, 64))
        assert calls == []

    @pytest.mark.parametrize("case", ["rank-2", "dense", "two-nonzero-row"])
    def test_other_networks_fall_back(self, case, monkeypatch):
        rng = np.random.default_rng(6)
        if case == "rank-2":
            (w1, b1), (w2, b2), *rest = build_dd(cone(2), 9).net.layers
            w2 = w2.copy()
            w2[0, 0] += 0.5
            net = ReluNetwork(2, ((w1, b1), (w2, b2), *rest))
        elif case == "dense":
            net = random_net(rng, 2, 2)
        else:
            net = psi_projection(4, 2, 0.01)
            (w1, b1), last = net.layers
            w1 = w1.copy()
            w1[0, 1] = 0.25
            net = ReluNetwork(2, ((w1, b1), last))
        calls = count_dense_calls(monkeypatch)
        assert_agrees(tilted(2), net, GridSpec(2, 128))
        assert len(calls) > 0


def two_pass_reference(f, net, grid):
    """(L1, Linf) from one ``_abs_errors`` pass each, the same reductions."""
    total = 0.0
    for err, weights in metrics._abs_errors(f, net, grid):
        total += float(np.sum(err * weights))
    worst = 0.0
    for err, _ in metrics._abs_errors(f, net, grid):
        worst = max(worst, float(np.max(err)))
    return total, worst


class TestGridErrors:
    """One pass gives both errors, equal to two passes to the last bit."""

    @pytest.mark.parametrize("rule", RULES)
    @pytest.mark.parametrize("case", ["1d-compiled", "dd-compiled", "dense"])
    def test_equals_two_passes(self, case, rule, monkeypatch):
        calls = count_dense_calls(monkeypatch)
        if case == "1d-compiled":
            net, grid = build_1d(cone(1), 16).net, GridSpec(1, 100001, rule)
        elif case == "dd-compiled":
            net, grid = build_dd(cone(2), 9).net, GridSpec(2, 256, rule)
        else:
            net, grid = random_net(np.random.default_rng(7), 2, 2), GridSpec(2, 128, rule)
        f = tilted(grid.d)
        both = grid_errors(f, net, grid)
        assert both == two_pass_reference(f, net, grid)
        assert both == (l1_error(f, net, grid), linf_error(f, net, grid))
        assert (len(calls) > 0) == (case == "dense")

    @pytest.mark.parametrize("rule", RULES)
    def test_several_chunks(self, rule):
        grid = GridSpec(1, 3 * 2**18 + 7, rule)
        assert sum(1 for _ in metrics._chunks(grid, *metrics._axis_points(grid))) == 4
        f, net = tilted(1), build_1d(cone(1), 8).net
        assert grid_errors(f, net, grid) == two_pass_reference(f, net, grid)


class TestHolderFamily:
    def test_cone_values_1d(self):
        t = holder_family("cone", 1, 0.5, 1.0)
        assert t(np.array([[0.5]]))[0] == 0.0
        assert t(np.array([[1.0]]))[0] == pytest.approx(np.sqrt(0.5))

    def test_cone_certificate_d2(self):
        t = holder_family("cone", 2, 1.0, 2.0)
        rng = np.random.default_rng(0)
        x = rng.random((10**4, 2))
        y = rng.random((10**4, 2))
        lhs = np.abs(t(x) - t(y))
        rhs = 2.0 * np.linalg.norm(x - y, axis=1)
        assert np.all(lhs <= rhs + 1e-12)
        assert spot_check_holder(t) <= 1.0 + 1e-12

    def test_zero_family(self):
        t = holder_family("zero", 2, 1.0, 1.0)
        assert np.all(t(np.random.default_rng(1).random((100, 2))) == 0.0)

    def test_unknown_name(self):
        with pytest.raises(RegistryError):
            holder_family("spiral", 1, 1.0, 1.0)

    def test_linear_needs_alpha_one(self):
        with pytest.raises(CertificateError):
            holder_family("linear", 1, 0.5, 1.0)

    def test_alpha_range(self):
        with pytest.raises(CertificateError):
            holder_family("cone", 1, 1.5, 1.0)


class TestRateFit:
    def test_exact_quadratic_law(self):
        pairs = [(n, 3.0 * n**-2) for n in (2, 4, 8, 16)]
        fit = rate_fit(pairs)
        assert fit.slope == pytest.approx(-2.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_inverse_law(self):
        fit = rate_fit([(n, 1.0 / n) for n in (2, 3, 5, 9)])
        assert fit.slope == pytest.approx(-1.0, abs=1e-10)

    def test_multiplicative_noise(self):
        rng = np.random.default_rng(123)
        pairs = [(n, n**-2 * rng.uniform(0.9, 1.1)) for n in (2, 4, 8, 16, 32)]
        fit = rate_fit(pairs)
        assert -2.1 <= fit.slope <= -1.9

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.1, 10.0))
    def test_scale_invariance(self, c):
        base = [(n, n**-1.5) for n in (2, 4, 8)]
        scaled = [(n, c * e) for n, e in base]
        assert rate_fit(scaled).slope == pytest.approx(rate_fit(base).slope, abs=1e-12)

    def test_nonpositive_error_rejected(self):
        with pytest.raises(ValueError):
            rate_fit([(2, 0.1), (4, 0.0)])

    def test_too_few_pairs(self):
        with pytest.raises(ShapeError):
            rate_fit([(2, 0.1)])
