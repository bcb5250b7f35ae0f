"""Hoelder approximants, the staircase encoder, delta policy, and CPL closure."""

import math

import numpy as np
import pytest

from reluconstruct import (
    EMPIRICAL_SHRINK,
    PAPER_SUFFICIENT,
    Construction,
    ConstructionInfeasibleError,
    CplFunction,
    DegenerateGridError,
    DeltaChoice,
    DeltaContext,
    DeltaPolicy,
    GridSpec,
    HolderTarget,
    ResolutionError,
    ShapeError,
    build_1d,
    build_dd,
    choose_delta,
    corollary32_check,
    eval_cpl,
    evaluate,
    evaluate_batch,
    exact_l1_cpl,
    holder_family,
    l1_error,
    lemma2_sup_bound,
    net_to_cpl_exact,
    psi0,
    psi_projection,
    theorem_d1,
    theorem_dd,
)
from reluconstruct import construct

GRID_1D = GridSpec(1, 200000)


class TestTheoremD1:
    def test_zero_target_gives_zero_network(self):
        tgt = holder_family("zero", 1, 1.0, 1.0)
        net = theorem_d1(tgt, 3)
        probes = np.linspace(0.0, 1.0, 1001)
        assert np.max(np.abs(evaluate_batch(net, probes))) <= 1e-9

    def test_cone_alpha1_bound_at_n4(self):
        tgt = holder_family("cone", 1, 1.0, 1.0)
        net = theorem_d1(tgt, 4)
        assert net.hidden_widths == [8, 9]
        assert l1_error(tgt, net, GRID_1D) <= 2.0 * 4.0 ** -2

    def test_linear_target_error_lives_on_dont_care_gaps(self):
        tgt = holder_family("linear", 1, 1.0, 1.0)
        big_n = 4
        c = build_1d(tgt, big_n)
        err = l1_error(tgt, c.net, GRID_1D)
        assert err <= 2.0 * big_n ** -2
        # the lifted samples are exactly CPL on the grid, so the whole error
        # fits inside the punctured measure times the sup bound
        sup = lemma2_sup_bound(c.grid, big_n, big_n, 2.0)
        assert err <= big_n * c.delta.delta * sup

    def test_general_nu_contract_matches_prenormalized_route(self):
        rng = np.random.default_rng(44)
        nu, alpha = 2.5, 0.75
        tgt = holder_family("cone", 1, alpha, nu)
        direct = theorem_d1(tgt, 3)
        normalized = HolderTarget(
            f=lambda pts: (tgt(pts) - tgt(np.zeros((1, 1)))[0]) / nu, d=1, alpha=alpha, nu=1.0
        )
        via_affine = build_1d(normalized, 3).net
        from reluconstruct import affine_post

        rebuilt = affine_post(via_affine, nu, float(tgt(np.zeros((1, 1)))[0]))
        for x in rng.uniform(0, 1, 200):
            assert evaluate(direct, x) == pytest.approx(evaluate(rebuilt, x), abs=1e-10)

    def test_wrong_dimension(self):
        with pytest.raises(ShapeError):
            theorem_d1(holder_family("cone", 2, 1.0, 1.0), 4)

    @pytest.mark.parametrize("mode", [EMPIRICAL_SHRINK, PAPER_SUFFICIENT])
    def test_one_lemma2_build_per_delta_candidate(self, monkeypatch, mode):
        calls = []
        real = construct.lemma2_interpolant

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(construct, "lemma2_interpolant", counted)
        # the tighter targets reject the first empirical candidates
        for big_n, alpha, target in ((2, 1.0, None), (4, 0.5, 1e-3), (8, 1.0, 1e-5)):
            calls.clear()
            policy = DeltaPolicy(mode=mode, target=target if mode == EMPIRICAL_SHRINK else None)
            c = build_1d(holder_family("cone", 1, alpha, 1.0), big_n, policy)
            expected = c.delta.iterations if mode == EMPIRICAL_SHRINK else 1
            assert len(calls) == expected
            if mode == EMPIRICAL_SHRINK and target is not None:
                assert expected > 1


class TestPsi0:
    def test_plateau_values(self):
        delta = 0.01
        net = psi0(3, delta)
        assert net.hidden_widths == [6]
        assert evaluate(net, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert evaluate(net, 1 / 3) == pytest.approx(1.0, abs=1e-12)
        assert evaluate(net, 2 / 3) == pytest.approx(2.0, abs=1e-12)
        assert evaluate(net, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_left_plateau_edge(self):
        delta = 0.01
        net = psi0(3, delta)
        assert evaluate(net, 1 / 3 - delta) == pytest.approx(0.0, abs=1e-12)

    def test_ramp_midpoint(self):
        delta = 0.01
        net = psi0(3, delta)
        assert evaluate(net, 1 / 3 - delta / 2) == pytest.approx(0.5, abs=1e-10)

    def test_delta_range(self):
        with pytest.raises(ValueError):
            psi0(3, 0.2)


class TestTheoremDD:
    def test_zero_target_d2(self):
        tgt = holder_family("zero", 2, 1.0, 1.0)
        net = theorem_dd(tgt, 4)
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, (2000, 2))
        assert np.max(np.abs(evaluate_batch(net, pts))) <= 1e-9

    def test_cone_d2_bound_at_n4(self):
        tgt = holder_family("cone", 2, 1.0, 1.0)
        c = build_dd(tgt, 4)
        widths = c.net.hidden_widths
        assert widths[0] <= 2 * 2 * 4 and widths[1] <= 2 * 4 + 2 and widths[2] <= 2 * 4 + 3
        err = l1_error(tgt, c.net, GridSpec(2, 512))
        assert err <= 2.0 * (2.0 * math.sqrt(2.0)) * 4.0 ** -1

    def test_cell_code_is_exact(self):
        psi = psi_projection(4, 2, 1 / 256)
        x = np.array([2 / 4 + 0.03, 3 / 4 + 0.01])
        assert evaluate(psi, x) == pytest.approx(2 / 4 + 3 / 16, abs=1e-12)

    def test_encoder_locally_constant_on_cells(self):
        rng = np.random.default_rng(9)
        n, d = 4, 2
        delta = 1 / 64
        psi = psi_projection(n, d, delta)
        for _ in range(5):
            theta = rng.integers(0, n, d)
            lo = theta / n
            hi = (theta + 1) / n - delta
            pts = lo + (hi - lo) * rng.random((10, d))
            vals = evaluate_batch(psi, pts)
            assert np.max(vals) - np.min(vals) <= 1e-12

    def test_d3_construction_within_bounds(self):
        tgt = holder_family("cone", 3, 1.0, 1.0)
        c = build_dd(tgt, 4)  # n = floor(16^(1/3)) = 2, n' = 3
        assert c.n == 2 and c.n_prime == 3
        widths = c.net.hidden_widths
        assert widths == [2 * 3 * 2, 2 * 3, 2 * 3 + 1]
        err = l1_error(tgt, c.net, GridSpec(3, 64, cap=64**3))
        assert err <= c.bound

    def test_degenerate_grid(self):
        with pytest.raises(DegenerateGridError):
            theorem_dd(holder_family("cone", 2, 1.0, 1.0), 1)

    def test_resolution_guard(self):
        with pytest.raises(ResolutionError):
            theorem_dd(holder_family("cone", 3, 1.0, 1.0), 71)
        with pytest.raises(ShapeError):
            build_dd(holder_family("cone", 1, 1.0, 1.0), 4)


class TestChooseDelta:
    def test_paper_sufficient_n2(self):
        pol = DeltaPolicy(mode="paper-sufficient")
        ctx = DeltaContext(
            min_gap=0.25,
            budget=2.0 ** -2,
            denom_log=math.log(2 * (2 + 6 * math.factorial(3))),
        )
        choice = choose_delta(pol, ctx)
        assert abs(choice.delta - 0.25 / 76) <= 1e-15
        assert not choice.clamped
        assert choice.delta < 0.125  # below half the punctured gap

    def test_paper_sufficient_n16_clamps(self):
        pol = DeltaPolicy(mode="paper-sufficient")
        denom = math.log(16) + np.logaddexp(math.log(2), math.log(6) + math.lgamma(18))
        ctx = DeltaContext(min_gap=1 / 256, budget=16.0 ** -2, denom_log=float(denom))
        with pytest.warns(RuntimeWarning):
            choice = choose_delta(pol, ctx)
        assert choice.clamped
        assert choice.delta == pytest.approx(1e-12)

    def test_empirical_initial_accepted(self):
        pol = DeltaPolicy()
        ctx = DeltaContext(min_gap=0.1, budget=1.0, h_error=lambda d: 0.0)
        choice = choose_delta(pol, ctx)
        assert choice.delta == pol.shrink * 0.05
        assert choice.iterations == 1

    def test_empirical_never_at_or_above_half_gap(self):
        for budget in (1.0, 1e-3):
            ctx = DeltaContext(min_gap=0.2, budget=budget, h_error=lambda d: d)
            choice = choose_delta(DeltaPolicy(), ctx)
            assert choice.delta < 0.1

    def test_empirical_floor_raises(self):
        ctx = DeltaContext(min_gap=0.1, budget=1e-6, h_error=lambda d: 1.0)
        with pytest.raises(ConstructionInfeasibleError) as exc:
            choose_delta(DeltaPolicy(floor=1e-6), ctx)
        assert exc.value.achieved == 1.0


class TestCorollary32:
    def test_two_piece_function(self):
        g = CplFunction([0.0, 0.4, 1.0], [0.0, 0.8, 0.1])
        net, err = corollary32_check(g, 2, 2, 1e-3)
        assert err <= 1e-3
        assert net.hidden_widths == [4, 5]

    def test_constant_function(self):
        g = CplFunction([0.0, 1.0], [0.3, 0.3])
        _, err = corollary32_check(g, 2, 2, 1e-3)
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_hat_at_capacity_boundary(self):
        g = CplFunction([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        _, err = corollary32_check(g, 1, 1, 1e-3)
        assert err <= 1e-3

    def test_capacity_exceeded(self):
        breaks = np.linspace(0.0, 1.0, 5)
        g = CplFunction(breaks, [0.0, 1.0, 0.0, 1.0, 0.0])
        with pytest.raises(ShapeError):
            corollary32_check(g, 1, 1, 1e-3)

    def test_matches_secondary_extraction_route(self):
        rng = np.random.default_rng(77)
        breaks = np.array([0.0, 0.23, 0.61, 0.8, 1.0])
        g = CplFunction(breaks, rng.uniform(-1, 1, 5))
        net, err = corollary32_check(g, 2, 2, 1e-3)
        exact = exact_l1_cpl(net_to_cpl_exact(net, 0.0, 1.0), g, 0.0, 1.0)
        assert exact <= 1e-3
        assert err == pytest.approx(exact, rel=0.05, abs=1e-6)

    def test_grid_collision_then_recovery(self, monkeypatch):
        # delta_cap = 1/4 is wider than the 0.075 grid gap at (4, 2), so the
        # first width collides and the halved one fits
        raised, fits = [], []

        class CountingResolutionError(ResolutionError):
            def __init__(self, *args):
                super().__init__(*args)
                raised.append(self)

        lemma2 = construct.lemma2_interpolant

        def counting_lemma2(plan):
            fits.append(plan)
            return lemma2(plan)

        monkeypatch.setattr(construct, "ResolutionError", CountingResolutionError)
        monkeypatch.setattr(construct, "lemma2_interpolant", counting_lemma2)
        g = CplFunction([0.0, 1.0], [0.7, 0.7])
        net, err = corollary32_check(g, 4, 2, 1e-3)
        assert len(raised) == 1
        assert len(fits) == 1
        assert err == 0.0
        assert net.hidden_widths == [8, 5]


def takagi(levels):
    """Truncated Takagi function ``sum_{k<levels} 2^-k dist(2^k x, Z)``.

    Lipschitz with constant exactly ``levels``, reached only as x -> 0+.
    """

    def f(points):
        t = 2.0 ** np.arange(levels) * points[:, :1]
        return np.sum(np.abs(t - np.round(t)) / 2.0 ** np.arange(levels), axis=1)

    return f


def test_certificate_spot_check_warns():
    bad = HolderTarget(f=lambda pts: 100.0 * pts[:, 0] ** 2, d=1, alpha=1.0, nu=1.0)
    with pytest.warns(RuntimeWarning):
        build_1d(bad, 2)
    # random pairs rarely look near 0; the grid neighbours (0, 2^-12) see
    # slope 12, so nu = 5 breaks the certificate by a factor 2.4
    understated = HolderTarget(f=takagi(16), d=1, alpha=1.0, nu=5.0)
    with pytest.warns(RuntimeWarning, match=r"ratio 2\.400"):
        build_1d(understated, 2)


@pytest.mark.parametrize("big_n", [2, 5])
def test_builders_return_one_record(big_n):
    c1 = build_1d(holder_family("cone", 1, 0.5, 1.0), big_n)
    assert type(c1) is Construction
    assert (c1.n, c1.n_prime) == (big_n * big_n, big_n)
    assert c1.grid.size == big_n * (big_n + 1) + 1
    for d in (2, 3):
        cd = build_dd(holder_family("cone", d, 1.0, 1.0), 2 * big_n)
        assert type(cd) is Construction
        assert cd.grid.size == cd.n_prime * (cd.n_prime + 1) + 1
