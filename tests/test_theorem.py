"""Hoelder approximants, the staircase encoder, delta policy, and CPL closure."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from reluconstruct import (
    EMPIRICAL_SHRINK,
    PAPER_SUFFICIENT,
    Construction,
    CertificateError,
    ConstructionInfeasibleError,
    CplFunction,
    DegenerateGridError,
    DeltaChoice,
    DeltaPolicy,
    GridSpec,
    HolderTarget,
    ResolutionError,
    SampleSet,
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
)
from reluconstruct import construct
from reluconstruct.cpl import MIN_BREAK_GAP

GRID_1D = GridSpec(1, 200000)


class TestTheoremD1:
    def test_zero_target_gives_zero_network(self):
        tgt = holder_family("zero", 1, 1.0, 1.0)
        net = build_1d(tgt, 3).net
        probes = np.linspace(0.0, 1.0, 1001)
        assert np.max(np.abs(evaluate_batch(net, probes))) <= 1e-9

    def test_cone_alpha1_bound_at_n4(self):
        tgt = holder_family("cone", 1, 1.0, 1.0)
        net = build_1d(tgt, 4).net
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
        direct = build_1d(tgt, 3).net
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
            build_1d(holder_family("cone", 2, 1.0, 1.0), 4).net

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
        net = build_dd(tgt, 4).net
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
        err = l1_error(tgt, c.net, GridSpec(3, 64))
        assert err <= c.bound

    def test_degenerate_grid(self):
        with pytest.raises(DegenerateGridError):
            build_dd(holder_family("cone", 2, 1.0, 1.0), 1).net

    def test_resolution_guard(self):
        with pytest.raises(ResolutionError):
            build_dd(holder_family("cone", 3, 1.0, 1.0), 71).net
        with pytest.raises(ShapeError):
            build_dd(holder_family("cone", 1, 1.0, 1.0), 4)


class TestChooseDelta:
    def test_paper_sufficient_n2(self):
        pol = DeltaPolicy(mode="paper-sufficient")
        choice = choose_delta(
            pol,
            min_gap=0.25,
            budget=2.0 ** -2,
            denom_log=math.log(2 * (2 + 6 * math.factorial(3))),
        )
        assert abs(choice.delta - 0.25 / 76) <= 1e-15
        assert not choice.clamped
        assert choice.delta < 0.125  # below half the punctured gap

    def test_paper_sufficient_n16_clamps(self):
        pol = DeltaPolicy(mode="paper-sufficient")
        denom = math.log(16) + np.logaddexp(math.log(2), math.log(6) + math.lgamma(18))
        with pytest.warns(RuntimeWarning):
            choice = choose_delta(pol, min_gap=1 / 256, budget=16.0 ** -2, denom_log=float(denom))
        assert choice.clamped
        assert choice.delta == pytest.approx(1e-12)

    def test_empirical_initial_accepted(self):
        pol = DeltaPolicy()
        choice = choose_delta(pol, min_gap=0.1, budget=1.0, h_error=lambda d: 0.0)
        assert choice.delta == construct.DELTA_SHRINK * 0.05
        assert choice.iterations == 1

    def test_empirical_never_at_or_above_half_gap(self):
        for budget in (1.0, 1e-3):
            choice = choose_delta(DeltaPolicy(), min_gap=0.2, budget=budget, h_error=lambda d: d)
            assert choice.delta < 0.1

    def test_empirical_floor_raises(self):
        with pytest.raises(ConstructionInfeasibleError) as exc:
            choose_delta(DeltaPolicy(floor=1e-6), min_gap=0.1, budget=1e-6, h_error=lambda d: 1.0)
        assert exc.value.achieved == 1.0

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, MIN_BREAK_GAP, 1e-30])
    def test_floor_must_lie_above_min_break_gap(self, value):
        with pytest.raises(ValueError, match="floor"):
            DeltaPolicy(floor=value)
        # the target only has to be positive and finite
        if 0 < value < math.inf:
            assert DeltaPolicy(target=value).target == value
        else:
            with pytest.raises(ValueError, match="target"):
                DeltaPolicy(target=value)

    @pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("mode", [PAPER_SUFFICIENT, EMPIRICAL_SHRINK])
    def test_budget_must_be_positive_and_finite(self, mode, budget):
        # paper mode returned delta nan or hit a math domain error; the
        # empirical search ran ~40 halvings to an infeasible floor
        tried = []
        with pytest.raises(ValueError, match="budget must be positive and finite"):
            choose_delta(DeltaPolicy(mode=mode), min_gap=0.1, budget=budget, denom_log=1.0,
                         h_error=lambda d: tried.append(d) or 0.0)
        assert tried == []

    @pytest.mark.parametrize("mode", [PAPER_SUFFICIENT, EMPIRICAL_SHRINK])
    def test_target_is_the_budget_checked(self, mode):
        choice = choose_delta(DeltaPolicy(mode=mode, target=1.0), min_gap=0.1, budget=math.nan,
                              denom_log=1.0, h_error=lambda d: 0.0)
        assert 0 < choice.delta < 0.05

    def test_paper_mode_refuses_nan_denominator(self):
        # it returned DeltaChoice(delta=nan)
        with pytest.raises(ValueError, match="denominator, got nan"):
            choose_delta(DeltaPolicy(mode=PAPER_SUFFICIENT), min_gap=0.1, budget=1.0,
                         denom_log=math.nan)

    def test_empirical_mode_refuses_nan_error(self):
        # it halved delta to the floor, then reported "measured error nan
        # still exceeds budget" as an infeasible construction
        tried = []
        with pytest.raises(ValueError, match="NaN at delta 0.025"):
            choose_delta(DeltaPolicy(), min_gap=0.1, budget=1.0,
                         h_error=lambda d: tried.append(d) or math.nan)
        assert tried == [0.025]

    def test_checked_fields_cannot_be_reassigned(self):
        policy = DeltaPolicy()
        for field, value in (("floor", 1e-30), ("mode", "bisect")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(policy, field, value)

    def test_unmet_budget_runs_to_the_floor(self):
        tried = []
        with pytest.raises(ConstructionInfeasibleError, match="floor width 1.000e-12") as exc:
            choose_delta(DeltaPolicy(floor=1e-12), min_gap=1.0, budget=1e-6,
                         h_error=lambda d: tried.append(d) or 1.0)
        assert exc.value.delta == 1e-12
        assert tried[0] == 0.25 and tried[-1] == 1e-12
        assert all(b == max(a / 2, 1e-12) for a, b in zip(tried, tried[1:]))

    @pytest.mark.parametrize("big_n", [8, 16, 32])
    def test_unreachable_budget_reaches_the_floor(self, big_n):
        # at N >= 16 the floor's first sliver holds crossings closer than
        # MIN_BREAK_GAP, which a per-sliver compile merged into one break
        with pytest.raises(ConstructionInfeasibleError) as exc:
            build_1d(holder_family("cone", 1, 0.5, 1.0), big_n, DeltaPolicy(target=1e-30))
        assert exc.value.delta == 1e-12
        assert exc.value.achieved > 1e-30


def reference_closure_grid(interior, m, n, delta):
    """The closure grid as a slot state machine: the layout ``_closure_grid`` replaced."""
    slots = []
    for j in range(m):
        slots.extend(("interior", j, p) for p in range(1, n))
        slots.append(("sliver", j, None))
    assigned = {s: float(interior[i]) for i, s in enumerate(slots[: len(interior)])}
    last = m * (n + 1)
    fixed = {0: 0.0}
    extension = False
    for (kind, j, p), beta in assigned.items():
        if kind == "interior":
            fixed[j * (n + 1) + p] = beta
        elif j < m - 1:
            fixed[j * (n + 1) + n] = beta - delta
            fixed[(j + 1) * (n + 1)] = beta
        else:
            fixed[last - 1] = beta
            fixed[last] = beta + delta
            extension = True
    if not extension:
        fixed[last - 1] = 1.0 - delta
        fixed[last] = 1.0
    xs = np.full(last + 1, np.nan)
    for i, v in fixed.items():
        xs[i] = v
    known = np.nonzero(~np.isnan(xs))[0]
    for a, b in zip(known[:-1], known[1:]):
        span = b - a
        if span > 1:
            xs[a + 1 : b] = xs[a] + (xs[b] - xs[a]) * np.arange(1, span) / span
    for j in range(m):
        if ("sliver", j, None) not in assigned:
            left = j * (n + 1) + n
            xs[left] = xs[left + 1] - delta
    if np.diff(xs).min() <= 0:
        raise ResolutionError("grid collision while narrowing slivers")
    return xs


def reference_grid_1d(n_cap, blocks, delta):
    """``{i/n_cap} + {j/blocks - delta}`` sorted: the theorem layout ``_closure_grid`` replaced."""
    base = np.arange(n_cap + 1) / n_cap
    punct = np.arange(1, blocks + 1) / blocks - delta
    xs = np.sort(np.concatenate((base, punct)))
    if np.diff(xs).min() <= 0:
        raise ResolutionError("puncture width collides with the base grid")
    return xs


@pytest.mark.parametrize("form", ["build_1d", "psi0"])
def test_theorem_grids_match_sorted_reference(form):
    outcomes = {True: 0, False: 0}
    for k in range(1, 65):
        # build_1d: N = k, base grid k^2, k blocks of k slots; psi0: n = k blocks of one slot
        n_cap, m, n = (k * k, k, k) if form == "build_1d" else (k, k, 1)
        for delta in (0.49 / n_cap, 0.25 / n_cap, 1e-3 / n_cap, 1e-9, 1e-12, 1e-17):
            try:
                expected = reference_grid_1d(n_cap, k, delta)
            except ResolutionError:
                expected = None
            interior = np.arange(1, n_cap) / n_cap
            if expected is None:
                with pytest.raises(ResolutionError):
                    construct._closure_grid(interior, m, n, delta)
            else:
                xs = construct._closure_grid(interior, m, n, delta)
                assert xs.tobytes() == expected.tobytes(), (k, delta)
            outcomes[expected is None] += 1
    # the 1e-17 widths round away at the larger breaks: both paths are exercised
    assert outcomes[True] > 0 and outcomes[False] > 0, outcomes


class TestCorollary32:
    def test_grid_matches_slot_reference(self):
        rng = np.random.default_rng(32)
        outcomes = {True: 0, False: 0}
        for m, n in itertools.product(range(1, 7), repeat=2):
            for q in range(m * n + 1):
                for interior in (np.sort(rng.uniform(0.0, 1.0, q)), np.arange(1, q + 1) / (q + 1)):
                    gaps = np.diff(np.concatenate(([0.0], interior, [1.0])))
                    delta_cap = float(np.min(gaps)) / max(4, n + 2)
                    for delta in (delta_cap, delta_cap / 2, delta_cap / 64, 1e-9, 1e-12):
                        try:
                            expected = reference_closure_grid(interior, m, n, delta)
                        except ResolutionError:
                            expected = None
                        if expected is None:
                            with pytest.raises(ResolutionError):
                                construct._closure_grid(interior, m, n, delta)
                        else:
                            xs = construct._closure_grid(interior, m, n, delta)
                            assert xs.tobytes() == expected.tobytes(), (m, n, q, delta)
                        outcomes[expected is None] += 1
        # both the layout and the collision path are exercised
        assert outcomes[True] > 0 and outcomes[False] > 0, outcomes

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

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_reported_error_is_the_networks_distance(self):
        # x^0.25 on knots clustered at 0: the probed measure reports 7.225e-6
        # for a network whose exact distance to g is 2.390e-7
        breaks = (np.arange(17) / 16.0) ** 4
        g = CplFunction(breaks, breaks ** 0.25)
        net, err = corollary32_check(g, 4, 4, 1e-3)
        exact = exact_l1_cpl(net_to_cpl_exact(net, 0.0, 1.0), g, 0.0, 1.0)
        assert err == pytest.approx(exact, rel=1e-9, abs=0.0)

    def test_grid_collision_then_recovery(self, monkeypatch):
        # delta_cap = 1/4 is wider than the 0.075 grid gap at (4, 2), so the
        # first width collides and the halved one fits
        raised, fits = [], []

        class CountingResolutionError(ResolutionError):
            def __init__(self, *args):
                super().__init__(*args)
                raised.append(self)

        lemma2 = construct.lemma2_interpolant

        def counting_lemma2(plan, **kwargs):
            fits.append(plan)
            return lemma2(plan, **kwargs)

        monkeypatch.setattr(construct, "ResolutionError", CountingResolutionError)
        monkeypatch.setattr(construct, "lemma2_interpolant", counting_lemma2)
        g = CplFunction([0.0, 1.0], [0.7, 0.7])
        net, err = corollary32_check(g, 4, 2, 1e-3)
        assert len(raised) == 1
        assert len(fits) == 1
        assert err == 0.0
        assert net.hidden_widths == [8, 5]

    def test_collision_at_the_floor_is_raised(self, monkeypatch):
        # a width that collides is skipped while a narrower one remains; at
        # the floor the collision itself ends the search
        widths = []

        def colliding(sample, interior, m, n):
            def build(delta):
                widths.append(delta)
                raise ResolutionError("grid collision while narrowing slivers")

            return build

        monkeypatch.setattr(construct, "_sliver_fit", colliding)
        with pytest.raises(ResolutionError, match="grid collision while narrowing slivers"):
            corollary32_check(_HAT, 2, 2, 1e-3)
        assert len(widths) > 1 and widths[-1] == DeltaPolicy().floor
        assert all(w > widths[-1] for w in widths[:-1])


def takagi(levels):
    """Truncated Takagi function ``sum_{k<levels} 2^-k dist(2^k x, Z)``.

    Lipschitz with constant exactly ``levels``, reached only as x -> 0+.
    """

    def f(points):
        t = 2.0 ** np.arange(levels) * points[:, :1]
        return np.sum(np.abs(t - np.round(t)) / 2.0 ** np.arange(levels), axis=1)

    return f


@pytest.mark.parametrize("field, value", [("alpha", 3.0), ("nu", 0.1), ("d", 2)])
def test_target_certificate_cannot_be_reassigned(field, value):
    tgt = holder_family("cone", 1, 0.5, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(tgt, field, value)
    assert (tgt.d, tgt.alpha, tgt.nu) == (1, 0.5, 1.0)


def test_certificate_spot_check_warns():
    bad = HolderTarget(f=lambda pts: 100.0 * pts[:, 0] ** 2, d=1, alpha=1.0, nu=1.0)
    with pytest.warns(RuntimeWarning):
        build_1d(bad, 2)
    # random pairs rarely look near 0; the grid neighbours (0, 2^-12) see
    # slope 12, so nu = 5 breaks the certificate by a factor 2.4
    understated = HolderTarget(f=takagi(16), d=1, alpha=1.0, nu=5.0)
    with pytest.warns(RuntimeWarning, match=r"ratio 2\.400"):
        build_1d(understated, 2)


def test_certificate_spot_checked_once_per_target(monkeypatch):
    # the ratio is kept on the target; every build still warns with it
    checked = []
    check = construct.spot_check_holder
    monkeypatch.setattr(construct, "spot_check_holder", lambda t: checked.append(t) or check(t))
    bad = HolderTarget(f=lambda pts: 100.0 * pts[:, 0] ** 2, d=1, alpha=1.0, nu=1.0)
    for big_n in (2, 3, 2):
        with pytest.warns(RuntimeWarning, match=r"ratio 199\.976"):
            build_1d(bad, big_n)
    assert checked == [bad]
    cone = holder_family("cone", 2, 1.0, 1.0)
    build_dd(cone, 4)
    build_dd(cone, 9)
    assert checked == [bad, cone]


_CONE_1D = holder_family("cone", 1, 1.0, 1.0)
_CONE_2D = holder_family("cone", 2, 1.0, 1.0)
_HAT = CplFunction([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: DeltaPolicy(mode="bisect"), ValueError, "unknown delta mode"),
        (lambda: choose_delta(DeltaPolicy(mode=PAPER_SUFFICIENT), min_gap=0.1, budget=1.0),
         ValueError, "closed-form denominator"),
        (lambda: choose_delta(DeltaPolicy(), min_gap=0.1, budget=1.0),
         ValueError, "h_error"),
        # a search from an infinite or NaN width would never reach the floor
        *[(lambda gap=gap: choose_delta(DeltaPolicy(), min_gap=gap, budget=0.0,
                                        h_error=lambda d: 1.0),
           ValueError, "min_gap") for gap in (math.inf, math.nan, 0.0, -1.0)],
        (lambda: HolderTarget(f=lambda pts: pts[:, 0], d=0, alpha=1.0, nu=1.0),
         ShapeError, "d must be"),
        (lambda: build_1d(_CONE_1D, 0), ValueError, "N must be"),
        (lambda: build_dd(_CONE_2D, 0), ValueError, "N must be"),
        (lambda: psi0(0, 0.1), ValueError, "n must be"),
        (lambda: psi_projection(2, 0, 0.1), ShapeError, "d must be a positive integer"),
        (lambda: corollary32_check(_HAT, 0, 1, 1e-3), ValueError, "m must be a positive integer"),
        (lambda: corollary32_check(_HAT, 1, 0, 1e-3), ValueError, "n must be a positive integer"),
        (lambda: corollary32_check(_HAT, 1, 1, 0.0), ValueError, "epsilon"),
        (lambda: corollary32_check(_HAT, 1, 1, -1e-3), ValueError, "epsilon"),
        (lambda: corollary32_check(_HAT, 1, 1, math.nan), ValueError, "epsilon"),
        (lambda: corollary32_check(_HAT, 1, 1, math.inf), ValueError, "epsilon"),
    ],
    ids=["delta-mode", "paper-without-denominator", "empirical-without-h-error",
         "min-gap-inf", "min-gap-nan", "min-gap-0", "min-gap-negative",
         "holder-d0", "build_1d-N0", "build_dd-N0", "psi0-n0", "psi-projection-d0",
         "closure-m0", "closure-n0",
         "closure-eps0", "closure-eps-negative", "closure-eps-nan", "closure-eps-inf"],
)
def test_argument_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()


def _holder(d):
    return HolderTarget(f=lambda pts: pts[:, 0], d=d, alpha=1.0, nu=1.0)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: build_1d(_CONE_1D, 4.0), ValueError),
        (lambda: build_1d(_CONE_1D, np.float64(4)), ValueError),
        (lambda: build_1d(_CONE_1D, True), ValueError),
        (lambda: build_dd(_CONE_2D, 4.5), ValueError),
        (lambda: build_dd(_CONE_2D, 4.0), ValueError),
        (lambda: build_dd(_CONE_2D, True), ValueError),
        (lambda: psi0(2.5, 0.1), ValueError),
        (lambda: psi_projection(2, 1.5, 0.1), ShapeError),
        (lambda: corollary32_check(_HAT, 2.0, 2, 1e-3), ValueError),
        (lambda: corollary32_check(_HAT, 2, np.float32(2), 1e-3), ValueError),
        (lambda: corollary32_check(_HAT, True, 2, 1e-3), ValueError),
        (lambda: _holder(1.5), ShapeError),
        (lambda: SampleSet(np.linspace(0, 1, 7), np.ones(7), 2.0, 2), ShapeError),
        (lambda: SampleSet(np.linspace(0, 1, 8), np.ones(8), True, 6), ShapeError),
        (lambda: _holder(2.0), ShapeError),
        (lambda: _holder(True), ShapeError),
    ],
    ids=["build_1d-4.0", "build_1d-f64", "build_1d-bool", "build_dd-4.5", "build_dd-4.0",
         "build_dd-bool", "psi0-2.5", "psi-projection-d1.5", "closure-m-float",
         "closure-n-f32", "closure-m-bool", "holder-d1.5", "samples-m-float",
         "samples-m-bool", "holder-d2.0", "holder-d-bool"],
)
def test_non_integer_sizes_rejected(call, error):
    # the class each function raises for a size below 1, not a bare TypeError
    # and not a silently truncated size
    with pytest.raises(error, match="must be an integer") as info:
        call()
    assert info.type is error


def _same_weights(a, b):
    return len(a.layers) == len(b.layers) and all(
        np.array_equal(wa, wb) and np.array_equal(ba, bb)
        for (wa, ba), (wb, bb) in zip(a.layers, b.layers))


def test_numpy_integer_sizes_accepted():
    for build, target, big_n in ((build_1d, _CONE_1D, np.int64(4)),
                                 (build_dd, _CONE_2D, np.int32(4))):
        got, want = build(target, big_n), build(target, 4)
        assert _same_weights(got.net, want.net) and got.bound == want.bound
    net, err = corollary32_check(_HAT, np.int64(2), np.int16(2), 1e-3)
    ref_net, ref_err = corollary32_check(_HAT, 2, 2, 1e-3)
    assert err == ref_err and _same_weights(net, ref_net)
    target = _holder(np.int64(2))
    assert target.d == 2 and type(target.d) is int
    samples = SampleSet(np.linspace(0, 1, 7), np.ones(7), np.int64(2), np.int8(2))
    assert (samples.m, samples.n) == (2, 2) and type(samples.m) is type(samples.n) is int


def test_lifted_samples_clamp_rounding_and_reject_certificate_breaks():
    # f(1) - f(0) = -(1 + 1e-12): the lifted sample at 1 is -1e-12, clamped to 0
    # with no warning (the spot check's ratio 1 + 1e-12 is within its tolerance)
    barely = HolderTarget(f=lambda pts: -(1.0 + 1e-12) * pts[:, 0], d=1, alpha=1.0, nu=1.0)
    c = build_1d(barely, 2)
    assert evaluate(c.net, 1.0) == pytest.approx(-1.0, abs=1e-12)
    steep = HolderTarget(f=lambda pts: -2.0 * pts[:, 0], d=1, alpha=1.0, nu=1.0)
    with pytest.warns(RuntimeWarning, match="ratio 2.000"):
        with pytest.raises(CertificateError, match=r"lifted sample value -1\.000e\+00"):
            build_1d(steep, 2)


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


def test_sign_classes_are_listed_only_when_read(monkeypatch):
    # a construction keeps the (n, m) plus mask; the index lists that no
    # builder reads are not made
    from reluconstruct import Lemma2Plan, ResidualTrace, lemma2_interpolant

    rng = np.random.default_rng(5)
    m, n = 4, 3
    xs = np.cumsum(rng.uniform(0.5, 1.5, m * (n + 1) + 1))
    plan = Lemma2Plan(m, n, SampleSet(xs, rng.uniform(0.0, 2.0, xs.size), m, n))
    listed, flatnonzero = [], np.flatnonzero
    monkeypatch.setattr(np, "flatnonzero", lambda a: listed.append(1) or flatnonzero(a))
    _, trace = lemma2_interpolant(plan)
    assert listed == []
    assert trace.plus.shape == (n, m) and trace.plus.dtype == bool
    for plus, minus, row in zip(trace.lambda_plus, trace.lambda_minus, trace.plus, strict=True):
        assert plus.tolist() == [j for j in range(m) if row[j]]
        assert minus.tolist() == [j for j in range(m) if not row[j]]
    assert ResidualTrace().lambda_plus == ResidualTrace().lambda_minus == []
