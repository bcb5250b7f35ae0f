"""The two-hidden-layer interpolant: exactness, linearity, sup bound, residuals."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from reluconstruct import (
    Lemma2Plan,
    ReluNetwork,
    SampleSet,
    ShapeError,
    evaluate,
    evaluate_batch,
    lemma2_interpolant,
    lemma2_sup_bound,
    parameter_count,
    serialize,
)
from reluconstruct import (CplFunction, DeltaPolicy, build_1d, build_dd, corollary32_check,
                           holder_family)
from reluconstruct import construct
from reluconstruct.construct import RESIDUAL_SNAP, _closure_grid, _lines_positive
from reluconstruct.cpl import MIN_BREAK_GAP, _fit_one_layer_row


def bounded_grid(rng, count):
    """Random strictly increasing abscissae on [0, 1] with bounded gap ratios."""
    xs = np.cumsum(rng.uniform(0.5, 1.5, count))
    return (xs - xs[0]) / (xs[-1] - xs[0])


def build_random(rng, m, n, y_hi=2.0, residuals=False):
    xs = bounded_grid(rng, m * (n + 1) + 1)
    ys = rng.uniform(0.0, y_hi, xs.size)
    plan = Lemma2Plan(m, n, SampleSet(xs, ys, m, n))
    net, trace = lemma2_interpolant(plan, residuals=residuals)
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


def loop_sup_bound(xs, m, n, max_y):
    """``lemma2_sup_bound`` as one gather per k."""
    xs = np.asarray(xs, dtype=float)
    prod = 1.0
    js = np.arange(m)
    for k in range(1, n + 1):
        num = np.max(xs[js * (n + 1) + n] - xs[js * (n + 1) + k - 1])
        den = np.min(xs[js * (n + 1) + k] - xs[js * (n + 1) + k - 1])
        prod *= 1.0 + num / den
    return 3.0 * max_y * prod


class TestSupBoundLoopForm:
    def test_matches_loop_form(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            m, n = (int(v) for v in rng.integers(1, 30, 2))
            xs = np.sort(rng.uniform(0.0, 1.0, m * (n + 1) + 1))
            max_y = float(rng.uniform(0.1, 5.0))
            assert lemma2_sup_bound(xs, m, n, max_y) == loop_sup_bound(xs, m, n, max_y)
            assert lemma2_sup_bound(list(xs), m, n, 2) == loop_sup_bound(list(xs), m, n, 2)


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
        _, _, _, trace = build_random(rng, m, n, residuals=True)
        for k in range(n + 1):
            idx = schedule_indices(m, n, k)
            worst = max(abs(trace.residuals[k + 1][i]) for i in idx)
            assert worst <= 1e-8, f"stage {k + 1} residual {worst:.2e}"

    @pytest.mark.parametrize("m,n", [(1, 1), (3, 5), (6, 2)])
    def test_residual_recording_is_only_a_record(self, m, n):
        rng = np.random.default_rng(13 * m + n)
        xs = bounded_grid(rng, m * (n + 1) + 1)
        plan = Lemma2Plan(m, n, SampleSet(xs, rng.uniform(0.0, 2.0, xs.size), m, n))
        net, trace = lemma2_interpolant(plan)
        net_r, trace_r = lemma2_interpolant(plan, residuals=True)
        assert trace.residuals == []
        assert len(trace_r.residuals) == n + 2
        for (w, b), (w_r, b_r) in zip(net.layers, net_r.layers, strict=True):
            assert np.array_equal(w, w_r) and np.array_equal(b, b_r)
        for got, want in ((trace.lambda_plus, trace_r.lambda_plus),
                          (trace.lambda_minus, trace_r.lambda_minus)):
            assert len(got) == len(want) == n
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

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


def reference_lemma2(plan, residuals=False):
    """The full-grid stage loop: every stage interpolates both pieces onto all points.

    Returns ``(network, lambda_plus, lambda_minus, residuals)``.
    """
    m, n = plan.m, plan.n
    xs, ys = plan.samples.xs, plan.samples.ys
    bidx = plan.break_indices
    bx = xs[bidx]
    snap = RESIDUAL_SNAP * max(1.0, float(np.abs(ys).max()))
    lam_plus, lam_minus, trace = [], [], []

    f = ys.astype(float).copy()
    if residuals:
        trace.append(f.copy())
    g_break = np.zeros((2 * n + 1, 2 * m + 1))
    g_break[0] = f[bidx]
    f = f - np.maximum(np.interp(xs, bx, g_break[0]), 0.0)
    if residuals:
        trace.append(f.copy())

    block_start = (n + 1) * np.arange(m)
    block_ends = xs[np.column_stack((block_start, block_start + n))]
    for k in range(1, n + 1):
        vals = f[block_start + k]
        snapped = np.abs(vals) <= snap
        plus = (vals >= 0) | snapped
        lam_plus.append(np.nonzero(plus)[0])
        lam_minus.append(np.nonzero(~plus)[0])
        xa = xs[block_start + k - 1]
        slope = np.abs(vals) / (xs[block_start + k] - xa)
        ends = slope[:, None] * (block_ends - xa[:, None])
        g_break[2 * k - 1, :-1] = np.where((plus & ~snapped)[:, None], ends, 0.0).ravel()
        g_break[2 * k, :-1] = np.where((~plus)[:, None], ends, 0.0).ravel()
        gp_grid, gm_grid = (np.maximum(np.interp(xs, bx, row), 0.0)
                            for row in g_break[2 * k - 1:2 * k + 1])
        f = f - gp_grid + gm_grid
        if residuals:
            trace.append(f.copy())

    w3 = np.ones((1, 2 * n + 1))
    w3[0, 2::2] = -1.0
    layers = ((np.ones((2 * m, 1)), -bx[:-1]), _fit_one_layer_row(bx, g_break),
              (w3, np.zeros(1)))
    return ReluNetwork(1, layers), lam_plus, lam_minus, trace


def reference_cases():
    """Seeded plans: random, m != n, m = 1, n = 1, exact zeros, block-linear data."""
    rng = np.random.default_rng(1414)
    shapes = [(1, 1), (1, 7), (7, 1), (2, 5), (5, 2), (4, 4), (9, 6), (16, 16)]
    shapes += [tuple(rng.integers(1, 25, 2)) for _ in range(12)]
    for m, n in shapes:
        xs = bounded_grid(rng, m * (n + 1) + 1)
        yield f"random-{m}x{n}", m, n, xs, rng.uniform(0.0, 2.0, xs.size)
        zeros = rng.uniform(0.0, 1.0, xs.size)
        zeros[rng.random(xs.size) < 0.4] = 0.0
        yield f"zeros-{m}x{n}", m, n, xs, zeros
        # values on one line per block leave rounding noise that RESIDUAL_SNAP zeroes
        yield f"linear-{m}x{n}", m, n, xs, 1.0 + 3.0 * xs
    xs = bounded_grid(rng, 3 * 5 + 1)
    yield "all-zero", 3, 4, xs, np.zeros(xs.size)
    yield "signed-zero", 3, 4, xs, np.where(rng.random(xs.size) < 0.5, -0.0, 1.0)


class TestAgainstFullGridReference:
    """The block-layout stage loop against the full-grid interpolation loop, bit for bit."""

    @pytest.mark.parametrize("name,m,n,xs,ys", list(reference_cases()),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_matches_reference(self, name, m, n, xs, ys):
        plan = Lemma2Plan(m, n, SampleSet(xs, ys, m, n))
        net, trace = lemma2_interpolant(plan, residuals=True)
        ref_net, ref_plus, ref_minus, ref_trace = reference_lemma2(plan, residuals=True)
        assert serialize(net) == serialize(ref_net)
        assert serialize(lemma2_interpolant(plan)[0]) == serialize(ref_net)
        for got, want in ((trace.lambda_plus, ref_plus), (trace.lambda_minus, ref_minus)):
            assert len(got) == len(want) == n
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        # bytes, so a -0 where the reference has +0 fails too
        assert len(trace.residuals) == len(ref_trace) == n + 2
        for got, want in zip(trace.residuals, ref_trace):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_cases_reach_the_snap_and_both_classes(self):
        snapped = minus = 0
        for _, m, n, xs, ys in reference_cases():
            _, _, ref_minus, ref_trace = reference_lemma2(
                Lemma2Plan(m, n, SampleSet(xs, ys, m, n)), residuals=True)
            minus += sum(len(lam) for lam in ref_minus)
            f = ref_trace[1]
            snap = RESIDUAL_SNAP * max(1.0, float(np.abs(ys).max()))
            snapped += int(np.count_nonzero((np.abs(f) <= snap) & (f != 0)))
        assert minus > 0 and snapped > 0


def five_pass_lemma2(plan, residuals=False):
    """The block-layout stage loop with ``max(., 0)`` and a sign multiply in every stage.

    Returns ``(network, lambda_plus, lambda_minus, residuals)``.
    """
    m, n = plan.m, plan.n
    xs, ys = plan.samples.xs, plan.samples.ys
    bidx = plan.break_indices
    bx = xs[bidx]
    snap = RESIDUAL_SNAP * max(1.0, float(np.abs(ys).max()))
    lam_plus, lam_minus, trace = [], [], []

    xb = xs[:-1].reshape(m, n + 1).T.copy()
    t = xb - xb[0]
    f = ys[:-1].reshape(m, n + 1).T.copy()
    tail = ys[-1:].copy()
    line = np.empty_like(f)

    def record():
        r = np.empty(xs.size)
        r[:-1].reshape(m, n + 1)[...] = f.T
        r[-1] = tail[0]
        trace.append(r)
        return r

    def update(lo, e0, e1, sign=1.0):
        np.multiply((e1 - e0) / t[n], t[lo:n], out=line[lo:n])
        line[lo:n] += e0
        line[0], line[n] = e0, e1
        rows = line[lo:]
        np.maximum(rows, 0.0, out=rows)
        rows *= sign
        f[lo:] -= rows

    if residuals:
        record()
    g_break = np.zeros((2 * n + 1, 2 * m + 1))
    g_break[0] = ys[bidx]
    update(0 if residuals else 1, f[0].copy(), f[n].copy())
    tail -= np.maximum(tail, 0.0)
    if residuals:
        record()

    block_ends = np.column_stack((xb[0], xb[n]))
    for k in range(1, n + 1):
        vals = f[k]
        snapped = np.abs(vals) <= snap
        plus = (vals >= 0) | snapped
        lam_plus.append(np.nonzero(plus)[0])
        lam_minus.append(np.nonzero(~plus)[0])
        xa = xb[k - 1]
        slope = np.abs(vals) / (xb[k] - xa)
        ends = slope[:, None] * (block_ends - xa[:, None])
        g_break[2 * k - 1, :-1] = np.where((plus & ~snapped)[:, None], ends, 0.0).ravel()
        g_break[2 * k, :-1] = np.where((~plus)[:, None], ends, 0.0).ravel()
        lo = 0 if residuals else k + 1
        if lo <= n:
            ends[snapped] = 0.0
            update(lo, ends[:, 0], ends[:, 1], np.where(plus, 1.0, -1.0))
        if residuals:
            record()[...] += 0.0

    w3 = np.ones((1, 2 * n + 1))
    w3[0, 2::2] = -1.0
    layers = ((np.ones((2 * m, 1)), -bx[:-1]), _fit_one_layer_row(bx, g_break),
              (w3, np.zeros(1)))
    return ReluNetwork(1, layers), lam_plus, lam_minus, trace


def sample_values(kind, rng, xs):
    """Nonnegative samples: random, zero-heavy, block-linear, or with exact ties."""
    if kind == "random":
        return rng.uniform(0.0, 2.0, xs.size)
    if kind == "zeros":
        ys = rng.uniform(0.0, 1.0, xs.size)
        ys[rng.random(xs.size) < 0.6] = 0.0
        return ys
    if kind == "linear":
        # one line per block: stage 0 leaves rounding noise that the snap zeroes
        return 1.0 + 3.0 * xs
    # multiples of 1/8 on a dyadic grid: stages meet residuals of exactly 0
    return rng.integers(0, 3, xs.size) / 8.0


def dyadic_grid(count):
    return np.arange(count) / 1024.0


def assert_matches_five_pass(plan, residuals):
    net, trace = lemma2_interpolant(plan, residuals=residuals)
    ref_net, ref_plus, ref_minus, ref_trace = five_pass_lemma2(plan, residuals=residuals)
    assert serialize(net) == serialize(ref_net)
    for got, want in ((trace.lambda_plus, ref_plus), (trace.lambda_minus, ref_minus)):
        assert len(got) == len(want) == plan.n
        assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))
    assert len(trace.residuals) == len(ref_trace)
    for got, want in zip(trace.residuals, ref_trace):
        assert got.tobytes() == want.tobytes()


SHAPES = [(1, 1), (1, 256), (256, 1), (2, 255), (255, 2), (7, 13), (33, 64), (100, 5),
          (128, 128), (256, 256)]
KINDS = ["random", "zeros", "linear", "ties"]


class TestAgainstFivePassLoop:
    """Three passes per stage where the check passes, bit for bit with five."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("m,n", SHAPES)
    def test_default_mode(self, m, n, kind):
        rng = np.random.default_rng(m * 1000 + n)
        count = m * (n + 1) + 1
        xs = dyadic_grid(count) if kind == "ties" else bounded_grid(rng, count)
        plan = Lemma2Plan(m, n, SampleSet(xs, sample_values(kind, rng, xs), m, n))
        assert _lines_positive(xs, m, n)
        assert_matches_five_pass(plan, residuals=False)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 64), (64, 1), (5, 9), (64, 64), (16, 256)])
    def test_residual_mode(self, m, n, kind):
        rng = np.random.default_rng(m * 7 + n)
        count = m * (n + 1) + 1
        xs = dyadic_grid(count) if kind == "ties" else bounded_grid(rng, count)
        plan = Lemma2Plan(m, n, SampleSet(xs, sample_values(kind, rng, xs), m, n))
        assert_matches_five_pass(plan, residuals=True)

    def test_ties_and_snaps_are_reached(self):
        # the value each stage k reads: exactly zero (a tie), or nonzero and snapped
        ties = snaps = 0
        for m, n in SHAPES[:6]:
            for kind in ("ties", "linear"):
                rng = np.random.default_rng(m * 1000 + n)
                count = m * (n + 1) + 1
                xs = dyadic_grid(count) if kind == "ties" else bounded_grid(rng, count)
                ys = sample_values(kind, rng, xs)
                _, _, _, trace = five_pass_lemma2(
                    Lemma2Plan(m, n, SampleSet(xs, ys, m, n)), residuals=True)
                snap = RESIDUAL_SNAP * max(1.0, float(ys.max()))
                for k in range(1, n + 1):
                    vals = trace[k][np.arange(m) * (n + 1) + k]
                    ties += int(np.count_nonzero(vals == 0.0))
                    snaps += int(np.count_nonzero((vals != 0.0) & (np.abs(vals) <= snap)))
        assert ties > 0 and snaps > 0

    def test_grid_that_fails_the_check_takes_five_passes(self, monkeypatch):
        # two blocks about 1.5e3 wide, each with a run of points one ulp
        # (1.1e-13, just above MIN_BREAK_GAP) apart some 1e3 past its start
        n = 10

        def block(start, run, end):
            return np.concatenate(([start], run + np.spacing(abs(run)) * np.arange(n - 1), [end]))

        xs = np.concatenate((block(-2000.0, -1000.0, -500.0), block(-499.0, 600.0, 1000.0), [1001.0]))
        assert MIN_BREAK_GAP < np.diff(xs).min() < 1.2 * MIN_BREAK_GAP
        rng = np.random.default_rng(52)
        plan = Lemma2Plan(2, n, SampleSet(xs, rng.uniform(0.0, 2.0, xs.size), 2, n))
        assert not _lines_positive(xs, 2, n)
        assert_matches_five_pass(plan, residuals=False)
        # three passes would drop a max(., 0) that clips here
        monkeypatch.setattr(construct, "_lines_positive", lambda *args: True)
        assert serialize(lemma2_interpolant(plan)[0]) != serialize(five_pass_lemma2(plan)[0])


def closure_interiors():
    """Interior breaks drawn as the benchmark's closures and the closure check suite draw them."""
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        for m, n in ((2, 2), (3, 4), (4, 4), (8, 8), (16, 16)):
            gaps = np.cumsum(rng.uniform(0.5, 1.5, m * n + 1))
            yield m, n, 0.03 + 0.94 * gaps[:-1] / gaps[-1]
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for m, n in ((2, 2), (3, 4), (4, 4), (8, 8)):
            inner = np.sort(rng.uniform(0.05, 0.95, m * n))
            if np.diff(np.concatenate(([0.0], inner, [1.0]))).min() < 5e-3:
                inner = np.linspace(0.08, 0.92, m * n)
            yield m, n, inner
            yield m, n, inner[: m * n // 2]


class TestLibraryGridsPassTheCheck:
    def test_build_1d_grids(self):
        floor = DeltaPolicy().floor
        for big_n in range(2, 257):
            interior = np.arange(1, big_n * big_n) / (big_n * big_n)
            for delta in (floor, 0.25 / (big_n * big_n)):
                xs = _closure_grid(interior, big_n, big_n, delta)
                assert _lines_positive(xs, big_n, big_n), (big_n, delta)

    def test_closure_grids_at_the_delta_floor(self):
        for m, n, interior in closure_interiors():
            xs = _closure_grid(interior, m, n, DeltaPolicy().floor)
            assert _lines_positive(xs, m, n), (m, n, interior.size)

    @pytest.mark.parametrize("d,cells", [(2, n) for n in range(2, 17)] + [(3, n) for n in range(2, 17)])
    def test_build_dd_padded_grids(self, d, cells):
        big_n = next(k for k in range(2, 100) if k * k >= cells ** d)
        c = build_dd(holder_family("cone", d, 0.5, 1.0), big_n)
        assert c.n == cells
        assert _lines_positive(c.grid, c.n_prime, c.n_prime)


def force_clip(monkeypatch):
    """Make every lemma-2 call clip its stages; returns the list of check calls."""
    calls = []
    monkeypatch.setattr(construct, "_lines_positive", lambda *args: calls.append(args) or False)
    return calls


class TestForcedClipOnLibraryGrids:
    """The clip a stage k > 0 skips changes no byte on the grids the library builds."""

    def assert_same_with_clip(self, monkeypatch, outputs):
        want = outputs()
        calls = force_clip(monkeypatch)
        assert outputs() == want
        assert calls

    def test_build_1d(self, monkeypatch):
        def outputs():
            return [(serialize(c.net), c.delta.delta)
                    for alpha in (0.5, 1.0) for big_n in [*range(2, 33), 64, 128, 256]
                    for c in [build_1d(holder_family("cone", 1, alpha, 1.0), big_n)]]

        self.assert_same_with_clip(monkeypatch, outputs)

    def test_closure_grids(self, monkeypatch):
        rng = np.random.default_rng(5)
        cases = [(m, n, CplFunction(np.concatenate(([0.0], inner, [1.0])),
                                    rng.uniform(-1.0, 1.0, inner.size + 2)))
                 for m, n, inner in closure_interiors()]

        def outputs():
            return [(serialize(net), err) for m, n, g in cases
                    for net, err in [corollary32_check(g, m, n, 1e-3)]]

        self.assert_same_with_clip(monkeypatch, outputs)

    def test_build_dd_padded_grids(self, monkeypatch):
        def outputs():
            return [(serialize(c.net), c.delta.delta)
                    for d, cells in [(2, n) for n in range(2, 17)] + [(3, n) for n in range(2, 17)]
                    for c in [build_dd(holder_family("cone", d, 0.5, 1.0),
                                       next(k for k in range(2, 100) if k * k >= cells ** d))]]

        self.assert_same_with_clip(monkeypatch, outputs)


def wide_block_grid(n):
    """Two blocks about 1.5e3 wide, each with a run of n - 1 points one ulp apart."""

    def block(start, run, end):
        return np.concatenate(([start], run + np.spacing(abs(run)) * np.arange(n - 1), [end]))

    return np.concatenate((block(-2000.0, -1000.0, -500.0), block(-499.0, 600.0, 1000.0), [1001.0]))


def test_grid_that_fails_the_check_records_five_pass_residuals():
    n = 10
    xs = wide_block_grid(n)
    assert not _lines_positive(xs, 2, n)
    rng = np.random.default_rng(52)
    plan = Lemma2Plan(2, n, SampleSet(xs, rng.uniform(0.0, 2.0, xs.size), 2, n))
    assert_matches_five_pass(plan, residuals=True)


# SHA-256 of serialize() on the seeded plans build_random(default_rng(1000 m + n), m, n),
# recorded while the second layer was still fitted from one whole break-value matrix
PINNED_PLANS = {
    (3, 40): "fe17e4c113808521f3b83564d9f950954a5cb4ddb617b5efbc917cd4d69dbafb",
    (40, 3): "14d30bae2256f1866adeb5d77a51071e9cb6e6772b21be1b9467f4b3e5d2c7d2",
    (64, 64): "7c1adcf5331846361395e614ccd51b0b4559274aad59dd709c941bd394f9a502",
}


class TestSecondLayerByBlocks:
    """The second layer is fitted 32 stages at a time, in bounded memory, to the same bytes."""

    @pytest.mark.parametrize("residuals", [False, True])
    @pytest.mark.parametrize("m,n", sorted(PINNED_PLANS))
    def test_pinned_bytes(self, m, n, residuals):
        net = build_random(np.random.default_rng(m * 1000 + n), m, n, residuals=residuals)[2]
        assert hashlib.sha256(serialize(net)).hexdigest() == PINNED_PLANS[m, n]

    def test_memory_at_256(self):
        # the whole (513 x 513) break-value matrix, its np.diff copy and the
        # (256, 256, 2) block ends took the traced peak to 6.8 MiB; the
        # output's weights alone are 2.0 MiB
        rng = np.random.default_rng(256)
        xs = bounded_grid(rng, 256 * 257 + 1)
        plan = Lemma2Plan(256, 256, SampleSet(xs, rng.uniform(0.0, 2.0, xs.size), 256, 256))
        tracemalloc.start()
        try:
            net, _ = lemma2_interpolant(plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert net.hidden_widths == [512, 513]
        assert peak <= 5 * 2**20


class TestPreconditions:
    def test_negative_values_rejected(self):
        xs = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ShapeError):
            SampleSet(xs, [0.0, 1.0, -0.5, 1.0, 0.0], 2, 1)

    def test_wrong_count_rejected(self):
        xs = np.linspace(0.0, 1.0, 6)
        with pytest.raises(ShapeError):
            SampleSet(xs, np.ones(6), 2, 2)

    def test_plan_checks_samples_given_without_its_shape(self):
        xs = np.linspace(0.0, 1.0, 7)
        plan = Lemma2Plan(2, 2, SampleSet(xs, np.ones(7)))
        assert (plan.samples.m, plan.samples.n) == (2, 2)
        with pytest.raises(ShapeError, match=r"plan shape \(m=2, n=2\) needs 7 samples, got 6"):
            Lemma2Plan(2, 2, SampleSet(np.linspace(0.0, 1.0, 6), np.ones(6)))
        with pytest.raises(ShapeError, match="plan-shaped samples must have nonnegative values"):
            Lemma2Plan(2, 2, SampleSet(xs, -np.ones(7)))
        with pytest.raises(ShapeError, match=r"plan shape \(m=1, n=2\) needs 4 samples, got 7"):
            Lemma2Plan(1, 2, SampleSet(xs, np.ones(7), 2, 2))

    def test_duplicate_abscissae_rejected(self):
        with pytest.raises(ShapeError):
            SampleSet([0.0, 0.5, 0.5, 0.75, 1.0], np.ones(5), 2, 1)
