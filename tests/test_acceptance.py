"""Acceptance gate: every criterion at its stated tolerance and time budget.

Each test prints one PASS line on success; a failing assertion names the
criterion.  Budgets are wall-clock upper bounds, asserted after the work.
"""

import math
import time
import warnings

import numpy as np
import pytest

from reluconstruct import (
    ArchSpec,
    CostParams,
    CplFunction,
    DeltaPolicy,
    GridSpec,
    HolderTarget,
    Lemma2Plan,
    SampleSet,
    build_1d,
    choose_delta,
    corollary32_check,
    cpl_from_net_1d,
    deserialize,
    dist_mem,
    evaluate,
    evaluate_batch,
    holder_family,
    l1_error,
    lemma1_interpolant,
    lemma2_interpolant,
    lemma2_sup_bound,
    rate_fit,
    regime_table,
    serialize,
    shared_mem,
    shared_time,
    spot_check_holder,
)
from reluconstruct.cli import main as cli_main


def report(number, name, detail=""):
    print(f"ACCEPTANCE {number} ({name}): PASS {detail}")


def bounded_grid(rng, count, lo=0.5, hi=1.5):
    xs = np.cumsum(rng.uniform(lo, hi, count))
    return (xs - xs[0]) / (xs[-1] - xs[0])


def test_criterion_1_lemma1_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(200):
        k = int(rng.integers(2, 52))
        gaps = rng.uniform(1e-3, 0.05, k - 1)
        xs = np.concatenate(([0.0], np.cumsum(gaps)))
        ys = rng.uniform(-2.0, 2.0, k)
        net = lemma1_interpolant(SampleSet(xs, ys))
        node_err = np.max(np.abs(evaluate_batch(net, xs) - ys))
        assert node_err <= 1e-9, f"criterion 1: node error {node_err:.2e}"
        # at least four probes per narrowest segment so every probe gap
        # contains at most one kink
        span = xs[-1] - xs[0]
        probes = int(min(20001, max(1001, 4 * span / np.diff(xs).min())))
        recovered = cpl_from_net_1d(net, xs[0], xs[-1], probes)
        for b in recovered.breaks[1:-1]:
            assert np.min(np.abs(xs - b)) <= 1e-6, (
                f"criterion 1: spurious kink at {b} breaks segment linearity"
            )
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 1 runtime {elapsed:.1f}s"
    report(1, "lemma1-exactness", f"200 sample sets in {elapsed:.2f}s")


def test_criterion_2_lemma2_contract():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    dense = np.linspace(0.0, 1.0, 100001)
    for m in range(1, 7):
        for n in range(1, 7):
            xs = bounded_grid(rng, m * (n + 1) + 1)
            ys = rng.uniform(0.0, 2.0, xs.size)
            net, trace = lemma2_interpolant(
                Lemma2Plan(m, n, SampleSet(xs, ys, m, n)), residuals=True
            )

            node_err = np.max(np.abs(evaluate_batch(net, xs) - ys))
            assert node_err <= 1e-8, f"criterion 2a ({m},{n}): node error {node_err:.2e}"

            dont_care = {j * (n + 1) for j in range(1, m + 1)}
            for i in range(1, m * (n + 1) + 1):
                if i in dont_care:
                    continue
                ts = np.linspace(xs[i - 1], xs[i], 33)
                vals = evaluate_batch(net, ts)
                d2 = np.max(np.abs(vals[:-2] - 2 * vals[1:-1] + vals[2:]))
                scale = max(1.0, abs(vals[-1] - vals[0]))
                assert d2 <= 1e-7 * scale, f"criterion 2b ({m},{n}): kink in kept interval {i}"

            sup = float(np.max(np.abs(evaluate_batch(net, dense))))
            bound = lemma2_sup_bound(xs, m, n, float(ys.max()))
            assert sup <= bound, f"criterion 2c ({m},{n}): sup {sup:.3e} > bound {bound:.3e}"

            for k in range(n + 1):
                idx = sorted(
                    {j * (n + 1) - n - 1 + ell for j in range(1, m + 1) for ell in range(k + 1)}
                    | {m * (n + 1)}
                )
                worst = max(abs(trace.residuals[k + 1][i]) for i in idx)
                assert worst <= 1e-8, f"criterion 2d ({m},{n}): stage {k + 1} residual {worst:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 2 runtime {elapsed:.1f}s"
    report(2, "lemma2-contract", f"36 (m,n) configs in {elapsed:.2f}s")


def test_criterion_3_theorem_d1_bound():
    t0 = time.perf_counter()
    grid = GridSpec(1, 10**6)
    paper_bounds_alpha1 = {2: 0.5, 4: 0.125, 8: 0.03125, 16: 0.0078125}
    for alpha in (0.5, 1.0):
        tgt = holder_family("cone", 1, alpha, 1.0)
        for big_n in (2, 4, 8, 16):
            net = build_1d(tgt, big_n, DeltaPolicy(mode="empirical-shrink")).net
            err = l1_error(tgt, net, grid)
            bound = 2.0 * big_n ** (-2.0 * alpha)
            if alpha == 1.0:
                assert bound == paper_bounds_alpha1[big_n]
            assert err <= bound, f"criterion 3: alpha={alpha} N={big_n} l1 {err:.3e} > {bound}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 3 runtime {elapsed:.1f}s"
    report(3, "theorem-3.1(1)-bound", f"8 constructions in {elapsed:.1f}s")


def test_criterion_4_theorem_dd_bound():
    t0 = time.perf_counter()
    from reluconstruct import build_dd

    tgt = holder_family("cone", 2, 1.0, 1.0)
    grid = GridSpec(2, 2048)
    for big_n in (4, 9, 16):
        c = build_dd(tgt, big_n)
        widths = c.net.hidden_widths
        cap = [4 * big_n, 2 * big_n + 2, 2 * big_n + 3]
        assert all(w <= b for w, b in zip(widths, cap)), (
            f"criterion 4: widths {widths} exceed {cap}"
        )
        err = l1_error(tgt, c.net, grid)
        bound = 2.0 * (2.0 * math.sqrt(2.0)) * big_n ** -1.0
        assert err <= bound, f"criterion 4: N={big_n} l1 {err:.3e} > {bound:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"criterion 4 runtime {elapsed:.1f}s"
    report(4, "theorem-3.1(2)-bound", f"3 constructions on 2048^2 in {elapsed:.1f}s")


def takagi(levels):
    """Truncated Takagi function ``sum_{k<levels} 2^-k dist(2^k x, Z)``.

    Lipschitz with constant exactly ``levels`` (every level rises at slope 1
    as x -> 0+), and dyadic kinks at every scale, so no equispaced grid
    coarser than ``2^-levels`` reproduces it.
    """

    def f(points):
        x = points[:, 0]
        out = np.zeros_like(x)
        for k in range(levels):
            t = 2.0**k * x
            out += np.abs(t - np.round(t)) / 2.0**k
        return out

    return f


def test_criterion_5_rate_separation():
    t0 = time.perf_counter()
    # alpha = 1 target whose one-hidden rate on N+1 equispaced nodes is
    # exactly N^-1: for N = 2^j the interpolant is exact on levels k < j
    # and zero at the nodes of levels k >= j, so its L1 error is
    # (1/(2N)) (1 - 2^(j-levels)); the two-hidden construction interpolates on
    # the N^2 grid and gets about 1/(2N^2).
    levels = 16
    tgt = HolderTarget(takagi(levels), d=1, alpha=1.0, nu=float(levels))
    ratio = spot_check_holder(tgt)
    assert ratio <= 1, f"criterion 5: target violates its certificate (ratio {ratio:.3f})"
    grid = GridSpec(1, 10**6)
    ns = (2, 4, 8, 16, 32)

    two_hidden = []
    for big_n in ns:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            net = build_1d(tgt, big_n).net
        runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not runtime, f"criterion 5: build_1d N={big_n} warned {runtime}"
        two_hidden.append((big_n, l1_error(tgt, net, grid)))

    one_hidden = []
    for big_n in ns:
        nodes = np.arange(big_n + 1) / big_n
        net = lemma1_interpolant(SampleSet(nodes, tgt(nodes[:, None])))
        one_hidden.append((big_n, l1_error(tgt, net, grid)))

    print(f"criterion 5 errors: two-hidden {two_hidden}; one-hidden {one_hidden}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0, f"criterion 5 runtime {elapsed:.1f}s"

    noise_floor = 1e-12
    if any(e <= noise_floor for _, e in two_hidden) or any(
        e <= noise_floor for _, e in one_hidden
    ):
        pytest.fail(
            "criterion 5: no rate is fittable. Some measured error sits at the "
            "f64 noise floor (see the values printed above), so a construction "
            "reproduced the target exactly and a log-log slope would fit noise."
        )
    for big_n, err in one_hidden:
        j = int(math.log2(big_n))
        expected = (1.0 - 2.0 ** (j - levels)) / (2.0 * big_n)
        assert abs(err - expected) <= 1e-9, (
            f"criterion 5: one-hidden N={big_n} error {err:.12e}, analysis {expected:.12e}"
        )
    deep_slope = rate_fit(two_hidden).slope
    shallow_slope = rate_fit(one_hidden).slope
    assert shallow_slope >= -1.3, f"criterion 5: one-hidden slope {shallow_slope:.2f} < -1.3"
    assert deep_slope <= -1.7, f"criterion 5: two-hidden slope {deep_slope:.2f} > -1.7"
    report(5, "rate-separation", f"slopes {deep_slope:.2f} vs {shallow_slope:.2f} in {elapsed:.1f}s")


def test_criterion_6_corollary32():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    configs = [(2, 2), (3, 4), (4, 4)]
    for trial in range(50):
        m, n = configs[trial % 3]
        pieces = m * n + 1
        inner = np.sort(rng.uniform(0.03, 0.97, pieces - 1))
        while pieces > 1 and np.diff(np.concatenate(([0.0], inner, [1.0]))).min() < 4e-3:
            inner = np.sort(rng.uniform(0.03, 0.97, pieces - 1))
        g = CplFunction(
            np.concatenate(([0.0], inner, [1.0])), rng.uniform(-1.0, 1.0, pieces + 1)
        )
        _, err = corollary32_check(g, m, n, 1e-3)
        assert err <= 1e-3, f"criterion 6: trial {trial} (m,n)=({m},{n}) error {err:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 6 runtime {elapsed:.1f}s"
    report(6, "corollary-3.2-closure", f"50 CPL targets in {elapsed:.1f}s")


def test_criterion_7_cost_regimes():
    t0 = time.perf_counter()
    p = CostParams()

    # saturation: constant in m beyond N^2, equal to c*L*ln(N), exactly
    for big_n, L in ((8, 3), (16, 5)):
        sat = [shared_time(ArchSpec(big_n, L, m), p) for m in
               (big_n**2 + 1, 4 * big_n**2, 10**9)]
        assert sat[0] == sat[1] == sat[2] == p.c_flop * L * math.log(big_n), "criterion 7"

    # fixed-width family: time proportional to N (and growing with ln d)
    for d in (2, 8):
        width = 2 * d + 10
        t_by_n = {}
        for big_n in (8, 32):
            rows = regime_table([ArchSpec(big_n, 4, width**2 + 1)], p, d=d)
            t_by_n[big_n] = {r["family"]: r["T_shared"] for r in rows}["fixed-width-depthN"]
        assert t_by_n[32] == 4 * t_by_n[8], "criterion 7: fixed-width time not linear in N"
        assert t_by_n[8] == 8 * math.log(2 * d + 10), "criterion 7: fixed-width time not N ln d"

    # per-core memory times cores, plus the floor term, dominates total memory
    for m in (1, 2, 7, 64, 10**6):
        a = ArchSpec(16, 4, m)
        assert dist_mem(a, p) * m + p.c_flop * m >= shared_mem(a, p), "criterion 7: memory"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 7 runtime {elapsed:.2f}s"
    report(7, "cost-regimes", f"in {elapsed * 1000:.0f}ms")


def test_criterion_8_delta_policy():
    t0 = time.perf_counter()
    pol = DeltaPolicy(mode="paper-sufficient")
    d2 = choose_delta(pol, min_gap=0.25, budget=2.0 ** -2.0,
                      denom_log=math.log(2 * (2 + 6 * math.factorial(3))))
    assert abs(d2.delta - 0.25 / 76) <= 1e-15, f"criterion 8: delta {d2.delta!r}"
    assert not d2.clamped

    denom16 = math.log(16) + np.logaddexp(math.log(2), math.log(6) + math.lgamma(18))
    with pytest.warns(RuntimeWarning):
        d16 = choose_delta(pol, min_gap=1 / 256, budget=16.0 ** -2, denom_log=float(denom16))
    assert d16.clamped, "criterion 8: N=16 must flag the f64 clamp"

    for min_gap in (0.5, 1e-2, 1e-4):
        for budget in (10.0, 1e-2):
            c = choose_delta(DeltaPolicy(), min_gap=min_gap, budget=budget, h_error=lambda d: d)
            assert c.delta < 0.5 * min_gap, "criterion 8: empirical delta above half gap"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 8 runtime {elapsed:.2f}s"
    report(8, "delta-policy", f"in {elapsed * 1000:.0f}ms")


def test_criterion_9_determinism_round_trip(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)

    nets = []
    for _ in range(80):
        k = int(rng.integers(2, 20))
        xs = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 0.1, k - 1))))
        nets.append(lemma1_interpolant(SampleSet(xs, rng.uniform(-3, 3, k))))
    for m, n in ((1, 1), (2, 3), (3, 2), (4, 4)):
        xs = bounded_grid(rng, m * (n + 1) + 1)
        net, _ = lemma2_interpolant(Lemma2Plan(m, n, SampleSet(xs, rng.uniform(0, 2, xs.size), m, n)))
        nets.append(net)
    for big_n in (2, 3, 4, 5):
        nets.append(build_1d(holder_family("cone", 1, 0.5, 1.0), big_n).net)
    for alpha in (0.25, 0.5, 0.75, 1.0):
        for big_n in (2, 3, 4):
            nets.append(build_1d(holder_family("cone", 1, alpha, 1.0), big_n).net)
    assert len(nets) >= 100
    for i, net in enumerate(nets[:100]):
        back = deserialize(serialize(net))
        for (w1, b1), (w2, b2) in zip(net.layers, back.layers):
            assert (w1 == w2).all() and (b1 == b2).all(), f"criterion 9: net {i} round trip"

    args = ["sweep", "--target", "cone", "--d", "1", "--alpha", "0.5",
            "--N", "2", "3", "4", "--grid-points", "100000", "--seed", "7"]
    out1, out8 = tmp_path / "t1.csv", tmp_path / "t8.csv"
    assert cli_main(args + ["--threads", "1", "--out", str(out1)]) == 0
    assert cli_main(args + ["--threads", "8", "--out", str(out8)]) == 0
    assert out1.read_bytes() == out8.read_bytes(), "criterion 9: thread count changed CSV bytes"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 9 runtime {elapsed:.1f}s"
    report(9, "determinism-round-trip", f"100 nets + 2 sweeps in {elapsed:.1f}s")
