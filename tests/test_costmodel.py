"""Parallel time/memory cost formulas and the regime table."""

import math

import numpy as np
import pytest

from reluconstruct import (
    ArchSpec,
    CostParams,
    ShapeError,
    dist_mem,
    dist_time,
    param_count_widthvec,
    regime_table,
    shared_mem,
    shared_time,
)

P0 = CostParams()


class TestSharedTime:
    def test_single_core(self):
        # log term clamps to zero at m=1
        assert shared_time(ArchSpec(8, 3, 1), P0) == 3 * 64

    def test_saturated_regime(self):
        assert shared_time(ArchSpec(8, 3, 128), P0) == pytest.approx(3 * math.log(8))

    def test_boundary_continuity(self):
        at = shared_time(ArchSpec(8, 3, 64), P0)
        above = shared_time(ArchSpec(8, 3, 65), P0)
        assert at == pytest.approx(3 * (1 + math.log(8)))
        assert at <= 2 * above

    def test_clamped_log_never_negative(self):
        # m < N makes ln(m/N) negative; the clamp keeps the addend at zero
        assert shared_time(ArchSpec(100, 1, 10), P0) == pytest.approx(100**2 / 10)

    def test_width_one_floor(self):
        assert shared_time(ArchSpec(1, 5, 9), P0) == 5.0


class TestDistTime:
    def test_zero_comm_reduces_to_compute(self):
        for m in (1, 4, 64):
            assert dist_time(ArchSpec(8, 3, m), P0) == pytest.approx(3 * (64 / m))

    def test_single_core_kills_comm(self):
        p = CostParams(t_s=5.0, t_w=2.0)
        assert dist_time(ArchSpec(8, 3, 1), p) == 3 * 64

    def test_worked_example(self):
        p = CostParams(t_s=1.0, t_w=0.5)
        expected = 2 * (16 + math.log(16) + 0.5 * 16 * math.log(16) / 4)
        assert dist_time(ArchSpec(16, 2, 16), p) == pytest.approx(expected)
        assert expected == pytest.approx(48.6355, abs=1e-3)


class TestMemory:
    def test_shared_independent_of_m(self):
        assert shared_mem(ArchSpec(32, 4, 1), P0) == shared_mem(ArchSpec(32, 4, 10**6), P0)

    def test_dist_floor(self):
        assert dist_mem(ArchSpec(32, 4, 10**9), P0) >= P0.c_flop

    def test_dist_at_one_core(self):
        a = ArchSpec(32, 4, 1)
        assert dist_mem(a, P0) == shared_mem(a, P0) + P0.c_flop


class TestProperties:
    def test_shared_time_nonincreasing_in_m(self):
        ms = [2**k for k in range(0, 12)]
        p_comm = CostParams(t_s=0.1, t_w=0.05)
        vals = [shared_time(ArchSpec(16, 2, m), p_comm) for m in ms]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_dist_time_nonincreasing_within_each_regime(self):
        # the saturated branch has no compute/comm terms, so dist_time can
        # step upward when crossing m = N^2; inside each regime it decays
        below = [dist_time(ArchSpec(16, 2, m), P0) for m in (1, 2, 4, 64, 256)]
        assert all(a >= b - 1e-12 for a, b in zip(below, below[1:]))
        above = [dist_time(ArchSpec(16, 2, m), P0) for m in (257, 1024, 10**6)]
        assert all(a == above[0] for a in above)

    def test_dist_dominates_shared(self):
        p_comm = CostParams(t_s=0.5, t_w=0.25)
        for m in (1, 3, 16, 100, 256):
            a = ArchSpec(16, 3, m)
            assert dist_time(a, p_comm) >= shared_time(a, P0)

    def test_linear_in_depth(self):
        for L in (1, 2, 4):
            a = ArchSpec(12, L, 7)
            assert shared_time(a, P0) == L * shared_time(ArchSpec(12, 1, 7), P0)
            assert shared_mem(a, P0) == L * shared_mem(ArchSpec(12, 1, 7), P0)

    def test_arch_validation(self):
        with pytest.raises(ShapeError):
            ArchSpec(0, 1, 1)

    @pytest.mark.parametrize("sizes", [(2.5, 3, 1), (True, 3, 1), (8, 3.0, 1), (8, 3, 1.5),
                                       (8, False, 1), (8, 3, "4"), (8, -1, 1), (8, 3, 0)])
    def test_sizes_must_be_positive_integers(self, sizes):
        with pytest.raises(ShapeError):
            ArchSpec(*sizes)

    @pytest.mark.parametrize("params, match", [
        ({"t_s": math.nan}, "cost parameters must be finite"),
        ({"t_w": math.inf}, "cost parameters must be finite"),
        ({"c_flop": -math.inf}, "cost parameters must be finite"),
        ({"t_s": -1.0}, "communication times must be nonnegative"),
        ({"t_w": -1e-9}, "communication times must be nonnegative"),
        ({"c_flop": 0.0}, "c_flop must be positive"),
        ({"c_flop": -2.0}, "c_flop must be positive"),
    ], ids=["t_s-nan", "t_w-inf", "c_flop-minus-inf", "t_s-negative", "t_w-negative",
            "c_flop-zero", "c_flop-negative"])
    def test_cost_params_rejected(self, params, match):
        with pytest.raises(ValueError, match=match):
            CostParams(**params)

    def test_numpy_integer_sizes_become_int(self):
        a = ArchSpec(np.int64(8), np.int32(3), np.uint8(1))
        assert (a.N, a.L, a.m) == (8, 3, 1)
        assert all(type(v) is int for v in (a.N, a.L, a.m))
        assert shared_time(a, P0) == shared_time(ArchSpec(8, 3, 1), P0)


class TestRegimeTable:
    def test_fixed_width_family_large_m(self):
        d = 2
        width = 2 * d + 10
        rows_by_n = {}
        for n in (8, 16, 32):
            rows = regime_table([ArchSpec(n, 4, width**2 + 1_000_000)], P0, d=d)
            rows_by_n[n] = {r["family"]: r for r in rows}
        # time of the fixed-width family grows linearly in N ...
        t8 = rows_by_n[8]["fixed-width-depthN"]["T_shared"]
        t32 = rows_by_n[32]["fixed-width-depthN"]["T_shared"]
        assert t32 == pytest.approx(4 * t8)
        assert t8 == pytest.approx(8 * math.log(width))
        # ... while the shallow family's grows logarithmically
        s8 = rows_by_n[8]["shallow-3layer"]["T_shared"]
        s32 = rows_by_n[32]["shallow-3layer"]["T_shared"]
        assert s32 / s8 == pytest.approx(math.log(32) / math.log(8))

    def test_weight_counts_match_orders(self):
        d = 2
        rows = {r["family"]: r for r in regime_table([ArchSpec(32, 6, 4)], P0, d=d)}
        n = 32
        assert rows["shallow-3layer"]["n_weights"] == param_count_widthvec(
            [2 * d * n, 2 * n, 2 * n], d
        )
        assert rows["uniform-depthL"]["n_weights"] == param_count_widthvec([n] * 6, d)
        assert rows["fixed-width-depthN"]["n_weights"] == param_count_widthvec(
            [2 * d + 10] * n, d
        )

    def test_shared_time_constant_beyond_saturation(self):
        rows1 = regime_table([ArchSpec(16, 4, 257)], P0, d=2)
        rows2 = regime_table([ArchSpec(16, 4, 10**6)], P0, d=2)
        for r1, r2 in zip(rows1, rows2):
            assert r1["T_shared"] == r2["T_shared"]
