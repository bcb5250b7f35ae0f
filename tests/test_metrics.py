"""Quadrature error measurement, target families, and rate fitting."""

import functools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reluconstruct import (
    CertificateError,
    CplFunction,
    GridSpec,
    HolderTarget,
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
    @pytest.mark.parametrize("d,p", [(3, 256), (2, 4097), (3, 4000)])
    def test_cap_enforced(self, d, p):
        # one cap for every caller: the largest default grid, 256^3 points
        assert metrics.GRID_POINT_CAP == default_grid(3).total_points == 256**3
        if p**d <= metrics.GRID_POINT_CAP:
            assert GridSpec(d, p).total_points == p**d
        else:
            with pytest.raises(ResourceError, match=f"exceed the cap of {256**3}"):
                GridSpec(d, p)

    def test_defaults(self):
        assert default_grid(1).points_per_axis == 10**6
        assert default_grid(2).points_per_axis == 2048
        assert default_grid(3).points_per_axis == 256

    @pytest.mark.parametrize("d", [0, 4])
    def test_no_default_outside_d_1_to_3(self, d):
        with pytest.raises(ShapeError, match=r"default grids cover d in \{1, 2, 3\}"):
            default_grid(d)

    @pytest.mark.parametrize("d,p", [(1, 1000.0), (1.0, 100), (True, 100), (2, True),
                                     (1, np.float64(100)), (1, "100")])
    def test_non_integral_sizes_rejected(self, d, p):
        with pytest.raises(ShapeError, match="must be an integer"):
            GridSpec(d, p)

    @pytest.mark.parametrize("p", [0, -1])
    def test_empty_axis_rejected(self, p):
        with pytest.raises(ShapeError, match="positive integer"):
            GridSpec(1, p)

    @pytest.mark.parametrize("d", [1, 2])
    def test_one_point_grid_samples_the_midpoint(self, d):
        seen = []

        def f(pts):
            seen.append(pts.copy())
            return 3.0 + pts.sum(axis=1)

        grid = GridSpec(d, 1)
        assert grid.total_points == 1
        # weight 1: L1 and Linf are both |f - 0| at the one point
        assert grid_errors(f, zero_net(d), grid) == (3.0 + 0.5 * d, 3.0 + 0.5 * d)
        assert len(seen) == 1 and np.array_equal(seen[0], np.full((1, d), 0.5))

    def test_numpy_integers_accepted(self):
        grid = GridSpec(np.int32(2), np.int64(100))
        assert grid == GridSpec(2, 100)
        assert type(grid.d) is int and type(grid.points_per_axis) is int


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
# the library's one quadrature; the test ids below name it
MIDPOINT = pytest.mark.parametrize("quadrature", ["midpoint"])


def midpoints(grid):
    p = grid.points_per_axis
    return (np.arange(p) + 0.5) / p


def point_weight(grid):
    return math.prod([1.0 / grid.points_per_axis] * grid.d)


def dense_reference(f, net, grid):
    """(L1, Linf) from plain ``evaluate_batch`` over the same chunks."""
    total, worst = 0.0, 0.0
    for coords, _, _ in reference_chunks(grid):
        err = np.abs(f(coords) - evaluate_batch(net, coords))
        total += float(np.sum(err * point_weight(grid)))
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
    @MIDPOINT
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_random_1d_networks(self, depth, quadrature):
        rng = np.random.default_rng(40 + depth)
        for _ in range(5):
            net = random_net(rng, 1, depth)
            assert_agrees(lambda pts: np.sin(5 * pts[:, 0]), net, GridSpec(1, 20001))

    @MIDPOINT
    def test_lemma_interpolants(self, quadrature):
        rng = np.random.default_rng(12)
        f = tilted(1)
        grid = GridSpec(1, 50001)
        xs = np.linspace(0.0, 1.0, 9)
        assert_agrees(f, lemma1_interpolant(SampleSet(xs, rng.uniform(-1, 1, 9))), grid)
        for m, n in ((1, 1), (2, 3), (4, 4)):
            xs = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0, 1, m * (n + 1) - 1))))
            plan = Lemma2Plan(m, n, SampleSet(xs, rng.uniform(0, 2, xs.size), m, n))
            assert_agrees(f, lemma2_interpolant(plan)[0], grid)

    @MIDPOINT
    @pytest.mark.parametrize("big_n", [2, 3, 5, 8, 16, 32, 64])
    def test_build_1d(self, big_n, quadrature):
        assert_agrees(tilted(1), build_1d(cone(1), big_n).net, GridSpec(1, 100001))

    @MIDPOINT
    @pytest.mark.parametrize("d,big_n,p", [(2, 4, 256), (2, 9, 256), (2, 16, 256),
                                           (3, 8, 40), (3, 27, 40)])
    def test_build_dd(self, d, big_n, p, quadrature):
        assert_agrees(tilted(d), build_dd(cone(d), big_n).net, GridSpec(d, p))

    @MIDPOINT
    @pytest.mark.parametrize("d", [2, 3])
    def test_psi_projection(self, d, quadrature):
        assert_agrees(tilted(d), psi_projection(4, d, 0.01), GridSpec(d, 64))

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
    """(L1, Linf) from one ``reference_blocks`` pass each, the same reductions."""
    total = 0.0
    for err, _ in reference_blocks(f, net, grid):
        total += float(np.sum(err * point_weight(grid)))
    worst = 0.0
    for err, _ in reference_blocks(f, net, grid):
        worst = max(worst, float(np.max(err)))
    return total, worst


class TestGridErrors:
    """One pass gives both errors, equal to two passes to the last bit."""

    @MIDPOINT
    @pytest.mark.parametrize("case", ["1d-compiled", "dd-compiled", "dense"])
    def test_equals_two_passes(self, case, quadrature, monkeypatch):
        calls = count_dense_calls(monkeypatch)
        if case == "1d-compiled":
            net, grid = build_1d(cone(1), 16).net, GridSpec(1, 100001)
        elif case == "dd-compiled":
            net, grid = build_dd(cone(2), 9).net, GridSpec(2, 256)
        else:
            net, grid = random_net(np.random.default_rng(7), 2, 2), GridSpec(2, 128)
        f = tilted(grid.d)
        both = grid_errors(f, net, grid)
        assert both == two_pass_reference(f, net, grid)
        assert both == (l1_error(f, net, grid), linf_error(f, net, grid))
        assert (len(calls) > 0) == (case == "dense")

    @MIDPOINT
    def test_several_chunks(self, quadrature):
        seen = []

        def recording(points):
            seen.append(len(points))
            return tilted(1)(points)

        grid, net = GridSpec(1, 3 * 2**18 + 7), build_1d(cone(1), 8).net
        got = grid_errors(recording, net, grid)
        assert seen == [metrics._BLOCK] * (3 * metrics._CHUNK // metrics._BLOCK) + [7]
        assert got == two_pass_reference(tilted(1), net, grid)

    @pytest.mark.parametrize("d,p", [(1, 2**18 + 1000), (2, 600)])
    def test_nan_in_a_later_chunk_raises(self, d, p):
        # one NaN in the second chunk: a running max(0.0, nan) would drop it
        grid = GridSpec(d, p)
        q = metrics._CHUNK + 5
        bad = (np.array([q // p, q % p][2 - d:]) + 0.5) / p

        def f(points):
            out = tilted(d)(points)
            out[np.all(points == bad, axis=1)] = np.nan
            return out

        net = build_1d(cone(1), 8).net if d == 1 else build_dd(cone(2), 9).net
        with pytest.raises(ValueError, match="NaN"):
            grid_errors(f, net, grid)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("w1", [[[2.0]], [[1.0, 1.0]], [[2.0, 0.0]]])
    def test_overflowing_network_raises(self, w1):
        # one unit with output weight 1e308 overflows inside the cube.  In
        # d = 2 the first layer [[1, 1]] sees both axes, so it is evaluated
        # densely, where the error once read as (inf, inf); [[2, 0]] compiles
        net = ReluNetwork(len(w1[0]), ((np.array(w1), np.zeros(1)),
                                       (np.array([[1e308]]), np.zeros(1))))
        if w1 == [[1.0, 1.0]]:
            assert metrics._compile(net, np.array([0.5])) is None
        with pytest.raises(ValueError, match="infinite"):
            grid_errors(lambda points: np.zeros(len(points)), net, GridSpec(net.input_dim, 64))

    def test_network_overflowing_off_the_grid_is_measured(self):
        # 1e308 * relu(200 x - 198.2) overflows only past x = 0.999, beyond
        # the last grid point 0.9921875: its compile on [0, 1] is not finite,
        # but every grid value is, so the pass measures it densely
        net = ReluNetwork(1, ((np.array([[200.0]]), np.array([-198.2])),
                              (np.array([[1e308]]), np.zeros(1))))
        grid = GridSpec(1, 64)
        dense = np.abs(evaluate_batch(net, midpoints(grid)))
        l1, linf = grid_errors(lambda points: np.zeros(len(points)), net, grid)
        assert np.isfinite(linf) and linf == dense.max()
        assert l1 == pytest.approx(dense.mean(), rel=1e-12)


def reference_chunks(grid):
    """The per-point layout: each flat index split into axis indices by
    ``%`` and ``//``, then gathered; each point's weight is the product of
    its axis weights ``1 / p``, from the last axis down."""
    pts = midpoints(grid)
    p, d = grid.points_per_axis, grid.d
    wts = np.full(p, 1.0 / p)
    total = grid.total_points
    for start in range(0, total, metrics._CHUNK):
        rest = np.arange(start, min(start + metrics._CHUNK, total))
        axes = np.empty((rest.size, d), dtype=np.intp)
        weights = np.ones(rest.size)
        for axis in range(d - 1, -1, -1):
            axes[:, axis] = rest % p
            weights *= wts[axes[:, axis]]
            rest //= p
        yield pts[axes], weights, axes


def reference_blocks(f, net, grid):
    """``|f - net|`` and the point weights per ``_BLOCK`` of ``reference_chunks``,
    each chunk evaluated whole, compiled or dense as in ``grid_errors``."""
    compiled = metrics._compile(net, midpoints(grid))
    for coords, weights, axes in reference_chunks(grid):
        if compiled is None:
            nv = evaluate_batch(net, coords)
        else:
            # a d = 1 network is compiled with no table: its CPL takes x itself
            tables, outer = compiled
            z = sum(t[j] for t, j in zip(tables, axes.T)) if tables else coords[:, 0]
            nv = np.interp(z, outer.breaks, outer.values)
        err = np.abs(f(coords) - nv)
        for lo in range(0, len(err), metrics._BLOCK):
            yield err[lo:lo + metrics._BLOCK], weights[lo:lo + metrics._BLOCK]


def reference_errors(f, net, grid):
    """(L1, Linf) over ``reference_blocks``, both reduced block by block."""
    total, worst = 0.0, 0.0
    for err, weights in reference_blocks(f, net, grid):
        total += float(np.sum(err * weights))
        worst = max(worst, float(np.max(err)))
    return total, worst


def block_sizes(grid, block):
    """Per chunk, its block sizes: full blocks, then what is left of it."""
    sizes = []
    for start in range(0, grid.total_points, metrics._CHUNK):
        size = min(metrics._CHUNK, grid.total_points - start)
        sizes.append([block] * (size // block) + [size % block] * (size % block > 0))
    return sizes


# several chunks each, with the chunk boundary inside a row (and, for d = 3,
# inside a plane); the d = 4 grid wraps its last axis thousands of times
LAYOUT_GRIDS = [(2, 600), (3, 70), (4, 25), (1, 2**18 + 5)]


def signed_zero_tables(d, p):
    """Random tables with both signs, some -0.0 entries and some +0.0 ones."""
    rng = np.random.default_rng(p)
    tables = [rng.normal(size=p) for _ in range(d)]
    for t in tables:
        t[::7] = -0.0
        t[3::7] = 0.0
    return tables


class TestChunkLayout:
    """Each chunk is laid out in blocks; the blocks of a chunk, joined, are
    that chunk of the per-point reference, and a point's row sum plus its
    last-axis table entry is its per-point table sum."""

    @MIDPOINT
    @pytest.mark.parametrize("d,p", LAYOUT_GRIDS)
    def test_matches_per_point_reference(self, d, p, quadrature):
        grid = GridSpec(d, p)
        assert metrics._CHUNK % p != 0
        # a d = 1 block is laid out from its index range, with no axis array
        pts = None if d == 1 else midpoints(grid)
        want = list(reference_chunks(grid))
        assert len(want) >= 2
        # 1000 points leave a partial last block in every chunk and put block
        # boundaries inside a row (and, for d >= 3, inside a plane)
        assert all(sizes[-1] < 1000 for sizes in block_sizes(grid, 1000))
        for block in (metrics._BLOCK, 1000):
            sizes = block_sizes(grid, block)
            assert len(sizes) == len(want)
            for c, ((ref_coords, ref_weights, _), chunk_sizes) in enumerate(zip(want, sizes)):
                blocks, lo = [], c * metrics._CHUNK
                for size in chunk_sizes:
                    blocks.append(metrics._coords(grid, pts, lo, lo + size))
                    lo += size
                for coords, size in zip(blocks, chunk_sizes):
                    assert coords.shape == (size, d) and coords.flags.c_contiguous
                assert np.array_equal(np.concatenate(blocks), ref_coords)
                assert np.all(ref_weights == point_weight(grid))

    @pytest.mark.parametrize("d,p", LAYOUT_GRIDS[:3])
    def test_row_sum_plus_last_table_is_the_per_point_sum(self, d, p):
        # the integer start of either sum turns a -0.0 entry into +0.0
        tables = signed_zero_tables(d, p)
        grid = GridSpec(d, p)
        for c, (_, _, axes) in enumerate(reference_chunks(grid)):
            q = c * metrics._CHUNK + np.arange(len(axes))
            r0, r1 = q[0] // p, q[-1] // p + 1
            lead = metrics._row_sums(tables[:-1], p, r0, r1)
            assert lead.shape == (r1 - r0,) and not np.any(np.signbit(lead) & (lead == 0))
            got = lead[q // p - r0] + tables[-1][q % p]
            want = sum(t[j] for t, j in zip(tables, axes.T))
            assert got.tobytes() == want.tobytes()

    @MIDPOINT
    @pytest.mark.parametrize("d,p", LAYOUT_GRIDS[:3])
    def test_signed_zero_tables_keep_their_errors(self, d, p, quadrature, monkeypatch):
        # a chunk tables the distinct last-axis entries, and np.unique merges
        # -0.0 with +0.0; no leading sum is -0.0, so each point's sum, and so
        # every error, keeps the per-point table sum's bits
        tables = signed_zero_tables(d, p)
        last = tables[-1]
        assert len(np.unique(last)) == len(np.unique(last.view(np.int64))) - 1
        outer = CplFunction(d * np.array([-3.0, -0.5, 0.0, 0.7, 3.0]),
                            np.array([1.0, -0.2, 0.3, 0.1, -1.0]))
        monkeypatch.setattr(metrics, "_compile", lambda net, pts: (tables, outer))
        grid, f, net = GridSpec(d, p), tilted(d), zero_net(d)
        assert grid_errors(f, net, grid) == reference_errors(f, net, grid)

    @MIDPOINT
    @pytest.mark.parametrize("case", ["compiled", "dense"])
    @pytest.mark.parametrize("d,p", LAYOUT_GRIDS[:2])
    def test_errors_match_per_point_reference(self, d, p, case, quadrature, monkeypatch):
        calls = count_dense_calls(monkeypatch)
        if case == "compiled":
            net = build_dd(cone(d), 9 if d == 2 else 8).net
        else:
            net = random_net(np.random.default_rng(d), d, 2)
        grid, f = GridSpec(d, p), tilted(d)
        assert grid_errors(f, net, grid) == reference_errors(f, net, grid)
        assert (len(calls) > 0) == (case == "dense")


def rank1_net(rng, d, width=8):
    """A compiled-form network with random tables: every first-layer row sees
    one coordinate and the second weight matrix is rank 1, so its leading
    sums differ on every grid row."""
    w1 = np.zeros((width * d, d))
    w1[np.arange(width * d), np.arange(width * d) % d] = rng.normal(size=width * d)
    w2 = np.outer(rng.normal(size=5), rng.normal(size=width * d))
    return ReluNetwork(d, ((w1, rng.normal(size=width * d)), (w2, rng.normal(size=5)),
                           (rng.normal(size=(1, 5)), rng.normal(size=1))))


def record_row_tables(monkeypatch):
    """Shapes of the 2-D ``np.interp`` calls: the per-chunk row tables."""
    shapes, interp = [], np.interp

    def recording(x, *args, **kwargs):
        if np.ndim(x) == 2:
            shapes.append(np.shape(x))
        return interp(x, *args, **kwargs)

    monkeypatch.setattr(np, "interp", recording)
    return shapes


def rows_spanned(grid):
    """Per chunk, the number of grid rows its points touch."""
    p, total = grid.points_per_axis, grid.total_points
    return [(min(start + metrics._CHUNK, total) - 1) // p - start // p + 1
            for start in range(0, total, metrics._CHUNK)]


class TestRowTable:
    """A d > 1 chunk evaluates the network once per distinct grid row; every
    error equals the per-point table sum's to the last bit."""

    # chunk boundaries fall inside a row at every p here but 64
    @MIDPOINT
    @pytest.mark.parametrize("d,p", [(2, 1024), (2, 777), (2, 333), (3, 64), (3, 50)])
    def test_build_dd_equals_per_point_reference(self, d, p, quadrature, monkeypatch):
        calls = count_dense_calls(monkeypatch)
        shapes = record_row_tables(monkeypatch)
        grid, net = GridSpec(d, p), build_dd(cone(d), 16 if d == 2 else 27).net
        for f in (cone(d), tilted(d)):
            assert grid_errors(f, net, grid) == reference_errors(f, net, grid)
        assert calls == []
        # the psi encoder sorts each coordinate into a few cells, so rows
        # repeat: each of the two passes tables under a quarter of its rows,
        # and each table has one column per distinct last-axis entry
        assert len(shapes) == 2 * len(rows_spanned(grid))
        assert sum(rows for rows, _ in shapes) * 4 < 2 * sum(rows_spanned(grid))
        last = metrics._compile(net, midpoints(grid))[0][-1]
        assert all(width == len(np.unique(last)) < p for _, width in shapes)

    @MIDPOINT
    @pytest.mark.parametrize("d,p", [(2, 1024), (2, 333), (3, 50)])
    def test_rows_that_never_repeat(self, d, p, quadrature, monkeypatch):
        calls = count_dense_calls(monkeypatch)
        shapes = record_row_tables(monkeypatch)
        net, grid = rank1_net(np.random.default_rng(d * p), d), GridSpec(d, p)
        assert grid_errors(tilted(d), net, grid) == reference_errors(tilted(d), net, grid)
        assert calls == []
        assert shapes == [(rows, p) for rows in rows_spanned(grid)]

    @pytest.mark.parametrize("d,p", [(2, 777), (2, 4096), (3, 50), (3, 256)])
    def test_table_size_bound(self, d, p, monkeypatch):
        shapes = record_row_tables(monkeypatch)
        grid = GridSpec(d, p)
        grid_errors(cone(d), rank1_net(np.random.default_rng(p), d), grid)
        assert len(shapes) == len(rows_spanned(grid))
        assert all(rows <= metrics._CHUNK // p + 2 and width == p for rows, width in shapes)


class TestBlockEdges:
    """Blocks change where the target and ``np.interp`` run, not any value:
    every result equals the whole-chunk evaluation, summed per block, bit for
    bit."""

    @MIDPOINT
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("d,p", [(1, 999_999), (2, 777), (3, 100)])
    def test_cone_equals_whole_chunk_reference(self, d, p, alpha, quadrature, monkeypatch):
        # unaligned grids: the SIMD tail of np.power falls at block ends
        calls = count_dense_calls(monkeypatch)
        f = holder_family("cone", d, alpha, 1.0)
        net = (build_1d(f, 8) if d == 1 else build_dd(f, 9 if d == 2 else 8)).net
        grid = GridSpec(d, p)
        assert grid.total_points % metrics._BLOCK != 0
        assert grid_errors(f, net, grid) == reference_errors(f, net, grid)
        assert calls == []

    def test_dense_fallback_takes_one_call_per_block(self, monkeypatch):
        seen = []

        def recording(points):
            seen.append(len(points))
            return tilted(2)(points)

        grid = GridSpec(2, 600)
        net = random_net(np.random.default_rng(2), 2, 2)
        calls = count_dense_calls(monkeypatch)
        assert grid_errors(recording, net, grid) == reference_errors(tilted(2), net, grid)
        assert calls == seen == sum(block_sizes(grid, metrics._BLOCK), [])

    def test_dense_fallback_holds_blocks_not_chunks(self):
        # 2^18 x 64 activation matrices took 266 MiB traced
        rng = np.random.default_rng(3)
        dims = [2, 64, 64, 1]
        net = ReluNetwork(2, tuple((rng.normal(size=(o, i)), rng.normal(size=o))
                                   for i, o in zip(dims, dims[1:])))
        tracemalloc.start()
        try:
            grid_errors(cone(2), net, GridSpec(2, 1024))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_pass_holds_no_chunk_buffer(self):
        # each block is reduced as it is evaluated; with a 2^18-point buffer of
        # errors per chunk this pass peaked at 2.69 MiB traced
        net = build_1d(cone(1), 8).net
        grid_errors(cone(1), net, GridSpec(1, 1000))  # first-call allocations
        tracemalloc.start()
        try:
            grid_errors(cone(1), net, GridSpec(1, 2**20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    def test_d2_pass_holds_its_tables_not_the_chunk(self):
        # the cone's and the network's chunk tables hold distinct leading sums
        # by distinct last-axis entries: 1.59 MiB traced, where evaluating
        # the cone per block peaked at 0.83 MiB
        net, grid = build_dd(cone(2), 16).net, GridSpec(2, 1024)
        grid_errors(cone(2), net, grid)  # first-call allocations
        tracemalloc.start()
        try:
            grid_errors(cone(2), net, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20

    def test_d1_pass_holds_blocks_not_the_grid(self, monkeypatch):
        # 2^22 points: the whole axis array and its arange took 64 MiB
        f, net, grid = cone(1), build_1d(cone(1), 16).net, GridSpec(1, 2**22)
        tracemalloc.start()
        try:
            got = grid_errors(f, net, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        # the slice of the whole axis array (finite and positive: equal
        # values are equal bits)
        whole = midpoints(grid)
        for lo, hi in ((0, 7), (2**21 - 3, 2**21 + 5), (2**22 - 9, 2**22)):
            assert np.array_equal(metrics._coords(grid, None, lo, hi)[:, 0], whole[lo:hi])
        # and the errors of the whole-array layout
        monkeypatch.setattr(metrics, "_coords", lambda grid, pts, lo, hi: whole[lo:hi, None])
        assert got == grid_errors(f, net, grid)

    def test_concurrent_calls_equal_serial(self):
        # as sweep --threads does: each call keeps its own block arrays and
        # sums, so calls that interleave block by block give the serial bits
        rng = np.random.default_rng(9)
        cases = [(tilted(1), build_1d(cone(1), 8).net, GridSpec(1, 2**18 + 4321)),
                 (tilted(2), build_dd(cone(2), 9).net, GridSpec(2, 600)),
                 (cone(3), build_dd(cone(3), 8).net, GridSpec(3, 70)),
                 (tilted(2), random_net(rng, 2, 2), GridSpec(2, 300))]
        serial = [grid_errors(*case) for case in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                parallel = list(pool.map(lambda case: grid_errors(*case), cases * 2, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert parallel == serial * 2


def overflows_past(d, p):
    """A network that is 0 on the grid's first chunk and infinite in part of
    its second: ``1e308 * 1e308 * relu(x_0 - c)``, c past the first chunk's
    last row (or plane), so no compiled form is finite."""
    c = (metrics._CHUNK // p ** (d - 1) + 1) / p
    w1 = np.zeros((1, d))
    w1[0, 0] = 1.0
    return ReluNetwork(d, ((w1, np.array([-c])), (np.array([[1e308]]), np.zeros(1)),
                           (np.array([[1e308]]), np.zeros(1))))


def hexed(results):
    """Results as comparable values: float bits, or an exception's type and text."""
    return [tuple(map(float.hex, r)) if isinstance(r, tuple) else (type(r), str(r))
            for r in results]


# several chunks each; the d = 1 grid has three
SHARED_GRIDS = [(1, 2 * 2**18 + 4321), (2, 600), (3, 70)]


class TestSharedPass:
    """``_grid_metrics`` measures many networks in one pass: each result is
    ``grid_errors``'s, bit for bit, whatever ``map`` runs the chunks."""

    def nets(self, d):
        rng = np.random.default_rng(d)
        built = build_1d(cone(1), 8).net if d == 1 else build_dd(cone(d), 9 if d == 2 else 8).net
        return [built, random_net(rng, d, 2), zero_net(d),
                overflows_past(d, SHARED_GRIDS[d - 1][1]),
                rank1_net(rng, d) if d > 1 else build_1d(cone(1), 16).net]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("d,p", SHARED_GRIDS)
    def test_pool_map_equals_builtin_map(self, d, p):
        grid, nets = GridSpec(d, p), self.nets(d)
        assert grid.total_points > metrics._CHUNK
        last = np.full(d, (p - 0.5) / p)

        def nan_at_the_end(points):
            out = tilted(d)(points)
            out[np.all(points == last, axis=1)] = np.nan
            return out

        for f in (cone(d), tilted(d), nan_at_the_end):
            serial = metrics._grid_metrics(f, nets, grid)
            with ThreadPoolExecutor(max_workers=2) as pool:
                pooled = metrics._grid_metrics(f, nets, grid, pool.map)
            assert hexed(pooled) == hexed(serial)
            singles = []
            for net in nets:
                try:
                    singles.append(grid_errors(f, net, grid))
                except ValueError as e:
                    singles.append(e)
            assert hexed(serial) == hexed(singles)
            for i, r in enumerate(serial):
                if i == 3:  # its second chunk fails it, before the NaN in the last chunk
                    assert type(r) is ValueError
                    assert str(r) == "target or network is infinite on the grid"
                elif f is nan_at_the_end:
                    assert type(r) is ValueError
                    assert str(r) == "target or network is NaN on the grid"
                else:
                    assert isinstance(r, tuple)
        for net, r in zip(nets[:3], metrics._grid_metrics(tilted(d), nets[:3], grid)):
            assert r == reference_errors(tilted(d), net, grid)

    @pytest.mark.parametrize("d,p", SHARED_GRIDS)
    def test_target_called_once_per_block(self, d, p):
        seen = []

        def recording(points):
            seen.append(len(points))
            return tilted(d)(points)

        grid = GridSpec(d, p)
        results = metrics._grid_metrics(recording, self.nets(d)[:3], grid)
        assert all(isinstance(r, tuple) for r in results)
        assert seen == sum(block_sizes(grid, metrics._BLOCK), [])

    def test_each_network_fails_alone(self):
        grid = GridSpec(2, 64)
        nets = [build_dd(cone(2), 4).net, zero_net(3), zero_net(2)]
        got = metrics._grid_metrics(cone(2), nets, grid)
        assert got[0] == grid_errors(cone(2), nets[0], grid)
        assert type(got[1]) is ShapeError and "input dimension" in str(got[1])
        assert got[2] == grid_errors(cone(2), nets[2], grid)

    def test_target_error_fails_every_network(self):
        seen = []

        def short(points):
            seen.append(len(points))
            return np.zeros(len(points) - 1)

        got = metrics._grid_metrics(short, [build_1d(cone(1), 4).net, zero_net()],
                                    GridSpec(1, 2**18 + 5))
        assert [str(e) for e in got] == ["target must map (k, d) points to (k,) values"] * 2
        # the pass stops each chunk at the target's first failure
        assert seen == [metrics._BLOCK, 5]

    def test_no_network_calls_no_target(self):
        def never(points):
            raise AssertionError("the target was called")

        assert [type(e) for e in metrics._grid_metrics(never, [zero_net(2)], GridSpec(1, 9))] \
            == [ShapeError]
        assert metrics._grid_metrics(never, [], GridSpec(1, 9)) == []


class TestConeTarget:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bit_identical_to_norm(self, d):
        rng = np.random.default_rng(d)
        grid_points = [c for c, _, _ in reference_chunks(GridSpec(d, {1: 999, 2: 61, 3: 17}[d]))]
        for alpha, nu in ((0.3, 1.0), (0.5, 2.5), (1.0, 0.7)):
            t = holder_family("cone", d, alpha, nu)
            for points in (rng.random((5000, d)), *grid_points, np.full((1, d), 0.5)):
                want = nu * np.linalg.norm(points - np.full(d, 0.5), axis=1) ** alpha
                assert np.array_equal(t(points), want)
        assert t(np.full((1, d), 0.5))[0] == 0.0

    @pytest.mark.parametrize("shape", [(4, 1), (4, 3), (4,)])
    def test_wrong_dimension_rejected(self, shape):
        with pytest.raises(ShapeError):
            cone(2)(np.full(shape, 0.25))

    @pytest.mark.parametrize("d,p", [(1, 2**18 + 5), (2, 600), (3, 70)])
    def test_target_sees_each_grid_point_once_in_chunk_order(self, d, p):
        seen = []

        def recording(points):
            seen.append(points)
            return cone(d)(points)

        grid = GridSpec(d, p)
        grid_errors(recording, build_dd(cone(d), 4).net if d > 1 else zero_net(), grid)
        for points in seen:
            assert points.dtype == np.float64 and points.flags.c_contiguous
            assert points.ndim == 2 and points.shape[1] == d
        sizes = [len(points) for points in seen]
        assert sizes == sum(block_sizes(grid, metrics._BLOCK), [])
        axis = midpoints(grid)
        every = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
        assert np.array_equal(np.concatenate(seen), every)


class TestConeTable:
    """On a d > 1 grid the cone is evaluated from per-axis tables, bit for
    bit the per-point path that any other callable takes."""

    @MIDPOINT
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("d,p", [(2, 1024), (2, 777), (2, 600), (3, 64), (3, 100), (3, 37)])
    def test_equals_per_point_path(self, d, p, alpha, quadrature):
        t = holder_family("cone", d, alpha, 1.0)
        net, grid = build_dd(t, 9 if d == 2 else 8).net, GridSpec(d, p)
        assert grid_errors(t, net, grid) == grid_errors(lambda pts: t(pts), net, grid)

    def test_bare_callable_and_dense_fallback(self, monkeypatch):
        calls = count_dense_calls(monkeypatch)
        t, grid = cone(2), GridSpec(2, 600)
        net = random_net(np.random.default_rng(4), 2, 2)
        want = grid_errors(lambda pts: t(pts), net, grid)
        assert grid_errors(t, net, grid) == grid_errors(t.f, net, grid) == want
        assert len(calls) == 3 * len(sum(block_sizes(grid, metrics._BLOCK), []))

    @pytest.mark.parametrize("d,p", [(2, 777), (3, 37)])
    def test_table_pass_builds_no_points(self, d, p, monkeypatch):
        t = cone(d)
        net, grid = build_dd(t, 9 if d == 2 else 8).net, GridSpec(d, p)
        want = grid_errors(lambda pts: t(pts), net, grid)
        seen = []

        # as a tracer wraps it: functools.wraps copies the cone's form
        @functools.wraps(t.f)
        def recording(points):
            seen.append(len(points))
            return t.f(points)

        def no_coords(*args):
            raise AssertionError("a table pass laid out grid points")

        monkeypatch.setattr(metrics, "_coords", no_coords)
        assert grid_errors(HolderTarget(recording, d, t.alpha, t.nu), net, grid) == want
        assert seen == []

    @pytest.mark.parametrize("d,p,want", [(2, 1024, 524_288), (3, 64, 12_736)])
    def test_outer_sees_each_distinct_sum_once_per_chunk(self, d, p, want):
        t, net, grid = cone(d), build_dd(cone(d), 16 if d == 2 else 27).net, GridSpec(d, p)
        dim, axis, outer = t.f._axis_form
        seen = []

        def counting(s):
            seen.append(s.size)
            return outer(s)

        t.f._axis_form = (dim, axis, counting)
        assert grid_errors(t, net, grid) == grid_errors(lambda pts: t(pts), net, grid)
        # per chunk: its distinct leading sums times the distinct last-axis
        # entries, where the per-point path feeds outer all p**d points
        table = axis(midpoints(grid))
        tabled = sum(len(np.unique(sum(table[j] for j in axes.T[:-1]))) * len(np.unique(table))
                     for _, _, axes in reference_chunks(grid))
        assert sum(seen) == tabled == want < grid.total_points

    def test_outer_that_raises_fails_every_network(self):
        t = cone(2)

        def failing(s):
            raise FloatingPointError("outer failed")

        t.f._axis_form = (*t.f._axis_form[:2], failing)
        got = metrics._grid_metrics(t, [build_dd(cone(2), 4).net, zero_net(2)], GridSpec(2, 64))
        assert [(type(e), str(e)) for e in got] == [(FloatingPointError, "outer failed")] * 2

    def test_outer_that_raises_on_a_later_chunk_fails_every_network(self):
        t, grid = cone(2), GridSpec(2, 600)
        assert -(-grid.total_points // metrics._CHUNK) == 2
        dim, axis, outer = t.f._axis_form
        failed = []

        def failing_far_out(s):
            # the second chunk's rows all lie more than 0.2 from the centre,
            # so its table's smallest squared distance exceeds 0.04; the
            # first chunk's rows include the centre row
            failed.append(bool(s.min() > 0.04))
            if failed[-1]:
                raise FloatingPointError("outer failed")
            return outer(s)

        t.f._axis_form = (dim, axis, failing_far_out)
        nets = [build_dd(cone(2), 4).net, zero_net(2), rank1_net(np.random.default_rng(6), 2)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            for chunk_map in (map, pool.map):
                failed.clear()
                got = metrics._grid_metrics(t, nets, grid, chunk_map)
                assert sorted(failed) == [False, True]
                assert [(type(e), str(e)) for e in got] == [(FloatingPointError, "outer failed")] * 3

    def test_cone_of_another_dimension_rejected(self):
        with pytest.raises(ShapeError, match="d = 3 cone"):
            grid_errors(cone(3), build_dd(cone(2), 4).net, GridSpec(2, 64))


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

    @pytest.mark.parametrize("nu", [0.0, -1.0, float("nan"), float("inf")])
    def test_nu_must_be_positive(self, nu):
        with pytest.raises(CertificateError, match="nu must be positive"):
            holder_family("cone", 1, 1.0, nu)


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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_error_rejected(self, bad):
        with pytest.raises(ValueError, match="finite, strictly positive"):
            rate_fit([(2, bad), (4, 1e-3), (8, 1e-4)])

    def test_too_few_pairs(self):
        with pytest.raises(ShapeError):
            rate_fit([(2, 0.1)])

    @pytest.mark.parametrize("pairs", [[(4, 1e-3), (4, 2e-3)], [(8, 1e-3)] * 3])
    def test_one_distinct_n_rejected(self, pairs):
        # np.polyfit warned RankWarning and returned slope -2.37, r^2 1e-16
        with pytest.raises(ShapeError, match="distinct N"):
            rate_fit(pairs)

    @pytest.mark.parametrize("n, message", [(2.5, "must be an integer"),
                                            (4.0, "must be an integer"),
                                            (True, "must be an integer"),
                                            (0, "must be a positive integer")])
    def test_n_must_be_a_positive_integer(self, n, message):
        with pytest.raises(ValueError, match="N " + message):
            rate_fit([(n, 0.1), (4, 0.05), (8, 0.02)])

    def test_numpy_integer_n(self):
        pairs = [(2, 0.1), (4, 0.05), (8, 0.02)]
        assert rate_fit([(np.int64(n), e) for n, e in pairs]) == rate_fit(pairs)
