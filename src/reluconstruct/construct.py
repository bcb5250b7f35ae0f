"""Two- and three-hidden-layer interpolation and approximation constructions.

Everything here emits explicit weights.  The two-hidden-layer interpolant
fits ``m*(n+1)+1`` nonnegative samples with hidden widths ``[2m, 2n+1]``,
exact at every node and linear outside m narrow "don't-care" intervals; the
Hoelder approximants build on it with a puncture width delta chosen by a
:class:`DeltaPolicy`.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cpl import (
    CplFunction,
    SampleSet,
    _extract_cpl,
    _fit_one_layer_row,
    cpl_sup,
    eval_cpl,
    exact_l1_cpl,
    lemma1_interpolant,
    net_to_cpl_exact,
)
from .errors import (
    CertificateError,
    ConstructionInfeasibleError,
    DegenerateGridError,
    ResolutionError,
    ShapeError,
)
from .network import ReluNetwork, affine_post, compose

__all__ = [
    "Lemma2Plan",
    "ResidualTrace",
    "DeltaPolicy",
    "DeltaChoice",
    "DeltaContext",
    "HolderTarget",
    "Construction",
    "PAPER_SUFFICIENT",
    "EMPIRICAL_SHRINK",
    "lemma2_interpolant",
    "lemma2_sup_bound",
    "choose_delta",
    "theorem_d1",
    "build_1d",
    "psi0",
    "psi_projection",
    "theorem_dd",
    "build_dd",
    "corollary32_check",
    "spot_check_holder",
]

PAPER_SUFFICIENT = "paper-sufficient"
EMPIRICAL_SHRINK = "empirical-shrink"

# Residual values smaller than this (relative to the data scale) are treated
# as exact zeros when splitting the sign classes.  Without the snap, f64
# rounding noise on samples that happen to be block-linear is extrapolated by
# a factor ~(1 + block/gap) per stage, which compounds factorially.
RESIDUAL_SNAP = 1e-12

# Cap on empirical-shrink candidates.  Halving from below half a unit gap
# reaches the default floor of 1e-12 in under 40 steps.
MAX_DELTA_ITERATIONS = 80


@dataclass(frozen=True)
class Lemma2Plan:
    """Sample layout for the two-hidden-layer interpolant.

    The index sets split ``{0, ..., m(n+1)}`` into kept and don't-care
    positions: the don't-care intervals are ``[x_{i-1}, x_i]`` for
    ``i = j(n+1)``, ``j = 1..m``.
    """

    m: int
    n: int
    samples: SampleSet

    def __post_init__(self):
        if self.samples.m != self.m or self.samples.n != self.n:
            object.__setattr__(
                self, "samples", SampleSet(self.samples.xs, self.samples.ys, self.m, self.n)
            )

    @property
    def break_indices(self) -> np.ndarray:
        """Sorted union {0} + {j(n+1) - 1, j(n+1) : j = 1..m}; always 2m+1 indices."""
        idx = [0]
        for j in range(1, self.m + 1):
            idx.extend((j * (self.n + 1) - 1, j * (self.n + 1)))
        return np.asarray(idx)


@dataclass
class ResidualTrace:
    """Stage-by-stage record of the two-hidden-layer construction.

    ``residuals[k]`` holds the stage-k residual at every grid point
    (k = 0 .. n+1); ``lambda_plus[k-1]``/``lambda_minus[k-1]`` the sign
    classes of stage k.
    """

    break_indices: np.ndarray
    residuals: list = field(default_factory=list)
    lambda_plus: list = field(default_factory=list)
    lambda_minus: list = field(default_factory=list)

    def as_document(self) -> dict:
        """Plain-Python dict for the optional trace JSON."""
        return {
            "break_indices": self.break_indices.tolist(),
            "residuals": [r.tolist() for r in self.residuals],
            "lambda_plus": [sorted(map(int, lam)) for lam in self.lambda_plus],
            "lambda_minus": [sorted(map(int, lam)) for lam in self.lambda_minus],
        }


def lemma2_sup_bound(xs, m: int, n: int, max_y: float) -> float:
    """Sup bound of the constructed interpolant from the actual grid.

    ``3 * max_y * prod_k (1 + max_j(x_{j(n+1)+n} - x_{j(n+1)+k-1})
    / min_j(x_{j(n+1)+k} - x_{j(n+1)+k-1}))``.
    """
    xs = np.asarray(xs, dtype=float)
    prod = 1.0
    js = np.arange(m)
    for k in range(1, n + 1):
        num = np.max(xs[js * (n + 1) + n] - xs[js * (n + 1) + k - 1])
        den = np.min(xs[js * (n + 1) + k] - xs[js * (n + 1) + k - 1])
        prod *= 1.0 + num / den
    return 3.0 * max_y * prod


def lemma2_interpolant(plan: Lemma2Plan):
    """Two-hidden-layer interpolant with widths exactly ``[2m, 2n+1]``.

    Stage 0 fits the break-point values of the sample CPL; stage k subtracts
    the activated one-hidden-layer pieces that zero the residual at the k-th
    point of every block, extrapolating the line through
    ``(x_{j(n+1)+k-1}, 0)`` and ``(x_{j(n+1)+k}, f_k(x_{j(n+1)+k}))`` to the
    block's break points.  The output row alternates signs ``[1, 1, -1, ...,
    1, -1]``.

    Returns ``(network, trace)``.
    """
    m, n = plan.m, plan.n
    xs, ys = plan.samples.xs, plan.samples.ys
    if ys.min() < 0:
        raise ShapeError("all sample values must be nonnegative")
    bidx = plan.break_indices
    bx = xs[bidx]

    w1 = np.ones((2 * m, 1))
    b1 = -bx[:-1]

    snap = RESIDUAL_SNAP * max(1.0, float(np.abs(ys).max()))
    trace = ResidualTrace(break_indices=bidx)

    f = ys.astype(float).copy()
    trace.residuals.append(f.copy())

    rows = []
    # stage 0: fit the sample CPL at the break points
    g0_break = f[bidx].copy()
    rows.append(_fit_one_layer_row(bx, g0_break))
    g0_grid = np.maximum(np.interp(xs, bx, g0_break), 0.0)
    f = f - g0_grid
    trace.residuals.append(f.copy())

    block_start = (n + 1) * np.arange(m)
    # block ends x_{j(n+1)} and x_{j(n+1)+n}: the break points 2j and 2j+1
    block_ends = xs[np.column_stack((block_start, block_start + n))]
    for k in range(1, n + 1):
        vals = f[block_start + k]
        snapped = np.abs(vals) <= snap
        # ties (residual exactly zero) go to the plus class
        plus = (vals >= 0) | snapped
        trace.lambda_plus.append(np.nonzero(plus)[0])
        trace.lambda_minus.append(np.nonzero(~plus)[0])

        xa = xs[block_start + k - 1]
        slope = np.abs(vals) / (xs[block_start + k] - xa)
        ends = slope[:, None] * (block_ends - xa[:, None])
        gp_break = np.zeros(2 * m + 1)
        gm_break = np.zeros(2 * m + 1)
        gp_break[:-1] = np.where((plus & ~snapped)[:, None], ends, 0.0).ravel()
        gm_break[:-1] = np.where((~plus)[:, None], ends, 0.0).ravel()
        rows.append(_fit_one_layer_row(bx, gp_break))
        rows.append(_fit_one_layer_row(bx, gm_break))

        gp_grid = np.maximum(np.interp(xs, bx, gp_break), 0.0)
        gm_grid = np.maximum(np.interp(xs, bx, gm_break), 0.0)
        f = f - gp_grid + gm_grid
        trace.residuals.append(f.copy())

    w2 = np.vstack([w for w, _ in rows])
    b2 = np.array([b for _, b in rows])
    w3 = np.ones((1, 2 * n + 1))
    w3[0, 2::2] = -1.0
    b3 = np.zeros(1)
    net = ReluNetwork(1, ((w1, b1), (w2, b2), (w3, b3)))
    return net, trace


# ---------------------------------------------------------------------------
# don't-care width policy


@dataclass
class DeltaPolicy:
    """How to pick the don't-care width delta.

    ``paper-sufficient`` evaluates the closed-form sufficient condition in
    log space (its factorial makes the exact value underflow f64 for N of a
    dozen or more; the result is then clamped at ``floor`` and flagged).
    ``empirical-shrink`` starts at ``shrink * (half the minimum grid gap)``
    and keeps multiplying by ``shrink`` until the measured don't-care
    contribution fits the budget.
    """

    mode: str = EMPIRICAL_SHRINK
    target: float | None = None
    floor: float = 1e-12
    shrink: float = 0.5

    def __post_init__(self):
        if self.mode not in (PAPER_SUFFICIENT, EMPIRICAL_SHRINK):
            raise ValueError(f"unknown delta mode: {self.mode!r}")
        if not 0 < self.shrink < 1:
            raise ValueError("shrink factor must lie in (0, 1)")
        if self.floor <= 0:
            raise ValueError("floor must be positive")


@dataclass
class DeltaChoice:
    """Outcome of :func:`choose_delta`."""

    delta: float
    clamped: bool = False
    met_budget: bool = True
    iterations: int = 0
    h_error: float | None = None

    def __float__(self):
        return self.delta


@dataclass
class DeltaContext:
    """Construction-side inputs to :func:`choose_delta`.

    ``min_gap`` is the smallest gap of the grid the delta punctures,
    ``budget`` the right side of the delta inequality, ``denom_log`` the log
    of the closed-form multiplier (paper mode), and ``h_error`` a callable
    measuring the don't-care L1 contribution at a candidate delta
    (empirical mode).
    """

    min_gap: float
    budget: float
    denom_log: float | None = None
    h_error: Callable[[float], float] | None = None


def choose_delta(policy: DeltaPolicy, context: DeltaContext) -> DeltaChoice:
    """Pick the puncture width under the given policy.

    The returned delta is always strictly below half the punctured grid's
    minimum gap.  In empirical mode a floor hit without meeting the budget
    raises :class:`ConstructionInfeasibleError` carrying the measured error.
    """
    half_gap = 0.5 * context.min_gap
    cap = half_gap * (1.0 - 1e-9)

    if policy.mode == PAPER_SUFFICIENT:
        if context.denom_log is None:
            raise ValueError("paper-sufficient mode needs the closed-form denominator")
        target = context.budget if policy.target is None else policy.target
        log_delta = math.log(target) - context.denom_log
        if log_delta < math.log(policy.floor):
            warnings.warn(
                "paper-sufficient delta underflows the floor; clamping "
                "(the sufficient condition is unattainable at f64 for this size)",
                RuntimeWarning,
                stacklevel=2,
            )
            return DeltaChoice(delta=min(policy.floor, cap), clamped=True, met_budget=False)
        return DeltaChoice(delta=min(math.exp(log_delta), cap), clamped=False)

    if context.h_error is None:
        raise ValueError("empirical-shrink mode needs an h_error measurement")
    budget = context.budget if policy.target is None else policy.target
    delta = policy.shrink * half_gap
    err = None
    for it in range(MAX_DELTA_ITERATIONS):
        err = context.h_error(delta)
        if err <= budget:
            return DeltaChoice(delta=delta, iterations=it + 1, h_error=err)
        if delta <= policy.floor:
            break
        delta = max(delta * policy.shrink, policy.floor)
    raise ConstructionInfeasibleError(
        f"measured error {err:.3e} still exceeds budget {budget:.3e} "
        f"at the floor width {delta:.3e}",
        achieved=err,
        delta=delta,
    )


# ---------------------------------------------------------------------------
# Hoelder targets


@dataclass
class HolderTarget:
    """A target function with its (alpha, nu) smoothness certificate.

    ``f`` maps an (k, d) array of points in the unit cube to a (k,) array of
    values.  The certificate is caller-supplied and only spot-checked.
    """

    f: Callable[[np.ndarray], np.ndarray]
    d: int
    alpha: float
    nu: float

    def __post_init__(self):
        if self.d < 1:
            raise ShapeError("d must be a positive integer")
        if not 0 < self.alpha <= 1:
            raise CertificateError("alpha must lie in (0, 1]")
        if not self.nu > 0:
            raise CertificateError("nu must be positive")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        out = np.asarray(self.f(np.asarray(points, dtype=float)), dtype=float)
        return out


def spot_check_holder(target: HolderTarget) -> float:
    """Worst observed ``|f(x)-f(y)| / (nu ||x-y||^alpha)`` over sampled pairs.

    The pairs are 200 seeded random ones plus the axis neighbours of a dyadic
    grid of at most 4096 points with spacing ``h = 2^-floor(12/d)``: random
    pairs alone miss a constant that is reached only near one point.  A soft
    check: callers warn when the ratio exceeds 1, they do not fail.
    """
    rng = np.random.default_rng(0)
    x = rng.random((200, target.d))
    y = rng.random((200, target.d))
    dist = np.linalg.norm(x - y, axis=1)
    ok = dist > 1e-12
    num = np.abs(target(x) - target(y))[ok]
    den = target.nu * dist[ok] ** target.alpha
    worst = float(np.max(num / den)) if num.size else 0.0

    k = 12 // target.d
    h = 2.0**-k
    base = h * np.indices((2**k,) * target.d).reshape(target.d, -1).T
    f_base = target(base)
    for axis in range(target.d):
        step = base.copy()
        step[:, axis] += h
        step_num = float(np.max(np.abs(target(step) - f_base)))
        worst = max(worst, step_num / (target.nu * h**target.alpha))
    return worst


def _warn_on_certificate(target: HolderTarget):
    ratio = spot_check_holder(target)
    if ratio > 1.0 + 1e-9:
        warnings.warn(
            f"target violates its Hoelder certificate on sampled pairs (ratio {ratio:.3f})",
            RuntimeWarning,
            stacklevel=3,
        )


def _shifted_samples(target: HolderTarget, points: np.ndarray, f0: float, lift: float) -> np.ndarray:
    """Normalized, lifted sample values; must come out nonnegative."""
    ys = (target(points) - f0) / target.nu + lift
    bad = ys < 0
    if bad.any():
        worst = float(ys.min())
        if worst < -1e-9:
            raise CertificateError(
                f"lifted sample value {worst:.3e} is negative: the target breaks "
                "its Hoelder certificate"
            )
        ys = np.where(bad, 0.0, ys)
    return ys


# ---------------------------------------------------------------------------
# Theorem constructions, d = 1


@dataclass
class Construction:
    """A built Hoelder approximant plus the data the CLI reports.

    ``grid`` holds the abscissae the lemma-2 interpolant fits: the punctured
    grid in d = 1, the padded cell codes in d > 1.  ``n`` is the base grid
    resolution (``N^2`` for ``{i/N^2}`` in d = 1, cells per axis in d > 1)
    and ``n_prime`` the lemma-2 block count, which is also the block length.
    """

    net: ReluNetwork
    delta: DeltaChoice
    bound: float
    grid: np.ndarray
    n: int
    n_prime: int


def _grid_1d(n_cap: int, blocks: int, delta: float) -> np.ndarray:
    base = np.arange(n_cap + 1) / n_cap
    punct = np.arange(1, blocks + 1) / blocks - delta
    xs = np.sort(np.concatenate((base, punct)))
    if np.diff(xs).min() <= 0:
        raise ResolutionError("puncture width collides with the base grid")
    return xs


def build_1d(target: HolderTarget, big_n: int, policy: DeltaPolicy | None = None) -> Construction:
    """Hidden-width ``[2N, 2N+1]`` approximant of a 1-D Hoelder target.

    Normalizes to unit constant and zero value at 0, lifts by +1, fits the
    ``N(N+1)+1`` samples on the punctured grid ``{i/N^2} + {i/N - delta}``,
    and undoes the normalization in the output layer.  The measured L1 error
    obeys ``2 nu N^(-2 alpha)``.
    """
    if target.d != 1:
        raise ShapeError("build_1d needs a one-dimensional target")
    if big_n < 1:
        raise ValueError("N must be a positive integer")
    policy = policy or DeltaPolicy()
    _warn_on_certificate(target)

    f0 = float(target(np.zeros((1, 1)))[0])
    alpha = target.alpha

    # the search's last candidate is the accepted one: keep it, not rebuild it
    @functools.lru_cache(maxsize=1)
    def build(delta: float):
        xs = _grid_1d(big_n * big_n, big_n, delta)
        ys = _shifted_samples(target, xs[:, None], f0, 1.0)
        plan = Lemma2Plan(big_n, big_n, SampleSet(xs, ys, big_n, big_n))
        net, _ = lemma2_interpolant(plan)
        return xs, ys, net

    def h0_error(delta: float) -> float:
        """Upper bound of the don't-care L1 contribution, on the lifted scale.

        Per sliver: Hoelder oscillation around the secant (2 w^alpha * w)
        plus the exact integral of |interpolant - secant|.  Sliver ends are
        first-layer kinks, so each sliver compiles on its own.
        """
        xs, ys, net = build(delta)
        total = 0.0
        for j in range(1, big_n + 1):
            i = j * (big_n + 1)
            lo, hi = xs[i - 1], xs[i]
            w = hi - lo
            phi = net_to_cpl_exact(net, lo, hi)
            secant = CplFunction(np.array([lo, hi]), np.array([ys[i - 1], ys[i]]))
            total += 2.0 * w ** alpha * w + exact_l1_cpl(phi, secant, lo, hi)
        return total

    denom_log = math.log(big_n) + np.logaddexp(
        math.log(2.0), math.log(6.0) + math.lgamma(big_n + 2)
    )
    ctx = DeltaContext(
        min_gap=1.0 / (big_n * big_n),
        budget=float(big_n) ** (-2.0 * alpha),
        denom_log=float(denom_log),
        h_error=h0_error,
    )
    choice = choose_delta(policy, ctx)
    xs, _, net = build(choice.delta)
    final = affine_post(net, target.nu, f0 - target.nu)
    bound = 2.0 * target.nu * float(big_n) ** (-2.0 * alpha)
    return Construction(final, choice, bound, grid=xs, n=big_n * big_n, n_prime=big_n)


def theorem_d1(target: HolderTarget, big_n: int, policy: DeltaPolicy | None = None) -> ReluNetwork:
    """The d=1 approximant network (see :func:`build_1d` for the full record)."""
    return build_1d(target, big_n, policy).net


# ---------------------------------------------------------------------------
# Theorem constructions, d > 1


def psi0(n: int, delta: float) -> ReluNetwork:
    """Width-2n staircase network: value ``i`` on ``[i/n, (i+1)/n - delta]``.

    Break points are ``{i/n} + {i/n - delta}``; each width-delta sliver ramps
    to the next step, and the value at 1 is ``n - 1``.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not 0 < delta < 0.5 / n:
        raise ValueError("delta must lie in (0, 1/(2n))")
    steps = np.arange(n + 1) / n
    ramps = np.arange(1, n + 1) / n - delta
    xs = np.sort(np.concatenate((steps, ramps)))
    # plateau i covers [i/n, (i+1)/n - delta]; the top plateau keeps n-1
    ys = np.empty(2 * n + 1)
    ys[0::2] = np.arange(n + 1)
    ys[1::2] = np.arange(n)
    ys[-1] = n - 1
    return lemma1_interpolant(SampleSet(xs, ys))


def psi_projection(n: int, d: int, delta: float) -> ReluNetwork:
    """Cube-index encoder ``psi(x) = sum_i n^-i psi0(x_i)`` as one hidden layer.

    d shifted copies of the staircase hidden layer act on one coordinate
    each; the output row scales copy i by ``n^-i`` so the value on an
    interior cell is exactly the cell's base-n code.
    """
    p0 = psi0(n, delta)
    (w1, b1), (w2, b2) = p0.layers
    width = 2 * n
    w1_full = np.zeros((width * d, d))
    b1_full = np.tile(b1, d)
    w_out = np.zeros((1, width * d))
    b_out = 0.0
    for j in range(d):
        w1_full[j * width : (j + 1) * width, j] = w1[:, 0]
        scale = float(n) ** (-(j + 1))
        w_out[0, j * width : (j + 1) * width] = scale * w2[0]
        b_out += scale * b2[0]
    return ReluNetwork(d, ((w1_full, b1_full), (w_out, np.array([b_out]))))


def _floor_power(big_n: int, d: int) -> int:
    """Largest integer n with n^d <= N^2, evaluated in exact integer arithmetic."""
    n = max(1, int(round(big_n ** (2.0 / d))))
    while (n + 1) ** d <= big_n * big_n:
        n += 1
    while n ** d > big_n * big_n:
        n -= 1
    return n


def _ceil_sqrt_power(n: int, d: int) -> int:
    """Smallest integer k with k^2 >= n^d."""
    nd = n ** d
    k = math.isqrt(nd)
    if k * k < nd:
        k += 1
    return k


def build_dd(target: HolderTarget, big_n: int, policy: DeltaPolicy | None = None) -> Construction:
    """Three-hidden-layer approximant of a d>1 Hoelder target.

    Projects the cube onto the line with the staircase encoder, fits the
    ``n^d + 1`` cell samples (padded up to the two-hidden-layer capacity by
    subdividing the final gap), and fuses the two networks.  Hidden widths
    stay within ``[2d floor(N^(2/d)), 2N+2, 2N+3]`` and the measured L1
    error obeys ``2 (2 sqrt(d))^alpha nu N^(-2 alpha/d)``.
    """
    d = target.d
    if d < 2:
        raise ShapeError("build_dd needs a target with d >= 2")
    if big_n < 1:
        raise ValueError("N must be a positive integer")
    policy = policy or DeltaPolicy()
    _warn_on_certificate(target)

    n = _floor_power(big_n, d)
    if n < 2:
        raise DegenerateGridError(f"N={big_n} yields a single cell per axis in d={d}")
    if d > 3 or n > 16:
        raise ResolutionError(
            "cell codes would be spaced below ~2e-4: supported range is d <= 3, n <= 16"
        )
    n_prime = _ceil_sqrt_power(n, d)

    f0 = float(target(np.zeros((1, d)))[0])
    sqd = math.sqrt(d)
    alpha = target.alpha

    # cell representatives theta/n, coded as t/n^d with t the base-n digits
    nd = n ** d
    ts = np.arange(nd)
    theta = np.empty((nd, d))
    rest = ts.copy()
    for i in range(d - 1, -1, -1):
        theta[:, i] = rest % n
        rest //= n
    points = theta / n
    ys_cells = _shifted_samples(target, points, f0, sqd)
    xs_cells = ts / float(nd)

    surplus = n_prime * (n_prime + 1) + 1 - (nd + 1)
    pad_xs = 1.0 - 1.0 / nd + (np.arange(1, surplus + 1) / (surplus + 1)) / nd
    pad_ys = ys_cells[-1] * (1.0 - np.arange(1, surplus + 1) / (surplus + 1))
    xs = np.concatenate((xs_cells, pad_xs, [1.0]))
    ys = np.concatenate((ys_cells, pad_ys, [0.0]))

    plan = Lemma2Plan(n_prime, n_prime, SampleSet(xs, ys, n_prime, n_prime))
    phibar, _ = lemma2_interpolant(plan)
    sup = cpl_sup(net_to_cpl_exact(phibar, 0.0, 1.0), 0.0, 1.0)

    def h1_error(delta: float) -> float:
        # the separating region has measure <= d*n*delta and the integrand
        # is at most (lifted data bound) + sup of the line fit
        return d * n * delta * (2.0 * sqd + sup)

    denom_log = math.log(2.0 * n * d * sqd) + np.logaddexp(
        0.0, math.log(3.0) + math.lgamma(n_prime + 2)
    )
    ctx = DeltaContext(
        min_gap=1.0 / n,
        budget=d ** (0.5 * alpha) * float(n) ** (-alpha),
        denom_log=float(denom_log),
        h_error=h1_error,
    )
    choice = choose_delta(policy, ctx)

    psi = psi_projection(n, d, choice.delta)
    net = compose(phibar, psi)
    final = affine_post(net, target.nu, f0 - target.nu * sqd)
    bound = 2.0 * (2.0 * sqd) ** alpha * target.nu * float(big_n) ** (-2.0 * alpha / d)
    return Construction(final, choice, bound, grid=xs, n=n, n_prime=n_prime)


def theorem_dd(target: HolderTarget, big_n: int, policy: DeltaPolicy | None = None) -> ReluNetwork:
    """The d>1 approximant network (see :func:`build_dd` for the full record)."""
    return build_dd(target, big_n, policy).net


# ---------------------------------------------------------------------------
# CPL absorption (closure property)


def corollary32_check(g: CplFunction, m: int, n: int, epsilon: float):
    """Drive a ``[2m, 2n+1]`` network within ``epsilon`` of a CPL in L1 on [0, 1].

    Shifts g to be nonnegative, lays the interpolation grid so every break
    of g sits on a kept grid point or inside a width-delta don't-care
    sliver, fits, un-shifts, and halves delta from ``delta_cap`` down to a
    floor of 1e-12 until the exact piecewise distance to g is within
    budget.  Returns ``(network, achieved_error)``.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    interior = [float(x) for x in g.breaks if 0.0 < x < 1.0]
    q = len(interior)
    if q > m * n:
        raise ShapeError(
            f"{q + 1} pieces exceed the [2m, 2n+1] capacity of {m * n + 1} pieces"
        )

    probe_lo = np.concatenate((g.breaks, [0.0, 1.0]))
    shift = max(0.0, -float(np.min(eval_cpl(g, np.clip(probe_lo, 0.0, 1.0)))))
    # kink slots in left-to-right order: n-1 interior positions per block,
    # then the block's trailing sliver; breaks fill the earliest slots.
    # With q == mn the final sliver straddles the last break and the
    # network's linear tail carries g's final piece beyond the grid.
    slots = []
    for j in range(m):
        slots.extend(("interior", j, p) for p in range(1, n))
        slots.append(("sliver", j, None))
    assigned = {s: interior[i] for i, s in enumerate(slots[:q])}

    last = m * (n + 1)
    gaps = np.diff(np.concatenate(([0.0], interior, [1.0])))
    delta_cap = float(np.min(gaps)) / max(4, n + 2)

    policy = DeltaPolicy(floor=1e-12)

    @functools.lru_cache(maxsize=1)
    def build(delta: float):
        fixed = {0: 0.0}
        extension = False
        for (kind, j, p), beta in assigned.items():
            if kind == "interior":
                fixed[j * (n + 1) + p] = beta
            elif j < m - 1:
                fixed[j * (n + 1) + n] = beta - delta
                fixed[(j + 1) * (n + 1)] = beta
            else:
                # final sliver straddles the last break; the network's tail
                # continues g's final piece beyond the grid
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
        # narrow unassigned slivers to width delta against their right edge
        for j in range(m):
            if ("sliver", j, None) not in assigned:
                left = j * (n + 1) + n
                xs[left] = xs[left + 1] - delta
        if np.diff(xs).min() <= 0:
            raise ResolutionError("grid collision while narrowing slivers")
        ys = eval_cpl(g, xs) + shift
        plan = Lemma2Plan(m, n, SampleSet(xs, np.maximum(ys, 0.0), m, n))
        net, _ = lemma2_interpolant(plan)
        return xs, affine_post(net, 1.0, -shift)

    def measure(delta: float) -> float:
        try:
            xs, net = build(delta)
        except ResolutionError:
            if delta <= policy.floor:
                raise
            return math.inf  # a colliding width: keep shrinking
        probes = [np.linspace(0.0, 1.0, 4001)]
        for j in range(1, m + 1):
            lo, hi = xs[j * (n + 1) - 1], xs[j * (n + 1)]
            pad = hi - lo
            probes.append(np.linspace(max(0.0, lo - pad), min(1.0, hi + pad), 41))
        extracted = _extract_cpl(net, np.concatenate(probes))
        return exact_l1_cpl(extracted, g, 0.0, 1.0)

    # the search starts at a quarter of min_gap, which is exactly delta_cap
    ctx = DeltaContext(min_gap=4.0 * delta_cap, budget=epsilon, h_error=measure)
    choice = choose_delta(policy, ctx)
    return build(choice.delta)[1], choice.h_error
