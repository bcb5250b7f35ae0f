"""Two- and three-hidden-layer interpolation and approximation constructions.

Everything here emits explicit weights.  The two-hidden-layer interpolant
fits ``m*(n+1)+1`` nonnegative samples with hidden widths ``[2m, 2n+1]``,
exact at every node and linear outside m narrow "don't-care" intervals; the
Hoelder approximants build on it with a puncture width delta chosen by a
:class:`DeltaPolicy`.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cpl import (
    MIN_BREAK_GAP,
    CplFunction,
    SampleSet,
    _extract_cpl,
    _fit_one_layer_row,
    _sliver_l1,
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
    _integer,
)
from .network import ReluNetwork, _freeze, affine_post, compose

__all__ = [
    "Lemma2Plan",
    "ResidualTrace",
    "DeltaPolicy",
    "DeltaChoice",
    "HolderTarget",
    "Construction",
    "PAPER_SUFFICIENT",
    "EMPIRICAL_SHRINK",
    "lemma2_interpolant",
    "lemma2_sup_bound",
    "choose_delta",
    "build_1d",
    "psi0",
    "psi_projection",
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

# Share of a block's width that each x_{k+1} - x_{k-1} must exceed for a
# lemma-2 stage k > 0 to skip its piece's clip (see lemma2_interpolant).
LINE_MARGIN = 1e-14

# Factor between successive empirical-shrink delta candidates.
DELTA_SHRINK = 0.5


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
        i = np.arange(2 * self.m + 1)
        return (i + 1) // 2 * (self.n + 1) - i % 2


@dataclass
class ResidualTrace:
    """Stage-by-stage record of the two-hidden-layer construction.

    ``residuals[k]`` holds the stage-k residual at every grid point
    (k = 0 .. n+1) when ``lemma2_interpolant`` was asked for them, and is
    empty otherwise; row k-1 of the (n, m) mask ``plus`` marks the blocks in
    stage k's plus class.  ``lambda_plus[k-1]``/``lambda_minus[k-1]`` list
    the sign classes of stage k, built from the mask when read.  The break
    indices are the plan's :attr:`Lemma2Plan.break_indices`.
    """

    residuals: list = field(default_factory=list)
    plus: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=bool))

    @property
    def lambda_plus(self) -> list:
        return [np.flatnonzero(row) for row in self.plus]

    @property
    def lambda_minus(self) -> list:
        return [np.flatnonzero(row) for row in ~self.plus]


def lemma2_sup_bound(xs, m: int, n: int, max_y: float) -> float:
    """Sup bound of the constructed interpolant from the actual grid.

    ``3 * max_y * prod_k (1 + max_j(x_{j(n+1)+n} - x_{j(n+1)+k-1})
    / min_j(x_{j(n+1)+k} - x_{j(n+1)+k-1}))``.
    """
    blocks = np.asarray(xs, dtype=float)[: m * (n + 1)].reshape(m, n + 1)
    num = np.max(blocks[:, n:] - blocks[:, :n], axis=0)
    den = np.min(np.diff(blocks, axis=1), axis=0)
    # the factors multiply left to right in k
    return 3.0 * max_y * math.prod(1.0 + num / den)


def _lines_positive(xs, m: int, n: int) -> bool:
    """Whether every block's ``x_{k+1} - x_{k-1}`` exceeds ``LINE_MARGIN`` of its width."""
    blocks = np.asarray(xs, dtype=float)[: m * (n + 1)].reshape(m, n + 1)
    width = blocks[:, n:] - blocks[:, :1]
    return bool(np.all(blocks[:, 2:] - blocks[:, :-2] > LINE_MARGIN * width))


def lemma2_interpolant(plan: Lemma2Plan, residuals: bool = False):
    """Two-hidden-layer interpolant with widths exactly ``[2m, 2n+1]``.

    Stage 0 fits the break-point values of the sample CPL; stage k subtracts
    the activated one-hidden-layer pieces that zero the residual at the k-th
    point of every block, extrapolating the line through
    ``(x_{j(n+1)+k-1}, 0)`` and ``(x_{j(n+1)+k}, f_k(x_{j(n+1)+k}))`` to the
    block's break points.  The output row alternates signs ``[1, 1, -1, ...,
    1, -1]``.

    The stages work on the block layout: an ``(n+1, m)`` matrix whose row
    i holds point i of every block.  Block j's points all lie between its
    break points 2j and 2j+1 (rows 0 and n), so a stage's piece on block j
    is one line through its two break-point values, with ``np.interp``'s
    arithmetic, and only one of the plus and minus pieces is nonzero.
    Stage k reads row k, so it updates only rows k+1..n; with
    ``residuals=True`` it updates every row and records the whole grid.
    The last sample lies past every block; its residual is 0 after stage 0.

    Every stage subtracts its signed line, clipped per block to ``max(., 0)``
    (plus) or ``min(., -0)`` (minus): the sign times ``max(|line|, 0)`` to the
    bit.  On rows r > k a piece's pre-activation is ``s (x_r - x_{k-1}) >=
    |f_k| > RESIDUAL_SNAP``, s its slope, and its f64 value is within about
    11 ulps of s times the block width.  So when every ``x_{k+1} - x_{k-1}``
    exceeds ``LINE_MARGIN`` of its block's width (:func:`_lines_positive`,
    checked once per call) a stage k > 0 skips the no-op clip and takes three
    passes: multiply, add, and subtract the line.  Stage 0, ``residuals=True``
    and other grids clip.  Stage k leaves row k as it read it, so the sign
    classes and the pieces' break-point values are filled after the loop,
    which frees the stage buffers and fits the second layer 32 stages at a
    time: no array of the second layer's size exists but its weights.

    Returns ``(network, trace)``; the trace holds the n + 2 grid-size
    residual vectors only with ``residuals=True``.
    """
    m, n = plan.m, plan.n
    bx = plan.samples.xs[plan.break_indices]
    trace = ResidualTrace()
    second = _lemma2_stages(plan, bx, residuals, trace)
    w3 = np.ones((1, 2 * n + 1))
    w3[0, 2::2] = -1.0
    layers = ((np.ones((2 * m, 1)), -bx[:-1]), second, (w3, np.zeros(1)))
    return ReluNetwork(1, layers), trace


def _lemma2_stages(plan: Lemma2Plan, bx: np.ndarray, residuals: bool,
                   trace: ResidualTrace) -> tuple:
    """The second layer's weights and bias: row 0 fits the sample CPL at the break
    points ``bx``, rows 2k-1 and 2k stage k's plus and minus pieces.  Fills the trace."""
    m, n = plan.m, plan.n
    xs, ys = plan.samples.xs, plan.samples.ys
    snap = RESIDUAL_SNAP * max(1.0, float(np.abs(ys).max()))

    # every operand C-ordered: a transposed view makes each stage's pass strided
    xb = xs[:-1].reshape(m, n + 1).T.copy()
    t = xb - xb[0]
    f = ys[:-1].reshape(m, n + 1).T.copy()
    tail = ys[-1:].copy()
    line = np.empty_like(f)
    # for stage k, row k-1: x_k - x_{k-1}; the block ends x_{j(n+1)} and
    # x_{j(n+1)+n} (the break points 2j and 2j+1) are rows 0 and n of xb
    dx = xb[1:] - xb[:-1]

    def record():
        r = np.empty(xs.size)
        r[:-1].reshape(m, n + 1)[...] = f.T
        r[-1] = tail[0]
        trace.residuals.append(r)
        return r

    def subtract(lo: int, e0, e1, plus):
        """``f -= piece`` on rows lo..n, per block: the line through e0 (row 0) and e1
        (row n), which the node rows take unchanged as in ``np.interp``, clipped to
        ``max(., 0)`` on the blocks in ``plus`` and ``min(., -0)`` on the rest; None: no clip."""
        rows = line[lo:n]
        np.multiply((e1 - e0) / t[n], t[lo:n], out=rows)
        rows += e0
        if plus is None:
            f[lo:n] -= rows
            f[n] -= e1
            return
        line[0], line[n] = e0, e1
        rows = line[lo:]
        # not np.clip: it keeps a zero of the sign that its bound lacks
        np.maximum(rows, np.where(plus, 0.0, -np.inf), out=rows)
        np.minimum(rows, np.where(plus, np.inf, -0.0), out=rows)
        f[lo:] -= rows

    if residuals:
        record()
    subtract(0 if residuals else 1, f[0].copy(), f[n].copy(), True)
    tail -= np.maximum(tail, 0.0)
    if residuals:
        record()

    clip = residuals or not _lines_positive(xs, m, n)
    # row k-1 holds the residual that stage k reads; without residuals no
    # stage writes row k after stage k-1, so f keeps them
    vals = np.empty((n, m)) if residuals else f[1:]
    # stage n updates no row unless every row is recorded
    for k in range(1, n + 1 if residuals else n):
        v = f[k]
        if residuals:
            vals[k - 1] = v
        snapped = np.abs(v) <= snap
        # v / dx is the piece's sign times its slope |v| / dx, exactly
        s = v / dx[k - 1]
        s[snapped] = 0.0
        # ties (residual exactly zero) go to the plus class
        subtract(0 if residuals else k + 1, s * (xb[0] - xb[k - 1]),
                 s * (xb[n] - xb[k - 1]), (v >= 0) | snapped if clip else None)
        if residuals:
            # a stage is ``f - gp + gm``: its last step adds 0.0, which turns
            # a -0 into +0.  A zero's sign changes no nonzero value of a
            # later stage, so adding 0.0 to the record gives the same bits
            record()[...] += 0.0

    snapped = np.abs(vals) <= snap
    plus = trace.plus = (vals >= 0) | snapped
    # each piece's slope |v| / dx, in dx's place.  The stage buffers go before
    # the fit allocates its output; the last v, if any, is a view of f
    slope = np.divide(np.abs(vals), dx, out=dx)
    t = line = f = v = vals = None
    weights, bias = np.empty((2 * n + 1, 2 * m)), np.empty(2 * n + 1)
    weights[0], bias[0] = _fit_one_layer_row(bx, ys[plan.break_indices])
    # 32 stages, 64 rows, at a time: the pieces' break-point values exist only
    # for the block being fitted.  g_break[i, 0] and [i, 1] are stage lo+i+1's
    # plus and minus pieces, each with its (m, 2) block ends and a 0 last
    for lo in range(0, n, 32):
        k = slice(lo, min(lo + 32, n))
        g_break = np.zeros((k.stop - lo, 2, 2 * m + 1))
        pieces = g_break[..., :-1].reshape(-1, 2, m, 2)
        for side, end in enumerate((xb[0], xb[n])):
            ends = slope[k] * (end - xb[k])
            # a snapped stage's pieces are both 0
            np.copyto(pieces[:, 0, :, side], ends, where=plus[k] & ~snapped[k])
            np.copyto(pieces[:, 1, :, side], ends, where=~plus[k])
        rows = slice(1 + 2 * lo, 1 + 2 * k.stop)
        weights[rows], bias[rows] = _fit_one_layer_row(bx, g_break.reshape(-1, 2 * m + 1))
    return _freeze(weights), _freeze(bias)


# ---------------------------------------------------------------------------
# don't-care width policy


@dataclass(frozen=True)
class DeltaPolicy:
    """How to pick the don't-care width delta.

    ``paper-sufficient`` evaluates the closed-form sufficient condition in
    log space (its factorial makes the exact value underflow f64 for N of a
    dozen or more; the result is then clamped at ``floor`` and flagged).
    ``empirical-shrink`` starts at ``DELTA_SHRINK * (half the minimum grid
    gap)`` and keeps multiplying by ``DELTA_SHRINK`` until the measured
    don't-care contribution fits the budget or delta reaches ``floor``.
    ``target``, when given, replaces the budget.  ``build_1d`` measures each
    of its N slivers with a rounding error of up to about 5e-17 absolute, so
    a target below about ``N * 1e-16`` lies under that error and can accept
    a delta on noise.
    """

    mode: str = EMPIRICAL_SHRINK
    target: float | None = None
    floor: float = 1e-12

    def __post_init__(self):
        if self.mode not in (PAPER_SUFFICIENT, EMPIRICAL_SHRINK):
            raise ValueError(f"unknown delta mode: {self.mode!r}")
        if not MIN_BREAK_GAP < self.floor < math.inf:
            raise ValueError(f"floor must lie in ({MIN_BREAK_GAP:g}, inf), got {self.floor!r}")
        if self.target is not None and not 0 < self.target < math.inf:
            raise ValueError(f"target must be None or lie in (0, inf), got {self.target!r}")


@dataclass
class DeltaChoice:
    """Outcome of :func:`choose_delta`."""

    delta: float
    clamped: bool = False
    iterations: int = 0
    h_error: float | None = None


def choose_delta(policy: DeltaPolicy, *, min_gap: float, budget: float,
                 denom_log: float | None = None,
                 h_error: Callable[[float], float] | None = None) -> DeltaChoice:
    """Pick the puncture width under the given policy.

    ``min_gap`` is the smallest gap of the grid the delta punctures,
    ``budget`` the right side of the delta inequality, ``denom_log`` the log
    of the closed-form multiplier (paper mode), and ``h_error`` a callable
    measuring the don't-care L1 contribution at a candidate delta
    (empirical mode).  The returned delta is always strictly below half
    ``min_gap``.  In empirical mode a floor hit without meeting the budget
    raises :class:`ConstructionInfeasibleError` carrying the measured error.
    A NaN ``denom_log`` or measured error raises ``ValueError``.
    """
    if not 0 < min_gap < math.inf:
        raise ValueError(f"min_gap must be positive and finite, got {min_gap!r}")
    half_gap = 0.5 * min_gap
    cap = half_gap * (1.0 - 1e-9)
    if policy.target is not None:
        budget = policy.target
    if not 0 < budget < math.inf:
        raise ValueError(f"budget must be positive and finite, got {budget!r}")

    if policy.mode == PAPER_SUFFICIENT:
        if denom_log is None or math.isnan(denom_log):
            raise ValueError(f"paper-sufficient mode needs the closed-form denominator, "
                             f"got {denom_log!r}")
        log_delta = math.log(budget) - denom_log
        if log_delta < math.log(policy.floor):
            warnings.warn(
                "paper-sufficient delta underflows the floor; clamping "
                "(the sufficient condition is unattainable at f64 for this size)",
                RuntimeWarning,
                stacklevel=2,
            )
            return DeltaChoice(delta=min(policy.floor, cap), clamped=True)
        return DeltaChoice(delta=min(math.exp(log_delta), cap), clamped=False)

    if h_error is None:
        raise ValueError("empirical-shrink mode needs an h_error measurement")
    delta = DELTA_SHRINK * half_gap
    for it in itertools.count(1):
        err = h_error(delta)
        if math.isnan(err):
            raise ValueError(f"h_error returned NaN at delta {delta!r}")
        if err <= budget:
            return DeltaChoice(delta=delta, iterations=it, h_error=err)
        if delta <= policy.floor:
            raise ConstructionInfeasibleError(
                f"measured error {err:.3e} still exceeds budget {budget:.3e} "
                f"at the floor width {delta:.3e}",
                achieved=err,
                delta=delta,
            )
        delta = max(delta * DELTA_SHRINK, policy.floor)


# ---------------------------------------------------------------------------
# Hoelder targets


@dataclass(frozen=True)
class HolderTarget:
    """A target function with its (alpha, nu) smoothness certificate.

    ``f`` maps an (k, d) array of points in the unit cube to a (k,) array of
    values; a call raises :class:`ShapeError` on any other shape.  The
    certificate is caller-supplied and only spot-checked; it is frozen, so
    the bound a construction reports is the one it was built for.
    """

    f: Callable[[np.ndarray], np.ndarray]
    d: int
    alpha: float
    nu: float

    def __post_init__(self):
        object.__setattr__(self, "d", _integer(self.d, "d", ShapeError))
        if not 0 < self.alpha <= 1:
            raise CertificateError("alpha must lie in (0, 1]")
        if not 0 < self.nu < np.inf:
            raise CertificateError("nu must be positive and finite")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return _target_values(self.f, np.asarray(points, dtype=float))

    @functools.cached_property
    def _spot_ratio(self) -> float:
        # the fields are frozen: one spot check serves every build of this target
        return spot_check_holder(self)


def _target_values(f, points: np.ndarray) -> np.ndarray:
    """``f(points)`` as floats, refused unless the ``(k, d)`` points give ``(k,)`` values."""
    fv = np.asarray(f(points), dtype=float)
    if fv.shape != (len(points),):
        raise ShapeError("target must map (k, d) points to (k,) values")
    return fv


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
    ratio = target._spot_ratio
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
# Punctured grids: the layout and the lemma-2 fit of every construction


def _closure_grid(interior: np.ndarray, m: int, n: int, delta: float) -> np.ndarray:
    """The ``m(n+1) + 1`` abscissae of every punctured fit, for the given interior breaks.

    The theorem grid has the breaks ``arange(1, N^2) / N^2`` and m = n = N,
    the staircase ``arange(1, n) / n`` in n blocks of one slot, the closure
    check the interior breaks of g.  Breaks fill kink slots from left to
    right: break k sits at grid position ``(k // n)(n+1) + k % n + 1``, and
    slot ``n - 1`` of each block is the block's trailing width-delta sliver.
    A sliver ends at its break, except the last block's, which starts at it:
    then the network's linear tail carries g's final piece beyond the grid.
    The known positions form a prefix; the rest are spread evenly up to
    ``1 - delta``, and every sliver without a break gets width delta against
    its right end.
    """
    last, q = m * (n + 1), len(interior)
    k = np.arange(q)
    pos = k // n * (n + 1) + k % n + 1
    xs = np.zeros(last + 1)
    xs[pos] = interior
    slivers = pos[k % n == n - 1]
    xs[slivers + 1] = xs[slivers]
    if q == m * n:
        xs[last] += delta
        slivers = slivers[:-1]
    xs[slivers] -= delta
    if q < m * n:
        # the prefix ends at the last break, or one past it when it ends a sliver
        a = pos[-1] + int(q % n == 0) if q else 0
        b = last - 1
        xs[b:] = 1.0 - delta, 1.0
        xs[a + 1 : b] = xs[a] + (xs[b] - xs[a]) * np.arange(1, b - a) / (b - a)
        left = (n + 1) * np.arange(q // n, m) + n
        xs[left] = xs[left + 1] - delta
    if np.diff(xs).min() <= 0:
        raise ResolutionError("grid collision while narrowing slivers")
    return xs


def _sliver_fit(sample, interior, m: int, n: int):
    """Lemma 2 fitted to ``sample(xs) >= 0`` on the :func:`_closure_grid` abscissae.

    Returns ``build(delta) -> (xs, ys, net)``; it keeps the accepted delta's fit.
    """

    @functools.lru_cache(maxsize=1)
    def build(delta: float):
        xs = _freeze(_closure_grid(interior, m, n, delta))
        ys = _freeze(sample(xs))
        net, _ = lemma2_interpolant(Lemma2Plan(m, n, SampleSet(xs, ys, m, n)))
        return xs, ys, net

    return build


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


def build_1d(target: HolderTarget, big_n: int, policy: DeltaPolicy | None = None) -> Construction:
    """Hidden-width ``[2N, 2N+1]`` approximant of a 1-D Hoelder target.

    Normalizes to unit constant and zero value at 0, lifts by +1, fits the
    ``N(N+1)+1`` samples on the punctured grid ``{i/N^2} + {i/N - delta}``,
    and undoes the normalization in the output layer.  The measured L1 error
    obeys ``2 nu N^(-2 alpha)``.
    """
    if target.d != 1:
        raise ShapeError("build_1d needs a one-dimensional target")
    big_n = _integer(big_n, "N")
    policy = policy or DeltaPolicy()
    _warn_on_certificate(target)

    f0 = float(target(np.zeros((1, 1)))[0])
    alpha = target.alpha
    n_cap = big_n * big_n
    build = _sliver_fit(lambda xs: _shifted_samples(target, xs[:, None], f0, 1.0),
                        np.arange(1, n_cap) / n_cap, big_n, big_n)

    sliver = (big_n + 1) * np.arange(1, big_n + 1)

    def h0_error(delta: float) -> float:
        """Upper bound of the don't-care L1 contribution, on the lifted scale.

        Per sliver: Hoelder oscillation around the secant (2 w^alpha * w)
        plus the exact integral of |interpolant - secant|.  Sliver ends are
        first-layer kinks, so all N slivers are measured in one batched pass
        over their second-layer crossings, with no compile per sliver.
        """
        xs, ys, net = build(delta)
        lo, hi = xs[sliver - 1], xs[sliver]
        w = hi - lo
        measured = _sliver_l1(net, lo, hi, ys[sliver - 1], ys[sliver])
        return float(np.sum(2.0 * w ** alpha * w + measured))

    denom_log = math.log(big_n) + np.logaddexp(
        math.log(2.0), math.log(6.0) + math.lgamma(big_n + 2)
    )
    choice = choose_delta(
        policy,
        min_gap=1.0 / n_cap,
        budget=float(big_n) ** (-2.0 * alpha),
        denom_log=float(denom_log),
        h_error=h0_error,
    )
    xs, _, net = build(choice.delta)
    final = affine_post(net, target.nu, f0 - target.nu)
    bound = 2.0 * target.nu * float(big_n) ** (-2.0 * alpha)
    return Construction(final, choice, bound, grid=xs, n=n_cap, n_prime=big_n)


# ---------------------------------------------------------------------------
# Theorem constructions, d > 1


def psi0(n: int, delta: float) -> ReluNetwork:
    """Width-2n staircase network: value ``i`` on ``[i/n, (i+1)/n - delta]``.

    Break points are ``{i/n} + {i/n - delta}``; each width-delta sliver ramps
    to the next step, and the value at 1 is ``n - 1``.
    """
    n = _integer(n, "n")
    if not 0 < delta < 0.5 / n:
        raise ValueError("delta must lie in (0, 1/(2n))")
    xs = _freeze(_closure_grid(np.arange(1, n) / n, n, 1, delta))
    # plateau i covers [i/n, (i+1)/n - delta]; the top plateau keeps n-1
    ys = np.empty(2 * n + 1)
    ys[0::2] = np.arange(n + 1)
    ys[1::2] = np.arange(n)
    ys[-1] = n - 1
    return lemma1_interpolant(SampleSet(xs, _freeze(ys)))


def psi_projection(n: int, d: int, delta: float) -> ReluNetwork:
    """Cube-index encoder ``psi(x) = sum_i n^-i psi0(x_i)`` as one hidden layer.

    d shifted copies of the staircase hidden layer act on one coordinate
    each; the output row scales copy i by ``n^-i`` so the value on an
    interior cell is exactly the cell's base-n code.
    """
    d = _integer(d, "d", ShapeError)
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
    big_n = _integer(big_n, "N")
    policy = policy or DeltaPolicy()
    _warn_on_certificate(target)

    n = _floor_power(big_n, d)
    if n < 2:
        raise DegenerateGridError(f"N={big_n} yields a single cell per axis in d={d}")
    if d > 3 or n > 16:
        raise ResolutionError(
            "cell codes would be spaced below ~2e-4: supported range is d <= 3, n <= 16"
        )
    n_prime = math.isqrt(n ** d - 1) + 1  # the smallest k with k^2 >= n^d

    f0 = float(target(np.zeros((1, d)))[0])
    sqd = math.sqrt(d)
    alpha = target.alpha

    # cell representatives theta/n in C order, coded as t/n^d with t the base-n digits
    nd = n ** d
    points = np.indices((n,) * d).reshape(d, -1).T / n
    ys_cells = _shifted_samples(target, points, f0, sqd)
    xs_cells = np.arange(nd) / float(nd)

    surplus = n_prime * (n_prime + 1) + 1 - (nd + 1)
    pad_xs = 1.0 - 1.0 / nd + (np.arange(1, surplus + 1) / (surplus + 1)) / nd
    pad_ys = ys_cells[-1] * (1.0 - np.arange(1, surplus + 1) / (surplus + 1))
    xs = _freeze(np.concatenate((xs_cells, pad_xs, [1.0])))
    ys = _freeze(np.concatenate((ys_cells, pad_ys, [0.0])))

    plan = Lemma2Plan(n_prime, n_prime, SampleSet(xs, ys, n_prime, n_prime))
    phibar, _ = lemma2_interpolant(plan)
    # compiled at the first measurement: paper mode takes none
    sup = functools.cache(lambda: cpl_sup(net_to_cpl_exact(phibar, 0.0, 1.0), 0.0, 1.0))

    def h1_error(delta: float) -> float:
        # the separating region has measure <= d*n*delta and the integrand
        # is at most (lifted data bound) + sup of the line fit
        return d * n * delta * (2.0 * sqd + sup())

    denom_log = math.log(2.0 * n * d * sqd) + np.logaddexp(
        0.0, math.log(3.0) + math.lgamma(n_prime + 2)
    )
    choice = choose_delta(
        policy,
        min_gap=1.0 / n,
        budget=d ** (0.5 * alpha) * float(n) ** (-alpha),
        denom_log=float(denom_log),
        h_error=h1_error,
    )

    psi = psi_projection(n, d, choice.delta)
    net = compose(phibar, psi)
    final = affine_post(net, target.nu, f0 - target.nu * sqd)
    bound = 2.0 * (2.0 * sqd) ** alpha * target.nu * float(big_n) ** (-2.0 * alpha / d)
    return Construction(final, choice, bound, grid=xs, n=n, n_prime=n_prime)


# ---------------------------------------------------------------------------
# CPL absorption (closure property)


def corollary32_check(g: CplFunction, m: int, n: int, epsilon: float):
    """Drive a ``[2m, 2n+1]`` network within ``epsilon`` of a CPL in L1 on [0, 1].

    Shifts g to be nonnegative, lays the interpolation grid with
    :func:`_closure_grid` so every break of g sits on a kept grid point or
    at one end of a width-delta don't-care sliver, fits, un-shifts, and
    halves delta from ``delta_cap`` down to a floor of 1e-12 until the
    distance to g is within budget.  That distance is exact between g and a
    CPL probed from the network (4001 equispaced points plus 41 per sliver),
    not between g and the network itself.  Returns ``(network,
    achieved_error)``.
    """
    m, n = _integer(m, "m"), _integer(n, "n")
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must lie in (0, inf), got {epsilon!r}")
    interior = g.breaks[(g.breaks > 0.0) & (g.breaks < 1.0)]
    q = len(interior)
    if q > m * n:
        raise ShapeError(
            f"{q + 1} pieces exceed the [2m, 2n+1] capacity of {m * n + 1} pieces"
        )

    probe_lo = np.concatenate((g.breaks, [0.0, 1.0]))
    shift = max(0.0, -float(np.min(eval_cpl(g, np.clip(probe_lo, 0.0, 1.0)))))
    gaps = np.diff(np.concatenate(([0.0], interior, [1.0])))
    delta_cap = float(np.min(gaps)) / max(4, n + 2)

    policy = DeltaPolicy()
    build = _sliver_fit(lambda xs: np.maximum(eval_cpl(g, xs) + shift, 0.0), interior, m, n)

    def measure(delta: float) -> float:
        try:
            xs, _, net = build(delta)
        except ResolutionError:
            if delta <= policy.floor:
                raise
            return math.inf  # a colliding width: keep shrinking
        probes = [np.linspace(0.0, 1.0, 4001)]
        for j in range(1, m + 1):
            lo, hi = xs[j * (n + 1) - 1], xs[j * (n + 1)]
            pad = hi - lo
            probes.append(np.linspace(max(0.0, lo - pad), min(1.0, hi + pad), 41))
        extracted = _extract_cpl(affine_post(net, 1.0, -shift), np.concatenate(probes))
        return exact_l1_cpl(extracted, g, 0.0, 1.0)

    # the search starts at a quarter of min_gap, which is exactly delta_cap
    choice = choose_delta(policy, min_gap=4.0 * delta_cap, budget=epsilon, h_error=measure)
    return affine_post(build(choice.delta)[2], 1.0, -shift), choice.h_error
