"""Continuous piecewise-linear functions on an interval.

Holds the CPL value type, its one-hidden-layer ReLU realization (all-ones
first layer, biases at the break points, output weights from secant-slope
differences), exact piecewise L1 integration used as a test oracle, and two
ways to recover a CPL view of a 1-D network: black-box probing with slope
detection, and exact layer-by-layer propagation, whose refinement of every
unit onto the growing break mesh reproduces ``np.interp`` bit for bit
(``_Mesh``, used by that compile alone: the two-hidden-layer interpolant
evaluates its stages on its own block layout).  The compile takes the last
hidden layer ``COMPILE_BLOCK`` new breaks at a time, straight into the
output values, so its memory is O(breaks + units x COMPILE_BLOCK) rather
than units x breaks.  A third path measures
without a CPL view: ``_sliver_l1`` integrates a two-hidden-layer network
against a secant on many intervals free of first-layer kinks at once, from
the second-layer zero crossings; it is tested against the exact compile of
each interval.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ShapeError, _integer
from .network import ReluNetwork, evaluate_batch

__all__ = [
    "MIN_BREAK_GAP",
    "CplFunction",
    "SampleSet",
    "eval_cpl",
    "lemma1_interpolant",
    "exact_l1_cpl",
    "cpl_from_net_1d",
    "net_to_cpl_exact",
    "cpl_sup",
    "cpl_to_json",
    "cpl_from_json",
]

# CplFunction and SampleSet reject break points this close.  A compile or a
# merge that produces closer ones on [a, b] thins them with _thin_breaks at
# this gap times max(1, |a|, |b|): both ends stay, and an interior point stays
# only when it lies more than the gap beyond the last point kept and before b.
MIN_BREAK_GAP = 1e-13

# relative slope change between adjacent probe segments that flags a kink
SLOPE_TOL = 1e-6

# new breaks per block of net_to_cpl_exact's last hidden layer (the last block
# takes the remainder): a few (units x block) arrays, 2-4 MiB each at N = 256,
# where 512 compiled faster than 128, 1024 or 4096 on a 2-core Xeon.  BLAS
# takes a product's columns in groups and the leftover ones by another
# kernel, so a multiple of 16, and no narrower block, rounds every column as
# the whole product does (tested bit for bit at one BLAS thread).
COMPILE_BLOCK = 512

# intervals per pass of _sliver_l1: at N = 256 a pass holds a few
# (2N+1) x SLIVER_BLOCK arrays, under the lemma-2 fit's own working set
SLIVER_BLOCK = 64


def _check_increasing(xs, what):
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size < 2:
        raise ShapeError(f"{what} needs at least two points")
    if not np.isfinite(xs).all():
        raise ShapeError(f"{what} must be finite")
    if np.diff(xs).min() <= MIN_BREAK_GAP:
        raise ShapeError(f"{what} must be strictly increasing with gaps > {MIN_BREAK_GAP}")
    return xs


@dataclass(frozen=True)
class CplFunction:
    """Break points and values of a continuous piecewise-linear function.

    Evaluation outside ``[breaks[0], breaks[-1]]`` extends the end segments
    linearly.
    """

    breaks: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        breaks = _check_increasing(self.breaks, "breaks")
        values = np.asarray(self.values, dtype=float)
        if values.shape != breaks.shape:
            raise ShapeError("breaks and values must have equal length")
        if not np.isfinite(values).all():
            raise ShapeError("values must be finite")
        breaks.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "values", values)

    def __call__(self, x):
        return eval_cpl(self, x)


@dataclass(frozen=True)
class SampleSet:
    """Ordered interpolation samples, optionally carrying a (m, n) plan shape.

    With the shape present the count must be ``m*(n+1) + 1`` and all values
    must be nonnegative, matching the two-hidden-layer construction's
    preconditions.
    """

    xs: np.ndarray
    ys: np.ndarray
    m: int | None = None
    n: int | None = None

    def __post_init__(self):
        xs = _check_increasing(self.xs, "sample abscissae")
        ys = np.asarray(self.ys, dtype=float)
        if ys.shape != xs.shape:
            raise ShapeError("sample xs and ys must have equal length")
        if not np.isfinite(ys).all():
            raise ShapeError("sample values must be finite")
        if (self.m is None) != (self.n is None):
            raise ShapeError("m and n must be given together")
        if self.m is not None:
            for name in ("m", "n"):
                object.__setattr__(self, name, _integer(getattr(self, name), name, ShapeError))
            expected = self.m * (self.n + 1) + 1
            if xs.size != expected:
                raise ShapeError(
                    f"plan shape (m={self.m}, n={self.n}) needs {expected} samples, got {xs.size}"
                )
            if ys.min() < 0:
                raise ShapeError("plan-shaped samples must have nonnegative values")
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)


def eval_cpl(f: CplFunction, x):
    """Evaluate with linear interpolation inside and end-segment extrapolation outside."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xv = np.atleast_1d(x)
    y = np.interp(xv, f.breaks, f.values)
    b, v = f.breaks, f.values
    left = xv < b[0]
    if left.any():
        s = (v[1] - v[0]) / (b[1] - b[0])
        y[left] = v[0] + s * (xv[left] - b[0])
    right = xv > b[-1]
    if right.any():
        s = (v[-1] - v[-2]) / (b[-1] - b[-2])
        y[right] = v[-1] + s * (xv[right] - b[-1])
    return float(y[0]) if scalar else y


def _fit_one_layer_row(xs: np.ndarray, ys: np.ndarray):
    """Output weights and bias realizing the CPL through ``(xs, ys)``.

    With hidden units ``relu(x - xs[j])`` for ``j < len(xs)-1``, the function
    ``bias + sum_j a_j relu(x - xs[j])`` passes through every node and is
    linear on every segment when ``a_0`` is the first secant slope and each
    later ``a_j`` is the slope difference across node ``j``.  Works along
    the last axis of ``ys``: each row of values gets its own weights and bias.
    """
    slopes = np.diff(ys, axis=-1) / np.diff(xs)
    weights = np.concatenate((slopes[..., :1], np.diff(slopes, axis=-1)), axis=-1)
    return weights, ys[..., 0]


def lemma1_interpolant(samples: SampleSet) -> ReluNetwork:
    """One-hidden-layer network through all samples, linear on each segment.

    For ``k`` samples the hidden width is exactly ``k - 1``: the first layer
    is an all-ones column with biases at the negated break points, and the
    output row fits the sample values.
    """
    xs, ys = samples.xs, samples.ys
    n_hidden = xs.size - 1
    w1 = np.ones((n_hidden, 1))
    b1 = -xs[:-1]
    return ReluNetwork(1, ((w1, b1), _fit_one_layer_row(xs, ys[None, :])))


def _thin_breaks(pts: np.ndarray) -> np.ndarray:
    """The sorted distinct ``pts`` from ``a = pts[0]`` to ``b = pts[-1]``, thinned.

    Keeps ``a`` and ``b``.  An interior point is kept when it lies more than
    the gap ``MIN_BREAK_GAP * max(1, |a|, |b|)`` beyond the last kept point
    and more than the gap before ``b``.  So no two kept points are within the
    gap, and every dropped one is within the gap of a kept one.
    """
    a, b = pts[0], pts[-1]
    gap = MIN_BREAK_GAP * max(1.0, abs(a), abs(b))
    keep = np.concatenate(([True], np.diff(pts) > gap))
    # a point farther than the gap from its predecessor is kept whatever
    # happened before it; only the points of a close run need the walk
    last = a
    for i in np.flatnonzero(~keep):
        if keep[i - 1]:
            last = pts[i - 1]
        if pts[i] - last > gap:
            keep[i], last = True, pts[i]
    keep &= b - pts > gap
    keep[[0, -1]] = True
    return pts[keep]


def _merged_breaks(f: CplFunction, g: CplFunction, a: float, b: float):
    pts = np.unique(np.concatenate(([a, b], f.breaks, g.breaks)))
    return _thin_breaks(pts[(pts >= a) & (pts <= b)])


def exact_l1_cpl(f: CplFunction, g: CplFunction, a: float, b: float) -> float:
    """Exact ``integral_a^b |f - g|`` for two CPL functions.

    Merges both break sets, locates the sign crossing of the (linear)
    difference on each merged segment, and integrates the triangles and
    trapezoids in closed form.
    """
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    pts = _merged_breaks(f, g, float(a), float(b))
    h = eval_cpl(f, pts) - eval_cpl(g, pts)
    h0, h1 = h[:-1], h[1:]
    widths = np.diff(pts)
    same = h0 * h1 >= 0
    total = np.sum(np.where(same, 0.5 * (np.abs(h0) + np.abs(h1)) * widths, 0.0))
    cross = ~same
    if cross.any():
        hc0, hc1, wc = h0[cross], h1[cross], widths[cross]
        t = hc0 / (hc0 - hc1)  # crossing position as a fraction of the segment
        total += np.sum(0.5 * wc * (np.abs(hc0) * t + np.abs(hc1) * (1.0 - t)))
    return float(total)


def _extract_cpl(net: ReluNetwork, probes: np.ndarray) -> CplFunction:
    """Slope-change detection over an explicit probe set.

    Each maximal run of flagged probe segments is resolved by intersecting
    the pure line left of the run with the pure line right of it, which
    pins the kink to machine precision when the probe spacing keeps one
    kink per run.
    """
    probes = np.unique(np.asarray(probes, dtype=float))
    # merged probe sets can carry near-coincident points whose secants are
    # pure rounding noise; keep the first of any such cluster
    span = probes[-1] - probes[0]
    keep = np.concatenate(([True], np.diff(probes) > 1e-12 * max(1.0, span)))
    probes = probes[keep]
    ys = evaluate_batch(net, probes)
    dx = np.diff(probes)
    slopes = np.diff(ys) / dx
    scale = np.maximum(np.maximum(np.abs(slopes[:-1]), np.abs(slopes[1:])), 1.0)
    flagged = np.abs(np.diff(slopes)) > SLOPE_TOL * scale

    kinks = []
    idx = np.nonzero(flagged)[0]
    runs = np.split(idx, np.nonzero(np.diff(idx) > 1)[0] + 1) if idx.size else []
    for run in runs:
        a_i, b_i = run[0], run[-1]
        sl, sr = slopes[a_i], slopes[b_i + 1]
        separated = abs(sl - sr) > SLOPE_TOL * max(abs(sl), abs(sr), 1.0)
        if b_i - a_i <= 1 and separated:
            # one kink in the run: intersect the pure lines on either side
            xa, ya = probes[a_i], ys[a_i]
            xb, yb = probes[b_i + 2], ys[b_i + 2]
            x_star = (yb - sr * xb - ya + sl * xa) / (sl - sr)
            kinks.append(min(max(x_star, probes[a_i]), probes[b_i + 2]))
        else:
            # several kinks (e.g. a spike returning to the same slope):
            # keep the run's probe points, trading exactness for robustness
            kinks.extend(probes[a_i + 1 : b_i + 2])

    a, b = probes[0], probes[-1]
    if kinks:
        kinks = np.unique(np.asarray(kinks))
        gap = MIN_BREAK_GAP * max(1.0, abs(a), abs(b)) * 10
        keep = [kinks[0]] if kinks[0] > a + gap else []
        for k in kinks[1:]:
            if (not keep or k - keep[-1] > gap) and k < b - gap:
                keep.append(k)
        breaks = np.concatenate(([a], keep, [b])) if keep else np.array([a, b])
    else:
        breaks = np.array([a, b])
    return CplFunction(breaks, evaluate_batch(net, breaks))


def cpl_from_net_1d(net: ReluNetwork, a: float, b: float, probe_count: int = 2001) -> CplFunction:
    """Approximate CPL view of a 1-D network by dense probing.

    Brute-force oracle used by tests to check linearity claims: a relative
    slope change above 1e-6 between adjacent probe segments flags a break,
    placed where the pure lines on either side of its flagged run intersect
    (see :func:`_extract_cpl`).  Features narrower than the probe spacing
    can be missed; choose ``probe_count`` accordingly.
    """
    if net.input_dim != 1:
        raise ShapeError("cpl_from_net_1d needs a 1-D network")
    probe_count = _integer(probe_count, "probe_count")
    if probe_count < 3:
        raise ValueError("probe_count must be at least 3")
    return _extract_cpl(net, np.linspace(a, b, probe_count))


class _Mesh:
    """Where each point of a nondecreasing ``x`` lies among the increasing nodes ``xp``.

    Found once; calling the mesh with values ``fp`` of shape
    ``(..., len(xp))`` then interpolates every row at ``x`` with
    ``np.interp``'s arithmetic, bit for bit: ``slope[j] * (x - xp[j]) +
    fp[j]`` inside segment ``j``, with ``slope = diff(fp) / diff(xp)``; the
    node value itself at a node; ``fp[0]`` left of ``xp[0]`` and ``fp[-1]``
    at or right of ``xp[-1]``.  Values must be finite.  The result is
    C-ordered: a matrix product with an F-ordered operand takes another BLAS
    path and rounds differently.
    """

    def __init__(self, x: np.ndarray, xp: np.ndarray):
        self.dxp = np.diff(xp)
        pos = np.searchsorted(xp, x, side="right") - 1
        seg = np.clip(pos, 0, xp.size - 2)
        self.t = x - xp[seg]
        # x is nondecreasing, so gathering per segment is a repeat
        self.counts = np.bincount(seg, minlength=self.dxp.size)
        # points that take a node value unchanged: outside the mesh, at its
        # right end, or on a node
        node = np.clip(pos, 0, xp.size - 1)
        self.exact = np.nonzero((pos < 0) | (pos == xp.size - 1) | (x == xp[node]))[0]
        self.node = node[self.exact]

    def __call__(self, fp: np.ndarray) -> np.ndarray:
        out = np.repeat(np.diff(fp, axis=-1) / self.dxp, self.counts, axis=-1)
        out *= self.t
        out += np.repeat(fp[..., :-1], self.counts, axis=-1)
        out[..., self.exact] = np.take(fp, self.node, axis=-1)
        return out


def net_to_cpl_exact(net: ReluNetwork, a: float, b: float) -> CplFunction:
    """Exact CPL representation of a 1-D network on ``[a, b]``.

    Propagates break points layer by layer: affine maps keep the mesh, each
    activation inserts the zero crossings of every unit before clamping.
    Exact up to f64 interpolation arithmetic, unlike the probing oracle.  The
    refinement onto the new mesh reproduces ``np.interp`` of every unit row
    bit for bit.  The last hidden layer is never held at all its new breaks:
    they go ``COMPILE_BLOCK`` at a time, each block refined on only the old
    segments it spans (the same bits as the whole mesh), clamped, and reduced
    through the output layer into the values.  So that layer takes
    O(breaks + units x COMPILE_BLOCK) memory, not units x breaks: 15 MiB
    traced, not 1,039 MiB, for the 131,043 breaks of ``build_1d`` at N = 256.
    """
    if net.input_dim != 1:
        raise ShapeError("net_to_cpl_exact needs a 1-D network")
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    breaks = np.array([float(a), float(b)])
    vals = breaks[None, :]  # one "unit": the identity
    *hidden, (w_out, b_out) = net.layers
    if not hidden:
        return CplFunction(breaks, (w_out @ vals + b_out[:, None])[0])
    for w, bias in hidden[:-1]:
        vals = w @ vals + bias[:, None]
        new_breaks = _with_crossings(breaks, vals)
        if new_breaks is not breaks:
            vals = _Mesh(new_breaks, breaks)(vals)
        vals = np.maximum(vals, 0.0)
        breaks = new_breaks
    w, bias = hidden[-1]
    vals = w @ vals + bias[:, None]
    new_breaks = _with_crossings(breaks, vals)
    out = np.empty(new_breaks.size)
    edges = [*range(0, max(out.size - COMPILE_BLOCK, 1), COMPILE_BLOCK), out.size]
    for lo, hi in zip(edges, edges[1:]):
        x = new_breaks[lo:hi]
        j0, j1 = np.clip(np.searchsorted(breaks, x[[0, -1]], side="right") - 1,
                         0, breaks.size - 2)
        h = _Mesh(x, breaks[j0:j1 + 2])(vals[:, j0:j1 + 2])
        np.maximum(h, 0.0, out=h)
        out[lo:hi] = (w_out @ h + b_out[:, None])[0]
    return CplFunction(new_breaks, out)


def _with_crossings(breaks: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """``breaks`` plus the zero crossings of every row of ``vals``, thinned; ``breaks`` if none."""
    v0, v1 = vals[:, :-1], vals[:, 1:]
    u, s = np.nonzero((v0 * v1) < 0)
    if not u.size:
        return breaks
    x0, x1 = breaks[s], breaks[s + 1]
    t = v0[u, s] / (v0[u, s] - v1[u, s])
    return _thin_breaks(np.unique(np.concatenate((breaks, x0 + t * (x1 - x0)))))


def _sliver_l1(net: ReluNetwork, lo, hi, ylo, yhi) -> np.ndarray:
    """Exact ``integral |net - secant|`` on every ``[lo_j, hi_j]``, in one pass.

    ``net`` is a ``[1, a, b, 1]`` network whose first layer has no kink
    strictly inside any interval, and the secant runs from ``(lo_j, ylo_j)``
    to ``(hi_j, yhi_j)``.  Each second-layer unit is then linear on an
    interval, so the network's kinks there are the units' zero crossings.
    They are sorted per interval; the output slope starts from its value
    just right of ``lo_j`` and each kink adds ``w3_k |dz_k|``.  Each piece
    is integrated like :func:`exact_l1_cpl`, as a trapezoid or two
    triangles.  The cost is one matrix product per layer and a sort, not a
    compile per interval; intervals go ``SLIVER_BLOCK`` at a time, which
    bounds the working set.
    """
    if net.input_dim != 1 or len(net.layers) != 3:
        raise ShapeError("_sliver_l1 needs a [1, a, b, 1] network")
    lo, hi, ylo, yhi = (np.asarray(v, dtype=float) for v in (lo, hi, ylo, yhi))
    if not np.all(lo < hi):
        raise ValueError("every interval must satisfy lo < hi")
    blocks = (slice(s, s + SLIVER_BLOCK) for s in range(0, lo.size, SLIVER_BLOCK))
    return np.concatenate([_sliver_block(net, lo[b], hi[b], ylo[b], yhi[b]) for b in blocks])


def _sliver_block(net: ReluNetwork, lo, hi, ylo, yhi) -> np.ndarray:
    """:func:`_sliver_l1` on one block of intervals."""
    (w1, b1), (w2, b2), (w3, b3) = net.layers
    w3 = w3[0]
    k = lo.size
    z = w1 @ np.concatenate((lo, hi))[None, :] + b1[:, None]
    if np.any(z[:, :k] * z[:, k:] < 0):
        raise ShapeError("a first-layer unit changes sign inside an interval")
    z = w2 @ np.maximum(z, 0.0) + b2[:, None]
    z0, z1 = z[:, :k], z[:, k:]
    dz = z1 - z0
    cross = z0 * z1 < 0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(cross, z0 / (z0 - z1), 1.0)
    order = np.argsort(t, axis=0)
    t = np.take_along_axis(t, order, axis=0)
    kink = np.take_along_axis(np.where(cross, w3[:, None] * np.abs(dz), 0.0), order, axis=0)
    # slopes in units of the interval, minus the secant's
    active = (z0 > 0) | ((z0 == 0) & (z1 > 0))
    s0 = w3 @ np.where(active, dz, 0.0) - (yhi - ylo)
    slopes = np.vstack((s0, s0 + np.cumsum(kink, axis=0)))
    widths = np.diff(np.vstack((np.zeros(k), t, np.ones(k))), axis=0)
    h_start = w3 @ np.maximum(z0, 0.0) + b3[0] - ylo
    h = np.vstack((h_start, h_start + np.cumsum(slopes * widths, axis=0)))
    h0, h1 = h[:-1], h[1:]
    same = h0 * h1 >= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        tc = np.where(same, 0.0, h0 / (h0 - h1))
    area = np.where(same, 0.5 * (np.abs(h0) + np.abs(h1)),
                    0.5 * (np.abs(h0) * tc + np.abs(h1) * (1.0 - tc)))
    return np.sum(area * widths, axis=0) * (hi - lo)


def cpl_sup(f: CplFunction, a: float, b: float) -> float:
    """Exact ``sup |f|`` over ``[a, b]`` (attained at a break or an endpoint)."""
    inside = f.breaks[(f.breaks > a) & (f.breaks < b)]
    pts = np.concatenate((np.array([a, b], dtype=float), inside))
    return float(np.max(np.abs(eval_cpl(f, pts))))


def cpl_to_json(f: CplFunction) -> str:
    """Serialize in the same text-document family as the network format."""
    return json.dumps({"breaks": f.breaks.tolist(), "values": f.values.tolist()})


def cpl_from_json(text) -> CplFunction:
    """Parse the ``{"breaks": [...], "values": [...]}`` document."""
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed CPL document: {e.msg}", offset=e.pos) from e
    if not isinstance(doc, dict) or "breaks" not in doc or "values" not in doc:
        raise ParseError("CPL document must carry breaks and values")
    return CplFunction(np.asarray(doc["breaks"]), np.asarray(doc["values"]))
