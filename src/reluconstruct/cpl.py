"""Continuous piecewise-linear functions on an interval.

Holds the CPL value type, its one-hidden-layer ReLU realization (all-ones
first layer, biases at the break points, output weights from secant-slope
differences), exact piecewise L1 integration used as a test oracle, and two
ways to recover a CPL view of a 1-D network: black-box probing with slope
detection, and exact layer-by-layer propagation (each layer evaluated at
the breaks of the layers before it, ``_activations``).  Where the layers
before the last hidden one are linear, the output's kinks are that layer's
zero crossings; one pass, ``_last_layer``, finds them and the values there
by accumulating slope jumps.  The exact compile runs it on the
segments its earlier layers build, and ``_sliver_l1`` on many intervals
free of first-layer kinks at once, to integrate a two-hidden-layer network
against a secant with no CPL view.  Both take ``SEGMENT_BLOCK`` segments at
a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ShapeError, _floats, _integer
from .network import ReluNetwork, _freeze, _frozen_array, evaluate_batch

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

# segments per pass of _last_layer: at N = 256 a pass holds a few
# (2N+1) x SEGMENT_BLOCK arrays, under the lemma-2 fit's own working set
SEGMENT_BLOCK = 64


def _interval(a, b) -> tuple[float, float]:
    """``(a, b)`` as floats, refused unless finite with ``a < b``."""
    a, b = float(a), float(b)
    if not -np.inf < a < b < np.inf:
        raise ValueError(f"interval must be finite with a < b, got [{a!r}, {b!r}]")
    return a, b


def _check_increasing(xs, what):
    xs = _frozen_array(xs)
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
    linearly.  Both arrays are read-only: a read-only float64 array that owns
    its memory is kept as it is, anything else is copied, as a network's
    weights are.
    """

    breaks: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        breaks = _check_increasing(self.breaks, "breaks")
        values = _frozen_array(self.values)
        if values.shape != breaks.shape:
            raise ShapeError("breaks and values must have equal length")
        if not np.isfinite(values).all():
            raise ShapeError("values must be finite")
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "values", values)

    def __call__(self, x):
        return eval_cpl(self, x)


@dataclass(frozen=True)
class SampleSet:
    """Ordered interpolation samples, optionally carrying a (m, n) plan shape.

    With the shape present the count must be ``m*(n+1) + 1`` and all values
    must be nonnegative, matching the two-hidden-layer construction's
    preconditions.  ``xs`` and ``ys`` are kept or copied as
    :class:`CplFunction`'s arrays are.
    """

    xs: np.ndarray
    ys: np.ndarray
    m: int | None = None
    n: int | None = None

    def __post_init__(self):
        xs = _check_increasing(self.xs, "sample abscissae")
        ys = _frozen_array(self.ys)
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
    Both come back read-only and own their memory, so a network keeps them
    without a copy.
    """
    # in place: the secant slopes, then the tail's slope differences over
    # them 64 rows at a time, where np.diff of the whole matrix would be a
    # second array of the output's size
    weights = np.diff(ys, axis=-1)
    weights /= np.diff(xs)
    rows = weights.reshape(-1, weights.shape[-1])
    for i in range(0, rows.shape[0], 64):
        block = rows[i:i + 64]
        block[:, 1:] = np.diff(block, axis=1)
    bias = ys[..., 0].copy()
    weights.setflags(write=False)
    bias.setflags(write=False)
    return weights, bias


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
    """The mask that thins the sorted distinct ``pts`` from ``a = pts[0]`` to ``b = pts[-1]``.

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
    return keep


def _merged_breaks(f: CplFunction, g: CplFunction, a: float, b: float):
    pts = np.unique(np.concatenate(([a, b], f.breaks, g.breaks)))
    pts = pts[(pts >= a) & (pts <= b)]
    return pts[_thin_breaks(pts)]


def exact_l1_cpl(f: CplFunction, g: CplFunction, a: float, b: float) -> float:
    """Exact ``integral_a^b |f - g|`` for two CPL functions.

    Merges both break sets, locates the sign crossing of the (linear)
    difference on each merged segment, and integrates the triangles and
    trapezoids in closed form.
    """
    a, b = _interval(a, b)
    pts = _merged_breaks(f, g, a, b)
    h = eval_cpl(f, pts) - eval_cpl(g, pts)
    return float(np.sum(_abs_areas(h, np.diff(pts))))


def _abs_areas(h: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """``integral |h|`` on each piece of ``widths`` (axis 0): a trapezoid or two triangles."""
    h0, h1 = h[:-1], h[1:]
    area = 0.5 * (np.abs(h0) + np.abs(h1))
    cross = h0 * h1 < 0
    h0, h1 = h0[cross], h1[cross]
    t = h0 / (h0 - h1)  # where h crosses zero, as a fraction of the piece
    area[cross] = 0.5 * (np.abs(h0) * t + np.abs(h1) * (1.0 - t))
    return area * widths


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

    # runs of consecutive flagged segments, run r spanning a_i[r]..b_i[r]:
    # an entry ends a run when the next one starts a run, and the roll gives
    # the last entry starts[0], which is True
    idx = np.flatnonzero(flagged)
    starts = np.diff(idx, prepend=-2) > 1
    a_i, b_i = idx[starts], idx[np.roll(starts, -1)]
    sl, sr = slopes[a_i], slopes[b_i + 1]
    separated = np.abs(sl - sr) > SLOPE_TOL * np.maximum(np.maximum(np.abs(sl), np.abs(sr)), 1.0)
    single = (b_i - a_i <= 1) & separated
    # one kink in a run: intersect the pure lines on either side
    sl, sr, a_s, b_s = sl[single], sr[single], a_i[single], b_i[single] + 2
    xa, ya, xb, yb = probes[a_s], ys[a_s], probes[b_s], ys[b_s]
    x_star = (yb - sr * xb - ya + sl * xa) / (sl - sr)
    # several kinks (e.g. a spike returning to the same slope): keep the
    # run's probe points, trading exactness for robustness
    several = np.repeat(~single, b_i - a_i + 1)
    kinks = np.concatenate((np.minimum(np.maximum(x_star, xa), xb), probes[idx[several] + 1]))

    a, b = probes[0], probes[-1]
    if kinks.size:
        kinks = np.unique(kinks)
        gap = MIN_BREAK_GAP * max(1.0, abs(a), abs(b)) * 10
        keep = [kinks[0]] if kinks[0] > a + gap else []
        for k in kinks[1:]:
            if (not keep or k - keep[-1] > gap) and k < b - gap:
                keep.append(k)
        breaks = np.concatenate(([a], keep, [b])) if keep else np.array([a, b])
    else:
        breaks = np.array([a, b])
    return CplFunction(_freeze(breaks), _freeze(evaluate_batch(net, breaks)))


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
    a, b = _interval(a, b)
    return _extract_cpl(net, np.linspace(a, b, probe_count))


def net_to_cpl_exact(net: ReluNetwork, a: float, b: float) -> CplFunction:
    """Exact CPL representation of a 1-D network on ``[a, b]``.

    Propagates break points layer by layer: each layer's pre-activations are
    linear between the breaks of the layers before it, so it is evaluated
    at those breaks (``_activations``) and adds its units' zero crossings.
    Exact up to f64 arithmetic, unlike the probing oracle.  The last hidden
    layer goes through ``_last_layer`` on the old segments, ``SEGMENT_BLOCK``
    at a time, so it holds O(breaks + units x SEGMENT_BLOCK) memory, not
    units x breaks.  Its breaks are those of interpolating that layer onto
    its crossings and its values agree with such an interpolation to about
    1e-11 of the largest |value| at ``build_1d``'s N = 256.
    """
    if net.input_dim != 1:
        raise ShapeError("net_to_cpl_exact needs a 1-D network")
    a, b = _interval(a, b)
    breaks = np.array([a, b])
    *hidden, (w_out, b_out) = net.layers
    if not hidden:
        return CplFunction(_freeze(breaks), (w_out @ breaks[None, :] + b_out[:, None])[0])
    for depth, (w, bias) in enumerate(hidden[:-1]):
        breaks = _with_crossings(breaks, w @ _activations(hidden[:depth], breaks) + bias[:, None])
    w, bias = hidden[-1]
    vals = w @ _activations(hidden[:-1], breaks) + bias[:, None]
    pts, out = [], []
    for lo in range(0, breaks.size - 1, SEGMENT_BLOCK):
        x, z = breaks[lo:lo + SEGMENT_BLOCK + 1], vals[:, lo:lo + SEGMENT_BLOCK + 1]
        s, h, n = _last_layer(z[:, :-1], z[:, 1:], w_out[0], b_out[0])
        # segment by segment: its start, then its n crossings in order
        keep = (np.arange(s.shape[0] - 1)[:, None] <= n).T
        pts.append((x[:-1] + s[:-1] * np.diff(x)).T[keep])
        out.append(h[:-1].T[keep])
    # a crossing can round past its segment's end: sort, then drop repeats
    pts, out = np.concatenate((*pts, breaks[-1:])), np.concatenate((*out, h[-1, -1:]))
    order = np.argsort(pts, kind="stable")
    order = order[np.concatenate(([True], np.diff(pts[order]) > 0))]
    keep = order[_thin_breaks(pts[order])]
    return CplFunction(_freeze(pts[keep]), _freeze(out[keep]))


def _activations(layers, x: np.ndarray) -> np.ndarray:
    """The units ``max(w @ h + b, 0)`` of ``layers`` at ``x``, from ``h = x[None, :]``."""
    h = x[None, :]
    for w, b in layers:
        h = np.maximum(w @ h + b[:, None], 0.0)
    return h


def _with_crossings(breaks: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """``breaks`` plus the zero crossings of every row of ``vals``, thinned."""
    v0, v1 = vals[:, :-1], vals[:, 1:]
    u, s = np.nonzero((v0 * v1) < 0)
    x0, x1 = breaks[s], breaks[s + 1]
    t = v0[u, s] / (v0[u, s] - v1[u, s])
    pts = np.unique(np.concatenate((breaks, x0 + t * (x1 - x0))))
    return pts[_thin_breaks(pts)]


def _last_layer(z0, z1, w, b, y0=0.0, dy=0.0):
    """``w . relu(z) + b`` minus the line ``y0 + s dy`` at its kinks along segments.

    A column of ``z0`` and ``z1`` holds the last hidden layer's
    pre-activations at the two ends of a segment along which they are
    linear, ``s`` running from 0 to 1.  The output's kinks are the units'
    zero crossings: its slope starts from its value just right of the start
    and each crossing adds ``w_k |dz_k|``.  Returns, per column, ``s`` (0,
    the crossings sorted, 1.0 past the segment's ``n`` of them, and 1),
    ``h`` (the output minus the line at each ``s``) and ``n``.
    """
    dz = z1 - z0
    cross = z0 * z1 < 0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(cross, z0 / (z0 - z1), 1.0)
    order = np.argsort(t, axis=0)
    kink = np.take_along_axis(np.where(cross, w[:, None] * np.abs(dz), 0.0), order, axis=0)
    # slopes in units of the segment, minus the line's
    active = (z0 > 0) | ((z0 == 0) & (z1 > 0))
    s0 = w @ np.where(active, dz, 0.0) - dy
    s = np.vstack((np.zeros_like(s0), np.take_along_axis(t, order, axis=0), np.ones_like(s0)))
    slopes = np.vstack((s0, s0 + np.cumsum(kink, axis=0)))
    h_start = w @ np.maximum(z0, 0.0) + b - y0
    h = np.vstack((h_start, h_start + np.cumsum(slopes * np.diff(s, axis=0), axis=0)))
    return s, h, np.count_nonzero(cross, axis=0)


def _sliver_l1(net: ReluNetwork, lo, hi, ylo, yhi) -> np.ndarray:
    """Exact ``integral |net - secant|`` on every ``[lo_j, hi_j]``, in one pass.

    ``net`` is a ``[1, a, b, 1]`` network whose first layer has no kink
    strictly inside any interval, and the secant runs from ``(lo_j, ylo_j)``
    to ``(hi_j, yhi_j)``.  So ``_last_layer`` gives the distance to the
    secant at the network's kinks, and each piece between them is integrated
    like :func:`exact_l1_cpl`: one matrix product per layer and a sort, not
    a compile per interval, ``SEGMENT_BLOCK`` intervals at a time.
    """
    if net.input_dim != 1 or len(net.layers) != 3:
        raise ShapeError("_sliver_l1 needs a [1, a, b, 1] network")
    lo, hi, ylo, yhi = (np.asarray(v, dtype=float) for v in (lo, hi, ylo, yhi))
    if not np.all(lo < hi):
        raise ValueError("every interval must satisfy lo < hi")
    (w1, b1), (w2, b2), (w3, b3) = net.layers
    out = np.empty(lo.size)
    for i in range(0, lo.size, SEGMENT_BLOCK):
        j = slice(i, i + SEGMENT_BLOCK)
        k = lo[j].size
        z = w1 @ np.concatenate((lo[j], hi[j]))[None, :] + b1[:, None]
        if np.any(z[:, :k] * z[:, k:] < 0):
            raise ShapeError("a first-layer unit changes sign inside an interval")
        z = w2 @ np.maximum(z, 0.0) + b2[:, None]
        s, h, _ = _last_layer(z[:, :k], z[:, k:], w3[0], b3[0], ylo[j], yhi[j] - ylo[j])
        out[j] = np.sum(_abs_areas(h, np.diff(s, axis=0)), axis=0) * (hi[j] - lo[j])
    return out


def cpl_sup(f: CplFunction, a: float, b: float) -> float:
    """Exact ``sup |f|`` over ``[a, b]`` (attained at a break or an endpoint)."""
    a, b = _interval(a, b)
    inside = f.breaks[(f.breaks > a) & (f.breaks < b)]
    pts = np.concatenate((np.array([a, b], dtype=float), inside))
    return float(np.max(np.abs(eval_cpl(f, pts))))


def cpl_to_json(f: CplFunction) -> str:
    """Serialize in the same text-document family as the network format."""
    return json.dumps({"breaks": f.breaks.tolist(), "values": f.values.tolist()})


def cpl_from_json(text) -> CplFunction:
    """Parse the ``{"breaks": [...], "values": [...]}`` document; see ``errors._floats``."""
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed CPL document: {e.msg}", offset=e.pos) from e
    if not isinstance(doc, dict) or "breaks" not in doc or "values" not in doc:
        raise ParseError("CPL document must carry breaks and values")
    return CplFunction(_floats(doc["breaks"], "breaks"), _floats(doc["values"], "values"))
