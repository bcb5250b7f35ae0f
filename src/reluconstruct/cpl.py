"""Continuous piecewise-linear functions on an interval.

Holds the CPL value type, its one-hidden-layer ReLU realization (all-ones
first layer, biases at the break points, output weights from secant-slope
differences), exact piecewise L1 integration used as a test oracle, and two
ways to recover a CPL view of a 1-D network: black-box probing with slope
detection, and exact layer-by-layer propagation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ShapeError
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

# Break points closer than this are rejected rather than merged: silent
# merging would hide upstream don't-care-width bugs.
MIN_BREAK_GAP = 1e-13

# relative slope change between adjacent probe segments that flags a kink
SLOPE_TOL = 1e-6


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
            if self.m < 1 or self.n < 1:
                raise ShapeError("m and n must be positive")
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

    def __len__(self):
        return self.xs.size


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
    later ``a_j`` is the slope difference across node ``j``.
    """
    slopes = np.diff(ys) / np.diff(xs)
    weights = np.concatenate(([slopes[0]], np.diff(slopes)))
    return weights, float(ys[0])


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
    weights, bias = _fit_one_layer_row(xs, ys)
    return ReluNetwork(1, ((w1, b1), (weights[None, :], np.array([bias]))))


def _merged_breaks(f: CplFunction, g: CplFunction, a: float, b: float):
    pts = np.concatenate(([a, b], f.breaks, g.breaks))
    pts = np.unique(pts)
    pts = pts[(pts >= a) & (pts <= b)]
    # collapse numerically coincident points produced by the merge
    keep = np.concatenate(([True], np.diff(pts) > MIN_BREAK_GAP * max(1.0, abs(a), abs(b))))
    return pts[keep]


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
    run_start = None
    runs = []
    for i in idx:
        if run_start is None:
            run_start = prev = i
        elif i == prev + 1:
            prev = i
        else:
            runs.append((run_start, prev))
            run_start = prev = i
    if run_start is not None:
        runs.append((run_start, prev))
    for a_i, b_i in runs:
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
    which is then localized by bisection.  Features narrower than the probe
    spacing can be missed; choose ``probe_count`` accordingly.
    """
    if net.input_dim != 1:
        raise ShapeError("cpl_from_net_1d needs a 1-D network")
    if probe_count < 3:
        raise ValueError("probe_count must be at least 3")
    return _extract_cpl(net, np.linspace(a, b, probe_count))


def net_to_cpl_exact(net: ReluNetwork, a: float, b: float) -> CplFunction:
    """Exact CPL representation of a 1-D network on ``[a, b]``.

    Propagates break points layer by layer: affine maps keep the mesh, each
    activation inserts the zero crossings of every unit before clamping.
    Exact up to f64 interpolation arithmetic, unlike the probing oracle.
    """
    if net.input_dim != 1:
        raise ShapeError("net_to_cpl_exact needs a 1-D network")
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    breaks = np.array([float(a), float(b)])
    vals = breaks[None, :]  # one "unit": the identity
    for li, (w, bias) in enumerate(net.layers):
        vals = w @ vals + bias[:, None]
        if li == len(net.layers) - 1:
            break
        v0, v1 = vals[:, :-1], vals[:, 1:]
        u, s = np.nonzero((v0 * v1) < 0)
        if u.size:
            x0, x1 = breaks[s], breaks[s + 1]
            t = v0[u, s] / (v0[u, s] - v1[u, s])
            crossings = x0 + t * (x1 - x0)
            new_breaks = np.unique(np.concatenate((breaks, crossings)))
            gap = MIN_BREAK_GAP * max(1.0, abs(a), abs(b))
            keep = np.concatenate(([True], np.diff(new_breaks) > gap))
            new_breaks = new_breaks[keep]
            vals = np.vstack([np.interp(new_breaks, breaks, row) for row in vals])
            breaks = new_breaks
        vals = np.maximum(vals, 0.0)
    return CplFunction(breaks, vals[0])


def cpl_sup(f: CplFunction, a: float, b: float) -> float:
    """Exact ``sup |f|`` over ``[a, b]`` (attained at a break or an endpoint)."""
    pts = [a, b] + [x for x in f.breaks if a < x < b]
    return float(np.max(np.abs(eval_cpl(f, np.asarray(pts, dtype=float)))))


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
