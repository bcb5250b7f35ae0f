"""Error measurement on the unit cube, target families, and rate fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construct import HolderTarget
from .cpl import net_to_cpl_exact
from .errors import CertificateError, RegistryError, ResourceError, ShapeError, _integer
from .network import ReluNetwork, evaluate_batch

__all__ = [
    "GRID_POINT_CAP",
    "GridSpec",
    "RateFit",
    "default_grid",
    "grid_errors",
    "l1_error",
    "linf_error",
    "holder_family",
    "rate_fit",
]

# largest grid any caller may ask for: the d = 3 default, 256^3 points
GRID_POINT_CAP = 256**3
# the quadrature sums run chunk by chunk in index order, so they are
# bit-stable regardless of how callers parallelize around this module
_CHUNK = 1 << 18
# each chunk is evaluated in blocks of this many points: a block's
# coordinates, target and network values (128 KiB per array) stay in a
# 2 MiB per-core L2.  On a 2-core Xeon, verify-dd ran 7% faster with
# 2^14 than with 2^13, and 2^12 and 2^15 were slower still.
_BLOCK = 1 << 14
# a second weight matrix this close to rank 1 (relative to its largest
# entry) is factored; compose's fused layers measure below 1e-15
_RANK1_TOL = 1e-12
# relative widening of the outer compile interval: keeps it nonempty when
# every table is constant and covers rounding in the per-point sums
_PAD = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Midpoint grid over [0, 1]^d of at most ``GRID_POINT_CAP`` points."""

    d: int
    points_per_axis: int

    def __post_init__(self):
        for name in ("d", "points_per_axis"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, ShapeError))
        if self.total_points > GRID_POINT_CAP:
            raise ResourceError(
                f"{self.total_points} grid points exceed the cap of {GRID_POINT_CAP}"
            )

    @property
    def total_points(self) -> int:
        return self.points_per_axis**self.d


def default_grid(d: int) -> GridSpec:
    """Desk-scale defaults: 1e6 points for d=1, 2048^2 for d=2, 256^3 for d=3."""
    if d == 1:
        return GridSpec(1, 10**6)
    if d == 2:
        return GridSpec(2, 2048)
    if d == 3:
        return GridSpec(3, 256)
    raise ShapeError("default grids cover d in {1, 2, 3}")


def _repeat_axis(v: np.ndarray, stride: int, start: int, stop: int) -> np.ndarray:
    """``v[(q // stride) % len(v)]`` for ``q = start, ..., stop - 1``.

    The entries ``v[first % p], ..., v[last % p]`` are one slice of ``v``,
    tiled when it wraps, and each is repeated ``stride`` times, the first and
    last only as often as the range holds them: no index is computed per
    point and no point outside the range is made.  With ``stride`` 1 the
    result may be a view of ``v``.
    """
    p = len(v)
    first, last = start // stride, (stop - 1) // stride
    head, n = first % p, last - first + 1
    reps = -(-(head + n) // p)
    run = (np.tile(v, reps) if reps > 1 else v)[head:head + n]
    if stride == 1:
        return run
    counts = np.full(n, stride)
    counts[0] -= start - first * stride
    counts[-1] -= (last + 1) * stride - stop
    return np.repeat(run, counts)


def _coords(grid: GridSpec, pts: np.ndarray | None, lo: int, hi: int) -> np.ndarray:
    """The (hi - lo, d) points of flat positions ``lo..hi-1``, in C order.

    Axis ``a`` of flat position ``q`` is ``(q // p**(d-1-a)) % p``, so each
    coordinate column is ``pts``, the axis points, laid out with
    ``_repeat_axis``.  A d = 1 block is ``(arange(lo, hi) + 0.5) / p``, bit
    for bit that slice of the axis points, so d = 1 needs no axis array.
    """
    p, d = grid.points_per_axis, grid.d
    if d == 1:
        return ((np.arange(lo, hi) + 0.5) / p)[:, None]
    return np.stack([_repeat_axis(pts, p ** (d - 1 - a), lo, hi) for a in range(d)], axis=1)


def _row_sums(lead, p: int, r0: int, r1: int) -> np.ndarray:
    """``0 + lead[0][j_0] + ... + lead[-1][j_{d-2}]`` for grid rows ``r0..r1-1``.

    Row ``r`` is the p points with ``j_a = (r // p**(d-2-a)) % p``.  The sum
    adds from axis 0 up, as a per-point table sum does, from the integer 0.
    """
    e = len(lead)
    return sum(_repeat_axis(t, p ** (e - 1 - a), r0, r1) for a, t in enumerate(lead))


def _compile(net: ReluNetwork, pts: np.ndarray | None):
    """Per-axis tables and an outer 1-D CPL read from the weights alone.

    The network's value at grid point ``(pts[j_0], ..., pts[j_{d-1}])`` is
    ``outer(sum_a tables[a][j_a])``, the tables added from axis 0 up.  For
    d = 1 there is no table: ``outer`` is the whole network, applied to the
    coordinate itself, and ``pts`` is not read.  For d > 1 every first-layer
    row must see one coordinate and the second weight matrix must be rank 1,
    ``W2 = u v^T``: the tables are ``v . relu(W1 x + b1)`` split by axis and
    ``outer`` is the 1-D network ``((u, b2), *layers[2:])``.  Returns None
    when the weights have neither form.
    """
    if net.input_dim == 1:
        return (), net_to_cpl_exact(net, 0.0, 1.0)
    if len(net.layers) < 2:
        return None
    (w1, b1), (w2, b2) = net.layers[:2]
    scale = np.abs(w2).max()
    if scale == 0 or np.count_nonzero(w1, axis=1).max() > 1:
        return None
    c = np.argmax(np.abs(w2).max(axis=0))
    r = np.argmax(np.abs(w2[:, c]))
    u, v = w2[:, c], w2[r] / w2[r, c]
    if np.abs(w2 - np.outer(u, v)).max() > _RANK1_TOL * scale:
        return None
    axis_of = np.argmax(np.abs(w1), axis=1)  # all-zero rows are constants: axis 0
    tables = []
    for a in range(net.input_dim):
        rows = axis_of == a
        h = np.maximum(np.outer(pts, w1[rows, a]) + b1[rows], 0.0)
        tables.append(h @ v[rows])
    lo = sum(t.min() for t in tables)
    hi = sum(t.max() for t in tables)
    pad = _PAD * max(1.0, abs(lo), abs(hi))
    tail = ReluNetwork(1, ((u[:, None], b2), *net.layers[2:]))
    return tables, net_to_cpl_exact(tail, lo - pad, hi + pad)


def _abs_errors(f, net: ReluNetwork, grid: GridSpec):
    """Yield ``|f - net|`` per ``_CHUNK`` of the grid, in C order.

    The network is compiled once (see ``_compile``).  Each chunk is walked in
    blocks of ``_BLOCK`` points (see ``_coords``), whose coordinates, target
    and network values stay in cache, and filled into one buffer of this
    call, which the next chunk overwrites.  For d > 1 a point's table sum is
    its row's leading sum (``_row_sums``) plus its last-axis table entry, the
    same operands added in the same order, so each chunk evaluates ``outer``
    once per distinct leading sum and last-axis index (at most
    ``_CHUNK / p + 2`` rows; the psi encoder sorts each coordinate into a few
    cells, so rows repeat) and its blocks read from that table.  A d = 1 grid
    is one row, so its blocks go through ``np.interp`` as they come.  A
    network without a compiled form goes through ``evaluate_batch`` block by
    block, so its activations are ``_BLOCK`` rows, not the chunk's.
    """
    if net.input_dim != grid.d:
        raise ShapeError("network input dimension must match the grid")
    p, d, total = grid.points_per_axis, grid.d, grid.total_points
    # the grid cap leaves a d > 1 axis at most 4096 points
    pts = None if d == 1 else (np.arange(p) + 0.5) / p
    tables, outer = _compile(net, pts) or ((), None)
    buf = np.empty(min(_CHUNK, total))
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        if tables:
            r0 = start // p
            uniq, inv = np.unique(_row_sums(tables[:-1], p, r0, (stop - 1) // p + 1),
                                  return_inverse=True)
            rows = np.interp(uniq[:, None] + tables[-1], outer.breaks, outer.values)
        for lo in range(start, stop, _BLOCK):
            hi = min(lo + _BLOCK, stop)
            coords = _coords(grid, pts, lo, hi)
            fv = np.asarray(f(coords), dtype=float)
            if fv.shape != (hi - lo,):
                raise ShapeError("target must map (k, d) points to (k,) values")
            if outer is None:
                nv = evaluate_batch(net, coords)
            elif d == 1:
                nv = np.interp(coords[:, 0], outer.breaks, outer.values)
            else:
                # rows r0 + first.. of the table hold the block, from column lo % p
                first = lo // p - r0
                nv = rows[inv[first:(hi - 1) // p - r0 + 1]].ravel()[lo % p:lo % p + hi - lo]
            err = buf[lo - start:hi - start]
            np.abs(np.subtract(fv, nv, out=err), out=err)
        yield buf[:stop - start]


def grid_errors(f, net: ReluNetwork, grid: GridSpec) -> tuple[float, float]:
    """``(L1, Linf)`` of ``f - net`` on the grid from one pass over its points.

    L1 is the midpoint estimate of ``integral |f - net|`` over the cube, each
    point weighted ``p**-d`` (multiplied axis by axis); Linf is the max over
    the grid points, a lower bound on the true sup.  The target is called on
    blocks of at most ``_BLOCK`` points, in C order; both reductions run per
    ``_CHUNK``.  A NaN or infinite error anywhere raises ``ValueError``.
    """
    weight = math.prod([1.0 / grid.points_per_axis] * grid.d)
    total, worst = 0.0, 0.0
    for err in _abs_errors(f, net, grid):
        top = float(np.max(err))
        if not math.isfinite(top):
            raise ValueError(f"target or network is {'NaN' if math.isnan(top) else 'infinite'} "
                             "on the grid")
        worst = max(worst, top)
        err *= weight  # the chunk buffer, which the next chunk overwrites
        total += float(np.sum(err))
    return total, worst


def l1_error(f, net: ReluNetwork, grid: GridSpec) -> float:
    """Midpoint estimate of ``integral |f - net|`` over the cube."""
    return grid_errors(f, net, grid)[0]


def linf_error(f, net: ReluNetwork, grid: GridSpec) -> float:
    """Max ``|f - net|`` over the grid points: a lower bound on the true sup."""
    return grid_errors(f, net, grid)[1]


# ---------------------------------------------------------------------------
# target families


def _cone(d: int, alpha: float, nu: float):
    def f(points: np.ndarray) -> np.ndarray:
        if points.ndim != 2 or points.shape[1] != d:
            raise ShapeError(f"the d = {d} cone takes (k, {d}) points")
        # nu * np.linalg.norm(points - 0.5, axis=1) ** alpha bit for bit: the
        # squares are added column by column in add.reduce's order, with no
        # strided reduction, in one array (0.0 + c*c is c*c)
        sq = points[:, 0] - 0.5
        sq *= sq
        for a in range(1, d):
            c = points[:, a] - 0.5
            c *= c
            sq += c
        np.sqrt(sq, out=sq)
        np.power(sq, alpha, out=sq)
        sq *= nu
        return sq

    return f


def _linear(d: int, alpha: float, nu: float):
    def f(points: np.ndarray) -> np.ndarray:
        return nu * points[:, 0]

    return f


def _zero(d: int, alpha: float, nu: float):
    def f(points: np.ndarray) -> np.ndarray:
        return np.zeros(points.shape[0])

    return f


_FAMILIES = {"cone": _cone, "linear": _linear, "zero": _zero}


def holder_family(name: str, d: int, alpha: float, nu: float) -> HolderTarget:
    """A certified member of the named family.

    ``cone`` is ``nu * ||x - (0.5,...)||^alpha`` (exactly Hoelder-alpha with
    constant nu), ``linear`` is ``nu * x_1`` (alpha = 1 only), ``zero`` is
    identically 0.
    """
    if name not in _FAMILIES:
        raise RegistryError(f"unknown target family: {name!r}")
    target = HolderTarget(f=_FAMILIES[name](d, alpha, nu), d=d, alpha=alpha, nu=nu)
    if name == "linear" and alpha != 1:
        raise CertificateError("the linear family is certified only for alpha = 1")
    return target


# ---------------------------------------------------------------------------
# rate fitting


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (ln N, ln error)."""

    slope: float
    intercept: float
    r_squared: float


def rate_fit(pairs) -> RateFit:
    """Fit the empirical rate exponent; errors must be finite and strictly positive."""
    pairs = tuple((_integer(n, "N"), float(e)) for n, e in pairs)
    if len(pairs) < 2:
        raise ShapeError("rate fitting needs at least two (N, error) pairs")
    if not all(np.isfinite(e) and e > 0 for _, e in pairs):
        raise ValueError("rate fitting needs finite, strictly positive errors")
    x = np.log([n for n, _ in pairs])
    y = np.log([e for _, e in pairs])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept), r_squared=r2)
