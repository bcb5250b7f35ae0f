"""Error measurement on the unit cube, target families, and rate fitting."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .construct import HolderTarget, _target_values
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
# a d > 1 pass tables each network's CPL and the cone's outer once per this
# many points, on the distinct leading sums of the chunk's rows by the
# distinct last-axis entries: at most (_CHUNK / p + 2) x p values.  A table
# per block ran d > 1 grids 10-25% slower
_CHUNK = 1 << 18
# the grid is evaluated and reduced in blocks of this many points, in index
# order, so the sums are bit-stable regardless of how callers parallelize
# around this module.  A block's coordinates, target and network values
# (128 KiB per array) stay in a 2 MiB per-core L2.  On a 2-core Xeon,
# verify-dd ran 7% faster with 2^14 than with 2^13, and 2^12 and 2^15 were
# slower still.
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
    for bit that slice of the axis points, so d = 1 needs no axis array; it
    is computed in place, in one array.
    """
    p, d = grid.points_per_axis, grid.d
    if d == 1:
        x = np.arange(lo, hi, dtype=float)
        x += 0.5
        x /= p
        return x[:, None]
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


def _separable(fn, tables):
    """``fn(tables[0][j_0] + ... + tables[-1][j_{d-1}])`` as a d > 1 pass
    tables it: ``(fn, sep)``, ``sep`` the leading tables, the last table's
    distinct entries and each axis point's index among them."""
    cols, inv = np.unique(tables[-1], return_inverse=True)
    return fn, (tables[:-1], cols, inv)


def _network_form(net: ReluNetwork, pts: np.ndarray | None):
    """The network as a pass evaluates it, a ``(fn, sep)`` pair (see
    ``_grid_metrics``): its compiled CPL through ``np.interp``, tabled for
    d > 1 and on the points' one coordinate for d = 1 (see ``_compile``), or
    ``evaluate_batch`` on the points when it has no finite compiled form."""
    try:  # a compiled form that overflows leaves the grid to the dense pass
        with np.errstate(over="ignore", invalid="ignore"):
            compiled = _compile(net, pts)
    except ValueError:
        compiled = None
    if compiled is None:  # evaluate_batch is looked up per call, where a tracer patches it
        return (lambda points: evaluate_batch(net, points)), None
    tables, outer = compiled
    if not tables:
        return (lambda points: np.interp(points[:, 0], outer.breaks, outer.values)), None
    return _separable(lambda z: np.interp(z, outer.breaks, outer.values), tables)


def _grid_metrics(f, nets, grid: GridSpec, map=map) -> list:
    """``grid_errors(f, net, grid)`` for every network of ``nets``, from one pass over the grid.

    Each entry is ``(L1, Linf)`` or the exception ``grid_errors`` raises for
    that network.  The target and each network are one function of the grid,
    ``(fn, sep)``: with ``sep`` None, ``fn`` maps a block's ``(k, d)`` points
    to its values; otherwise ``fn`` is separable and tabled per chunk (see
    ``grid_errors``).  Each network's form is made once, through ``map``.
    The grid is walked in ``_CHUNK``s, ``map(fn, starts)`` running ``fn`` on
    the chunk at each start and yielding the results in order (the builtin
    ``map``, or a pool's).  A chunk makes one reader per function, the
    target's first, then walks its blocks: one read of the target's values
    and one of each network's, reduced against them while they are in cache.
    It returns each network's ``(max, sum)`` per block, to its first
    non-finite block, and the first exception any read raised, or None.  The
    fold decides every failure and adds the sums, both in index order, so
    every figure is the same bits whatever ``map`` runs the chunks.
    """
    p, d, size = grid.points_per_axis, grid.d, grid.total_points
    results = [(0.0, 0.0) if net.input_dim == d
               else ShapeError("network input dimension must match the grid") for net in nets]
    live = [i for i, r in enumerate(results) if isinstance(r, tuple)]
    if not live:
        return results
    # the grid cap leaves a d > 1 axis at most 4096 points
    pts = None if d == 1 else (np.arange(p) + 0.5) / p
    forms = list(map(lambda i: _network_form(nets[i], pts), live))

    target = functools.partial(_target_values, f), None
    form = getattr(f.f if isinstance(f, HolderTarget) else f, "_axis_form", None)
    if d > 1 and form is not None and form[0] == d:
        target = _separable(form[2], [form[1](pts)] * d)
    need_coords = any(sep is None for _, sep in (target, *forms))
    weight = math.prod([1.0 / p] * d)

    def chunk(start: int) -> tuple:
        stop = min(start + _CHUNK, size)
        r0, r1 = start // p, (stop - 1) // p + 1

        def reader(fn, sep):
            """``read(lo, hi, coords)``, a block's values of ``fn``: ``fn`` on
            its points, or from ``fn``'s table on each distinct (leading sum,
            last-axis entry) pair of the chunk's rows."""
            if sep is None:
                return lambda lo, hi, coords: fn(coords)
            lead, cols, inv = sep
            sums, rows = np.unique(_row_sums(lead, p, r0, r1), return_inverse=True)
            table = fn(sums[:, None] + cols)
            if len(sums) < r1 - r0:
                # rows repeat: one column gather here moves fewer values than one per block
                table, inv = table.take(inv, axis=1), None

            def read(lo, hi, coords):  # the block's rows, then its columns, from column lo % p
                out = table[rows[lo // p - r0:(hi - 1) // p - r0 + 1]]
                if inv is not None:
                    out = out.take(inv, axis=1)  # out[:, inv] took twice as long
                return out.ravel()[lo % p:lo % p + hi - lo]

            return read

        blocks = [[] for _ in forms]
        try:  # the readers are made in here, so an outer that raises fails every network
            target_read, *reads = [reader(*form) for form in (target, *forms)]
            for lo in range(start, stop, _BLOCK):
                hi = min(lo + _BLOCK, stop)
                coords = _coords(grid, pts, lo, hi) if need_coords else None
                fv = target_read(lo, hi, coords)
                for read, pairs in zip(reads, blocks):
                    if pairs and not math.isfinite(pairs[-1][0]):
                        continue  # failed: the fold reports it
                    # every network read is a fresh array: the errors overwrite it
                    err = read(lo, hi, coords)
                    np.subtract(fv, err, out=err)
                    np.abs(err, out=err)
                    top = float(np.max(err))
                    err *= weight
                    pairs.append((top, float(np.sum(err))))
        except Exception as e:  # the fold fails every network still measured
            return blocks, e
        return blocks, None

    for blocks, failure in map(chunk, range(0, size, _CHUNK)):
        for i, pairs in zip(live, blocks):
            if isinstance(results[i], Exception):
                continue
            for top, s in pairs:
                if math.isfinite(top):
                    results[i] = results[i][0] + s, max(results[i][1], top)
                else:  # a network's first non-finite block is the last its chunk measured
                    results[i] = ValueError(f"target or network is "
                                            f"{'NaN' if math.isnan(top) else 'infinite'} on the grid")
            if failure is not None and isinstance(results[i], tuple):
                results[i] = failure
    return results


def grid_errors(f, net: ReluNetwork, grid: GridSpec) -> tuple[float, float]:
    """``(L1, Linf)`` of ``f - net`` on the grid from one pass over its points.

    L1 is the midpoint estimate of ``integral |f - net|`` over the cube, each
    point weighted ``p**-d`` (multiplied axis by axis); Linf is the max over
    the grid points, a lower bound on the true sup.  A NaN or infinite error
    anywhere raises ``ValueError``.  This is ``_grid_metrics`` on one network.

    The grid is walked in C order in blocks of ``_BLOCK`` points (see
    ``_coords``), each reduced as soon as it is read, while its values are in
    cache.  The target and the network each have one reader per ``_CHUNK``:
    - per point, the function on the block's ``(k, d)`` points: any target
      but the cone below; a d = 1 network's compiled CPL (see ``_compile``)
      through ``np.interp``; a network with no finite compiled form through
      ``evaluate_batch``;
    - tabled, a d > 1 network's compiled ``outer``, and on a d > 1 grid that
      of a ``holder_family("cone", d, ...)`` target, its ``.f`` or a
      ``functools.wraps`` wrapper of it (which copies its form), whose axis
      function is tabled once per pass.  A point's table sum is its row's
      leading sum (``_row_sums``) plus its last-axis entry, the per-point
      operands added in the same order.  The chunk applies the elementwise
      ``outer`` to each distinct leading sum of its rows plus each distinct
      last-axis entry (at most ``_CHUNK / p + 2`` rows by p columns; both
      repeat, as the psi encoder sorts each coordinate into a few cells and
      the cone's axis function is symmetric about 0.5).  Each block gathers
      its rows of that table, then its columns; where the chunk's rows
      repeat, its table gathers the columns once instead.  ``np.unique``
      merges -0.0 with +0.0, but no leading sum is -0.0, so every sum keeps
      its bits.
    """
    result = _grid_metrics(f, [net], grid)[0]
    if isinstance(result, Exception):
        raise result
    return result


def l1_error(f, net: ReluNetwork, grid: GridSpec) -> float:
    """Midpoint estimate of ``integral |f - net|`` over the cube."""
    return grid_errors(f, net, grid)[0]


def linf_error(f, net: ReluNetwork, grid: GridSpec) -> float:
    """Max ``|f - net|`` over the grid points: a lower bound on the true sup."""
    return grid_errors(f, net, grid)[1]


# ---------------------------------------------------------------------------
# target families


def _cone(d: int, alpha: float, nu: float):
    def axis(t: np.ndarray) -> np.ndarray:
        c = t - 0.5
        c *= c
        return c

    def outer(s: np.ndarray) -> np.ndarray:  # overwrites s
        np.sqrt(s, out=s)
        np.power(s, alpha, out=s)
        s *= nu
        return s

    def f(points: np.ndarray) -> np.ndarray:
        if points.ndim != 2 or points.shape[1] != d:
            raise ShapeError(f"the d = {d} cone takes (k, {d}) points")
        # nu * np.linalg.norm(points - 0.5, axis=1) ** alpha bit for bit: the
        # squares are added column by column in add.reduce's order, with no
        # strided reduction, in one array (0.0 + c*c is c*c)
        sq = axis(points[:, 0])
        for a in range(1, d):
            sq += axis(points[:, a])
        return outer(sq)

    # f(x) is outer(axis(x_0) + ... + axis(x_{d-1})), the form grid_errors reads
    f._axis_form = (d, axis, outer)
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
    identically 0.  The cone's ``f`` carries its form ``outer(axis(x_1) + ...
    + axis(x_d))``, ``axis(t) = (t - 0.5)^2`` and ``outer(s) = nu * sqrt(s)^alpha``,
    which ``grid_errors`` evaluates from per-axis tables on a d > 1 grid.
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
    if len({n for n, _ in pairs}) < 2:
        raise ShapeError("rate fitting needs (N, error) pairs at two or more distinct N")
    if not all(np.isfinite(e) and e > 0 for _, e in pairs):
        raise ValueError("rate fitting needs finite, strictly positive errors")
    x = np.log([n for n, _ in pairs])
    y = np.log([e for _, e in pairs])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept), r_squared=r2)
