"""Error measurement on the unit cube, target families, and rate fitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construct import HolderTarget
from .cpl import net_to_cpl_exact
from .errors import CertificateError, RegistryError, ResourceError, ShapeError
from .network import ReluNetwork, evaluate_batch

__all__ = [
    "GridSpec",
    "RateFit",
    "default_grid",
    "grid_errors",
    "l1_error",
    "linf_error",
    "holder_family",
    "rate_fit",
]

# evaluation happens in fixed-size chunks in index order, so sums are
# bit-stable regardless of how callers parallelize around this module
_CHUNK = 1 << 18
# a second weight matrix this close to rank 1 (relative to its largest
# entry) is factored; compose's fused layers measure below 1e-15
_RANK1_TOL = 1e-12
# relative widening of the outer compile interval: keeps it nonempty when
# every table is constant and covers rounding in the per-point sums
_PAD = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Tensor quadrature grid over [0, 1]^d."""

    d: int
    points_per_axis: int
    rule: str = "midpoint"
    cap: int = 10**7

    def __post_init__(self):
        if self.d < 1:
            raise ShapeError("d must be a positive integer")
        if self.points_per_axis < 2:
            raise ShapeError("points_per_axis must be at least 2")
        if self.rule not in ("midpoint", "trapezoid"):
            raise ValueError(f"unknown quadrature rule: {self.rule!r}")
        if self.total_points > self.cap:
            raise ResourceError(
                f"{self.total_points} grid points exceed the cap of {self.cap}"
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
        return GridSpec(3, 256, cap=256**3)
    raise ShapeError("default grids cover d in {1, 2, 3}")


def _axis_points(grid: GridSpec):
    p = grid.points_per_axis
    if grid.rule == "midpoint":
        pts = (np.arange(p) + 0.5) / p
        wts = np.full(p, 1.0 / p)
    else:
        pts = np.arange(p) / (p - 1)
        wts = np.full(p, 1.0 / (p - 1))
        wts[0] *= 0.5
        wts[-1] *= 0.5
    return pts, wts


def _chunks(grid: GridSpec, pts: np.ndarray, wts: np.ndarray):
    """Yield (points (k, d), weights (k,), axis indices (k, d)) in a fixed order.

    ``pts, wts`` are the grid's ``_axis_points``.
    """
    p, d = grid.points_per_axis, grid.d
    total = grid.total_points
    for start in range(0, total, _CHUNK):
        rest = np.arange(start, min(start + _CHUNK, total))
        axes = np.empty((rest.size, d), dtype=np.intp)
        weights = np.ones(rest.size)
        for axis in range(d - 1, -1, -1):
            axes[:, axis] = rest % p
            weights *= wts[axes[:, axis]]
            rest //= p
        yield pts[axes], weights, axes


def _compile(net: ReluNetwork, pts: np.ndarray):
    """Per-axis tables and an outer 1-D CPL read from the weights alone.

    The network's value at grid point ``(pts[j_0], ..., pts[j_{d-1}])`` is
    ``outer(sum_a tables[a][j_a])``.  For d = 1 the table is ``pts`` and
    ``outer`` the whole network.  For d > 1 every first-layer row must see
    one coordinate and the second weight matrix must be rank 1,
    ``W2 = u v^T``: the tables are ``v . relu(W1 x + b1)`` split by axis and
    ``outer`` is the 1-D network ``((u, b2), *layers[2:])``.  Returns None
    when the weights have neither form.
    """
    if net.input_dim == 1:
        return [pts], net_to_cpl_exact(net, 0.0, 1.0)
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
    """Yield ``(|f - net|, weights)`` per chunk of ``_chunks``, in its order.

    The network is compiled once (see ``_compile``); one without a compiled
    form is evaluated densely.
    """
    if net.input_dim != grid.d:
        raise ShapeError("network input dimension must match the grid")
    pts, wts = _axis_points(grid)
    compiled = _compile(net, pts)
    for coords, weights, axes in _chunks(grid, pts, wts):
        fv = np.asarray(f(coords), dtype=float)
        if fv.shape != (coords.shape[0],):
            raise ShapeError("target must map (k, d) points to (k,) values")
        if compiled is None:
            nv = evaluate_batch(net, coords)
        else:
            tables, outer = compiled
            z = sum(t[j] for t, j in zip(tables, axes.T))
            nv = np.interp(z, outer.breaks, outer.values)
        yield np.abs(fv - nv), weights


def grid_errors(f, net: ReluNetwork, grid: GridSpec) -> tuple[float, float]:
    """``(L1, Linf)`` of ``f - net`` on the grid from one pass over its points.

    L1 is the composite quadrature estimate of ``integral |f - net|`` over the
    cube; Linf is the max over the grid points, a lower bound on the true sup.
    """
    total, worst = 0.0, 0.0
    for err, weights in _abs_errors(f, net, grid):
        total += float(np.sum(err * weights))
        worst = max(worst, float(np.max(err)))
    return total, worst


def l1_error(f, net: ReluNetwork, grid: GridSpec) -> float:
    """Composite quadrature estimate of ``integral |f - net|`` over the cube."""
    return grid_errors(f, net, grid)[0]


def linf_error(f, net: ReluNetwork, grid: GridSpec) -> float:
    """Max ``|f - net|`` over the grid points: a lower bound on the true sup."""
    return grid_errors(f, net, grid)[1]


# ---------------------------------------------------------------------------
# target families


def _cone(d: int, alpha: float, nu: float):
    center = np.full(d, 0.5)

    def f(points: np.ndarray) -> np.ndarray:
        return nu * np.linalg.norm(points - center, axis=1) ** alpha

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
    if not 0 < alpha <= 1:
        raise CertificateError("alpha must lie in (0, 1]")
    if nu <= 0:
        raise CertificateError("nu must be positive")
    if name == "linear" and alpha != 1:
        raise CertificateError("the linear family is certified only for alpha = 1")
    return HolderTarget(f=_FAMILIES[name](d, alpha, nu), d=d, alpha=alpha, nu=nu)


# ---------------------------------------------------------------------------
# rate fitting


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (ln N, ln error)."""

    pairs: tuple
    slope: float
    intercept: float
    r_squared: float


def rate_fit(pairs) -> RateFit:
    """Fit the empirical rate exponent; errors must be strictly positive."""
    pairs = tuple((int(n), float(e)) for n, e in pairs)
    if len(pairs) < 2:
        raise ShapeError("rate fitting needs at least two (N, error) pairs")
    if any(e <= 0 for _, e in pairs):
        raise ValueError("rate fitting needs strictly positive errors")
    if any(n < 1 for n, _ in pairs):
        raise ValueError("rate fitting needs positive N")
    x = np.log([n for n, _ in pairs])
    y = np.log([e for _, e in pairs])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return RateFit(pairs=pairs, slope=float(slope), intercept=float(intercept), r_squared=r2)
