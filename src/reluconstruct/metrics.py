"""Error measurement on the unit cube, target families, and rate fitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construct import HolderTarget
from .errors import CertificateError, RegistryError, ResourceError, ShapeError
from .network import ReluNetwork, evaluate_batch

__all__ = [
    "GridSpec",
    "RateFit",
    "default_grid",
    "l1_error",
    "linf_error",
    "holder_family",
    "rate_fit",
]

# evaluation happens in fixed-size chunks in index order, so sums are
# bit-stable regardless of how callers parallelize around this module
_CHUNK = 1 << 18


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


def _chunks(grid: GridSpec):
    """Yield (points (k, d), weights (k,)) in a fixed deterministic order."""
    pts, wts = _axis_points(grid)
    p, d = grid.points_per_axis, grid.d
    total = grid.total_points
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total))
        coords = np.empty((idx.size, d))
        weights = np.ones(idx.size)
        rest = idx.copy()
        for axis in range(d - 1, -1, -1):
            j = rest % p
            coords[:, axis] = pts[j]
            weights *= wts[j]
            rest //= p
        yield coords, weights


def _diff_values(f, net: ReluNetwork, coords: np.ndarray) -> np.ndarray:
    fv = np.asarray(f(coords), dtype=float)
    if fv.shape != (coords.shape[0],):
        raise ShapeError("target must map (k, d) points to (k,) values")
    return np.abs(fv - evaluate_batch(net, coords))


def l1_error(f, net: ReluNetwork, grid: GridSpec) -> float:
    """Composite quadrature estimate of ``integral |f - net|`` over the cube."""
    if net.input_dim != grid.d:
        raise ShapeError("network input dimension must match the grid")
    total = 0.0
    for coords, weights in _chunks(grid):
        total += float(np.sum(_diff_values(f, net, coords) * weights))
    return total


def linf_error(f, net: ReluNetwork, grid: GridSpec) -> float:
    """Max ``|f - net|`` over the grid points: a lower bound on the true sup."""
    if net.input_dim != grid.d:
        raise ShapeError("network input dimension must match the grid")
    worst = 0.0
    for coords, _ in _chunks(grid):
        worst = max(worst, float(np.max(_diff_values(f, net, coords))))
    return worst


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
