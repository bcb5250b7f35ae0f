"""Per-training-step time and memory cost model for parallel execution.

Closed-form asymptotics for a width-N, depth-L network on m cores, in shared
and distributed memory.  All big-O prefactors collapse into one configurable
unit constant, so the model predicts shapes and ratios rather than seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .construct import _floor_power
from .errors import ShapeError, _integer

__all__ = [
    "CostParams",
    "ArchSpec",
    "shared_time",
    "dist_time",
    "shared_mem",
    "dist_mem",
    "param_count_widthvec",
    "regime_table",
    "COST_COLUMNS",
]


@dataclass(frozen=True)
class CostParams:
    """Communication constants: start-up time, per-word transfer time, unit flop cost."""

    t_s: float = 0.0
    t_w: float = 0.0
    c_flop: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.t_s) and math.isfinite(self.t_w) and math.isfinite(self.c_flop)):
            raise ValueError("cost parameters must be finite")
        if self.t_s < 0 or self.t_w < 0:
            raise ValueError("communication times must be nonnegative")
        if self.c_flop <= 0:
            raise ValueError("c_flop must be positive")


@dataclass(frozen=True)
class ArchSpec:
    """Width N, depth L, and core count m, each a positive integer."""

    N: int
    L: int
    m: int

    def __post_init__(self):
        for name in ("N", "L", "m"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, ShapeError))


def _ln_width(n: int) -> float:
    # ln(1) = 0 would predict zero time for a width-1 net; floor that case at 1
    return math.log(n) if n > 1 else 1.0


def shared_time(a: ArchSpec, p: CostParams) -> float:
    """Shared-memory time per training step.

    ``c L (N^2/m + max(ln(m/N), 0))`` while ``m <= N^2``, then the saturated
    ``c L ln N``.  The log term is clamped at zero: a negative addend inside
    the asymptotic expression has no physical meaning.
    """
    n, L, m = a.N, a.L, a.m
    if m > n * n:
        return p.c_flop * L * _ln_width(n)
    return p.c_flop * L * (n * n / m + max(math.log(m / n), 0.0))


def dist_time(a: ArchSpec, p: CostParams) -> float:
    """Distributed-memory time per training step.

    Adds the start-up and per-word transfer terms
    ``t_s ln m + t_w N ln(m)/sqrt(m)`` to the compute term while
    ``m <= N^2``.
    """
    n, L, m = a.N, a.L, a.m
    if m > n * n:
        return p.c_flop * L * _ln_width(n)
    comm = p.t_s * math.log(m) + p.t_w * n * math.log(m) / math.sqrt(m)
    return p.c_flop * L * (n * n / m + comm)


def shared_mem(a: ArchSpec, p: CostParams) -> float:
    """Total shared memory: ``c L N^2`` for every core count."""
    return p.c_flop * a.L * a.N * a.N


def dist_mem(a: ArchSpec, p: CostParams) -> float:
    """Distributed memory per core: ``c (L N^2 / m + 1)``."""
    return p.c_flop * (a.L * a.N * a.N / a.m + 1.0)


def param_count_widthvec(widthvec, d_in: int) -> int:
    """Exact affine parameter count of a widthvec architecture with scalar output."""
    count = 0
    prev = d_in
    for w in widthvec:
        count += w * (prev + 1)
        prev = w
    return count + (prev + 1)


# the three architecture families compared in the regime tables
COST_COLUMNS = [
    "family",
    "N",
    "L",
    "m",
    "T_shared",
    "T_dist",
    "M_shared",
    "M_dist_per_core",
    "n_weights",
]


def _families(N: int, L: int, d: int):
    n = _floor_power(N, d)
    shallow = [2 * d * n, 2 * N, 2 * N]
    deep_uniform = [N] * L
    fixed_width = [2 * d + 10] * N
    return [
        ("shallow-3layer", shallow, N, 3),
        ("uniform-depthL", deep_uniform, N, L),
        ("fixed-width-depthN", fixed_width, 2 * d + 10, N),
    ]


def regime_table(archs, p: CostParams, d: int = 2) -> list:
    """Evaluate all four costs for the three families at each (N, L, m).

    Each input :class:`ArchSpec` expands into one row per family: the
    three-hidden-layer construction ``[2d n, 2N, 2N]``, the uniform
    ``[N]^L``, and the fixed-width ``[2d+10]^N``.  Rows are dicts keyed by
    :data:`COST_COLUMNS`.
    """
    rows = []
    for arch in archs:
        for family, widthvec, width_char, depth_char in _families(arch.N, arch.L, d):
            eff = ArchSpec(width_char, depth_char, arch.m)
            rows.append(
                {
                    "family": family,
                    "N": arch.N,
                    "L": arch.L,
                    "m": arch.m,
                    "T_shared": shared_time(eff, p),
                    "T_dist": dist_time(eff, p),
                    "M_shared": shared_mem(eff, p),
                    "M_dist_per_core": dist_mem(eff, p),
                    "n_weights": param_count_widthvec(widthvec, d),
                }
            )
    return rows
