"""Calibrate the cost model's unit constant against measured forward time.

At m = 1 the shared-memory model predicts ``c_flop * L * N^2`` per step for
each of the three ``regime_table`` families.  This times single-core
``evaluate_batch`` on random networks with those widthvecs, fits ``c_flop``
(seconds per unit, through the origin) and reports r^2 of the fit.  It is a
report-only diagnostic, not a gated metric.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from reluconstruct import ArchSpec, CostParams, ReluNetwork, evaluate_batch, shared_time
from reluconstruct import costmodel

WIDTHS = (16, 32, 64, 128)
DEPTH = 4
D_IN = 2
ROWS = 4096
REPEATS = 5
# the proportionality is taken to hold when the fit explains this much
R2_HOLDS = 0.9


def _random_net(rng, widthvec, d_in: int) -> ReluNetwork:
    layers = []
    prev = d_in
    for width in [*widthvec, 1]:
        layers.append((rng.normal(size=(width, prev)) / np.sqrt(prev), rng.normal(size=width)))
        prev = width
    return ReluNetwork(d_in, tuple(layers))


def calibrate(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    xs = rng.random((ROWS, D_IN))
    samples = []
    # the families are the model's own widthvecs; only the table is public
    for big_n in WIDTHS:
        for family, widthvec, width, depth in costmodel._families(big_n, DEPTH, D_IN):
            net = _random_net(rng, widthvec, D_IN)
            evaluate_batch(net, xs)
            times = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                evaluate_batch(net, xs)
                times.append(time.perf_counter() - t0)
            predicted = shared_time(ArchSpec(width, depth, 1), CostParams())
            samples.append({"family": family, "N": big_n, "widthvec_len": len(widthvec),
                            "units": predicted, "seconds": statistics.median(times)})
    p = np.array([s["units"] for s in samples])
    t = np.array([s["seconds"] for s in samples])
    c_flop = float(p @ t / (p @ p))
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    r2 = 1.0 - float(np.sum((t - c_flop * p) ** 2)) / ss_tot
    by_family = {}
    for s in samples:
        by_family.setdefault(s["family"], []).append(s["seconds"] / s["units"])
    return {"c_flop_s_per_unit": c_flop, "r_squared": r2, "holds": r2 >= R2_HOLDS,
            "c_flop_by_family": {f: statistics.median(v) for f, v in by_family.items()},
            "rows_per_call": ROWS, "depth_L": DEPTH, "d_in": D_IN, "samples": samples}
