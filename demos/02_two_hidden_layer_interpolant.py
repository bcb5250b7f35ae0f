#!/usr/bin/env python3
"""Watch the two-hidden-layer construction zero its residual stage by stage.

With m*(n+1)+1 nonnegative samples, a width-[2m, 2n+1] network reproduces
every sample and stays linear everywhere except inside m narrow "don't-care"
intervals.  The first hidden layer pins 2m+1 shared break points; each
second-layer unit pair then kills the residual at one more point per block,
and the trace below shows the residual count dropping to zero.
"""

import numpy as np

from reluconstruct import (
    Lemma2Plan,
    SampleSet,
    evaluate_batch,
    lemma2_interpolant,
    lemma2_sup_bound,
)

m, n = 4, 4
rng = np.random.default_rng(2024)
count = m * (n + 1) + 1
xs = np.cumsum(rng.uniform(0.5, 1.5, count))
xs = (xs - xs[0]) / (xs[-1] - xs[0])
ys = rng.uniform(0.0, 2.0, count)

net, trace = lemma2_interpolant(Lemma2Plan(m, n, SampleSet(xs, ys, m, n)), residuals=True)
print(f"widths: {net.hidden_widths} for {count} samples (m={m}, n={n})")

print("\nresidual after each stage (max |f_k| over the grid, and zeros):")
for k, res in enumerate(trace.residuals):
    zeros = int(np.sum(np.abs(res) <= 1e-9))
    print(f"  stage {k}: max {np.max(np.abs(res)):9.3e}   zero at {zeros:2d}/{count} grid points")

print("\nsign classes per stage (block indices sent to the + side):")
for k, lam in enumerate(trace.lambda_plus, start=1):
    print(f"  stage {k}: {sorted(map(int, lam))}")

node_err = np.max(np.abs(evaluate_batch(net, xs) - ys))
dense = np.linspace(0.0, 1.0, 100001)
sup = np.max(np.abs(evaluate_batch(net, dense)))
bound = lemma2_sup_bound(xs, m, n, float(ys.max()))
print(f"\nmax node error: {node_err:.2e}")
print(f"sup over [0,1]: {sup:.4f}  <=  grid-ratio bound {bound:.4f}")

dont_care = [(xs[j * (n + 1) - 1], xs[j * (n + 1)]) for j in range(1, m + 1)]
print("don't-care intervals (the only places the fit may wander):")
for lo, hi in dont_care:
    print(f"  [{lo:.4f}, {hi:.4f}]  width {hi - lo:.4f}")
