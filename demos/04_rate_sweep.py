#!/usr/bin/env python3
"""Measure how fast the error decays as the width budget N grows.

One composition buys a square: where a one-hidden-layer interpolant on N+1
nodes decays like N^(-r), the two-hidden-layer construction reaches roughly
N^(-2r), because its grid effectively carries N^2 well-placed samples for
the same N.  A curved target makes the gap visible; a target the networks
can represent exactly (any piecewise-linear function whose kinks land on the
grid, e.g. the alpha = 1 cone) collapses every error to the f64 noise floor
and no rate can be fitted at all.
"""

import numpy as np

from reluconstruct import (
    GridSpec,
    SampleSet,
    build_1d,
    holder_family,
    l1_error,
    lemma1_interpolant,
    rate_fit,
)

alpha = 0.5
tgt = holder_family("cone", 1, alpha, 1.0)
grid = GridSpec(1, 10**6)
ns = (2, 4, 8, 16, 32)

print(f"target: |x - 1/2|^{alpha} on [0, 1]\n")
print(f"{'N':>4} {'one-hidden L1':>14} {'two-hidden L1':>14}")
shallow, deep = [], []
for big_n in ns:
    nodes = np.arange(big_n + 1) / big_n
    one = lemma1_interpolant(SampleSet(nodes, tgt(nodes[:, None])))
    e1 = l1_error(tgt, one, grid)
    two = build_1d(tgt, big_n).net
    e2 = l1_error(tgt, two, grid)
    shallow.append((big_n, e1))
    deep.append((big_n, e2))
    print(f"{big_n:4d} {e1:14.3e} {e2:14.3e}")

fit1 = rate_fit(shallow)
fit2 = rate_fit(deep)
print(f"\nfitted slopes (log error vs log N):")
print(f"  one hidden layer : {fit1.slope:+.2f}   (r^2 = {fit1.r_squared:.4f})")
print(f"  two hidden layers: {fit2.slope:+.2f}   (r^2 = {fit2.r_squared:.4f})")
print(f"  ratio: {fit2.slope / fit1.slope:.2f}x faster decay from one extra composition")

print("\nthe same sweep on the alpha = 1 cone (kinks on the grid) for contrast:")
exact_tgt = holder_family("cone", 1, 1.0, 1.0)
for big_n in (2, 8, 32):
    err = l1_error(exact_tgt, build_1d(exact_tgt, big_n).net, grid)
    print(f"  N = {big_n:2d}: measured L1 = {err:.2e}  (noise floor, no rate to fit)")
