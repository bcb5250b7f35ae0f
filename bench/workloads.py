"""Workload inputs, operations and output checks.

Every input is drawn from the benchmark seed; the library only receives the
generated values.  Each workload drives a different set of modules:

- ``sweep-d1``: the ``sweep`` command in-process, d = 1, N = 8..64 on a
  250 000-point grid (one evaluation chunk at N = 64) with one worker
  thread.  Two grid passes per N (``l1_error`` then ``linf_error``)
  dominate, so it exercises the 1-D evaluation path and chunk sizing and
  bypasses anything specific to d > 1.
- ``verify-dd``: ``build_dd`` + ``l1_error`` in one thread, d = 2 on a
  1024^2 grid and one d = 3 case on a 64^3 grid.  Three-hidden-layer
  networks with wide middle layers on a grid spread over several axes: the
  axis-separable path, not the 1-D one, and ``l1_error`` only.
- ``construct-large``: construction with no grid quadrature: ``build_1d`` at
  N = 128 and 256, ``corollary32_check`` on random CPLs, ``lemma2_interpolant``
  on random grids.  ``construct`` and ``cpl`` do the work; an evaluator change
  should leave it unchanged.

An operation fails when it raises, breaks its paper guarantee, or (at the
reference seed only) differs from the stored reference output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
import traceback
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from reluconstruct import CplFunction, GridSpec, Lemma2Plan, SampleSet, cpl_sup, lemma2_sup_bound

WORKLOADS = ("sweep-d1", "verify-dd", "construct-large")
# untimed passes before timing starts.  On a 2-core Xeon the first
# construct-large and sweep-d1 passes ran 10-30% slower than later ones.
WARMUP_PASSES = {"sweep-d1": 1, "verify-dd": 1, "construct-large": 1}
# workloads whose networks are evaluated on a chunked quadrature grid
GRID_WORKLOADS = ("sweep-d1", "verify-dd")

# alpha < 1 keeps the cone curved, so the errors sit above the f64 floor
ALPHA_RANGE = (0.3, 0.9)
SWEEP_NS = (8, 16, 32, 64)
# a quarter of the default 1e6-point grid keeps a pass near 3 s, so a run
# takes its median over several passes
SWEEP_POINTS = 250_000
# One worker.  With two on the two cores of a shared host, whether the
# N = 32 and N = 64 chunks overlapped decided peak memory: it spread by
# 13.6% over ten runs, against 0.2% with one worker.
SWEEP_THREADS = 1
# (d, N, points per axis); d = 3, N = 27 gives n = 9, inside the n <= 16 cap.
# 1024^2 rather than the default 2048^2 keeps a pass near 4 s.
DD_CASES = ((2, 4, 1024), (2, 9, 1024), (2, 16, 1024), (3, 27, 64))
BUILD_NS = (128, 256)
# the (m, n) of acceptance criterion 6, then larger
CLOSURE_SIZES = ((2, 2), (3, 4), (4, 4), (8, 8), (16, 16))
CLOSURE_EPS = 1e-3
LEMMA2_SIZES = ((16, 16), (32, 32), (64, 64))
# sample values are O(1); seeds 0-29 gave node errors up to 3.5e-9 at (64, 64)
NODE_TOL = 1e-8
# node error of build_1d is checked on about this many nodes
NODE_SAMPLE = 2048

# Outputs at the reference seed must match the stored ones within
# ATOL + RTOL * |reference|.  That admits the fast paths measured so far
# (1.3e-13 absolute for a compiled 1-D evaluator, 1.8e-11 relative for an
# axis-separable one) and catches a path that measures something else.
REFERENCE_SEED = 0
ATOL = 1e-11
RTOL = 1e-9
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


@dataclass
class OpResult:
    name: str
    values: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    widths: list = field(default_factory=list)


@dataclass
class Step:
    """One unit of work; it reports one result per name in ``ops``."""

    ops: list
    run: Callable


def _alpha(rng) -> float:
    return float(rng.uniform(*ALPHA_RANGE))


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs as plain JSON-able data, drawn from ``seed`` only."""
    rng = np.random.default_rng(seed)
    if workload == "sweep-d1":
        return {"alpha": _alpha(rng), "N": list(SWEEP_NS), "points": SWEEP_POINTS}
    if workload == "verify-dd":
        return {"cases": [{"d": d, "N": n, "points": p, "alpha": _alpha(rng)}
                          for d, n, p in DD_CASES]}
    if workload == "construct-large":
        builds = [{"N": n, "alpha": _alpha(rng)} for n in BUILD_NS]
        closures = []
        for m, n in CLOSURE_SIZES:
            pieces = m * n + 1
            # spacing drawn as gaps keeps breaks apart at every size
            gaps = np.cumsum(rng.uniform(0.5, 1.5, pieces))
            inner = 0.03 + 0.94 * gaps[:-1] / gaps[-1]
            closures.append({
                "m": m, "n": n,
                "breaks": [0.0, *inner.tolist(), 1.0],
                "values": rng.uniform(-1.0, 1.0, pieces + 1).tolist(),
            })
        lemma2 = []
        for m, n in LEMMA2_SIZES:
            xs = np.cumsum(rng.uniform(0.5, 1.5, m * (n + 1) + 1))
            xs = (xs - xs[0]) / (xs[-1] - xs[0])
            lemma2.append({"m": m, "n": n, "xs": xs.tolist(),
                           "ys": rng.uniform(0.0, 2.0, xs.size).tolist()})
        return {"builds": builds, "closures": closures, "lemma2": lemma2}
    raise ValueError(f"unknown workload {workload!r}")


def make_steps(workload: str, inputs: dict, scratch_dir: Path) -> list[Step]:
    """Bind the inputs into library objects and operations."""
    if workload == "sweep-d1":
        return [_sweep_step(inputs["alpha"], inputs["N"], inputs["points"], scratch_dir)]
    if workload == "verify-dd":
        return [_dd_step(**case) for case in inputs["cases"]]
    steps = [_build_step(b["N"], b["alpha"]) for b in inputs["builds"]]
    for c in inputs["closures"]:
        g = CplFunction(np.array(c["breaks"]), np.array(c["values"]))
        steps.append(_closure_step(c["m"], c["n"], g))
    for c in inputs["lemma2"]:
        m, n = c["m"], c["n"]
        plan = Lemma2Plan(m, n, SampleSet(np.array(c["xs"]), np.array(c["ys"]), m, n))
        steps.append(_lemma2_step(plan))
    return steps


def _floor_root(value: int, d: int) -> int:
    """Largest integer n with n**d <= value."""
    n = int(round(value ** (1.0 / d)))
    while (n + 1) ** d <= value:
        n += 1
    while n ** d > value:
        n -= 1
    return n


def _read_sweep_csv(path: str) -> dict:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return {int(row["N"]): row for row in csv.DictReader(lines)}


def _sweep_step(alpha: float, ns: list, points: int, scratch_dir: Path) -> Step:
    def run(lib):
        with tempfile.TemporaryDirectory(dir=scratch_dir) as tmp:
            out = os.path.join(tmp, "sweep.csv")
            argv = ["sweep", "--target", "cone", "--d", "1", "--alpha", repr(alpha),
                    "--N", *map(str, ns), "--grid-points", str(points),
                    "--threads", str(SWEEP_THREADS), "--out", out]
            with redirect_stdout(io.StringIO()):
                code = lib.cli_main(argv)
            rows = _read_sweep_csv(out)
        results = []
        for n in ns:
            res = OpResult(f"N={n}")
            results.append(res)
            if code != 0:
                res.problems.append(f"sweep exit code {code}")
            row = rows.get(n)
            if row is None or row["pass"] != "True":
                res.problems.append(f"row pass={row and row['pass']!r}")
                continue
            l1, linf, bound = float(row["l1"]), float(row["linf"]), float(row["bound"])
            res.values = {"l1": l1, "linf": linf}
            res.widths = [int(w) for w in row["widthvec"].split("x")]
            if not l1 <= bound:
                res.problems.append(f"l1 {l1:.6g} above bound {bound:.6g}")
            if res.widths != [2 * n, 2 * n + 1]:
                res.problems.append(f"widths {res.widths} != [2N, 2N+1]")
        return results

    return Step([f"N={n}" for n in ns], run)


def _dd_step(d: int, N: int, points: int, alpha: float) -> Step:
    name = f"d{d}-N{N}"

    def run(lib):
        target = lib.holder_family("cone", d, alpha, 1.0)
        c = lib.build_dd(target, N)
        l1 = lib.l1_error(target, c.net, GridSpec(d, points))
        res = OpResult(name, {"l1": l1}, widths=c.net.hidden_widths)
        if not l1 <= c.bound:
            res.problems.append(f"l1 {l1:.6g} above bound {c.bound:.6g}")
        limit = [2 * d * _floor_root(N * N, d), 2 * N + 2, 2 * N + 3]
        if len(res.widths) != 3 or any(w > cap for w, cap in zip(res.widths, limit)):
            res.problems.append(f"widths {res.widths} exceed {limit}")
        return [res]

    return Step([name], run)


def _node_sample(count: int, big_n: int) -> np.ndarray:
    """Every k-th construction node plus both edges of every don't-care sliver."""
    stride = math.ceil(count / NODE_SAMPLE)
    edges = np.arange(1, big_n + 1) * (big_n + 1)
    return np.unique(np.concatenate((np.arange(0, count, stride), edges - 1, edges)))


def _build_step(N: int, alpha: float) -> Step:
    name = f"build-N{N}"

    def run(lib):
        target = lib.holder_family("cone", 1, alpha, 1.0)
        c = lib.build_1d(target, N)
        xs = c.grid[_node_sample(c.grid.size, N)]
        node_err = float(np.max(np.abs(lib.evaluate_batch(c.net, xs) - target(xs[:, None]))))
        res = OpResult(name, {"node_err": node_err}, widths=c.net.hidden_widths)
        if not node_err <= NODE_TOL:
            res.problems.append(f"node error {node_err:.3e} above {NODE_TOL:.0e}")
        if res.widths != [2 * N, 2 * N + 1]:
            res.problems.append(f"widths {res.widths} != [2N, 2N+1]")
        if not 0.0 < c.delta.delta < 0.5 / (N * N):
            res.problems.append(f"delta {c.delta.delta!r} not below half the grid gap")
        return [res]

    return Step([name], run)


def _closure_step(m: int, n: int, g: CplFunction) -> Step:
    name = f"closure-{m}x{n}"

    def run(lib):
        net, err = lib.corollary32_check(g, m, n, CLOSURE_EPS)
        res = OpResult(name, {"closure_err": err}, widths=net.hidden_widths)
        if not err <= CLOSURE_EPS:
            res.problems.append(f"closure error {err:.3e} above {CLOSURE_EPS:.0e}")
        if res.widths != [2 * m, 2 * n + 1]:
            res.problems.append(f"widths {res.widths} != [2m, 2n+1]")
        return [res]

    return Step([name], run)


def _lemma2_step(plan: Lemma2Plan) -> Step:
    m, n = plan.m, plan.n
    xs, ys = plan.samples.xs, plan.samples.ys
    name = f"lemma2-{m}x{n}"

    def run(lib):
        net, _ = lib.lemma2_interpolant(plan)
        node_err = float(np.max(np.abs(lib.evaluate_batch(net, xs) - ys)))
        sup = cpl_sup(lib.net_to_cpl_exact(net, 0.0, 1.0), 0.0, 1.0)
        bound = lemma2_sup_bound(xs, m, n, float(ys.max()))
        res = OpResult(name, {"node_err": node_err, "sup": sup}, widths=net.hidden_widths)
        if not node_err <= NODE_TOL:
            res.problems.append(f"node error {node_err:.3e} above {NODE_TOL:.0e}")
        if not sup <= bound:
            res.problems.append(f"sup {sup:.6g} above the grid-ratio bound {bound:.6g}")
        if res.widths != [2 * m, 2 * n + 1]:
            res.problems.append(f"widths {res.widths} != [2m, 2n+1]")
        return [res]

    return Step([name], run)


def compare(values: dict, reference: dict) -> list[str]:
    """Mismatches of ``values`` against reference outputs of the same operation."""
    problems = []
    for key, ref in reference.items():
        got = values.get(key)
        if got is None or not abs(got - ref) <= ATOL + RTOL * abs(ref):
            problems.append(f"{key} {got!r} differs from reference {ref!r}")
    return problems


def run_step(step: Step, lib, reference: dict | None) -> list[OpResult]:
    """Run one step; an exception fails every operation of the step.

    With ``reference`` (operation name -> values) each result is also
    compared with its stored outputs.
    """
    try:
        results = step.run(lib)
    except Exception:  # the benchmark records the failure and keeps running
        message = traceback.format_exc(limit=3).strip().splitlines()[-1]
        return [OpResult(name, problems=[f"raised {message}"]) for name in step.ops]
    if reference is not None:
        for res in results:
            if res.name not in reference:
                res.problems.append("no reference output stored")
            else:
                res.problems.extend(compare(res.values, reference[res.name]))
    return results


class Tally:
    """Attempted and failed operation counts, the failure messages, the last results."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()
        self.last = {}

    def add(self, results):
        for res in results:
            self.attempted += 1
            self.last[res.name] = res
            if res.problems:
                self.failed += 1
                for p in res.problems:
                    self.failures[f"{res.name}: {p}"] += 1


def load_reference(workload: str) -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)["values"][workload]


def write_reference(values: dict):
    """Store ``{workload: {operation: outputs}}`` for the reference seed."""
    doc = {"seed": REFERENCE_SEED, "values": values}
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
