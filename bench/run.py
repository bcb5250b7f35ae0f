#!/usr/bin/env python3
"""Benchmark of reluconstruct, run from the root of a source checkout.

    python3 bench/run.py --workload sweep-d1 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all     # every workload, one table, cost fit
    python3 bench/run.py --write-reference  # store the reference-seed outputs

One process runs one workload as a closed loop: each operation starts after
the previous one completed.  One untimed warm-up pass runs first, then whole
passes until ``--seconds`` have elapsed.  Every pass checks every output.
With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it reports the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import time

_START = time.perf_counter()

# Fixed before numpy loads.  Every workload runs one thread (the sweep one
# worker), so worker threads times BLAS threads stay within nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SPEC = BENCH.parent / "BENCHMARK.json"
# set-up is timed in this many fresh interpreters, one before the first pass
# and the others spread evenly over the run; the median is reported.
# Spreading them samples the host's slow load swings, not one moment.
SETUP_PROBES = 9
# layer self times minus thread overlap must cover the traced wall time
ACCOUNT_SLACK = 0.01
CHILD_TIMEOUT_S = 600


def load_library():
    """Import reluconstruct from this checkout's ``src``, or exit non-zero."""
    package = SRC / "reluconstruct"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no library source at {package}")
    sys.path.insert(0, str(SRC))
    import reluconstruct

    if Path(reluconstruct.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported reluconstruct from {reluconstruct.__file__}, not {package}")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def setup(workload: str, seed: int):
    """Draw the inputs and bind them; return (steps, seconds since start-up)."""
    import workloads

    inputs = workloads.make_inputs(workload, seed)
    steps = workloads.make_steps(workload, inputs, OUT)
    return steps, time.perf_counter() - _START


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds of one fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    r = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S)
    return float(r.stdout.split()[-1])


def _getconf(name: str):
    try:
        r = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(r.stdout.strip())
    except (OSError, subprocess.SubprocessError, ValueError):
        return None


def machine_facts(widest: int | None) -> dict:
    import numpy as np
    from reluconstruct import metrics

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    chunk = getattr(metrics, "_CHUNK", None)
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "l2_bytes_per_core": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes_shared": _getconf("LEVEL3_CACHE_SIZE"),
        "chunk_rows": chunk,
        # one f64 activation matrix of the widest layer on one grid chunk
        "widest_gridded_layer": widest,
        "chunk_working_set_mib": chunk * widest * 8 / 2**20 if chunk and widest else None,
        "not_controlled": "file cache, CPU pinning and co-tenant load: the benchmark "
                          "runs without the rights to drop caches, pin CPUs or isolate "
                          "the machine",
    }


def run_pass(steps, lib, tracer, reference, tally) -> float:
    import workloads

    t0 = time.perf_counter()
    for step in steps:
        with tracer.span("bench.op") if tracer else nullcontext():
            tally.add(workloads.run_step(step, lib, reference))
    return time.perf_counter() - t0


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for this mode."""
    with open(SPEC) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args) -> int:
    steps, _ = setup(args.workload, args.seed)
    import layers
    import workloads
    from spans import Tracer

    units = declared_metrics(args.trace)
    setup_samples = [] if args.trace else [probe_setup(args.workload, args.seed)]
    reference = None
    if args.seed == workloads.REFERENCE_SEED:
        reference = workloads.load_reference(args.workload)
    OUT.mkdir(exist_ok=True)
    tally = workloads.Tally()
    lib = layers.plain_lib()
    warmup = [run_pass(steps, lib, None, reference, tally)  # checked, not timed
              for _ in range(workloads.WARMUP_PASSES[args.workload])]

    tracer = Tracer() if args.trace else None
    plain, traced = [], []
    # whole passes until the measured time, plus half a typical round, reaches
    # --seconds: a run measures --seconds give or take half a pass
    while True:
        plain.append(run_pass(steps, lib, None, reference, tally))
        if tracer:
            with layers.instrumented(tracer) as tlib:
                traced.append(run_pass(steps, tlib, tracer, reference, tally))
        rounds = len(plain)
        measured = sum(plain) + sum(traced)
        if not args.trace and len(setup_samples) < 1 + int(
                (SETUP_PROBES - 1) * measured / args.seconds):
            setup_samples.append(probe_setup(args.workload, args.seed))
        if measured + 0.5 * measured / rounds >= args.seconds:
            break
    while not args.trace and len(setup_samples) < SETUP_PROBES:
        setup_samples.append(probe_setup(args.workload, args.seed))

    correct = tally.failed == 0
    widest = None
    if args.workload in workloads.GRID_WORKLOADS:
        widest = max(max(r.widths, default=0) for r in tally.last.values())
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "pass_wall_s": {"warmup": warmup, "plain": plain, "traced": traced},
        "setup_samples_s": setup_samples,
        "outputs": {name: r.values for name, r in tally.last.items()},
        "failures": tally.failures,
        "machine": machine_facts(widest),
    }
    if tracer:
        per = layers.layer_metrics(tracer.spans, len(traced))
        per["trace.wall_s"] = statistics.median(traced)
        per["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        mean_wall = sum(traced) / len(traced)
        per["trace.accounted_frac"] = (per["trace.self_sum_s"]
                                       - per["trace.parallel_excess_s"]) / mean_wall
        if abs(per["trace.accounted_frac"] - 1.0) > ACCOUNT_SLACK:
            correct = False
            details["failures"]["trace accounting"] = per["trace.accounted_frac"]
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans_path, "w") as fh:
            json.dump(tracer.as_document(), fh)
        details["spans_file"] = str(spans_path.relative_to(BENCH.parent))
        details["self_share"] = _self_shares(per)
        values = per
    else:
        values = {
            "wall_s": statistics.median(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1.0 - tally.failed / tally.attempted,
            "setup_s": statistics.median(setup_samples),
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps(details, indent=1))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def _self_shares(per: dict) -> dict:
    """Each layer's share of the summed self time."""
    parts = {
        "network": per["network.eval_s"],
        "metrics (grid, reduction)": per["metrics.self_s"],
        "target": per["metrics.target_s"],
        "construct": per["construct.self_s"],
        "cpl": per["cpl.self_s"],
        "cli": per["cli.self_s"],
        "bench": per["bench.self_s"],
    }
    total = per["trace.self_sum_s"]
    return {k: round(v / total, 4) for k, v in parts.items()}


def run_all(args) -> int:
    """Each workload in its own process, so peak memory belongs to it."""
    import costfit
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if r.returncode != 0:
            sys.stderr.write(r.stderr)
            sys.exit(f"bench: {workload} exited with {r.returncode}")
        result = json.loads(r.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
        rows.append((workload, result))

    for workload, result in rows:
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
        print(f"  {'fail_frac':32s} {result['failed'] / result['attempted']:.6g} fraction")
    fit = costfit.calibrate()
    print(f"cost model at m=1: c_flop {fit['c_flop_s_per_unit']:.4g} s per unit "
          f"({fit['rows_per_call']} rows), r^2 {fit['r_squared']:.3f}, "
          f"T proportional to L*N^2 holds: {fit['holds']}")
    for family, c in fit["c_flop_by_family"].items():
        print(f"  {family:20s} c_flop {c:.4g} s per unit")
    print(json.dumps(fit))
    print(json.dumps(combined))
    return 0


def write_reference() -> int:
    import layers
    import workloads

    values = {}
    for workload in workloads.WORKLOADS:
        inputs = workloads.make_inputs(workload, workloads.REFERENCE_SEED)
        OUT.mkdir(exist_ok=True)
        steps = workloads.make_steps(workload, inputs, OUT)
        tally = workloads.Tally()
        run_pass(steps, layers.plain_lib(), None, None, tally)
        if tally.failed:
            sys.exit(f"bench: {workload} failed at the reference seed: {tally.failures}")
        values[workload] = {name: r.values for name, r in tally.last.items()}
    workloads.write_reference(values)
    print(f"wrote {workloads.REFERENCE_FILE}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["sweep-d1", "verify-dd", "construct-large", "all"],
                    default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time import and input generation only, print the seconds")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.setup_only and args.workload == "all":
        ap.error("--setup-only needs one workload")
    load_library()
    if args.setup_only:
        print(repr(setup(args.workload, args.seed)[1]))
        return 0
    if args.write_reference:
        return write_reference()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
