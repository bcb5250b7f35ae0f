"""Command-line entry point for reproducible construction experiments.

Commands: ``construct`` (build one approximant and write the network file
plus a metadata sidecar), ``sweep`` (construct across N, measure, fit the
empirical rate), ``cost`` (regime table CSV), ``check`` (seeded property
suites with a JUnit-style report), and ``eval`` (evaluate a stored network
on stdin vectors).  Exit codes: 0 success, 1 property/bound failure, 2 usage
error, 3 construction infeasible.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .construct import (
    Construction,
    DeltaPolicy,
    EMPIRICAL_SHRINK,
    HolderTarget,
    Lemma2Plan,
    build_1d,
    build_dd,
    choose_delta,
    corollary32_check,
    lemma2_interpolant,
    lemma2_sup_bound,
)
from .cpl import CplFunction, SampleSet, lemma1_interpolant, net_to_cpl_exact
from .costmodel import ArchSpec, CostParams, COST_COLUMNS, dist_time, regime_table, shared_time
from .errors import ConstructionInfeasibleError, RegistryError, ShapeError
# linf_error is unused here but stays importable as a name a tracer patches
# (the benchmark's patches cli.l1_error and cli.linf_error)
from .metrics import (GridSpec, _grid_metrics, default_grid, holder_family, l1_error, linf_error,
                      rate_fit)
from .network import _write_network, deserialize, evaluate_batch, parameter_count

# errors at or below this are treated as exact in rate summaries
RATE_ERROR_FLOOR = 1e-9

SWEEP_COLUMNS = ["name", "d", "alpha", "nu", "N", "widthvec", "l1", "linf", "bound", "pass"]

# the measured columns of a sweep row whose construction failed
_FAILED_ROW = {"widthvec": "", "l1": "", "linf": "", "bound": ""}


# the arguments construct and sweep echo into their outputs
CONFIG_KEYS = ["target", "d", "alpha", "nu", "N", "delta_mode", "delta_floor", "delta_target",
               "seed", "grid_points"]


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _widthvec_str(widths) -> str:
    return "x".join(str(w) for w in widths)


def _config_dict(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys}


def _write_json(path: str, doc: dict):
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, columns, rows, config: dict):
    buf = io.StringIO()
    buf.write("# " + json.dumps({"config": config, "version": __version__}, sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) if not isinstance(row[c], str) else row[c] for c in columns])
    with open(path, "w", newline="\n") as fh:
        fh.write(buf.getvalue())


def _inputs(args) -> tuple[HolderTarget, DeltaPolicy, GridSpec]:
    """The target, delta policy and grid the arguments name, built in that order."""
    target = holder_family(args.target, args.d, args.alpha, args.nu)
    policy = DeltaPolicy(mode=args.delta_mode, floor=args.delta_floor, target=args.delta_target)
    grid = default_grid(args.d) if args.grid_points is None else GridSpec(args.d, args.grid_points)
    return target, policy, grid


def _build(target: HolderTarget, big_n: int, policy: DeltaPolicy) -> Construction:
    # resolve the builders at call time: the benchmark's tracer patches them
    build = build_1d if target.d == 1 else build_dd
    return build(target, big_n, policy)


# ---------------------------------------------------------------------------
# construct


def _infeasible_record(e: ConstructionInfeasibleError) -> dict:
    return {"error": "construction-infeasible", "message": str(e), "achieved": e.achieved,
            "delta": e.delta}


def _check_writable(path: str):
    """Raise OSError unless a file can be written at ``path``, writing nothing."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise FileNotFoundError(f"no directory {folder!r} for {path!r}")
    if os.path.isdir(path) or not os.access(folder, os.W_OK):
        raise PermissionError(f"cannot write {path!r}")


def cmd_construct(args) -> int:
    config = _config_dict(args, CONFIG_KEYS)
    target, policy, grid = _inputs(args)
    meta_path = args.meta or (args.out + ".meta.json")
    for path in (args.out, meta_path):
        _check_writable(path)
    try:
        c = _build(target, args.N, policy)
    except ConstructionInfeasibleError as e:
        if args.meta:
            _write_json(args.meta, {**_infeasible_record(e), "config": config,
                                    "version": __version__})
        raise
    measured = l1_error(target, c.net, grid)
    with open(args.out, "wb") as fh:
        _write_network(c.net, fh)
    sidecar = {
        "config": config,
        "version": __version__,
        "widthvec": c.net.hidden_widths,
        "n_parameters": parameter_count(c.net),
        "delta": c.delta.delta,
        "delta_clamped": c.delta.clamped,
        "bound": c.bound,
        "measured_l1": measured,
        "grid": {"rule": "midpoint", "points_per_axis": grid.points_per_axis},
    }
    _write_json(meta_path, sidecar)
    print(f"wrote {args.out} (widthvec {_widthvec_str(c.net.hidden_widths)}, "
          f"l1 {measured:.6g} <= bound {c.bound:.6g}: {measured <= c.bound})")
    return 0 if measured <= c.bound else 1


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    # thread count is an execution detail: outputs must be byte-identical
    # across worker counts, so it stays out of the echoed config
    config = _config_dict(args, CONFIG_KEYS)
    if len(set(args.N)) < 3:
        raise ValueError("sweep needs at least three distinct N values")
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    target, policy, grid = _inputs(args)
    for path in (args.out, args.summary):
        if path:
            _check_writable(path)

    def build(big_n: int) -> Construction | Exception:
        try:
            return _build(target, big_n, policy)
        except Exception as e:  # recorded in its row, the sweep continues
            return e

    # largest N first: its build runs before the smaller networks exist, and
    # its compile in the pass, a sweep's largest transient, before theirs
    ns = sorted(set(args.N), reverse=True)

    def run_all(run):
        built = dict(zip(ns, run(build, ns)))
        ok = [n for n in ns if not isinstance(built[n], Exception)]
        # one pass over the grid measures every network, its chunks spread over the workers
        return built, dict(zip(ok, _grid_metrics(target, [built[n].net for n in ok], grid, run)))

    # one worker is the calling thread, with no pool; a pool runs two or more
    if args.threads == 1:
        built, measured = run_all(map)
    else:
        # imported here: a one-worker sweep never loads the thread-pool module
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            built, measured = run_all(pool.map)
    rows, failures, fit_pairs = [], {}, []
    for big_n in reversed(ns):
        c = built[big_n]
        errors = measured.get(big_n, c)  # a failed build is its own outcome
        row = {"name": args.target, "d": args.d, "alpha": args.alpha, "nu": args.nu, "N": big_n}
        if isinstance(errors, Exception):
            failures[str(big_n)] = text = f"{type(errors).__name__}: {errors}"
            rows.append({**row, **_FAILED_ROW, "pass": "error: " + text})
            continue
        l1, linf = errors
        rows.append({**row, "widthvec": _widthvec_str(c.net.hidden_widths), "l1": l1,
                     "linf": linf, "bound": c.bound, "pass": str(bool(l1 <= c.bound))})
        if l1 > RATE_ERROR_FLOOR:
            fit_pairs.append((big_n, l1))
    _write_csv(args.out, SWEEP_COLUMNS, rows, config)

    summary = {
        "config": config,
        "version": __version__,
        "theoretical_slope": -2.0 * args.alpha / args.d,
        "partial": bool(failures),
        "failures": failures,
        "rate_defined": len(fit_pairs) >= 2,
    }
    if len(fit_pairs) >= 2:
        fit = rate_fit(fit_pairs)
        summary.update(slope=fit.slope, intercept=fit.intercept, r_squared=fit.r_squared)
    else:
        summary.update(slope=None, intercept=None, r_squared=None)
    if args.summary:
        _write_json(args.summary, summary)
    print(json.dumps({k: summary[k] for k in ("slope", "rate_defined", "partial")}))
    return 0 if all(r["pass"] == "True" for r in rows) else 1


# ---------------------------------------------------------------------------
# cost


def cmd_cost(args) -> int:
    config = _config_dict(args, ["N", "L", "d", "t_s", "t_w", "c_flop", "m", "seed"])
    params = CostParams(t_s=args.t_s, t_w=args.t_w, c_flop=args.c_flop)
    archs = [ArchSpec(n, args.L, m) for n in args.N for m in args.m]
    rows = regime_table(archs, params, d=args.d)
    _write_csv(args.out, COST_COLUMNS, rows, config)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# check suites


def _suite_lemma1(seed: int, m: int, n: int):
    rng = np.random.default_rng(seed)
    out = []
    worst = 0.0
    for _ in range(25):
        k = int(rng.integers(2, 30))
        xs = np.cumsum(rng.uniform(0.05, 1.0, k))
        ys = rng.uniform(-3, 3, k)
        net = lemma1_interpolant(SampleSet(xs, ys))
        worst = max(worst, float(np.max(np.abs(evaluate_batch(net, xs) - ys))))
    out.append(("node-exactness", worst <= 1e-9, f"max node error {worst:.2e}"))
    net = lemma1_interpolant(SampleSet([0.0, 0.5, 1.0], [0.0, 1.0, 0.0]))
    rec = net_to_cpl_exact(net, 0.0, 1.0)
    found = 0.5 in rec.breaks
    out.append(("break-recovery", found, f"recovered breaks {rec.breaks.tolist()}"))
    return out


def _suite_lemma2(seed: int, m: int, n: int):
    rng = np.random.default_rng(seed)
    xs = np.cumsum(rng.uniform(0.5, 1.5, m * (n + 1) + 1))
    xs = (xs - xs[0]) / (xs[-1] - xs[0])
    ys = rng.uniform(0.0, 2.0, xs.size)
    plan = Lemma2Plan(m, n, SampleSet(xs, ys, m, n))
    net, trace = lemma2_interpolant(plan, residuals=True)
    # one batched product: a one-row product (BLAS gemv) sums in an order
    # that loses digits against weights near 1e6
    node_err = float(np.max(np.abs(evaluate_batch(net, xs) - ys)))
    dense = np.linspace(0.0, 1.0, 100001)
    sup = float(np.max(np.abs(evaluate_batch(net, dense))))
    bound = lemma2_sup_bound(xs, m, n, float(ys.max()))
    # after stage k the residual is zero at the first k + 1 points of every
    # block and at the last grid point; np.max keeps a NaN
    starts = np.arange(m)[:, None] * (n + 1)
    sched = float(np.max([
        np.abs(trace.residuals[k + 1][[*(starts + np.arange(k + 1)).ravel(), m * (n + 1)]]).max()
        for k in range(n + 1)]))
    return [
        ("node-exactness", node_err <= 1e-8, f"max node error {node_err:.2e}"),
        ("sup-bound", sup <= bound, f"sup {sup:.3e} vs bound {bound:.3e}"),
        ("residual-schedule", sched <= 1e-8, f"max scheduled residual {sched:.2e}"),
        ("widths", net.hidden_widths == [2 * m, 2 * n + 1], str(net.hidden_widths)),
    ]


def _suite_corollary32(seed: int, m: int, n: int):
    rng = np.random.default_rng(seed)
    out = []
    for trial in range(3):
        pieces = m * n + 1
        inner = np.sort(rng.uniform(0.05, 0.95, pieces - 1))
        if pieces > 1 and np.diff(np.concatenate(([0.0], inner, [1.0]))).min() < 5e-3:
            inner = np.linspace(0.08, 0.92, pieces - 1)
        breaks = np.concatenate(([0.0], inner, [1.0]))
        g = CplFunction(breaks, rng.uniform(-1.0, 1.0, pieces + 1))
        _, err = corollary32_check(g, m, n, 1e-3)
        out.append((f"closure-{trial}", err <= 1e-3, f"achieved {err:.2e}"))
    return out


def _suite_bounds(seed: int, m: int, n: int):
    out = []
    for alpha in (0.5, 1.0):
        tgt = holder_family("cone", 1, alpha, 1.0)
        for big_n in (2, 4):
            c = build_1d(tgt, big_n)
            err = l1_error(tgt, c.net, GridSpec(1, 100000))
            out.append(
                (f"d1-alpha{alpha}-N{big_n}", err <= c.bound, f"l1 {err:.3e} vs {c.bound:.3e}")
            )
    tgt = holder_family("cone", 2, 1.0, 1.0)
    c = build_dd(tgt, 4)
    err = l1_error(tgt, c.net, GridSpec(2, 512))
    out.append(("d2-alpha1-N4", err <= c.bound, f"l1 {err:.3e} vs {c.bound:.3e}"))
    return out


def _suite_delta(seed: int, m: int, n: int):
    out = []
    pol = DeltaPolicy(mode="paper-sufficient")
    choice = choose_delta(pol, min_gap=0.25, budget=0.25,
                          denom_log=math.log(2 * (2 + 6 * math.factorial(3))))
    out.append(("paper-N2", abs(choice.delta - 0.25 / 76) <= 1e-15, f"delta {choice.delta!r}"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        c16 = choose_delta(
            pol,
            min_gap=1 / 256,
            budget=16.0 ** -2,
            denom_log=math.log(16) + float(np.logaddexp(math.log(2), math.log(6) + math.lgamma(18))),
        )
    out.append(("paper-N16-clamp", c16.clamped, f"delta {c16.delta:.2e}"))
    emp = choose_delta(DeltaPolicy(), min_gap=0.1, budget=1.0, h_error=lambda d: 0.0)
    out.append(("empirical-below-half-gap", emp.delta < 0.05, f"delta {emp.delta}"))
    return out


def _suite_costmodel(seed: int, m: int, n: int):
    p = CostParams()
    out = []
    n_grid = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
    times = [shared_time(ArchSpec(8, 3, mm), p) for mm in n_grid]
    mono = all(a >= b - 1e-12 for a, b in zip(times, times[1:]))
    out.append(("shared-monotone-in-m", mono, str(times[:4])))
    sat = shared_time(ArchSpec(8, 3, 65), p) == shared_time(ArchSpec(8, 3, 10**6), p)
    out.append(("saturation-above-N2", sat, "constant beyond m=N^2"))
    pd = CostParams(t_s=1.0, t_w=0.5)
    dom = all(
        dist_time(ArchSpec(8, 3, mm), pd) >= shared_time(ArchSpec(8, 3, mm), p) for mm in n_grid
    )
    out.append(("dist-dominates-shared", dom, "t_s,t_w >= 0"))
    return out


_SUITES = {
    "lemma1": _suite_lemma1,
    "lemma2": _suite_lemma2,
    "corollary32": _suite_corollary32,
    "bounds": _suite_bounds,
    "delta": _suite_delta,
    "costmodel": _suite_costmodel,
}


def cmd_check(args) -> int:
    names = args.suite or sorted(_SUITES)
    for name in names:
        if name not in _SUITES:
            raise RegistryError(f"unknown suite {name!r} (have {sorted(_SUITES)})")
    if args.out:
        _check_writable(args.out)
    # imported here: check is the one command that writes XML
    from xml.etree import ElementTree as ET

    root = ET.Element("testsuites")
    any_failed = False
    for name in names:
        t0 = time.perf_counter()
        results = _SUITES[name](args.seed, args.m, args.n)
        elapsed = time.perf_counter() - t0
        suite_el = ET.SubElement(
            root, "testsuite", name=name, tests=str(len(results)),
            failures=str(sum(not ok for _, ok, _ in results)), time=f"{elapsed:.3f}",
        )
        for case, ok, detail in results:
            case_el = ET.SubElement(suite_el, "testcase", classname=name, name=case)
            status = "PASS" if ok else "FAIL"
            print(f"{status} {name}.{case}: {detail}")
            if not ok:
                any_failed = True
                ET.SubElement(case_el, "failure", message=detail)
    if args.out:
        ET.ElementTree(root).write(args.out, encoding="unicode", xml_declaration=True)
    return 1 if any_failed else 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    with open(args.net, "rb") as fh:
        net = deserialize(fh.read())
    # every point is read first and evaluated in one batched call: a one-row
    # product (BLAS gemv) loses digits against large weights, and a malformed
    # line fails before anything is printed
    points = [[float(tok) for tok in line.split()] for line in sys.stdin if line.strip()]
    if any(len(p) != net.input_dim for p in points):
        raise ShapeError(f"every input line needs {net.input_dim} coordinates")
    xs = np.array(points).reshape(-1, net.input_dim)
    if not np.isfinite(xs).all():
        raise ShapeError("input entries must be finite")
    for value in evaluate_batch(net, xs):
        print(format(value, ".17g"))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(sub, with_target=True):
    sub.add_argument("--seed", type=int, default=0, help="seed echoed into outputs")
    sub.add_argument("--config", default=None,
                     help="JSON object of long-flag names and values; flags on the line override")
    if with_target:
        sub.add_argument("--target", default="cone", help="target family (cone, linear, zero)")
        sub.add_argument("--d", type=int, default=1)
        sub.add_argument("--alpha", type=float, default=1.0)
        sub.add_argument("--nu", type=float, default=1.0)
        sub.add_argument("--delta-mode", dest="delta_mode", default=EMPIRICAL_SHRINK,
                         choices=["empirical-shrink", "paper-sufficient"])
        sub.add_argument("--delta-floor", dest="delta_floor", type=float, default=1e-12)
        sub.add_argument("--delta-target", dest="delta_target", type=float, default=None,
                         help="override the right side of the delta inequality; in d = 1 "
                              "a target below about N*1e-16 lies under the rounding error "
                              "of the sliver measurement and can accept a delta on noise")
        sub.add_argument("--grid-points", dest="grid_points", type=int, default=None,
                         help="points per axis for measurement (defaults per d)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="reluconstruct", description=__doc__)
    ap.add_argument("--version", action="version", version=f"reluconstruct {__version__}")
    sp = ap.add_subparsers(dest="command", required=True)

    c = sp.add_parser("construct", help="build one approximant and write it to disk")
    _add_common(c)
    c.add_argument("--N", type=int, required=True)
    c.add_argument("--out", required=True, help="network interchange file")
    c.add_argument("--meta", default=None, help="metadata sidecar path (default <out>.meta.json)")
    c.set_defaults(func=cmd_construct)

    s = sp.add_parser("sweep", help="construct across N, measure, and fit the rate")
    _add_common(s)
    s.add_argument("--N", type=int, nargs="+", required=True)
    s.add_argument("--threads", type=int, default=1)
    s.add_argument("--out", required=True, help="CSV of measurement records")
    s.add_argument("--summary", default=None, help="JSON rate summary path")
    s.set_defaults(func=cmd_sweep)

    k = sp.add_parser("cost", help="regime table for the three architecture families")
    _add_common(k, with_target=False)
    k.add_argument("--N", type=int, nargs="+", default=[16, 64, 256])
    k.add_argument("--L", type=int, default=8)
    k.add_argument("--d", type=int, default=2)
    k.add_argument("--t-s", dest="t_s", type=float, default=0.0)
    k.add_argument("--t-w", dest="t_w", type=float, default=0.0)
    k.add_argument("--c-flop", dest="c_flop", type=float, default=1.0)
    k.add_argument("--m", type=int, nargs="+", default=[1, 64, 4096, 10**6])
    k.add_argument("--out", required=True)
    k.set_defaults(func=cmd_cost)

    ch = sp.add_parser("check", help="run seeded property suites")
    _add_common(ch, with_target=False)
    ch.add_argument("--suite", nargs="*", default=None, help="subset of suites to run")
    ch.add_argument("--m", type=int, default=4)
    ch.add_argument("--n", type=int, default=4)
    ch.add_argument("--out", default=None, help="JUnit-style XML report path")
    ch.set_defaults(func=cmd_check)

    e = sp.add_parser("eval", help="evaluate a stored network at stdin vectors")
    e.add_argument("--net", required=True)
    e.set_defaults(func=cmd_eval)
    return ap


# the parser main reuses, built on its first call rather than at import
_parser = functools.cache(build_parser)


def _with_config(ap: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """``argv`` with its command's ``--config`` keys as ``--key value`` tokens after the
    command: flags on the line win, and one parse checks all, required flags included.
    A key must name a long flag exactly, as argparse would expand a misspelt prefix."""
    # the top level takes no values, so its first non-flag token is the command
    command = next((tok for tok in argv if not tok.startswith("-")), None)
    # argparse keeps a subcommand's flags only in private attributes
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    flags = getattr(sub.choices.get(command), "_option_string_actions", {})
    if "--config" not in flags:
        return argv
    # --config (or a prefix of it) alone, as a full parse wants the required flags
    at = argv.index(command) + 1
    pre = argparse.ArgumentParser(prog=sub.choices[command].prog, add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[at:])[0].config
    if path is None:
        return argv
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"config {path} must be a JSON object")
    tokens = []
    for key, value in doc.items():
        flag = "--" + key.replace("_", "-")
        if flag not in flags:
            raise ValueError(f"config key {key!r} is not a flag of {command}")
        if flag == "--config":  # its file would never be read
            raise ValueError(f"config key {key!r} cannot name a second config file")
        if flag == "--help":  # it would print the help and exit 0 whatever its value
            raise ValueError(f"config key {key!r} is not a setting")
        if value is not None:
            tokens.append(flag)
            tokens.extend(map(str, value if isinstance(value, list) else [value]))
    return argv[:at] + tokens + argv[at:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = _parser()
    try:
        args = ap.parse_args(_with_config(ap, argv))
        return args.func(args)
    except (ValueError, RegistryError, OSError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except ConstructionInfeasibleError as e:
        print(json.dumps(_infeasible_record(e), sort_keys=True), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
