"""The library calls the benchmark makes, plain or wrapped in spans.

Tracing wraps the names one module imports from another (``cli.build_1d``,
``metrics.evaluate_batch``, ``construct.net_to_cpl_exact`` ...), so each span
sits on a module boundary, plus the benchmark's own direct calls into the
library.  Spans inside a module (the affine/ReLU split of
``evaluate_batch``, the lemma-2 stages) wait for tracing inside the program.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from types import SimpleNamespace

from reluconstruct import cli, construct, cpl, metrics, network
from reluconstruct.construct import HolderTarget

from spans import parallel_excess, self_times

F64_BYTES = 8


def _eval_counts(args, kwargs, result):
    # computed from layer shapes x rows, not measured: every layer reads its
    # input rows and writes its output rows once
    net, xs = args[0], args[1]
    rows = len(xs)
    shapes = [w.shape for w, _ in net.layers]
    return {
        "rows": rows,
        "macs": rows * sum(o * i for o, i in shapes),
        "bytes": F64_BYTES * rows * sum(o + i for o, i in shapes),
    }


def _grid_counts(args, kwargs, result):
    return {"points": args[2].total_points}


def _delta_counts(args, kwargs, result):
    return {"iterations": result.iterations}


# (module, attribute, span name, counter): names imported across modules
_PATCHES = [
    (metrics, "evaluate_batch", "network.eval", _eval_counts),
    (cpl, "evaluate_batch", "network.eval", _eval_counts),
    (construct, "lemma2_interpolant", "construct.lemma2", None),
    (construct, "choose_delta", "construct.delta", _delta_counts),
    (construct, "net_to_cpl_exact", "cpl.to_cpl", None),
    (construct, "exact_l1_cpl", "cpl.exact_l1", None),
    (construct, "_extract_cpl", "cpl.extract", None),
    (cli, "build_1d", "construct.build", None),
    (cli, "l1_error", "metrics.l1", _grid_counts),
    (cli, "linf_error", "metrics.linf", _grid_counts),
]

# the benchmark's own entry points: lib attribute -> (function, span name, counter)
_DIRECT = {
    "build_1d": (construct.build_1d, "construct.build", None),
    "build_dd": (construct.build_dd, "construct.build", None),
    "corollary32_check": (construct.corollary32_check, "construct.closure", None),
    "lemma2_interpolant": (construct.lemma2_interpolant, "construct.lemma2", None),
    "net_to_cpl_exact": (cpl.net_to_cpl_exact, "cpl.to_cpl", None),
    "evaluate_batch": (network.evaluate_batch, "network.eval", _eval_counts),
    "l1_error": (metrics.l1_error, "metrics.l1", _grid_counts),
    "cli_main": (cli.main, "cli.sweep", None),
}


def plain_lib() -> SimpleNamespace:
    """The library entry points the workloads call, untraced."""
    lib = {name: fn for name, (fn, _, _) in _DIRECT.items()}
    return SimpleNamespace(holder_family=metrics.holder_family, **lib)


def _traced_family(tracer, family):
    def holder_family(*args, **kwargs):
        t = family(*args, **kwargs)
        return HolderTarget(f=tracer.wrap(t.f, "metrics.target"), d=t.d, alpha=t.alpha, nu=t.nu)

    return holder_family


@contextmanager
def instrumented(tracer):
    """Patch the cross-module names with traced wrappers; yield the traced lib."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in _PATCHES]
    saved.append((cli, "holder_family", cli.holder_family))
    try:
        for mod, attr, name, count in _PATCHES:
            setattr(mod, attr, tracer.wrap(getattr(mod, attr), name, count))
        cli.holder_family = _traced_family(tracer, cli.holder_family)
        lib = {attr: tracer.wrap(fn, name, count) for attr, (fn, name, count) in _DIRECT.items()}
        yield SimpleNamespace(holder_family=_traced_family(tracer, metrics.holder_family), **lib)
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, passes: int) -> dict[str, float]:
    """Per-pass layer figures from the spans of ``passes`` traced passes."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    dur = defaultdict(float)
    calls = defaultdict(int)
    own = defaultdict(float)
    counts = defaultdict(float)
    direct_lemma2 = 0
    for s in spans:
        dur[s.name] += s.duration
        calls[s.name] += 1
        own[s.name] += selfs[s.id]
        for k, v in s.counts.items():
            counts[f"{s.name}.{k}"] += v
        parent = by_id.get(s.parent)
        if s.name == "construct.lemma2" and parent is not None and parent.name == "bench.op":
            direct_lemma2 += 1

    def layer_self(prefix):
        return sum(v for name, v in own.items() if name.startswith(prefix))

    quadrature = dur["metrics.l1"] + dur["metrics.linf"]
    points = counts["metrics.l1.points"] + counts["metrics.linf.points"]
    # every top-level construction returns one network from one lemma-2 call
    useful = calls["construct.build"] + calls["construct.closure"] + direct_lemma2
    out = {
        "network.eval_s": dur["network.eval"],
        "network.eval_calls": calls["network.eval"],
        "network.eval_rows": counts["network.eval.rows"],
        "network.macs": counts["network.eval.macs"],
        "network.bytes": counts["network.eval.bytes"],
        "metrics.l1_s": dur["metrics.l1"],
        "metrics.linf_s": dur["metrics.linf"],
        "metrics.points": points,
        "metrics.target_s": dur["metrics.target"],
        "metrics.self_s": own["metrics.l1"] + own["metrics.linf"],
        "construct.build_s": dur["construct.build"],
        "construct.builds": calls["construct.build"],
        "construct.lemma2_s": dur["construct.lemma2"],
        "construct.lemma2_calls": calls["construct.lemma2"],
        "construct.delta_s": dur["construct.delta"],
        "construct.delta_iterations": counts["construct.delta.iterations"],
        "construct.closure_s": dur["construct.closure"],
        "construct.closure_calls": calls["construct.closure"],
        "construct.self_s": layer_self("construct."),
        "cpl.to_cpl_s": dur["cpl.to_cpl"],
        "cpl.to_cpl_calls": calls["cpl.to_cpl"],
        "cpl.exact_l1_s": dur["cpl.exact_l1"],
        "cpl.exact_l1_calls": calls["cpl.exact_l1"],
        "cpl.extract_s": dur["cpl.extract"],
        "cpl.self_s": layer_self("cpl."),
        "cli.sweep_s": dur["cli.sweep"],
        "cli.self_s": own["cli.sweep"],
        "bench.self_s": own["bench.op"],
    }
    out = {k: v / passes for k, v in out.items()}
    # ratios are the same per pass and in total
    out["network.macs_per_s"] = _ratio(counts["network.eval.macs"], dur["network.eval"])
    out["metrics.points_per_s"] = _ratio(points, quadrature)
    out["construct.lemma2_useful_ratio"] = _ratio(useful, calls["construct.lemma2"])
    out["trace.self_sum_s"] = sum(selfs.values()) / passes
    out["trace.parallel_excess_s"] = parallel_excess(spans) / passes
    return out
