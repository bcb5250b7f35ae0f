"""Tests of the benchmark's own logic: inputs, self-time arithmetic, reference checks."""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import workloads
from spans import Span, Tracer, covered, parallel_excess, self_times
from workloads import ATOL, OpResult, Step, Tally, make_inputs, run_step


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    first = json.dumps(make_inputs(workload, 7))
    assert json.dumps(make_inputs(workload, 7)) == first
    assert json.dumps(make_inputs(workload, 8)) != first


def _span(sid, start, end, parent=None):
    return Span(sid, f"s{sid}", start, end, parent, thread=0, op=1)


def test_self_times_on_a_synthetic_tree():
    # root [0, 10] with two overlapping children, as two worker threads
    # would give; child 2 has a child of its own
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 3.0, 6.0, parent=1),
        _span(4, 2.0, 3.0, parent=2),
    ]
    selfs = self_times(spans)
    assert selfs == {1: pytest.approx(5.0), 2: pytest.approx(2.0),
                     3: pytest.approx(3.0), 4: pytest.approx(1.0)}
    # self times sum to the root's duration plus the overlap of 2 and 3
    assert parallel_excess(spans) == pytest.approx(1.0)
    assert sum(selfs.values()) == pytest.approx(10.0 + 1.0)


def test_covered_merges_overlaps_and_skips_nested():
    assert covered([]) == 0.0
    assert covered([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)


def test_worker_spans_hang_under_the_home_threads_open_span():
    tracer = Tracer()

    def work(_):
        with tracer.span("child"):
            return threading.get_ident()

    with tracer.span("root") as root:
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(work, range(4)))
    children = [s for s in tracer.spans if s.name == "child"]
    assert len(children) == 4
    assert all(s.parent == root.id and s.op == root.op for s in children)
    assert all(root.start <= s.start and s.end <= root.end for s in children)


def _fixed_step(values):
    return Step(["op"], lambda lib: [OpResult("op", dict(values))])


def test_perturbed_reference_value_fails_the_operation():
    values = {"l1": 1.234e-4, "linf": 5.6e-3}
    tally = Tally()
    tally.add(run_step(_fixed_step(values), None, {"op": dict(values)}))
    perturbed = {"l1": values["l1"] * (1 + 1e-6), "linf": values["linf"]}
    tally.add(run_step(_fixed_step(values), None, {"op": perturbed}))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert any("l1" in key for key in tally.failures)


def test_reference_tolerance_admits_the_measured_fast_paths():
    ref = {"l1": 1.234e-4}
    one_d = {"l1": ref["l1"] + 1.3e-13}
    separable = {"l1": ref["l1"] * (1 + 1.8e-11)}
    assert workloads.compare(one_d, ref) == []
    assert workloads.compare(separable, ref) == []
    assert workloads.compare({"l1": ref["l1"] + 10 * ATOL}, ref) != []


def test_exception_fails_every_operation_of_the_step():
    def boom(lib):
        raise RuntimeError("no network")

    results = run_step(Step(["a", "b"], boom), None, None)
    assert [r.name for r in results] == ["a", "b"]
    assert all("RuntimeError" in r.problems[0] for r in results)
