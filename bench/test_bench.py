"""Tests for the benchmark's own arithmetic and checks, plus a smoke-size pass
of each workload.  Run with `python3 -m pytest bench`."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(x) for x in range(100, 0, -1)]
    assert metrics.tail(samples) == (90.0, 90.0, 100)
    value, percentile, count = metrics.tail([5.0] * 10 + [1.0])
    assert (value, count) == (1.0, 11)
    assert percentile == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        metrics.tail([1.0] * 10)


def test_failures_are_charged_at_least_the_deadline():
    assert metrics.charged_s(0.25, "ok", 2.0) == 0.25
    assert metrics.charged_s(2.001, "deadline", 2.0) == 2.001
    assert metrics.charged_s(0.001, "OutOfRange", 2.0) == 2.001
    assert metrics.charged_s(0.01, "exit 3", 30.0) == 30.01
    assert metrics.charged_s(0.01, "wrong output", 30.0) == 30.01


def test_op_numbers_charge_failures_in_total_and_percentiles():
    ops = [{"id": f"op{i}", "elapsed_s": 0.001 * (i + 1), "status": "ok"} for i in range(20)]
    ops += [{"id": f"bad{i}", "elapsed_s": 0.0, "status": "OutOfRange"} for i in range(5)]
    numbers = run.op_numbers([{"ops": ops, "rss_mb": 20.0}], deadline_s=1.0)
    assert numbers["total_s"] == pytest.approx(0.21 + 5.0)
    assert numbers["op_p50_ms"] == pytest.approx(13.0)  # 13th of 25 charged samples
    assert numbers["op_tail_ms"] == pytest.approx(15.0)  # 15th of 25: ten beyond it
    assert numbers["operations"] == 25


def test_op_time_is_median_over_workers_and_any_failure_counts():
    passes = [
        {"ops": [{"id": "a", "elapsed_s": t, "status": "ok"}, {"id": "b", "elapsed_s": 0.5, "status": s}], "rss_mb": r}
        for t, s, r in ((0.1, "ok", 10.0), (0.3, "deadline", 30.0), (0.2, "ok", 20.0))
    ]
    passes += [{"ops": [{"id": f"c{i}", "elapsed_s": 0.0, "status": "ok"} for i in range(10)], "rss_mb": 0.0}]
    numbers = run.op_numbers(passes, deadline_s=1.0)
    assert numbers["total_s"] == pytest.approx(0.2 + 0.5)  # median of a; b stopped at a deadline
    assert numbers["peak_rss_mb"] == 15.0


def test_self_time_subtracts_child_spans():
    spans = [
        ("a", 0, 100, -1),
        ("b", 10, 40, 0),
        ("c", 50, 70, 0),
        ("d", 15, 25, 1),
        ("a", 200, 230, -1),
    ]
    got = metrics.self_times(spans)
    assert got == pytest.approx({"a": 80e-9, "b": 20e-9, "c": 20e-9, "d": 10e-9})


def test_outermost_calls_skip_nested_calls_of_the_same_name():
    spans = [
        ("model_graph", 0, 10, -1),
        ("join", 1, 9, 0),
        ("model_graph", 2, 3, 1),
        ("model_graph", 20, 30, -1),
        ("model_graph", 21, 22, 3),
    ]
    assert metrics.outermost_calls(spans) == {"model_graph": 2, "join": 1}


def test_independent_factoring():
    assert checks.prime_set(2**48 + 1) == {193, 65537, 22253377}
    assert checks.prime_set(2**89 + 1) == {3, 179, 62020897, 18584774046020617}
    assert checks.prime_set(1) == frozenset()


def test_expected_record_counts():
    # 2^6 - 1 = 3^2 * 7 and 2^6 + 1 = 5 * 13: k = 2 on both sides
    assert checks.expected_sweep_records(5, 6) == 5  # k = n-3: cases a and b.i
    assert checks.expected_sweep_records(4, 6) == 4  # k = n-2: case b.ii
    assert checks.expected_sweep_records(7, 6) == 3  # k outside {n-3, n-2, n-1}
    assert checks.expected_sweep_records(4, 4) == 3  # 15 = 3 * 5, 17: asymmetric


def test_hamilton_closed_form_matches_small_cases():
    # PSL2(4): parts {2}, {3}, {5}; PSL2(8): {2}, {7}, {3}; PSL2(64): {2}, {3, 7}, {5, 13}
    assert checks._hamilton_closed_form(4)
    assert checks._hamilton_closed_form(8)
    assert checks._hamilton_closed_form(64)
    # PSL2(2^12): pi(4095) = {3, 5, 7, 13} holds 4 of 7 vertices
    assert not checks._hamilton_closed_form(2**12)


SMOKE = {
    "catalog": ["sweep n=4 a=2", "sweep n=5 a=6", "sweep n=4 a=49", "hamilton_char f=6"],
    "analyze": None,  # filled from the operation list: one graph of each kind
}
SMOKE_FAILURES = {"catalog": {"OutOfRange": 1}, "analyze": {"exit 3": 1}}


def _smoke_ids(workload):
    if SMOKE[workload] is not None:
        return SMOKE[workload]
    ops = workloads.operations(workload, 1)
    return [next(op.id for op in ops if f" {kind}" in op.id) for kind in ("search", "clique", "large")]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass(workload, tmp_path):
    """A traced pass over a few operations, in its own interpreter because
    tracing rebinds chargraph's functions."""
    ids = _smoke_ids(workload)
    code = (
        "import json, sys; from pathlib import Path; import worker; "
        f"r = worker.run_pass({workload!r}, 1, True, Path({str(tmp_path)!r}), "
        f"Path({str(tmp_path / 'spans.jsonl')!r}), {ids!r}); print(json.dumps(r))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, timeout=120, check=True
    )
    ready, line = proc.stdout.splitlines()
    assert ready == "ready"
    report = json.loads(line)
    ops = {op.id: op for op in workloads.operations(workload, 1)}
    assert [e["id"] for e in report["ops"]] == [op_id for op_id in ops if op_id in ids]
    failures = {}
    for entry in report["ops"]:
        if entry["status"] == "ok":
            assert checks.problem(ops[entry["id"]], entry["output"]) is None, entry["id"]
        else:
            failures[entry["status"]] = failures.get(entry["status"], 0) + 1
    assert failures == SMOKE_FAILURES[workload]
    layers = report["layers"]
    assert layers["graphs.PrimeGraph.calls"] > 0
    assert all(value >= 0 for value in layers.values())
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_checks_reject_a_broken_certificate():
    op = next(op for op in workloads.operations("analyze", 1) if " clique" in op.id)
    (vertices, edges), n = op.args
    edge_set = set(edges)
    clique = [vertices[0]]
    for v in vertices[1:]:
        if all((min(u, v), max(u, v)) in edge_set for u in clique):
            clique.append(v)
    assert len(clique) >= n
    report = {"n": n, "order": len(vertices), "is_kn_free": False, "clique_witness": clique[:n],
              "odd_cycle": None, "verdict": False, "extremal_class": "NotExact"}
    assert checks.problem(op, json.dumps(report)) is None
    # a witness holding a non-edge: clique[1] and a vertex not adjacent to it
    non_neighbour = next(v for v in vertices if v not in clique and (min(v, clique[1]), max(v, clique[1])) not in edge_set)
    report["clique_witness"] = [non_neighbour] + clique[1:n]
    assert "clique witness" in checks.problem(op, json.dumps(report))
