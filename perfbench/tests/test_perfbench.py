"""Tests for the benchmark's own helpers (no server, no network).

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERFBENCH))

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------- percentile
def test_percentile_nearest_rank():
    values = list(range(1, 201))  # 1..200, shuffled order must not matter
    values.reverse()
    assert measure.percentile(values, 50) == 100
    assert measure.percentile(values, 90) == 180


def test_percentile_guard_needs_ten_samples_beyond():
    assert measure.percentile(list(range(100)), 90) == 89  # 10 lie beyond
    with pytest.raises(measure.TooFewSamples):
        measure.percentile(list(range(99)), 90)
    with pytest.raises(measure.TooFewSamples):
        measure.percentile([], 50)
    assert measure.percentile([5.0] * 20, 50) == 5.0


def test_median_odd_and_even():
    assert measure.median([3, 1, 2]) == 2
    assert measure.median([4, 1, 3, 2]) == 2.5


# ------------------------------------------------------------- span analysis
def _span(key, name, start, end, parent=None, tenant=None, pid=1, **attrs):
    return {"key": f"{pid}:{key}", "id": key, "pid": pid, "name": name,
            "start": start, "end": end,
            "parent": f"{pid}:{parent}" if parent else None,
            "tenant": tenant, **attrs}


def test_self_time_follows_queue_hop_link():
    # HTTP thread: handle [0, 10]; tenant worker thread: backend call [2, 9]
    # starts its own stack, with an op [3, 8] under it.
    handle = _span(1, "gateway.handle", 0.0, 10.0, tenant="t00", request="c0-1")
    call = _span(2, "gateway.backend_call", 2.0, 9.0, tenant="t00")
    op = _span(3, "gateway.op_answer", 3.0, 8.0, parent=2, tenant="t00")
    records = [handle, call, op]
    assert spans.link_cross_hops(records) == []
    assert call["parent"] == handle["key"]
    children = spans.children_of(records)
    assert spans.self_time(handle, children) == pytest.approx(3.0)
    assert spans.self_time(call, children) == pytest.approx(2.0)
    assert spans.self_time(op, children) == pytest.approx(5.0)


def test_pipe_hop_links_by_tenant_and_order():
    # Gateway process (pid 1): two calls for t00, one for t01. Worker (pid 2)
    # ops start fresh stacks; t00's autosave follows its second answer.
    first = _span(1, "fleet.call_tenant", 0.0, 2.0, tenant="t00")
    other = _span(2, "fleet.call_tenant", 0.5, 1.5, tenant="t01")
    second = _span(3, "fleet.call_tenant", 3.0, 8.0, tenant="t00")
    ops = [
        _span(1, "gateway.op_propose", 0.2, 1.8, tenant="t00", pid=2),
        _span(2, "gateway.op_propose", 0.6, 1.4, tenant="t01", pid=2),
        _span(3, "gateway.op_answer", 4.0, 6.0, tenant="t00", pid=2),
        _span(4, "serving.tenant_save", 6.1, 7.5, tenant="t00", pid=2),
        # a drain-time save: no request caused it
        _span(5, "serving.tenant_save", 20.0, 21.0, tenant="t00", pid=2),
    ]
    records = [first, other, second] + ops
    unlinked = spans.link_cross_hops(records)
    assert [s["key"] for s in unlinked] == ["2:5"]
    assert [s["parent"] for s in ops[:4]] == ["1:1", "1:2", "1:3", "1:3"]
    children = spans.children_of(records)
    assert spans.self_time(second, children) == pytest.approx(5.0 - 2.0 - 1.4)
    assert spans.self_time(first, children) == pytest.approx(0.4)


def test_layer_metrics_split_one_request():
    # handle [0, 1] on the HTTP thread; the queue worker's backend call
    # [0.1, 0.9] runs request_question -> propose_next (refresh due) ->
    # traversal. The generator saw the request for [-0.1, 1.05].
    records = [
        _span(1, "gateway.handle", 0.0, 1.0, tenant="t00", request="c0-1"),
        _span(2, "gateway.backend_call", 0.1, 0.9, tenant="t00"),
        _span(3, "crowd.request_question", 0.2, 0.8, parent=2),
        _span(4, "core.propose_next", 0.3, 0.7, parent=3, refresh=True),
        _span(5, "core.traversal", 0.5, 0.7, parent=4),
    ]
    spans.link_cross_hops(records)
    request = {"id": "c0-1", "start": -0.1, "end": 1.05}
    table = spans.layer_metrics(records, [request], (-0.1, 1.05), 1)
    expected_ms = {
        "gateway.http_ms": 150.0,  # client time outside handle
        "gateway.self_ms": 200.0,  # handle minus the backend call
        "gateway.queue_wait_ms": 100.0,
        "crowd.self_ms": 200.0,  # request_question minus propose_next
        "core.refresh_ms": 200.0,  # propose_next minus traversal
        "core.traversal_ms": 200.0,
    }
    for name, value in expected_ms.items():
        assert table[name]["value"] == pytest.approx(value), name
    assert table["core.refreshes"]["value"] == 1
    assert table["fleet.rpc_ms"] == {"value": 0.0, "calls": 0.0}


def test_covered_counts_overlapping_children_once():
    parent = _span(1, "p", 0.0, 10.0)
    kids = [_span(2, "a", 1.0, 5.0), _span(3, "b", 4.0, 6.0),
            _span(4, "c", 9.0, 12.0)]
    assert spans.covered(parent, kids) == pytest.approx(6.0)


# ----------------------------------------------------------------- /proc trees
def _fake_process(root: Path, pid: int, ppid: int, pss_kib: int,
                  comm: str = "python3", utime: int = 0, stime: int = 0,
                  state: str = "S"):
    directory = root / str(pid)
    directory.mkdir()
    rest = [state, str(ppid)] + ["0"] * 9 + [str(utime), str(stime)] + ["0"] * 6
    (directory / "stat").write_text(f"{pid} ({comm}) {' '.join(rest)}\n")
    rollup = "00400000-7fff [rollup]\n"
    if state != "Z":  # a zombie maps no memory
        rollup += f"Rss: {pss_kib * 2} kB\nPss: {pss_kib} kB\n"
    (directory / "smaps_rollup").write_text(rollup)


def test_pss_sums_the_process_tree_only(tmp_path):
    _fake_process(tmp_path, 100, 1, 1000, comm="server (main) x")
    _fake_process(tmp_path, 101, 100, 200, utime=30, stime=10)
    _fake_process(tmp_path, 102, 101, 50)
    _fake_process(tmp_path, 103, 101, 0, state="Z")  # exited, not reaped
    _fake_process(tmp_path, 200, 1, 9999)  # unrelated process
    (tmp_path / "self").mkdir()  # non-numeric entries are skipped
    assert measure.process_tree(100, tmp_path) == [100, 101, 102, 103]
    assert measure.tree_pss_mb(100, tmp_path) == pytest.approx(
        1250 * 1024 / 1e6)
    assert measure.tree_cpu_seconds(100, tmp_path, 100.0) == pytest.approx(0.4)
    assert measure.is_running(101, tmp_path)
    assert not measure.is_running(103, tmp_path)
    assert not measure.is_running(104, tmp_path)


# ------------------------------------------------------------------ digests
def test_history_digest_depends_on_content_and_order():
    a = {"question_number": 1, "rule": "best way", "answer": True,
         "recall": 0.25}
    b = {"question_number": 2, "rule": "airport", "answer": False,
         "recall": 0.25}
    reordered_keys = {k: a[k] for k in reversed(list(a))}
    assert measure.history_digest([a, b]) == measure.history_digest(
        [reordered_keys, b])
    assert measure.history_digest([a, b]) != measure.history_digest([b, a])
    assert measure.history_digest([a, b]) != measure.history_digest(
        [a, dict(b, recall=0.26)])


# ------------------------------------------------------------- answer rule
def test_annotator_answers_yes_at_eighty_percent():
    positives = {1, 2, 3, 4}
    assert measure.annotator_says_yes([1, 2, 3, 4, 9], positives)
    assert not measure.annotator_says_yes([1, 2, 3, 8, 9], positives)
    assert measure.annotator_says_yes([1], positives)
    assert not measure.annotator_says_yes([], positives)


# ---------------------------------------------------------------- workloads
def test_tenant_seeds_are_distinct_positive_triples_per_seed():
    workload = workloads.WORKLOADS["tenants-5k"]
    positives = set(range(0, 400, 2))
    seeds = workloads.tenant_seeds(workload, 5, positives, "rule")
    assert seeds == workloads.tenant_seeds(workload, 5, positives, "rule")
    assert seeds != workloads.tenant_seeds(workload, 6, positives, "rule")
    triples = {tuple(s["positive_ids"]) for s in seeds}
    assert len(triples) == workload.tenants
    assert all(len(t) == 3 and set(t) <= positives for t in triples)


def test_fleet_plan_serves_the_same_sessions_over_both_workers():
    tenants = workloads.WORKLOADS["tenants-5k"]
    fleet = workloads.WORKLOADS["fleet-5k"]
    single = workloads.connection_plan(tenants)
    split = workloads.connection_plan(fleet)
    assert len(single) == 1 and len(split) == 2
    assert sorted(single[0]) == sorted(split[0] + split[1])
    for pairs in split:
        hosting = {int(t[1:]) % fleet.workers for t, _ in pairs}
        assert hosting == set(range(fleet.workers))


def test_benchmark_json_lists_the_reported_metrics():
    import run

    manifest = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in manifest["workloads"]} == set(
        workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == (
        run.END_TO_END)
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == {
        name: spec[0] for name, spec in run.LAYERS.items()}
