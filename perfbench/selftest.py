"""Tests of the benchmark itself: ``python3 -m pytest -q perfbench/selftest.py``."""

from __future__ import annotations

import json
import pathlib
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import run  # noqa: E402

run.use_checkout_source()

import speed  # noqa: E402
import tracing  # noqa: E402
from speed import Timeline  # noqa: E402
from tracing import Span, SpanRecorder, self_times  # noqa: E402
from workloads import WORKLOADS, Workload, close  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_subtracts_nested_spans_once():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and, on an executor
    # thread, b [3, 6] overlapping a: the children cover [1, 6] once.
    spans = [Span(0, "root", 0.0, 10.0, None), Span(1, "a", 1.0, 4.0, 0),
             Span(2, "c", 2.0, 3.0, 1), Span(3, "b", 3.0, 6.0, 0),
             Span(4, "a", 7.0, 8.0, 0)]
    totals = self_times(spans)
    assert totals["root"] == (1, pytest.approx(4.0))
    assert totals["a"] == (2, pytest.approx(3.0))
    assert totals["b"] == (1, pytest.approx(3.0))
    assert totals["c"] == (1, pytest.approx(1.0))


def test_wrappers_nest_and_adopt_executor_spans():
    from concurrent.futures import ThreadPoolExecutor

    recorder = SpanRecorder()
    leaf = recorder.wrap("leaf", lambda: None)

    def run_leaf_on_executor():
        with ThreadPoolExecutor(1) as pool:
            pool.submit(leaf).result()

    fan_out = recorder.wrap("fan_out", run_leaf_on_executor)
    root = recorder.wrap("root", fan_out, trace_id_of=lambda _: "req-1")
    root()
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["fan_out"].parent == by_name["root"].index
    assert by_name["leaf"].parent == by_name["fan_out"].index
    assert recorder.trace_id(by_name["leaf"]) == "req-1"


def test_cost_growth_halves_count_writes_committed_on_each_side():
    from workloads import Replay

    # Four writes and a read.  The commit ending at 4.0 finalised only the
    # first write; the one ending at 6.0 the second; the drain (to 10.0)
    # the last two, so the split after 6.0 leaves two writes each side.
    replay = Replay(start=0.0, end=10.0,
                    is_write=[True, True, False, True, True],
                    submitted=[0.0, 1.0, 2.0, 3.0, 5.0],
                    finished=[3.5, 5.5, 2.1, 8.0, 9.5],
                    commit_marks=[4.0, 6.0])
    assert replay.halves() == (6.0, 2, 4.0, 2)
    # Without a mid-trace commit, the terminal moments are the candidates.
    replay.commit_marks = []
    assert replay.halves() == (5.5, 2, 4.5, 2)


def test_reference_clock_scales_stretches_and_skips_probes():
    timeline = Timeline()
    took = 2 * speed.REFERENCE_S  # the machine runs at half the reference speed
    timeline.probes = [(start, start + took) for start in (1.0, 2.0, 3.0)]
    to_reference = timeline.mapping()
    assert to_reference(2.5) - to_reference(1.5) == pytest.approx((1.0 - took) / 2)
    assert to_reference(2.0 + took / 2) == to_reference(2.0)
    assert to_reference(0.5) < to_reference(1.0) < to_reference(3.5)


def test_timeline_restores_the_timer_and_its_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with Timeline(every=0.01) as timeline:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert len(timeline.probes) >= 3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_spec_lists_the_workloads_it_runs():
    assert SPEC["workloads"] == [{"name": workload.name, "why": workload.why}
                                 for workload in WORKLOADS.values()]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_checks_and_reports_every_metric(name, tmp_path):
    workload = replace(WORKLOADS[name], writes=6, reads=6, traces=1)
    result, lines = run.measure(workload, seed=3, seconds=0.01, traced=False, out=tmp_path)
    assert result["correct"], lines
    assert result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(value["value"] > 0 for value in result["metrics"].values())
    assert any(line.startswith("state_digest ") for line in lines)

    traced, _ = run.measure(workload, seed=3, seconds=0.01, traced=True, out=tmp_path)
    assert traced["correct"]
    assert sorted(traced["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert tracing.installed_wrappers() == []
    assert list(tmp_path.glob("spans-*.jsonl"))
    metrics = {key: value["value"] for key, value in traced["metrics"].items()}
    assert metrics["trace.coverage"] >= 0.9
    assert (metrics["relational.route.calls"] > 0) == (name == "read-mostly-replicas")
    assert (metrics["bx.JoinLens.get_delta.calls"] > 0) == (name == "join-cascade")


def test_same_seed_repeats_simulated_results(tmp_path):
    workload = replace(WORKLOADS["join-cascade"], writes=6, reads=6, traces=1)
    first, _ = run.measure(workload, seed=5, seconds=0.01, traced=False, out=tmp_path)
    second, _ = run.measure(workload, seed=5, seconds=0.01, traced=False, out=tmp_path)
    for name in ("sim_writes_per_s", "sim_write_p50_s", "sim_write_p90_s"):
        assert first["metrics"][name] == second["metrics"][name]


def test_install_restores_every_binding():
    import repro.crypto.signatures as signatures
    from repro.contracts.base import Contract

    original = signatures.verify, vars(Contract)["storage_snapshot"]
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert len(tracing.installed_wrappers()) == len(tracing.TARGETS)
    finally:
        recorder.uninstall()
    assert tracing.installed_wrappers() == []
    assert (signatures.verify, vars(Contract)["storage_snapshot"]) == original


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixed-history",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout == ""


@pytest.mark.xfail(strict=True, reason="defect: a hospital burst edit sharing a "
                   "gateway batch with the same patient's write-back makes the "
                   "join put_delta diverge from the full recompute")
def test_burst_sharing_a_batch_with_a_write_back():
    """Replays this join-cascade trace with threshold batching only (no burst
    isolation): patient-1018's write-back shares a batch with the hospital's
    edit of patient 1018 and is rejected, and the view is left inconsistent."""
    workload = Workload(name="join-defect", why="", tenants=12, rate=0.5,
                        read_fraction=0.7, writes=40, reads=40, traces=1,
                        shards=3, hospital_period=4.0, medications=3,
                        first_patient_id=1_008)
    rig = workload.setup(1000)
    try:
        arrivals = workload.trace(rig, 1000)
        responses = []
        for timed in arrivals:
            rig.system.simulator.clock.advance_to(timed.arrival_time)
            responses.append(rig.gateway.submit(rig.sessions[timed.tenant], timed.request))
            if rig.gateway.queue_depth >= workload.batch:
                rig.gateway.commit_once()
        rig.gateway.drain()
        assert all(response.ok for response in responses)
        assert rig.system.views_consistent_with_sources()
    finally:
        close(rig)
