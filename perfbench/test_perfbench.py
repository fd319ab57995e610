"""Self-tests of the benchmark's own arithmetic and teardown (no model training).

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import pb_fig1  # noqa: E402
import pb_metrics as pm  # noqa: E402
import pb_procs  # noqa: E402
import pb_serve  # noqa: E402
from pb_trace import Patches, Span, SpanRecorder, aggregate, constant, covered_length, self_times  # noqa: E402

# Loaded under its own name: a bare ``import run`` could clash with another module named run.
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)


class FakeClock:
    def __init__(self, *ticks: float) -> None:
        self.ticks = list(ticks)

    def __call__(self) -> float:
        return self.ticks.pop(0)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_children_of_nested_spans():
    # outer [0, 10] > middle [1, 6] > inner [2, 3]; outer > sibling [5, 8]
    spans = [
        Span("outer", 0.0, 10.0, -1, 1),
        Span("middle", 1.0, 6.0, 0, 1),
        Span("inner", 2.0, 3.0, 1, 1),
        Span("sibling", 5.0, 8.0, 0, 1),
    ]
    # The two children of ``outer`` overlap on [5, 6]: covered once.
    assert self_times(spans) == pytest.approx([3.0, 4.0, 1.0, 3.0])
    table = aggregate(spans)
    assert table["outer"] == {"calls": 1, "self_s": pytest.approx(3.0), "incl_s": pytest.approx(10.0)}
    assert table["inner"]["incl_s"] == pytest.approx(1.0)


def test_inclusive_time_does_not_double_count_reentrant_spans():
    spans = [Span("fit", 0.0, 4.0, -1, 1), Span("fit", 1.0, 2.0, 0, 1)]
    table = aggregate(spans)
    assert table["fit"]["calls"] == 2
    assert table["fit"]["incl_s"] == pytest.approx(4.0)
    assert table["fit"]["self_s"] == pytest.approx(4.0)


def test_covered_length_clips_and_merges():
    assert covered_length([(0.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 1.0, 6.0) == pytest.approx(3.0)
    assert covered_length([], 0.0, 1.0) == 0.0


def test_recorder_nests_by_call_stack_and_patches_restore():
    class Owner:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original_outer, original_inner = Owner.__dict__["outer"], Owner.__dict__["inner"]
    recorder = SpanRecorder(clock=FakeClock(0.0, 1.0, 2.0, 5.0))
    with Patches() as patches:
        patches.replace(Owner, "outer", lambda f: recorder.wrap(f, constant("outer")))
        patches.replace(Owner, "inner", lambda f: recorder.wrap(f, constant("inner")))
        assert Owner().outer() == 2
    assert Owner.__dict__["outer"] is original_outer
    assert Owner.__dict__["inner"] is original_inner
    assert [(s.name, s.start, s.end, s.parent) for s in recorder.spans] == [
        ("outer", 0.0, 5.0, -1),
        ("inner", 1.0, 2.0, 0),
    ]
    assert self_times(recorder.spans) == pytest.approx([4.0, 1.0])


def test_patches_restore_after_an_exception():
    import pb_metrics

    original = pb_metrics.sample_quantile
    with pytest.raises(ZeroDivisionError):
        with Patches() as patches:
            patches.replace(pb_metrics, "sample_quantile", lambda f: None)
            1 / 0
    assert pb_metrics.sample_quantile is original


# ----------------------------------------------------------------------
# /metrics snapshot deltas
# ----------------------------------------------------------------------
def _registry():
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry(enabled=True)
    requests = registry.counter("reqs_total", "requests", labels=("route", "status"))
    latency = registry.histogram("lat_s", "latency", labels=("model",), bounds=(0.01, 0.1, 1.0))
    return registry, requests, latency


def test_counter_and_histogram_deltas_between_snapshots():
    registry, requests, latency = _registry()
    requests.labelled(route="/predict", status="200").inc(5)
    latency.labelled(model="a").observe(0.05)
    before = registry.snapshot()
    requests.labelled(route="/predict", status="200").inc(3)
    requests.labelled(route="/predict", status="503").inc()
    requests.labelled(route="/healthz", status="200").inc(7)
    for value in (0.02, 0.03, 0.5):
        latency.labelled(model="a").observe(value)
    latency.labelled(model="b").observe(0.005)
    after = registry.snapshot()

    assert pm.counter_delta(before, after, "reqs_total", route="/predict") == 4
    assert pm.counter_delta(before, after, "reqs_total", route="/predict", status="503") == 1
    assert pm.counter_delta(before, after, "reqs_total") == 11
    assert pm.counter_delta(before, after, "absent_total") == 0

    window = pm.histogram_delta(before, after, "lat_s", model="a")
    assert window["count"] == 3 and window["counts"] == [0, 2, 1, 0]
    assert pm.histogram_mean(window) == pytest.approx((0.02 + 0.03 + 0.5) / 3)
    both = pm.histogram_delta(before, after, "lat_s")
    assert both["count"] == 4 and both["counts"] == [1, 2, 1, 0]
    assert pm.histogram_delta(before, after, "absent_s") is None
    assert pm.bucket_quantile(None, 0.5) == 0.0


def test_deltas_read_the_fleet_merged_snapshot_shape():
    from repro.obs.registry import merge_snapshots

    shard_a, requests_a, latency_a = _registry()
    shard_b, requests_b, latency_b = _registry()
    before = merge_snapshots(shard_a.snapshot(), shard_b.snapshot())
    requests_a.labelled(route="/predict", status="200").inc(2)
    requests_b.labelled(route="/predict", status="200").inc(3)
    latency_a.labelled(model="a").observe(0.05)
    latency_b.labelled(model="a").observe(0.07)
    after = merge_snapshots(shard_a.snapshot(), shard_b.snapshot())
    assert pm.counter_delta(before, after, "reqs_total", status="200") == 5
    window = pm.histogram_delta(before, after, "lat_s", model="a")
    assert window["counts"] == [0, 2, 0, 0]
    # Both samples sit in (0.01, 0.1]; the median interpolates inside it.
    assert 0.01 < pm.bucket_quantile(window, 0.5) <= 0.1


def test_bucket_quantile_interpolates_within_the_window_buckets():
    window = {"le": [1.0, 2.0, 4.0], "counts": [0, 4, 4, 0], "count": 8, "sum": 20.0,
              "min": 0.5, "max": 3.9}
    assert pm.bucket_quantile(window, 0.5) == pytest.approx(2.0)
    assert pm.bucket_quantile(window, 0.75) == pytest.approx(3.0)
    assert pm.bucket_quantile(window, 0.25) == pytest.approx(1.5)


def test_sample_quantile_matches_linear_interpolation():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert pm.sample_quantile(values, 0.5) == 3.0
    assert pm.sample_quantile(values, 0.9) == pytest.approx(4.6)
    assert pm.sample_quantile([], 0.9) == 0.0


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def test_request_sequence_is_the_same_for_the_same_seed():
    pools = pb_serve.make_pools(3)

    def sequence(seed):
        generator = pb_serve.LoadGenerator("http://127.0.0.1:1", pools, {}, seed)
        return [generator._pick(index) for index in range(40)]

    first = sequence(3)
    assert first == sequence(3)
    assert first != sequence(4)
    names = [name for name, _ in first]
    assert names[:2] == ["unstructured95", "channel90"] and names[::2] == names[:1] * 20


def test_input_pools_are_seeded():
    first = pb_serve.make_pools(5)
    again = pb_serve.make_pools(5)
    for name in first:
        assert first[name].dtype.name == "float32"
        assert first[name].shape == (pb_serve.POOL, pb_serve.ROWS, 3, 16, 16)
        assert (first[name] == again[name]).all()
    assert any((first[name] != pb_serve.make_pools(6)[name]).any() for name in first)


def test_windows_combine_into_summed_counts_and_median_numbers():
    def window(start, latency_s, count, failed=0):
        return pb_serve.summarize([
            pb_serve.Sample("unstructured95", start + k * latency_s, start + (k + 1) * latency_s, k >= failed, 64)
            for k in range(count)
        ])

    steady = window(0.0, 0.1, 10)
    assert steady["latency_p50_ms"] == pytest.approx(100.0)
    assert steady["rows_per_s"] == pytest.approx(640.0)
    # The middle window's server stalled; the median ignores it.
    windows = [steady, window(5.0, 0.9, 10), window(20.0, 0.12, 10, failed=1)]
    # Its failed request counts at the timeout.
    assert windows[2]["latency_p90_ms"] > 1000.0
    combined = pb_serve.combine(windows)
    assert combined["attempted"] == 30 and combined["failed"] == 1
    assert combined["failed_frac"] == pytest.approx(1 / 30)
    assert combined["latency_p50_ms"] == pytest.approx(120.0)
    assert combined["rows_per_s"] == pytest.approx(64 * 9 / 1.2)
    assert combined["windows"] == windows


def test_median_latency_is_the_mean_of_the_per_ticket_medians():
    fast = [pb_serve.Sample("channel90", k, k + 0.06, True, 64) for k in range(5)]
    slow = [pb_serve.Sample("unstructured95", k + 0.5, k + 0.62, True, 64) for k in range(6)]
    summary = pb_serve.summarize(fast + slow)
    assert summary["latency_p50_ms.channel90"] == pytest.approx(60.0)
    assert summary["latency_p50_ms.unstructured95"] == pytest.approx(120.0)
    assert summary["latency_p50_ms"] == pytest.approx(90.0)
    assert summary["latency_p90_ms"] == pytest.approx(120.0)


class _Table:
    def __init__(self, rows):
        self.rows = rows

    def as_records(self):
        return self.rows


def _rows(natural_dense):
    rows = []
    for sparsity, natural in ((0.5, natural_dense), (0.8, 0.4), (0.9, 0.3), (0.97, 0.1)):
        robust = natural - 0.05
        rows.append({"model": "resnet18", "task": "cifar10", "sparsity": sparsity,
                     "natural_accuracy": natural, "robust_accuracy": robust, "gap": robust - natural})
    return rows


def test_fig1_row_check_catches_missing_and_chance_level_rows():
    scale = pb_fig1.scale_for(1)
    assert pb_fig1.check_rows(_Table(_rows(0.7)), scale) == 0
    # One class everywhere: the densest point sits at chance (0.1).
    assert pb_fig1.check_rows(_Table(_rows(0.1)), scale) == 1
    assert pb_fig1.check_rows(_Table(_rows(0.7)[1:]), scale) == 1
    broken = _rows(0.7)
    broken[2]["robust_accuracy"] = float("nan")
    assert pb_fig1.check_rows(_Table(broken), scale) == 1


def test_response_check_tolerates_rounding_but_not_a_changed_answer():
    import numpy as np

    reference = np.array([[0.1, 2.0, -1.0], [0.5, 0.5000001, 0.0]], dtype=np.float32)
    assert pb_serve.response_ok(reference + np.float32(1e-6), reference)
    # A near-tie (row 2) may swap its argmax under rounding.
    assert pb_serve.response_ok(reference[:, [0, 1, 2]] * np.float32(1.0000001), reference)
    wrong = reference.copy()
    wrong[0, 0] = 3.0
    assert not pb_serve.response_ok(wrong, reference)
    assert not pb_serve.response_ok(reference[:1], reference)


# ----------------------------------------------------------------------
# Leak check
# ----------------------------------------------------------------------
def test_leak_check_catches_an_orphaned_sleep_child():
    shell = subprocess.Popen(
        ["sh", "-c", "sleep 30 >/dev/null 2>&1 & echo $!"], stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    orphan = int(shell.stdout.readline().strip())
    shell.wait(10)
    shell.stdout.close()
    try:
        with pytest.raises(pb_procs.LeakError, match=f"pid {orphan} "):
            pb_procs.check_clean(pgids=[shell.pid], wait_s=0.2)
    finally:
        os.killpg(shell.pid, signal.SIGKILL)
    pb_procs.check_clean(pgids=[shell.pid], wait_s=5.0)


def test_leak_check_catches_a_listening_port_and_a_live_thread():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen()
    port = listener.getsockname()[1]
    try:
        with pytest.raises(pb_procs.LeakError, match=f"port {port} still listening"):
            pb_procs.check_clean(ports=[port], wait_s=0.1)
    finally:
        listener.close()
    pb_procs.check_clean(ports=[port], wait_s=1.0)

    release = threading.Event()
    worker = threading.Thread(target=release.wait, name="perfbench-load-test")
    worker.start()
    try:
        with pytest.raises(pb_procs.LeakError, match="perfbench-load-test"):
            pb_procs.check_clean(threads=[worker])
    finally:
        release.set()
        worker.join(5.0)
    assert not worker.is_alive()
    pb_procs.check_clean(threads=[worker])


# ----------------------------------------------------------------------
# BENCHMARK.json and the command line
# ----------------------------------------------------------------------
def test_benchmark_json_lists_exactly_the_metrics_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench_run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench_run.PER_LAYER)
    assert set(w["name"] for w in spec["workloads"]) <= set(bench_run.WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_run_fails_without_output_outside_a_full_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-b64-fleet", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
