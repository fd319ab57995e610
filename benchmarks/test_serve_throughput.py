"""Load-generator benchmark for the batched serving subsystem.

Seals a robust OMP ticket (plus a trained linear head) from the shared
benchmark context into a ``repro-model/v1`` artifact, then drives the
same single-sample request stream through two engines:

* **baseline** — ``max_batch=1``: one-request-at-a-time, the cost model
  of a naive server that forwards each request straight to the model;
* **batched** — the shipped defaults: concurrent clients whose requests
  coalesce into shared micro-batches.

Per-request latencies (p50/p99) and request throughput for both paths
land in ``BENCH_serve.json`` (override the location with the
``REPRO_BENCH_SERVE`` environment variable), and the batched path must
clear >= 2x the baseline throughput — the headline claim of the serving
layer.
"""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np

from repro.core.transfer import linear_evaluation
from repro.serve import EngineConfig, ServingEngine, export_artifact

#: Load profile: enough requests for stable percentiles, small enough
#: for a CI smoke job.
CLIENTS = 8
REQUESTS_PER_CLIENT = 25

SPARSITY = 0.8


def _run_load(engine: ServingEngine, samples, clients: int, per_client: int):
    """Drive ``clients`` threads of single-sample requests; return latencies."""
    latencies = [[] for _ in range(clients)]
    barrier = threading.Barrier(clients + 1)

    def worker(index: int) -> None:
        barrier.wait()
        for request in range(per_client):
            sample = samples[(index * per_client + request) % len(samples)]
            begin = time.perf_counter()
            engine.predict(sample[None])
            latencies[index].append(time.perf_counter() - begin)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    begin = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - begin
    flat = [latency for per_thread in latencies for latency in per_thread]
    return flat, elapsed


def _summary(latencies, elapsed: float) -> dict:
    array = np.asarray(latencies)
    return {
        "requests": int(array.size),
        "elapsed_s": round(elapsed, 4),
        "requests_per_s": round(array.size / elapsed, 2),
        "latency_p50_ms": round(float(np.percentile(array, 50)) * 1000.0, 3),
        "latency_p99_ms": round(float(np.percentile(array, 99)) * 1000.0, 3),
    }


def test_serve_throughput_batched_vs_single(context, tmp_path, run_once):
    pipeline = context.pipeline("resnet18")
    task = context.task("cifar10")
    ticket = pipeline.draw_omp_ticket("robust", SPARSITY)
    head = linear_evaluation(
        ticket, task, epochs=context.scale.linear_epochs, seed=context.scale.seed, keep_model=True
    )
    artifact_path = export_artifact(
        ticket,
        str(tmp_path / "bench_model.npz"),
        num_classes=task.num_classes,
        head=head.model,
        provenance={"experiment": "bench-serve", "head_accuracy": head.score},
        seed=context.scale.seed,
    )
    samples = task.test.images

    def measure() -> dict:
        with ServingEngine(artifact_path, EngineConfig(max_batch=1, max_wait_ms=0.0)) as engine:
            engine.predict(samples[0][None])  # warm the forward path
            # One-request-at-a-time baseline: a single closed loop, the
            # throughput a server without batching would sustain.
            single, single_elapsed = _run_load(engine, samples, clients=1,
                                               per_client=CLIENTS * REQUESTS_PER_CLIENT)
        # ``max_batch`` tuned to the client count: a window closes the
        # moment every in-flight client is aboard instead of burning the
        # whole wait budget hoping for traffic that cannot arrive.
        batched_config = EngineConfig(max_batch=CLIENTS, max_wait_ms=5.0)
        with ServingEngine(artifact_path, batched_config) as engine:
            engine.predict(samples[0][None])
            batched, batched_elapsed = _run_load(
                engine, samples, clients=CLIENTS, per_client=REQUESTS_PER_CLIENT
            )
            batching_stats = engine.stats()["batching"]
        baseline = _summary(single, single_elapsed)
        concurrent = _summary(batched, batched_elapsed)
        return {
            "format": "repro-serve-bench/v1",
            "artifact": {
                "sparsity": SPARSITY,
                "model": "resnet18",
                "task": task.name,
                "head_accuracy": round(head.score, 4),
            },
            "workload": {
                "clients": CLIENTS,
                "requests_per_client": REQUESTS_PER_CLIENT,
                "rows_per_request": 1,
            },
            "baseline_single": baseline,
            "batched": concurrent,
            "batching": batching_stats,
            "speedup": round(concurrent["requests_per_s"] / baseline["requests_per_s"], 3),
        }

    report = run_once(measure)
    output = os.environ.get("REPRO_BENCH_SERVE", "BENCH_serve.json")
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print()
    print(json.dumps(report, indent=2))

    assert report["batching"]["coalesced_requests_max"] >= 2, (
        "concurrent clients never coalesced; the scheduler is not batching"
    )
    assert report["speedup"] >= 2.0, (
        f"batched serving must clear 2x the one-request-at-a-time baseline, "
        f"got {report['speedup']}x"
    )
