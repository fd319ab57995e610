"""The registered benchmark table: every hot path as a declarative spec.

Importing this module populates :data:`repro.bench.spec.BENCHMARKS`
(the registry imports it lazily, so ``from repro.bench import
available_benchmarks`` is enough to see the table).  Payload sizes are
deliberately small: the ``smoke`` suite is a CI gate that must finish
in seconds, and regressions in these paths are algorithmic (a lost
fast-path, an accidental copy), which small payloads expose just as
well as large ones.  The heavier ``full``-only specs (ResNet-50 step,
fleet failover, batching speedup on a real ticket) take seconds per
repeat; ``benchmarks/test_bench_suite.py`` runs each of their payloads
once, so the contracts they assert run with the unit suite.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from typing import Any, Dict

import numpy as np

from repro.bench.spec import BenchSpec, register
from repro.core.parallel import SweepRunner
from repro.core.tickets import Ticket
from repro.core.transfer import linear_evaluation
from repro.experiments import SMOKE, shared_context
from repro.models.heads import ClassifierHead
from repro.models.resnet import resnet18, resnet50
from repro.nn.fuse import fuse
from repro.pruning.compact import compact
from repro.pruning.mask import magnitude_mask
from repro.obs.registry import MetricsRegistry
from repro.serve.artifact import export_artifact
from repro.serve.batching import BatchingConfig, MicroBatcher
from repro.serve.engine import EngineConfig, ServingEngine
from repro.serve.fleet import FleetConfig, FleetSupervisor
from repro.tensor import Tensor, conv2d, cross_entropy, no_grad
from repro.tensor import sparse as _sparse
from repro.utils.timing import best_wall


# ----------------------------------------------------------------------
# tensor.*  — engine primitives
# ----------------------------------------------------------------------
def _matmul_setup() -> Dict[str, Any]:
    rng = np.random.default_rng(0)
    return {
        "x": Tensor(rng.standard_normal((128, 384)) * 0.01),
        "w": Tensor(rng.standard_normal((384, 384)) * 0.01),
    }


def _matmul_payload(state) -> None:
    with no_grad():
        out = state["x"] @ state["w"]
        for _ in range(31):
            out = out @ state["w"]


register(
    BenchSpec(
        name="tensor.matmul",
        title="Tensor matmul chain (128x384 @ 384x384, 32 hops)",
        setup=_matmul_setup,
        payload=_matmul_payload,
        repeats=7,
    )
)


def _conv_setup() -> Dict[str, Any]:
    rng = np.random.default_rng(0)
    return {
        "x": Tensor(rng.standard_normal((8, 8, 16, 16))),
        "w": Tensor(rng.standard_normal((16, 8, 3, 3)) * 0.1),
    }


def _conv_forward_payload(state) -> None:
    with no_grad():
        for _ in range(16):
            conv2d(state["x"], state["w"], stride=1, padding=1)


def _conv_train_payload(state) -> None:
    for _ in range(4):
        x = Tensor(state["x"].data, requires_grad=True)
        out = conv2d(x, state["w"], stride=1, padding=1)
        out.sum().backward()


register(
    BenchSpec(
        name="tensor.conv2d_forward",
        title="conv2d forward (8x8x16x16, 3x3 pad 1, x16)",
        setup=_conv_setup,
        payload=_conv_forward_payload,
        repeats=7,
    )
)

register(
    BenchSpec(
        name="tensor.conv2d_train",
        title="conv2d forward+backward (im2col + col2im scatter, x4)",
        setup=_conv_setup,
        payload=_conv_train_payload,
        repeats=7,
    )
)


# ----------------------------------------------------------------------
# engine.*  — the model-level paths every experiment pays
# ----------------------------------------------------------------------
def _train_batch(batch: int):
    rng = np.random.default_rng(0)
    return rng.uniform(size=(batch, 3, 16, 16)), rng.integers(0, 10, size=batch)


def _train_step(model, images, labels) -> float:
    model.train()
    loss = cross_entropy(model(Tensor(images)), labels)
    loss.backward()
    model.zero_grad()
    value = float(loss.item())
    # Timing a numerically broken engine is meaningless — and the specs
    # replaced throughput tests that asserted finiteness, so keep that
    # contract here where every wrapper inherits it.
    if not np.isfinite(value):
        raise FloatingPointError(f"training loss diverged to {value}")
    return value


def _train_step_setup() -> Dict[str, Any]:
    images, labels = _train_batch(8)
    model = ClassifierHead(resnet18(base_width=8, seed=0), num_classes=10, seed=1)
    return {"model": model, "images": images, "labels": labels}


def _train_step_payload(state) -> None:
    _train_step(state["model"], state["images"], state["labels"])


register(
    BenchSpec(
        name="engine.train_step",
        title="ResNet-18 forward+backward training step (batch 8)",
        setup=_train_step_setup,
        payload=_train_step_payload,
    )
)


def _train_step50_setup() -> Dict[str, Any]:
    images, labels = _train_batch(8)
    model = ClassifierHead(resnet50(base_width=8, seed=0), num_classes=10, seed=1)
    return {"model": model, "images": images, "labels": labels}


register(
    BenchSpec(
        name="engine.train_step_resnet50",
        title="ResNet-50 forward+backward training step (batch 8)",
        setup=_train_step50_setup,
        payload=_train_step_payload,
        suites=("full",),
        repeats=3,
    )
)


def _fused_setup() -> Dict[str, Any]:
    rng = np.random.default_rng(0)
    model = ClassifierHead(resnet18(base_width=8, seed=0), num_classes=10, seed=1)
    model.eval()
    return {"model": fuse(model), "images": rng.uniform(size=(16, 3, 16, 16))}


def _fused_payload(state) -> None:
    with no_grad():
        logits = state["model"](Tensor(state["images"])).data
    if logits.shape != (16, 10) or not np.all(np.isfinite(logits)):
        raise FloatingPointError(f"fused eval produced invalid logits (shape {logits.shape})")


register(
    BenchSpec(
        name="engine.fused_inference",
        title="Fused Conv+BN ResNet-18 eval forward (batch 16)",
        setup=_fused_setup,
        payload=_fused_payload,
        repeats=7,
    )
)


# ----------------------------------------------------------------------
# pruning.*
# ----------------------------------------------------------------------
def _mask_setup() -> Dict[str, Any]:
    return {"model": ClassifierHead(resnet18(base_width=8, seed=0), num_classes=10, seed=1)}


def _mask_payload(state) -> Dict[str, Any]:
    mask = magnitude_mask(state["model"], sparsity=0.8)
    return {"sparsity": round(mask.sparsity(), 4)}


register(
    BenchSpec(
        name="pruning.magnitude_mask",
        title="Global magnitude mask at 80% sparsity (ResNet-18)",
        setup=_mask_setup,
        payload=_mask_payload,
        metrics=("sparsity",),
    )
)


# ----------------------------------------------------------------------
# core.*  — sweep dispatch overhead
# ----------------------------------------------------------------------
def _sweep_point(point: int) -> int:
    return (point * point) % 7919


def _sweep_setup() -> Dict[str, Any]:
    # Every point duplicated once: the dedup map and result re-expansion
    # are part of the measured dispatch path, as in real grids where
    # priors repeat across tasks.
    return {"runner": SweepRunner(workers=1), "points": list(range(8192)) * 2}


def _sweep_payload(state) -> Dict[str, Any]:
    results = state["runner"].map(_sweep_point, state["points"])
    return {"points": len(results)}


register(
    BenchSpec(
        name="core.sweep_dispatch",
        title="SweepRunner serial dispatch + dedup (16384 points)",
        setup=_sweep_setup,
        payload=_sweep_payload,
        metrics=("points",),
        repeats=7,
    )
)


# ----------------------------------------------------------------------
# serve.*  — closed-loop client load shared by the serving specs
# ----------------------------------------------------------------------
def _closed_loop(call, clients: int, per_client: int):
    """``clients`` threads each issuing ``per_client`` back-to-back calls.

    ``call(client, request)`` serves one request.  The threads are
    released together; a client stops at its first exception, and once
    all are joined any failure is raised, so every request completed.
    Returns ``(latencies_s, elapsed_s)``: each request's latency and the
    wall-time from release to the last join.
    """
    latencies = [[] for _ in range(clients)]
    failures: list = []
    barrier = threading.Barrier(clients + 1)

    def client(index: int) -> None:
        barrier.wait()
        for request in range(per_client):
            begin = time.perf_counter()
            try:
                call(index, request)
            except Exception as error:  # noqa: BLE001 - any failed request fails the spec
                failures.append(error)
                return
            latencies[index].append(time.perf_counter() - begin)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    begin = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - begin
    if failures:
        raise RuntimeError(f"{len(failures)} of {clients} clients failed; first: {failures[0]!r}")
    return [latency for per_thread in latencies for latency in per_thread], elapsed


# ----------------------------------------------------------------------
# serve.microbatch — micro-batching scheduler throughput
# ----------------------------------------------------------------------
_SERVE_CLIENTS = 4
_SERVE_REQUESTS = 64


def _serve_setup() -> Dict[str, Any]:
    rng = np.random.default_rng(0)
    weight = rng.standard_normal((256, 64)).astype(np.float32)  # repro: ignore[dtype-literal] -- fixed benchmark workload; baselines were recorded at float32
    samples = rng.standard_normal((_SERVE_CLIENTS * _SERVE_REQUESTS, 256)).astype(np.float32)  # repro: ignore[dtype-literal] -- fixed benchmark workload; baselines were recorded at float32

    def batch_fn(batch: np.ndarray) -> np.ndarray:
        return batch @ weight

    return {"batch_fn": batch_fn, "samples": samples}


def _serve_payload(state) -> Dict[str, Any]:
    # max_batch equals the client count so a window closes the moment
    # every in-flight client is aboard (the tuned serving profile); the
    # measured quantity is scheduler coalesce/fan-out overhead.
    config = BatchingConfig(max_batch=_SERVE_CLIENTS, max_wait_ms=5.0)
    samples = state["samples"]
    with MicroBatcher(state["batch_fn"], config) as batcher:
        _, elapsed = _closed_loop(
            lambda index, request: batcher.submit(samples[index * _SERVE_REQUESTS + request][None]),
            _SERVE_CLIENTS,
            _SERVE_REQUESTS,
        )
        stats = batcher.stats()
    total = _SERVE_CLIENTS * _SERVE_REQUESTS
    return {
        "requests_per_s": round(total / elapsed, 1),
        "batches": stats["batches"],
    }


register(
    BenchSpec(
        name="serve.microbatch",
        title="MicroBatcher coalesce/fan-out (4 clients x 64 requests)",
        setup=_serve_setup,
        payload=_serve_payload,
        metrics=("requests_per_s", "batches"),
        repeats=5,
        # Thread scheduling on shared runners is the noisiest thing the
        # suite measures; a real scheduler regression is a lost window
        # (2x+), so the band is wide.
        tolerance=1.5,
        # Bound by thread handoffs and the max_wait_ms window, which do
        # not scale with CPU speed — gate on raw seconds, not on
        # calibration-normalised units.
        timebase="wall",
    )
)


# ----------------------------------------------------------------------
# serve.batching_speedup — batched vs one-at-a-time on a real ticket
# ----------------------------------------------------------------------
_BATCHING_CLIENTS = 8
_BATCHING_REQUESTS = 25  # per client
_BATCHING_SPARSITY = 0.8
_BATCHING_MIN_SPEEDUP = 2.0


def _batching_setup() -> Dict[str, Any]:
    """Seal the smoke-scale robust OMP ticket with a trained linear head."""
    context = shared_context(SMOKE)
    task = context.task("cifar10")
    ticket = context.pipeline("resnet18").draw_omp_ticket("robust", _BATCHING_SPARSITY)
    head = linear_evaluation(
        ticket, task, epochs=context.scale.linear_epochs, seed=context.scale.seed, keep_model=True
    )
    root = tempfile.mkdtemp(prefix="repro-bench-batching-")
    path = export_artifact(
        ticket,
        os.path.join(root, "model.npz"),
        num_classes=task.num_classes,
        head=head.model,
        provenance={"experiment": "bench-serve", "head_accuracy": head.score},
        seed=context.scale.seed,
    )
    return {"artifact": path, "samples": task.test.images}


def _batching_payload(state) -> Dict[str, Any]:
    """One request stream, one-at-a-time and then coalesced.

    The baseline is a single closed loop on ``max_batch=1``: the
    throughput of a server that forwards each request straight to the
    model.  The batched run has ``max_batch`` equal to the client count,
    so a window closes the moment every in-flight client is aboard.
    The serving layer's headline contract is asserted here: concurrent
    requests coalesce, and batching clears 2x the baseline throughput.
    """
    samples = state["samples"]
    total = _BATCHING_CLIENTS * _BATCHING_REQUESTS

    def run(config: EngineConfig, clients: int):
        with ServingEngine(state["artifact"], config) as engine:
            engine.predict(samples[0][None])  # warm the forward path
            _, elapsed = _closed_loop(
                lambda index, request: engine.predict(
                    samples[(index * (total // clients) + request) % len(samples)][None]
                ),
                clients,
                total // clients,
            )
            stats = engine.stats()["batching"]
        return total / elapsed, stats

    single_rps, _ = run(EngineConfig(max_batch=1, max_wait_ms=0.0), clients=1)
    batched_rps, stats = run(
        EngineConfig(max_batch=_BATCHING_CLIENTS, max_wait_ms=5.0), clients=_BATCHING_CLIENTS
    )
    speedup = batched_rps / single_rps
    if stats["coalesced_requests_max"] < 2:
        raise RuntimeError(f"concurrent clients never coalesced; batching stats: {stats}")
    if speedup < _BATCHING_MIN_SPEEDUP:
        raise RuntimeError(
            f"batched serving reached {speedup:.2f}x the one-request-at-a-time "
            f"baseline ({batched_rps:.0f} vs {single_rps:.0f} req/s); "
            f"the >= {_BATCHING_MIN_SPEEDUP}x contract is broken"
        )
    return {
        "speedup": round(speedup, 3),
        "requests_per_s": round(batched_rps, 1),
        "coalesced_requests_max": stats["coalesced_requests_max"],
    }


register(
    BenchSpec(
        name="serve.batching_speedup",
        title="Batched vs one-at-a-time serving of the smoke robust ticket (8x25 requests)",
        setup=_batching_setup,
        payload=_batching_payload,
        metrics=("speedup", "requests_per_s", "coalesced_requests_max"),
        # Setup pretrains (or loads from the sweep cache) the smoke-scale
        # backbone: full suite only.  The gate is the in-payload 2x
        # contract; the wall-time band only catches gross slowdowns.
        suites=("full",),
        repeats=3,
        tolerance=1.5,
        timebase="wall",
    )
)


# ----------------------------------------------------------------------
# serve.fleet_resilience — failover under injected shard death
# ----------------------------------------------------------------------
_FLEET_CLIENTS = 4
_FLEET_REQUESTS = 16  # per client
_FLEET_KILL_AFTER = 10  # shard 0 dies mid-load (chaos re-arms per incarnation)

#: Tail budget: one full shard respawn (process start + warm artifact
#: load) plus scheduling slack.  Failover parks and re-routes the dead
#: shard's in-flight requests, so the p99 absorbs the restart pause.
_FLEET_P99_BUDGET_MS = 15_000.0


def _fleet_setup() -> Dict[str, Any]:
    backbone = resnet18(base_width=4, seed=0)
    mask = magnitude_mask(backbone, sparsity=0.6)
    ticket = Ticket(
        scheme="omp",
        prior="adversarial",
        model_name="resnet18",
        base_width=4,
        sparsity=mask.sparsity(),
        mask=mask,
        backbone_state=backbone.state_dict(),
    )
    root = tempfile.mkdtemp(prefix="repro-bench-fleet-")
    path = export_artifact(ticket, os.path.join(root, "model.npz"), num_classes=5, seed=3)
    rng = np.random.default_rng(0)
    return {"artifact": path, "samples": rng.uniform(0.0, 1.0, size=(32, 3, 16, 16))}


def _fleet_payload(state) -> Dict[str, Any]:
    """Boot a 2-shard pool, kill shard 0 mid-load, demand zero loss.

    The timed quantity is the whole recovery story — spawn, routing,
    crash detection, drain-and-re-route, restart — under a client load
    that keeps both shards busy while the chaos hook fires.
    """
    config = FleetConfig(
        shards=2,
        engine=EngineConfig(max_batch=_FLEET_CLIENTS, max_wait_ms=2.0),
        chaos=f"kill-shard:shard=0,after={_FLEET_KILL_AFTER}",
    )
    samples = state["samples"]

    def predict_one(index: int, request: int) -> None:
        sample = samples[(index * _FLEET_REQUESTS + request) % len(samples)]
        logits = fleet.predict(sample[None])
        if logits.shape[0] != 1:
            raise AssertionError(f"bad logits shape {logits.shape}")

    with FleetSupervisor({"model": state["artifact"]}, config, default_model="model") as fleet:
        # A failed request is accepted work the fleet dropped: raises.
        latencies, elapsed = _closed_loop(predict_one, _FLEET_CLIENTS, _FLEET_REQUESTS)
        stats = fleet.stats()
    if stats["crashes"] < 1:
        raise RuntimeError(f"the chaos kill never fired; stats: {stats}")
    if stats["completed"] != stats["accepted"]:
        raise RuntimeError(f"accepted != completed under failover; stats: {stats}")
    if stats["rerouted"] < 1:
        raise RuntimeError(f"the kill stranded no in-flight request to re-route; stats: {stats}")
    p99_ms = float(np.percentile(latencies, 99)) * 1000.0
    if p99_ms > _FLEET_P99_BUDGET_MS:
        raise RuntimeError(
            f"failover tail blew the budget: p99 {p99_ms:.0f}ms > {_FLEET_P99_BUDGET_MS:.0f}ms"
        )
    total = _FLEET_CLIENTS * _FLEET_REQUESTS
    return {
        "requests_per_s": round(total / elapsed, 1),
        "crashes": stats["crashes"],
        "rerouted": stats["rerouted"],
        "latency_p99_ms": round(p99_ms, 1),
    }


register(
    BenchSpec(
        name="serve.fleet_resilience",
        title="Fleet failover: 2 shards, kill mid-load, zero loss (4x16 requests)",
        setup=_fleet_setup,
        payload=_fleet_payload,
        metrics=("requests_per_s", "crashes", "rerouted", "latency_p99_ms"),
        # Process spawn + restart makes this seconds per repeat: full
        # suite only, no warmup (the first boot *is* the story), and a
        # wide band — the gate is the zero-loss contract plus gross
        # (2x+) recovery-path slowdowns, not scheduler jitter.
        suites=("full",),
        warmup=0,
        repeats=3,
        tolerance=1.5,
        timebase="wall",
    )
)


# ----------------------------------------------------------------------
# sparse.*  — sparse execution: compaction speedup + CSR crossover
# ----------------------------------------------------------------------
def _compact_setup() -> Dict[str, Any]:
    model = ClassifierHead(resnet18(base_width=16, seed=0), num_classes=10, seed=1)
    mask = magnitude_mask(model, sparsity=0.9, granularity="channel")
    mask.apply(model)
    masked_dense = fuse(model)
    compacted, report = compact(model)
    if report.removed_channels() < 100:
        raise RuntimeError(f"compaction removed too little to bench: {report.summary()}")
    rng = np.random.default_rng(0)
    return {
        "dense": masked_dense,
        "compacted": compacted,
        "images": rng.uniform(size=(16, 3, 16, 16)),
        "removed": report.removed_channels(),
    }


def _compact_payload(state) -> Dict[str, Any]:
    """Same batch through the masked-dense and the compacted fused graph.

    The ISSUE-level contract — a 90%-channel-sparse ticket must run at
    least 1.5x faster once physically compacted — is asserted here, so
    the gate fails on contract loss (a broken dispatch, a de-compacted
    export) and not just on raw-time drift.
    """
    images = Tensor(state["images"])

    def run(model) -> None:
        with no_grad():
            logits = model(images).data
        if not np.all(np.isfinite(logits)):
            raise FloatingPointError("sparse bench produced non-finite logits")

    dense_s = best_wall(lambda: run(state["dense"]), repeats=4)
    compact_s = best_wall(lambda: run(state["compacted"]), repeats=4)
    speedup = dense_s / compact_s
    if speedup < 1.5:
        raise RuntimeError(
            f"compacted inference is only {speedup:.2f}x faster than masked-dense "
            f"(dense {dense_s * 1e3:.2f}ms, compacted {compact_s * 1e3:.2f}ms); "
            "the >= 1.5x contract at 90% channel sparsity is broken"
        )
    return {"speedup": round(speedup, 2), "removed_channels": state["removed"]}


register(
    BenchSpec(
        name="sparse.compact_inference",
        title="Compacted vs masked-dense fused ResNet-18 at 90% channel sparsity",
        setup=_compact_setup,
        payload=_compact_payload,
        metrics=("speedup", "removed_channels"),
        repeats=5,
    )
)


#: Zero-fraction grid the crossover spec sweeps; the committed
#: ``DEFAULT_THRESHOLD`` must sit inside the bracket the sweep finds.
_CSR_GRID = (0.5, 0.9, 0.95, 0.98)


def _csr_setup() -> Dict[str, Any]:
    rng = np.random.default_rng(0)
    weights = {}
    for zero_fraction in _CSR_GRID:
        weight = rng.standard_normal((256, 2304))
        weight[rng.uniform(size=weight.shape) < zero_fraction] = 0.0
        weights[zero_fraction] = weight
    return {"weights": weights, "rhs": rng.standard_normal((2304, 1024))}


def _csr_payload(state) -> Dict[str, Any]:
    """Dense GEMM vs CSR kernel across the sparsity grid.

    Reports the measured crossover (the first grid point where CSR
    wins) and asserts the committed dispatch threshold is not sitting
    below a losing grid point — the check that keeps
    ``DEFAULT_THRESHOLD`` honest on the reference machine.
    """
    rhs = state["rhs"]
    speedups = {}
    for zero_fraction, weight in state["weights"].items():
        dense_s = best_wall(lambda: weight @ rhs, repeats=3)
        with _sparse.sparse_policy_scope(mode="force"):
            csr_s = best_wall(lambda: _sparse.maybe_sparse_gemm(weight, rhs), repeats=3)
        speedups[zero_fraction] = dense_s / csr_s
    _sparse.clear_cache()
    crossover = next(
        (zero_fraction for zero_fraction, ratio in speedups.items() if ratio > 1.0), None
    )
    if crossover is None:
        raise RuntimeError(
            f"CSR never beat dense on the grid {speedups}; the sparse "
            "dispatch path has lost its win"
        )
    losing = [
        zero_fraction
        for zero_fraction, ratio in speedups.items()
        if zero_fraction >= _sparse.DEFAULT_THRESHOLD and ratio <= 1.0
    ]
    if losing:
        raise RuntimeError(
            f"dispatch threshold {_sparse.DEFAULT_THRESHOLD} admits losing "
            f"sparsities {losing} (grid {speedups}); re-measure the crossover"
        )
    return {"crossover": crossover, "speedup_at_98": round(speedups[0.98], 2)}


register(
    BenchSpec(
        name="sparse.csr_matmul",
        title="CSR vs dense GEMM crossover (256x2304 @ 2304x1024 sparsity grid)",
        setup=_csr_setup,
        payload=_csr_payload,
        metrics=("crossover", "speedup_at_98"),
        repeats=3,
    )
)


def _artifact_size_setup() -> Dict[str, Any]:
    model = ClassifierHead(resnet18(base_width=8, seed=0), num_classes=10, seed=1)
    pruned = ClassifierHead(resnet18(base_width=8, seed=0), num_classes=10, seed=1)
    mask = magnitude_mask(pruned, sparsity=0.8)
    mask.apply(pruned)
    return {"dense": model, "pruned": pruned, "mask": mask}


def _artifact_size_payload(state) -> Dict[str, Any]:
    """Seal a dense and an 80%-unstructured model; assert the shrink.

    Deterministic (no timing sensitivity): the gate is the >= 2x
    on-disk reduction contract of the sparse artifact encoding.
    """
    root = tempfile.mkdtemp(prefix="repro-bench-sparse-size-")
    dense_path = export_artifact(
        state["dense"], os.path.join(root, "dense.npz"), model_name="resnet18", base_width=8
    )
    pruned_path = export_artifact(
        state["pruned"],
        os.path.join(root, "pruned.npz"),
        model_name="resnet18",
        base_width=8,
        mask=state["mask"],
    )
    shrink = os.path.getsize(dense_path) / os.path.getsize(pruned_path)
    if shrink < 2.0:
        raise RuntimeError(
            f"80%-sparse artifact shrank only {shrink:.2f}x on disk; "
            "the >= 2x sparse-encoding contract is broken"
        )
    return {"shrink": round(shrink, 2)}


register(
    BenchSpec(
        name="sparse.artifact_size",
        title="Sealed artifact on-disk shrink at 80% unstructured sparsity",
        setup=_artifact_size_setup,
        payload=_artifact_size_payload,
        metrics=("shrink",),
        repeats=3,
        # The payload is filesystem-bound (npz write + two exports);
        # gate on raw seconds with a wide band — the real gate is the
        # in-payload shrink contract.
        tolerance=1.5,
        timebase="wall",
    )
)


# ----------------------------------------------------------------------
# serve.metrics_overhead — instrumentation cost on the serving hot path
# ----------------------------------------------------------------------
_OBS_RECORD_ITERS = 2000
_OBS_REQUESTS = 24
_OBS_ROWS = 8  # rows per request: the tuned micro-batch occupancy
_OBS_MAX_OVERHEAD_PCT = 2.0


def _metrics_overhead_setup() -> Dict[str, Any]:
    backbone = resnet18(base_width=4, seed=0)
    mask = magnitude_mask(backbone, sparsity=0.6)
    ticket = Ticket(
        scheme="omp",
        prior="adversarial",
        model_name="resnet18",
        base_width=4,
        sparsity=mask.sparsity(),
        mask=mask,
        backbone_state=backbone.state_dict(),
    )
    root = tempfile.mkdtemp(prefix="repro-bench-obs-")
    path = export_artifact(ticket, os.path.join(root, "model.npz"), num_classes=5, seed=3)
    rng = np.random.default_rng(0)

    def instrument_set(enabled: bool):
        """One request's worth of bound instruments, live or no-op.

        Mirrors every record the serving stack makes for a coalesced
        request, charging the per-*batch* records (occupancy, queue
        depth, forward latency) to a single request — the worst case,
        where no coalescing amortises them.
        """
        registry = MetricsRegistry(enabled=enabled)
        return (
            registry.counter("bench_requests_total", labels=("model",)).labelled(model="m"),
            registry.counter("bench_rows_total", labels=("model",)).labelled(model="m"),
            registry.counter("bench_batches_total"),
            registry.counter("bench_http_total", labels=("route", "status")).labelled(
                route="/predict", status="200"
            ),
            registry.gauge("bench_queue_depth"),
            registry.histogram("bench_occupancy"),
            registry.histogram("bench_coalesce_s"),
            registry.histogram("bench_forward_s"),
        )

    return {
        "artifact": path,
        "samples": rng.uniform(0.0, 1.0, size=(_OBS_ROWS, 3, 16, 16)),
        "live": instrument_set(enabled=True),
        "null": instrument_set(enabled=False),
    }


def _metrics_overhead_payload(state) -> Dict[str, Any]:
    """Record-sequence cost vs real request service time, same run.

    The ISSUE-level contract — instrumenting the hot path must cost
    under 2% of a request's service time — is asserted here, so the
    gate fails on contract loss (a heavyweight instrument, a registry
    lookup leaking onto the hot path) and not just on raw-time drift.
    """

    def record_loop(instruments) -> None:
        requests, rows, batches, http, depth, occupancy, coalesce, forward = instruments
        for _ in range(_OBS_RECORD_ITERS):
            requests.inc()
            rows.inc(_OBS_ROWS)
            batches.inc()
            http.inc()
            depth.set(3)
            occupancy.observe(_OBS_ROWS)
            coalesce.observe(0.0012)
            forward.observe(0.0034)

    live_s = best_wall(lambda: record_loop(state["live"]), repeats=4)
    null_s = best_wall(lambda: record_loop(state["null"]), repeats=4)

    samples = state["samples"]
    with ServingEngine(
        state["artifact"], config=EngineConfig(max_batch=_OBS_ROWS, max_wait_ms=0.0)
    ) as engine:

        def serve() -> None:
            for _ in range(_OBS_REQUESTS):
                engine.predict(samples)

        service_s = best_wall(serve, repeats=4)

    record_us = live_s / _OBS_RECORD_ITERS * 1e6
    null_us = null_s / _OBS_RECORD_ITERS * 1e6
    service_us = service_s / _OBS_REQUESTS * 1e6
    overhead_pct = record_us / service_us * 100.0
    if overhead_pct >= _OBS_MAX_OVERHEAD_PCT:
        raise RuntimeError(
            f"instrumenting a request costs {record_us:.2f}us against a "
            f"{service_us:.0f}us service time ({overhead_pct:.2f}% >= "
            f"{_OBS_MAX_OVERHEAD_PCT}% budget)"
        )
    return {
        "record_us": round(record_us, 3),
        "null_us": round(null_us, 3),
        "service_us": round(service_us, 1),
        "overhead_pct": round(overhead_pct, 4),
    }


register(
    BenchSpec(
        name="serve.metrics_overhead",
        title="Metrics registry cost on the serving hot path (<2% budget)",
        setup=_metrics_overhead_setup,
        payload=_metrics_overhead_payload,
        metrics=("record_us", "null_us", "service_us", "overhead_pct"),
        repeats=5,
        # The payload is dominated by real forward passes (CPU-bound),
        # but the contract assertion inside it is the actual gate; the
        # band only needs to catch gross record-path slowdowns.
        tolerance=1.0,
    )
)
