"""serve-b64-fleet: sealed tickets behind a real ``python -m repro.serve``.

Two closed-loop clients send 64-row requests to a ``--shards 2`` fleet,
alternating between two sealed ResNet-18 (width 16) tickets: 95%
unstructured (several conv layers past the CSR dispatch threshold) and
90% channel (a compacted graph).

Everything is driven through public surfaces: artifacts are sealed with
``export_artifact``, the server is a child process, requests go through
``HTTPClient`` and the per-layer numbers are deltas of the server's own
``GET /metrics``.
"""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

import pb_metrics as pm
from pb_procs import ServerProcess, stop_and_verify
from pb_trace import SpanRecorder

MODELS: Tuple[Tuple[str, str, float], ...] = (
    ("unstructured95", "unstructured", 0.95),
    ("channel90", "channel", 0.90),
)
WIDTH = 16
NUM_CLASSES = 10
INPUT_SHAPE = (3, 16, 16)

#: Fleet shard processes, rows per request and pooled requests per model.
SHARDS, ROWS, POOL = 2, 64, 4
#: Load comes from at most this many threads (= connections at a time).
LOAD_THREADS = 2
#: A request that takes longer fails, and counts at this latency.
REQUEST_TIMEOUT_S = 10.0
#: float32 tolerance for responses of coalesced batches.
RTOL, ATOL = 1e-4, 1e-5
#: Untimed closed-loop load on each server before its window.
WARM_UP_S = 0.5


@dataclass
class Sample:
    """One request: when it was sent and answered, and whether it was right."""

    model: str
    sent: float
    done: float
    ok: bool
    rows: int


# ----------------------------------------------------------------------
# Artifacts, inputs and reference outputs
# ----------------------------------------------------------------------
def seal_artifacts(directory: str, seed: int) -> Dict[str, str]:
    """Seal the two tickets from seeded weights; returns name -> path."""
    from repro.core.tickets import Ticket
    from repro.models.resnet import resnet18
    from repro.pruning.mask import magnitude_mask
    from repro.serve.artifact import export_artifact

    os.makedirs(directory, exist_ok=True)
    paths = {}
    for index, (name, granularity, sparsity) in enumerate(MODELS):
        backbone = resnet18(base_width=WIDTH, seed=seed * 10 + index)
        # Layerwise channel pruning gives every seed the same compacted
        # shapes, so the forward's cost does not vary with the seed.
        scope = "layerwise" if granularity == "channel" else "global"
        mask = magnitude_mask(backbone, sparsity=sparsity, granularity=granularity, scope=scope)
        ticket = Ticket(
            scheme="omp",
            prior="adversarial",
            model_name="resnet18",
            base_width=WIDTH,
            sparsity=mask.sparsity(),
            mask=mask,
            backbone_state=backbone.state_dict(),
            granularity=granularity,
        )
        paths[name] = export_artifact(
            ticket, os.path.join(directory, f"{name}.npz"), num_classes=NUM_CLASSES,
            seed=seed * 10 + index + 5,
        )
    return paths


def artifact_facts(paths: Dict[str, str]) -> Dict[str, dict]:
    """What each artifact is, as recorded with every result."""
    from repro.serve.artifact import load_artifact
    from repro.tensor import sparse

    threshold = sparse.get_policy().threshold
    facts = {}
    for name, path in paths.items():
        artifact = load_artifact(path)
        convs = [value for value in artifact.state.values() if np.ndim(value) == 4]
        above = sum(1 for value in convs if 1.0 - np.count_nonzero(value) / value.size >= threshold)
        facts[name] = {
            "sparsity": round(artifact.sparsity(), 6),
            "state_bytes": artifact.provenance.get("state_bytes"),
            "compaction": artifact.provenance.get("compaction"),
            "conv_layers": len(convs),
            "conv_share_above_csr_threshold": round(above / len(convs), 4) if convs else 0.0,
        }
    return facts


def make_pools(seed: int) -> Dict[str, np.ndarray]:
    """Per model, ``POOL`` requests of ``ROWS`` rows each, uniform in [0, 1)."""
    rng = np.random.default_rng([seed, 7])
    return {
        name: rng.uniform(0.0, 1.0, size=(POOL, ROWS) + INPUT_SHAPE).astype(np.float32)
        for name, _, _ in MODELS
    }


def reference_logits(paths: Dict[str, str], pools: Dict[str, np.ndarray]) -> Dict[str, List[np.ndarray]]:
    """``predict_logits`` of the rebuilt sealed graph, one call per pooled request."""
    from repro.serve.artifact import load_artifact
    from repro.training.evaluation import predict_logits

    references = {}
    for name, pool in pools.items():
        model = load_artifact(paths[name]).build_model()
        references[name] = [predict_logits(model, request) for request in pool]
    return references


def response_ok(logits: np.ndarray, reference: np.ndarray) -> bool:
    """Same shape, ``allclose`` in float32 tolerance, and the same argmax.

    Argmax is compared only for rows whose top two reference logits are
    further apart than the tolerance allows, since rounding may
    legitimately swap a near-tie.
    """
    if logits.shape != reference.shape or not np.allclose(logits, reference, rtol=RTOL, atol=ATOL):
        return False
    ordered = np.sort(reference, axis=1)
    margin = ordered[:, -1] - ordered[:, -2]
    decisive = margin > 2.0 * (ATOL + RTOL * np.abs(ordered[:, -1]))
    return bool(np.all(logits.argmax(axis=1)[decisive] == reference.argmax(axis=1)[decisive]))


# ----------------------------------------------------------------------
# Server lifecycle
# ----------------------------------------------------------------------
def _client(url: str):
    from repro.serve.client import HTTPClient, RetryPolicy

    # One attempt per request: a retried request would hide a failure.
    return HTTPClient(url, timeout=REQUEST_TIMEOUT_S, retry=RetryPolicy(attempts=1))


def start_server(
    paths: Dict[str, str], workdir: str, env: Dict[str, str], cwd: str, tag: str
) -> Tuple[ServerProcess, str]:
    """Start the server and wait until ``/healthz`` lists both models and live shards."""
    argv = [sys.executable, "-m", "repro.serve", "--port", "0", "--shards", str(SHARDS)]
    for name, path in paths.items():
        argv += ["--artifact", f"{name}={path}"]
    server = ServerProcess(argv, os.path.join(workdir, f"server-{tag}.log"), env, cwd)
    try:
        url = server.wait_for_url(60.0)
        client = _client(url)
        deadline = time.monotonic() + 60.0
        while True:
            health = client.healthz()
            missing = [name for name in paths if name not in health.get("loaded", [])]
            shards = health.get("shards", [])
            if health.get("status") == "ok" and not missing and all(
                shard.get("state") == "live" for shard in shards
            ):
                return server, url
            for name in missing:
                client.load(name)
            if time.monotonic() > deadline:
                raise RuntimeError(f"server not ready after 60s: {health}")
            time.sleep(0.02)
    except BaseException:
        stop_and_verify(server, None)
        raise


def port_of(url: str) -> int:
    return int(url.rsplit(":", 1)[1].split("/")[0])


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
class LoadGenerator:
    """At most ``LOAD_THREADS`` threads issuing requests; all joined on exit."""

    def __init__(self, url: str, pools, references, seed: int) -> None:
        self.url = url
        self.pools = pools
        self.references = references
        self.names = [name for name, _, _ in MODELS]
        self.rng = np.random.default_rng([seed, 13])
        self.stop = threading.Event()
        self.threads: List[threading.Thread] = []
        self.errors: List[str] = []
        self._lock = threading.Lock()

    def _pick(self, index: int) -> Tuple[str, int]:
        """Request ``index`` alternates models; the pooled input is seeded."""
        name = self.names[index % len(self.names)]
        return name, int(self.rng.integers(len(self.pools[name])))

    def _send(self, client, name: str, item: int) -> bool:
        try:
            logits = client.predict(self.pools[name][item], model=name)
        except Exception as error:  # noqa: BLE001 - any error is one failed request, recorded
            # A non-2xx answer, a timeout or a malformed body: the load
            # thread must keep going and count it, not die.
            with self._lock:
                if len(self.errors) < 20:
                    self.errors.append(f"{name}: {error!r}")
            return False
        return response_ok(logits, self.references[name][item])

    def closed_loop(self, seconds: float) -> List[Sample]:
        """Each thread sends its next request when the previous one returns."""
        samples: List[Sample] = []
        counter = iter(range(1 << 62))
        deadline = time.perf_counter() + seconds

        def worker() -> None:
            client = _client(self.url)
            while not self.stop.is_set() and time.perf_counter() < deadline:
                with self._lock:
                    name, item = self._pick(next(counter))
                sent = time.perf_counter()
                ok = self._send(client, name, item)
                sample = Sample(name, sent, time.perf_counter(), ok, self.pools[name].shape[1])
                with self._lock:
                    samples.append(sample)

        self.threads = [
            threading.Thread(target=worker, name=f"perfbench-load-{index}")
            for index in range(LOAD_THREADS)
        ]
        for thread in self.threads:
            thread.start()
        try:
            for thread in self.threads:
                while thread.is_alive():
                    thread.join(0.1)
        finally:
            self.stop.set()
            for thread in self.threads:
                thread.join(REQUEST_TIMEOUT_S + 5.0)
        return samples


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def latencies_ms(samples: Sequence[Sample]) -> List[float]:
    """Round trips; a failed request counts at the request timeout."""
    return [
        (sample.done - sample.sent) * 1000.0 if sample.ok else REQUEST_TIMEOUT_S * 1000.0
        for sample in samples
    ]


def summarize(samples: Sequence[Sample]) -> Dict[str, float]:
    """The end-to-end numbers of one timed window.

    The two tickets' round trips form two separate modes, so the pooled
    median falls in the gap between them and jumps with the mix.
    ``latency_p50_ms`` is therefore the mean of the per-ticket medians;
    the pooled p90 lies inside the slower mode and is kept as is.
    """
    failed = sum(1 for sample in samples if not sample.ok)
    first = min(sample.sent for sample in samples)
    last = max(sample.done for sample in samples)
    out: Dict[str, float] = {
        "attempted": len(samples),
        "failed": failed,
        "failed_frac": failed / len(samples),
    }
    for name, _, _ in MODELS:
        mine = [sample for sample in samples if sample.model == name]
        if mine:
            out[f"latency_p50_ms.{name}"] = pm.sample_quantile(latencies_ms(mine), 0.5)
    out["latency_p50_ms"] = statistics.fmean(
        value for key, value in out.items() if key.startswith("latency_p50_ms.")
    )
    out["latency_p90_ms"] = pm.sample_quantile(latencies_ms(samples), 0.9)
    out["rows_per_s"] = sum(sample.rows for sample in samples if sample.ok) / (last - first)
    out["round_trip_mean_ms"] = statistics.fmean(
        (sample.done - sample.sent) * 1000.0 for sample in samples
    )
    return out


def combine(summaries: Sequence[Dict[str, float]]) -> Dict[str, object]:
    """Counts summed over the windows; every other number is their median."""
    out: Dict[str, object] = {
        key: statistics.median(summary[key] for summary in summaries)
        for key in summaries[0] if key not in ("attempted", "failed", "failed_frac")
    }
    out["attempted"] = sum(summary["attempted"] for summary in summaries)
    out["failed"] = sum(summary["failed"] for summary in summaries)
    out["failed_frac"] = out["failed"] / out["attempted"]
    out["windows"] = list(summaries)
    return out


def layer_metrics(before: dict, after: dict, round_trip_ms: float) -> Dict[str, float]:
    """Per-layer numbers of the traced window from two ``/metrics`` snapshots."""
    counter = lambda name, **labels: pm.counter_delta(before, after, name, **labels)  # noqa: E731
    histogram = lambda name, **labels: pm.histogram_delta(before, after, name, **labels)  # noqa: E731

    statuses: Dict[str, float] = {"2xx": 0.0, "503": 0.0, "other": 0.0}
    for instrument in after.get("instruments", []):
        if instrument["name"] == "serve_http_requests_total" and instrument["labels"].get("route") == "/predict":
            status = str(instrument["labels"].get("status"))
            key = "2xx" if status.startswith("2") else "503" if status == "503" else "other"
            statuses[key] += counter("serve_http_requests_total", route="/predict", status=status)

    coalesce = histogram("serve_batch_coalesce_latency_s")
    forward = histogram("serve_forward_latency_s")
    occupancy = histogram("serve_batch_occupancy_rows")
    metrics = {
        "serve.http.responses_2xx": statuses["2xx"],
        "serve.http.responses_503": statuses["503"],
        "serve.http.responses_other": statuses["other"],
        "serve.batching.batches": counter("serve_batch_batches_total"),
        "serve.batching.occupancy_rows.mean": pm.histogram_mean(occupancy),
        "serve.batching.coalesce_ms.p50": 1000.0 * pm.bucket_quantile(coalesce, 0.5),
        "serve.batching.coalesce_ms.p90": 1000.0 * pm.bucket_quantile(coalesce, 0.9),
        "serve.batching.queue_wait_ms.mean": 1000.0 * (pm.histogram_mean(coalesce) - pm.histogram_mean(forward)),
        "serve.batching.rejects": counter("serve_batch_rejects_total"),
        "serve.batching.timeouts": counter("serve_batch_timeouts_total"),
        "serve.engine.rows": counter("serve_model_rows_total"),
        "serve.store.loads": counter("serve_store_loads_total"),
        "serve.client.wire_ms.mean": round_trip_ms - 1000.0 * pm.histogram_mean(coalesce),
        "serve.fleet.accepted": counter("fleet_requests_accepted_total"),
        "serve.fleet.completed": counter("fleet_requests_completed_total"),
        "serve.fleet.admission_rejects": counter("fleet_admission_rejects_total"),
        "serve.fleet.reroutes": counter("fleet_reroutes_total"),
        "serve.fleet.shard_crashes": counter("fleet_shard_crashes_total"),
        "serve.fleet.heartbeat_rtt_ms.p50": 1000.0 * pm.bucket_quantile(histogram("fleet_heartbeat_rtt_s"), 0.5),
    }
    for name, _, _ in MODELS:
        metrics[f"serve.engine.forward_ms.p50.{name}"] = 1000.0 * pm.bucket_quantile(
            histogram("serve_forward_latency_s", model=name), 0.5
        )
    return metrics


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool, setups: int, workdir: str, env: Dict[str, str],
        cwd: str, log: Callable[[str], None]) -> dict:
    """Set up ``setups`` servers in turn and time a window on each.

    Each set-up seals the artifacts afresh and starts a new server; its
    lone requests are checked, then ``seconds / setups`` of closed-loop
    load are timed before it is stopped.  A server's speed depends a
    little on how its processes land on the cores, so the windows'
    median is steadier than one long window on one server.  The traced
    run sets up once and times an untraced and a traced window of
    ``seconds`` each.
    """
    pools = make_pools(seed)
    references = None
    setup_s: List[float] = []
    plain: List[Dict[str, float]] = []
    lone_mismatches = 0
    result: dict = {}
    for index in range(setups):
        began = time.perf_counter()
        paths = seal_artifacts(os.path.join(workdir, f"artifacts-{index}"), seed)
        server, url = start_server(paths, workdir, env, cwd, str(index))
        setup_s.append(time.perf_counter() - began)
        generators: List[LoadGenerator] = []
        try:
            if references is None:
                references = reference_logits(paths, pools)
            lone_mismatches += _check_lone_requests(url, pools, references)

            def window(length: float, offset: int) -> List[Sample]:
                generator = LoadGenerator(url, pools, references, seed + offset)
                generators.append(generator)
                samples = generator.closed_loop(length)
                if generator.errors:
                    log(f"serve-b64-fleet: request errors: {generator.errors}")
                return samples

            window(WARM_UP_S, 1000 + index)  # connections and kernel caches warm before timing
            plain.append(summarize(window(seconds / setups, index)))
            if trace:
                client = _client(url)
                before = client.metrics()
                traced = window(seconds, 500)
                after = client.metrics()
                recorder = SpanRecorder()
                for sample in traced:
                    recorder.add("serve.client.request", sample.sent, sample.done)
                recorder.dump(os.path.join(workdir, "spans.json"))
                result["traced_summary"] = summarize(traced)
                round_trip = result["traced_summary"]["round_trip_mean_ms"]
                result["layers"] = layer_metrics(before, after, round_trip)
                result["layers"]["trace.overhead_frac"] = round_trip / plain[-1]["round_trip_mean_ms"] - 1.0
        finally:
            for generator in generators:
                generator.stop.set()
            stop_and_verify(server, port_of(url), [t for g in generators for t in g.threads])
    log(f"serve-b64-fleet: set-up {['%.3f' % value for value in setup_s]} s")
    result.update(setup_s_samples=setup_s, summary=combine(plain), lone_mismatches=lone_mismatches,
                  facts=artifact_facts(paths))
    return result


def _check_lone_requests(url: str, pools, references) -> int:
    """Every pooled request, sent alone, must equal its reference byte for byte."""
    client = _client(url)
    mismatches = 0
    for name, pool in pools.items():
        for item, request in enumerate(pool):
            logits = client.predict(request, model=name)
            expected = references[name][item]
            if logits.dtype != expected.dtype or not np.array_equal(logits, expected):
                mismatches += 1
    return mismatches
