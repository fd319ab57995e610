"""End-to-end benchmark of the robust-ticket system; see README.md here.

Run from the repository root::

    python3 perfbench/run.py --workload fig1-smoke --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` runs the
separate traced run that attributes time to layers.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it are a human-readable
table of every number measured and a ``perfbench-record`` JSON line
with the run's inputs and environment.  ``--workload all`` runs both
workloads in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("fig1-smoke", "serve-b64-fleet")

#: (name, unit) of every end-to-end metric; each workload reports each.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("rows_per_s", "1/s"),
)

#: (name, unit) of every per-layer metric; 0 where a workload does not
#: reach the layer.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("core.pipeline.pretrain_s.natural", "s"),
    ("core.pipeline.pretrain_s.robust", "s"),
    ("attacks.pgd.calls", "count"),
    ("attacks.pgd.self_s", "s"),
    ("attacks.pgd.incl_s", "s"),
    ("training.trainer.steps", "count"),
    ("training.trainer.self_s", "s"),
    ("training.evaluation.self_s", "s"),
    ("tensor.conv2d.calls", "count"),
    ("tensor.conv2d.self_s", "s"),
    ("tensor.backward.calls", "count"),
    ("tensor.backward.self_s", "s"),
    ("tensor.batch_norm2d.self_s", "s"),
    ("pruning.mask.draw_s", "s"),
    ("pruning.mask.grad_mask_s", "s"),
    ("core.transfer.finetune_s", "s"),
    ("core.cache.hits", "count"),
    ("core.cache.misses", "count"),
    ("serve.http.responses_2xx", "count"),
    ("serve.http.responses_503", "count"),
    ("serve.http.responses_other", "count"),
    ("serve.batching.batches", "count"),
    ("serve.batching.occupancy_rows.mean", "rows"),
    ("serve.batching.coalesce_ms.p50", "ms"),
    ("serve.batching.coalesce_ms.p90", "ms"),
    ("serve.batching.queue_wait_ms.mean", "ms"),
    ("serve.batching.rejects", "count"),
    ("serve.batching.timeouts", "count"),
    ("serve.engine.forward_ms.p50.unstructured95", "ms"),
    ("serve.engine.forward_ms.p50.channel90", "ms"),
    ("serve.engine.rows", "count"),
    ("serve.store.loads", "count"),
    ("serve.client.wire_ms.mean", "ms"),
    ("serve.fleet.accepted", "count"),
    ("serve.fleet.completed", "count"),
    ("serve.fleet.admission_rejects", "count"),
    ("serve.fleet.reroutes", "count"),
    ("serve.fleet.shard_crashes", "count"),
    ("serve.fleet.heartbeat_rtt_ms.p50", "ms"),
    ("trace.overhead_frac", "frac"),
)

#: (name, unit) of each workload's own end-to-end numbers, printed in
#: the table and recorded; the gated metrics are END_TO_END.
DETAILS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "fig1-smoke": (
        ("failed_frac", "frac"), ("pretrain_s", "s"), ("transfer_s", "s"),
        ("transfer_acc", "frac"), ("steps", "count"),
    ),
    "serve-b64-fleet": (
        ("failed_frac", "frac"),
        ("latency_p50_ms.unstructured95", "ms"), ("latency_p50_ms.channel90", "ms"),
    ),
}

#: BLAS pool size of the server and its shards, unless set already.  A
#: fleet is three processes; with a pool per core in each, they would
#: oversubscribe the machine.  ``fig1-smoke`` runs alone and keeps the
#: library default.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: How many times set-up runs in one measured run; the median is reported.
SETUP_ROUNDS = 5

#: Exit codes besides 0.
EXIT_ERROR, EXIT_LEAK, EXIT_INTERRUPTED = 1, 3, 130


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _interrupt(signum, frame) -> None:  # noqa: ARG001 - signal handler signature
    raise KeyboardInterrupt(f"signal {signum}")


def child_env() -> Dict[str, str]:
    """Environment for every child: the checkout's sources, no disk caches."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["REPRO_SWEEP_CACHE"] = ""
    env.pop("REPRO_METRICS", None)
    env.pop("REPRO_CHAOS", None)
    return env


# ----------------------------------------------------------------------
# The run's record: inputs and environment
# ----------------------------------------------------------------------
def environment_record(seed: int) -> dict:
    import numpy as np

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    from repro.tensor import sparse

    policy = sparse.get_policy()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "seed": seed,
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads_env": {key: os.environ.get(key) for key in BLAS_THREAD_VARS},
        "blas": blas,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "sparse_policy": {"mode": policy.mode, "threshold": policy.threshold,
                          "backend": sparse.sparse_backend()},
    }


def _commit() -> str:
    """The checkout's commit when it is a git repository, else ``unknown``."""
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def run_fig1(seed: int, trace: bool, workdir: Path) -> dict:
    import pb_fig1
    from pb_trace import SpanRecorder

    if trace:
        plain = pb_fig1.run_pipeline(seed, None)
        recorder = SpanRecorder()
        traced = pb_fig1.run_pipeline(seed, recorder)
        recorder.dump(str(workdir / "spans.json"))
        layers = pb_fig1.layer_metrics(recorder.spans, *traced["cache"])
        layers["trace.overhead_frac"] = traced["work_s"] / plain["work_s"] - 1.0
        result = traced
        result["layers"] = layers
    else:
        probes = [_setup_probe("fig1-smoke", seed) for _ in range(SETUP_ROUNDS)]
        result = pb_fig1.run_pipeline(seed, None)
        result["setup_s"] = statistics.median(probes)
        result["setup_s_samples"] = probes
    result["correct"] = result["failed"] == 0
    return result


def _setup_probe(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter (imports are part of it)."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload, "--seed", str(seed)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({done.returncode}):\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def run_serving(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import pb_serve

    env = child_env()
    for key in BLAS_THREAD_VARS:
        env.setdefault(key, "1")
    # The fleet's shard sockets live under TMPDIR; keep them in the
    # checkout unless the path would exceed the AF_UNIX length limit.
    if len(str(workdir)) < 70:
        env["TMPDIR"] = str(workdir)
    setups = 1 if trace else SETUP_ROUNDS
    raw = pb_serve.run(seed, seconds, trace, setups, str(workdir), env, str(ROOT), _log)
    summary = raw["traced_summary"] if trace else raw["summary"]
    result = dict(summary)
    result["setup_s"] = statistics.median(raw["setup_s_samples"])
    result["setup_s_samples"] = raw["setup_s_samples"]
    result["artifacts"] = raw["facts"]
    result["server_blas_threads_env"] = {key: env[key] for key in BLAS_THREAD_VARS}
    result["lone_mismatches"] = raw["lone_mismatches"]
    result["failed"] = summary["failed"] + raw["lone_mismatches"]
    result["attempted"] = summary["attempted"]
    result["correct"] = result["failed"] == 0
    if trace:
        result["layers"] = raw["layers"]
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK / f"{workload}-s{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if workload == "fig1-smoke":
            result = run_fig1(seed, trace, workdir)
        else:
            result = run_serving(seed, seconds, trace, workdir)
        spans = workdir / "spans.json"
        if spans.exists():
            traces = WORK / "traces"
            traces.mkdir(exist_ok=True)
            shutil.move(str(spans), str(traces / f"{workload}-seed{seed}.json"))
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def result_metrics(result: dict, trace: bool) -> Dict[str, dict]:
    if trace:
        layers = result["layers"]
        return {name: {"value": float(layers.get(name, 0.0)), "unit": unit} for name, unit in PER_LAYER}
    return {name: {"value": float(result[name]), "unit": unit} for name, unit in END_TO_END}


def print_table(workload: str, result: dict, metrics: Dict[str, dict]) -> None:
    print(f"== {workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    rows = [(name, entry["value"], entry["unit"]) for name, entry in metrics.items()]
    rows += [(name, result[name], unit) for name, unit in DETAILS[workload] if name in result]
    for name, value, unit in rows:
        print(f"   {name:<44} {value:>14.4f} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        _log(f"perfbench: no sources at {SRC / 'repro'}; run it from a full repository checkout")
        return EXIT_ERROR
    sys.path.insert(0, str(SRC))
    os.environ["REPRO_SWEEP_CACHE"] = ""

    if args.setup_probe:
        import pb_fig1

        print(f"{pb_fig1.setup_probe(args.seed):.9f}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    from pb_procs import LeakError, become_subreaper, check_clean

    signal.signal(signal.SIGTERM, _interrupt)
    become_subreaper()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        try:
            record = environment_record(args.seed)
            for workload in workloads:
                began = time.perf_counter()
                result = run_workload(workload, args.seed, args.seconds, trace)
                metrics = result_metrics(result, trace)
                print_table(workload, result, metrics)
                record[workload] = dict(result, metrics=metrics, wall_s=time.perf_counter() - began)
                combined["correct"] = combined["correct"] and result["correct"]
                combined["attempted"] += int(result["attempted"])
                combined["failed"] += int(result["failed"])
                prefix = "" if len(workloads) == 1 else f"{workload}."
                combined["metrics"].update({prefix + k: v for k, v in metrics.items()})
        finally:
            check_clean(root=os.getpid())
    except LeakError as error:
        _log(f"perfbench: LEAK: {error}")
        return EXIT_LEAK
    except KeyboardInterrupt:
        _log("perfbench: interrupted; everything it started was stopped")
        return EXIT_INTERRUPTED
    print("perfbench-record " + json.dumps(record, default=str, sort_keys=True))
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
