"""fig1-smoke: the paper's pipeline through the experiment registry.

The registered ``fig1`` experiment (OMP tickets, whole-model
finetuning) runs in-process at a seeded copy of the ``smoke`` scale,
restricted to ``cifar10``: ``ExperimentContext.prewarm`` pretrains the
natural and the PGD-robust backbone, then the grid runs serially.  The
sweep cache and the run store are off, so every run does all the work.

The untraced run times each optimisation step from outside the
trainer (:class:`StepClock`); the traced run wraps the layer entry
points listed in :func:`install_spans`.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable, Dict, List, Optional

import pb_metrics as pm
from pb_trace import Patches, SpanRecorder, aggregate, argument, constant

WORKLOAD = "fig1-smoke"
MODEL = "resnet18"
TASK = "cifar10"
#: The densest grid point's natural accuracy must be at least this, three
#: times chance on the 10-class task, so a model that answers one class
#: everywhere fails the row check.  Seeded runs at this scale gave
#: 0.56-0.91 over 20 seeds.
MIN_DENSE_NATURAL_ACC = 0.3


def scale_for(seed: int):
    """The smoke scale with the run's seed, on one downstream task."""
    from repro.experiments.config import get_scale

    return dataclasses.replace(get_scale("smoke"), seed=seed, tasks=(TASK,))


def build_context(seed: int):
    """Set-up: imports, the experiment context and task generation."""
    import repro.experiments.registry  # noqa: F401 - imports are part of set-up
    from repro.experiments.context import ExperimentContext

    context = ExperimentContext(scale_for(seed))
    context.pipeline(MODEL)  # generates the source task
    context.task(TASK)
    return context


def setup_probe(seed: int) -> float:
    """Seconds :func:`build_context` takes in a fresh interpreter."""
    began = time.perf_counter()
    build_context(seed)
    return time.perf_counter() - began


class StepClock:
    """Times each step of ``Trainer.fit`` from the trainer's data loader.

    The loader used by ``fit`` is swapped for a subclass whose iterator
    notes the time between handing out a batch and being asked for the
    next one: exactly one optimisation step (attack, forward, backward,
    update).  Loaders created outside ``fit`` (evaluation) are not timed.
    """

    def __init__(self) -> None:
        self.steps_s: List[float] = []
        self.rows = 0
        self._fitting = 0

    def install(self, patches: Patches) -> None:
        import repro.training.trainer as trainer_module

        clock = self
        base = trainer_module.DataLoader

        class TimedLoader(base):
            def __iter__(self):
                for images, labels in base.__iter__(self):
                    began = time.perf_counter()
                    yield images, labels
                    if clock._fitting:
                        clock.steps_s.append(time.perf_counter() - began)
                        clock.rows += len(labels)

        def counting(fit: Callable) -> Callable:
            def fit_counted(*args, **kwargs):
                clock._fitting += 1
                try:
                    return fit(*args, **kwargs)
                finally:
                    clock._fitting -= 1

            return fit_counted

        patches.replace(trainer_module, "DataLoader", lambda _: TimedLoader)
        patches.replace(trainer_module.Trainer, "fit", counting)


def install_spans(recorder: SpanRecorder, patches: Patches) -> None:
    """Wrap each layer's entry point where its callers look it up."""
    import repro.core.pipeline as pipeline_module
    import repro.core.transfer as transfer_module
    import repro.tensor as tensor_module
    from repro.pruning.mask import PruningMask
    from repro.tensor.tensor import Tensor
    from repro.training.adversarial import AdversarialTrainer
    from repro.training.trainer import Trainer

    def timed(name):
        return lambda original: recorder.wrap(original, name)

    patches.replace(
        pipeline_module.RobustTicketPipeline, "pretrain",
        timed(argument("core.pipeline.pretrain", 1, "prior", "robust")),
    )
    patches.replace(pipeline_module, "one_shot_magnitude_prune", timed(constant("pruning.mask.draw")))
    patches.replace(pipeline_module, "finetune_classification", timed(constant("core.transfer.finetune")))
    patches.replace(AdversarialTrainer, "prepare_batch", timed(constant("attacks.pgd")))
    patches.replace(Trainer, "fit", timed(constant("training.trainer.fit")))
    patches.replace(Trainer, "compute_loss", timed(constant("training.trainer.step")))
    patches.replace(Trainer, "evaluate", timed(constant("training.evaluation")))
    patches.replace(transfer_module, "evaluate_accuracy", timed(constant("training.evaluation")))
    patches.replace(tensor_module, "conv2d", timed(constant("tensor.conv2d")))
    patches.replace(tensor_module, "batch_norm2d", timed(constant("tensor.batch_norm2d")))
    patches.replace(Tensor, "backward", timed(constant("tensor.backward")))
    patches.replace(PruningMask, "apply_to_gradients", timed(constant("pruning.mask.grad_mask")))


def layer_metrics(spans, cache_before: Dict[str, float], cache_after: Dict[str, float]) -> Dict[str, float]:
    """Per-layer numbers from the traced run's spans and cache counters."""
    table = aggregate(spans)

    def get(name: str, key: str) -> float:
        return float(table.get(name, {}).get(key, 0.0))

    return {
        "core.pipeline.pretrain_s.natural": get("core.pipeline.pretrain.natural", "incl_s"),
        "core.pipeline.pretrain_s.robust": get("core.pipeline.pretrain.robust", "incl_s"),
        "attacks.pgd.calls": get("attacks.pgd", "calls"),
        "attacks.pgd.self_s": get("attacks.pgd", "self_s"),
        "attacks.pgd.incl_s": get("attacks.pgd", "incl_s"),
        "training.trainer.steps": get("training.trainer.step", "calls"),
        "training.trainer.self_s": get("training.trainer.fit", "self_s") + get("training.trainer.step", "self_s"),
        "training.evaluation.self_s": get("training.evaluation", "self_s"),
        "tensor.conv2d.calls": get("tensor.conv2d", "calls"),
        "tensor.conv2d.self_s": get("tensor.conv2d", "self_s"),
        "tensor.backward.calls": get("tensor.backward", "calls"),
        "tensor.backward.self_s": get("tensor.backward", "self_s"),
        "tensor.batch_norm2d.self_s": get("tensor.batch_norm2d", "self_s"),
        "pruning.mask.draw_s": get("pruning.mask.draw", "incl_s"),
        "pruning.mask.grad_mask_s": get("pruning.mask.grad_mask", "incl_s"),
        "core.transfer.finetune_s": get("core.transfer.finetune", "incl_s"),
        "core.cache.hits": cache_after["hits"] - cache_before["hits"],
        "core.cache.misses": cache_after["misses"] - cache_before["misses"],
    }


def cache_counters() -> Dict[str, float]:
    """Sweep-cache hits and misses so far, from the ``repro.obs`` default registry."""
    from repro.obs.registry import default_registry

    snapshot = default_registry().snapshot()
    empty = {"format": snapshot["format"], "instruments": []}
    return {
        "hits": pm.counter_delta(empty, snapshot, "sweep_cache_hits_total"),
        "misses": pm.counter_delta(empty, snapshot, "sweep_cache_misses_total"),
    }


def check_rows(table, scale) -> int:
    """Grid points missing or failing their row check (0 when all are right)."""
    requested = [round(float(s), 4) for s in scale.sparsity_grid + scale.high_sparsity_grid]
    rows = {}
    for row in table.as_records():
        key = (row.get("model"), row.get("task"), row.get("sparsity"))
        rows.setdefault(key, []).append(row)
    densest = min(requested)
    failed = 0
    for sparsity in requested:
        found = rows.get((MODEL, TASK, sparsity), [])
        floor = MIN_DENSE_NATURAL_ACC if sparsity == densest else 0.0
        if len(found) != 1 or not _row_ok(found[0], floor):
            failed += 1
    return failed


def _row_ok(row, min_natural: float) -> bool:
    robust, natural, gap = row.get("robust_accuracy"), row.get("natural_accuracy"), row.get("gap")
    values = (robust, natural, gap)
    if not all(isinstance(value, float) and math.isfinite(value) for value in values):
        return False
    return (
        0.0 <= robust <= 1.0
        and min_natural <= natural <= 1.0
        and abs(gap - (robust - natural)) < 1e-9
    )


def run_pipeline(seed: int, recorder: Optional[SpanRecorder]) -> dict:
    """Build the context, prewarm, run the grid; timings and the row check."""
    from repro.experiments.registry import run_experiment

    context = build_context(seed)
    clock = StepClock()
    cache_before = cache_counters()
    with Patches() as patches:
        clock.install(patches)
        if recorder is not None:
            install_spans(recorder, patches)
        began = time.perf_counter()
        context.prewarm([MODEL])
        pretrained = time.perf_counter()
        table = run_experiment(
            "fig1", scale=context.scale, context=context, workers=1, store=None, tasks=(TASK,)
        )
        finished = time.perf_counter()
    records = table.as_records()
    accuracies = [row[key] for row in records for key in ("robust_accuracy", "natural_accuracy")]
    attempted = len(context.scale.sparsity_grid + context.scale.high_sparsity_grid)
    failed = check_rows(table, context.scale)
    steps_ms = [value * 1000.0 for value in clock.steps_s]
    work_s = finished - began
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "pretrain_s": pretrained - began,
        "transfer_s": finished - pretrained,
        "transfer_acc": sum(accuracies) / len(accuracies) if accuracies else 0.0,
        "steps": len(steps_ms),
        "latency_p50_ms": pm.sample_quantile(steps_ms, 0.5),
        "latency_p90_ms": pm.sample_quantile(steps_ms, 0.9),
        "rows_per_s": clock.rows / work_s,
        "work_s": work_s,
        "rows": records,
        "cache": (cache_before, cache_counters()),
    }
