"""Registry mapping experiment identifiers to their declarative specs.

Every entry is an :class:`~repro.experiments.spec.ExperimentSpec` —
grid builder, point evaluator, row schema — rather than a bare
callable, so callers can introspect an experiment (grid size at a
scale, columns, description) without running it.  All specs share one
driver, so *every* experiment accepts ``workers`` and a run ``store``;
the old ``inspect.signature``-based capability probing is gone.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments import (
    fig1_omp_finetune,
    fig2_omp_linear,
    fig3_structured,
    fig4_imp,
    fig5_lmp,
    fig6_pretraining_schemes,
    fig7_segmentation,
    fig8_properties,
    fig9_vtab_fid,
)
from repro.experiments.ablations import (
    GRANULARITY_GAP_SPEC,
    MASK_OVERLAP_SPEC,
    PERTURBATION_STRENGTH_SPEC,
)
from repro.experiments.results import ResultTable
from repro.experiments.spec import ExperimentSpec

#: Experiment id -> spec.  Every entry corresponds to a figure/table of
#: the paper (or a documented ablation) and to one benchmark file.
EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.identifier: spec
    for spec in (
        fig1_omp_finetune.SPEC,
        fig2_omp_linear.SPEC,
        fig3_structured.SPEC,
        fig4_imp.SPEC,
        fig5_lmp.SPEC,
        fig6_pretraining_schemes.SPEC,
        fig7_segmentation.SPEC,
        fig8_properties.SPEC,
        fig9_vtab_fid.SPEC,
        PERTURBATION_STRENGTH_SPEC,
        GRANULARITY_GAP_SPEC,
        MASK_OVERLAP_SPEC,
    )
}


def available_experiments() -> List[str]:
    """Identifiers of all registered experiments."""
    return sorted(EXPERIMENTS)


def get_spec(identifier: str) -> ExperimentSpec:
    """The :class:`ExperimentSpec` registered under ``identifier``."""
    if identifier not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {identifier!r}; available: {available_experiments()}"
        )
    return EXPERIMENTS[identifier]


def run_experiment(
    identifier: str,
    scale="smoke",
    workers: Optional[int] = None,
    store=None,
    **kwargs,
) -> ResultTable:
    """Run a registered experiment by identifier.

    ``workers`` fans the experiment's grid points out across worker
    processes (``None`` reads ``REPRO_SWEEP_WORKERS``, default serial);
    ``store`` — a :class:`~repro.core.runstore.RunStore` or a path —
    makes the sweep resumable and checkpoints each row as it lands.
    Remaining keyword arguments override the spec's grid (e.g.
    ``sparsities=...``) or supply the shared ``context``.
    """
    return get_spec(identifier)(scale=scale, workers=workers, store=store, **kwargs)
