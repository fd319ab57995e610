"""repro.analysis — static analysis and runtime checking for the codebase.

Three pillars, one package:

* **Lint** (:mod:`repro.analysis.engine` / :mod:`repro.analysis.rules`):
  a custom AST engine with codebase-aware rules — dtype discipline,
  lock discipline for the threaded serving layer, atomic-write
  discipline for artifact stores, plus general hygiene.  CLI:
  ``python -m repro.analysis lint [--strict] [--json report.json]``.
* **Graph checking** (:mod:`repro.analysis.graph`): symbolic
  shape/dtype inference over :class:`~repro.nn.module.Module` trees,
  proving shape compatibility, BN channel agreement, and mask/weight
  shape matches without running a forward pass.  ``repro.serve`` runs
  :func:`check_model` before sealing an artifact.
* **Runtime sanitizer** (implemented in :mod:`repro.tensor.sanitize`,
  re-exported here): ``REPRO_SANITIZE=1`` or
  :func:`sanitize_scope` instruments every tensor op and module forward
  to raise on NaN/Inf, naming the offending op and layer.

Findings serialise as ``repro-analysis/v1`` JSON
(:mod:`repro.analysis.findings`); single lines are suppressed with
``# repro: ignore[rule-id] -- reason`` (reason mandatory).
"""

from repro.analysis.engine import lint_paths, lint_source
from repro.analysis.findings import (
    ANALYSIS_FORMAT,
    Finding,
    dump_report,
    load_report,
    report_dict,
)
from repro.analysis.graph import GraphCheckError, check_model, register_handler
from repro.analysis.rules import ALL_RULES, rule_ids
from repro.tensor.sanitize import (
    SanitizeError,
    is_sanitize_active,
    sanitize_scope,
    set_sanitize,
)

__all__ = [
    "ANALYSIS_FORMAT",
    "ALL_RULES",
    "Finding",
    "GraphCheckError",
    "SanitizeError",
    "check_model",
    "dump_report",
    "is_sanitize_active",
    "lint_paths",
    "lint_source",
    "load_report",
    "register_handler",
    "report_dict",
    "rule_ids",
    "sanitize_scope",
    "set_sanitize",
]
