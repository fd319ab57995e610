"""Runtime NaN/Inf sanitizer for the tensor engine.

When the sanitizer is active, every tensor operation checks its forward
output and every gradient accumulation checks the incoming gradient for
non-finite values, raising :class:`SanitizeError` the moment one
appears — naming the offending op, the module path the forward was
inside (``backbone.layer1.layer0.conv1 (Conv2d)``), and how many
elements went bad.  Without it, a NaN born in one layer surfaces as a
garbage loss hundreds of ops later with no trail back to its source.

Activation, in increasing precedence:

* the ``REPRO_SANITIZE`` environment variable (``1``/``true``), read
  once at import — what CI uses to run the whole tier-1 suite
  sanitized;
* :func:`set_sanitize`, a process-wide switch;
* :func:`sanitize_scope`, a context manager restoring the previous
  state on exit.  Like the engine's dtype scopes it is
  **thread-local**: a serving engine can sanitize its scheduler thread
  without taxing a training loop in the same process (and vice versa —
  a test can locally disable checks around math that legitimately
  overflows).

The module-path attribution is maintained by
:meth:`repro.nn.module.Module.__call__` via :func:`push_layer` /
:func:`pop_layer`; op-level checks are wired into
:meth:`repro.tensor.tensor.Tensor._make` (forward) and
:meth:`~repro.tensor.tensor.Tensor._accumulate` (backward).  This
module deliberately imports nothing from the rest of the engine so the
hot paths can hook into it without import cycles; the public face is
:mod:`repro.analysis`.
"""

from __future__ import annotations

import contextlib
import os
import threading

import numpy as np

__all__ = [
    "SanitizeError",
    "is_sanitize_active",
    "set_sanitize",
    "sanitize_scope",
    "check_forward",
    "check_gradient",
    "check_module_output",
    "push_layer",
    "pop_layer",
    "current_layer_path",
]

_ENV_VAR = "REPRO_SANITIZE"

#: Process-wide base state; threads without an active scope read this.
_default_active = os.environ.get(_ENV_VAR, "").strip().lower() in {"1", "true", "yes", "on"}


class SanitizeError(FloatingPointError):
    """A non-finite value surfaced in a sanitized forward or backward pass."""


class _State(threading.local):
    """Per-thread sanitizer override plus the module path of the running forward."""

    def __init__(self) -> None:
        self.override = None  # None -> fall back to the process-wide default
        self.stack = []  # [(attribute name, class name)] of Module.__call__ frames


_state = _State()


def is_sanitize_active() -> bool:
    """Whether sanitizer checks run on the calling thread right now."""
    override = _state.override
    return _default_active if override is None else override


def set_sanitize(enabled: bool) -> None:
    """Process-wide sanitizer switch (scopes still take precedence)."""
    global _default_active
    _default_active = bool(enabled)


@contextlib.contextmanager
def sanitize_scope(enabled: bool = True):
    """Enable (or disable, with ``enabled=False``) sanitizing in this thread.

    Scopes nest and restore the previous state on exit, mirroring
    :func:`repro.tensor.dtypes.default_dtype_scope`.
    """
    previous = _state.override
    _state.override = bool(enabled)
    try:
        yield
    finally:
        _state.override = previous


# ----------------------------------------------------------------------
# Module-path attribution (maintained by Module.__call__)
# ----------------------------------------------------------------------
def push_layer(name: str, class_name: str) -> None:
    """Record entry into a module's forward (attribute name + class)."""
    _state.stack.append((name, class_name))


def pop_layer() -> None:
    """Record exit from the innermost module forward."""
    if _state.stack:
        _state.stack.pop()


def current_layer_path() -> str:
    """Dotted module path of the innermost running forward, for messages."""
    stack = _state.stack
    if not stack:
        return "<no module context>"
    path = ".".join(name for name, _ in stack)
    return f"{path} ({stack[-1][1]})"


# ----------------------------------------------------------------------
# Checks (no-ops unless the sanitizer is active on this thread)
# ----------------------------------------------------------------------
def _bad_value_summary(array: np.ndarray) -> str:
    nan = int(np.isnan(array).sum())
    inf = int(np.isinf(array).sum())
    kinds = "/".join(part for part, count in (("NaN", nan), ("Inf", inf)) if count)
    return f"{kinds}: {nan + inf}/{array.size} bad elements"


def _is_clean(array: np.ndarray) -> bool:
    return array.dtype.kind not in "fc" or bool(np.isfinite(array).all())


def check_forward(data: np.ndarray, op: str) -> None:
    """Raise if an op's forward output contains NaN/Inf (sanitizer on)."""
    if not is_sanitize_active() or _is_clean(data):
        return
    raise SanitizeError(
        f"sanitize: non-finite forward output of op {op!r} "
        f"at {current_layer_path()} — {_bad_value_summary(data)}"
    )


def check_gradient(grad: np.ndarray, op: str) -> None:
    """Raise if a gradient being accumulated contains NaN/Inf (sanitizer on)."""
    if not is_sanitize_active() or _is_clean(grad):
        return
    raise SanitizeError(
        f"sanitize: non-finite gradient flowing into the output of op "
        f"{op!r} — {_bad_value_summary(grad)}"
    )


def check_module_output(data: np.ndarray) -> None:
    """Raise if a module's forward returned NaN/Inf (sanitizer on).

    The caller (:meth:`Module.__call__`) invokes this with its own frame
    still on the stack, so the message names the module that produced
    the bad activation even when the culprit op ran in plain numpy and
    never passed through :func:`check_forward`.
    """
    if not is_sanitize_active() or _is_clean(data):
        return
    raise SanitizeError(
        f"sanitize: non-finite activation leaving layer "
        f"{current_layer_path()} — {_bad_value_summary(data)}"
    )
