"""One error taxonomy for every serving backend.

Every serving failure is a :class:`ServingError` raised where it
happens — the micro-batcher, the engine, the model store, the fleet
supervisor, the HTTP frontend's admission checks — and carrying a
stable ``code``.  :data:`ERRORS` maps each code to its HTTP status,
whether a client may retry, and the default ``Retry-After`` hint.  That
table is the only place a failure turns into a status:

* a shard worker sends ``code``/``retryable``/``retry_after`` over the
  wire unchanged and the supervisor raises the same error again;
* the HTTP frontend answers ``ERRORS[code].status`` with a body of
  ``{"error", "code", "retryable"}`` plus ``Retry-After`` when the
  error carries a hint;
* :class:`~repro.serve.client.HTTPClient` rebuilds the same error from
  that body.

This module imports nothing from :mod:`repro.serve`, so every layer can
raise from it.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

__all__ = [
    "ERRORS",
    "BadRequestError",
    "ErrorKind",
    "FleetSaturatedError",
    "FleetUnavailableError",
    "QueueFullError",
    "ServingError",
    "ServingTimeoutError",
    "UnknownModelError",
]


class ErrorKind(NamedTuple):
    """How one error code answers over HTTP."""

    status: int
    retryable: bool
    #: Default ``Retry-After`` hint in seconds (``None``: no header).
    retry_after: Optional[float]


#: code -> (HTTP status, retryable, default Retry-After seconds).
ERRORS: Dict[str, ErrorKind] = {
    "bad-request": ErrorKind(400, False, None),
    "unknown-model": ErrorKind(404, False, None),
    "not-found": ErrorKind(404, False, None),
    "rate-limited": ErrorKind(429, True, 1.0),
    "internal": ErrorKind(500, False, None),
    "queue-full": ErrorKind(503, True, 1.0),
    "saturated": ErrorKind(503, True, 1.0),
    "draining": ErrorKind(503, True, 1.0),
    "closed": ErrorKind(503, True, None),
    "load-failed": ErrorKind(503, False, None),
    "unavailable": ErrorKind(503, False, None),
    "timeout": ErrorKind(504, False, None),
}


class ServingError(RuntimeError):
    """A serving failure with a stable ``code`` from :data:`ERRORS`.

    ``retryable`` and ``retry_after`` default to the code's table entry;
    the raiser may override them (a rate limiter knows when its bucket
    refills, a fleet its configured hint).  ``status`` is the code's
    HTTP status — an unknown code (from a newer peer) answers like
    ``internal``.
    """

    def __init__(
        self,
        code: str,
        message: str,
        retryable: Optional[bool] = None,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        kind = ERRORS.get(code, ERRORS["internal"])
        self.code = code
        self.message = message
        self.status = kind.status
        self.retryable = kind.retryable if retryable is None else bool(retryable)
        self.retry_after = kind.retry_after if retry_after is None else float(retry_after)

    def __str__(self) -> str:
        return self.message


class _FixedCode(ServingError):
    """A :class:`ServingError` whose subclass pins the code."""

    code = "internal"

    def __init__(self, message: str, retry_after: Optional[float] = None) -> None:
        super().__init__(type(self).code, message, retry_after=retry_after)


class BadRequestError(_FixedCode, ValueError):
    """Inputs that cannot be served (wrong shape, not numeric)."""

    code = "bad-request"


class UnknownModelError(_FixedCode, KeyError):
    """No model is registered under the requested name."""

    code = "unknown-model"

    @classmethod
    def naming(cls, name: str, available) -> "UnknownModelError":
        return cls(f"no model named {name!r} is registered; available: {list(available)}")


class QueueFullError(_FixedCode):
    """The micro-batcher's bounded queue is full; retry after a delay."""

    code = "queue-full"


class FleetSaturatedError(_FixedCode):
    """The shard pool cannot admit new work right now; retry after a delay."""

    code = "saturated"


class FleetUnavailableError(_FixedCode):
    """No shard can ever take this request (breakers open / fleet closed)."""

    code = "unavailable"


class ServingTimeoutError(_FixedCode, TimeoutError):
    """The request was not served within its deadline."""

    code = "timeout"
