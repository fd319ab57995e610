"""The serving error taxonomy: one table, the same answers from every backend.

Covers the :data:`repro.serve.errors.ERRORS` table itself (every code
has exactly one status, and the operator docs list the same table),
the exception classes that pin a code, and an HTTP parity check: the
in-process frontend and a one-shard fleet frontend answer each failure
with the same status, ``code``, ``retryable`` flag and ``Retry-After``
presence.
"""

from __future__ import annotations

import os
import re
import threading

import numpy as np
import pytest

from repro.core.tickets import Ticket
from repro.models.resnet import resnet18
from repro.pruning.mask import magnitude_mask
from repro.serve import (
    EngineConfig,
    FleetConfig,
    FleetSupervisor,
    HTTPClient,
    ModelStore,
    RetryPolicy,
    ServingError,
    create_server,
    export_artifact,
)
from repro.serve.errors import (
    ERRORS,
    BadRequestError,
    FleetSaturatedError,
    FleetUnavailableError,
    QueueFullError,
    ServingTimeoutError,
    UnknownModelError,
)

DOCS = os.path.join(os.path.dirname(__file__), "..", "docs", "OPERATIONS.md")


class TestErrorTable:
    @pytest.mark.parametrize("code", sorted(ERRORS))
    def test_every_code_maps_to_exactly_one_status(self, code):
        kind = ERRORS[code]
        assert 400 <= kind.status <= 599
        error = ServingError(code, "boom")
        assert error.status == kind.status
        assert error.retryable is kind.retryable
        assert error.retry_after == kind.retry_after
        assert str(error) == "boom"

    def test_unknown_code_answers_like_internal(self):
        error = ServingError("from-a-newer-peer", "boom")
        assert error.code == "from-a-newer-peer"
        assert error.status == ERRORS["internal"].status

    @pytest.mark.parametrize(
        "cls, code, also",
        [
            (BadRequestError, "bad-request", ValueError),
            (UnknownModelError, "unknown-model", KeyError),
            (QueueFullError, "queue-full", RuntimeError),
            (FleetSaturatedError, "saturated", RuntimeError),
            (FleetUnavailableError, "unavailable", RuntimeError),
            (ServingTimeoutError, "timeout", TimeoutError),
        ],
    )
    def test_subclasses_pin_a_tabled_code(self, cls, code, also):
        error = cls("boom")
        assert isinstance(error, ServingError) and isinstance(error, also)
        assert error.code == code and code in ERRORS
        assert str(error) == "boom"  # KeyError would otherwise quote it

    def test_raiser_may_override_the_hint(self):
        assert FleetSaturatedError("full", retry_after=2.0).retry_after == 2.0
        assert ServingError("internal", "x", retryable=True).retryable

    def test_operations_doc_lists_the_same_table(self):
        """docs/OPERATIONS.md's failure table is checked against ERRORS."""
        with open(DOCS, encoding="utf-8") as handle:
            rows = re.findall(
                r"^\| `([a-z-]+)` \| (\d{3}) \| ([^|]+) \| (yes|no) \|", handle.read(), re.M
            )
        documented = {code: (int(status), hint.strip(), yes) for code, status, hint, yes in rows}
        assert len(documented) == len(rows), "a code is documented twice"
        assert sorted(documented) == sorted(ERRORS)
        for code, (status, hint, retryable) in documented.items():
            kind = ERRORS[code]
            assert status == kind.status, code
            assert (hint == "—") == (kind.retry_after is None), code
            assert (retryable == "yes") == kind.retryable, code


# ----------------------------------------------------------------------
# HTTP parity across the two backends
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sealed(tmp_path_factory):
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
    path = str(tmp_path_factory.mktemp("errors") / "model.npz")
    return export_artifact(ticket, path, num_classes=5, seed=3)


def _in_process(path):
    store = ModelStore(capacity=1, config=EngineConfig(max_wait_ms=0.0))
    store.register("model", path)
    return store


def _fleet(path):
    return FleetSupervisor({"model": path}, FleetConfig(shards=1))


@pytest.fixture(params=[_in_process, _fleet], ids=["in-process", "fleet"])
def client(request, sealed):
    backend = request.param(sealed)
    server = create_server(backend, "model")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield server, HTTPClient(f"http://{host}:{port}", retry=RetryPolicy(attempts=1))
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5.0)
        backend.close()


def _failure(call):
    with pytest.raises(ServingError) as info:
        call()
    error = info.value
    return error.status, error.code, error.retryable, error.retry_after is not None


class TestBackendParity:
    """Both backends answer each failure identically (status, code, flags)."""

    def test_failures_answer_the_same_over_either_backend(self, client):
        server, http = client
        good = np.zeros((1, 3, 16, 16))
        assert _failure(lambda: http.predict(np.zeros((2, 1, 16, 16)))) == (
            400, "bad-request", False, False,
        )
        assert _failure(lambda: http.predict(good, model="missing")) == (
            404, "unknown-model", False, False,
        )
        assert _failure(lambda: http._request("/nope")) == (404, "not-found", False, False)
        http.set_rate_limit("model", rate_per_s=0.001, burst=1)
        http.predict(good)  # takes the only token
        assert _failure(lambda: http.predict(good)) == (429, "rate-limited", True, True)
        http.set_rate_limit("model", rate_per_s=None)
        server.on_drain = lambda: None  # mark draining, keep serving
        http.drain()
        assert _failure(lambda: http.predict(good)) == (503, "draining", True, True)
