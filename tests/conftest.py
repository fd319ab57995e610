"""Shared fixtures: tiny models, tiny tasks, deterministic RNGs.

Everything here is intentionally minuscule (base width 4, a few dozen
samples, one or two epochs) so the whole unit-test suite runs in a few
minutes on CPU; the benchmark harness exercises the realistic scales.

The session ends with a leak check: a thread or child process that
outlives every test fails the run (see :func:`pytest_sessionfinish`).
"""

from __future__ import annotations

import os
import threading
from multiprocessing import active_children, resource_tracker

import numpy as np
import pytest

from repro.tensor import dtypes

# The unit suite pins the engine to float64: the numerical tolerances of
# the legacy tests (and of gradient checking in general) assume double
# precision.  The shipped float32 default is exercised explicitly by the
# dtype-parametrised tests (``grad_dtype``) and by ``tests/test_dtypes.py``,
# which opt in through ``default_dtype_scope``.  Set at import time so the
# session-scoped model/task fixtures below are also built in float64.
dtypes.set_default_dtype(np.float64)

from repro.data.dataset import ArrayDataset
from repro.data.tasks import downstream_task, source_task
from repro.models.heads import ClassifierHead
from repro.models.resnet import resnet18, resnet50
from repro.utils.seeding import seeded_rng


def _live_children() -> list:
    """PIDs of this process's live (not yet exited) child processes."""
    if not os.path.isdir("/proc"):
        return [child.pid for child in active_children()]
    parent = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we looked
        # Fields after the parenthesised command name: state, ppid, ...
        state, ppid = stat[stat.rindex(")") + 2 :].split()[:2]
        if int(ppid) == parent and state != "Z":
            children.append(int(entry))
    return children


@pytest.hookimpl(trylast=True)
def pytest_sessionfinish(session):
    """Fail the run if any thread or child process outlived the tests.

    Runs after session fixtures are torn down.  The one exemption is
    multiprocessing's resource tracker, which lives for the interpreter
    by design.
    """
    threads = [
        thread.name for thread in threading.enumerate() if thread is not threading.main_thread()
    ]
    tracker = resource_tracker._resource_tracker._pid
    children = [pid for pid in _live_children() if pid != tracker]
    if not threads and not children:
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.ensure_newline()
        reporter.write_sep("=", "leak check", red=True)
        reporter.write_line(f"threads still alive: {threads}")
        reporter.write_line(f"child processes still alive: {children}")
    session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture(autouse=True)
def _pin_float64_engine():
    """Re-pin float64 around every test so dtype-mutating tests cannot leak."""
    dtypes.set_default_dtype(np.float64)
    yield
    dtypes.set_default_dtype(np.float64)


@pytest.fixture(params=[np.float32, np.float64], ids=["float32", "float64"])
def grad_dtype(request) -> type:
    """Compute dtype a gradient check should run under (both must pass)."""
    return request.param


@pytest.fixture
def rng() -> np.random.Generator:
    return seeded_rng(0)


@pytest.fixture(scope="session")
def tiny_backbone():
    """A ResNet-18 backbone small enough for per-test forward passes."""
    return resnet18(base_width=4, seed=0)


@pytest.fixture(scope="session")
def tiny_bottleneck_backbone():
    """A ResNet-50 (Bottleneck) backbone at minimal width."""
    return resnet50(base_width=4, seed=0)


@pytest.fixture(scope="session")
def tiny_source_task():
    """A small source task shared across tests (session-scoped, read-only)."""
    return source_task(num_classes=6, train_size=96, test_size=48, seed=5)


@pytest.fixture(scope="session")
def tiny_downstream_task():
    """A small downstream task shared across tests (session-scoped, read-only)."""
    return downstream_task("cifar10", train_size=80, test_size=48, seed=7)


@pytest.fixture
def tiny_classifier(tiny_source_task):
    """A fresh, untrained classifier over the tiny source task."""
    backbone = resnet18(base_width=4, seed=1)
    return ClassifierHead(backbone, num_classes=tiny_source_task.num_classes, seed=2)


@pytest.fixture
def small_batch(rng):
    """A small random image batch with labels (8 samples, 6 classes)."""
    images = rng.uniform(0.0, 1.0, size=(8, 3, 16, 16))
    labels = rng.integers(0, 6, size=8)
    return images, labels


@pytest.fixture
def toy_dataset(rng) -> ArrayDataset:
    """A linearly separable toy image dataset (two blob classes)."""
    num_per_class = 24
    images = []
    labels = []
    for label in range(2):
        base = np.zeros((3, 16, 16))
        if label == 0:
            base[:, :8, :] = 0.8
        else:
            base[:, 8:, :] = 0.8
        for _ in range(num_per_class):
            sample = np.clip(base + rng.normal(0, 0.05, size=base.shape), 0, 1)
            images.append(sample)
            labels.append(label)
    images = np.stack(images)
    labels = np.asarray(labels, dtype=np.int64)
    order = rng.permutation(len(labels))
    return ArrayDataset(images[order], labels[order])
