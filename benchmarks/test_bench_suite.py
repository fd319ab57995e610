"""Thin pytest runner over the ``repro.bench`` registry.

The timing logic lives in :mod:`repro.bench.harness`; this file walks
the registry so every registered hot path stays exercised whenever the
benchmark tree runs under pytest:

* each ``smoke`` spec is measured once through the harness, which
  validates its metric schema;
* each ``full``-only spec (seconds per repeat) runs its payload once,
  so the contracts it asserts in-payload — the ResNet-50 step stays
  finite, batched serving clears 2x, the fleet loses nothing across a
  shard kill — gate every test run, not only CI.

The gating comparison against committed baselines is
``python -m repro.bench run | compare`` (the CI ``bench-gate``,
``serve-smoke`` and ``fleet-chaos`` jobs), not a test assertion —
shared runners are too noisy for pass/fail wall-times inside a shared
pytest session.
"""

import pytest

from repro.bench import (
    artifact_results,
    available_benchmarks,
    calibrate,
    get_bench,
    measure,
    run_suite,
    suite_benchmarks,
)


@pytest.fixture(scope="module")
def calibration():
    return calibrate()


@pytest.mark.parametrize("spec", suite_benchmarks("smoke"), ids=lambda spec: spec.name)
def test_smoke_spec_measures(spec, calibration):
    result = measure(spec, calibration)
    assert result.spec == spec.name
    assert result.wall_s["median"] > 0
    assert result.units > 0
    assert set(result.metrics) == set(spec.metrics)


FULL_ONLY = [
    spec for spec in map(get_bench, available_benchmarks()) if "smoke" not in spec.suites
]


@pytest.mark.parametrize("spec", FULL_ONLY, ids=lambda spec: spec.name)
def test_full_spec_contract(spec):
    spec.payload(spec.setup())


def test_run_suite_produces_artifact(calibration):
    specs = suite_benchmarks("smoke")[:1]
    artifact = run_suite(specs, suite="smoke", calibration=calibration)
    assert artifact["format"] == "repro-bench/v1"
    assert [result.spec for result in artifact_results(artifact)] == [specs[0].name]
