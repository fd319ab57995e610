"""Unit tests for seeding, checkpointing, and logging utilities."""

import os

import numpy as np
import pytest

from repro.models.resnet import resnet18
from repro.utils import (
    MetricLogger,
    load_state_dict,
    save_state_dict,
    seed_everything,
    seeded_rng,
    spawn_rngs,
)


class TestSeeding:
    def test_seeded_rng_is_deterministic(self):
        a = seeded_rng(42).normal(size=5)
        b = seeded_rng(42).normal(size=5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(seeded_rng(1).normal(size=5), seeded_rng(2).normal(size=5))

    def test_spawn_rngs_independent_and_deterministic(self):
        first = [rng.normal(size=3) for rng in spawn_rngs(7, 3)]
        second = [rng.normal(size=3) for rng in spawn_rngs(7, 3)]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
        assert not np.array_equal(first[0], first[1])

    def test_seed_everything_seeds_global_generators(self):
        seed_everything(5)
        a = np.random.rand(3)
        seed_everything(5)
        np.testing.assert_array_equal(a, np.random.rand(3))


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        model = resnet18(base_width=4, seed=0)
        state = model.state_dict()
        path = save_state_dict(state, os.path.join(tmp_path, "ckpt"))
        assert path.endswith(".npz")
        loaded = load_state_dict(path)
        assert set(loaded) == set(state)
        np.testing.assert_array_equal(loaded["conv1.weight"], state["conv1.weight"])

    def test_load_accepts_path_without_extension(self, tmp_path):
        path = save_state_dict({"w": np.ones((2, 2))}, os.path.join(tmp_path, "weights"))
        loaded = load_state_dict(path[: -len(".npz")])
        np.testing.assert_array_equal(loaded["w"], np.ones((2, 2)))

    def test_creates_directories(self, tmp_path):
        nested = os.path.join(tmp_path, "a", "b", "ckpt.npz")
        save_state_dict({"w": np.zeros(1)}, nested)
        assert os.path.exists(nested)

    def test_kill_during_save_never_leaves_truncated_archive(self, tmp_path, monkeypatch):
        """A process dying mid-``save_state_dict`` must not tear the target.

        The save stages into a unique temp file and lands via
        ``os.replace``; simulating a kill at any point of the array
        write must leave either the previous complete archive or no
        archive at all — never a half-written ``.npz``.
        """
        path = os.path.join(tmp_path, "ckpt.npz")
        save_state_dict({"w": np.arange(4.0)}, path)

        real_savez = np.savez

        def dying_savez(file, **arrays):
            real_savez(file, **{name: value * 0 for name, value in arrays.items()})
            raise KeyboardInterrupt("simulated SIGKILL mid-write")

        monkeypatch.setattr(np, "savez", dying_savez)
        with pytest.raises(KeyboardInterrupt):
            save_state_dict({"w": np.arange(4.0) + 1}, path)
        monkeypatch.undo()

        # The final path still holds the previous, complete archive ...
        np.testing.assert_array_equal(load_state_dict(path)["w"], np.arange(4.0))
        # ... and the failed writer's staging file was cleaned up.
        assert os.listdir(tmp_path) == ["ckpt.npz"]

    def test_concurrent_style_writers_land_whole_archives(self, tmp_path):
        """Two writers to one path: the survivor is one complete archive."""
        path = os.path.join(tmp_path, "shared.npz")
        save_state_dict({"w": np.zeros(8)}, path)
        save_state_dict({"w": np.ones(8)}, path)
        np.testing.assert_array_equal(load_state_dict(path)["w"], np.ones(8))
        assert os.listdir(tmp_path) == ["shared.npz"]


class TestMetricLogger:
    def test_logging_and_queries(self):
        logger = MetricLogger()
        logger.log(loss=1.0, accuracy=0.5)
        logger.log(loss=0.5, accuracy=0.75)
        assert logger.series("loss") == [1.0, 0.5]
        assert logger.last("loss") == 0.5
        assert logger.mean("accuracy") == pytest.approx(0.625)
        assert logger.names() == ["accuracy", "loss"]
        assert logger.as_dict()["loss"] == [1.0, 0.5]

    def test_missing_series_defaults(self):
        logger = MetricLogger()
        assert logger.series("nope") == []
        assert np.isnan(logger.last("nope"))
        assert np.isnan(logger.mean("nope"))
        assert logger.last("nope", default=7.0) == 7.0
