"""CSR/bit-packed sparse execution kernels: dense equivalence, policy
and env parsing, cache validation/invalidation, engine dispatch from
conv2d and Linear matmul, and exact pack/unpack round-trips."""

from __future__ import annotations

import numpy as np
import pytest

import repro.tensor.sparse as sparse
from repro.nn.layers import Linear
from repro.pruning.mask import PruningMask
from repro.tensor import Tensor, conv2d, no_grad
from repro.tensor.sparse import (
    SparsePolicy,
    maybe_sparse_gemm,
    maybe_sparse_rhs_gemm,
    pack_dense,
    sparse_policy_scope,
    unpack_dense,
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    sparse.clear_cache()
    yield
    sparse.clear_cache()


def sparse_matrix(rng, shape, zero_fraction, dtype=np.float64):
    dense = rng.normal(size=shape).astype(dtype)
    dense[rng.uniform(size=shape) < zero_fraction] = 0.0
    return dense


# ----------------------------------------------------------------------
# Pack / unpack (on-disk encoding)
# ----------------------------------------------------------------------
class TestPackUnpack:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("zero_fraction", [0.0, 0.5, 0.95, 1.0])
    def test_round_trip_is_byte_exact(self, rng, dtype, zero_fraction):
        array = sparse_matrix(rng, (13, 7, 3), zero_fraction, dtype)
        values, bits = pack_dense(array)
        rebuilt = unpack_dense(values, bits, array.shape, array.dtype)
        assert rebuilt.dtype == array.dtype
        assert np.array_equal(rebuilt, array)
        assert rebuilt.tobytes() == array.tobytes()

    def test_non_contiguous_input_packs_correctly(self, rng):
        base = sparse_matrix(rng, (10, 10), 0.6)
        view = base[::2, 1::3]
        values, bits = pack_dense(view)
        assert np.array_equal(unpack_dense(values, bits, view.shape, view.dtype), view)

    def test_encoding_wins_at_high_sparsity(self, rng):
        array = sparse_matrix(rng, (64, 64), 0.8, np.float32)
        values, bits = pack_dense(array)
        assert values.nbytes + bits.nbytes < array.nbytes / 2

    def test_inconsistent_payload_is_rejected(self, rng):
        array = sparse_matrix(rng, (4, 4), 0.5)
        values, bits = pack_dense(array)
        with pytest.raises(ValueError, match="inconsistent"):
            unpack_dense(values[:-1], bits, array.shape, array.dtype)


# ----------------------------------------------------------------------
# CSR kernel
# ----------------------------------------------------------------------
class TestCsrKernels:
    def test_active_backend_kernel_matches_dense(self, rng):
        weight = sparse_matrix(rng, (24, 40), 0.95)
        dense = rng.normal(size=(40, 33))
        kernel = sparse._CsrKernel(weight, weight, int(np.count_nonzero(weight)))
        assert np.allclose(kernel.matmul(dense), weight @ dense)


# ----------------------------------------------------------------------
# Policy + env parsing
# ----------------------------------------------------------------------
class TestPolicy:
    def test_invalid_mode_and_threshold_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            SparsePolicy(mode="sometimes")
        with pytest.raises(ValueError, match="threshold"):
            SparsePolicy(threshold=1.5)

    def test_env_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPARSE", "force")
        monkeypatch.setenv("REPRO_SPARSE_THRESHOLD", "0.5")
        policy = sparse._policy_from_env()
        assert policy.mode == "force" and policy.threshold == 0.5
        monkeypatch.setenv("REPRO_SPARSE", "0")
        assert sparse._policy_from_env().mode == "off"

    def test_policy_scope_restores(self):
        before = sparse.get_policy()
        with sparse_policy_scope(mode="force", threshold=0.1) as active:
            assert active.mode == "force"
            assert sparse.get_policy() is active
        assert sparse.get_policy() == before


# ----------------------------------------------------------------------
# Dispatch decisions + cache contract
# ----------------------------------------------------------------------
class TestDispatch:
    def test_off_small_and_dense_weights_stay_dense(self, rng):
        weight = sparse_matrix(rng, (32, 32), 0.99)
        dense = rng.normal(size=(32, 64))
        with sparse_policy_scope(mode="off"):
            assert maybe_sparse_gemm(weight, dense) is None
        with sparse_policy_scope(mode="auto", threshold=0.9):
            # Below the auto-mode size floor.
            assert maybe_sparse_gemm(weight, dense) is None
        big = sparse_matrix(rng, (256, 256), 0.5)  # too dense for the threshold
        with sparse_policy_scope(mode="auto", threshold=0.9, min_size=1, min_cols=1):
            assert maybe_sparse_gemm(big, rng.normal(size=(256, 64))) is None

    def test_auto_dispatches_above_threshold(self, rng):
        weight = sparse_matrix(rng, (256, 256), 0.97)
        dense = rng.normal(size=(256, 64))
        with sparse_policy_scope(mode="auto", threshold=0.9, min_size=1, min_cols=1):
            out = maybe_sparse_gemm(weight, dense)
        assert out is not None and np.allclose(out, weight @ dense)

    def test_force_matches_dense_both_orientations(self, rng):
        weight = sparse_matrix(rng, (48, 96), 0.9)
        columns = rng.normal(size=(96, 50))
        x = rng.normal(size=(50, 96))
        with sparse_policy_scope(mode="force"):
            assert np.allclose(maybe_sparse_gemm(weight, columns), weight @ columns)
            assert np.allclose(maybe_sparse_rhs_gemm(x, weight.T), x @ weight.T)

    def test_cache_reuses_and_validates(self, rng):
        weight = sparse_matrix(rng, (48, 96), 0.9)
        dense = rng.normal(size=(96, 50))
        with sparse_policy_scope(mode="force"):
            first = maybe_sparse_gemm(weight, dense)
            assert sparse.cache_info()["entries"] == 1
            maybe_sparse_gemm(weight, dense)
            assert sparse.cache_info()["entries"] == 1
            # In-place pattern change: nnz validation rebuilds the entry.
            weight[weight != 0] = 0.0
            weight[0, 0] = 2.0
            second = maybe_sparse_gemm(weight, dense)
            assert np.allclose(second, weight @ dense)
            assert not np.allclose(first, second)

    def test_invalidate_and_clear(self, rng):
        weight = sparse_matrix(rng, (48, 96), 0.9)
        with sparse_policy_scope(mode="force"):
            maybe_sparse_gemm(weight, rng.normal(size=(96, 50)))
        assert sparse.cache_info()["entries"] == 1
        sparse.invalidate(weight[2:])  # a view reaches the owner entry
        assert sparse.cache_info()["entries"] == 0

    def test_mask_apply_invalidates_cached_kernels(self, rng, tiny_classifier):
        parameters = dict(tiny_classifier.named_parameters())
        name = "backbone.layer1.layer0.conv1.weight"
        weight = parameters[name].data
        flat = weight.reshape(weight.shape[0], -1)
        with sparse_policy_scope(mode="force"):
            maybe_sparse_gemm(flat, rng.normal(size=(flat.shape[1], 8)))
        assert sparse.cache_info()["entries"] == 1
        mask = {name: (rng.uniform(size=weight.shape) > 0.5).astype(np.uint8)}
        PruningMask(mask).apply(tiny_classifier, strict=False)
        assert sparse.cache_info()["entries"] == 0

    def test_capacity_is_bounded(self, rng):
        with sparse_policy_scope(mode="force"):
            for _ in range(sparse._CACHE_CAPACITY + 5):
                weight = sparse_matrix(rng, (8, 8), 0.5)
                maybe_sparse_gemm(weight, rng.normal(size=(8, 4)))
        assert sparse.cache_info()["entries"] <= sparse._CACHE_CAPACITY


# ----------------------------------------------------------------------
# Engine integration (conv2d + Linear.matmul hot paths)
# ----------------------------------------------------------------------
class TestEngineDispatch:
    def test_conv2d_sparse_path_matches_dense(self, rng):
        x = Tensor(rng.normal(size=(2, 6, 10, 10)))
        weight_data = sparse_matrix(rng, (8, 6, 3, 3), 0.9)
        weight = Tensor(weight_data, requires_grad=False)
        bias = Tensor(rng.normal(size=8), requires_grad=False)
        with no_grad():
            with sparse_policy_scope(mode="off"):
                dense_out = conv2d(x, weight, bias, stride=1, padding=1).data
            with sparse_policy_scope(mode="force"):
                sparse_out = conv2d(x, weight, bias, stride=1, padding=1).data
        assert np.allclose(sparse_out, dense_out, rtol=1e-10, atol=1e-12)

    def test_linear_sparse_path_matches_dense(self, rng):
        layer = Linear(64, 32, rng=np.random.default_rng(0))
        layer.weight.data[rng.uniform(size=layer.weight.shape) < 0.9] = 0.0
        layer.requires_grad_(False)
        x = Tensor(rng.normal(size=(16, 64)))
        with no_grad():
            with sparse_policy_scope(mode="off"):
                dense_out = layer(x).data
            with sparse_policy_scope(mode="force"):
                sparse_out = layer(x).data
        assert np.allclose(sparse_out, dense_out, rtol=1e-10, atol=1e-12)

    def test_training_weights_never_dispatch(self, rng):
        x = Tensor(rng.normal(size=(2, 6, 10, 10)))
        weight = Tensor(sparse_matrix(rng, (8, 6, 3, 3), 0.95), requires_grad=True)
        with sparse_policy_scope(mode="force"):
            out = conv2d(x, weight, None, stride=1, padding=1)
            out.backward(np.ones_like(out.data))
        assert weight.grad is not None  # the tape recorded a dense GEMM
        assert sparse.cache_info()["entries"] == 0
