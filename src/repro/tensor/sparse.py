"""Sparse execution kernels for heavily pruned weights.

A pruned model multiplies its mask into dense weights and then runs a
dense GEMM, so a 95%-sparse layer still pays 100% of the FLOPs.  This
module converts a frozen weight matrix to CSR once, caches the
conversion, and answers the two GEMM shapes the engine's hot paths
produce — ``W @ columns`` (the im2col convolution in
:func:`repro.tensor.conv.conv2d`) and ``x @ W.T`` (``Linear``) — with a
sparse kernel when it is measured to win.

The kernel is ``scipy.sparse`` CSR (scipy is a declared dependency).
A pure-numpy CSR kernel was measured to lose to OpenBLAS dense GEMM
at every sparsity this engine produces, so there is none.

Dispatch policy
---------------
The crossover where CSR beats a dense BLAS GEMM is *measured*, not
guessed: the ``sparse.csr_matmul`` bench spec times both paths across a
sparsity grid on the running machine.  On the reference machine
(single-core, OpenBLAS) ``scipy.sparse`` wins from ~0.92 zero fraction
and reaches 5-10x at 0.95-0.99; the committed default threshold is that
measured crossover.  The threshold is a deterministic constant (env
override ``REPRO_SPARSE_THRESHOLD``) rather than a per-process timing
probe, so every fleet shard makes identical dispatch decisions and
serving stays byte-identical across replicas.

Caching contract
----------------
CSR conversion costs one pass over the weight; it is cached per owning
array and only consulted for *frozen inference weights*: the engine
dispatches only with the autograd tape off and ``requires_grad`` False
on the weight (every fused/sealed model qualifies).  A cache entry is
validated by identity, shape, dtype and nonzero count on every hit, and
:meth:`repro.pruning.mask.PruningMask.apply` invalidates entries for
the buffers it rewrites.  Code that mutates a frozen weight's nonzero
values in place through some other route must call :func:`invalidate`.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np
from scipy.sparse import csr_array

__all__ = [
    "SparsePolicy",
    "cache_info",
    "clear_cache",
    "get_policy",
    "invalidate",
    "maybe_sparse_gemm",
    "maybe_sparse_rhs_gemm",
    "pack_dense",
    "set_policy",
    "sparse_backend",
    "sparse_policy_scope",
    "unpack_dense",
]

#: Measured dense/CSR crossover zero-fraction of the scipy backend on
#: the reference machine (see the ``sparse.csr_matmul`` bench spec).
#: Below this, OpenBLAS dense GEMM wins; above it, CSR wins and keeps
#: widening.  Deliberately a conservative constant, not a startup-time
#: timing probe: dispatch must be deterministic across fleet shards.
DEFAULT_THRESHOLD = 0.92

#: Weights smaller than this never dispatch in ``auto`` mode: the CSR
#: win comes from skipping BLAS FLOPs, and tiny GEMMs are latency-bound
#: where the dense kernel is effectively free.
DEFAULT_MIN_SIZE = 32768

#: Minimum dense right-hand columns for ``auto`` dispatch; skinny
#: multiplies amortise the CSR row walk poorly.
DEFAULT_MIN_COLS = 32


def sparse_backend() -> str:
    """Name of the CSR kernel backend, recorded in run environments."""
    return "scipy"


# ----------------------------------------------------------------------
# Policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SparsePolicy:
    """When the engine routes a GEMM through the CSR kernel.

    ``mode`` is ``auto`` (dispatch above the measured threshold),
    ``off`` (never) or ``force`` (always — correctness tests and the
    crossover bench).  ``force`` still requires a frozen 2-D float
    weight; it only bypasses the profitability heuristics.
    """

    mode: str = "auto"
    threshold: float = DEFAULT_THRESHOLD
    min_size: int = DEFAULT_MIN_SIZE
    min_cols: int = DEFAULT_MIN_COLS

    def __post_init__(self) -> None:
        if self.mode not in ("auto", "off", "force"):
            raise ValueError(f"sparse mode must be auto/off/force, got {self.mode!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"sparse threshold must be in [0, 1], got {self.threshold}")


def _policy_from_env() -> SparsePolicy:
    mode = os.environ.get("REPRO_SPARSE", "auto").strip().lower()
    mode = {"0": "off", "1": "auto", "": "auto"}.get(mode, mode)
    threshold = float(os.environ.get("REPRO_SPARSE_THRESHOLD", DEFAULT_THRESHOLD))
    return SparsePolicy(mode=mode, threshold=threshold)


_policy = _policy_from_env()


def get_policy() -> SparsePolicy:
    """The active :class:`SparsePolicy`."""
    return _policy


def set_policy(policy: SparsePolicy) -> SparsePolicy:
    """Install ``policy`` globally; returns the previous policy."""
    global _policy
    previous = _policy
    _policy = policy
    return previous


@contextlib.contextmanager
def sparse_policy_scope(**overrides):
    """Temporarily override policy fields (``mode=``, ``threshold=``, ...).

    Process-global, like the engine dtype default — serving pins its
    policy at startup; tests and benches use this scope.
    """
    previous = set_policy(replace(_policy, **overrides))
    try:
        yield _policy
    finally:
        set_policy(previous)


# ----------------------------------------------------------------------
# CSR kernels
# ----------------------------------------------------------------------
class _CsrKernel:
    """One cached weight matrix in CSR form, with its validation token."""

    __slots__ = ("owner", "shape", "dtype", "nnz", "_csr")

    def __init__(self, owner: np.ndarray, matrix: np.ndarray, nnz: int) -> None:
        self.owner = owner  # strong ref: keeps id(owner) valid while cached
        self.shape = matrix.shape
        self.dtype = matrix.dtype
        self.nnz = nnz
        self._csr = csr_array(matrix)

    def matmul(self, dense: np.ndarray) -> np.ndarray:
        """``W @ dense``."""
        return np.asarray(self._csr @ dense)


# Keyed by id() of the owning (base) array; entries hold a strong
# reference to the owner so the id can never be recycled while cached.
_cache: Dict[int, _CsrKernel] = {}
_CACHE_CAPACITY = 64


def clear_cache() -> None:
    """Drop every cached CSR conversion."""
    _cache.clear()


def cache_info() -> Dict[str, int]:
    """Diagnostics: number of cached kernels and total stored nonzeros."""
    return {"entries": len(_cache), "nnz": sum(k.nnz for k in _cache.values())}


def invalidate(array: np.ndarray) -> None:
    """Forget cached kernels backed by ``array`` (or a view of it).

    Call after mutating a frozen weight in place;
    :meth:`repro.pruning.mask.PruningMask.apply` does this for every
    buffer it rewrites.
    """
    owner = _owning_array(array)
    _cache.pop(id(owner), None)
    if owner is not array:
        _cache.pop(id(array), None)


def _owning_array(array: np.ndarray) -> np.ndarray:
    """The array owning ``array``'s buffer (stable across fresh views).

    ``conv2d`` reshapes and ``Linear`` transposes the same parameter
    into a *new* view object every forward call; caching must key on
    the parameter's stable owning array, not the throwaway view.
    """
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def _kernel_for(weight: np.ndarray, matrix: np.ndarray, nnz: int) -> _CsrKernel:
    """Cached CSR kernel for ``matrix`` (a 2-D arrangement of ``weight``)."""
    owner = _owning_array(weight)
    entry = _cache.get(id(owner))
    if (
        entry is not None
        and entry.owner is owner
        and entry.shape == matrix.shape
        and entry.dtype == matrix.dtype
        and entry.nnz == nnz
    ):
        return entry
    if len(_cache) >= _CACHE_CAPACITY:
        _cache.pop(next(iter(_cache)))
    entry = _CsrKernel(owner, matrix, nnz)
    _cache[id(owner)] = entry
    return entry


# ----------------------------------------------------------------------
# Dispatch entry points (called from repro.tensor.conv / .tensor)
# ----------------------------------------------------------------------
def _qualifies(weight: np.ndarray, cols: int, policy: SparsePolicy) -> bool:
    if policy.mode == "off" or weight.ndim != 2 or weight.dtype.kind != "f":
        return False
    if policy.mode == "force":
        return True
    return weight.size >= policy.min_size and cols >= policy.min_cols


def maybe_sparse_gemm(weight: np.ndarray, dense: np.ndarray) -> Optional[np.ndarray]:
    """``weight @ dense`` through CSR when the policy says it wins, else ``None``.

    ``weight`` is the sparse candidate ``(m, k)``; ``dense`` is the
    ``(k, n)`` right-hand side (im2col columns).  Returning ``None``
    tells the caller to run its dense GEMM — the decision costs one
    ``count_nonzero`` pass, paid only above the size floor.
    """
    policy = _policy
    if not _qualifies(weight, dense.shape[-1] if dense.ndim > 1 else 1, policy):
        return None
    nnz = int(np.count_nonzero(weight))
    if policy.mode != "force" and 1.0 - nnz / weight.size < policy.threshold:
        return None
    return _kernel_for(weight, weight, nnz).matmul(dense)


def maybe_sparse_rhs_gemm(dense: np.ndarray, weight: np.ndarray) -> Optional[np.ndarray]:
    """``dense @ weight`` with ``weight`` the sparse candidate, else ``None``.

    This is the ``Linear`` orientation: ``x (n, k) @ W.T (k, m)``.  The
    kernel runs as ``(csr(weight.T) @ dense.T).T`` so it reuses the same
    row-major CSR representation as :func:`maybe_sparse_gemm` — for a
    ``Linear`` layer, ``weight.T`` here is the parameter's own ``(m, k)``
    storage, and the cache keys on that owning array.
    """
    policy = _policy
    if dense.ndim != 2 or not _qualifies(weight, dense.shape[0], policy):
        return None
    nnz = int(np.count_nonzero(weight))
    if policy.mode != "force" and 1.0 - nnz / weight.size < policy.threshold:
        return None
    left = np.ascontiguousarray(weight.T)
    kernel = _kernel_for(weight, left, nnz)
    return kernel.matmul(np.ascontiguousarray(dense.T)).T


# ----------------------------------------------------------------------
# On-disk encoding (values + bit-packed occupancy mask)
# ----------------------------------------------------------------------
def pack_dense(array: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split ``array`` into ``(values, bits)``: nonzeros + packed mask.

    ``bits`` is the ``np.packbits`` encoding of the nonzero positions
    (1 bit per element); ``values`` the nonzero entries in C order.  At
    zero-fraction ``s`` the pair costs ``(1-s) * itemsize + 1/8`` bytes
    per element against ``itemsize`` dense — a 4x win for float32 at
    80% sparsity — which matters because ``np.savez`` stores artifacts
    uncompressed.
    """
    flat = np.ascontiguousarray(array).reshape(-1)
    nonzero = flat != 0
    return flat[nonzero], np.packbits(nonzero)


def unpack_dense(values: np.ndarray, bits: np.ndarray, shape, dtype) -> np.ndarray:
    """Inverse of :func:`pack_dense`: rebuild the dense array exactly."""
    count = int(np.prod(shape)) if len(shape) else 1
    nonzero = np.unpackbits(bits.reshape(-1), count=count).astype(bool)
    if int(nonzero.sum()) != values.size:
        raise ValueError(
            f"sparse payload is inconsistent: occupancy mask has {int(nonzero.sum())} "
            f"set bits but {values.size} values were stored"
        )
    flat = np.zeros(count, dtype=dtype)
    flat[nonzero] = values
    return flat.reshape(shape)
