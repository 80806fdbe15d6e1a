"""Block-sparse spmm engine for the DGCNN's normalized graph operators.

The training/inference hot path multiplies one block-diagonal
``D^-1 (A + I)`` operator per batch against dense node matrices, four
layers forward and four transposed products backward, every step.  This
module owns that product.  It provides

* :class:`SparseOp` — the operator wrapper the batcher hands to the
  network.  It caches every derived form (CSR arrays, the batched-ELL
  layout, the transposed ELL layout) so format conversion happens **once
  per batch**, never once per layer per step, and its
  :meth:`~SparseOp.matmul` / :meth:`~SparseOp.matmul_t` kernels accept
  preallocated outputs so steady-state training allocates nothing.
* :class:`BlockEll` — a batched-ELL layout: the many small,
  similar-degree per-example blocks of a batch operator are packed into
  two padded row-major ``(n_rows, width)`` arrays (column indices and
  values, padded with index 0 / value 0).  The regular layout is how the
  per-example blocks of a :class:`~repro.gnn.BatchAssembler` stitch into
  a shuffled batch by pure array copies.
* a **kernel registry** selected by ``REPRO_SPMM`` (or
  :func:`set_spmm_backend` / :func:`spmm_scope`):

  - ``scipy`` (default) — scipy's C CSR kernel, invoked directly through
    ``scipy.sparse._sparsetools`` with a preallocated output, skipping the
    ``__matmul__`` dispatch/validation layer.  The transposed product runs
    the CSC kernel **on the same CSR arrays** (CSR of ``A`` is CSC of
    ``A^T``), so no transpose is ever materialized.
  - ``ell`` — the batched-ELL layout with a vectorized numpy core.  Pure
    numpy, no private-API use; slower than the C kernel at the paper's
    feature widths, it exists as the portable parity reference.

Every kernel accumulates each output row in the operator's storage order,
so all backends produce **bit-identical** results in float64 (and, on
every platform tested, in float32 as well); the parity suite in
``tests/nn/test_sparse.py`` enforces this.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

import numpy as np
import scipy.sparse as sp

try:  # scipy's C kernels; private but stable since 2008.  Guarded anyway.
    from scipy.sparse import _sparsetools

    _HAVE_SPARSETOOLS = True
except ImportError:  # pragma: no cover - scipy always ships it today
    _sparsetools = None
    _HAVE_SPARSETOOLS = False

__all__ = [
    "BlockEll",
    "SparseOp",
    "as_sparse_op",
    "csr_from_parts",
    "spmm_backend",
    "set_spmm_backend",
    "spmm_scope",
]

_BACKENDS = ("scipy", "ell")


def _resolve_backend(name: str) -> str:
    name = name.lower()
    if name not in _BACKENDS:
        raise ValueError(
            f"unsupported spmm backend {name!r}; choose from {_BACKENDS}"
        )
    return name


_active_backend: str = _resolve_backend(os.environ.get("REPRO_SPMM", "scipy"))


def spmm_backend() -> str:
    """The active spmm kernel family (``scipy`` / ``ell``)."""
    return _active_backend


def set_spmm_backend(name: str) -> None:
    """Switch the spmm kernel family at runtime (see module docstring)."""
    global _active_backend
    _active_backend = _resolve_backend(name)


@contextmanager
def spmm_scope(name: str) -> Iterator[None]:
    """Temporarily switch the spmm backend (restores on exit)."""
    previous = _active_backend
    set_spmm_backend(name)
    try:
        yield
    finally:
        set_spmm_backend(previous)


def csr_from_parts(
    data: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    shape: tuple[int, int],
) -> sp.csr_matrix:
    """A ``csr_matrix`` over *data*/*indices*/*indptr* without validation.

    ``csr_matrix.__init__`` runs ``check_format`` plus index-dtype scans —
    ~50x the cost of the construction itself — on arrays the batcher just
    built and knows are canonical.  Callers must guarantee CSR invariants
    (monotone indptr, in-range indices, matching lengths).
    """
    matrix = sp.csr_matrix.__new__(sp.csr_matrix)
    matrix.data = data
    matrix.indices = indices
    matrix.indptr = indptr
    matrix._shape = shape
    return matrix


# ---------------------------------------------------------------- ELL layout
class BlockEll:
    """Padded row-major ELL storage of a sparse operator.

    ``indices``/``values`` are ``(n_rows, width)`` with ``width`` the
    maximum row population; row entries keep CSR order and the tail is
    padded with index 0 / value 0 (a zero-valued tap against any valid
    row contributes exactly ``+0.0``, so padding never changes results).
    """

    __slots__ = ("indices", "values", "shape")

    def __init__(
        self, indices: np.ndarray, values: np.ndarray, shape: tuple[int, int]
    ):
        self.indices = indices
        self.values = values
        self.shape = shape

    @property
    def width(self) -> int:
        return self.indices.shape[1]

    @classmethod
    def from_csr(cls, matrix: sp.csr_matrix) -> "BlockEll":
        """Pack a CSR matrix into ELL form (one vectorized scatter)."""
        indptr = matrix.indptr
        counts = np.diff(indptr)
        n_rows = matrix.shape[0]
        width = int(counts.max()) if counts.size else 0
        if width == 0 or matrix.nnz == 0:
            empty = np.zeros((n_rows, 0))
            return cls(
                empty.astype(np.int64),
                empty.astype(matrix.data.dtype),
                matrix.shape,
            )
        taps = np.arange(width)
        pos = np.minimum(indptr[:-1, None] + taps[None, :], matrix.nnz - 1)
        mask = taps[None, :] < counts[:, None]
        indices = np.where(mask, matrix.indices[pos], 0).astype(np.int64)
        values = np.where(mask, matrix.data[pos], 0).astype(
            matrix.data.dtype, copy=False
        )
        return cls(indices, values, matrix.shape)

    def matmul(self, dense: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``A @ dense`` through the numpy ELL kernel."""
        if out is None:
            out = np.empty((self.shape[0], dense.shape[1]), dtype=dense.dtype)
        if self.width == 0:
            out[...] = 0.0
            return out
        # Tap-by-tap accumulation reproduces the CSR kernel's per-row
        # left-to-right summation order exactly — bit-identical results in
        # every dtype.  (einsum would be marginally faster but reorders the
        # reduction for narrow operands, losing bitwise parity.)
        values = self.values
        if values.dtype != dense.dtype:
            values = values.astype(dense.dtype)
        np.multiply(dense[self.indices[:, 0]], values[:, 0, None], out=out)
        for tap in range(1, self.width):
            out += values[:, tap, None] * dense[self.indices[:, tap]]
        return out


# ------------------------------------------------------------- the operator
class SparseOp:
    """A sparse operator with cached layouts and zero-overhead kernels.

    Wraps one ``D^-1 (A + I)`` (or any CSR) matrix.  All derived forms —
    the scipy matrix, the batched-ELL layout, the transposed-ELL layout —
    are built at most once and cached, so the four graph-convolution
    layers of a forward/backward pass share one conversion instead of
    re-deriving formats per call.
    """

    __slots__ = (
        "shape", "data", "indices", "indptr", "_csr", "_ell", "_ell_t",
    )

    def __init__(
        self,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        shape: tuple[int, int],
        csr: sp.csr_matrix | None = None,
    ):
        self.shape = shape
        self.data = data
        self.indices = indices
        self.indptr = indptr
        self._csr = csr
        self._ell: BlockEll | None = None
        self._ell_t: BlockEll | None = None

    @classmethod
    def from_csr(cls, matrix: sp.spmatrix) -> "SparseOp":
        matrix = matrix.tocsr()
        return cls(
            matrix.data, matrix.indices, matrix.indptr, matrix.shape, matrix
        )

    @classmethod
    def from_parts(
        cls,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        shape: tuple[int, int],
    ) -> "SparseOp":
        return cls(data, indices, indptr, shape)

    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def csr(self) -> sp.csr_matrix:
        """The scipy view of this operator (built lazily, cached)."""
        if self._csr is None:
            self._csr = csr_from_parts(
                self.data, self.indices, self.indptr, self.shape
            )
        return self._csr

    @property
    def ell(self) -> BlockEll:
        """The batched-ELL layout (built lazily, cached)."""
        if self._ell is None:
            self._ell = BlockEll.from_csr(self.csr)
        return self._ell

    @property
    def ell_t(self) -> BlockEll:
        """ELL layout of the transposed operator (built lazily, cached)."""
        if self._ell_t is None:
            self._ell_t = BlockEll.from_csr(self.csr.T.tocsr())
        return self._ell_t

    def prepare(self, backend: str | None = None) -> "SparseOp":
        """Prebuild the layouts *backend* needs (default: the active one).

        Batch caches call this once per split so no forward pass ever pays
        a conversion.  Returns ``self`` for chaining.
        """
        backend = backend or _active_backend
        if backend == "ell":
            self.ell
            self.ell_t
        return self

    # ------------------------------------------------------------- kernels
    def _fast_path(self, dense: np.ndarray, out: np.ndarray | None) -> bool:
        return (
            _HAVE_SPARSETOOLS
            and dense.flags.c_contiguous
            and dense.dtype == self.data.dtype
            and (out is None or out.flags.c_contiguous)
        )

    def matmul(self, dense: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``A @ dense`` into *out* (allocated when ``None``).

        Bit-identical to ``self.csr @ dense`` under every backend.
        """
        if _active_backend != "scipy":
            return self.ell.matmul(dense, out=out)
        if not self._fast_path(dense, out):
            result = self.csr @ dense
            if out is None:
                return result
            out[...] = result
            return out
        n_rows, n_cols = self.shape
        n_vecs = dense.shape[1]
        if out is None:
            out = np.zeros((n_rows, n_vecs), dtype=dense.dtype)
        else:
            out.fill(0.0)
        # The same C kernel scipy's __matmul__ dispatches to, minus the
        # dispatch: Y += A @ X over a caller-owned Y.
        _sparsetools.csr_matvecs(
            n_rows, n_cols, n_vecs,
            self.indptr, self.indices, self.data,
            dense.reshape(-1), out.reshape(-1),
        )
        return out

    def matmul_t(self, dense: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``A.T @ dense`` into *out* — no transpose is ever materialized.

        The CSR arrays of ``A`` *are* the CSC arrays of ``A^T``, so the
        scipy backend runs the CSC kernel on the original arrays;
        bit-identical to ``self.csr.T @ dense``.
        """
        if _active_backend != "scipy":
            return self.ell_t.matmul(dense, out=out)
        if not self._fast_path(dense, out):
            result = self.csr.T @ dense
            if out is None:
                return result
            out[...] = result
            return out
        n_rows, n_cols = self.shape[1], self.shape[0]
        n_vecs = dense.shape[1]
        if out is None:
            out = np.zeros((n_rows, n_vecs), dtype=dense.dtype)
        else:
            out.fill(0.0)
        _sparsetools.csc_matvecs(
            n_rows, n_cols, n_vecs,
            self.indptr, self.indices, self.data,
            dense.reshape(-1), out.reshape(-1),
        )
        return out


def as_sparse_op(operator) -> SparseOp:
    """Coerce a scipy matrix (or pass through a :class:`SparseOp`)."""
    if isinstance(operator, SparseOp):
        return operator
    return SparseOp.from_csr(operator)
