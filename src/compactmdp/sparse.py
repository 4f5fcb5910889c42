"""Sparse matrix containers, value-iteration kernels, and storage accounting.

The sparse solver is built from four small kernels that operate on a CSR
matrix and flat vectors:

* :func:`sparse_mult` — CSR matrix times dense vector,
* :func:`saxpy` — scaled vector add,
* :func:`max_reduce` — per-state max/argmax over the stacked action blocks,
* :func:`inf_norm_diff` — sup-norm distance between successive iterates.

They are deliberately written against plain index arrays (no library sparse
types) so the arithmetic path is independent of the dense reference solver.

Storage accounting mirrors a 32-bit embedded target: matrix entries and value
cells are charged 4 bytes each, and sparse index columns are charged the
smallest whole number of bytes that can address the corresponding dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Bytes charged per stored numeric entry (single-precision target).
VALUE_BYTES = 4


@dataclass(frozen=True)
class SparseMatrixCOO:
    """Coordinate-form sparse matrix: parallel row/column/value arrays."""

    n_rows: int
    n_cols: int
    row_idx: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    @property
    def nnz(self):
        return len(self.values)

    def dense(self):
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.row_idx, self.col_idx] = self.values
        return out


@dataclass(frozen=True)
class SparseMatrixCSR:
    """Compressed-sparse-row matrix.

    ``row_ptr`` has ``n_rows + 1`` entries; row ``i`` owns the slice
    ``col_idx[row_ptr[i]:row_ptr[i+1]]`` / ``values[row_ptr[i]:row_ptr[i+1]]``.
    ``row_idx`` is the same row ownership spelled out per entry (``i``
    repeated ``row_ptr[i+1] - row_ptr[i]`` times), kept so the kernels need
    not expand ``row_ptr`` on every product.
    """

    n_rows: int
    n_cols: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray
    row_idx: np.ndarray

    @property
    def nnz(self):
        return len(self.values)

    def dense(self):
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.row_idx, self.col_idx] = self.values
        return out


def to_sparse(matrix):
    """Convert a dense matrix to COO form, dropping exact zeros.

    Entries are emitted in row-major scan order, so the result is already
    sorted by (row, column).  An all-zero matrix yields empty index arrays.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
    rows, cols = np.nonzero(matrix)
    return SparseMatrixCOO(
        n_rows=matrix.shape[0],
        n_cols=matrix.shape[1],
        row_idx=rows.astype(np.int64),
        col_idx=cols.astype(np.int64),
        values=matrix[rows, cols],
    )


def coo_to_csr(coo):
    """Convert COO to CSR.  Duplicate coordinates are not allowed.

    Entries may arrive in any order; they are sorted by (row, column) and the
    row pointer is rebuilt from the per-row counts.
    """
    order = np.lexsort((coo.col_idx, coo.row_idx))
    row_idx = coo.row_idx[order]
    col_idx = coo.col_idx[order]
    values = coo.values[order]
    counts = np.bincount(row_idx, minlength=coo.n_rows)
    row_ptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return SparseMatrixCSR(
        n_rows=coo.n_rows,
        n_cols=coo.n_cols,
        row_ptr=row_ptr,
        col_idx=col_idx,
        values=values,
        row_idx=row_idx,
    )


def sparse_mult(m, v):
    """CSR matrix-vector product ``m @ v`` as a dense vector.

    Rows with no stored entries contribute exact zeros.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (m.n_cols,):
        raise ValueError(f"vector length {v.shape} does not match {m.n_cols} columns")
    contrib = m.values * v[m.col_idx]
    return np.bincount(m.row_idx, weights=contrib, minlength=m.n_rows)


def saxpy(scale, t, r):
    """Elementwise ``r + scale * t`` for equal-length vectors."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if t.shape != r.shape:
        raise ValueError(f"length mismatch: {t.shape} vs {r.shape}")
    return r + scale * t


def max_reduce(q, n_states, n_actions):
    """Reduce a stacked Q-vector to per-state values and a greedy policy.

    ``q`` is laid out action-major (length ``n_states * n_actions``).  Returns
    ``(values, policy)`` where ties in the argmax resolve to the lowest action
    index.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (n_states * n_actions,):
        raise ValueError(
            f"q has length {q.shape}, expected {n_states * n_actions}"
        )
    blocks = q.reshape(n_actions, n_states)
    return blocks.max(axis=0), blocks.argmax(axis=0)


def inf_norm_diff(a, b):
    """Sup-norm distance ``max_i |a_i - b_i|`` between equal-length vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b)))


def index_bytes(count):
    """Smallest whole number of bytes that can index ``count`` items (min 1)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return max(1, math.ceil(math.log2(count) / 8))


@dataclass(frozen=True)
class StorageReport:
    """Byte budgets for one MDP: dense STM vs COO STM vs a flat Q-function."""

    dense_bytes: int
    sparse_bytes: int
    qfunction_bytes: int
    sparsity: float


def storage_report(n_states, n_actions, k_nz):
    """Storage accounting for a stacked transition matrix with ``k_nz`` nonzeros.

    * dense: 4 bytes per entry of the (n_states*n_actions, n_states) matrix,
    * sparse: per stored entry, one row index sized for ``n_states*n_actions``
      rows, one column index sized for ``n_states`` columns, and a 4-byte
      value,
    * Q-function: 4 bytes per (state, action) cell.

    ``sparsity`` is the zero fraction ``1 - k_nz / (rows * cols)``.
    """
    if n_states < 1 or n_actions < 1:
        raise ValueError("n_states and n_actions must be >= 1")
    cells = n_states * n_states * n_actions
    if not 0 <= k_nz <= cells:
        raise ValueError(f"k_nz must be in [0, {cells}], got {k_nz}")
    entry_bytes = index_bytes(n_states * n_actions) + index_bytes(n_states) + VALUE_BYTES
    return StorageReport(
        dense_bytes=VALUE_BYTES * cells,
        sparse_bytes=k_nz * entry_bytes,
        qfunction_bytes=VALUE_BYTES * n_states * n_actions,
        sparsity=1.0 - k_nz / cells,
    )
