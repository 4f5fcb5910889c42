"""The CSR container, value-iteration kernels, and storage accounting.

:class:`SparseMatrixCSR` is the one sparse container; :func:`coo_to_csr` and
:func:`to_sparse` build it.  The sparse solver is built from four small
kernels that operate on a CSR matrix and flat vectors:

* :func:`sparse_mult` — CSR matrix times dense vector,
* :func:`saxpy` — scaled vector add,
* :func:`max_reduce` — per-state max/argmax over the stacked action blocks,
* :func:`inf_norm_diff` — sup-norm distance between successive iterates.

They are deliberately written against plain index arrays (no library sparse
types) so the arithmetic path is independent of the dense reference solver.
They check nothing per call: the shapes are fixed once, when the CSR and the
:class:`~compactmdp.core.MdpSpec` holding it are built.

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
class SparseMatrixCSR:
    """Compressed-sparse-row matrix.

    ``row_ptr`` has ``n_rows + 1`` entries; row ``i`` owns the slice
    ``col_idx[row_ptr[i]:row_ptr[i+1]]`` / ``values[row_ptr[i]:row_ptr[i+1]]``.
    ``row_idx`` is the same row ownership spelled out per entry (``i``
    repeated ``row_ptr[i+1] - row_ptr[i]`` times), kept so the kernels need
    not expand ``row_ptr`` on every product.  Construction checks the array
    lengths and that every index addresses the matrix.
    """

    n_rows: int
    n_cols: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray
    row_idx: np.ndarray

    def __post_init__(self):
        nnz = len(self.values)
        if self.row_ptr.shape != (self.n_rows + 1,) or self.row_ptr[-1] != nnz:
            raise ValueError(f"row_ptr must have {self.n_rows + 1} entries ending at {nnz}")
        for name, bound in (("col_idx", self.n_cols), ("row_idx", self.n_rows)):
            index = getattr(self, name)
            if index.shape != (nnz,) or nnz and not 0 <= index.min() <= index.max() < bound:
                raise ValueError(f"{name} must hold {nnz} indices in [0, {bound})")

    @property
    def nnz(self):
        return len(self.values)

    @property
    def nbytes(self):
        """Bytes held by the four arrays."""
        return sum(a.nbytes for a in (self.row_ptr, self.col_idx, self.values, self.row_idx))

    def dense(self):
        """The matrix as a dense array, for the reference solver and tests."""
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.row_idx, self.col_idx] = self.values
        return out


def coo_to_csr(n_rows, n_cols, rows, cols, values):
    """Build a CSR matrix from coordinate triples.

    Entries may arrive in any order; they are sorted by (row, column) and the
    row pointer is rebuilt from the per-row counts.  A coordinate given twice
    raises ``ValueError``: ``dense()`` would keep one of its values and the
    kernels would sum both.
    """
    order = np.lexsort((cols, rows))
    row_idx = rows[order]
    col_idx = cols[order]
    repeated = np.flatnonzero((row_idx[1:] == row_idx[:-1]) & (col_idx[1:] == col_idx[:-1]))
    if repeated.size:
        i = repeated[0]
        raise ValueError(f"duplicate coordinate ({row_idx[i]}, {col_idx[i]})")
    counts = np.bincount(row_idx, minlength=n_rows)
    return SparseMatrixCSR(
        n_rows=n_rows,
        n_cols=n_cols,
        row_ptr=np.concatenate(([0], np.cumsum(counts))).astype(np.int64),
        col_idx=col_idx,
        values=values[order],
        row_idx=row_idx,
    )


def to_sparse(matrix):
    """Convert a dense 2-D matrix to CSR, dropping exact zeros."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
    rows, cols = np.nonzero(matrix)
    return coo_to_csr(*matrix.shape, rows, cols, matrix[rows, cols])


def sparse_mult(m, v):
    """CSR matrix-vector product ``m @ v`` as a dense vector.

    Rows with no stored entries contribute exact zeros.
    """
    return np.bincount(m.row_idx, weights=m.values * v[m.col_idx], minlength=m.n_rows)


def saxpy(scale, t, r):
    """Elementwise ``r + scale * t`` for equal-length vectors."""
    return r + scale * t


def max_reduce(q, n_states, n_actions):
    """Reduce a stacked Q-vector to per-state values and a greedy policy.

    ``q`` is laid out action-major (length ``n_states * n_actions``).  Returns
    ``(values, policy)`` where ties in the argmax resolve to the lowest action
    index.
    """
    blocks = q.reshape(n_actions, n_states)
    return blocks.max(axis=0), blocks.argmax(axis=0)


def inf_norm_diff(a, b):
    """Sup-norm distance ``max_i |a_i - b_i|`` between equal-length vectors."""
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
