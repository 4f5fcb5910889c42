"""The CSR container, value-iteration kernels, and storage accounting.

:class:`SparseMatrixCSR` is the one sparse container; :func:`coo_to_csr` and
:func:`to_sparse` build it.  The sparse solver is built from four small
kernels that operate on a CSR matrix and flat vectors:

* :func:`sparse_mult` — CSR matrix times dense vector,
* :func:`saxpy` — scaled vector add, in place,
* :func:`max_reduce` — per-state max over the stacked action blocks,
* :func:`inf_norm_diff` — sup-norm distance between successive iterates.

:func:`greedy_policy` — the per-state argmax, ties to the lowest action — is
not one of them: the solver takes it once, from the final backup.

They are deliberately written against plain index arrays (no library sparse
types) so the arithmetic path is independent of the dense reference solver.
They check nothing per call: the CSR and the :class:`~compactmdp.core.MdpSpec`
holding it are valid by construction, so the shapes and the sorted,
duplicate-free entries are fixed once, when they are built.

Storage accounting mirrors a 32-bit embedded target: matrix entries and value
cells are charged 4 bytes each, and sparse index columns are charged the
smallest whole number of bytes that can address the corresponding dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Bytes charged per stored numeric entry (single-precision target).
VALUE_BYTES = 4


@dataclass(frozen=True)
class SparseMatrixCSR:
    """Compressed-sparse-row matrix, valid by construction.

    ``row_ptr`` has ``n_rows + 1`` entries; row ``i`` owns the slice
    ``col_idx[row_ptr[i]:row_ptr[i+1]]`` / ``values[row_ptr[i]:row_ptr[i+1]]``.
    ``row_idx``, the row of each entry, is derived from ``row_ptr`` so the
    kernels need not expand it on every product.  Construction refuses a
    ``row_ptr`` that does not rise from 0 to ``nnz``, a column outside the
    matrix, and a row whose columns repeat (``dense()`` would keep one value,
    the kernels their sum) or fall, and marks the arrays it is given
    read-only.  ``row_idx`` stays writable: ``np.bincount`` would copy a
    read-only index on every product.
    """

    n_rows: int
    n_cols: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray
    row_idx: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        nnz = len(self.values)
        row_ptr, col_idx = self.row_ptr, self.col_idx
        if (row_ptr.shape != (self.n_rows + 1,) or row_ptr[0] != 0 or row_ptr[-1] != nnz
                or ((counts := np.diff(row_ptr)) < 0).any()):
            raise ValueError(f"row_ptr must rise from 0 to {nnz} in {self.n_rows + 1} entries")
        if (col_idx.shape != (nnz,)
                or nnz and not 0 <= col_idx.min() <= col_idx.max() < self.n_cols):
            raise ValueError(f"col_idx must hold {nnz} indices in [0, {self.n_cols})")
        row_idx = np.repeat(np.arange(self.n_rows), counts)
        unsorted = np.flatnonzero((row_idx[1:] == row_idx[:-1]) & (col_idx[1:] <= col_idx[:-1]))
        if unsorted.size:
            i = unsorted[0] + 1
            if col_idx[i] == col_idx[i - 1]:
                raise ValueError(f"duplicate coordinate ({row_idx[i]}, {col_idx[i]})")
            raise ValueError(f"row {row_idx[i]} has its columns out of order")
        for array in (row_ptr, col_idx, self.values):
            array.flags.writeable = False
        object.__setattr__(self, "row_idx", row_idx)

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
    row pointer is built from the per-row counts.  The three arrays must be
    of equal length and every row inside ``[0, n_rows)``; the CSR refuses a
    coordinate given twice or a column outside the matrix.
    """
    if not len(rows) == len(cols) == len(values):
        raise ValueError(
            f"rows, cols and values must have equal lengths, got "
            f"{len(rows)}, {len(cols)} and {len(values)}"
        )
    if len(rows) and not 0 <= rows.min() <= rows.max() < n_rows:
        outside = rows[(rows < 0) | (rows >= n_rows)]
        raise ValueError(f"row {outside[0]} is outside [0, {n_rows})")
    order = np.lexsort((cols, rows))
    counts = np.bincount(rows, minlength=n_rows)
    return SparseMatrixCSR(
        n_rows=n_rows,
        n_cols=n_cols,
        row_ptr=np.concatenate(([0], np.cumsum(counts))).astype(np.int64),
        col_idx=cols[order],
        values=values[order],
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
    products = v[m.col_idx]
    products *= m.values
    return np.bincount(m.row_idx, weights=products, minlength=m.n_rows)


def saxpy(scale, t, r):
    """Elementwise ``r + scale * t`` for equal-length vectors, written into ``t``.

    Returns ``t``.  ``t`` must not share memory with ``r``, which is read
    after ``t`` is scaled; the solver passes the fresh product of
    :func:`sparse_mult`.
    """
    t *= scale
    t += r
    return t


def max_reduce(q, n_states, n_actions):
    """Per-state values of a stacked Q-vector: the max over its action blocks.

    ``q`` is laid out action-major (length ``n_states * n_actions``).
    """
    return q.reshape(n_actions, n_states).max(axis=0)


def greedy_policy(q, n_states, n_actions):
    """Per-state greedy action of a stacked Q-vector laid out as in :func:`max_reduce`.

    Ties resolve to the lowest action index.
    """
    return q.reshape(n_actions, n_states).argmax(axis=0)


def inf_norm_diff(a, b):
    """Sup-norm distance ``max_i |a_i - b_i|`` between equal-length vectors."""
    diff = a - b
    return float(np.abs(diff, out=diff).max())


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
