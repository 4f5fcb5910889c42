"""The CSR container, value-iteration kernels, and storage accounting.

:class:`SparseMatrixCSR`, the one sparse container, holds each entry's row,
column and value, sorted by row; :func:`coo_to_csr` and :func:`to_sparse`
build it.  The sparse solver is built from four small kernels on it:

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

Storage accounting mirrors a 32-bit embedded target: each matrix entry and
value cell is charged 4 bytes, and each entry's row and column index (the
container's other two arrays) the fewest whole bytes that address its dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Bytes charged per stored numeric entry (single-precision target).
VALUE_BYTES = 4


@dataclass(frozen=True, eq=False)
class SparseMatrixCSR:
    """Sparse matrix as row-sorted coordinates, valid by construction.

    Entry ``k`` is ``values[k]`` at ``(row_idx[k], col_idx[k])``, sorted by
    row and then by column.  Construction refuses non-integer index arrays,
    index arrays whose length differs from ``values``, a row or column
    outside the matrix, a row that falls, and a row whose columns repeat
    (``dense()`` would keep one value, the kernels their sum) or fall.  It
    marks ``col_idx`` and ``values`` read-only; ``row_idx`` stays writable,
    because ``np.bincount`` is slower on a read-only index.  A pickle is
    loaded through the constructor, so it is checked and marked again.
    Equality and hashing go by identity.
    """

    n_rows: int
    n_cols: int
    row_idx: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nnz = len(self.values)
        row_idx, col_idx = self.row_idx, self.col_idx
        for name, index in ("row_idx", row_idx), ("col_idx", col_idx):
            if index.dtype.kind not in "iu" or not np.can_cast(index.dtype, np.intp):
                raise ValueError(f"{name} must hold integers, got dtype {index.dtype}")
        if row_idx.shape != (nnz,):
            raise ValueError(f"row_idx must hold {nnz} indices, got shape {row_idx.shape}")
        if (col_idx.shape != (nnz,)
                or nnz and not 0 <= col_idx.min() <= col_idx.max() < self.n_cols):
            raise ValueError(f"col_idx must hold {nnz} indices in [0, {self.n_cols})")
        step = np.diff(row_idx)
        unsorted = np.flatnonzero((step < 0) | (step == 0) & (col_idx[1:] <= col_idx[:-1]))
        if unsorted.size:
            i = unsorted[0] + 1
            row, col = row_idx[i], col_idx[i]
            if row < row_idx[i - 1]:
                raise ValueError(f"row {row} follows row {row_idx[i - 1]}: rows must not fall")
            if col == col_idx[i - 1]:
                raise ValueError(f"duplicate coordinate ({row}, {col})")
            raise ValueError(f"row {row} has its columns out of order")
        if nnz and (row_idx[0] < 0 or row_idx[-1] >= self.n_rows):
            row = row_idx[0] if row_idx[0] < 0 else row_idx[-1]
            raise ValueError(f"row {row} is outside [0, {self.n_rows})")
        for array in (col_idx, self.values):
            array.flags.writeable = False

    def __reduce__(self):
        return SparseMatrixCSR, (self.n_rows, self.n_cols, self.row_idx, self.col_idx, self.values)

    @property
    def nnz(self):
        return len(self.values)

    @property
    def nbytes(self):
        """Bytes held by the three arrays."""
        return sum(a.nbytes for a in (self.row_idx, self.col_idx, self.values))

    def dense(self):
        """The matrix as a dense array, for the reference solver and tests."""
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.row_idx, self.col_idx] = self.values
        return out


def coo_to_csr(n_rows, n_cols, rows, cols, values):
    """Build a CSR matrix from coordinate triples.

    Entries may arrive in any order; they are sorted by (row, column).  The
    three arrays must be of equal length; the CSR refuses the rest, naming
    its own arrays: non-integer indices, a row or column outside the matrix,
    and a coordinate given twice.
    """
    if not len(rows) == len(cols) == len(values):
        raise ValueError(
            f"rows, cols and values must have equal lengths, got "
            f"{len(rows)}, {len(cols)} and {len(values)}"
        )
    order = np.lexsort((cols, rows))
    return SparseMatrixCSR(n_rows, n_cols, rows[order], cols[order], values[order])


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
