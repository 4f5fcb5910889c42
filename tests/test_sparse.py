"""The CSR container, the four solver kernels, and storage accounting."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from compactmdp import (
    SparseMatrixCSR,
    coo_to_csr,
    inf_norm_diff,
    max_reduce,
    saxpy,
    sparse_mult,
    storage_report,
    to_sparse,
)
from compactmdp.sparse import index_bytes


class TestConversions:
    def test_identity_in_scan_order(self):
        csr = to_sparse(np.eye(3))
        assert csr.nnz == 3
        assert_array_equal(csr.row_idx, [0, 1, 2])
        assert_array_equal(csr.col_idx, [0, 1, 2])
        assert_array_equal(csr.values, [1.0, 1.0, 1.0])

    def test_all_zero_matrix_is_empty(self):
        csr = to_sparse(np.zeros((2, 2)))
        assert csr.nnz == 0
        assert_array_equal(csr.row_ptr, [0, 0, 0])

    def test_row_ptr_counts_rows(self):
        m = np.array([[5.0, 0.0], [0.0, 0.0], [1.0, 2.0]])
        csr = to_sparse(m)
        assert_array_equal(csr.row_ptr, [0, 1, 1, 3])
        assert_array_equal(csr.row_idx, [0, 2, 2])
        assert_array_equal(csr.col_idx, [0, 0, 1])
        assert_array_equal(csr.values, [5.0, 1.0, 2.0])

    def test_unsorted_coo_input_is_sorted(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        rows, cols = np.nonzero(m)
        csr = coo_to_csr(2, 2, rows[::-1], cols[::-1], m[rows, cols][::-1])
        assert_array_equal(csr.row_ptr, [0, 2, 4])
        assert_array_equal(csr.dense(), m)

    def test_duplicate_coordinates_rejected(self):
        """A repeated coordinate would be one value to ``dense()`` and their
        sum to the kernels, so it is refused."""
        with pytest.raises(ValueError, match=r"duplicate coordinate \(0, 0\)"):
            coo_to_csr(1, 1, np.array([0, 0]), np.array([0, 0]), np.array([0.5, 0.5]))
        rows, cols = np.array([1, 0, 1, 0]), np.array([0, 1, 0, 0])
        with pytest.raises(ValueError, match=r"duplicate coordinate \(1, 0\)"):
            coo_to_csr(2, 2, rows, cols, np.ones(4))

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = rng.random((8, 5)) * (rng.random((8, 5)) < 0.4)
            assert_array_equal(to_sparse(m).dense(), m)

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            to_sparse(np.zeros(3))

    def test_construction_rejects_misfit_arrays(self):
        """The kernels check nothing, so a CSR whose arrays do not fit its
        shape is refused when it is built."""
        good = to_sparse(np.array([[1.0, 0.0], [0.5, 0.5]]))
        fields = dict(n_rows=2, n_cols=2, row_ptr=good.row_ptr, col_idx=good.col_idx,
                      values=good.values, row_idx=good.row_idx)
        assert_array_equal(SparseMatrixCSR(**fields).dense(), good.dense())
        for bad, match in [
            (dict(n_rows=3), "row_ptr must have 4 entries ending at 3"),
            (dict(row_ptr=np.array([0, 1, 2])), "row_ptr must have 3 entries ending at 3"),
            (dict(n_cols=1), r"col_idx must hold 3 indices in \[0, 1\)"),
            (dict(col_idx=np.array([0, 0, -1])), r"col_idx must hold 3 indices in \[0, 2\)"),
            (dict(row_idx=np.array([0, 1])), r"row_idx must hold 3 indices in \[0, 2\)"),
            (dict(row_idx=np.array([0, 1, 2])), r"row_idx must hold 3 indices in \[0, 2\)"),
        ]:
            with pytest.raises(ValueError, match=match):
                SparseMatrixCSR(**{**fields, **bad})

    def test_nbytes_counts_the_four_arrays(self):
        csr = to_sparse(np.eye(4))
        assert csr.nbytes == 8 * (5 + 4 + 4 + 4)


class TestKernels:
    def test_identity_multiply(self):
        csr = to_sparse(np.eye(4))
        v = np.array([1.0, -2.0, 3.0, 0.5])
        assert_array_equal(sparse_mult(csr, v), v)

    def test_empty_rows_contribute_zero(self):
        m = np.array([[0.0, 0.0], [2.0, 0.0]])
        csr = to_sparse(m)
        assert_array_equal(sparse_mult(csr, np.array([3.0, 7.0])), [0.0, 6.0])

    def test_matches_dense_product_on_random_matrices(self):
        """1,000 random sparse matrices against the dense product."""
        rng = np.random.default_rng(17)
        for _ in range(1000):
            n_rows = int(rng.integers(1, 101))
            n_cols = int(rng.integers(1, 101))
            density = rng.uniform(0.01, 0.7)
            m = rng.standard_normal((n_rows, n_cols))
            m *= rng.random((n_rows, n_cols)) < density
            v = rng.standard_normal(n_cols)
            got = sparse_mult(to_sparse(m), v)
            want = m @ v
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_saxpy(self):
        assert_array_equal(saxpy(0.9, np.array([10.0, 0.0]), np.array([1.0, 2.0])), [10.0, 2.0])
        assert_array_equal(saxpy(0.0, np.array([5.0]), np.array([3.0])), [3.0])

    def test_max_reduce_action_major(self):
        # Two states, two actions: action-0 block [1, 3], action-1 block [2, 0].
        values, policy = max_reduce(np.array([1.0, 3.0, 2.0, 0.0]), 2, 2)
        assert_array_equal(values, [2.0, 3.0])
        assert_array_equal(policy, [1, 0])

    def test_max_reduce_ties_pick_lowest_action(self):
        values, policy = max_reduce(np.array([5.0, 4.0, 5.0, 9.0]), 2, 2)
        assert_array_equal(values, [5.0, 9.0])
        assert_array_equal(policy, [0, 1])

    def test_max_reduce_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n_states = int(rng.integers(1, 12))
            n_actions = int(rng.integers(1, 5))
            q = rng.standard_normal(n_states * n_actions)
            values, policy = max_reduce(q, n_states, n_actions)
            for s in range(n_states):
                per_action = [q[a * n_states + s] for a in range(n_actions)]
                assert values[s] == max(per_action)
                assert policy[s] == per_action.index(max(per_action))

    def test_max_reduce_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            max_reduce(np.array([1.0, 2.0, 3.0]), 2, 2)

    def test_inf_norm_diff(self):
        assert inf_norm_diff(np.array([1.0, 5.0]), np.array([2.0, 4.5])) == 1.0
        assert inf_norm_diff(np.array([1.0]), np.array([1.0])) == 0.0


class TestStorage:
    def test_index_widths(self):
        assert index_bytes(1) == 1
        assert index_bytes(2) == 1
        assert index_bytes(66) == 1
        assert index_bytes(132) == 1
        assert index_bytes(256) == 1
        assert index_bytes(257) == 2
        assert index_bytes(65536) == 2
        assert index_bytes(65537) == 3
        with pytest.raises(ValueError):
            index_bytes(0)

    def test_case_study_budget(self):
        report = storage_report(66, 2, 444)
        assert report.dense_bytes == 34848
        assert report.sparse_bytes == 2664
        assert report.qfunction_bytes == 528
        assert abs(report.sparsity - (1 - 444 / 8712)) < 1e-15

    def test_minimal_matrix_budget(self):
        report = storage_report(1, 1, 1)
        assert report.dense_bytes == 4
        # One-byte minimum for each index column even when one value suffices.
        assert report.sparse_bytes == 6
        assert report.qfunction_bytes == 4
        assert report.sparsity == 0.0

    def test_sparse_bytes_monotone_in_nonzeros(self):
        budgets = [storage_report(66, 2, k).sparse_bytes for k in (0, 100, 444, 8712)]
        assert budgets == sorted(budgets)
        assert budgets[0] == 0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            storage_report(0, 1, 0)
        with pytest.raises(ValueError):
            storage_report(2, 1, 5)
        with pytest.raises(ValueError):
            storage_report(2, 1, -1)
