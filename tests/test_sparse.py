"""The CSR container, the four solver kernels, the greedy policy, and storage accounting."""

import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from compactmdp import (
    SparseMatrixCSR,
    coo_to_csr,
    greedy_policy,
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
        assert csr.row_idx.dtype == np.intp
        assert_array_equal(csr.col_idx, [0, 1, 2])
        assert_array_equal(csr.values, [1.0, 1.0, 1.0])

    def test_all_zero_matrix_is_empty(self):
        csr = to_sparse(np.zeros((2, 2)))
        assert csr.nnz == 0
        assert_array_equal(csr.row_idx, [])

    def test_unsorted_coo_input_is_sorted(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        rows, cols = np.nonzero(m)
        csr = coo_to_csr(2, 2, rows[::-1], cols[::-1], m[rows, cols][::-1])
        assert_array_equal(csr.row_idx, [0, 0, 1, 1])
        assert_array_equal(csr.dense(), m)

    def test_duplicate_coordinates_rejected(self):
        """A repeated coordinate would be one value to ``dense()`` and their
        sum to the kernels, so the CSR refuses it however it is built."""
        with pytest.raises(ValueError, match=r"duplicate coordinate \(0, 0\)"):
            coo_to_csr(1, 1, np.array([0, 0]), np.array([0, 0]), np.array([0.5, 0.5]))
        rows, cols = np.array([1, 0, 1, 0]), np.array([0, 1, 0, 0])
        with pytest.raises(ValueError, match=r"duplicate coordinate \(1, 0\)"):
            coo_to_csr(2, 2, rows, cols, np.ones(4))
        with pytest.raises(ValueError, match=r"duplicate coordinate \(0, 0\)"):
            SparseMatrixCSR(1, 1, np.array([0, 0]), np.array([0, 0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match=r"duplicate coordinate \(2, 1\)"):
            SparseMatrixCSR(3, 2, np.array([0, 2, 2]), np.array([1, 1, 1]), np.ones(3))

    def test_coo_triples_of_unequal_length_are_rejected(self):
        """A surplus value or index is refused, not dropped."""
        message = "rows, cols and values must have equal lengths, got"
        for rows, cols, values, lengths in [
            ([0], [0], [1.0, 5.0], "1, 1 and 2"),
            ([0, 1], [0], [1.0, 5.0], "2, 1 and 2"),
            ([0], [0, 1], [1.0], "1, 2 and 1"),
        ]:
            with pytest.raises(ValueError, match=f"{message} {lengths}"):
                coo_to_csr(2, 2, np.array(rows), np.array(cols), np.array(values))

    @pytest.mark.parametrize("row", [2, 7, -1])
    def test_coo_row_outside_the_matrix_is_named(self, row):
        with pytest.raises(ValueError, match=rf"row {row} is outside \[0, 2\)"):
            coo_to_csr(2, 2, np.array([0, row]), np.array([0, 1]), np.ones(2))

    def test_coo_column_outside_the_matrix_is_refused(self):
        with pytest.raises(ValueError, match=r"col_idx must hold 2 indices in \[0, 2\)"):
            coo_to_csr(2, 2, np.array([0, 1]), np.array([0, 2]), np.ones(2))

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
        fields = dict(n_rows=2, n_cols=2, row_idx=good.row_idx, col_idx=good.col_idx,
                      values=good.values)
        assert_array_equal(SparseMatrixCSR(**fields).dense(), good.dense())
        for bad, match in [
            (dict(n_cols=1), r"col_idx must hold 3 indices in \[0, 1\)"),
            (dict(col_idx=np.array([0, 0, -1])), r"col_idx must hold 3 indices in \[0, 2\)"),
            (dict(col_idx=np.array([0, 1])), r"col_idx must hold 3 indices in \[0, 2\)"),
        ]:
            with pytest.raises(ValueError, match=match):
                SparseMatrixCSR(**{**fields, **bad})

    def test_construction_rejects_misfit_rows(self):
        """A row index outside the matrix, or one per entry too few or too
        many, is refused when the CSR is built."""
        cols, values = np.array([0, 1]), np.ones(2)
        for rows, match in [
            (np.array([0, 2]), r"row 2 is outside \[0, 2\)"),
            (np.array([-1, 0]), r"row -1 is outside \[0, 2\)"),
            (np.array([0, 1, 1]), r"row_idx must hold 2 indices, got shape \(3,\)"),
            (np.array([[0, 1]]), r"row_idx must hold 2 indices, got shape \(1, 2\)"),
        ]:
            with pytest.raises(ValueError, match=match):
                SparseMatrixCSR(2, 2, rows, cols, values)

    def test_construction_rejects_falling_rows(self):
        with pytest.raises(ValueError, match="row 0 follows row 1: rows must not fall"):
            SparseMatrixCSR(2, 2, np.array([1, 0]), np.array([0, 1]), np.ones(2))

    @pytest.mark.parametrize("dtype", [float, bool, np.uint64])
    def test_non_integer_indices_are_refused_when_built(self, dtype):
        """An index array of another dtype is refused by name, not left for
        the first product (``IndexError``) or ``np.bincount`` (``TypeError``)
        to trip over."""
        ints, values = np.array([0, 1]), np.ones(2)
        bad = np.array([0, 1], dtype=dtype)
        for rows, cols, name in ((bad, ints, "row_idx"), (ints, bad, "col_idx")):
            match = rf"{name} must hold integers, got dtype {np.dtype(dtype)}"
            with pytest.raises(ValueError, match=match):
                SparseMatrixCSR(2, 2, rows, cols, values)
            with pytest.raises(ValueError, match=match):
                coo_to_csr(2, 2, rows, cols, values)
        with pytest.raises(ValueError, match="col_idx must hold integers, got dtype float64"):
            SparseMatrixCSR(2, 2, np.array([0, 1, 2]), np.array([0.0, 1.0]), np.ones(2))

    def test_construction_rejects_unsorted_rows(self):
        """Each row's columns must rise; ``coo_to_csr`` sorts them so."""
        with pytest.raises(ValueError, match="row 1 has its columns out of order"):
            SparseMatrixCSR(2, 2, np.array([0, 1, 1]), np.array([0, 1, 0]), np.ones(3))
        # A column may fall across a row boundary.
        csr = SparseMatrixCSR(2, 2, np.array([0, 1]), np.array([1, 0]), np.ones(2))
        assert_array_equal(csr.dense(), [[0.0, 1.0], [1.0, 0.0]])

    def test_arrays_are_read_only(self):
        """The arrays a CSR was checked with cannot change: it marks its
        columns and values read-only.  The row index stays writable, because
        np.bincount is slower on a read-only index.  The conversions hand it
        fresh arrays, so their own inputs stay writable."""
        row_idx, col_idx, values = np.array([0, 1]), np.array([1, 0]), np.array([1.0, 1.0])
        csr = SparseMatrixCSR(2, 2, row_idx, col_idx, values)
        for array in (col_idx, values):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        assert csr.row_idx.flags.writeable
        assert_array_equal(csr.dense(), [[0.0, 1.0], [1.0, 0.0]])
        matrix = np.eye(2)
        rows, cols, ones = np.array([1, 0]), np.array([1, 0]), np.ones(2)
        to_sparse(matrix)
        coo_to_csr(2, 2, rows, cols, ones)
        assert all(a.flags.writeable for a in (matrix, rows, cols, ones))

    def test_a_pickle_is_loaded_through_the_constructor(self):
        csr = to_sparse(np.array([[0.0, 2.0], [3.0, 0.0]]))
        loaded = pickle.loads(pickle.dumps(csr))
        assert_array_equal(loaded.dense(), csr.dense())
        for array in (loaded.col_idx, loaded.values):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        object.__setattr__(csr, "values", np.ones(3))
        with pytest.raises(ValueError, match=r"^row_idx must hold 3 indices, got shape \(2,\)$"):
            pickle.loads(pickle.dumps(csr))

    def test_nbytes_counts_the_three_arrays(self):
        csr = to_sparse(np.eye(4))
        assert csr.nbytes == 8 * (4 + 4 + 4)


@st.composite
def coo_triples(draw, valid=False):
    """Coordinate triples of a small matrix: when not ``valid``, indices may
    fall up to two outside the matrix and coordinates may repeat."""
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    margin = 0 if valid else draw(st.sampled_from([0, 2]))
    coordinate = st.tuples(st.integers(-margin, n_rows - 1 + margin),
                           st.integers(-margin, n_cols - 1 + margin))
    coords = draw(st.lists(coordinate, max_size=n_rows * n_cols,
                           unique=valid or draw(st.booleans())))
    values = draw(st.lists(st.floats(-10.0, 10.0), min_size=len(coords), max_size=len(coords)))
    rows, cols = np.array(coords, dtype=np.intp).reshape(-1, 2).T
    return n_rows, n_cols, rows.copy(), cols.copy(), np.array(values, dtype=float)


class TestConstructionProperties:
    @settings(max_examples=400, deadline=None)
    @given(coo_triples(), st.data())
    def test_coo_to_csr_refuses_a_named_fault_or_matches_the_scatter(self, triples, data):
        """Any triples either raise one of the documented errors, naming a
        fault they have, or build the matrix ``np.add.at`` scatters, whose
        product matches the dense one."""
        n_rows, n_cols, rows, cols, values = triples
        inside = (0 <= rows) & (rows < n_rows) & (0 <= cols) & (cols < n_cols)
        seen = list(zip(rows.tolist(), cols.tolist()))
        try:
            csr = coo_to_csr(n_rows, n_cols, rows, cols, values)
        except ValueError as error:
            message = str(error)
            if m := re.fullmatch(r"row (-?\d+) is outside \[0, (\d+)\)", message):
                assert int(m[1]) in rows.tolist() and not 0 <= int(m[1]) < n_rows
                assert int(m[2]) == n_rows
            elif m := re.fullmatch(r"col_idx must hold (\d+) indices in \[0, (\d+)\)", message):
                assert int(m[1]) == len(cols) and int(m[2]) == n_cols
                assert ((cols < 0) | (cols >= n_cols)).any()
            else:
                m = re.fullmatch(r"duplicate coordinate \((-?\d+), (-?\d+)\)", message)
                assert m, message
                assert seen.count((int(m[1]), int(m[2]))) > 1
            return
        assert inside.all() and len(set(seen)) == len(seen)
        want = np.zeros((n_rows, n_cols))
        np.add.at(want, (rows, cols), values)
        assert_array_equal(csr.dense(), want)
        v = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n_cols,
                                        max_size=n_cols)))
        assert_allclose(sparse_mult(csr, v), csr.dense() @ v, rtol=1e-12, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(coo_triples(valid=True))
    def test_swapping_two_adjacent_entries_is_refused(self, triples):
        """A valid matrix's entries are in strict (row, column) order, so
        swapping any neighbours makes a row or a column fall."""
        csr = coo_to_csr(*triples)
        arrays = csr.row_idx, csr.col_idx, csr.values
        for i in range(csr.nnz - 1):
            swapped = [a.copy() for a in arrays]
            for a in swapped:
                a[[i, i + 1]] = a[[i + 1, i]]
            row, before = swapped[0][i + 1], swapped[0][i]
            if row < before:
                match = f"row {row} follows row {before}: rows must not fall"
            else:
                match = f"row {row} has its columns out of order"
            with pytest.raises(ValueError, match=match):
                SparseMatrixCSR(csr.n_rows, csr.n_cols, *swapped)


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

    def test_sparse_mult_leaves_its_inputs_and_matches_the_fresh_product_bitwise(self):
        rng = np.random.default_rng(31)
        m = rng.standard_normal((40, 30))
        m *= rng.random((40, 30)) < 0.2
        csr = to_sparse(m)
        values = csr.values.copy()
        v = rng.standard_normal(30)
        v_before = v.copy()
        got = sparse_mult(csr, v)
        want = np.bincount(csr.row_idx, weights=csr.values * v[csr.col_idx], minlength=40)
        assert_array_equal(got, want)
        assert_array_equal(v, v_before)
        assert_array_equal(csr.values, values)

    def test_saxpy(self):
        assert_array_equal(saxpy(0.9, np.array([10.0, 0.0]), np.array([1.0, 2.0])), [10.0, 2.0])
        assert_array_equal(saxpy(0.0, np.array([5.0]), np.array([3.0])), [3.0])

    def test_saxpy_writes_into_the_scaled_vector_only(self):
        t, r = np.array([10.0, 0.0]), np.array([1.0, 2.0])
        assert saxpy(0.9, t, r) is t
        assert_array_equal(t, [10.0, 2.0])
        assert_array_equal(r, [1.0, 2.0])

    def test_saxpy_matches_the_fresh_sum_bitwise(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            n = int(rng.integers(1, 200))
            t, r, scale = rng.standard_normal(n), rng.standard_normal(n), rng.uniform(0.0, 1.0)
            want = r + scale * t
            assert_array_equal(saxpy(scale, t, r), want)

    def test_max_reduce_action_major(self):
        # Two states, two actions: action-0 block [1, 3], action-1 block [2, 0].
        q = np.array([1.0, 3.0, 2.0, 0.0])
        assert_array_equal(max_reduce(q, 2, 2), [2.0, 3.0])
        assert_array_equal(greedy_policy(q, 2, 2), [1, 0])

    def test_greedy_policy_ties_pick_lowest_action(self):
        q = np.array([5.0, 4.0, 5.0, 9.0])
        assert_array_equal(max_reduce(q, 2, 2), [5.0, 9.0])
        assert_array_equal(greedy_policy(q, 2, 2), [0, 1])

    def test_max_reduce_and_greedy_policy_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n_states = int(rng.integers(1, 12))
            n_actions = int(rng.integers(1, 5))
            q = rng.standard_normal(n_states * n_actions)
            values = max_reduce(q, n_states, n_actions)
            policy = greedy_policy(q, n_states, n_actions)
            for s in range(n_states):
                per_action = [q[a * n_states + s] for a in range(n_actions)]
                assert values[s] == max(per_action)
                assert policy[s] == per_action.index(max(per_action))

    @pytest.mark.parametrize("reduce", [max_reduce, greedy_policy])
    def test_reductions_reject_wrong_length(self, reduce):
        with pytest.raises(ValueError):
            reduce(np.array([1.0, 2.0, 3.0]), 2, 2)

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
