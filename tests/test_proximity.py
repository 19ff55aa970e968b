import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import sparse

from ane import proximity
from ane.datasets import load_dataset
from ane.embedder import TrainConfig
from ane.graph import Graph, GraphError, parse_edge_lines, preprocess, row_normalize
from ane.proximity import (
    accumulate_powers,
    ppmi_features,
    shifted_ppmi,
)


def scalar_ppmi_oracle(m, beta):
    """Independent per-cell evaluation: explicit loops and math.log."""
    n_rows, n_cols = m.shape
    col_sums = [sum(m[i][j] for i in range(n_rows)) for j in range(n_cols)]
    out = np.zeros_like(np.asarray(m, dtype=np.float64))
    for i in range(n_rows):
        for j in range(n_cols):
            if m[i][j] == 0 or col_sums[j] == 0:
                continue
            out[i, j] = max(math.log(m[i][j] / col_sums[j]) - math.log(beta), 0.0)
    return out


def dense_ppmi(m, beta):
    """The transform on a dense output: every cell, masked where m is zero."""
    col_sums = m.sum(axis=0)
    x = np.zeros_like(m)
    mask = m > 0
    x[mask] = np.log(m[mask] / np.broadcast_to(col_sums, m.shape)[mask]) - np.log(beta)
    return np.maximum(x, 0.0)


def ring_with_chords(rng, n):
    lines = [f"{i} {(i + 1) % n}" for i in range(n)]
    lines += [f"{a} {b}" for a, b in rng.integers(n, size=(n, 2)) if a != b]
    return preprocess(parse_edge_lines(lines))


def random_transition(rng, n):
    mat = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
    mat[np.arange(n), rng.integers(n, size=n)] += 0.2  # no all-zero rows
    return mat / mat.sum(axis=1, keepdims=True)


def test_two_cycle_powers():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(accumulate_powers(a, 2).toarray(), np.ones((2, 2)))


def test_power_t1_is_identity_case():
    rng = np.random.default_rng(0)
    a = random_transition(rng, 5)
    np.testing.assert_array_equal(accumulate_powers(a, 1).toarray(), a)


def test_powers_match_matrix_power_oracle():
    rng = np.random.default_rng(1)
    a = random_transition(rng, 10)
    oracle = sum(np.linalg.matrix_power(a, k) for k in range(1, 4))
    np.testing.assert_allclose(accumulate_powers(a, 3).toarray(), oracle, atol=1e-9)


def test_powers_row_sums():
    rng = np.random.default_rng(2)
    for t in (1, 2, 4):
        a = random_transition(rng, 8)
        np.testing.assert_allclose(accumulate_powers(a, t).sum(axis=1), t, atol=1e-6)


def test_powers_rejects_t_zero():
    with pytest.raises(ValueError, match="t must be >= 1"):
        accumulate_powers(np.eye(2), 0)


def test_two_cycle_ppmi_hand_value():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = shifted_ppmi(m, beta=0.5).toarray()
    ln2 = math.log(2.0)
    np.testing.assert_allclose(x, [[0.0, ln2], [ln2, 0.0]])
    assert x[0, 0] == 0.0  # zero cell stays exactly zero


def test_uniform_matrix_cancels_exactly():
    m = np.full((4, 4), 0.25)
    x = shifted_ppmi(m, beta=0.25).toarray()
    np.testing.assert_array_equal(x, np.zeros((4, 4)))


def test_matches_scalar_oracle_random():
    rng = np.random.default_rng(3)
    a = random_transition(rng, 8)
    m = accumulate_powers(a, 2)
    x = shifted_ppmi(m, beta=1 / 8).toarray()
    np.testing.assert_allclose(x, scalar_ppmi_oracle(m.toarray(), 1 / 8), atol=1e-9)


def test_zero_column_flagged_and_zeroed():
    m = np.array([[0.5, 0.0], [0.5, 0.0]])
    res = shifted_ppmi(m, beta=0.1)
    assert (res.toarray()[:, 1] == 0).all()


def test_monotone_in_beta():
    rng = np.random.default_rng(4)
    m = accumulate_powers(random_transition(rng, 6), 3)
    x_small = shifted_ppmi(m, beta=0.05).toarray()
    x_large = shifted_ppmi(m, beta=0.5).toarray()
    assert (x_small >= x_large).all()


def test_column_scale_invariance():
    rng = np.random.default_rng(5)
    m = accumulate_powers(random_transition(rng, 6), 2).toarray()
    scaled = m.copy()
    scaled[:, 2] *= 7.5
    a = shifted_ppmi(m, beta=0.2).toarray()
    b = shifted_ppmi(scaled, beta=0.2).toarray()
    np.testing.assert_allclose(a[:, 2], b[:, 2], atol=1e-12)
    np.testing.assert_array_equal(a[:, [0, 1, 3, 4, 5]], b[:, [0, 1, 3, 4, 5]])


def test_sparsity_alignment():
    rng = np.random.default_rng(6)
    m = accumulate_powers(random_transition(rng, 7), 2)
    x = shifted_ppmi(m, beta=1 / 7).toarray()
    m = m.toarray()
    assert not ((x > 0) & (m == 0)).any()


def test_negative_input_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        shifted_ppmi(np.array([[-1.0]]), beta=0.5)
    for beta in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="beta must be a finite number > 0"):
            shifted_ppmi(np.eye(2), beta=beta)
    # an infinite shift clamps every entry: the rows would hold nothing
    with pytest.raises(ValueError, match="got inf"):
        ppmi_features(preprocess(parse_edge_lines(["a b", "b c"])), 4, float("inf"))


def test_ppmi_features_defaults_beta_to_inverse_n():
    g = preprocess(parse_edge_lines(["a b", "b c", "c a"]))
    feats = ppmi_features(g)
    want = shifted_ppmi(accumulate_powers(row_normalize(g), 4), 1 / 3)
    assert isinstance(feats, sparse.csr_array) and feats.shape == (3, 3)
    np.testing.assert_array_equal(feats.toarray(), want.toarray())
    # the chain and the transform's output both hold int32 indices, as a dense matrix's CSR does
    assert feats.indices.dtype == feats.indptr.dtype == np.int32
    assert sparse.csr_array(feats.toarray()).indices.dtype == np.int32


def test_ppmi_features_size_guard(monkeypatch):
    # path a - b - c, t = 4: A has 4 entries and row counts (1, 2, 1). Each
    # step checks held + nnz(sum) + 2 * bound + nnz(A) + 2 * (N + 1) entries:
    #   step 2: 4 + 4 + 2 * 6 + 4 + 8 = 32 (bound: rows (2, 2, 2))
    #   step 3: (4 + 5) + 9 + 2 * 5 + 4 + 8 = 40 (A^2 has 5 entries; rows (1, 3, 1))
    #   step 4: (9 + 4) + 9 + 2 * 6 + 4 + 8 = 46 (A^3 has 4 entries)
    # and the transform checks 2 * 9 entries, so the largest need is 46 entries
    # of 12 bytes: a float64 value and an int32 index.
    g = preprocess(parse_edge_lines(["a b", "b c"]))
    need = 46 * 12
    monkeypatch.setattr(proximity, "memory_budget", lambda: need)
    assert ppmi_features(g).shape == (3, 3)

    monkeypatch.setattr(proximity, "memory_budget", lambda: need - 1)
    with pytest.raises(ValueError, match=r"need about 0\.0 GB .*more than the 0\.0 GB"):
        ppmi_features(g)


def test_memory_guard_fires_before_first_product(monkeypatch):
    matmul = sparse.csr_array.__matmul__

    def no_product(self, other):
        if sparse.issparse(other):
            raise AssertionError("power product computed past the memory check")
        return matmul(self, other)

    monkeypatch.setattr(proximity, "memory_budget", lambda: 1)
    monkeypatch.setattr(sparse.csr_array, "__matmul__", no_product)
    g = ring_with_chords(np.random.default_rng(11), 50)
    with pytest.raises(GraphError, match="PPMI features of 50 nodes need about 0.0 GB"):
        ppmi_features(g)
    # one step needs no product: the transform's own check still fires
    with pytest.raises(GraphError, match="PPMI features of 50 nodes"):
        ppmi_features(g, steps=1)


def test_config_validation():
    # the PPMI settings live in TrainConfig, checked before any feature work
    with pytest.raises(ValueError, match="ppmi_steps"):
        TrainConfig(ppmi_steps=0)
    for beta in (-0.1, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="ppmi_beta"):
            TrainConfig(ppmi_beta=beta)


def test_row_normalize_feeds_accumulate():
    g = preprocess(parse_edge_lines(["a b", "b c", "c d", "d a"]))
    m = accumulate_powers(row_normalize(g), 4)
    np.testing.assert_allclose(m.sum(axis=1), 4.0, atol=1e-6)


def random_weighted_graph(rng, n):
    src, dst = np.triu_indices(n, k=1)
    keep = rng.random(src.size) < rng.uniform(0.05, 0.5)
    ring = np.arange(n)  # every node gets an edge
    pairs = np.unique(
        np.vstack([np.column_stack([src[keep], dst[keep]]),
                   np.sort(np.column_stack([ring, (ring + 1) % n]), axis=1)]),
        axis=0,
    )
    return Graph([str(i) for i in range(n)], pairs[:, 0], pairs[:, 1],
                 rng.uniform(0.1, 5.0, size=len(pairs)))


def test_sparse_chain_matches_dense_chain_on_random_weighted_graphs():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(5, 40))
        a = row_normalize(random_weighted_graph(rng, n))
        dense = a.toarray()
        power, want = dense.copy(), dense.copy()
        for t in range(1, 7):
            if t > 1:
                power = power @ dense
                want = want + power
            got = accumulate_powers(a, t)
            assert isinstance(got, sparse.csr_array) and got.shape == (n, n)
            np.testing.assert_allclose(got.toarray(), want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.sum(axis=1), t, rtol=0, atol=1e-12)


def test_sparse_chain_bit_equal_to_sparse_times_dense_chain():
    # the sparse-times-dense chain adds each entry's terms in A's row order,
    # and so must the sparse-times-sparse one; 300 nodes reach a dense sum.
    # A comes with int64 indices and the chain runs in int32, which does not
    # enter the arithmetic
    rng = np.random.default_rng(8)
    graphs = [load_dataset("karate")[0], ring_with_chords(rng, 300)]
    graphs += [random_weighted_graph(rng, int(rng.integers(5, 60))) for _ in range(10)]
    for g in graphs:
        a = row_normalize(g)
        assert a.indices.dtype == a.indptr.dtype == np.int64
        power = a.toarray()
        want = power.copy()
        for t in range(1, 6):
            if t > 1:
                power = a @ power
                want += power
            got = accumulate_powers(a, t)
            assert got.indices.dtype == got.indptr.dtype == np.int32
            np.testing.assert_array_equal(got.toarray(), want)
            assert (got.data > 0).all()  # no stored zeros
            # column sums add in row order, like the dense sum over axis 0
            col_sums = np.bincount(got.indices, weights=got.data, minlength=g.num_nodes)
            np.testing.assert_array_equal(col_sums, want.sum(axis=0))


def test_power_sum_arrays_hold_only_stored_entries():
    # scipy's sum keeps room for both its terms; the returned sum keeps none
    g = ring_with_chords(np.random.default_rng(13), 300)
    for t in (1, 2, 4):
        m = accumulate_powers(row_normalize(g), t)
        for arr in (m.data, m.indices):
            owner = arr if arr.base is None else arr.base
            assert arr.size == owner.size == m.nnz


def test_csr_ppmi_bit_equal_to_dense_transform():
    rng = np.random.default_rng(9)
    for n in (1, 2, 17, 300):
        m = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
        m[:, ::5] = 0.0  # zero columns
        m[0, :] = 1.0 / n  # some cells land exactly on the shift
        # rows stored out of order, as the power products leave them
        shuffled = sparse.csr_array(m)
        for r in range(n):
            row = slice(shuffled.indptr[r], shuffled.indptr[r + 1])
            order = rng.permutation(row.stop - row.start)
            shuffled.indices[row] = shuffled.indices[row][order]
            shuffled.data[row] = shuffled.data[row][order]
        shuffled.has_sorted_indices = False
        stored_zeros = sparse.csr_array(m)
        stored_zeros.data[::7] = 0.0
        stored_zeros.data[stored_zeros.indices == 1] = 0.0  # a column of stored zeros
        only_zeros = sparse.csr_array(m)
        only_zeros.data[:] = 0.0
        gaps = m.copy()
        gaps[[0, n // 2, n - 1]] = 0.0  # empty first, middle and last rows
        empty = sparse.csr_array((n, n))  # nnz 0
        sources = (m, sparse.csr_array(m), shuffled, stored_zeros, only_zeros, gaps,
                   sparse.csr_array(gaps), np.zeros((n, n)), empty)
        for beta in (1.0 / n, 0.3):
            for source in sources:
                dense = source.toarray() if sparse.issparse(source) else source
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = shifted_ppmi(source, beta)
                assert isinstance(got, sparse.csr_array)
                assert got.has_sorted_indices and (got.data > 0).all()
                np.testing.assert_array_equal(got.toarray(), dense_ppmi(dense, beta))


def traced_peak(fn, *args):
    """Peak bytes that ``fn(*args)`` allocates above what is already held."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("steps", [2, 8])
def test_ppmi_features_peak_within_estimate(monkeypatch, steps):
    checked = []

    def record(n, entries, index):
        checked.append(entries * proximity.entry_bytes(index))

    monkeypatch.setattr(proximity, "_check_ppmi_memory", record)
    # 1 000 nodes, so the arrays outweigh the interpreter's own few kB
    g = ring_with_chords(np.random.default_rng(10), 1000)
    a = row_normalize(g)
    m, chain_peak = traced_peak(accumulate_powers, a, steps)
    assert len(checked) == steps - 1 and chain_peak <= max(checked)
    _, transform_peak = traced_peak(shifted_ppmi, m, 1 / g.num_nodes)
    assert len(checked) == steps and transform_peak <= checked[-1]


def test_ppmi_transform_allocates_under_16_bytes_per_stored_entry():
    # t = 4 on 1 000 nodes, 43 % of M's entries kept: beside M the transform
    # holds a float64 value and a keep flag per entry, a running count in
    # int32, and the kept values and int32 indices; measured 14.19 bytes an
    # entry (25.05 with int64 indices and the nnz-sized row-count arrays),
    # bounded about an eighth above
    g = ring_with_chords(np.random.default_rng(10), 1000)
    m = accumulate_powers(row_normalize(g), 4)
    assert m.indices.dtype == np.int32 and m.nnz == 209_772
    _, peak = traced_peak(shifted_ppmi, m, 1 / g.num_nodes)
    assert peak <= 16 * m.nnz


def test_ppmi_features_allocate_no_dense_n_by_n_array():
    # a Cora-sized graph: a dense N x N float64 array alone is 58.7 MB
    g = ring_with_chords(np.random.default_rng(12), 2708)
    _, peak = traced_peak(ppmi_features, g)
    assert peak < 8 * g.num_nodes**2
