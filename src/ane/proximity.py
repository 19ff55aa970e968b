"""High-order proximity accumulation and shifted-PPMI feature matrices.

The node feature matrix is built in two steps: sum the first ``t`` powers of
the row-stochastic transition matrix ``A``, then apply a column-normalized,
log-shifted, zero-clamped transform. ``A``, every power, the sum ``M`` and
the result are scipy CSR arrays: each power is a sparse-times-sparse
product, ``A @ A^k``, and no N x N array is allocated (at t = 4 on a
Cora-sized graph ``M`` is 10.4 % non-zero and the result 5.9 %). Their
index arrays are int32 wherever the entry counts fit, so a stored entry
takes 12 bytes: a float64 value and an int32 index. Before each product and
before the transform, the step's memory is bounded from the sparsity
patterns, at that entry size, and checked against physical memory. The rows
of the result are the input ``x_i`` of every generator network.
"""

from __future__ import annotations

import os

import numpy as np
from scipy import sparse

from .graph import GraphError, row_normalize


def entry_bytes(index):
    """Bytes of one stored CSR entry: a float64 value and an ``index`` index."""
    return np.dtype(np.float64).itemsize + np.dtype(index).itemsize


def memory_budget():
    """Physical memory in bytes, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def check_memory(need, what, detail, remedy):
    """Raise :class:`~ane.graph.GraphError` (a ``ValueError``) when ``need``
    bytes exceed :func:`memory_budget`. The message names ``what`` needs
    them, how they were counted (``detail``) and a ``remedy``."""
    budget = memory_budget()
    if budget is not None and need > budget:
        raise GraphError(
            f"{what} need about {need / 1e9:.1f} GB ({detail}), more than the "
            f"{budget / 1e9:.1f} GB of physical memory; {remedy}"
        )


def _check_ppmi_memory(n, entries, index):
    size = entry_bytes(index)
    check_memory(
        size * entries,
        f"PPMI features of {n} nodes",
        f"{entries} sparse entries of {size} bytes",
        "precompute features and pass them in instead (ane embed --features)",
    )


def accumulate_powers(a_hat, t):
    """Sum of transition-matrix powers A + A^2 + ... + A^t as a CSR array.

    ``a_hat`` is a square scipy sparse matrix, such as the CSR array from
    :func:`ane.graph.row_normalize`, or a dense array, which is converted to
    CSR. Each step is ``power = A @ power``, a sparse-times-sparse product
    that adds every entry's terms in the order of A's stored row, as a
    sparse-times-dense product does, then ``total = total + power``; the
    result is bit-stable for a fixed input. Its rows are not sorted. Each
    row sums to t because every power of a row-stochastic matrix is
    row-stochastic.

    The chain runs with the index dtype ``sparse.get_index_dtype`` picks
    for A (int32 wherever the entries fit; scipy widens a product or sum
    whose count needs it); the values are an int64 chain's, bit for bit.

    Before each product, the step's peak is bounded from the sparsity
    patterns and checked with :func:`memory_budget`. Row i of ``A @ power``
    holds at most ``min(N, sum of nnz(power[k]) over the k in row i of A)``
    entries; these bounds add up to ``B``. The step holds the sum as
    allocated (scipy's sum keeps room for both its terms), the product (at
    most ``B``), and either the last power (at most ``nnz(sum)``) while the
    product is built or the new sum (at most ``nnz(sum) + B``) while it is
    added, plus A's pattern and the row pointers, each counted as an entry
    of :func:`entry_bytes` for the index dtype of the new sum (12 bytes with
    int32). A step that cannot fit raises :class:`~ane.graph.GraphError`
    before the product is allocated. The sum is returned in arrays of its
    exact size, copied after the last power is freed, so it carries none of
    that room on.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    a_hat = sparse.csr_array(a_hat, dtype=np.float64)
    if a_hat.ndim != 2 or a_hat.shape[0] != a_hat.shape[1]:
        raise ValueError(f"expected square matrix, got shape {a_hat.shape}")
    n = a_hat.shape[0]
    index = sparse.get_index_dtype(maxval=max(a_hat.nnz, n))
    indices, indptr = (a.astype(index, copy=False) for a in (a_hat.indices, a_hat.indptr))
    a_hat = sparse.csr_array((a_hat.data, indices, indptr), shape=a_hat.shape)
    pattern = sparse.csr_array(
        (np.ones(a_hat.nnz, dtype=np.int64), a_hat.indices, a_hat.indptr), shape=a_hat.shape
    )
    total = power = a_hat
    held = total.nnz  # entries allocated to the sum
    for _ in range(t - 1):
        bound = int(np.minimum(pattern @ np.diff(power.indptr), n).sum())
        # scipy widens the product's and the sum's indices when their counts need it
        index = sparse.get_index_dtype((total.indptr, power.indptr), maxval=total.nnz + bound)
        _check_ppmi_memory(n, held + total.nnz + 2 * bound + a_hat.nnz + 2 * (n + 1), index)
        power = a_hat @ power
        held = total.nnz + power.nnz
        total = total + power
    del power
    # the data and indices are views of the sum's buffers; copy() takes only the views
    return total.copy()


def shifted_ppmi(m, beta):
    """Column-normalized log transform, shifted by -log(beta), clamped at 0.

    ``m`` is a scipy sparse matrix or a dense array. Only its stored entries
    are transformed: every other cell is 0, and so is every result that is
    not positive. Column sums add the stored entries in row order, as a
    dense column sum does. A column of ``m`` summing to zero gives an
    all-zero output column. Returns a scipy CSR array of the positive
    results with sorted rows and the index dtype ``sparse.get_index_dtype``
    picks for its size.

    Beside ``m`` the transform holds a float64 value per stored entry (the
    gathered column sum, divided, logged and shifted in place), a keep mask
    and a running count of kept entries in nnz(m)'s index dtype, read at the
    row ends and freed before the output is built: at most 21 bytes an entry
    with int32 indices (8 + 1 + 12 when all are kept), checked first with
    :func:`memory_budget` as two entries of :func:`entry_bytes`.
    """
    m = sparse.csr_array(m, dtype=np.float64)
    if not (np.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be a finite number > 0, got {beta}")
    if (m.data < 0).any():
        raise ValueError("proximity matrix must be non-negative")
    count = sparse.get_index_dtype(maxval=max(m.nnz, *m.shape))
    _check_ppmi_memory(m.shape[0], 2 * m.nnz, count)

    # a stored zero gives log(0), or 0/0 in a column of zeros: the clamp drops both
    col_sums = np.bincount(m.indices, weights=m.data, minlength=m.shape[1])
    x = col_sums[m.indices].astype(np.float64, copy=False)  # bincount gives int64 on nnz 0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(m.data, x, out=x)
        np.log(x, out=x)
    x -= np.log(beta)
    keep = x > 0
    # kept[k] counts the kept entries before stored entry k, so the row ends read 0
    # for an empty first row or an empty m; summed in place, since a cumsum of
    # the mask into another dtype casts the whole mask first
    kept = np.zeros(m.nnz + 1, dtype=count)
    kept[1:] = keep
    np.cumsum(kept, out=kept)
    indptr = kept[m.indptr]
    del kept
    # the index dtype scipy gives a dense matrix of this size, int32 where it fits
    index = sparse.get_index_dtype(maxval=max(indptr[-1], *m.shape))
    indices = m.indices[keep].astype(index, copy=False)
    out = sparse.csr_array((x[keep], indices, indptr.astype(index, copy=False)), shape=m.shape)
    # the generators' CSR products add in stored order
    out.sort_indices()
    return out


def ppmi_features(graph, steps=4, beta=None):
    """Full pipeline from a preprocessed graph to its feature matrix: powers
    up to ``steps``, then the shifted PPMI with ``beta`` (None means 1/N),
    as a scipy CSR array.

    Each product of the powers and the transform are checked against
    :func:`memory_budget` before they allocate; a build that cannot fit
    raises :class:`~ane.graph.GraphError` (a ``ValueError``) naming the
    estimate.
    """
    if beta is None:
        beta = 1.0 / graph.num_nodes
    m = accumulate_powers(row_normalize(graph), steps)
    return shifted_ppmi(m, beta)

