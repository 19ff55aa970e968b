"""High-order proximity accumulation and shifted-PPMI feature matrices.

The node feature matrix is built in two steps: sum the first ``t`` powers of
the row-stochastic transition matrix ``A``, then apply a column-normalized,
log-shifted, zero-clamped transform. ``A`` is held as a scipy CSR array with
the graph's sparsity, so each power is one sparse-times-dense product,
``A @ A^k``, of about ``2 nnz(A) N`` flops. The powers and their sum are
dense N x N: they fill in within a few steps. The result is the dense input
row ``x_i`` fed to every generator network.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .graph import GraphError, row_normalize

# N x N float64 arrays alive at once at the peak of the feature build: the
# running sum, the last power and the next one, then the sum, the PPMI output
# and the transform's temporaries. Traced on a 2 708-node planted graph: 3.0
# arrays at t = 2 to 4, 4.1 at t = 8 and 10, where M is nearly full.
PEAK_DENSE_ARRAYS = 4


@dataclass(frozen=True)
class PpmiMatrix:
    """Shifted-PPMI feature matrix with the settings that produced it."""

    matrix: np.ndarray
    steps: int
    beta: float
    zero_columns: int = 0  # columns of M that summed to zero (output forced to 0)

    @property
    def num_nodes(self):
        return self.matrix.shape[0]


def accumulate_powers(a_hat, t):
    """Dense sum of transition-matrix powers A + A^2 + ... + A^t.

    ``a_hat`` is a square scipy sparse matrix, such as the CSR array from
    :func:`ane.graph.row_normalize`, or a dense array, which is converted to
    CSR. Each step is ``power = A @ power``: sparse ``A`` times the dense
    last power, in a fixed order so the result is bit-stable for a fixed
    input. Each row sums to t because every power of a row-stochastic matrix
    is row-stochastic.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    a_hat = sparse.csr_array(a_hat, dtype=np.float64)
    if a_hat.ndim != 2 or a_hat.shape[0] != a_hat.shape[1]:
        raise ValueError(f"expected square matrix, got shape {a_hat.shape}")
    power = a_hat.toarray()
    total = power.copy()
    for _ in range(t - 1):
        power = a_hat @ power
        total += power
    return total


def shifted_ppmi(m, beta, steps=0):
    """Column-normalized log transform, shifted by -log(beta), clamped at 0.

    Cells with ``m[i, j] == 0`` are exactly 0 in the output; the log is never
    evaluated there. Columns of ``m`` summing to zero produce all-zero output
    columns and are counted in ``zero_columns``.
    """
    m = np.asarray(m, dtype=np.float64)
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if (m < 0).any():
        raise ValueError("proximity matrix must be non-negative")

    col_sums = m.sum(axis=0)
    zero_cols = int((col_sums == 0).sum())
    safe_cols = np.where(col_sums > 0, col_sums, 1.0)

    x = np.zeros_like(m)
    mask = m > 0
    x[mask] = np.log(m[mask] / np.broadcast_to(safe_cols, m.shape)[mask]) - np.log(beta)
    np.maximum(x, 0.0, out=x)
    x[:, col_sums == 0] = 0.0
    return PpmiMatrix(matrix=x, steps=steps, beta=float(beta), zero_columns=zero_cols)


def memory_budget():
    """Physical memory in bytes, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def ppmi_features(graph, steps=4, beta=None):
    """Full pipeline from a preprocessed graph to its feature matrix: powers
    up to ``steps``, then the shifted PPMI with ``beta`` (None means 1/N).

    Before anything is allocated, the build's peak (``PEAK_DENSE_ARRAYS``
    N x N float64 arrays) is compared with :func:`memory_budget`; a build
    that cannot fit raises :class:`~ane.graph.GraphError` (a ``ValueError``)
    naming the estimate.
    """
    n = graph.num_nodes
    need = PEAK_DENSE_ARRAYS * 8 * n * n
    budget = memory_budget()
    if budget is not None and need > budget:
        raise GraphError(
            f"PPMI features of {n} nodes need about {need / 1e9:.1f} GB "
            f"({PEAK_DENSE_ARRAYS} dense {n} x {n} float64 arrays), more than the "
            f"{budget / 1e9:.1f} GB of physical memory; precompute features and pass "
            "them in instead (ane embed --features)"
        )
    if beta is None:
        beta = 1.0 / n
    m = accumulate_powers(row_normalize(graph), steps)
    return shifted_ppmi(m, beta, steps=steps)


def save_ppmi(ppmi, path):
    """Write a feature matrix as text: header ``N t beta`` then one row per line.

    Values are printed with 17 significant digits so reloading reproduces the
    matrix bit for bit.
    """
    mat = ppmi.matrix
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{mat.shape[0]} {ppmi.steps} {ppmi.beta:.17g}\n")
        for row in mat:
            fh.write(" ".join(f"{v:.17g}" for v in row))
            fh.write("\n")


def load_feature_matrix(path):
    """Load node features from text: ``N D`` (or ``N t beta``) header plus rows.

    Accepts both the :func:`save_ppmi` cache format and a generic ``N D``
    header for externally computed features of any dimension. A malformed
    header or row, a missing or extra row or a non-finite value raises
    ``ValueError``.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) == 3:
            n, d = int(header[0]), int(header[0])
        elif len(header) == 2:
            n, d = int(header[0]), int(header[1])
        else:
            raise ValueError(f"{path}: expected 'N D' or 'N t beta' header, got {header}")
        mat = np.empty((n, d), dtype=np.float64)
        for i in range(n):
            try:
                row = np.array(fh.readline().split(), dtype=np.float64)
            except ValueError as exc:
                raise ValueError(f"{path}: row {i}: {exc}") from exc
            if row.shape[0] != d:
                raise ValueError(f"{path}: row {i} has {row.shape[0]} values, expected {d}")
            if not np.isfinite(row).all():
                raise ValueError(f"{path}: row {i} holds a non-finite value")
            mat[i] = row
        if any(line.strip() for line in fh):
            raise ValueError(f"{path}: more than the {n} rows the header gives")
    return mat
