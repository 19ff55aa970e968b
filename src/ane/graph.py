"""Weighted undirected graphs: edge-list loading, cleanup, transition matrix.

Edge-list files are UTF-8 text with one edge per line, whitespace separated,
either ``src dst`` or ``src dst weight``. Lines starting with ``#`` are
ignored. Node ids may be arbitrary strings; they are mapped to dense indices
``0..N-1`` in order of first appearance so runs are reproducible.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


class InputError(ValueError):
    """A file, setting or memory need refused before work starts (CLI exit 2)."""


class EdgeListError(InputError):
    """Malformed or invalid edge-list input."""


class GraphError(InputError):
    """Structurally unusable graph (e.g. empty after preprocessing)."""


class Graph:
    """Immutable undirected weighted graph with dense node indices, stored as
    a symmetric CSR adjacency matrix.

    Attributes
    ----------
    num_nodes : int
    ids : list of str
        External id of each dense index.
    index_of : dict
        External id -> dense index.
    indptr : int64 array, shape (N + 1,)
        Row ``i`` of the adjacency is ``indices[indptr[i]:indptr[i + 1]]``.
    indices : int64 array
        Neighbor indices, sorted ascending within each row. Every edge
        ``(i, j)`` with ``i != j`` is stored in both rows; a self-loop once.
    weights : float64 array
        Edge weight of each entry of ``indices``.
    """

    def __init__(self, ids, src, dst, weights):
        """Build from external ids and undirected edges ``src[k] -- dst[k]``
        of weight ``weights[k]``.

        Each edge is given once, with ``src[k] <= dst[k]``; ``src[k] ==
        dst[k]`` is a self-loop. Weights must be non-negative and finite.
        """
        n = len(ids)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        bad = np.flatnonzero((src < 0) | (src > dst) | (dst >= n))
        if bad.size:
            k = bad[0]
            raise GraphError(f"edge ({src[k]},{dst[k]}) out of range for N={n}")
        bad = np.flatnonzero(~np.isfinite(weights) | (weights < 0))
        if bad.size:
            k = bad[0]
            raise GraphError(f"edge ({src[k]},{dst[k]}) has invalid weight {weights[k]!r}")

        off = src != dst
        rows = np.concatenate([src, dst[off]])
        cols = np.concatenate([dst, src[off]])
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        if ((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])).any():
            raise GraphError("duplicate edge")

        self.num_nodes = n
        self.ids = list(ids)
        self.index_of = {v: k for k, v in enumerate(self.ids)}
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
        self.indices = cols
        self.weights = np.concatenate([weights, weights[off]])[order]

    def entry_rows(self):
        """Row index of every stored entry, aligned with ``indices``."""
        return np.repeat(np.arange(self.num_nodes), np.diff(self.indptr))

    def degrees(self):
        """Weighted degree of every node (sum of incident edge weights).

        One segmented sum: each row's weights are added in entry order, and
        a node with no entries gets 0.
        """
        return np.bincount(self.entry_rows(), weights=self.weights, minlength=self.num_nodes)

    def num_edges(self):
        """Number of undirected edges (self-loops count once)."""
        loops = int((self.entry_rows() == self.indices).sum())
        return (self.indices.size + loops) // 2

    def has_edge(self, i, j):
        row = self.indices[self.indptr[i] : self.indptr[i + 1]]
        pos = np.searchsorted(row, j)
        return pos < row.size and row[pos] == j

    def __len__(self):
        return self.num_nodes

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and self.ids == other.ids
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self):
        return f"Graph(N={self.num_nodes}, E={self.num_edges()})"


def parse_edge_lines(lines, weighted=True, source="<memory>"):
    """Parse edge-list lines into a Graph.

    Repeated directed lines ``(i, j)`` have their weights summed, then the
    undirected weight is ``max(w_ij, w_ji)`` so symmetric duplicates in a
    file do not double the weight. ``weighted=False`` forces every weight
    to 1.0 regardless of file content.
    """
    ids = []
    index_of = {}
    src, dst, wts = [], [], []

    def dense(token):
        if token not in index_of:
            index_of[token] = len(ids)
            ids.append(token)
        return index_of[token]

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise EdgeListError(
                f"{source}:{lineno}: expected 'src dst' or 'src dst weight', got {line!r}"
            )
        if weighted and len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise EdgeListError(
                    f"{source}:{lineno}: weight {parts[2]!r} is not a number"
                ) from None
            if not np.isfinite(w):
                raise EdgeListError(f"{source}:{lineno}: weight {parts[2]!r} is not finite")
            if w < 0:
                raise EdgeListError(f"{source}:{lineno}: negative weight {w}")
        else:
            w = 1.0
        src.append(dense(parts[0]))
        dst.append(dense(parts[1]))
        wts.append(w)

    n = len(ids)
    src = np.array(src, dtype=np.int64)
    dst = np.array(dst, dtype=np.int64)
    # bincount adds in input order, as summing line by line would
    directed, pos = np.unique(src * n + dst, return_inverse=True)
    summed = np.bincount(pos, weights=np.array(wts, dtype=np.float64))
    i, j = np.divmod(directed, n)
    undirected, pos = np.unique(np.minimum(i, j) * n + np.maximum(i, j), return_inverse=True)
    merged = np.zeros(undirected.size)
    np.maximum.at(merged, pos, summed)
    i, j = np.divmod(undirected, n)
    return Graph(ids, i, j, merged)


def load_edge_list(path, weighted=True):
    """Load an edge-list file into a Graph. See module docstring for format."""
    with open(path, encoding="utf-8") as fh:
        return parse_edge_lines(fh, weighted=weighted, source=str(path))


def preprocess(g):
    """Drop self-loops, zero-weight edges and zero-degree nodes; re-densify.

    External ids are preserved so labels stay alignable. Idempotent: applying
    it to an already-clean graph returns an equal graph.
    """
    rows = g.entry_rows()
    upper = (rows < g.indices) & (g.weights > 0)
    src, dst = rows[upper], g.indices[upper]
    keep = np.unique(np.concatenate([src, dst]))
    if not keep.size:
        raise GraphError("graph has no usable nodes after preprocessing")
    new_ids = [g.ids[old] for old in keep]
    return Graph(
        new_ids, np.searchsorted(keep, src), np.searchsorted(keep, dst), g.weights[upper]
    )


def row_normalize(g):
    """Row-stochastic transition matrix as a scipy CSR array with the graph's
    sparsity: entry (i, j) is w_ij / deg(i).

    Requires every node to have positive degree (run :func:`preprocess` first).
    """
    n = g.num_nodes
    deg = g.degrees()
    bad = np.flatnonzero(deg <= 0)
    if bad.size:
        raise GraphError(f"node {g.ids[bad[0]]!r} has zero degree; cannot normalize")
    return sparse.csr_array((g.weights / deg[g.entry_rows()], g.indices, g.indptr), shape=(n, n))
