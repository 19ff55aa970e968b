"""Random-walk corpus generation, context pairs, weighted negative sampling,
and the shuffled minibatch stream of both structure objectives.

Walks follow neighbor weights through one alias table over the graph's CSR
rows, so each step is O(1). Positive target-context pairs are all ordered
pairs of nodes that co-occur in a walk within a window smaller than the
context size. Negative contexts are drawn from a degree^(3/4) noise
distribution, a one-row alias table. Skip-gram pairs and autoencoder nodes
alike are batched by :func:`shuffled_batches`, which cuts a shuffled order
into fixed-size slices and folds any slice that would give a batch-normalized
network only one distinct row into a neighbouring batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class AliasTable:
    """O(1) sampler for each row of a CSR layout of non-negative weights.

    Row ``r`` is ``weights[indptr[r]:indptr[r + 1]]``; without ``indptr`` all
    weights form one row. Vose's method builds every row at once: with ``q =
    w * count / total``, an entry with ``q < 1`` keeps ``q`` and aliases the
    large entry whose excess ``q - 1`` covers the start of its deficit
    ``1 - q``, both laid end to end by cumulative sums; a large entry whose
    excess runs out inside a deficit pays the overflow from its own column
    and aliases the next large entry of its row.
    """

    def __init__(self, weights, indptr=None):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or (w < 0).any() or not np.isfinite(w).all():
            raise ValueError("weights must be a 1-D array of non-negative finite values")
        self.indptr = np.asarray([0, w.size] if indptr is None else indptr, dtype=np.int64)
        self.count = count = np.diff(self.indptr)
        row = np.repeat(np.arange(count.size), count)
        total = np.bincount(row, weights=w, minlength=count.size)
        if not ((count > 0) & (total > 0)).all():
            raise ValueError("every row needs at least one weight and a positive total")

        local = np.arange(w.size) - self.indptr[row]
        q = w * (count / total)[row]
        small, large = np.flatnonzero(q < 1.0), np.flatnonzero(q >= 1.0)
        # the sums run over all rows: a row's deficits and excesses are equal,
        # so rows stay aligned; rounding grows with the entries before a row
        # (probabilities off by up to 1e-11 at 2e4 entries, 2e-8 at 2e6)
        deficit_end = np.cumsum(1.0 - q[small])
        deficit_start = np.concatenate(([0.0], deficit_end))[:-1]
        excess_end = np.cumsum(q[large] - 1.0)
        small_lo = np.searchsorted(row[small], np.arange(count.size + 1))  # first of each row
        large_lo = np.searchsorted(row[large], np.arange(count.size + 1))

        self.prob, self.alias = np.ones(w.size), local.copy()
        # a row that rounding leaves without a large entry keeps prob 1 (Vose's leftover rule)
        r = row[small]
        paired = large_lo[r + 1] > large_lo[r]
        g = np.searchsorted(excess_end, deficit_start[paired], side="right")
        g = np.clip(g, large_lo[r[paired]], large_lo[r[paired] + 1] - 1)
        self.prob[small[paired]] = q[small[paired]]
        self.alias[small[paired]] = local[large[g]]
        if small.size:
            r = row[large]
            s = np.searchsorted(deficit_end, excess_end, side="right")
            nxt = np.arange(1, large.size + 1)
            spill = (s >= small_lo[r]) & (s < small_lo[r + 1]) & (nxt < large_lo[r + 1])
            s = np.minimum(s, small.size - 1)
            spill &= deficit_start[s] < excess_end
            self.prob[large[spill]] = 1.0 - (deficit_end[s] - excess_end)[spill]
            self.alias[large[spill]] = local[large[nxt[spill]]]

    def sample(self, rng, rows):
        """An index within row ``rows[i]`` for every entry of ``rows``; draws a
        column and a keep-or-alias float, each a uniform block of ``rows.shape``."""
        k = (rng.random(rows.shape) * self.count[rows]).astype(np.int64)
        pos = self.indptr[rows] + k
        return np.where(rng.random(rows.shape) < self.prob[pos], k, self.alias[pos])

    def outcome_probabilities(self):
        """Exact distribution implied by the table, row by row (for verification)."""
        start = np.repeat(self.indptr[:-1], self.count)
        p = self.prob + np.bincount(start + self.alias, 1.0 - self.prob, self.prob.size)
        return p / np.repeat(self.count, self.count)


@dataclass(frozen=True)
class PairBatch:
    """Minibatch of positive pairs with per-pair negative context draws."""

    targets: np.ndarray
    contexts: np.ndarray
    negatives: np.ndarray  # shape (len(targets), K)

    def __len__(self):
        return self.targets.shape[0]


def random_walks(graph, walks_per_node, walk_length, rng):
    """Sample the walk corpus: ``walks_per_node`` rounds, each round starting
    one walk from every node in shuffled order.

    Returns an int32 array of shape (N * walks_per_node, walk_length).
    """
    table = AliasTable(graph.weights, graph.indptr)
    n = graph.num_nodes
    corpus = np.empty((n * walks_per_node, walk_length), dtype=np.int32)
    for r in range(walks_per_node):
        current = rng.permutation(n)
        block = corpus[r * n : (r + 1) * n]
        block[:, 0] = current
        for step in range(1, walk_length):
            current = graph.indices[graph.indptr[current] + table.sample(rng, current)]
            block[:, step] = current
    return corpus


def positive_pairs(corpus, context_size):
    """All ordered target-context pairs within the window, self-pairs excluded.

    Positions i, j in the same walk form a pair when ``0 < |i - j| < s``; both
    orientations are emitted, offset by offset. Returns (targets, contexts)
    int32 arrays, each written in place with no int64 copy of the pairs.
    """
    if corpus.size == 0:
        raise ValueError("empty walk corpus")
    offsets = range(1, context_size)
    size = 2 * sum(corpus[:, off:].size for off in offsets)
    targets = np.empty(size, dtype=np.int32)
    contexts = np.empty(size, dtype=np.int32)
    pos = 0
    for off in offsets:
        left, right = corpus[:, :-off], corpus[:, off:]
        for tgt, ctx in ((left, right), (right, left)):
            stop = pos + tgt.size
            targets[pos:stop].reshape(tgt.shape)[...] = tgt
            contexts[pos:stop].reshape(ctx.shape)[...] = ctx
            pos = stop
    return targets, contexts


def negative_sampler(graph):
    """Noise distribution over nodes with weight degree^(3/4).

    Degree is the weighted degree, so on unweighted graphs it equals the
    neighbor count.
    """
    return AliasTable(graph.degrees() ** 0.75)


def shuffled_batches(num_items, batch_size, rng, one_row):
    """One epoch of shuffled minibatches of ``range(num_items)``, as index arrays.

    The order is ``rng.permutation(num_items)``, drawn as an int32 shuffle
    (int64 above 2**31 - 1) in half the bytes of its int64 arange, cut into
    ``batch_size`` slices. Batch norm needs at least two distinct rows, so a
    slice for which ``one_row(slice)`` holds is folded into the batch before
    it; if the first batch is such a slice, it takes in the one after it.
    Every item is in exactly one batch.
    """
    dtype = np.int32 if num_items <= np.iinfo(np.int32).max else np.int64
    order = np.arange(num_items, dtype=dtype)
    rng.shuffle(order)
    held = None  # the next batch out, held while the one after it is checked
    for start in range(0, num_items, batch_size):
        sel = order[start : start + batch_size]
        if held is None:
            held = sel
        elif one_row(held) or one_row(sel):
            held = np.concatenate([held, sel])
        else:
            yield held
            held = sel
    if held is not None:
        yield held
