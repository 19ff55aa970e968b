"""Random-walk corpus generation, context pairs, and weighted negative sampling.

Walks follow neighbor weights through per-node alias tables, so each step is
O(1). Positive target-context pairs are all ordered pairs of nodes that
co-occur in a walk within a window smaller than the context size. Negative
contexts are drawn from a degree^(3/4) noise distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class AliasTable:
    """O(1) sampler for a discrete distribution proportional to ``weights``.

    Built with Vose's method: O(n) construction into a probability table and
    an alias table. ``outcome_probabilities`` reconstructs the exact sampling
    distribution for verification.
    """

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        if (w < 0).any() or not np.isfinite(w).all():
            raise ValueError("weights must be non-negative and finite")
        total = w.sum()
        if total <= 0:
            raise ValueError("at least one weight must be positive")

        n = w.size
        scaled = w * (n / total)
        prob = np.ones(n, dtype=np.float64)
        alias = np.arange(n, dtype=np.int64)
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        while small and large:
            s = small.pop()
            g = large.pop()
            prob[s] = scaled[s]
            alias[s] = g
            scaled[g] = (scaled[g] + scaled[s]) - 1.0
            if scaled[g] < 1.0:
                small.append(g)
            else:
                large.append(g)
        for i in large:
            prob[i] = 1.0
        for i in small:  # only reachable through rounding; probability ~1
            prob[i] = 1.0

        self.size = n
        self.prob = prob
        self.alias = alias

    def sample_many(self, rng, shape):
        """Vectorized draws; consumes one uniform-int and one uniform-float block."""
        k = rng.integers(self.size, size=shape)
        u = rng.random(size=shape)
        return np.where(u < self.prob[k], k, self.alias[k])

    def outcome_probabilities(self):
        """Exact distribution implied by the table (for verification)."""
        p = self.prob.copy()
        np.add.at(p, self.alias, 1.0 - self.prob)
        return p / self.size


@dataclass(frozen=True)
class PairBatch:
    """Minibatch of positive pairs with per-pair negative context draws."""

    targets: np.ndarray
    contexts: np.ndarray
    negatives: np.ndarray  # shape (len(targets), K)

    def __len__(self):
        return self.targets.shape[0]


class _NeighborSampler:
    """One alias table per CSR row, laid out like ``graph.indices`` so a whole
    walk front steps at once."""

    def __init__(self, graph):
        self.counts = np.diff(graph.indptr)
        if (self.counts == 0).any():
            raise ValueError("graph has isolated nodes; preprocess it first")
        self.offsets = graph.indptr[:-1]
        self.flat_nbr = graph.indices
        tables = [
            AliasTable(graph.weights[start:stop])
            for start, stop in zip(graph.indptr[:-1], graph.indptr[1:])
        ]
        self.flat_prob = np.concatenate([t.prob for t in tables])
        self.flat_alias = np.concatenate([t.alias for t in tables])

    def step(self, current, rng):
        deg = self.counts[current]
        k = (rng.random(current.shape) * deg).astype(np.int64)
        pos = self.offsets[current] + k
        choice = np.where(rng.random(current.shape) < self.flat_prob[pos], k, self.flat_alias[pos])
        return self.flat_nbr[self.offsets[current] + choice]


def random_walks(graph, walks_per_node, walk_length, rng):
    """Sample the walk corpus: ``walks_per_node`` rounds, each round starting
    one walk from every node in shuffled order.

    Returns an int64 array of shape (N * walks_per_node, walk_length).
    """
    sampler = _NeighborSampler(graph)
    n = graph.num_nodes
    corpus = np.empty((n * walks_per_node, walk_length), dtype=np.int64)
    for r in range(walks_per_node):
        current = rng.permutation(n)
        block = corpus[r * n : (r + 1) * n]
        block[:, 0] = current
        for step in range(1, walk_length):
            current = sampler.step(current, rng)
            block[:, step] = current
    return corpus


def positive_pairs(corpus, context_size):
    """All ordered target-context pairs within the window, self-pairs excluded.

    Positions i, j in the same walk form a pair when ``0 < |i - j| < s``; both
    orientations are emitted. Returns (targets, contexts) int32 arrays.
    """
    if corpus.size == 0:
        raise ValueError("empty walk corpus")
    targets = []
    contexts = []
    for off in range(1, context_size):
        left = corpus[:, :-off].ravel()
        right = corpus[:, off:].ravel()
        targets.append(left)
        contexts.append(right)
        targets.append(right)
        contexts.append(left)
    if not targets:
        empty = np.empty(0, dtype=np.int32)
        return empty, empty.copy()
    return (
        np.concatenate(targets).astype(np.int32),
        np.concatenate(contexts).astype(np.int32),
    )


def negative_sampler(graph):
    """Noise distribution over nodes with weight degree^(3/4).

    Degree is the weighted degree, so on unweighted graphs it equals the
    neighbor count.
    """
    return AliasTable(graph.degrees() ** 0.75)


def batch_bounds(num_items, batch_size):
    """``(start, stop)`` of each minibatch over ``num_items`` items in order.

    Batch norm needs at least two rows, so a trailing batch of one item is
    folded into the batch before it.
    """
    starts = list(range(0, num_items, batch_size))
    if len(starts) > 1 and num_items - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [num_items]))


def iter_batches(targets, contexts, neg_table, num_negatives, batch_size, rng):
    """One epoch of minibatches: pairs globally shuffled, each pair carrying
    ``num_negatives`` independent noise draws."""
    if num_negatives < 1:
        raise ValueError(f"num_negatives must be >= 1, got {num_negatives}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = rng.permutation(targets.shape[0])
    for start, stop in batch_bounds(order.size, batch_size):
        sel = order[start:stop]
        negs = neg_table.sample_many(rng, (sel.size, num_negatives))
        yield PairBatch(targets[sel], contexts[sel], negs.astype(np.int64))
