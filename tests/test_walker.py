import numpy as np
import pytest
from scipy import sparse

from ane.embedder import Dae, SkipGram, TrainConfig
from ane.graph import parse_edge_lines, preprocess
from ane.walker import (
    AliasTable,
    PairBatch,
    negative_sampler,
    pair_count,
    positive_pairs,
    random_walks,
    shuffled_batches,
)
from oracles import outcome_probabilities, ring_graph


def brute_force_pairs(walk, s):
    out = []
    for i in range(len(walk)):
        for j in range(len(walk)):
            if i != j and abs(i - j) < s:
                out.append((walk[i], walk[j]))
    return sorted(out)


# alias table


def test_uniform_weights_quarter_probabilities():
    table = AliasTable([1, 1, 1, 1])
    np.testing.assert_allclose(outcome_probabilities(table), 0.25)


def test_three_to_one_probabilities():
    table = AliasTable([3, 1])
    np.testing.assert_allclose(outcome_probabilities(table), [0.75, 0.25], atol=1e-12)


def test_zero_weight_outcome_never_drawn():
    table = AliasTable([0, 5])
    np.testing.assert_array_equal(outcome_probabilities(table), [0.0, 1.0])
    draws = table.sample(np.random.default_rng(0), np.zeros(1000, dtype=np.int64))
    assert (draws == 1).all()


def test_all_zero_weights_rejected():
    with pytest.raises(ValueError, match="positive"):
        AliasTable([0.0, 0.0])
    with pytest.raises(ValueError):
        AliasTable([])
    with pytest.raises(ValueError):
        AliasTable([1.0, -1.0])
    with pytest.raises(ValueError, match="positive"):
        AliasTable([1.0, 0.0], [0, 1, 2])
    with pytest.raises(ValueError, match="at least one weight"):
        AliasTable([1.0, 2.0], [0, 0, 2])


def test_reconstruction_exact_random_weights():
    rng = np.random.default_rng(7)
    for _ in range(25):
        w = rng.random(int(rng.integers(1, 40))) * rng.integers(1, 100)
        w[rng.random(w.size) < 0.2] = 0.0
        if w.sum() == 0:
            w[0] = 1.0
        table = AliasTable(w)
        np.testing.assert_allclose(
            outcome_probabilities(table), w / w.sum(), atol=1e-12
        )


def test_three_to_one_empirical_within_three_sigma():
    rng = np.random.default_rng(11)
    draws = AliasTable([3, 1]).sample(rng, np.zeros(10**6, dtype=np.int64))
    ones = (draws == 1).sum()
    sigma = np.sqrt(10**6 * 0.25 * 0.75)
    assert abs(ones - 250_000) < 3 * sigma


def test_scalar_sample_matches_support():
    rng = np.random.default_rng(3)
    table = AliasTable([2.0, 0.0, 1.0])
    draws = {int(table.sample(rng, np.zeros(1, dtype=np.int64))[0]) for _ in range(500)}
    assert draws == {0, 2}


def test_multi_row_tables_exact_random_csr():
    # weights over six orders of magnitude with 20 % zeros; one layout in
    # three has equal weights, whose q can all round below 1 in a row, and
    # one in three small integers, whose deficits and excesses often end at
    # the same point
    rng = np.random.default_rng(13)
    for layout in range(60):
        counts = rng.integers(1, 30, size=int(rng.integers(1, 25)))
        indptr = np.concatenate(([0], np.cumsum(counts)))
        row = np.repeat(np.arange(counts.size), counts)
        if layout % 3 == 0:
            w = np.full(indptr[-1], 0.1)
        elif layout % 3 == 1:
            w = rng.integers(0, 4, size=indptr[-1]).astype(float)
            w[indptr[:-1]] += 1.0
        else:
            w = 10.0 ** rng.uniform(-3, 3, size=indptr[-1])
            w[rng.random(w.size) < 0.2] = 0.0
            w[indptr[:-1]] += 1.0  # every row keeps a positive total
        table = AliasTable(w, indptr)
        want = w / np.add.reduceat(w, indptr[:-1])[row]
        np.testing.assert_allclose(outcome_probabilities(table), want, rtol=0, atol=1e-12)
        assert ((table.alias >= 0) & (table.alias < counts[row])).all()
        zero = w == 0
        assert (table.prob[zero] == 0).all()
        assert not zero[indptr[:-1][row] + table.alias][table.prob < 1].any()
        draws = table.sample(rng, np.repeat(np.arange(counts.size), 200))
        assert not zero[np.repeat(indptr[:-1], 200) + draws].any()


def test_unit_weight_rows_never_alias():
    # unit weights give q = 1 exactly, so a walk step keeps its first draw
    g = preprocess(parse_edge_lines(["a b", "a c", "a d", "b c", "d e"]))
    assert (AliasTable(g.weights, g.indptr).prob == 1).all()


# walk corpus


def test_two_cycle_walks_alternate():
    g = preprocess(parse_edge_lines(["a b"]))
    corpus = random_walks(g, 3, 4, np.random.default_rng(0))
    assert corpus.shape == (6, 4)
    for walk in corpus:
        assert walk[0] != walk[1]
        np.testing.assert_array_equal(walk[:2], walk[2:])


def test_star_graph_leaf_walks_visit_hub_on_odd_positions():
    g = preprocess(parse_edge_lines(["hub a", "hub b", "hub c"]))
    hub = g.index_of["hub"]
    corpus = random_walks(g, 2, 6, np.random.default_rng(0))
    for walk in corpus:
        if walk[0] != hub:
            assert (walk[1::2] == hub).all()


def test_every_node_starts_once_per_round():
    g = ring_graph(7)
    corpus = random_walks(g, 4, 5, np.random.default_rng(5))
    assert corpus.shape == (28, 5)
    for r in range(4):
        starts = np.sort(corpus[r * 7 : (r + 1) * 7, 0])
        np.testing.assert_array_equal(starts, np.arange(7))


def test_walk_steps_follow_edges():
    g = preprocess(parse_edge_lines(["a b", "b c", "c d", "d a", "a c"]))
    corpus = random_walks(g, 3, 10, np.random.default_rng(0))
    for walk in corpus:
        for u, v in zip(walk[:-1], walk[1:]):
            assert v in g.indices[g.indptr[u] : g.indptr[u + 1]]


def test_weighted_next_hop_frequency():
    # triangle with A-B weight 9 and A-C weight 1: from A, ~90% go to B;
    # about 1e5 walk steps in total, roughly half of which leave A
    g = preprocess(parse_edge_lines(["A B 9", "A C 1", "B C 1"]))
    a, b = g.index_of["A"], g.index_of["B"]
    corpus = random_walks(g, 334, 100, np.random.default_rng(2))
    assert corpus.size > 100_000
    from_a = corpus[:, :-1].ravel() == a
    nxt = corpus[:, 1:].ravel()[from_a]
    n = nxt.size
    assert n > 30_000
    freq_b = (nxt == b).sum()
    sigma = np.sqrt(n * 0.9 * 0.1)
    assert abs(freq_b - 0.9 * n) < 3 * sigma


def test_walks_deterministic_by_seed():
    g = ring_graph(9)
    np.testing.assert_array_equal(
        random_walks(g, 2, 12, np.random.default_rng(42)),
        random_walks(g, 2, 12, np.random.default_rng(42)),
    )


def test_walk_config_validation():
    # the walk bounds live in TrainConfig and apply to the walk models
    for model in ("idw", "aidw"):
        with pytest.raises(ValueError, match="walks_per_node"):
            TrainConfig(model=model, walks_per_node=0)
        with pytest.raises(ValueError, match="walk_length"):
            TrainConfig(model=model, walk_length=1)
        with pytest.raises(ValueError, match="context_size"):
            TrainConfig(model=model, context_size=10, walk_length=10)
        with pytest.raises(ValueError, match="context_size"):
            TrainConfig(model=model, context_size=0)


# positive pairs


def test_window_pairs_three_walk():
    corpus = np.array([[0, 1, 2]])
    t, c = positive_pairs(corpus, context_size=2)
    assert sorted(zip(t.tolist(), c.tolist())) == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_window_one_gives_no_pairs():
    for s in (0, 1):
        t, c = positive_pairs(np.array([[0, 1, 2, 3]]), context_size=s)
        assert t.size == 0 and c.size == 0


def test_window_pairs_match_enumeration_oracle():
    corpus = np.array([[4, 7, 1, 3]])
    t, c = positive_pairs(corpus, context_size=3)
    got = sorted(zip(t.tolist(), c.tolist()))
    assert len(got) == 10
    assert got == brute_force_pairs([4, 7, 1, 3], 3)


def test_window_pairs_oracle_random_corpus():
    rng = np.random.default_rng(8)
    corpus = rng.integers(0, 6, size=(5, 9))
    # a window of 12 is wider than the 9-node walks: it holds every pair of them
    for s in (2, 4, 8, 12):
        t, c = positive_pairs(corpus, context_size=s)
        got = sorted(zip(t.tolist(), c.tolist()))
        want = sorted(p for walk in corpus for p in brute_force_pairs(walk.tolist(), s))
        assert got == want
        assert t.size == pair_count(5, 9, s)


def test_pair_symmetry():
    rng = np.random.default_rng(9)
    corpus = rng.integers(0, 5, size=(3, 7))
    t, c = positive_pairs(corpus, context_size=4)
    forward = sorted(zip(t.tolist(), c.tolist()))
    backward = sorted(zip(c.tolist(), t.tolist()))
    assert forward == backward


def test_pairs_in_offset_order_as_int32():
    # offset by offset: every left -> right pair, then every right -> left
    rng = np.random.default_rng(10)
    corpus = rng.integers(0, 50, size=(6, 9))
    t, c = positive_pairs(corpus, context_size=5)
    want_t, want_c = [], []
    for off in range(1, 5):
        left, right = corpus[:, :-off].ravel(), corpus[:, off:].ravel()
        want_t += [left, right]
        want_c += [right, left]
    assert t.dtype == np.int32 and c.dtype == np.int32
    np.testing.assert_array_equal(t, np.concatenate(want_t))
    np.testing.assert_array_equal(c, np.concatenate(want_c))


def test_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty"):
        positive_pairs(np.empty((0, 5), dtype=np.int64), 3)


# negative sampler


def test_negative_sampler_exact_powers():
    # degrees [1, 16]: 16^(3/4) = 8, so probabilities [1/9, 8/9]
    g = parse_edge_lines([f"b x{i}" for i in range(16)] + ["a x0"])
    degs = g.degrees()
    table = negative_sampler(g)
    probs = outcome_probabilities(table)
    a, b = g.index_of["a"], g.index_of["b"]
    assert degs[a] == 1.0 and degs[b] == 16.0
    assert probs[b] / probs[a] == pytest.approx(8.0, abs=1e-12)


def test_negative_sampler_uniform_on_regular_graph():
    table = negative_sampler(ring_graph(8))
    np.testing.assert_allclose(outcome_probabilities(table), 1 / 8, atol=1e-12)


def test_negative_sampler_empirical_frequency():
    g = preprocess(parse_edge_lines(["a b", "a c", "b c", "c d", "c e", "c f"]))
    table = negative_sampler(g)
    want = outcome_probabilities(table)
    draws = table.sample(np.random.default_rng(1), np.zeros(10**6, dtype=np.int64))
    counts = np.bincount(draws, minlength=g.num_nodes)
    sigma = np.sqrt(10**6 * want * (1 - want))
    assert (np.abs(counts - 10**6 * want) < 3 * sigma + 1).all()


# batches


def skipgram(targets, contexts, table, negatives, batch_size):
    """A small skip-gram objective whose pairs and noise table are the given ones."""
    config = TrainConfig(
        model="idw", dim=2, negatives=negatives, batch_size=batch_size,
        walks_per_node=1, walk_length=3, context_size=2,
    )
    rng = np.random.default_rng(0)
    features = sparse.identity(3, dtype=np.float32, format="csr")
    objective = SkipGram(ring_graph(3), config, features, rng, rng)
    objective.pair_targets, objective.pair_contexts, objective.neg_table = targets, contexts, table
    return objective


def test_batch_sizes_partial_tail():
    rng = np.random.default_rng(0)
    sizes = [b.size for b in shuffled_batches(7, 3, rng, lambda sel: sel.size < 2)]
    assert sizes == [3, 4]  # a 1-item tail is folded into the batch before it
    sizes = [b.size for b in shuffled_batches(5, 3, rng, lambda sel: sel.size < 2)]
    assert sizes == [3, 2]


def test_one_row_slices_fold_into_the_batch_before_and_the_first_takes_the_next():
    # items name rows; the first and the third slice of three each hold one row
    order = np.random.default_rng(3).permutation(12)
    rows = np.empty(12, dtype=np.int64)
    rows[order] = [0, 0, 0, 1, 2, 3, 4, 4, 4, 5, 6, 7]

    def one_row(sel):
        return np.unique(rows[sel]).size < 2

    batches = list(shuffled_batches(12, 3, np.random.default_rng(3), one_row))
    assert [b.tolist() for b in batches] == [order[:9].tolist(), order[9:].tolist()]


def test_batches_have_k_negatives_and_cover_all_pairs():
    targets = np.arange(10, dtype=np.int32)
    contexts = (np.arange(10, dtype=np.int32) + 1) % 10
    objective = skipgram(targets, contexts, AliasTable([1, 2, 3]), 5, 4)
    seen = []
    for batch in objective.batches(np.random.default_rng(4)):
        assert isinstance(batch, PairBatch)
        assert batch.negatives.shape == (batch.targets.size, 5)
        assert (batch.negatives < 3).all()
        seen.extend(batch.targets.tolist())
    assert sorted(seen) == list(range(10))


def test_batches_deterministic_by_seed():
    targets = np.arange(20, dtype=np.int32)
    contexts = targets[::-1].copy()
    objective = skipgram(targets, contexts, AliasTable([1, 1, 1, 1]), 3, 6)

    def collect(seed):
        return [
            (b.targets.tolist(), b.contexts.tolist(), b.negatives.tolist())
            for b in objective.batches(np.random.default_rng(seed))
        ]

    assert collect(5) == collect(5)
    assert collect(5) != collect(6)


@pytest.mark.parametrize("n", [10, 4_099, 65_536])
def test_batch_order_is_rng_permutation_of_the_same_seed(n):
    rng = np.random.default_rng(7)
    batches = list(shuffled_batches(n, 1_000, rng, lambda sel: False))
    assert {b.dtype for b in batches} == {np.dtype(np.int32)}
    want = np.random.default_rng(7)
    np.testing.assert_array_equal(np.concatenate(batches), want.permutation(n))
    # the stream is left where rng.permutation leaves it, so later draws are unchanged
    assert rng.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("shared", ["targets", "contexts"])
def test_batches_sharing_one_node_are_folded(shared):
    # 25 of 30 pairs share node 0 on one side; the other side names the pair
    many = np.array([0] * 25 + [1, 2, 3, 4, 5], dtype=np.int32)
    ids = np.arange(30, dtype=np.int32)
    targets, contexts = (many, ids) if shared == "targets" else (ids, many)
    objective = skipgram(targets, contexts, AliasTable([1, 1, 1]), 2, 3)
    folded = 0
    for seed in range(20):
        batches = list(objective.batches(np.random.default_rng(seed)))
        for b in batches:
            assert np.unique(b.targets).size >= 2 and np.unique(b.contexts).size >= 2
            assert b.negatives.shape == (b.targets.size, 2)
        named = np.concatenate([b.contexts if shared == "targets" else b.targets for b in batches])
        np.testing.assert_array_equal(np.sort(named), ids)  # every pair once
        folded += len(batches) < 10
    assert folded > 0


@pytest.mark.parametrize("n", [6, 7])
def test_dae_batches_are_the_permutation_with_a_one_node_tail_folded(n):
    config = TrainConfig(model="dae", dim=2, batch_size=3)
    features = sparse.identity(n, dtype=np.float32, format="csr")
    rng = np.random.default_rng(0)
    dae = Dae(ring_graph(n), config, features, rng, rng)
    order = np.random.default_rng(5).permutation(n)
    want = [order[:3], order[3:]]  # 7 nodes: the seventh joins the second batch
    got = list(dae.batches(np.random.default_rng(5)))
    assert [b.tolist() for b in got] == [w.tolist() for w in want]
