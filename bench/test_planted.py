"""Checks on the benchmark's planted-partition generator."""

from collections import Counter

import planted
from ane.graph import load_edge_list, preprocess


def test_same_seed_same_bytes(tmp_path):
    first = planted.write_planted(tmp_path / "a", seed=3)
    second = planted.write_planted(tmp_path / "b", seed=3)
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()
    other = planted.write_planted(tmp_path / "c", seed=4)
    assert other[0].read_bytes() != first[0].read_bytes()


def test_size_blocks_and_no_isolated_node(tmp_path):
    edge_path, label_path = planted.write_planted(tmp_path, seed=0)
    raw = load_edge_list(edge_path, weighted=False)
    graph = preprocess(raw)
    assert raw.num_nodes == graph.num_nodes == 2708
    assert graph.num_edges() == 5278
    assert graph == raw  # preprocess dropped no node, edge or self-loop

    blocks = dict(line.split() for line in label_path.read_text().splitlines()[1:])
    assert sorted(Counter(blocks.values()).values(), reverse=True) == list(planted.BLOCK_SIZES)
    assert set(blocks) == set(graph.ids)

    edges, block = planted.planted_edges(0)
    intra = (block[edges[:, 0]] == block[edges[:, 1]]).mean()
    assert abs(intra - planted.INTRA_FRACTION) < 0.001
