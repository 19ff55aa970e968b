"""Seeded planted-partition graph of Cora's size, written as ``ane`` input files.

The graph stands in for the Cora citation graph, which cannot be fetched
offline: 2 708 nodes, 5 278 undirected edges and 7 blocks sized like Cora's
classes. About 80 % of edges join two nodes of the same block. A random
recursive tree inside each block gives every node at least one edge, so
``preprocess`` drops nothing; the remaining edges are drawn uniformly inside
or across blocks without repeats.

Run ``python3 bench/planted.py OUT_DIR --seed N`` to write
``planted.edges`` and ``planted.labels`` into ``OUT_DIR``.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

BLOCK_SIZES = (818, 426, 418, 351, 298, 217, 180)
NUM_NODES = sum(BLOCK_SIZES)
NUM_EDGES = 5_278
INTRA_FRACTION = 0.8


def planted_edges(seed):
    """Return ``(edges, block)``: an (E, 2) int array with ``u < v`` per row,
    and the block index of every node. The same seed gives the same graph."""
    rng = np.random.default_rng(seed)
    block = rng.permutation(np.repeat(np.arange(len(BLOCK_SIZES)), BLOCK_SIZES))
    members = [np.flatnonzero(block == b) for b in range(len(BLOCK_SIZES))]

    edges = set()

    def add(u, v):
        key = (u, v) if u < v else (v, u)
        if u == v or key in edges:
            return False
        edges.add(key)
        return True

    # one tree per block: every node gets an edge, and every edge is intra-block
    for nodes in members:
        order = rng.permutation(nodes)
        for k in range(1, order.size):
            add(int(order[k]), int(order[rng.integers(k)]))

    n_intra = round(INTRA_FRACTION * NUM_EDGES)
    weights = np.array(BLOCK_SIZES, dtype=np.float64) ** 2
    weights /= weights.sum()
    while len(edges) < n_intra:
        nodes = members[rng.choice(len(members), p=weights)]
        add(int(nodes[rng.integers(nodes.size)]), int(nodes[rng.integers(nodes.size)]))
    while len(edges) < NUM_EDGES:
        u, v = (int(x) for x in rng.integers(NUM_NODES, size=2))
        if block[u] != block[v]:
            add(u, v)

    return np.array(sorted(edges), dtype=np.int64), block


def write_planted(out_dir, seed):
    """Write ``planted.edges`` and ``planted.labels``; return both paths."""
    edges, block = planted_edges(seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    edge_path = out_dir / "planted.edges"
    label_path = out_dir / "planted.labels"
    edge_path.write_text(
        f"# planted partition, seed {seed}, {NUM_NODES} nodes, {len(edges)} edges\n"
        + "".join(f"{u} {v}\n" for u, v in edges)
    )
    label_path.write_text(
        "# node_id block\n" + "".join(f"{i} block{b}\n" for i, b in enumerate(block))
    )
    return edge_path, label_path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for path in write_planted(args.out_dir, args.seed):
        print(path)


if __name__ == "__main__":
    main()
