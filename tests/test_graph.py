import re
from pathlib import Path

import numpy as np
import pytest

from ane.embedder import TrainConfig, Trainer, load_embeddings
from ane.evaluation import SplitSpec, load_labels
from ane.graph import (
    EdgeListError,
    Graph,
    GraphError,
    InputError,
    load_edge_list,
    parse_edge_lines,
    preprocess,
    row_normalize,
)


def test_path_graph_degrees():
    g = parse_edge_lines(["0 1", "1 2"])
    assert g.num_nodes == 3
    assert g.degrees().tolist() == [1.0, 2.0, 1.0]


def test_symmetric_duplicate_merges_to_single_weight():
    g = parse_edge_lines(["a b 2.0", "b a 2.0"])
    assert g.num_nodes == 2
    assert g.num_edges() == 1
    assert g.weights.tolist() == [2.0, 2.0]


def test_repeated_directed_lines_sum_then_max_symmetrizes():
    # same direction repeats sum: a->b twice gives 3.0; reverse 1.0; max wins
    g = parse_edge_lines(["a b 1.0", "a b 2.0", "b a 1.0"])
    assert g.weights.tolist() == [3.0, 3.0]


def test_comments_and_blank_lines_ignored():
    g = parse_edge_lines(["# header", "", "0 1", "  # another", "1 2"])
    assert g.num_nodes == 3


def test_malformed_line_reports_line_number():
    with pytest.raises(EdgeListError, match=":2:"):
        parse_edge_lines(["0 1", "0 1 2 3"])


def test_negative_weight_rejected():
    with pytest.raises(EdgeListError, match="negative"):
        parse_edge_lines(["0 1 -2.0"])


def test_non_numeric_weight_rejected():
    with pytest.raises(EdgeListError, match="not a number"):
        parse_edge_lines(["0 1 heavy"])


@pytest.mark.parametrize("weight", ["inf", "nan", "1e400"])
def test_non_finite_weight_rejected_naming_the_line(weight):
    with pytest.raises(EdgeListError, match=f"<memory>:2: weight '{weight}' is not finite"):
        parse_edge_lines(["0 1 2.0", f"1 2 {weight}"])


def test_unweighted_flag_forces_unit_weights():
    g = parse_edge_lines(["a b 9.0"], weighted=False)
    assert g.weights.tolist() == [1.0, 1.0]


def test_ids_dense_by_first_appearance():
    g = parse_edge_lines(["x y", "y z"])
    assert g.ids == ["x", "y", "z"]
    assert g.index_of == {"x": 0, "y": 1, "z": 2}


def test_self_loop_only_graph_errors_at_preprocess():
    g = parse_edge_lines(["0 0"])
    with pytest.raises(GraphError, match="no usable nodes"):
        preprocess(g)


def test_preprocess_drops_isolated_and_self_loops():
    # triangle + a node with only a self-loop
    g = parse_edge_lines(["a b", "b c", "c a", "d d"])
    clean = preprocess(g)
    assert clean.num_nodes == 3
    assert clean.ids == ["a", "b", "c"]
    assert all(i not in clean.indices[clean.indptr[i] : clean.indptr[i + 1]] for i in range(3))


def test_preprocess_identity_on_clean_graph():
    g = preprocess(parse_edge_lines(["a b", "b c", "c a"]))
    assert preprocess(g) == g


def test_preprocess_idempotent_random(rng=np.random.default_rng(0)):
    for _ in range(10):
        n = int(rng.integers(3, 9))
        lines = []
        for _ in range(int(rng.integers(2, 15))):
            i, j = rng.integers(n, size=2)
            lines.append(f"{i} {j} {rng.uniform(0.1, 2.0):.3f}")
        try:
            g1 = preprocess(parse_edge_lines(lines))
        except GraphError:
            continue
        assert preprocess(g1) == g1


def test_symmetry_preserved():
    g = parse_edge_lines(["a b 2", "b c 5", "a c 1"])
    for i in range(g.num_nodes):
        for j in g.indices[g.indptr[i] : g.indptr[i + 1]]:
            assert i in g.indices[g.indptr[j] : g.indptr[j + 1]]


def test_csr_invariants():
    # a self-loop, a repeated line, and rows given out of order
    g = parse_edge_lines(["c a 1.5", "a a 2", "b c 0.5", "a b 1", "c a 1", "b b 3"])
    n = g.num_nodes
    assert g.indptr[0] == 0 and g.indptr[-1] == g.indices.size == g.weights.size
    assert (np.diff(g.indptr) >= 0).all()
    dense = np.zeros((n, n))
    for i in range(n):
        row = g.indices[g.indptr[i] : g.indptr[i + 1]]
        assert (np.diff(row) > 0).all()
        dense[i, row] = g.weights[g.indptr[i] : g.indptr[i + 1]]
    np.testing.assert_array_equal(dense, dense.T)
    assert g.indices.size == 2 * 3 + 2  # three edges both ways, two self-loops once
    assert g.num_edges() == 5
    a, c = g.index_of["a"], g.index_of["c"]
    assert dense[a, a] == 2.0 and dense[a, c] == 2.5  # repeated c-a lines summed


def test_degrees_match_per_row_sums():
    lines = (Path(__file__).parent / "data" / "weighted.edges").read_text().splitlines()
    g = preprocess(parse_edge_lines(lines))
    assert np.diff(g.indptr).max() >= 8
    expected = [g.weights[g.indptr[i] : g.indptr[i + 1]].sum() for i in range(g.num_nodes)]
    np.testing.assert_allclose(g.degrees(), expected, rtol=1e-15, atol=0)


def test_degrees_of_isolated_nodes_are_zero():
    # "b" and "d" have no entries, including the last row
    g = Graph(["a", "b", "c", "d"], [0, 2], [2, 2], [1.5, 4.0])
    assert np.diff(g.indptr).tolist() == [1, 0, 2, 0]
    assert g.degrees().tolist() == [1.5, 0.0, 5.5, 0.0]
    empty = Graph(["a", "b"], [], [], [])
    assert empty.degrees().tolist() == [0.0, 0.0]


def test_row_normalize_two_node_edge():
    g = preprocess(parse_edge_lines(["0 1"]))
    assert row_normalize(g).toarray().tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_row_normalize_star_center():
    g = preprocess(parse_edge_lines(["hub a", "hub b", "hub c"]))
    mat = row_normalize(g).toarray()
    np.testing.assert_allclose(mat[0], [0.0, 1 / 3, 1 / 3, 1 / 3])


def test_row_normalize_refuses_an_isolated_node():
    # not preprocessed, so node c keeps its zero degree
    g = Graph(["a", "b", "c"], [0], [1], [1.0])
    with pytest.raises(GraphError, match="node 'c' has zero degree"):
        row_normalize(g)


def test_row_normalize_weighted():
    g = preprocess(parse_edge_lines(["a b 1", "a c 3"]))
    mat = row_normalize(g).toarray()
    np.testing.assert_allclose(sorted(mat[0].tolist()), [0.0, 0.25, 0.75])


def test_row_normalize_rows_sum_to_one_random():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(3, 12))
        lines = [
            f"{i} {j} {rng.uniform(0.1, 3.0):.4f}"
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        try:
            g = preprocess(parse_edge_lines(lines))
        except GraphError:
            continue
        sums = row_normalize(g).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)


def test_graph_rejects_bad_edges():
    with pytest.raises(GraphError, match="out of range"):
        Graph(["a"], [0], [1], [1.0])
    with pytest.raises(GraphError, match="out of range"):
        Graph(["a", "b"], [1], [0], [1.0])
    with pytest.raises(GraphError, match="invalid weight"):
        Graph(["a", "b"], [0], [1], [float("nan")])
    with pytest.raises(GraphError, match="duplicate"):
        Graph(["a", "b"], [0, 0], [1, 1], [1.0, 2.0])


def test_load_edge_list_roundtrip(tmp_path):
    path = tmp_path / "toy.edges"
    path.write_text("# toy\n0 1 2.0\n1 2 1.0\n")
    g = load_edge_list(path)
    assert g.num_nodes == 3
    assert g.num_edges() == 2
    unweighted = load_edge_list(path, weighted=False)
    assert unweighted.weights.tolist() == [1.0, 1.0, 1.0, 1.0]


def test_every_input_refusal_is_an_input_error(tmp_path):
    # the one type the CLI turns into exit 2; still a ValueError to callers
    assert issubclass(InputError, ValueError)
    assert issubclass(EdgeListError, InputError) and issubclass(GraphError, InputError)
    bad = tmp_path / "bad.txt"
    bad.write_text("x\n")
    three = preprocess(parse_edge_lines(["a b", "b c"]))
    for refuse in (
        lambda: TrainConfig(dim=0),
        lambda: Trainer(three, TrainConfig(model="dae"), features=np.ones((2, 3))),
        lambda: SplitSpec(repetitions=0),
        lambda: load_labels(bad, {}),
        lambda: load_embeddings(bad),
    ):
        with pytest.raises(InputError):
            refuse()


@pytest.mark.parametrize(
    "read, text",
    [
        (load_edge_list, b"a b\nb \xff c\n"),
        (lambda path: load_labels(path, {"a": 0, "b": 1}), b"a x\nb \xffy\n"),
        (load_embeddings, b"2 1\na\xff 1\nb 2\n"),
    ],
    ids=["edge-list", "labels", "embeddings"],
)
def test_a_file_that_is_not_utf8_is_an_input_error_naming_file_and_line(tmp_path, read, text):
    path = tmp_path / "bad.txt"
    path.write_bytes(text)
    with pytest.raises(InputError, match=re.escape(f"{path}: line 2: not UTF-8 text: ") + ".*0xff"):
        read(path)
