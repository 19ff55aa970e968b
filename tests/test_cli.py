import json
import math
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from ane import cli, embedder, evaluation, nn, proximity
from ane.cli import main
from ane.datasets import dataset_paths
from ane.evaluation import SplitSpec, evaluate, format_accuracy_table, load_labels
from ane.graph import load_edge_list, preprocess, row_normalize
from ane.proximity import ppmi_features
from ane.walker import random_walks

FAST = [
    "--dim", "4",
    "--walks", "2",
    "--walk-length", "8",
    "--context", "2",
    "--epochs", "1",
    "--batch", "64",
    "--adv-batch", "16",
]


@pytest.fixture(scope="module")
def karate():
    return dataset_paths("karate")


@pytest.fixture()
def ring(tmp_path):
    edges = tmp_path / "ring.edges"
    n = 12
    edges.write_text("".join(f"v{i} v{(i + 1) % n}\n" for i in range(n)))
    labels = tmp_path / "ring.labels"
    labels.write_text("".join(f"v{i} {'a' if i < n // 2 else 'b'}\n" for i in range(n)))
    return edges, labels


def run_cli(*argv):
    return main([str(a) for a in argv])


# embed


def test_train_flags_cover_every_config_field():
    assert set(cli.TRAIN_FLAGS) == {f.name for f in fields(embedder.TrainConfig)}
    parser = cli.build_parser()
    for argv in (["embed", "x"], ["sweep", "x", "y"]):
        assert cli._config_from_args(parser.parse_args(argv)) == embedder.TrainConfig()


def test_evaluation_flags_default_to_split_spec():
    parser = cli.build_parser()
    args = parser.parse_args(["eval", "e", "l"])
    spec = SplitSpec(args.ratios, args.reps, args.seed, args.l2, not args.no_normalize)
    assert spec == SplitSpec()
    # sweep evaluates at one ratio, with the split seed of training
    args = parser.parse_args(["sweep", "x", "y"])
    assert (args.ratios, args.reps, args.l2) == ((0.5,), SplitSpec().repetitions, SplitSpec().l2)


def test_embed_writes_artifacts(karate, tmp_path, capsys):
    edges, _ = karate
    out = tmp_path / "run"
    code = run_cli("embed", edges, "--out", out, *FAST)
    assert code == 0
    assert (out / "embedding.txt").is_file()
    assert (out / "training_log.txt").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["format"] == "ane-manifest-v2"
    assert manifest["graph"]["nodes"] == 34
    assert manifest["config"]["model"] == "aidw"
    header = (out / "embedding.txt").read_text().splitlines()
    assert header[0] == "34 4"
    assert len(header) == 35
    assert "wrote 34 x 4" in capsys.readouterr().out


def test_embed_missing_file_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.edges"
    code = run_cli("embed", missing, "--out", tmp_path / "o")
    assert code == 2
    err = capsys.readouterr().err
    assert "file not found" in err and str(missing) in err


def test_embed_without_edge_list_exit_2(tmp_path, capsys):
    code = run_cli("embed", "--out", tmp_path / "o")
    assert code == 2
    assert "edge-list path" in capsys.readouterr().err


def test_embed_bad_flag_value_exit_2(karate, tmp_path, capsys):
    edges, _ = karate
    code = run_cli("embed", edges, "--out", tmp_path / "o", "--dim", "0")
    assert code == 2


def test_embed_adv_batch_below_two_exit_2(karate, tmp_path, capsys):
    edges, _ = karate
    code = run_cli("embed", edges, "--out", tmp_path / "o", "--adv-batch", "1")
    assert code == 2
    assert "adv_batch_size must be >= 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--model", "dae", "--batch", "1"], "batch_size must be >= 2"),
        (["--model", "idw", "--context", "1"], "context_size must be in [2, walk_length)"),
        (["--model", "idw", "--walk-length", "1"], "walk_length must be >= 2"),
        (["--model", "idw", "--walks", "0"], "walks_per_node must be >= 1"),
        (["--ppmi-steps", "0"], "ppmi_steps must be >= 1"),
        (["--ppmi-beta", "-1"], "ppmi_beta must be a finite number > 0"),
        (["--ppmi-beta", "nan"], "ppmi_beta must be a finite number > 0"),
        (["--lr", "0"], "lr must be a finite number > 0"),
        (["--lr", "nan"], "lr must be a finite number > 0"),
        (["--grad-clip", "0"], "grad_clip must be > 0"),
        (["--grad-clip", "nan"], "grad_clip must be > 0"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        # every cycle starts with a structure step
        (["--model", "idw", "--structure-steps", "0"], "structure_steps must be >= 1, got 0"),
        (
            ["--model", "aidw", "--structure-steps", "0", "--disc-steps", "0", "--gen-steps", "0"],
            "structure_steps must be >= 1, got 0",
        ),
    ],
)
def test_embed_settings_that_cannot_train_exit_2_before_ppmi(
    karate, tmp_path, capsys, monkeypatch, flags, message
):
    def no_ppmi(*args, **kwargs):
        raise AssertionError("PPMI features computed for a rejected configuration")

    monkeypatch.setattr(embedder, "ppmi_features", no_ppmi)
    edges, _ = karate
    assert run_cli("embed", edges, "--out", tmp_path / "o", *flags) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["embed", "sweep"])
@pytest.mark.parametrize("model", embedder.MODEL_KINDS)
def test_structure_steps_zero_exit_2_before_ppmi_for_every_model(
    karate, tmp_path, capsys, monkeypatch, command, model
):
    def no_ppmi(*args, **kwargs):
        raise AssertionError("PPMI features computed for a rejected configuration")

    monkeypatch.setattr(embedder, "ppmi_features", no_ppmi)
    monkeypatch.setattr(cli, "ppmi_features", no_ppmi)
    edges, labels = karate
    out = tmp_path / "o"
    argv = ["embed", edges] if command == "embed" else ["sweep", edges, labels, "--grid-dim", "2,3"]
    assert run_cli(*argv, "--model", model, "--structure-steps", "0", "--out", out) == 2
    assert capsys.readouterr().err == "error: [embedder] structure_steps must be >= 1, got 0\n"
    assert not out.exists()


def plan_bytes(graph, *flags, features=None):
    """The memory plan sum of ``ane embed`` with ``FAST`` and ``flags`` on
    ``features`` (None: the graph's PPMI rows)."""
    args = cli.build_parser().parse_args(["embed", "x", *FAST, *flags])
    plan = embedder.check_memory_plan(graph, cli._config_from_args(args), features)
    return sum(need for need, _, _ in plan)


@pytest.mark.parametrize("command", ["embed", "sweep"])
def test_ppmi_features_over_memory_exit_2_before_training(
    ring, tmp_path, capsys, monkeypatch, command
):
    # a budget that holds dae's memory plan sum at --dim 1, 2 032 bytes, but
    # not the first power product: it holds the sum (A, allocated twice over),
    # the product bound twice, A's pattern and two row pointers, 12 bytes an
    # entry (a float64 value and an int32 index), 2 328 bytes. At --dim 2 the
    # plan, 2 672 bytes, passes it, so the sweep's two points differ in prior
    edges, labels = ring
    graph = preprocess(load_edge_list(edges))
    budget = plan_bytes(graph, "--model", "dae", "--dim", "1")
    a = row_normalize(graph)
    bound = int(np.minimum(abs(a).sign() @ np.diff(a.indptr), graph.num_nodes).sum())
    entry = proximity.entry_bytes(np.int32)
    first_product = entry * (3 * a.nnz + 2 * bound + 2 * (graph.num_nodes + 1))
    assert budget < first_product < plan_bytes(graph, "--model", "dae", "--dim", "2")
    monkeypatch.setattr(proximity, "memory_budget", lambda: budget)
    out = tmp_path / "o"
    if command == "embed":
        argv = ["embed", edges, *FAST, "--dim", "1"]
    else:
        argv = ["sweep", edges, labels, *FAST, "--dim", "1", "--grid-prior", "uniform,gaussian"]
    assert run_cli(*argv, "--out", out, "--model", "dae") == 2
    err = capsys.readouterr().err
    assert "PPMI features of 12 nodes need about 0.0 GB" in err
    assert not (out / "embedding.txt").exists() and not (out / "point_000").exists()


def no_walks(*args, **kwargs):
    raise AssertionError("walks sampled past the memory check")


def test_walk_pairs_over_memory_exit_2_before_walks(ring, tmp_path, capsys, monkeypatch):
    # 40 walks of 8 steps from 12 nodes: 6 720 pairs, 53 760 bytes, and the
    # 26 880 of an epoch's order, which also covers the 15 360-byte int32
    # corpus: the pairs are the largest item of idw's plan. The PPMI steps of
    # the ring need under 6 kB
    def no_features(*args, **kwargs):
        raise AssertionError("PPMI features built before the walk memory check")

    monkeypatch.setattr(proximity, "memory_budget", lambda: 20_000)
    monkeypatch.setattr(embedder, "random_walks", no_walks)
    monkeypatch.setattr(embedder, "ppmi_features", no_features)
    edges, _ = ring
    out = tmp_path / "o"
    assert run_cli("embed", edges, "--out", out, *FAST, "--walks", "40", "--model", "idw") == 2
    err = capsys.readouterr().err
    assert "Training arrays of idw on 12 x 12 features need about 0.0 GB" in err
    assert "(an epoch's order of 6720 pairs: 0.0 GB; 6720 pairs: 0.0 GB; " in err
    assert err.endswith("; lower --walks, --walk-length or --context\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["embed", "sweep"])
def test_huge_context_exit_2_before_walks(karate, tmp_path, capsys, monkeypatch, command):
    # the plan counts the pairs in closed form, 340 walks x (c - 1)(2L - c),
    # where a sum over the 10^11 offsets of the window would run for hours
    monkeypatch.setattr(embedder, "random_walks", no_walks)
    edges, labels = karate
    out = tmp_path / "o"
    huge = ["--model", "idw", "--walk-length", "1000000000000"]
    if command == "embed":
        argv = ["embed", edges, *huge, "--context", "100000000000"]
    else:
        argv = ["sweep", edges, labels, *huge, "--grid-context", "100000000000"]
    assert run_cli(*argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert "(an epoch's order of 64599999999354000000000000 pairs: " in err
    assert err.endswith("; lower --walks, --walk-length or --context\n")
    assert not out.exists() if command == "embed" else not list(out.glob("point_*"))


def test_skip_gram_batch_over_memory_exit_2_before_walks(ring, tmp_path, capsys, monkeypatch):
    # 24 walks of 8 steps from 12 nodes: 336 pairs, 2 688 bytes, and the 1 344
    # of an epoch's order. A batch of 64 pairs with 5 negatives needs 37 888
    # bytes, idw's two generators 1 440 and the export pass 1 360: the plan
    # sums to 44 720, and to 46 692 with the PPMI rows, under 50 kB.
    # --batch 100000 takes all 336 pairs, 163 840 bytes. The networks of aidw
    # would need 5.3 MB
    monkeypatch.setattr(proximity, "memory_budget", lambda: 50_000)
    edges, _ = ring
    assert run_cli("embed", edges, "--out", tmp_path / "fits", *FAST, "--model", "idw") == 0
    capsys.readouterr()

    monkeypatch.setattr(embedder, "random_walks", no_walks)
    out = tmp_path / "o"
    assert run_cli("embed", edges, "--out", out, *FAST, "--model", "idw", "--batch", "100000") == 2
    err = capsys.readouterr().err
    assert "; a batch of 336 pairs with 5 negatives each: 0.0 GB; " in err
    assert err.endswith("; lower --batch, --negatives or --dim\n")
    assert not out.exists()


def test_memory_plan_sums_every_item(ring, tmp_path, capsys, monkeypatch):
    # idw on the ring with FAST: an epoch's order of 336 pairs of 4 bytes
    # (the 768-byte int32 corpus is freed before it exists), the pairs of 8
    # bytes, a batch's step of 37 888 (30 720, and one block's gather of 64
    # pairs' 5 + 2 rows of 4 float32 values, 7 168), the generators 1 440
    # and the export pass over the 12 rows 1 360 (three 12 x 4 float32
    # arrays and a 12 x 4 mask, 624; a float64 buffer of 48 values, 384; 8
    # d-wide float64 arrays, 256; and 12 ids, 96), all counted alive in
    # training. At --context 3 the order of 624 pairs takes 2 496 bytes. The
    # 60 float32 PPMI entries, with int32 indices, take 4 + 4 bytes each and
    # 52 for the row pointers: 532 bytes, counted once they are built; then
    # the step also counts 12 bytes for each entry of the rows each
    # generator gathers, all 12 rows: 1 440 bytes
    edges, _ = ring
    graph = preprocess(load_edge_list(edges))
    args = cli.build_parser().parse_args(["embed", "x", *FAST, "--model", "idw"])
    cfg = cli._config_from_args(args)
    assert [need for need, _, _ in embedder.check_memory_plan(graph, cfg)] == [
        4 * 336, 8 * 336, 37_888, 1_440, 1_360
    ]
    rows = embedder.csr_rows(ppmi_features(graph), "rows")
    assert rows.nnz == 60
    plan = embedder.check_memory_plan(graph, cfg, rows)
    assert [need for need, _, _ in plan] == [
        4 * 336, 8 * 336, 37_888 + 1_440, 1_440, 1_360, 532
    ]
    assert plan_bytes(graph, "--model", "idw", "--context", "3") == (
        4 * 624 + 8 * 624 + 37_888 + 1_440 + 1_360
    )
    monkeypatch.setattr(proximity, "memory_budget", lambda: 46_692)
    assert run_cli("embed", edges, "--out", tmp_path / "fits", *FAST, "--model", "idw") == 0
    capsys.readouterr()

    monkeypatch.setattr(proximity, "memory_budget", lambda: 46_691)
    monkeypatch.setattr(embedder, "random_walks", no_walks)
    out = tmp_path / "o"
    assert run_cli("embed", edges, "--out", out, *FAST, "--model", "idw") == 2
    err = capsys.readouterr().err
    assert "Training arrays of idw on 12 x 12 features need about 0.0 GB" in err
    assert "; the export pass over 12 rows: 0.0 GB; feature rows: 0.0 GB)" in err
    assert err.endswith("; lower --batch, --negatives or --dim\n")
    assert not out.exists()


def wide_features(tmp_path, width, stride=1, ids=tuple(f"v{i}" for i in range(12))):
    """A ``--features`` file of ``width`` columns for the nodes ``ids`` (by
    default the ring's), non-zero only in every ``stride``-th column, and its
    rows."""
    rows = np.random.default_rng(0).random((len(ids), width))
    rows[:, np.arange(width) % stride != 0] = 0.0
    features = tmp_path / "wide.txt"
    features.write_text(
        f"{len(ids)} {width}\n"
        + "".join(f"{i} " + " ".join(map(str, row)) + "\n" for i, row in zip(ids, rows))
    )
    return features, rows


def no_networks(*args, **kwargs):
    raise AssertionError("a network was built past the memory check")


def test_dae_step_over_memory_exit_2_before_any_network(ring, tmp_path, capsys, monkeypatch):
    # 500-wide feature rows with 600 non-zero entries at --dim 2: the encoder
    # and decoder hold 7 518 values, 30 072 bytes, the export pass 728 and
    # the rows 4 852 (a float32 CSR with int32 indices and 52 bytes of row
    # pointers). A step's reconstruction and its square take 8 bytes per
    # entry and its rows 32 per stored entry: 16 800 for a batch of 2 rows
    # with a one-row tail, 67 200 for all 12, so the plan sums to 52 452 or
    # 102 852. Converting the file's 24 000-byte float32 matrix takes 32
    # bytes an entry and 8 KiB more: 51 392
    edges, _ = ring
    features, _ = wide_features(tmp_path, 500, stride=10)
    flags = [*FAST, "--model", "dae", "--dim", "2", "--features", features]
    monkeypatch.setattr(proximity, "memory_budget", lambda: 80_000)
    assert run_cli("embed", edges, "--out", tmp_path / "fits", *flags, "--batch", "2") == 0
    capsys.readouterr()

    monkeypatch.setattr(embedder, "build_generator", no_networks)
    out = tmp_path / "o"
    assert run_cli("embed", edges, "--out", out, *flags, "--batch", "100000") == 2
    assert capsys.readouterr().err == (
        "error: [embedder] Training arrays of dae on 12 x 500 features need about 0.0 GB "
        "(encoder and decoder, 7518 values: 0.0 GB; a batch's 12 x 500 reconstruction and its "
        "square: 0.0 GB; the export pass over 12 rows: 0.0 GB; feature rows: 0.0 GB), more "
        "than the 0.0 GB of physical memory; lower --batch\n"
    )
    assert not out.exists()


def test_feature_rows_over_memory_exit_2_before_any_network(ring, tmp_path, capsys, monkeypatch):
    # idw with FAST, --walks 40, --batch 4 and --negatives 1 on 12 x 300
    # dense rows: 480 walks of 8 steps, 6 720 pairs, their order 26 880
    # bytes, the pairs 53 760, and the generators (300 + 3) 96 = 29 088.
    # A batch's step takes 64 bytes per score slot (8) and per dimension of
    # each of 4 + 8 distinct rows (3 584), a block's gather of 4 pairs' 1 + 2
    # rows of 4 float32 values (192) and 12 bytes for each of the 3 600
    # entries of those rows (43 200): 46 976. The export pass takes 1 360.
    # The rows' 3 600 float32 entries take 8 bytes each with their int32
    # indices, and 52 for the row pointers: 28 852. The plan sums to
    # 186 916, more than the 137 792 that converting the file's float32
    # matrix takes (14 400 + 32 x 3 600 + 8 192). The float32 rows, 8 bytes
    # an entry, weigh less than the pairs, so the pairs' remedy is named
    edges, _ = ring
    graph = preprocess(load_edge_list(edges))
    features, _ = wide_features(tmp_path, 300)
    flags = [
        *FAST, "--model", "idw", "--walks", "40", "--batch", "4", "--negatives", "1",
        "--features", str(features),
    ]
    cfg = cli._config_from_args(cli.build_parser().parse_args(["embed", "x", *flags]))
    plan = embedder.check_memory_plan(graph, cfg, cli._load_features(features, graph))
    assert [need for need, _, _ in plan] == [26_880, 53_760, 46_976, 29_088, 1_360, 28_852]
    assert plan[-1][1:] == ("feature rows", "use a narrower --features file")
    monkeypatch.setattr(proximity, "memory_budget", lambda: 186_916)
    assert run_cli("embed", edges, "--out", tmp_path / "fits", *flags) == 0
    capsys.readouterr()

    monkeypatch.setattr(proximity, "memory_budget", lambda: 186_915)
    monkeypatch.setattr(embedder, "build_generator", no_networks)
    out = tmp_path / "o"
    assert run_cli("embed", edges, "--out", out, *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [embedder] Training arrays of idw on 12 x 300 features")
    assert err.endswith("; feature rows: 0.0 GB), more than the 0.0 GB of physical memory; "
                        "lower --walks, --walk-length or --context\n")
    assert not out.exists()


def test_features_conversion_over_memory_exit_2_before_any_network(
    ring, tmp_path, capsys, monkeypatch
):
    # the 12 x 500 float32 matrix, 24 000 bytes, and 32 bytes for each of its
    # 6 000 entries and 8 KiB while scipy converts it: 224 192. The plan of
    # dae at --dim 2 --batch 2 then sums to 138 852, the rows 48 052 of it
    edges, _ = ring
    features, _ = wide_features(tmp_path, 500)
    flags = [*FAST, "--model", "dae", "--dim", "2", "--batch", "2", "--features", features]
    monkeypatch.setattr(proximity, "memory_budget", lambda: 224_192)
    assert run_cli("embed", edges, "--out", tmp_path / "fits", *flags) == 0
    capsys.readouterr()

    monkeypatch.setattr(proximity, "memory_budget", lambda: 224_191)
    monkeypatch.setattr(embedder, "build_generator", no_networks)
    out = tmp_path / "o"
    assert run_cli("embed", edges, "--out", out, *flags) == 2
    assert capsys.readouterr().err == (
        f"error: [proximity] {features}: CSR rows of 6000 stored entries need about 0.0 GB "
        "(the dense matrix, 32 bytes an entry and 8 KiB while it is converted), more than the "
        "0.0 GB of physical memory; use a narrower --features file\n"
    )
    assert not out.exists()


def test_features_conversion_peak_within_estimate(ring, tmp_path, monkeypatch):
    # the estimate is the dense matrix, 32 bytes per stored entry and 8 KiB;
    # the matrix is made before tracing, so the traced peak is everything
    # else. The file's rows are float32, as load_embeddings reads them; a
    # float64 matrix, as the Python API may pass, fits the same estimate
    edges, _ = ring
    graph = preprocess(load_edge_list(edges))
    rows = np.random.default_rng(1).random((12, 3000)).astype(np.float32)
    rows[rows < 0.5] = 0.0
    ids = [f"v{i}" for i in reversed(range(12))]
    loaded = embedder.EmbeddingMatrix(vectors=rows[::-1].copy(), ids=ids)
    monkeypatch.setattr(cli, "load_embeddings", lambda path: loaded)
    wide = rows.astype(np.float64)
    for convert, matrix in [
        (lambda: cli._load_features("f.txt", graph), rows),
        (lambda: embedder.csr_rows(wide, "rows"), wide),
    ]:
        estimate = matrix.nbytes + 32 * np.count_nonzero(matrix) + 8192
        tracemalloc.start()
        try:
            csr = convert()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matrix.nbytes + peak <= estimate
        assert isinstance(csr, sparse.csr_array) and csr.dtype == np.float32
        np.testing.assert_array_equal(csr.toarray(), rows)


def test_networks_over_memory_exit_2_before_any_network(ring, tmp_path, capsys, monkeypatch):
    # dae on the ring's 12-wide PPMI rows at --dim 64: G holds (12 + 3) 64 =
    # 960 parameters and the decoder (64 + 1) 12 = 780, each with a gradient
    # and an RMSProp accumulator, 5 220 float32 values (20 880 bytes), and a
    # step's 12 x 12 reconstruction and its square 1 152, and the export pass
    # 20 320 (three 12 x 64 float32 arrays and a mask, 9 984; a float64
    # buffer of 768 values and 8 d-wide float64 arrays, 10 240; 12 ids, 96):
    # 42 352 bytes before the PPMI build. Once its 60 float32 entries are
    # built they take 532 bytes, and the step gathers them all, 32 bytes an
    # entry (1 920): 44 804. The PPMI steps need under 6 kB
    edges, _ = ring
    flags = [*FAST, "--model", "dae", "--dim", "64"]
    monkeypatch.setattr(proximity, "memory_budget", lambda: 44_804)
    assert run_cli("embed", edges, "--out", tmp_path / "fits", *flags) == 0
    capsys.readouterr()

    monkeypatch.setattr(proximity, "memory_budget", lambda: 44_803)
    monkeypatch.setattr(embedder, "build_generator", no_networks)
    out = tmp_path / "o"
    assert run_cli("embed", edges, "--out", out, *flags) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: [embedder] Training arrays of dae on 12 x 12 features need about 0.0 GB "
        "(encoder and decoder, 5220 values: 0.0 GB; a batch's 12 x 12 reconstruction and its "
        "square: 0.0 GB; the export pass over 12 rows: 0.0 GB; feature rows: 0.0 GB), more "
        "than the 0.0 GB of physical memory; lower --dim\n"
    )
    assert not out.exists()


def test_adversarial_batch_over_memory_exit_2_before_any_network(
    karate, tmp_path, capsys, monkeypatch
):
    # a step holds (16 x 512 + 8 x 128) float32 values a row at the default
    # dim: 36 864 bytes, 36.9 TB for 10^9 rows, against a 16 GB budget; run
    # for real, it would allocate tens of GB in its first discriminator step
    def no_ppmi(*args, **kwargs):
        raise AssertionError("PPMI features built before the adversarial batch check")

    monkeypatch.setattr(proximity, "memory_budget", lambda: 16_000_000_000)
    monkeypatch.setattr(embedder, "ppmi_features", no_ppmi)
    monkeypatch.setattr(embedder, "build_generator", no_networks)
    edges, _ = karate
    out = tmp_path / "o"
    flags = ["--model", "adae", "--adv-batch", "1000000000"]
    assert run_cli("embed", edges, *flags, "--out", out) == 2
    err = capsys.readouterr().err
    assert "; an adversarial batch of 1000000000 rows: 36864.0 GB; " in err
    assert err.endswith("; lower --adv-batch\n")
    assert not out.exists()


@pytest.mark.parametrize("source", ["ppmi", "features-file"])
def test_embed_trains_on_csr_features(ring, tmp_path, monkeypatch, source):
    seen = []

    class Spy(embedder.Trainer):
        def run(self):
            seen.append(self.features)
            return super().run()

    monkeypatch.setattr(cli, "Trainer", Spy)
    edges, _ = ring
    flags = []
    if source == "features-file":
        features = tmp_path / "features.txt"
        features.write_text("12 3\n" + "".join(f"v{i} {i} 0 0.5\n" for i in range(12)))
        flags = ["--features", features]
    assert run_cli("embed", edges, "--out", tmp_path / "o", *flags, *FAST) == 0
    (held,) = seen
    assert isinstance(held, sparse.csr_array) and held.shape == (12, 12 if source == "ppmi" else 3)


def assert_replays(run, replay):
    """``embed --from-manifest`` of the run in ``run`` writes its bytes to ``replay``."""
    assert run_cli("embed", "--from-manifest", run / "manifest.json", "--out", replay) == 0
    for artifact in ("embedding.txt", "training_log.txt"):
        assert (run / artifact).read_bytes() == (replay / artifact).read_bytes()


IDW_SHORT_WALKS = ["--model", "idw", "--walks", "1", "--walk-length", "3", "--context", "2"]


@pytest.mark.parametrize(
    "flags, cycles",
    [
        # 34 nodes in batches of 33 or 11: a 1-node tail
        (["--model", "dae", "--batch", "33"], 1),
        (["--model", "dae", "--batch", "11"], 3),
        # 136 pairs in batches of 135: a 1-pair tail
        ([*IDW_SHORT_WALKS, "--batch", "135"], 1),
        # two-pair batches often share one target or one context
        ([*IDW_SHORT_WALKS, "--batch", "2"], None),
        # 204 pairs in batches of 202 leave 2 pairs with one target, a one-row
        # batch-norm batch for the target generator unless folded
        (
            ["--model", "idw", "--dim", "2", "--walks", "1", "--walk-length", "4",
             "--context", "2", "--batch", "202", "--seed", "27"],
            1,
        ),
    ],
    ids=["dae-batch-33", "dae-batch-11", "idw-batch-135", "idw-batch-2", "idw-batch-202"],
)
def test_embed_folds_one_row_batches_and_replays(karate, tmp_path, flags, cycles):
    edges, _ = karate
    run = tmp_path / "run"
    assert run_cli("embed", edges, "--dim", "4", "--epochs", "1", *flags, "--out", run) == 0
    rows = (run / "training_log.txt").read_text().splitlines()[1:]
    assert rows and all(math.isfinite(float(row.split()[1])) for row in rows)
    assert cycles is None or len(rows) == cycles
    assert_replays(run, tmp_path / "replay")


KARATE_IDS = [str(i) for i in range(34)]


def keyed_rows(ids, values="1 2"):
    return "".join(f"{node_id} {values}\n" for node_id in ids)


@pytest.mark.parametrize(
    "text, message",
    [
        # truncated: 20 of 34 rows
        ("34 2\n" + keyed_rows(KARATE_IDS[:20]), "line 22 has 0 fields, expected 3"),
        (
            "34 2\n" + keyed_rows(KARATE_IDS[:20]) + "20 1 x\n" + keyed_rows(KARATE_IDS[21:]),
            "line 22: could not convert string to float: 'x'",
        ),
        (
            "34 2\n" + keyed_rows(KARATE_IDS[:20]) + "20 1 nan\n" + keyed_rows(KARATE_IDS[21:]),
            "line 22 holds a non-finite coordinate",
        ),
        ("34 2\n" + keyed_rows(KARATE_IDS) + keyed_rows(["34"]), "line 36: more than the 34 rows"),
        # the old PPMI cache header; such a file loads once its header reads '34 34'
        ("34 4 0.03\n" + keyed_rows(KARATE_IDS, "0 " * 34), "line 1: expected 'N d' header"),
        # the old id-less format
        ("34 2\n" + "1 2\n" * 34, "line 2 has 2 fields, expected 3"),
        ("33 2\n" + keyed_rows(KARATE_IDS[:33]), "1 graph nodes have no row (first offenders: 33)"),
        (
            "35 2\n" + keyed_rows(KARATE_IDS + ["stranger"]),
            "1 row ids are not graph nodes (first offenders: stranger)",
        ),
        (
            "34 2\n" + keyed_rows(KARATE_IDS[:33] + ["7"]),
            "line 35 repeats the node id '7' of line 9",
        ),
        # a header alone: no matrix of its N rows is allocated
        (
            "100000000000000 100\n",
            "line 2 has 0 fields, expected 101; "
            "the file ends after 0 of the 100000000000000 rows line 1 gives",
        ),
        (
            "34 0\n" + "".join(f"{node_id}\n" for node_id in KARATE_IDS),
            "line 1: header gives d = 0; a row needs at least 1 coordinate",
        ),
    ],
    ids=[
        "truncated", "non-numeric", "nan", "extra-rows", "n-t-beta-header",
        "id-less-row", "missing-node", "unknown-id", "repeated-id", "header-only",
        "zero-width",
    ],
)
def test_embed_bad_features_file_exit_2(karate, tmp_path, capsys, text, message):
    edges, _ = karate
    features = tmp_path / "features.txt"
    features.write_text(text)
    code = run_cli("embed", edges, "--out", tmp_path / "o", "--features", features, *FAST)
    assert code == 2
    err = capsys.readouterr().err
    assert "[proximity]" in err and f"{features}: " in err and message in err
    assert not (tmp_path / "o").exists()


def write_ring_features(path, order):
    """Random 3-wide rows keyed by the ring's node ids, written in ``order``."""
    rows = np.random.default_rng(0).random((12, 3))
    path.write_text(
        "12 3\n" + "".join(f"v{i} " + " ".join(map(str, rows[i])) + "\n" for i in order)
    )
    return path


def test_features_matched_by_id_whatever_the_row_order(ring, tmp_path):
    edges, _ = ring
    for name, order in [
        ("ordered", range(12)),
        ("shuffled", np.random.default_rng(1).permutation(12)),
    ]:
        features = write_ring_features(tmp_path / f"{name}.txt", order)
        assert run_cli("embed", edges, "--features", features, "--out", tmp_path / name, *FAST) == 0
    for artifact in ("embedding.txt", "training_log.txt"):
        assert (tmp_path / "ordered" / artifact).read_bytes() == (
            tmp_path / "shuffled" / artifact
        ).read_bytes()


def test_embedding_of_one_run_is_the_features_of_the_next(ring, tmp_path):
    edges, _ = ring
    first, second, replay = tmp_path / "first", tmp_path / "second", tmp_path / "replay"
    assert run_cli("embed", edges, "--out", first, *FAST) == 0
    features = first / "embedding.txt"
    assert run_cli("embed", edges, "--features", features, "--out", second, *FAST) == 0
    manifest = json.loads((second / "manifest.json").read_text())
    assert manifest["dataset"]["features"] == str(features.resolve())
    assert_replays(second, replay)


@pytest.mark.parametrize("model", ["aidw", "adae"])
def test_wide_dense_features_replay(karate, tmp_path, model):
    # each generator's weight gradient on CSR rows is summed by scipy's
    # private sparse kernel, at any width; 1 000 dense columns keep it short
    edges, _ = karate
    features, _ = wide_features(tmp_path, 1000, ids=KARATE_IDS)
    run = tmp_path / "run"
    flags = ["--model", model, "--dim", "8", "--epochs", "1", "--walks", "2", "--walk-length", "20"]
    assert run_cli("embed", edges, "--features", features, *flags, "--context", "4", "--out", run) == 0
    assert_replays(run, tmp_path / "replay")


def test_idw_equals_aidw_with_adversary_disabled(ring, tmp_path):
    edges, _ = ring
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("embed", edges, "--model", "idw", "--out", a, *FAST) == 0
    assert (
        run_cli(
            "embed", edges, "--model", "aidw",
            "--disc-steps", "0", "--gen-steps", "0",
            "--out", b, *FAST,
        )
        == 0
    )
    assert (a / "embedding.txt").read_bytes() == (b / "embedding.txt").read_bytes()


def test_from_manifest_replay_byte_identical(ring, tmp_path, capsys):
    edges, _ = ring
    first, second = tmp_path / "first", tmp_path / "second"
    assert run_cli("embed", edges, "--out", first, "--seed", "3", *FAST) == 0
    assert_replays(first, second)
    # the same machine: no environment warning
    assert capsys.readouterr().err == ""


def test_weighted_embed_trains_on_the_weights_and_replays(tmp_path, capsys):
    edges = Path(__file__).resolve().parent / "data" / "weighted.edges"
    flags = [
        "--model", "aidw", "--dim", "4", "--walks", "2", "--walk-length", "10", "--context", "3",
        "--epochs", "1",
    ]
    runs = {name: tmp_path / name for name in ("weighted", "unweighted", "replay", "api")}
    assert run_cli("embed", edges, "--weighted", *flags, "--out", runs["weighted"]) == 0
    assert run_cli("embed", edges, *flags, "--out", runs["unweighted"]) == 0
    manifest = runs["weighted"] / "manifest.json"
    assert json.loads(manifest.read_text())["dataset"]["weighted"] is True
    assert run_cli("embed", "--from-manifest", manifest, "--out", runs["replay"]) == 0
    capsys.readouterr()

    cfg = embedder.TrainConfig(
        model="aidw", dim=4, walks_per_node=2, walk_length=10, context_size=3, epochs=1
    )
    embedding, log = embedder.train(preprocess(load_edge_list(edges, weighted=True)), cfg)
    runs["api"].mkdir()
    embedder.export_embeddings(embedding, runs["api"] / "embedding.txt")
    log.save(runs["api"] / "training_log.txt")

    def artifacts(name):
        return [(runs[name] / f).read_bytes() for f in ("embedding.txt", "training_log.txt")]

    assert artifacts("weighted") == artifacts("api") == artifacts("replay")
    assert artifacts("unweighted")[0] != artifacts("weighted")[0]


def test_manifest_records_the_arithmetic_and_replay_ignores_it(ring, tmp_path):
    edges, _ = ring
    first, second = tmp_path / "first", tmp_path / "second"
    assert run_cli("embed", edges, "--out", first, "--seed", "3", *FAST) == 0
    path = first / "manifest.json"
    manifest = json.loads(path.read_text())
    assert manifest["arithmetic"] == {
        "networks": "float32", "batch_norm_statistics": "float64",
        "losses": "float64", "export": "float32",
    }
    manifest["arithmetic"] = {"networks": "float64"}
    path.write_text(json.dumps(manifest))
    assert run_cli("embed", "--from-manifest", path, "--out", second) == 0
    assert (first / "embedding.txt").read_bytes() == (second / "embedding.txt").read_bytes()
    replayed = json.loads((second / "manifest.json").read_text())
    assert replayed["arithmetic"]["networks"] == "float32"


def test_manifests_record_the_environment_and_replay_ignores_it(ring, tmp_path, capsys):
    edges, labels = ring
    first, second = tmp_path / "first", tmp_path / "second"
    assert run_cli("embed", edges, "--out", first, "--seed", "3", *FAST) == 0
    assert run_cli("eval", first / "embedding.txt", labels, "--ratios", "0.5", "--reps", "1",
                   "--out", tmp_path / "ev") == 0
    assert run_cli("sweep", edges, labels, "--grid-dim", "2", "--ratios", "0.5", "--reps", "1",
                   "--out", tmp_path / "sw", *FAST) == 0
    for path in (first, tmp_path / "ev", tmp_path / "sw", tmp_path / "sw" / "point_000"):
        environment = json.loads((path / "manifest.json").read_text())["environment"]
        assert set(environment) == {
            "numpy", "blas", "blas_threads", "blas_core", "training_blas_pinned",
        }
        assert environment["numpy"] == np.__version__
        assert environment["blas"] is None or isinstance(environment["blas"], str)
        assert environment["blas_threads"] is None or environment["blas_threads"] >= 1
        assert environment["blas_core"] is None or isinstance(environment["blas_core"], str)
        assert isinstance(environment["training_blas_pinned"], bool)
    path = first / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["environment"] = {
        "numpy": "0.0", "blas": "none", "blas_threads": 64, "blas_core": "none",
        "training_blas_pinned": False,
    }
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("embed", "--from-manifest", path, "--out", second) == 0
    assert (first / "embedding.txt").read_bytes() == (second / "embedding.txt").read_bytes()
    replayed = json.loads((second / "manifest.json").read_text())
    assert replayed["config_digest"] == manifest["config_digest"]
    assert replayed["environment"] == cli._environment()
    here = cli._environment()
    assert capsys.readouterr().err.splitlines() == [
        f"warning: the manifest records {key} {value} and this machine has {here[key]}; "
        "the replay's bytes may differ"
        for key, value in (("numpy", "0.0"), ("blas", "none"), ("blas_core", "none"))
    ]


def test_a_run_with_no_openblas_setter_trains_unpinned_and_records_it(ring, tmp_path,
                                                                     monkeypatch):
    edges, _ = ring
    assert run_cli("embed", edges, "--out", tmp_path / "pinned", "--seed", "3", *FAST) == 0
    monkeypatch.setattr(nn, "_openblas", lambda name: None)
    assert run_cli("embed", edges, "--out", tmp_path / "unpinned", "--seed", "3", *FAST) == 0
    environment = json.loads((tmp_path / "unpinned" / "manifest.json").read_text())["environment"]
    assert environment["training_blas_pinned"] is False
    assert environment["blas_threads"] is None and environment["blas_core"] is None
    # the ring is too narrow for OpenBLAS to thread, so the bytes are the same
    assert ((tmp_path / "pinned" / "embedding.txt").read_bytes()
            == (tmp_path / "unpinned" / "embedding.txt").read_bytes())


def test_from_manifest_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "manifest.json"
    bad.write_text(
        json.dumps(
            {
                "format": "ane-manifest-v2",
                "command": "embed",
                "config": {"model": "aidw", "unknown_knob": 1},
            }
        )
    )
    code = run_cli("embed", "--from-manifest", bad)
    assert code == 2
    assert "bad manifest" in capsys.readouterr().err


def test_from_manifest_rejects_v1_manifest(ring, tmp_path, capsys):
    edges, _ = ring
    assert run_cli("embed", edges, "--out", tmp_path / "run", *FAST) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    # the v1 config schema: one learning rate per phase
    lr = manifest["config"].pop("lr")
    manifest["config"].update(structure_lr=lr, disc_lr=lr, gen_lr=lr, bn_before_activation=False)
    manifest["format"] = "ane-manifest-v1"
    old = tmp_path / "v1.json"
    old.write_text(json.dumps(manifest))
    code = run_cli("embed", "--from-manifest", old, "--out", tmp_path / "replay")
    assert code == 2
    err = capsys.readouterr().err
    assert "bad manifest" in err and "'ane-manifest-v2'" in err
    assert not (tmp_path / "replay").exists()


def test_from_manifest_with_a_fractional_epoch_count_exit_2_before_any_output(ring, tmp_path,
                                                                             capsys):
    edges, _ = ring
    assert run_cli("embed", edges, "--out", tmp_path / "run", *FAST) == 0
    path = tmp_path / "run" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"]["epochs"] = 1.5
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("embed", "--from-manifest", path, "--out", tmp_path / "replay") == 2
    assert "epochs must be an integer, got 1.5" in capsys.readouterr().err
    assert not (tmp_path / "replay").exists()


def test_from_manifest_with_a_boolean_dim_exit_2_before_any_output(ring, tmp_path, capsys):
    edges, _ = ring
    assert run_cli("embed", edges, "--out", tmp_path / "run", *FAST) == 0
    path = tmp_path / "run" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"]["dim"] = True
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("embed", "--from-manifest", path, "--out", tmp_path / "replay") == 2
    assert "dim must be an integer, got True" in capsys.readouterr().err
    assert not (tmp_path / "replay").exists()


def test_from_manifest_rejects_eval_manifest(tmp_path, capsys):
    classes = [0, 1] * 10
    emb = tmp_path / "e.txt"
    ids = write_one_hot_embedding(emb, classes)
    labels = tmp_path / "l.txt"
    labels.write_text("".join(f"{i} c{c}\n" for i, c in zip(ids, classes)))
    out = tmp_path / "ev"
    assert run_cli("eval", emb, labels, "--ratios", "0.5", "--reps", "2", "--out", out) == 0
    capsys.readouterr()
    code = run_cli("embed", "--from-manifest", out / "manifest.json")
    assert code == 2
    err = capsys.readouterr().err
    assert "bad manifest" in err and "'ane-manifest-v2'" in err and "'eval'" in err


# eval


def write_one_hot_embedding(path, classes, ids=None):
    classes = np.asarray(classes)
    d = classes.max() + 1
    ids = ids or [f"n{i}" for i in range(classes.size)]
    with open(path, "w") as fh:
        fh.write(f"{classes.size} {d}\n")
        for node_id, c in zip(ids, classes):
            row = ["1" if k == c else "0" for k in range(d)]
            fh.write(node_id + " " + " ".join(row) + "\n")
    return ids


def test_eval_one_hot_is_perfect(tmp_path, capsys):
    classes = np.array([0, 1, 2] * 60)
    emb = tmp_path / "e.txt"
    ids = write_one_hot_embedding(emb, classes)
    labels = tmp_path / "l.txt"
    labels.write_text("".join(f"{i} c{c}\n" for i, c in zip(ids, classes)))
    code = run_cli("eval", emb, labels, "--ratios", "0.3,0.6", "--reps", "3")
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split("\t") == ["ratio", "mean_acc", "std_acc", "n_reps"]
    assert len(lines) == 3
    for line in lines[1:]:
        ratio, mean, std, reps = line.split("\t")
        assert mean == "100.00" and std == "0.00" and reps == "3"


def test_eval_single_ratio_row_and_outputs(tmp_path, capsys):
    classes = np.array([0, 1] * 10)
    emb = tmp_path / "e.txt"
    ids = write_one_hot_embedding(emb, classes)
    labels = tmp_path / "l.txt"
    labels.write_text("".join(f"{i} c{c}\n" for i, c in zip(ids, classes)))
    out = tmp_path / "evaldir"
    code = run_cli("eval", emb, labels, "--ratios", "0.5", "--reps", "4", "--out", out)
    assert code == 0
    table = capsys.readouterr().out
    assert len(table.strip().splitlines()) == 2
    assert (out / "accuracy.tsv").read_text() == table
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "eval"
    assert manifest["protocol"]["ratios"] == [0.5]


def test_eval_deterministic_across_runs(karate, tmp_path, capsys):
    edges, labels = karate
    out = tmp_path / "emb"
    assert run_cli("embed", edges, "--out", out, *FAST) == 0
    emb = out / "embedding.txt"
    capsys.readouterr()  # drop the embed command's output
    assert run_cli("eval", emb, labels, "--ratios", "0.5", "--reps", "5", "--seed", "7") == 0
    first = capsys.readouterr().out
    assert run_cli("eval", emb, labels, "--ratios", "0.5", "--reps", "5", "--seed", "7") == 0
    assert capsys.readouterr().out == first


def test_eval_unknown_label_ids_exit_2(tmp_path, capsys):
    emb = tmp_path / "e.txt"
    write_one_hot_embedding(emb, [0, 1, 0, 1])
    labels = tmp_path / "l.txt"
    labels.write_text("stranger x\n")
    code = run_cli("eval", emb, labels)
    assert code == 2
    assert "stranger" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lines, message",
    [
        (["4 2", "n0 nan 1", "n1 1 0", "n2 0 1", "n3 1 1"], "line 2 holds a non-finite coordinate"),
        (["4 2", "n0 1 0", "n1 inf 0", "n2 0 1", "n3 1 1"], "line 3 holds a non-finite coordinate"),
        # finite in the text, but not as the float32 value it is read into
        (
            ["4 2", "n0 1 0", "n1 0 1", "n2 1e39 1", "n3 1 1"],
            "line 4 holds a coordinate beyond the float32 range",
        ),
        (
            ["4 2", "n0 1 0", "n1 1 0", "n2 0 1", "n3 0 1", "n4 1 1"],
            "line 6: more than the 4 rows the header gives",
        ),
        (
            ["4 2", "n0 1 0", "n0 0 1", "n2 0 1", "n3 1 1"],
            "line 3 repeats the node id 'n0' of line 2",
        ),
        (
            ["4 2", "n0 1 0", "n1 1 x", "n2 0 1", "n3 1 1"],
            "line 3: could not convert string to float: 'x'",
        ),
        (
            ["two 2", "n0 1 0", "n1 1 0", "n2 0 1", "n3 1 1"],
            "line 1: expected 'N d' header, got ['two', '2']",
        ),
        # a header alone: no matrix of its N rows is allocated
        (
            ["100000000000000 100"],
            "line 2 has 0 fields, expected 101; "
            "the file ends after 0 of the 100000000000000 rows line 1 gives",
        ),
        (
            ["4 0", "n0", "n1", "n2", "n3"],
            "line 1: header gives d = 0; a row needs at least 1 coordinate",
        ),
    ],
    ids=[
        "nan", "inf", "float32-overflow", "extra-row", "repeated-id", "non-numeric",
        "bad-header", "header-only", "zero-width",
    ],
)
def test_eval_bad_embedding_file_exit_2(tmp_path, capsys, lines, message):
    emb = tmp_path / "e.txt"
    emb.write_text("".join(line + "\n" for line in lines))
    labels = tmp_path / "l.txt"
    labels.write_text("n0 a\nn1 a\nn2 b\nn3 b\n")
    out = tmp_path / "ev"
    assert run_cli("eval", emb, labels, "--ratios", "0.5", "--reps", "1", "--out", out) == 2
    assert capsys.readouterr().err == f"error: [evalkit] {emb}: {message}\n"
    assert not out.exists()


def test_eval_embedding_over_memory_exit_2(tmp_path, capsys, monkeypatch):
    emb = tmp_path / "e.txt"
    classes = [0, 1, 0, 1]
    ids = write_one_hot_embedding(emb, classes)
    labels = tmp_path / "l.txt"
    labels.write_text("".join(f"{i} c{c}\n" for i, c in zip(ids, classes)))
    # 4 rows of 2 float32 coordinates: 32 bytes
    monkeypatch.setattr(proximity, "memory_budget", lambda: 31)
    assert run_cli("eval", emb, labels, "--ratios", "0.5", "--reps", "1") == 2
    assert capsys.readouterr().err == (
        f"error: [evalkit] {emb}: 4 rows of 2 coordinates need about 0.0 GB (float32), "
        "more than the 0.0 GB of physical memory; use a smaller file\n"
    )


def test_eval_runtime_value_error_exit_1(tmp_path, capsys, monkeypatch):
    # only an InputError is an input error: a plain ValueError raised while a
    # stage runs is a runtime failure
    def failing_fit(*args, **kwargs):
        raise ValueError("the fit failed")

    monkeypatch.setattr(cli, "evaluate", failing_fit)
    emb = tmp_path / "e.txt"
    classes = [0, 1, 0, 1]
    ids = write_one_hot_embedding(emb, classes)
    labels = tmp_path / "l.txt"
    labels.write_text("".join(f"{i} c{c}\n" for i, c in zip(ids, classes)))
    assert run_cli("eval", emb, labels, "--ratios", "0.5", "--reps", "1") == 1
    assert capsys.readouterr().err == "error [evalkit] the fit failed\n"


# each --l2 value and the float that SplitSpec refuses
BAD_L2 = [("nan", "nan"), ("inf", "inf"), ("0", "0.0"), ("-1", "-1.0")]


@pytest.mark.parametrize("l2, shown", BAD_L2, ids=[flag for flag, _ in BAD_L2])
def test_eval_bad_l2_exit_2(tmp_path, capsys, l2, shown):
    classes = np.array([0, 1] * 10)
    emb = tmp_path / "e.txt"
    ids = write_one_hot_embedding(emb, classes)
    labels = tmp_path / "l.txt"
    labels.write_text("".join(f"{i} c{c}\n" for i, c in zip(ids, classes)))
    out = tmp_path / "ev"
    code = run_cli("eval", emb, labels, "--ratios", "0.5", "--reps", "1", "--l2", l2, "--out", out)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: [evalkit] l2 must be a finite number > 0, got {shown}\n"
    assert captured.out == ""
    assert not out.exists()


def test_eval_manifest_protocol_rebuilds_the_accuracy_table(karate, tmp_path, capsys):
    # the manifest records the SplitSpec that ran, l2 and normalization included
    edges, labels_path = karate
    emb_dir = tmp_path / "emb"
    assert run_cli("embed", edges, "--out", emb_dir, *FAST) == 0
    out = tmp_path / "ev"
    flags = ["--ratios", "0.3,0.7", "--reps", "3", "--no-normalize", "--l2", "1e-6"]
    assert run_cli("eval", emb_dir / "embedding.txt", labels_path, *flags, "--out", out) == 0
    capsys.readouterr()
    protocol = json.loads((out / "manifest.json").read_text())["protocol"]
    assert protocol == {
        "ratios": [0.3, 0.7], "repetitions": 3, "seed": 0, "l2": 1e-6, "normalize": False,
    }
    emb = embedder.load_embeddings(emb_dir / "embedding.txt")
    labels = load_labels(labels_path, {node_id: i for i, node_id in enumerate(emb.ids)})
    spec = SplitSpec(**protocol)
    table = format_accuracy_table(evaluate(emb.vectors, labels, spec))
    assert table == (out / "accuracy.tsv").read_text()
    # the same embedding at the default l2, normalized, scores otherwise
    assert format_accuracy_table(evaluate(emb.vectors, labels, SplitSpec((0.3, 0.7), 3))) != table


def write_dependent_embedding(path, ids):
    """Columns v, v and 2v: linearly dependent."""
    v = np.random.default_rng(0).standard_normal(len(ids)).tolist()
    path.write_text(
        f"{len(ids)} 3\n" + "".join(f"{i} {x!r} {x!r} {2 * x!r}\n" for i, x in zip(ids, v))
    )
    return path


def test_eval_singular_newton_system_exit_2_naming_l2(karate, tmp_path, capsys):
    _, labels = karate
    emb = write_dependent_embedding(tmp_path / "e.txt", KARATE_IDS)
    out = tmp_path / "ev"
    flags = ["--ratios", "0.5", "--reps", "2", "--out", out]
    assert run_cli("eval", emb, labels, *flags, "--l2", "1e-20") == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: [evalkit] the Newton system every class shares at step 0 is singular: "
        "l2 is too small to regularize linearly dependent feature columns\n"
    )
    assert captured.out == "" and not out.exists()
    assert run_cli("eval", emb, labels, *flags, "--l2", "1e-12") == 0


def test_sweep_records_a_singular_newton_system_as_a_failed_point(
    ring, tmp_path, capsys, monkeypatch
):
    # every Hessian is zero, so every point's fit is singular
    monkeypatch.setattr(evaluation, "_hessian", lambda xt, *args: np.zeros((len(xt),) * 2))
    edges, labels = ring
    out = tmp_path / "sweep"
    code = run_cli("sweep", edges, labels, "--grid-dim", "2,3", "--reps", "1", "--out", out, *FAST)
    assert code == 1
    message = (
        "the Newton system every class shares at step 0 is singular: "
        "l2 is too small to regularize linearly dependent feature columns"
    )
    assert f"sweep point failed (dim=2): {message}\n" in capsys.readouterr().err
    failures = json.loads((out / "manifest.json").read_text())["failures"]
    assert failures == [{"point": {"dim": d}, "error": message} for d in (2, 3)]


def zero_refreshed_hessians(monkeypatch):
    # no CG iterations allowed: every class takes its own Hessian at step 1,
    # and every Hessian built after the first one is all zeros
    hessian, calls = evaluation._hessian, []

    def zero_after_first(*args):
        calls.append(1)
        return hessian(*args) if len(calls) == 1 else np.zeros((len(args[0]),) * 2)

    monkeypatch.setattr(evaluation, "CG_CAP", 0)
    monkeypatch.setattr(evaluation, "_hessian", zero_after_first)
    return "the Newton system of class 0 at step 1 is singular: " \
        "l2 is too small to regularize linearly dependent feature columns"


def test_eval_singular_refreshed_newton_system_exit_2_naming_the_class(
    tmp_path, capsys, monkeypatch
):
    classes = [0, 1] * 10
    emb, labels, out = tmp_path / "e.txt", tmp_path / "l.txt", tmp_path / "ev"
    ids = write_one_hot_embedding(emb, classes)
    labels.write_text("".join(f"{i} c{c}\n" for i, c in zip(ids, classes)))
    message = zero_refreshed_hessians(monkeypatch)
    assert run_cli("eval", emb, labels, "--ratios", "0.5", "--reps", "1", "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: [evalkit] {message}\n"
    assert captured.out == "" and not out.exists()


def test_sweep_records_a_singular_refreshed_newton_system_as_a_failed_point(
    ring, tmp_path, capsys, monkeypatch
):
    edges, labels = ring
    out = tmp_path / "sweep"
    message = zero_refreshed_hessians(monkeypatch)
    code = run_cli("sweep", edges, labels, "--grid-dim", "2", "--reps", "1", "--out", out, *FAST)
    assert code == 1
    assert f"sweep point failed (dim=2): {message}\n" in capsys.readouterr().err
    failures = json.loads((out / "manifest.json").read_text())["failures"]
    assert failures == [{"point": {"dim": 2}, "error": message}]


# labels, a ratio and the nodes its training side holds
TOO_FEW_TRAINING_NODES = [
    (["a", "b"], 0.5, 1),
    (["rare"] + ["common"] * 5, 0.2, 1),
]


@pytest.mark.parametrize("names, ratio, size", TOO_FEW_TRAINING_NODES)
def test_eval_ratio_leaving_under_two_training_nodes_exit_2(tmp_path, capsys, names, ratio, size):
    emb = tmp_path / "e.txt"
    ids = write_one_hot_embedding(emb, [0, 1] * 3)
    labels = tmp_path / "l.txt"
    labels.write_text("".join(f"{i} {name}\n" for i, name in zip(ids, names)))
    out = tmp_path / "ev"
    assert run_cli("eval", emb, labels, "--ratios", f"0.5,{ratio}", "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: [evalkit] train ratio {ratio} leaves {size} of the {len(names)} labeled nodes "
        "for training; a fit needs at least 2, of two classes\n"
    )
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("names, ratio, size", TOO_FEW_TRAINING_NODES)
def test_sweep_ratio_leaving_under_two_training_nodes_exit_2_before_training(
    ring, tmp_path, capsys, monkeypatch, names, ratio, size
):
    def no_ppmi(*args, **kwargs):
        raise AssertionError("PPMI features built for a refused evaluation protocol")

    monkeypatch.setattr(cli, "ppmi_features", no_ppmi)
    edges, _ = ring
    labels = tmp_path / "l.txt"
    labels.write_text("".join(f"v{i} {name}\n" for i, name in enumerate(names)))
    out = tmp_path / "sweep"
    code = run_cli(
        "sweep", edges, labels, "--grid-dim", "2,3", "--ratios", str(ratio), "--out", out, *FAST
    )
    assert code == 2
    assert f"train ratio {ratio} leaves {size} of the {len(names)}" in capsys.readouterr().err
    assert not out.exists()


def test_eval_split_missing_a_class_after_every_redraw_exit_2(tmp_path, capsys):
    # two of 41 training nodes at ratio 0.05 miss the one node of class 1 on
    # every redraw of some split
    emb = tmp_path / "e.txt"
    ids = write_one_hot_embedding(emb, [0] * 40 + [1])
    labels = tmp_path / "l.txt"
    labels.write_text("".join(f"{i} {'b' if k == 40 else 'a'}\n" for k, i in enumerate(ids)))
    with pytest.warns(UserWarning, match="missing some class"):
        assert run_cli("eval", emb, labels, "--ratios", "0.05") == 2
    assert capsys.readouterr().err == (
        "error: [evalkit] need at least 2 classes present in the training data\n"
    )


def test_eval_negative_seed_exit_2(tmp_path, capsys):
    emb = tmp_path / "e.txt"
    classes = [0, 1, 0, 1]
    ids = write_one_hot_embedding(emb, classes)
    labels = tmp_path / "l.txt"
    labels.write_text("".join(f"{i} c{c}\n" for i, c in zip(ids, classes)))
    assert run_cli("eval", emb, labels, "--ratios", "0.5", "--reps", "1", "--seed", "-1") == 2
    captured = capsys.readouterr()
    assert "seed must be >= 0, got -1" in captured.err
    assert captured.out == ""


def test_eval_label_listed_twice_exit_2(tmp_path, capsys):
    emb = tmp_path / "e.txt"
    ids = write_one_hot_embedding(emb, [0, 1, 0, 1])
    labels = tmp_path / "l.txt"
    labels.write_text(f"{ids[0]} c0\n{ids[1]} c1\n{ids[2]} c0\n{ids[3]} c1\n{ids[0]} c1\n")
    assert run_cli("eval", emb, labels, "--ratios", "0.5", "--reps", "1") == 2
    assert f"l.txt:5: node '{ids[0]}' is labeled twice" in capsys.readouterr().err


def test_eval_one_class_labels_exit_2(tmp_path, capsys):
    emb = tmp_path / "e.txt"
    ids = write_one_hot_embedding(emb, [0, 1, 0, 1])
    labels = tmp_path / "l.txt"
    labels.write_text("".join(f"{i} only\n" for i in ids))
    assert run_cli("eval", emb, labels, "--ratios", "0.5", "--reps", "1") == 2
    assert "need at least 2 classes, every node is labeled 'only'" in capsys.readouterr().err


# sweep


def test_sweep_grid_dim(ring, tmp_path, capsys):
    edges, labels = ring
    out = tmp_path / "sweep"
    code = run_cli(
        "sweep", edges, labels, "--grid-dim", "2,3,4",
        "--ratios", "0.5", "--reps", "2", "--out", out, *FAST,
    )
    assert code == 0
    lines = (out / "sweep_results.tsv").read_text().strip().splitlines()
    assert lines[0].split("\t")[:2] == ["dim", "ratio"]
    assert len(lines) == 4
    assert [ln.split("\t")[0] for ln in lines[1:]] == ["2", "3", "4"]
    assert all(ln.split("\t")[-1] == "ok" for ln in lines[1:])
    for idx in range(3):
        assert (out / f"point_{idx:03d}" / "embedding.txt").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["grid"] == {"dim": [2, 3, 4]}
    assert manifest["protocol"] == {
        "ratios": [0.5], "repetitions": 2, "seed": 0, "l2": 1.0, "normalize": True,
    }
    assert manifest["failures"] == []


def test_sweep_cells_equal_eval_of_the_point_embedding_file(karate, tmp_path, capsys):
    # a sweep scores each point's in-memory float32 vectors; its embedding.txt
    # reloads them bit for bit, so ane eval with the sweep's protocol prints
    # the same accuracy cells
    edges, labels = karate
    out = tmp_path / "sweep"
    flags = ["--walks", "2", "--walk-length", "20", "--context", "4", "--epochs", "1"]
    protocol = ["--ratios", "0.5", "--reps", "2"]
    assert run_cli("sweep", edges, labels, "--grid-dim", "2,4", *flags, *protocol,
                   "--out", out) == 0
    ev = tmp_path / "ev"
    assert run_cli("eval", out / "point_001" / "embedding.txt", labels, *protocol,
                   "--out", ev) == 0
    capsys.readouterr()
    point = (out / "sweep_results.tsv").read_text().splitlines()[2].split("\t")
    assert point[0] == "4" and point[-1] == "ok"
    assert (ev / "accuracy.tsv").read_text().splitlines()[1].split("\t") == point[1:-1]


def test_sweep_grid_prior(ring, tmp_path):
    edges, labels = ring
    out = tmp_path / "sweep"
    code = run_cli(
        "sweep", edges, labels, "--grid-prior", "uniform,gaussian",
        "--ratios", "0.5", "--reps", "2", "--out", out, *FAST,
    )
    assert code == 0
    lines = (out / "sweep_results.tsv").read_text().strip().splitlines()
    assert [ln.split("\t")[0] for ln in lines[1:]] == ["uniform", "gaussian"]


def test_sweep_empty_grid_exit_2(ring, tmp_path, capsys):
    edges, labels = ring
    code = run_cli("sweep", edges, labels, "--out", tmp_path / "s", *FAST)
    assert code == 2
    assert "no sweep points" in capsys.readouterr().err


def failing_walks(walk_length):
    """``random_walks`` that fails at run time for walks of ``walk_length``."""

    def walks(graph, walks_per_node, length, rng):
        if length == walk_length:
            raise RuntimeError("the walk sampler failed")
        return random_walks(graph, walks_per_node, length, rng)

    return walks


def test_sweep_records_failures_and_continues(ring, tmp_path, capsys, monkeypatch):
    edges, labels = ring
    out = tmp_path / "sweep"
    # the first point fails when it trains, before its directory is made
    monkeypatch.setattr(embedder, "random_walks", failing_walks(12))
    code = run_cli(
        "sweep", edges, labels, "--grid-walk-length", "12,10",
        "--ratios", "0.5", "--reps", "2", "--out", out, *FAST,
    )
    assert code == 0
    assert "sweep point failed (walk_length=12)" in capsys.readouterr().err
    lines = (out / "sweep_results.tsv").read_text().strip().splitlines()
    statuses = [ln.split("\t")[-1] for ln in lines[1:]]
    assert statuses == ["failed", "ok"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["failures"]) == 1
    assert manifest["failures"][0]["point"] == {"walk_length": 12}
    assert not (out / "point_000").exists()
    assert (out / "point_001" / "embedding.txt").is_file()


@pytest.mark.parametrize(
    "grid, message",
    [
        (["--grid-dim", "2,0"], "sweep point (dim=0): dim must be >= 1, got 0"),
        (["--grid-prior", "uniform,cauchy"], "sweep point (prior=cauchy): prior must be one of"),
    ],
)
def test_sweep_invalid_grid_value_exit_2_before_training(ring, tmp_path, capsys, grid, message):
    edges, labels = ring
    out = tmp_path / "sweep"
    code = run_cli("sweep", edges, labels, *grid, "--out", out, *FAST)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not list(out.glob("point_*"))


def test_sweep_point_over_memory_exit_2_before_training(ring, tmp_path, capsys, monkeypatch):
    def no_ppmi(*args, **kwargs):
        raise AssertionError("PPMI features built before every point's memory plan")

    monkeypatch.setattr(cli, "ppmi_features", no_ppmi)
    edges, labels = ring
    out = tmp_path / "sweep"
    code = run_cli("sweep", edges, labels, "--grid-dim", "4,1000000000000", "--out", out, *FAST)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "error: sweep point (dim=1000000000000): Training arrays of aidw on 12 x 12 features"
    )
    assert err.endswith("; lower --dim\n")
    assert not list(out.glob("point_*"))


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--reps", "0"], "repetitions must be >= 1"),
        (["--ratios", "1.5"], "train ratio must be in (0, 1)"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
    ],
)
def test_sweep_bad_evaluation_settings_exit_2_before_training(
    ring, tmp_path, capsys, flags, message
):
    edges, labels = ring
    out = tmp_path / "sweep"
    code = run_cli("sweep", edges, labels, "--grid-dim", "2,3", "--out", out, *FAST, *flags)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not list(out.glob("point_*"))


def test_sweep_missing_features_file_exit_2_before_training(ring, tmp_path, capsys):
    edges, labels = ring
    out = tmp_path / "sweep"
    missing = tmp_path / "nope.txt"
    code = run_cli(
        "sweep", edges, labels, "--grid-dim", "2,3", "--features", missing, "--out", out, *FAST
    )
    assert code == 2
    assert f"file not found: {missing}" in capsys.readouterr().err
    assert not (out / "point_000").exists()


def test_sweep_one_class_labels_exit_2_before_training(ring, tmp_path, capsys):
    edges, _ = ring
    labels = tmp_path / "one.labels"
    labels.write_text("".join(f"v{i} only\n" for i in range(12)))
    out = tmp_path / "sweep"
    code = run_cli("sweep", edges, labels, "--grid-dim", "2,3", "--out", out, *FAST)
    assert code == 2
    assert "need at least 2 classes, every node is labeled 'only'" in capsys.readouterr().err
    assert not list(out.glob("point_*"))


def test_sweep_trains_every_point_on_the_features_file(ring, tmp_path):
    edges, labels = ring
    features = write_ring_features(tmp_path / "features.txt", range(12))
    out = tmp_path / "sweep"
    code = run_cli(
        "sweep", edges, labels, "--grid-dim", "2,3", "--features", features,
        "--ratios", "0.5", "--reps", "1", "--out", out, *FAST,
    )
    assert code == 0
    for idx in range(2):
        point = json.loads((out / f"point_{idx:03d}" / "manifest.json").read_text())
        assert point["dataset"]["features"] == str(features.resolve())
    assert json.loads((out / "manifest.json").read_text())["dataset"]["features"] == str(
        features.resolve()
    )
    single = tmp_path / "single"
    code = run_cli("embed", edges, "--features", features, "--out", single, *FAST, "--dim", "2")
    assert code == 0
    assert (out / "point_000" / "embedding.txt").read_bytes() == (
        single / "embedding.txt"
    ).read_bytes()


@pytest.mark.parametrize("l2, shown", BAD_L2, ids=[flag for flag, _ in BAD_L2])
def test_sweep_bad_l2_exit_2_before_training(ring, tmp_path, capsys, monkeypatch, l2, shown):
    def no_ppmi(*args, **kwargs):
        raise AssertionError("PPMI features built for a refused evaluation protocol")

    monkeypatch.setattr(cli, "ppmi_features", no_ppmi)
    monkeypatch.setattr(embedder, "ppmi_features", no_ppmi)
    edges, labels = ring
    out = tmp_path / "sweep"
    code = run_cli("sweep", edges, labels, "--grid-dim", "2,3", "--out", out, *FAST, "--l2", l2)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: [evalkit] l2 must be a finite number > 0, got {shown}\n"
    assert captured.out == ""
    assert not (out / "point_000").exists() and not out.exists()


def test_sweep_builds_ppmi_features_once(ring, tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return ppmi_features(*args, **kwargs)

    monkeypatch.setattr(cli, "ppmi_features", counted)
    monkeypatch.setattr(embedder, "ppmi_features", counted)
    edges, labels = ring
    out = tmp_path / "sweep"
    code = run_cli(
        "sweep", edges, labels, "--grid-dim", "2,3", "--ratios", "0.5", "--reps", "1",
        "--out", out, *FAST,
    )
    assert code == 0
    assert len(calls) == 1
    monkeypatch.undo()
    for idx, dim in enumerate(["2", "3"]):
        single = tmp_path / f"single_{dim}"
        assert run_cli("embed", edges, "--out", single, *FAST, "--dim", dim) == 0
        assert (out / f"point_{idx:03d}" / "embedding.txt").read_bytes() == (
            single / "embedding.txt"
        ).read_bytes()


def test_sweep_all_points_failed_exit_1(ring, tmp_path, capsys, monkeypatch):
    edges, labels = ring
    monkeypatch.setattr(embedder, "random_walks", failing_walks(12))
    code = run_cli(
        "sweep", edges, labels, "--grid-walk-length", "12",
        "--ratios", "0.5", "--reps", "2", "--out", tmp_path / "s", *FAST,
    )
    assert code == 1


def no_loading(*args, **kwargs):
    raise AssertionError("an input was read for a refused --out")


@pytest.mark.parametrize("command", ["embed", "eval", "sweep"])
@pytest.mark.parametrize("out", ["F", "F/sub"])
def test_out_that_is_a_file_exit_2_before_any_work(ring, tmp_path, capsys, monkeypatch, command,
                                                  out):
    monkeypatch.setattr(cli, "load_edge_list", no_loading)
    monkeypatch.setattr(cli, "load_embeddings", no_loading)
    edges, labels = ring
    (tmp_path / "F").write_text("kept\n")
    inputs = {
        "embed": [edges],
        "eval": [edges, labels],  # never read, so any existing file serves
        "sweep": [edges, labels, "--grid-dim", "2"],
    }[command]
    assert run_cli(command, *inputs, "--out", tmp_path / out) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --out {tmp_path / out}: {tmp_path / 'F'} is not a directory\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["F", "ring.edges", "ring.labels"]
    assert (tmp_path / "F").read_text() == "kept\n"


def test_no_subcommand_exit_2(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ane.cli", "embed", str(tmp_path / "missing.edges")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "file not found" in proc.stderr
