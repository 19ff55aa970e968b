"""Acceptance gate: end-to-end checks with explicit tolerances and budgets.

Each test prints one ``[criterion N] PASS/FAIL/SKIP`` line with the measured
quantity next to its allowed bound, so ``pytest tests/test_acceptance.py -s``
reads as a checklist. The two large-corpus checks skip with instructions when
the dataset has not been fetched.
"""

import math
import time

import numpy as np
import pytest
import scipy.stats

from ane.datasets import dataset_paths, load_dataset
from ane.embedder import (
    TrainConfig,
    Trainer,
    build_decoder,
    build_discriminator,
    build_generator,
    dae_batch_loss,
    discriminator_loss,
    export_embeddings,
    generator_adversarial_loss,
    idw_batch_loss,
    train,
)
from ane.evaluation import SplitSpec, evaluate, load_labels
from ane.graph import load_edge_list, preprocess
from ane.nn import gradient_check
from ane.proximity import accumulate_powers, shifted_ppmi
from ane.walker import AliasTable, PairBatch, negative_sampler


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {criterion}] {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def skip(criterion, reason):
    print(f"\n[criterion {criterion}] SKIP - {reason}")
    pytest.skip(reason)


# ---------------------------------------------------------------------------
# shared karate artifacts


@pytest.fixture(scope="module")
def karate():
    graph, labels_path = load_dataset("karate")
    label_set = load_labels(labels_path, graph.index_of)
    return graph, label_set


SMALL = dict(
    dim=8,
    epochs=2,
    batch_size=256,
    adv_batch_size=32,
    walks_per_node=4,
    walk_length=10,
    context_size=3,
    seed=11,
)


@pytest.fixture(scope="module")
def reduction_runs(karate):
    """idw, aidw with the adversary disabled, dae, adae likewise; plus timing."""
    graph, _ = karate
    t0 = time.perf_counter()
    runs = {}
    for model, extra in (
        ("idw", {}),
        ("aidw", dict(disc_steps=0, gen_steps=0)),
        ("dae", {}),
        ("adae", dict(disc_steps=0, gen_steps=0)),
    ):
        cfg = TrainConfig(model=model, **SMALL, **extra)
        runs[model] = train(graph, cfg)
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def karate_2d_run(karate):
    """Adversarial run at dim 2 plus the structure loss at the initial
    parameters, measured on an identically seeded twin before any update."""
    graph, _ = karate
    cfg = TrainConfig(
        model="aidw",
        dim=2,
        epochs=20,
        batch_size=512,
        adv_batch_size=64,
        walks_per_node=10,
        walk_length=20,
        context_size=4,
        seed=0,
    )
    probe = Trainer(graph, cfg)
    skipgram = probe.objective
    rng = np.random.default_rng(999)
    batches = skipgram.batches(rng)
    initial = float(
        np.mean([idw_batch_loss(probe.gen_g, skipgram.gen_f, b, probe.features) for b in batches])
    )
    t0 = time.perf_counter()
    embedding, log = train(graph, cfg)
    elapsed = time.perf_counter() - t0
    return initial, embedding, log, elapsed


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients match central finite differences


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    feats = rng.standard_normal((8, 6))
    worst = {}

    gen_g = build_generator(6, 3, rng)
    gen_f = build_generator(6, 3, rng)
    batch = PairBatch(
        targets=np.array([0, 1, 2, 3, 4, 5]),
        contexts=np.array([1, 2, 3, 4, 5, 6]),
        negatives=rng.integers(0, 8, size=(6, 3)),
    )
    worst["structure"] = gradient_check(
        [gen_g, gen_f], lambda: idw_batch_loss(gen_g, gen_f, batch, feats)
    )

    disc = build_discriminator(3, rng, hidden=8)
    real = rng.uniform(-1.0, 1.0, size=(5, 3))
    fake = rng.standard_normal((5, 3))
    worst["discriminator"] = gradient_check(disc, lambda: discriminator_loss(disc, real, fake))

    gen_a = build_generator(6, 3, rng)
    frozen = build_discriminator(3, rng, hidden=8)
    x_rows = feats[:5]
    worst["generator"] = gradient_check(
        gen_a, lambda: generator_adversarial_loss(gen_a, frozen, x_rows)
    )

    enc = build_generator(6, 3, rng)
    dec = build_decoder(3, 6, rng)
    worst["reconstruction"] = gradient_check(
        [enc, dec],
        lambda: dae_batch_loss(enc, dec, feats[:5], 0.3, np.random.default_rng(11)),
    )

    elapsed = time.perf_counter() - t0
    worst_err = max(worst.values())
    detail = (
        f"max relative gradient error {worst_err:.2e} < 1e-4 "
        f"({', '.join(f'{k} {v:.1e}' for k, v in worst.items())}) "
        f"in {elapsed:.1f}s < 30s"
    )
    report(1, worst_err < 1e-4 and elapsed < 30.0, detail)


# ---------------------------------------------------------------------------
# criterion 2: matrix pipeline vs a per-cell scalar oracle


def scalar_pipeline(adj, steps, beta):
    """Plain-Python mirror of the row-normalize / power-accumulate / shift pipeline."""
    n = len(adj)
    p = [[adj[i][j] / sum(adj[i]) for j in range(n)] for i in range(n)]
    power = [row[:] for row in p]
    acc = [row[:] for row in p]
    for _ in range(steps - 1):
        nxt = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                s = 0.0
                for k in range(n):
                    s += power[i][k] * p[k][j]
                nxt[i][j] = s
        power = nxt
        for i in range(n):
            for j in range(n):
                acc[i][j] += power[i][j]
    col = [sum(acc[i][j] for i in range(n)) for j in range(n)]
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if acc[i][j] > 0.0 and col[j] > 0.0:
                out[i][j] = max(math.log(acc[i][j] / col[j]) - math.log(beta), 0.0)
    return np.array(out)


def test_criterion_2_ppmi_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    worst = 0.0
    for case in range(50):
        n = int(rng.integers(2, 13))
        steps = int(rng.integers(1, 5))
        adj = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
        adj = np.maximum(adj, adj.T)
        for i in range(n):
            if adj[i].sum() == 0.0:
                j = (i + 1) % n
                adj[i, j] = adj[j, i] = rng.random() + 0.1
        beta = 1.0 / n if case % 2 == 0 else float(rng.uniform(0.01, 2.0 / n))
        transition = adj / adj.sum(axis=1, keepdims=True)
        acc = accumulate_powers(transition, steps)
        got = shifted_ppmi(acc, beta)
        want = scalar_pipeline(adj.tolist(), steps, beta)
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst < 1e-9 and elapsed < 10.0,
        f"50 random graphs, max cell deviation {worst:.2e} < 1e-9 in {elapsed:.1f}s < 10s",
    )


# ---------------------------------------------------------------------------
# criterion 3: sampler goodness of fit


def test_criterion_3_sampling_fidelity(karate):
    t0 = time.perf_counter()
    draws = 1_000_000

    weights = np.array([5.0, 1.0, 3.0, 0.5, 2.0, 8.0, 0.2, 4.0])
    table = AliasTable(weights)
    counts = np.bincount(
        table.sample(np.random.default_rng(2024), np.zeros(draws, dtype=np.int64)), minlength=8
    )
    p_alias = scipy.stats.chisquare(counts, draws * weights / weights.sum()).pvalue

    graph, _ = karate
    noise = negative_sampler(graph)
    expected = graph.degrees() ** 0.75
    expected = draws * expected / expected.sum()
    counts = np.bincount(
        noise.sample(np.random.default_rng(2025), np.zeros(draws, dtype=np.int64)),
        minlength=len(expected),
    )
    p_noise = scipy.stats.chisquare(counts, expected).pvalue

    elapsed = time.perf_counter() - t0
    report(
        3,
        min(p_alias, p_noise) >= 0.001 and elapsed < 20.0,
        f"chi-square p-values {p_alias:.3f} (alias) and {p_noise:.3f} (noise) >= 0.001 "
        f"at 1e6 draws in {elapsed:.1f}s < 20s",
    )


# ---------------------------------------------------------------------------
# criterion 4: disabling the adversary reduces to the plain models exactly


def test_criterion_4_reduction_identity(reduction_runs):
    runs, elapsed = reduction_runs
    pairs = (("aidw", "idw"), ("adae", "dae"))
    same = {}
    for adv, plain in pairs:
        a, b = runs[adv][0], runs[plain][0]
        same[f"{adv}={plain}"] = a.vectors.tobytes() == b.vectors.tobytes() and a.ids == b.ids
    report(
        4,
        all(same.values()) and elapsed < 60.0,
        f"bit-identical embeddings {same} in {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# criterion 5: 2-d adversarial embedding separates the karate factions


def test_criterion_5_karate_two_communities(karate, karate_2d_run):
    _, label_set = karate
    initial, embedding, log, elapsed = karate_2d_run
    final = log.records[-1].structure_loss
    results = evaluate(
        embedding.vectors, label_set, SplitSpec(ratios=(0.5,), repetitions=10, seed=0)
    )
    acc = results[0].mean_accuracy
    ok = final < 0.5 * initial and acc >= 0.85 and elapsed < 120.0
    report(
        5,
        ok,
        f"structure loss {final:.3f} < 50% of initial {initial:.3f}, "
        f"faction accuracy {100 * acc:.1f}% >= 85% at 50% train over 10 splits, "
        f"trained in {elapsed:.1f}s < 120s",
    )


# ---------------------------------------------------------------------------
# criteria 6 and 7: citation-graph reproduction (needs the fetched dataset)


CORA_HINT = "fetch it with: python scripts/fetch_datasets.py cora (then re-run)"
_cora_cache = {}


def cora_runs(criterion):
    try:
        edges_path, labels_path = dataset_paths("cora")
    except FileNotFoundError:
        skip(criterion, f"cora dataset not present; {CORA_HINT}")
    if labels_path is None:
        skip(criterion, f"cora labels not present; {CORA_HINT}")
    if not _cora_cache:
        graph = preprocess(load_edge_list(edges_path))
        label_set = load_labels(labels_path, graph.index_of)
        for model in ("idw", "aidw"):
            cfg = TrainConfig(
                model=model,
                dim=128,
                negatives=5,
                epochs=1,
                batch_size=8192,
                adv_batch_size=128,
                walks_per_node=10,
                walk_length=80,
                context_size=10,
                ppmi_steps=4,
                seed=0,
            )
            t0 = time.perf_counter()
            embedding, _ = train(graph, cfg)
            elapsed = time.perf_counter() - t0
            res = evaluate(
                embedding.vectors, label_set, SplitSpec(ratios=(0.5,), repetitions=10, seed=0)
            )
            _cora_cache[model] = (100.0 * res[0].mean_accuracy, elapsed)
    return _cora_cache


def test_criterion_6_cora_accuracy_bands():
    runs = cora_runs(6)
    (acc_idw, t_idw), (acc_aidw, t_aidw) = runs["idw"], runs["aidw"]
    ok = (
        73.7 <= acc_idw <= 81.7
        and 78.3 <= acc_aidw <= 86.3
        and max(t_idw, t_aidw) <= 1800.0
    )
    report(
        6,
        ok,
        f"50%-ratio 10-run means: idw {acc_idw:.2f}% in [73.7, 81.7], "
        f"aidw {acc_aidw:.2f}% in [78.3, 86.3]; "
        f"train times {t_idw:.0f}s / {t_aidw:.0f}s <= 1800s each",
    )


def test_criterion_7_adversarial_benefit():
    runs = cora_runs(7)
    margin = runs["aidw"][0] - runs["idw"][0]
    report(
        7,
        margin >= 2.0,
        f"aidw beats idw by {margin:.2f} points at the 50% ratio (needs >= 2.0)",
    )


# ---------------------------------------------------------------------------
# criterion 8: byte-identical artifacts across reruns


def test_criterion_8_determinism(karate, tmp_path):
    graph, _ = karate
    cfg = TrainConfig(model="aidw", **{**SMALL, "seed": 42})
    blobs = []
    for tag in ("a", "b"):
        embedding, log = train(graph, cfg)
        emb_path = tmp_path / f"embedding_{tag}.txt"
        log_path = tmp_path / f"log_{tag}.txt"
        export_embeddings(embedding, emb_path)
        log.save(log_path)
        blobs.append((emb_path.read_bytes(), log_path.read_bytes()))
    same_emb = blobs[0][0] == blobs[1][0]
    same_log = blobs[0][1] == blobs[1][1]
    report(
        8,
        same_emb and same_log,
        f"two identically seeded runs: embedding files identical={same_emb}, "
        f"training logs identical={same_log}",
    )


# ---------------------------------------------------------------------------
# criterion 9: batch-norm statistics stay standardized on every logged cycle


def test_criterion_9_batch_norm_invariant(reduction_runs, karate_2d_run):
    runs, _ = reduction_runs
    logs = {model: log for model, (_, log) in runs.items()}
    logs["aidw-2d"] = karate_2d_run[2]
    worst_mean = 0.0
    worst_var = 0.0
    cycles = 0
    for log in logs.values():
        for rec in log.records:
            worst_mean = max(worst_mean, rec.bn_mean_abs)
            worst_var = max(worst_var, rec.bn_var_err)
            cycles += 1
    report(
        9,
        worst_mean < 1e-6 and worst_var < 1e-4,
        f"across {cycles} logged cycles in {len(logs)} runs: "
        f"worst |mean| {worst_mean:.2e} < 1e-6, worst |var-1| {worst_var:.2e} < 1e-4",
    )
