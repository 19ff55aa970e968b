import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from scipy import sparse

from ane import embedder, nn, proximity
from ane.datasets import load_dataset
from ane.embedder import (
    MODEL_KINDS,
    OBJECTIVES,
    PRIORS,
    EmbeddingMatrix,
    SkipGram,
    TrainConfig,
    Trainer,
    TrainingDiverged,
    build_decoder,
    build_discriminator,
    build_generator,
    dae_batch_loss,
    discriminator_loss,
    export_embeddings,
    generator_adversarial_loss,
    idw_batch_loss,
    load_embeddings,
    train,
)
from ane.graph import GraphError, InputError, parse_edge_lines, preprocess
from ane.nn import DenseLayer, GradientError, gradient_check, logistic_loss, sigmoid
from ane.proximity import ppmi_features
from ane.walker import PairBatch, positive_pairs, random_walks


def zero_params(net):
    net.params[...] = 0.0


def ring_graph(n):
    return preprocess(parse_edge_lines([f"{i} {(i + 1) % n}" for i in range(n)]))


def tiny_batch(rng, n_nodes, b, k):
    return PairBatch(
        targets=rng.integers(n_nodes, size=b).astype(np.int32),
        contexts=rng.integers(n_nodes, size=b).astype(np.int32),
        negatives=rng.integers(n_nodes, size=(b, k)),
    )


# prior


def test_prior_shapes_and_ranges():
    rng = np.random.default_rng(0)
    u = PRIORS["uniform"](rng, 500, 4)
    assert u.shape == (500, 4)
    assert (u >= -1).all() and (u <= 1).all()
    g = PRIORS["gaussian"](rng, 500, 4)
    assert g.shape == (500, 4)
    assert abs(g.mean()) < 0.2 and abs(g.std() - 1.0) < 0.2


# config


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(model="word2vec")
    with pytest.raises(ValueError):
        TrainConfig(dim=0)
    with pytest.raises(ValueError):
        TrainConfig(disc_steps=-1)
    with pytest.raises(ValueError):
        TrainConfig(dae_corruption=1.0)
    with pytest.raises(ValueError, match="adv_batch_size"):
        TrainConfig(adv_batch_size=1)
    with pytest.raises(ValueError, match="batch_size must be >= 2"):
        TrainConfig(batch_size=1)
    with pytest.raises(ValueError, match="negatives"):
        TrainConfig(negatives=0)
    for model in ("idw", "aidw"):
        with pytest.raises(ValueError, match="context_size"):
            TrainConfig(model=model, context_size=1)
        with pytest.raises(ValueError, match="walk_length"):
            TrainConfig(model=model, walk_length=1)
    # the autoencoder models draw no walks
    TrainConfig(model="dae", context_size=1, walk_length=1)
    for model in MODEL_KINDS:
        with pytest.raises(ValueError, match="prior"):
            TrainConfig(model=model, prior="cauchy")
    for lr in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=lr)
    for clip in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="grad_clip"):
            TrainConfig(grad_clip=clip)
    TrainConfig(grad_clip=float("inf"))  # no clipping


def test_config_digest_stable_and_sensitive():
    a = TrainConfig(seed=1)
    b = TrainConfig(seed=1)
    c = TrainConfig(seed=2)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_adversarial_property():
    assert TrainConfig(model="aidw").adversarial
    assert TrainConfig(model="adae").adversarial
    assert not TrainConfig(model="idw").adversarial
    assert not TrainConfig(model="dae").adversarial


# structure loss


def sgns_loss(pos_scores, neg_scores):
    """The skip-gram objective as ``idw_batch_loss`` takes it: the positive
    column against label 1, the negatives against label 0, averaged over
    the pairs; returns the loss and both score gradients."""
    b = pos_scores.shape[0]
    loss_pos, grad_pos = logistic_loss(pos_scores, 1)
    loss_neg, grad_neg = logistic_loss(neg_scores, 0)
    return (loss_pos + loss_neg) / b, grad_pos / b, grad_neg / b


def test_sgns_loss_zero_scores_hand_value():
    # sigma(0) = 0.5 for the positive and each of K=5 negatives: 6 ln 2
    loss, _, _ = sgns_loss(np.zeros(3), np.zeros((3, 5)))
    assert loss == pytest.approx(6 * math.log(2), rel=1e-12)


def test_sgns_loss_separated_scores_saturates():
    loss, _, _ = sgns_loss(np.array([50.0]), np.array([[-50.0] * 5]))
    assert loss < 1e-20


def test_sgns_gradient_signs():
    loss, grad_pos, grad_neg = sgns_loss(np.array([0.3]), np.array([[0.1, -0.2]]))
    assert grad_pos[0] < 0  # raising a positive score lowers the loss
    assert (grad_neg > 0).all()  # raising a negative score raises the loss


@pytest.mark.parametrize("shape", [(1,), (50,), (8192, 6)])
def test_unique_nodes_equals_np_unique(shape):
    nodes = np.random.default_rng(4).integers(2708, size=shape).astype(np.int32)
    want_nodes, want_pos = np.unique(nodes, return_inverse=True)
    got_nodes, got_pos = embedder._unique_nodes(nodes, 2708)
    np.testing.assert_array_equal(got_nodes, want_nodes)
    np.testing.assert_array_equal(got_pos, want_pos.reshape(shape))


def test_idw_loss_zero_networks_hand_value():
    rng = np.random.default_rng(1)
    gen_g = build_generator(6, 3, rng)
    gen_f = build_generator(6, 3, rng)
    zero_params(gen_g)
    zero_params(gen_f)
    feats = rng.random((6, 6))
    batch = tiny_batch(rng, 6, 4, 5)
    loss = idw_batch_loss(gen_g, gen_f, batch, feats)
    assert loss == pytest.approx(6 * math.log(2), rel=1e-12)


def test_idw_loss_batch_average_scale():
    rng = np.random.default_rng(2)
    gen_g = build_generator(5, 3, rng)
    gen_f = build_generator(5, 3, rng)
    feats = rng.random((5, 5))
    b1 = tiny_batch(rng, 5, 8, 2)
    loss = idw_batch_loss(gen_g, gen_f, b1, feats)
    assert np.isfinite(loss) and loss > 0


def test_idw_loss_gradients_with_repeated_rows():
    rng = np.random.default_rng(3)
    gen_g = build_generator(6, 3, rng)
    gen_f = build_generator(6, 3, rng)
    feats = rng.standard_normal((8, 6))
    batch = PairBatch(
        targets=np.array([0, 0, 1, 2, 2, 2]),  # repeated targets
        contexts=np.array([1, 3, 4, 5, 6, 7]),
        negatives=np.array(
            [
                [1, 5, 6],  # the pair's own context among its negatives
                [4, 4, 7],  # one negative drawn twice
                [0, 1, 2],
                [3, 3, 3],
                [6, 0, 5],
                [7, 2, 7],
            ]
        ),
    )
    worst = gradient_check([gen_g, gen_f], lambda: idw_batch_loss(gen_g, gen_f, batch, feats))
    assert worst < 1e-4


def test_idw_negative_score_blocks_bit_equal_to_one_gather(monkeypatch):
    # 1 000 pairs span four blocks of NEG_BLOCK = 256 and a partial one
    rng = np.random.default_rng(12)
    feats = sparse.csr_array(rng.random((60, 30)) * (rng.random((60, 30)) < 0.2))
    batch = tiny_batch(rng, 60, 1000, 5)

    def run():
        nets = [build_generator(30, 4, np.random.default_rng(13)) for _ in range(2)]
        loss = idw_batch_loss(*nets, batch, feats)
        return loss, [net.grads.copy() for net in nets]

    assert embedder.NEG_BLOCK < len(batch) // 3
    loss, grads = run()
    monkeypatch.setattr(embedder, "NEG_BLOCK", len(batch))
    whole_loss, whole_grads = run()
    assert loss == whole_loss
    for got, want in zip(grads, whole_grads):
        np.testing.assert_array_equal(got, want)


def test_idw_row_gradients_match_scatter_reference():
    n, d, b, k = 40, 5, 300, 4
    rng = np.random.default_rng(4)
    table = rng.standard_normal((n, d))

    class Recorder:
        """Linear stand-in for a generator: feature rows are one-hot, so a
        node's output is its row of ``table``; backward keeps its input."""

        def forward(self, x):
            return x @ table

        def backward(self, grad, input_grad=True):
            self.grad = grad

    batch = tiny_batch(rng, n, b, k)
    gen_g, gen_f = Recorder(), Recorder()
    loss = idw_batch_loss(gen_g, gen_f, batch, np.eye(n))

    # reference: per-pair gradients scattered row by row with np.add.at
    tgt_nodes, tgt_pos = np.unique(batch.targets, return_inverse=True)
    ctx_nodes, ctx_pos = np.unique(
        np.concatenate([batch.contexts, batch.negatives.ravel()]), return_inverse=True
    )
    u = table[tgt_nodes][tgt_pos]
    v_pos = table[ctx_nodes][ctx_pos[:b]]
    v_neg = table[ctx_nodes][ctx_pos[b:].reshape(b, k)]
    ref_loss, grad_pos, grad_neg = sgns_loss(
        (u * v_pos).sum(axis=1), np.einsum("bd,bkd->bk", u, v_neg)
    )
    grad_u_rows = np.zeros((tgt_nodes.size, d))
    grad_u = grad_pos[:, None] * v_pos + (grad_neg[:, :, None] * v_neg).sum(axis=1)
    np.add.at(grad_u_rows, tgt_pos, grad_u)
    grad_v_rows = np.zeros((ctx_nodes.size, d))
    np.add.at(grad_v_rows, ctx_pos[:b], grad_pos[:, None] * u)
    np.add.at(grad_v_rows, ctx_pos[b:], (grad_neg[:, :, None] * u[:, None, :]).reshape(b * k, d))

    assert loss == ref_loss
    np.testing.assert_allclose(gen_g.grad, grad_u_rows, rtol=1e-12, atol=0)
    np.testing.assert_allclose(gen_f.grad, grad_v_rows, rtol=1e-12, atol=0)


def step_peak(step):
    """Bytes ``step()`` allocates above what was held before it, after one warm-up call."""
    step()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        step()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_idw_step_holds_no_array_with_a_row_per_pair():
    # B = 8192 pairs over 200 nodes: the unique rows are few, so a B x d
    # float64 array (8.4 MB) alone would exceed the whole step's peak
    b, k, d, n = 8192, 5, 128, 200
    rng = np.random.default_rng(17)
    feats = sparse.csr_array(rng.random((n, n)) * (rng.random((n, n)) < 0.05))
    gen_g, gen_f = build_generator(n, d, rng), build_generator(n, d, rng)
    batch = tiny_batch(rng, n, b, k)
    # after the warm-up call, gradients and caches exist
    assert step_peak(lambda: idw_batch_loss(gen_g, gen_f, batch, feats)) < b * d * 8


def test_idw_step_leaves_no_feature_gather_behind():
    # each generator's first layer multiplies the batch's gathered CSR
    # feature rows; once backward is done nothing may hold them
    b, k, d, n = 1024, 5, 16, 1500
    rng = np.random.default_rng(18)
    feats = sparse.csr_array(rng.random((n, n)) * (rng.random((n, n)) < 0.1))
    gen_g, gen_f = build_generator(n, d, rng), build_generator(n, d, rng)
    batch = tiny_batch(rng, n, b, k)
    gather = feats[np.unique(batch.targets)]  # the target generator's input, 1.4 MB
    gather_bytes = gather.data.nbytes + gather.indices.nbytes + gather.indptr.nbytes
    idw_batch_loss(gen_g, gen_f, batch, feats)  # warm up: gradients exist
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        idw_batch_loss(gen_g, gen_f, batch, feats)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    # what stays is the new gradients and the batch-norm caches (0.7 MB);
    # the two gathers and the masks kept the step's holdings at 4.7 MB
    assert held < gather_bytes
    for net in (gen_g, gen_f):
        assert net.layers[0]._input is None and net.layers[1]._mask is None


# float32 training


def record_outputs(nets):
    """Wrap every layer's forward and backward so each returned array is kept."""
    seen = []
    for net in nets:
        for layer in net.layers:
            for name in ("forward", "backward"):
                method = getattr(layer, name)

                def wrapped(*args, _method=method, _name=f"{type(layer).__name__}.{name}",
                            **kwargs):
                    out = _method(*args, **kwargs)
                    if out is not None:
                        seen.append((_name, out.dtype))
                    return out

                setattr(layer, name, wrapped)
    return seen


@pytest.mark.parametrize("model", MODEL_KINDS)
def test_a_training_step_is_float32_throughout(model):
    g = ring_graph(12)
    cfg = TrainConfig(
        model=model, dim=4, epochs=1, batch_size=16, adv_batch_size=8,
        walks_per_node=2, walk_length=6, context_size=2, seed=5,
    )
    trainer = Trainer(g, cfg)
    nets = trainer.structure_nets + ([trainer.disc] if trainer.disc else [])
    seen = record_outputs(nets)
    trainer._structure_step(next(trainer.objective.batches(trainer.rng_batches)))
    if cfg.adversarial:
        trainer._disc_step()
        trainer._gen_step()
    # the export pass reads the same rows through the same layers
    assert trainer.embeddings().vectors.dtype == np.float32
    # a generator's dense layer returns no input gradient; its weight
    # gradients are checked below with every other parameter gradient
    names = {name for name, _ in seen}
    assert {"DenseLayer.forward", "LeakyRelu.forward", "LeakyRelu.backward",
            "BatchNorm.forward", "BatchNorm.backward"} <= names
    assert [(name, dtype) for name, dtype in seen if dtype != np.float32] == []
    opts = [trainer.structure_opt]
    if trainer.disc:
        opts += [trainer.disc_opt, trainer.gen_adv_opt]
    for net in nets:
        assert {net.params.dtype, net.grads.dtype} == {np.dtype(np.float32)}
    for opt in opts:
        assert {a.dtype for a in opt.acc} == {np.dtype(np.float32)}
    assert trainer.features.dtype == np.float32


def float_twins(build, seed, *args, **kwargs):
    """A float32 network and a float64 one with the same (float32) weights."""
    net32 = build(*args, np.random.default_rng(seed), dtype=np.float32, **kwargs)
    net64 = build(*args, np.random.default_rng(seed), **kwargs)
    net64.params[...] = net32.params
    return net32, net64


def test_float32_gradients_match_float64_on_the_criterion_1_losses():
    rng = np.random.default_rng(7)
    feats = rng.standard_normal((8, 6)).astype(np.float32)
    batch = PairBatch(
        targets=np.array([0, 1, 2, 3, 4, 5]),
        contexts=np.array([1, 2, 3, 4, 5, 6]),
        negatives=rng.integers(0, 8, size=(6, 3)),
    )
    real = rng.uniform(-1.0, 1.0, size=(5, 3)).astype(np.float32)
    fake = rng.standard_normal((5, 3)).astype(np.float32)
    gen_g, gen_f, gen_a, enc = (float_twins(build_generator, s, 6, 3) for s in (1, 2, 3, 4))
    disc, frozen = (float_twins(build_discriminator, s, 3, hidden=8) for s in (5, 6))
    dec = float_twins(build_decoder, 7, 3, 6)

    def gradients(nets):
        # array by array, so no small gradient hides in its network's norm
        return [getattr(layer, f"grad_{name}").astype(np.float64)
                for net in nets for layer in net.layers for name in layer.PARAMS]

    worst = {}
    for name, nets, step in [
        ("structure", (gen_g, gen_f), lambda g, f, x: idw_batch_loss(g, f, batch, x)),
        ("discriminator", (disc,), lambda d, x: discriminator_loss(d, *(
            z.astype(x.dtype) for z in (real, fake)))),
        ("generator", (gen_a, frozen), lambda g, d, x: generator_adversarial_loss(g, d, x[:5])),
        ("reconstruction", (enc, dec), lambda e, d, x: dae_batch_loss(
            e, d, x[:5], 0.3, np.random.default_rng(11))),
    ]:
        grads = {}
        for i, dtype in enumerate((np.float32, np.float64)):
            side = [pair[i] for pair in nets]
            loss = step(*side, feats.astype(dtype))
            assert isinstance(loss, float)
            trained = side[:1] if name == "generator" else side
            grads[dtype] = gradients(trained)
        worst[name] = max(
            np.linalg.norm(g32 - g64) / np.linalg.norm(g64)
            for g32, g64 in zip(grads[np.float32], grads[np.float64])
            if np.linalg.norm(g64) > 0
        )
    assert max(worst.values()) < 1e-3, worst


# adversarial losses


def test_discriminator_loss_untrained_half_hand_value():
    rng = np.random.default_rng(3)
    disc = build_discriminator(4, rng, hidden=8)
    zero_params(disc)
    real = rng.normal(size=(6, 4))
    fake = rng.normal(size=(6, 4))
    loss = discriminator_loss(disc, real, fake)
    assert loss == pytest.approx(2 * math.log(2), rel=1e-12)


def test_discriminator_loss_requires_equal_batches():
    rng = np.random.default_rng(4)
    disc = build_discriminator(3, rng, hidden=8)
    with pytest.raises(ValueError, match="must match"):
        discriminator_loss(disc, rng.normal(size=(4, 3)), rng.normal(size=(5, 3)))


def test_discriminator_loss_saturated_perfect():
    # a perfect discriminator: logits of +-800 follow the sign of the input
    # sum, so sigmoid rounds to exactly 1 on every real sample and exactly 0
    # on every fake one; the loss is ~0 and the gradient sigmoid - label is
    # exactly 0, with no clamp involved
    class SignDisc:
        def __init__(self):
            self.grads = np.zeros(1)

        def forward(self, x):
            return np.where(x.sum(axis=-1, keepdims=True) > 0, 800.0, -800.0)

        def backward(self, grad, input_grad=True):
            self.grads[...] = grad.sum()
            return grad if input_grad else None

    disc = SignDisc()
    real = np.full((5, 3), 2.0)
    fake = np.full((5, 3), -2.0)
    loss = discriminator_loss(disc, real, fake)
    assert 0.0 <= loss < 1e-11
    assert disc.grads[0] == 0.0


def test_discriminator_gradient_unclamped_on_confidently_wrong_real_sample():
    # a real sample scored at logit -40 (sigmoid 4e-18) is the discriminator's
    # worst mistake: it keeps the full gradient sigmoid - 1 = -1, over b
    class FixedDisc:
        def __init__(self):
            self.grads = np.zeros(1)
            self.seen = []

        def forward(self, x):
            return np.where(x[..., :1] > 0, -40.0, 0.0)

        def backward(self, grad, input_grad=True):
            self.seen.append(grad.copy())
            return grad if input_grad else None

    b = 4
    disc = FixedDisc()
    real = np.array([[1.0], [-1.0], [-1.0], [-1.0]])  # the first real logit is -40
    loss = discriminator_loss(disc, real, np.full((b, 1), -1.0))
    (grad,) = disc.seen  # one backward, on the stacked real and fake sides
    assert grad.shape == (2, b, 1)
    grad_real, grad_fake = grad
    assert grad_real[0, 0] == -1.0 / b
    np.testing.assert_array_equal(grad_real[1:, 0], -0.5 / b)
    np.testing.assert_array_equal(grad_fake[:, 0], 0.5 / b)
    # the real side pays -log sigmoid(-40) = 40 on its first sample
    assert loss == pytest.approx((40.0 + 3 * math.log(2)) / b + math.log(2), rel=1e-12)


def test_discriminator_parameter_gradients_bit_equal_with_input_gradients():
    # the loss skips the first layer's input gradient, which nothing reads;
    # reference: the same stacked pass with every input gradient computed
    rng = np.random.default_rng(21)
    real, fake = rng.normal(size=(32, 6)), rng.normal(size=(32, 6))

    def reference(disc):
        labels = np.array([1.0, 0.0])[:, None, None]
        grad = (sigmoid(disc.forward(np.stack([real, fake]))) - labels) / real.shape[0]
        assert disc.backward(grad) is not None
        return disc.grads

    disc = build_discriminator(6, np.random.default_rng(22), hidden=16)
    want = reference(build_discriminator(6, np.random.default_rng(22), hidden=16))
    discriminator_loss(disc, real, fake)
    np.testing.assert_array_equal(disc.grads, want)


def test_discriminator_stack_normalizes_each_side_by_its_own_batch():
    # each side's logits in the stacked pass are its lone forward's, bit for
    # bit, also with the sides' means far apart; the parameter gradients are
    # the sum of two lone passes up to the order of the sums
    rng = np.random.default_rng(23)
    real = rng.uniform(-1.0, 1.0, size=(32, 6))
    fake = 1e3 + 50.0 * rng.normal(size=(32, 6))
    disc = build_discriminator(6, np.random.default_rng(24), hidden=16)
    stacked = disc.forward(np.stack([real, fake]))
    two_passes = np.zeros_like(disc.grads)
    for side, z, label in ((stacked[0], real, 1.0), (stacked[1], fake, 0.0)):
        logits = disc.forward(z)
        np.testing.assert_array_equal(side, logits)
        disc.backward((sigmoid(logits) - label) / z.shape[0], input_grad=False)
        two_passes += disc.grads
    discriminator_loss(disc, real, fake)
    np.testing.assert_allclose(disc.grads, two_passes, rtol=1e-12)


def test_drift_without_generator_steps_is_the_worse_side_of_the_stack(monkeypatch):
    # with no generator step the cycle reads the discriminator's drift from
    # the caches of its own stacked pass: per layer, the worse of the sides
    cfg = TrainConfig(
        model="aidw", dim=4, epochs=1, batch_size=16, adv_batch_size=8, gen_steps=0,
        walks_per_node=2, walk_length=6, context_size=2, seed=5,
    )
    trainer = Trainer(ring_graph(12), cfg)
    reads, bn_drift = [], Trainer._bn_drift
    monkeypatch.setattr(Trainer, "_bn_drift",
                        staticmethod(lambda nets: reads.append(bn_drift(nets)) or reads[-1]))
    record = next(trainer.cycles())
    for layer, got in zip(trainer.disc.bn_layers(), reads[-1]):
        assert layer._norm.shape == (2, cfg.adv_batch_size, embedder.DISC_HIDDEN)
        sides = [(np.abs(norm.mean(axis=0, dtype=np.float64)).max(),
                  np.abs(norm.var(axis=0, dtype=np.float64) - 1.0).max()) for norm in layer._norm]
        assert sides[0] != sides[1]
        assert got == tuple(max(side[i] for side in sides) for i in (0, 1))
    drift = [pair for read in reads for pair in read]
    assert record.bn_mean_abs == max(mean_abs for mean_abs, _ in drift)
    assert record.bn_var_err == max(var_err for _, var_err in drift)


def test_generator_loss_constant_discriminator():
    rng = np.random.default_rng(6)
    gen = build_generator(5, 3, rng)
    disc = build_discriminator(3, rng, hidden=8)
    zero_params(disc)  # D == 0.5 everywhere, independent of input
    x = rng.random((7, 5))
    loss = generator_adversarial_loss(gen, disc, x)
    assert loss == pytest.approx(math.log(2), rel=1e-12)
    np.testing.assert_array_equal(gen.grads, np.zeros_like(gen.grads))


def test_directional_signs_higher_d_output_helps_both_sides():
    rng = np.random.default_rng(7)
    gen = build_generator(4, 3, rng)
    x = rng.random((6, 4))

    def biased_disc(bias):
        d = build_discriminator(3, np.random.default_rng(42), hidden=8)
        d.layers[-1].bias[:] = bias  # shifts every logit; weights identical
        return d

    # with the fake side saturated low, raising D's output lowers disc loss
    low, high = biased_disc(-20.0), biased_disc(-19.0)
    z = np.random.default_rng(8).uniform(-1, 1, size=(6, 3))
    fake = gen.forward(x)
    assert discriminator_loss(high, z, fake) < discriminator_loss(low, z, fake)
    # raising D's output on embeddings lowers the generator loss
    assert generator_adversarial_loss(gen, high, x) < generator_adversarial_loss(gen, low, x)


# dae loss


def test_dae_zero_corruption_perfect_identity_net():
    dim = 4
    rng = np.random.default_rng(9)
    encoder = build_generator(dim, dim, rng)
    decoder = build_decoder(dim, dim, rng)
    # make the whole stack a passthrough on this batch: identity dense maps,
    # positive inputs so leaky relu is identity, batch norm calibrated to
    # undo its own normalization
    x = np.abs(rng.random((5, dim))) + 0.5

    enc_dense = encoder.layers[0]
    enc_dense.weights[...] = np.eye(dim)
    enc_dense.bias[...] = 0.0
    bn = encoder.layers[-1]
    bn.gamma[...] = np.sqrt(x.var(axis=0) + nn.BN_EPS)
    bn.shift[...] = x.mean(axis=0)
    dec_dense = decoder.layers[0]
    dec_dense.weights[...] = np.eye(dim)
    dec_dense.bias[...] = 0.0

    loss = dae_batch_loss(encoder, decoder, x, 0.0, np.random.default_rng(0))
    assert loss < 1e-12


def test_dae_all_zero_rows_zero_loss():
    rng = np.random.default_rng(10)
    encoder = build_generator(4, 3, rng)
    decoder = build_decoder(3, 4, rng)
    zero_params(encoder)
    zero_params(decoder)
    loss = dae_batch_loss(encoder, decoder, np.zeros((5, 4)), 0.2, rng)
    assert loss == 0.0


class SpyNet:
    """Stands in for a network: keeps its input and passes it on densified."""

    def forward(self, inp):
        self.input = inp
        return inp.toarray() if sparse.issparse(inp) else inp.copy()

    def backward(self, grad, input_grad=True):
        return grad


def corrupt(rows, corruption, rng):
    """The encoder input that ``dae_batch_loss`` makes of ``rows``."""
    encoder = SpyNet()
    dae_batch_loss(encoder, SpyNet(), rows, corruption, rng)
    return encoder.input


LAW_WIDTH = 20
LAW_STORED = (0, 1, 7, 13, LAW_WIDTH)


def law_rows(reps):
    """``reps`` copies of one row per count in ``LAW_STORED``, each storing
    that many entries of ``LAW_WIDTH`` at random columns."""
    rng = np.random.default_rng(40)
    block = np.zeros((len(LAW_STORED), LAW_WIDTH))
    for row, stored in zip(block, LAW_STORED):
        row[rng.choice(LAW_WIDTH, size=stored, replace=False)] = rng.uniform(0.5, 2.0, stored)
    return sparse.csr_array(np.tile(block, (reps, 1)))


def test_dae_corruption_masks_exact_count():
    x = sparse.csr_array(np.ones((8, 10)))
    seen = corrupt(x, 0.3, np.random.default_rng(11))
    # the encoder gets CSR rows with the batch's pattern; killed entries stay stored
    assert isinstance(seen, sparse.csr_array)
    np.testing.assert_array_equal(seen.indptr, x.indptr)
    np.testing.assert_array_equal(seen.indices, x.indices)
    zeros_per_row = (seen.toarray() == 0).sum(axis=1)
    np.testing.assert_array_equal(zeros_per_row, np.full(8, 3))


def test_dae_corruption_kills_each_stored_entry_with_frequency_n_mask_over_d():
    reps = 4000
    x = law_rows(reps)
    seen = corrupt(x, 0.3, np.random.default_rng(44))
    p = round(0.3 * LAW_WIDTH) / LAW_WIDTH
    # every copy of the block stores its entries in the same slots, and each
    # entry's kill count is Binomial(reps, p): sum one chi-square term per entry
    kills = (seen.data == 0).reshape(reps, -1).sum(axis=0)
    stat = ((kills - reps * p) ** 2 / (reps * p * (1 - p))).sum()
    assert scipy.stats.chi2(kills.size).sf(stat) > 1e-3


def test_dae_corruption_kill_count_per_row_is_hypergeometric():
    reps = 4000
    n_mask = round(0.3 * LAW_WIDTH)
    x = law_rows(reps)
    seen = corrupt(x, 0.3, np.random.default_rng(42))
    kills = ((seen.toarray() == 0).sum(axis=1) - (x.toarray() == 0).sum(axis=1)).reshape(reps, -1)
    for col, stored in enumerate(LAW_STORED):
        if stored in (0, LAW_WIDTH):
            # nothing to kill, or every entry stored: the count is fixed
            assert (kills[:, col] == min(stored, n_mask)).all()
            continue
        support = np.arange(min(stored, n_mask) + 1)
        observed = np.bincount(kills[:, col], minlength=support.size)
        assert observed.size == support.size
        expected = reps * scipy.stats.hypergeom(LAW_WIDTH, stored, n_mask).pmf(support)
        # fold each rare tail into the outermost count that expects at least 5
        edges = np.r_[0, np.flatnonzero(expected >= 5)[1:]]
        observed = np.add.reduceat(observed, edges)
        expected = np.add.reduceat(expected, edges)
        assert scipy.stats.chisquare(observed, expected).pvalue > 1e-3


def test_dae_corruption_under_one_entry_leaves_rows_and_rng_untouched():
    x = law_rows(3)
    rng = np.random.default_rng(43)
    state = rng.bit_generator.state
    # round(0.02 * 20) = 0 entries to mask
    seen = corrupt(x, 0.02, rng)
    np.testing.assert_array_equal(seen.toarray(), x.toarray())
    assert rng.bit_generator.state == state


def test_dae_corruption_validation():
    rng = np.random.default_rng(12)
    encoder = build_generator(4, 3, rng)
    decoder = build_decoder(3, 4, rng)
    with pytest.raises(ValueError):
        dae_batch_loss(encoder, decoder, np.ones((3, 4)), 1.0, rng)


# trainer behavior


def test_cycle_count_and_log_shape():
    g = ring_graph(8)
    cfg = TrainConfig(
        model="idw", dim=4, epochs=2, batch_size=64, structure_steps=2,
        walks_per_node=2, walk_length=8, context_size=3, seed=0,
    )
    trainer = Trainer(g, cfg)
    _, log = trainer.run()
    n_pairs = trainer.objective.pair_targets.size
    n_batches = -(-n_pairs // 64)
    assert len(log) == 2 * (-(-n_batches // 2))
    rec = log.records[0]
    assert np.isfinite(rec.structure_loss)
    assert math.isnan(rec.disc_loss) and math.isnan(rec.gen_loss)


def test_structure_steps_zero_refused():
    # every cycle starts with a structure step, whatever the adversarial steps
    for model in MODEL_KINDS:
        for steps in ({}, {"disc_steps": 0, "gen_steps": 0}, {"gen_steps": 3}):
            with pytest.raises(InputError, match=r"^structure_steps must be >= 1, got 0$"):
                TrainConfig(model=model, structure_steps=0, **steps)


def test_one_item_tail_folded_into_the_cycle_before_it():
    # 9 nodes in batches of 4: the 1-node tail joins the second batch
    g = ring_graph(9)
    base = dict(model="adae", dim=3, epochs=1, batch_size=4, adv_batch_size=4, seed=2)
    _, log = train(g, TrainConfig(**base))
    assert len(log) == 2
    with pytest.raises(InputError, match="structure_steps must be >= 1"):
        TrainConfig(structure_steps=0, **base)


def record_bits(records):
    """Every field of each record as float64 bits, so nan equals nan."""
    return np.array([astuple(r) for r in records], dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("model", MODEL_KINDS)
@pytest.mark.parametrize("k", [1, 4])
def test_cycles_stream_matches_run_and_stops_anywhere(model, k):
    # 2 epochs of 3 cycles: 340 pairs in batches of 128, or 10 nodes in
    # batches of 4; k = 4 stops inside the second epoch
    g = ring_graph(10)
    cfg = TrainConfig(
        model=model, dim=3, epochs=2, batch_size=128 if model in ("idw", "aidw") else 4,
        adv_batch_size=4, walks_per_node=1, walk_length=10, context_size=3, seed=9,
    )
    _, log = Trainer(g, cfg).run()
    assert len(log) == 6
    trainer = Trainer(g, cfg)
    streamed = list(itertools.islice(trainer.cycles(), k))
    # every field, batch-norm drift included, bit for bit
    np.testing.assert_array_equal(record_bits(streamed), record_bits(log.records[:k]))
    assert trainer.log.records == streamed
    embedding = trainer.embeddings()
    assert embedding.vectors.shape == (10, 3)
    assert np.isfinite(embedding.vectors).all()


def test_reduction_identity_aidw_to_idw():
    g = ring_graph(10)
    base = dict(
        dim=4, epochs=2, batch_size=256, walks_per_node=3, walk_length=10,
        context_size=3, seed=5,
    )
    e_idw, log_idw = train(g, TrainConfig(model="idw", **base))
    e_red, log_red = train(g, TrainConfig(model="aidw", disc_steps=0, gen_steps=0, **base))
    np.testing.assert_array_equal(e_idw.vectors, e_red.vectors)
    assert [r.structure_loss for r in log_idw.records] == [
        r.structure_loss for r in log_red.records
    ]


def test_reduction_identity_adae_to_dae():
    g = ring_graph(10)
    base = dict(dim=4, epochs=5, batch_size=4, seed=6)
    e_dae, _ = train(g, TrainConfig(model="dae", **base))
    e_red, _ = train(g, TrainConfig(model="adae", disc_steps=0, gen_steps=0, **base))
    np.testing.assert_array_equal(e_dae.vectors, e_red.vectors)


def test_same_seed_reproduces_everything():
    g = ring_graph(9)
    cfg = TrainConfig(
        model="aidw", dim=3, epochs=1, batch_size=128, adv_batch_size=16,
        walks_per_node=2, walk_length=8, context_size=3, seed=11,
    )
    e1, log1 = train(g, cfg)
    e2, log2 = train(g, cfg)
    np.testing.assert_array_equal(e1.vectors, e2.vectors)
    assert [(r.structure_loss, r.disc_loss, r.gen_loss) for r in log1.records] == [
        (r.structure_loss, r.disc_loss, r.gen_loss) for r in log2.records
    ]


def test_phase_isolation():
    g = ring_graph(8)
    cfg = TrainConfig(
        model="aidw", dim=3, epochs=1, batch_size=64, adv_batch_size=8,
        walks_per_node=2, walk_length=6, context_size=2, seed=3,
    )
    trainer = Trainer(g, cfg)

    def snapshot(net):
        return net.params.copy()

    def unchanged(net, before):
        return np.array_equal(net.params, before)

    gen_f = trainer.objective.gen_f
    batch = next(trainer.objective.batches(trainer.rng_batches))
    g_before, f_before, d_before = map(snapshot, (trainer.gen_g, gen_f, trainer.disc))
    trainer._structure_step(batch)
    assert not unchanged(trainer.gen_g, g_before)
    assert not unchanged(gen_f, f_before)
    assert unchanged(trainer.disc, d_before)

    g_before, f_before, d_before = map(snapshot, (trainer.gen_g, gen_f, trainer.disc))
    trainer._disc_step()
    assert unchanged(trainer.gen_g, g_before)
    assert unchanged(gen_f, f_before)
    assert not unchanged(trainer.disc, d_before)

    g_before, f_before, d_before = map(snapshot, (trainer.gen_g, gen_f, trainer.disc))
    trainer._gen_step()
    assert not unchanged(trainer.gen_g, g_before)
    assert unchanged(gen_f, f_before)
    assert unchanged(trainer.disc, d_before)


def test_generator_shared_between_phases():
    g = ring_graph(8)
    cfg = TrainConfig(
        model="aidw", dim=3, epochs=1, batch_size=64, adv_batch_size=8,
        walks_per_node=2, walk_length=6, context_size=2, seed=4,
    )
    trainer = Trainer(g, cfg)
    assert trainer.structure_nets[0] is trainer.gen_g
    assert trainer.gen_adv_opt.nets == [trainer.gen_g]
    assert trainer.structure_opt.nets[0] is trainer.gen_g


# trains karate aidw (its 128-wide embedding and the 512-wide discriminator)
# and dae and adae on a 2 000-node ring, whose decoder product is wide enough
# for OpenBLAS to thread, for three cycles each, and prints the sha256 of each
# model's float32 vectors. dae and adae are the guards: without the pin their
# bytes move at two threads. The aidw case is a plain replay case; it writes
# the same bytes at both counts without the pin, as did every skip-gram config
# tried (karate aidw; ring-2000 aidw at dim 128 and 512 and at batch 8192;
# ring-2000 idw at batch 8192)
BLAS_DIGESTS = """
import hashlib, itertools
from ane.datasets import load_dataset
from ane.embedder import TrainConfig, Trainer
from ane.graph import parse_edge_lines, preprocess
n = 2000
ring = preprocess(parse_edge_lines([f"{i} {(i + 1) % n}" for i in range(n)]))
runs = [(load_dataset("karate")[0], dict(model="aidw", walks_per_node=2, walk_length=20,
                                         context_size=4))]
runs += [(ring, dict(model=model, dim=128, batch_size=256, adv_batch_size=128))
         for model in ("dae", "adae")]
for graph, settings in runs:
    trainer = Trainer(graph, TrainConfig(seed=1, **settings))
    for _ in itertools.islice(trainer.cycles(), 3):
        pass
    print(settings["model"], hashlib.sha256(trainer.embeddings().vectors.tobytes()).hexdigest())
"""


def test_autoencoder_bytes_do_not_depend_on_the_blas_thread_count():
    src = str(Path(embedder.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        result = subprocess.run(
            [sys.executable, "-c", BLAS_DIGESTS], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert [line.split()[0] for line in outputs[0].splitlines()] == ["aidw", "dae", "adae"]
    assert outputs[0] == outputs[1]


def test_training_runs_on_one_blas_thread_and_restores_the_callers_count(monkeypatch):
    get, set_threads = nn._openblas("get_num_threads"), nn._openblas("set_num_threads")
    if get is None or set_threads is None:
        pytest.skip("no OpenBLAS thread setter is loaded")
    before = get()
    set_threads(2)
    try:
        if get() != 2:
            pytest.skip("OpenBLAS does not run two threads here")
        inside = []
        for name in ("dae_batch_loss", "discriminator_loss"):
            loss = getattr(embedder, name)
            monkeypatch.setattr(
                embedder, name, lambda *args, loss=loss: (inside.append(get()), loss(*args))[1]
            )
        g = ring_graph(8)
        trainer = Trainer(g, TrainConfig(model="adae", dim=3, batch_size=4, adv_batch_size=2))
        for _ in trainer.cycles():
            assert get() == 2
        trainer.run()
        assert get() == 2
        with pytest.raises(TrainingDiverged):
            train(g, TrainConfig(model="dae", dim=3, batch_size=4), features=np.full((8, 8), np.nan))
        assert get() == 2
        assert len(inside) > 2 and set(inside) == {1}
    finally:
        set_threads(before)


def test_divergence_aborts(monkeypatch):
    # non-finite features make the very first structure loss NaN
    g = ring_graph(8)
    cfg = TrainConfig(
        model="idw", dim=3, epochs=1, batch_size=32,
        walks_per_node=2, walk_length=8, context_size=3, seed=7,
    )
    bad = np.full((8, 8), np.nan)
    with pytest.raises(
        TrainingDiverged, match=r"^structure loss became nan in cycle 0; no cycle had finished$"
    ):
        train(g, cfg, features=bad)

    # a later divergence names its cycle and the last finished cycle's losses
    trainer = Trainer(g, TrainConfig(model="adae", dim=3, batch_size=2, adv_batch_size=2, seed=7))
    disc_loss = embedder.discriminator_loss
    monkeypatch.setattr(
        embedder, "discriminator_loss",
        lambda *args: float("nan") if len(trainer.log) == 2 else disc_loss(*args),
    )
    with pytest.raises(TrainingDiverged) as caught:
        trainer.run()
    last = trainer.log.records[-1]
    assert str(caught.value) == (
        f"discriminator loss became nan in cycle 2; cycle 1 ended with structure loss "
        f"{last.structure_loss!r}, disc loss {last.disc_loss!r}, gen loss {last.gen_loss!r}"
    )
    assert last.cycle == 1 and np.isfinite([last.structure_loss, last.disc_loss]).all()


def test_non_finite_gradient_under_finite_loss_names_cycle_and_phase(monkeypatch):
    # the loss stays finite, but one discriminator gradient entry is nan:
    # RMSProp refuses the step, and the run reports it like a diverged loss
    g = ring_graph(8)
    trainer = Trainer(g, TrainConfig(model="adae", dim=3, batch_size=2, adv_batch_size=2, seed=7))
    disc_loss = embedder.discriminator_loss

    def poisoned(disc, *args):
        loss = disc_loss(disc, *args)
        if len(trainer.log) == 2:
            disc.grads[0] = np.nan
        return loss

    monkeypatch.setattr(embedder, "discriminator_loss", poisoned)
    with pytest.raises(TrainingDiverged) as caught:
        trainer.run()
    last = trainer.log.records[-1]
    assert str(caught.value) == (
        f"discriminator gradient became non-finite in cycle 2; cycle 1 ended with structure "
        f"loss {last.structure_loss!r}, disc loss {last.disc_loss!r}, gen loss {last.gen_loss!r}"
    )
    assert isinstance(caught.value.__cause__, GradientError)


def test_generator_on_csr_rows_matches_dense_rows():
    rng = np.random.default_rng(30)
    dense = rng.random((50, 40)) * (rng.random((50, 40)) < 0.1)
    grad = rng.standard_normal((50, 6))
    results = []
    for rows in (dense, sparse.csr_array(dense)):
        net = build_generator(40, 6, np.random.default_rng(8))
        out = net.forward(rows)
        assert net.backward(grad, input_grad=False) is None
        assert net.layers[0].grad_weights.flags.c_contiguous
        assert net.layers[0].grad_weights.shape == (40, 6)
        results.append((out, net.layers[0].grad_weights))
    (out_dense, gw_dense), (out_csr, gw_csr) = results
    np.testing.assert_allclose(out_csr, out_dense, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gw_csr, gw_dense, rtol=0, atol=1e-12)


def test_features_row_count_checked():
    g = ring_graph(6)
    with pytest.raises(ValueError, match="feature rows"):
        Trainer(g, TrainConfig(model="dae", dim=3, seed=0), features=np.ones((4, 6)))


@pytest.mark.parametrize("model", MODEL_KINDS)
def test_feature_rows_without_a_column_refused(model):
    g = ring_graph(6)
    for rows in (np.ones((6, 0)), sparse.csr_array((6, 0))):
        with pytest.raises(InputError, match="^feature rows have no column$"):
            Trainer(g, TrainConfig(model=model, dim=3, seed=0), features=rows)


@pytest.mark.parametrize("model", MODEL_KINDS)
def test_network_memory_check_counts_what_the_trainer_builds(model, monkeypatch):
    # 1 000-wide rows: the networks are most of the memory plan
    g = ring_graph(12)
    features = sparse.csr_array(np.random.default_rng(0).random((12, 1000)), dtype=np.float32)
    cfg = TrainConfig(
        model=model, dim=4, walks_per_node=2, walk_length=8, context_size=2, batch_size=64
    )
    trainer = Trainer(g, cfg, features=features)
    opts = [trainer.structure_opt]
    if cfg.adversarial:
        opts += [trainer.disc_opt, trainer.gen_adv_opt]
    nets = list({id(net): net for opt in opts for net in opt.nets}.values())
    # float32 parameters and gradients, and one accumulator per optimizer and network
    values = sum(2 * net.params.size for net in nets) + sum(a.size for o in opts for a in o.acc)
    plan = embedder.check_memory_plan(g, cfg, features)
    # the plan's network items are those counting values; no Glorot draw of
    # a whole layer is held, so none is counted
    assert sum(need for need, what, _ in plan if what.endswith(" values")) == 4 * values
    assert not any("draw" in what for _, what, _ in plan)
    # float32 CSR rows are shared, not copied: the plan's last item is all they hold
    csr = trainer.features
    assert all(np.shares_memory(a, b) for a, b in zip(
        (csr.data, csr.indices, csr.indptr), (features.data, features.indices, features.indptr)
    ))
    assert plan[-1][0] == sum(a.nbytes for a in (features.data, features.indices, features.indptr))
    # float64 CSR rows get float32 values beside their own index arrays
    wide = sparse.csr_array((features.data.astype(np.float64), features.indices, features.indptr))
    csr = Trainer(g, cfg, features=wide).features
    assert csr.dtype == np.float32 and np.shares_memory(csr.indices, wide.indices)
    need = sum(need for need, _, _ in plan)
    monkeypatch.setattr(proximity, "memory_budget", lambda: need)
    Trainer(g, cfg, features=features)
    monkeypatch.setattr(proximity, "memory_budget", lambda: need - 1)
    with pytest.raises(GraphError, match=f"Training arrays of {model} on 12 x 1000 features"):
        Trainer(g, cfg, features=features)


@pytest.mark.parametrize("model", MODEL_KINDS)
def test_trainer_checks_the_ppmi_rows_it_builds(model, monkeypatch):
    # before the PPMI build the plan holds no rows; once they are built the
    # Trainer checks the sum a sweep point checks on the same rows. At dim 64
    # each sum is above the PPMI build's own checks (under 6 kB)
    g = ring_graph(12)
    cfg = TrainConfig(
        model=model, dim=64, walks_per_node=2, walk_length=8, context_size=2, batch_size=64
    )
    rows = embedder.csr_rows(ppmi_features(g), "rows")
    before = sum(need for need, _, _ in embedder.check_memory_plan(g, cfg))
    after = sum(need for need, _, _ in embedder.check_memory_plan(g, cfg, rows))
    # 4 + 4 bytes per entry for the float32 rows and their int32 indices; a
    # structure step gathers all 12 rows, once per generator at 12 bytes an
    # entry or once at 32 for the autoencoder, and an adversarial step 128
    # draws of a 5-entry row at 12
    assert rows.nnz == 60 and np.diff(rows.indptr).max() == 5
    assert (rows.dtype, rows.indices.dtype) == (np.float32, np.int32)
    gathered = 2 * 12 * rows.nnz if OBJECTIVES[model] is SkipGram else 32 * rows.nnz
    if cfg.adversarial:
        gathered += 12 * 128 * 5
    assert after - before == 8 * rows.nnz + 4 * 13 + gathered
    needs = []
    monkeypatch.setattr(embedder, "check_memory", lambda need, *rest: needs.append(need))
    Trainer(g, cfg)
    assert needs == [before, after]

    monkeypatch.setattr(embedder, "check_memory", proximity.check_memory)
    monkeypatch.setattr(proximity, "memory_budget", lambda: after - 1)
    monkeypatch.setattr(embedder, "build_generator", lambda *args: pytest.fail("network built"))
    with pytest.raises(GraphError, match="; feature rows: 0.0 GB"):
        Trainer(g, cfg)


def test_step_items_count_the_widest_rows():
    # row i of the 12 rows stores i + 1 entries. A dae batch of 3 takes in a
    # one-row tail, so its step counts the 4 widest rows at 32 bytes an
    # entry; an idw batch of 2 pairs with 1 negative gathers up to 2 target
    # and 4 context rows at 12; the adversarial steps draw 5 rows, each up
    # to the widest, at 12
    g = ring_graph(12)
    rows = sparse.csr_array(np.tril(np.ones((12, 12))))
    for cfg, remedy, gathered in [
        (TrainConfig(model="dae", dim=2, batch_size=3), "lower --batch", 32 * (12 + 11 + 10 + 9)),
        (
            TrainConfig(model="idw", dim=2, batch_size=2, negatives=1, walks_per_node=1,
                        walk_length=4, context_size=2),
            "lower --batch, --negatives or --dim",
            12 * ((12 + 11) + (12 + 11 + 10 + 9)),
        ),
        (TrainConfig(model="adae", dim=2, adv_batch_size=5), "lower --adv-batch", 12 * 5 * 12),
    ]:
        before = {r: need for need, _, r in embedder.check_memory_plan(g, cfg)}
        after = {r: need for need, _, r in embedder.check_memory_plan(g, cfg, rows)}
        assert after[remedy] - before[remedy] == gathered, cfg.model


def test_dae_memory_counts_a_batch_with_a_folded_tail():
    # 34 nodes in batches of 11: 11, 11 and 12 rows
    g = ring_graph(34)
    cfg = TrainConfig(model="dae", dim=3, batch_size=11)
    batches = Trainer(g, cfg).objective.batches(np.random.default_rng(0))
    assert sorted(sel.size for sel in batches) == [11, 11, 12]
    plan = embedder.check_memory_plan(g, cfg)
    # the reconstruction of 12 rows and its square
    assert [need for need, _, remedy in plan if remedy == "lower --batch"] == [
        embedder.VALUE_BYTES * 2 * 12 * 34
    ]


@pytest.mark.parametrize("density", [1.0, 0.1], ids=["dense", "tenth"])
def test_step_peaks_within_their_plan_items_on_wide_rows(density):
    # 34 x 20 000 rows: each step's gathered rows set most of its peak when
    # they are dense; when a tenth of their entries are stored, the skip-gram
    # step's block gather and the steps' d-wide arrays weigh as much
    graph, _ = load_dataset("karate")
    rows = np.random.default_rng(0).random((34, 20_000))
    rows[rows > density] = 0.0
    # each structure step's item goes by its remedy
    for model, structure in [
        ("aidw", "lower --batch, --negatives or --dim"), ("adae", "lower --batch")
    ]:
        cfg = TrainConfig(
            model=model, dim=128, adv_batch_size=128, walks_per_node=2, walk_length=20,
            context_size=4,
        )
        trainer = Trainer(graph, cfg, features=rows)
        plan = embedder.check_memory_plan(graph, cfg, trainer.features)
        item = {remedy: need for need, _, remedy in plan}
        batch = next(trainer.objective.batches(trainer.rng_batches))
        peaks = {
            structure: step_peak(lambda: trainer._structure_step(batch)),
            "discriminator": step_peak(trainer._disc_step),
            "generator": step_peak(trainer._gen_step),
        }
        assert peaks[structure] <= item[structure], (model, peaks)
        assert peaks["discriminator"] <= item["lower --adv-batch"], (model, peaks)
        assert peaks["generator"] <= item["lower --adv-batch"], (model, peaks)


@pytest.mark.parametrize("density", [1.0, 0.1], ids=["dense", "tenth"])
def test_dae_step_allocates_under_20_bytes_per_stored_entry(density):
    # on 34 x 20 000 rows gathered beforehand, the step's reconstruction and
    # its square are 5.44 MB; its corruption and the subtraction of the clean
    # rows take under 20 bytes a stored entry beside them
    graph, _ = load_dataset("karate")
    rows = np.random.default_rng(0).random((34, 20_000))
    rows[rows > density] = 0.0
    cfg = TrainConfig(model="dae", dim=128)
    trainer = Trainer(graph, cfg, features=rows)
    obj = trainer.objective
    x = trainer.features[np.arange(34)]
    peak = step_peak(
        lambda: dae_batch_loss(obj.gen_g, obj.decoder, x, cfg.dae_corruption, trainer.rng_noise)
    )
    recon = embedder.VALUE_BYTES * 2 * 34 * 20_000
    assert x.shape == (34, 20_000) and x.nnz > 0.09 * 34 * 20_000
    assert peak < recon + 20 * x.nnz, (peak - recon) / x.nnz


def test_dae_step_keeps_no_entry_index_through_its_networks(monkeypatch):
    # when the encoder starts, the step holds the corrupted float32 values,
    # 4 bytes an entry, and no int64 array with one entry per stored entry
    graph, _ = load_dataset("karate")
    cfg = TrainConfig(model="dae", dim=128)
    trainer = Trainer(graph, cfg, features=np.random.default_rng(0).random((34, 20_000)))
    obj = trainer.objective
    x = trainer.features[np.arange(34)]
    held, forward = [], obj.gen_g.forward

    def traced_forward(rows):
        held.append(tracemalloc.get_traced_memory()[0])
        return forward(rows)

    monkeypatch.setattr(obj.gen_g, "forward", traced_forward)
    dae_batch_loss(obj.gen_g, obj.decoder, x, cfg.dae_corruption, trainer.rng_noise)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dae_batch_loss(obj.gen_g, obj.decoder, x, cfg.dae_corruption, trainer.rng_noise)
    finally:
        tracemalloc.stop()
    assert 4 * x.nnz <= held[-1] - before < 8 * x.nnz


def test_skip_gram_plan_counts_the_pairs_and_corpus_it_builds():
    # the order item counts an epoch's int32 order of P pairs (int64 above
    # 2**31 - 1), the pairs item their two int32 arrays; the int32 corpus is
    # never larger than the order
    g = ring_graph(5)
    for walks in (1, 3):
        for length in range(3, 10):
            for c in range(2, length):
                cfg = TrainConfig(
                    model="idw", walks_per_node=walks, walk_length=length, context_size=c
                )
                order, pairs = embedder.check_memory_plan(g, cfg)[:2]
                corpus = random_walks(g, walks, length, np.random.default_rng(0))
                assert corpus.dtype == np.int32
                size = positive_pairs(corpus, c)[0].size
                assert (order[0], pairs[0]) == (4 * size, 8 * size), cfg
                assert corpus.nbytes <= order[0]


def test_skip_gram_plan_counts_an_int64_order_above_2_31_pairs():
    # shuffled_batches orders up to 2**31 - 1 items in int32 and more in
    # int64: karate at --walks 10 --context 10 has 611 969 400 pairs at
    # --walk-length 100000 and 6 119 969 400 at 1000000. Nothing is allocated
    graph, _ = load_dataset("karate")
    walk = "lower --walks, --walk-length or --context"
    for length, pairs, width in [(100_000, 611_969_400, 4), (1_000_000, 6_119_969_400, 8)]:
        cfg = TrainConfig(model="idw", walks_per_node=10, walk_length=length, context_size=10)
        order, listed = SkipGram.memory(graph, cfg, graph.num_nodes, lambda r: 0)[:2]
        assert order == (width * pairs, f"an epoch's order of {pairs} pairs", walk)
        assert listed == (8 * pairs, f"{pairs} pairs", walk)


@pytest.mark.parametrize(
    "flags", [{}, {"negatives": 20}, {"dim": 512}], ids=["default", "negatives-20", "dim-512"]
)
def test_skip_gram_step_peak_within_its_plan_item_on_karate(flags):
    # on karate's narrow PPMI rows the step's own arrays set its peak, among
    # them one block's gather of NEG_BLOCK pairs' k + 1 context and negative
    # rows and their target rows
    graph, _ = load_dataset("karate")
    cfg = TrainConfig(model="idw", walks_per_node=2, walk_length=20, context_size=4, **flags)
    trainer = Trainer(graph, cfg)
    plan = embedder.check_memory_plan(graph, cfg, trainer.features)
    item = {remedy: need for need, _, remedy in plan}["lower --batch, --negatives or --dim"]
    batch = next(trainer.objective.batches(trainer.rng_batches))
    assert batch.targets.size == cfg.batch_size >= embedder.NEG_BLOCK
    assert step_peak(lambda: trainer._structure_step(batch)) <= item


@pytest.mark.parametrize("nodes", [34, 3000], ids=["karate", "ring-3000"])
def test_export_pass_peak_within_its_plan_item_on_narrow_rows(nodes):
    # on narrow PPMI rows the pass's own arrays set its peak: at batch norm
    # three N x d float32 arrays and leaky ReLU's boolean mask, beside
    # numpy's float64 buffer for the statistics' cast
    graph = load_dataset("karate")[0] if nodes == 34 else ring_graph(nodes)
    cfg = TrainConfig(model="dae", dim=128)
    trainer = Trainer(graph, cfg)
    assert np.diff(trainer.features.indptr).max() <= 34
    plan = embedder.check_memory_plan(graph, cfg, trainer.features)
    (item,) = [need for need, what, _ in plan if what == f"the export pass over {nodes} rows"]
    assert step_peak(trainer.embeddings) <= item


def test_export_pass_leaves_only_the_vectors_held():
    # G's leaky ReLU mask and batch norm's normalized rows (5 N d bytes) must
    # not live on through the export and the evaluation; what stays is the
    # vectors, the list of N ids and the small objects around them
    trainer = Trainer(ring_graph(3000), TrainConfig(model="dae", dim=128))
    trainer.embeddings()  # numpy's first-call allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        embedding = trainer.embeddings()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    ids = sys.getsizeof(embedding.ids)
    assert embedding.vectors.nbytes == 3000 * 128 * 4
    assert held <= embedding.vectors.nbytes + ids + 4096


def test_trainer_checks_the_conversion_of_dense_features(monkeypatch):
    # 12 x 500 dense rows, 6 000 entries: converting them takes the 48 000-byte
    # matrix, 32 bytes an entry and 8 KiB, 248 192 bytes, more than the
    # 138 852 of dae's plan at dim 2 with batches of 2
    g = ring_graph(12)
    rows = np.random.default_rng(0).random((12, 500))
    cfg = TrainConfig(model="dae", dim=2, batch_size=2)
    plan = embedder.check_memory_plan(g, cfg, embedder.csr_rows(rows, "rows"))
    assert sum(need for need, _, _ in plan) == 138_852
    monkeypatch.setattr(proximity, "memory_budget", lambda: 248_192)
    Trainer(g, cfg, features=rows)
    monkeypatch.setattr(proximity, "memory_budget", lambda: 248_191)
    monkeypatch.setattr(embedder, "build_generator", lambda *args: pytest.fail("network built"))
    with pytest.raises(InputError, match="^features: CSR rows of 6000 stored entries need"):
        Trainer(g, cfg, features=rows)


def test_discriminator_drifts_toward_equilibrium_on_karate():
    graph, _ = load_dataset("karate")
    cfg = TrainConfig(
        model="aidw", dim=2, epochs=3, batch_size=512, adv_batch_size=64,
        walks_per_node=10, walk_length=40, context_size=5, seed=0,
    )
    trainer = Trainer(graph, cfg)
    emb, log = trainer.run()
    # held-out judgment: fresh prior draws vs final embeddings, each side
    # normalized by its own batch statistics as in training
    rng = np.random.default_rng(123)
    z = PRIORS[cfg.prior](rng, 256, cfg.dim)
    p_real = sigmoid(trainer.disc.forward(z))
    p_fake = sigmoid(trainer.disc.forward(emb.vectors))
    acc = 0.5 * ((p_real > 0.5).mean() + (p_fake <= 0.5).mean())
    assert 0.3 <= acc <= 0.7
    # structure loss fell below its starting level
    assert log.records[-1].structure_loss < log.records[0].structure_loss


def test_embeddings_inference_mode_stable():
    g = ring_graph(8)
    cfg = TrainConfig(
        model="idw", dim=3, epochs=1, batch_size=64, walks_per_node=2,
        walk_length=6, context_size=2, seed=9,
    )
    trainer = Trainer(g, cfg)
    trainer.run()
    a = trainer.embeddings().vectors
    b = trainer.embeddings().vectors
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("model", ["dae", "aidw"])
def test_embeddings_normalize_by_all_feature_rows(model):
    g = ring_graph(10)
    cfg = TrainConfig(
        model=model, dim=3, epochs=2, batch_size=4, adv_batch_size=4,
        walks_per_node=2, walk_length=6, context_size=2, seed=4,
    )
    trainer = Trainer(g, cfg)
    emb, _ = trainer.run()
    dense, act, bn = trainer.gen_g.layers
    assert np.abs(bn.shift).max() > 1e-4 and np.abs(bn.gamma - 1.0).max() > 1e-4
    # one float32 forward over all N rows, the pass a training step runs
    rows = trainer.features
    assert rows.dtype == np.float32 and rows.shape[0] == g.num_nodes
    h = act.forward(dense.forward(rows))
    want = bn.forward(h)
    assert want.dtype == np.float32
    np.testing.assert_array_equal(emb.vectors, want)
    np.testing.assert_array_equal(trainer.embeddings().vectors, emb.vectors)
    # batch norm used the population statistics, not those of a minibatch
    assert not np.array_equal(trainer.gen_g.forward(rows[:4]), emb.vectors[:4])
    var = h.var(axis=0, dtype=np.float64)
    gamma = bn.gamma.astype(np.float64)
    np.testing.assert_allclose(
        emb.vectors.var(axis=0, dtype=np.float64), gamma**2 * var / (var + nn.BN_EPS), rtol=1e-5
    )


# training log and embedding files


def test_training_log_file_format(tmp_path):
    g = ring_graph(8)
    cfg = TrainConfig(
        model="aidw", dim=3, epochs=1, batch_size=256, adv_batch_size=8,
        walks_per_node=2, walk_length=6, context_size=2, seed=2,
    )
    _, log = train(g, cfg)
    path = tmp_path / "log.txt"
    log.save(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# cycle structure_loss disc_loss gen_loss"
    assert len(lines) == len(log) + 1
    first = lines[1].split()
    assert first[0] == "0" and len(first) == 4


def test_export_roundtrip_and_idempotence(tmp_path):
    # 9 significant digits round-trip every finite float32, denormals and
    # the sign of zero included
    bits = np.random.default_rng(3).integers(0, 2**32, size=(2000, 8), dtype=np.uint64)
    bits[0, :4] = [0, 2**31, 1, 0x7F7FFFFF]  # 0, -0, the smallest denormal, the largest finite
    bits[bits & 0x7F800000 == 0x7F800000] = 0x3F800000  # inf and nan become 1
    vectors = bits.astype(np.uint32).view(np.float32)
    ids = [f"v{i}" for i in range(len(vectors))]
    p1 = tmp_path / "a.emb"
    export_embeddings(EmbeddingMatrix(vectors=vectors, ids=ids), p1)
    assert len(p1.read_text().splitlines()) == 2001
    back = load_embeddings(p1)
    assert back.vectors.dtype == np.float32
    np.testing.assert_array_equal(back.vectors.view(np.uint32), vectors.view(np.uint32))
    assert back.ids == ids
    p2 = tmp_path / "b.emb"
    export_embeddings(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("model", MODEL_KINDS)
def test_trained_embedding_reloads_bit_for_bit(model, tmp_path):
    g = ring_graph(10)
    cfg = TrainConfig(
        model=model, dim=5, epochs=1, batch_size=8, adv_batch_size=4,
        walks_per_node=2, walk_length=6, context_size=2, seed=6,
    )
    emb, _ = train(g, cfg)
    assert emb.vectors.dtype == np.float32
    export_embeddings(emb, tmp_path / "a.emb")
    back = load_embeddings(tmp_path / "a.emb")
    np.testing.assert_array_equal(back.vectors.view(np.uint32), emb.vectors.view(np.uint32))
    assert back.ids == emb.ids
    export_embeddings(back, tmp_path / "b.emb")
    assert (tmp_path / "a.emb").read_bytes() == (tmp_path / "b.emb").read_bytes()


def test_export_bytes_equal_whole_matrix_formatting(tmp_path):
    tiny, big = np.finfo(np.float32).smallest_subnormal, np.finfo(np.float32).max
    vectors = np.array(
        [[0.0, -0.0, tiny], [-tiny, big, -big], [0.1, -0.1, 1.0 / 3.0]], dtype=np.float32
    )
    emb = EmbeddingMatrix(vectors=vectors, ids=["a", "b", "c"])
    path = tmp_path / "e.emb"
    export_embeddings(emb, path)
    line = "%s" + " %.9g" * 3 + "\n"
    want = "3 3\n" + "".join(line % (i, *row) for i, row in zip(emb.ids, vectors.tolist()))
    assert path.read_bytes() == want.encode()
    assert path.read_text().splitlines()[1:] == [
        "a 0 -0 1.40129846e-45",
        "b -1.40129846e-45 3.40282347e+38 -3.40282347e+38",
        "c 0.100000001 -0.100000001 0.333333343",
    ]


def test_export_casts_other_dtypes_to_float32(tmp_path):
    # float64 vectors are written as the float32 values they round to
    vectors = np.array([[0.1, 1.0 / 3.0]])
    export_embeddings(EmbeddingMatrix(vectors=vectors, ids=["a"]), tmp_path / "e.emb")
    assert (tmp_path / "e.emb").read_text() == "1 2\na 0.100000001 0.333333343\n"


def test_export_rejects_nonfinite(tmp_path):
    # a float64 value beyond the float32 range is refused like a nan
    for value in (np.nan, 1e40):
        emb = EmbeddingMatrix(vectors=np.array([[value, 0.0]]), ids=["x"])
        with pytest.raises(ValueError, match="non-finite float32 values"):
            export_embeddings(emb, tmp_path / "bad.emb")


def test_export_karate_d2_line_count(tmp_path):
    graph, _ = load_dataset("karate")
    cfg = TrainConfig(
        model="idw", dim=2, epochs=1, batch_size=4096, walks_per_node=2,
        walk_length=10, context_size=3, seed=0,
    )
    emb, _ = train(graph, cfg)
    path = tmp_path / "karate.emb"
    export_embeddings(emb, path)
    assert len(path.read_text().splitlines()) == 35
