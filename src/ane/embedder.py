"""Embedding models and the two-phase joint training loop.

Four model kinds share one trainer:

* ``idw``  - random-walk skip-gram with parameterized generators: a target
  generator G and a context generator F map feature rows to vectors, trained
  with negative sampling on walk co-occurrence pairs.
* ``aidw`` - idw plus an adversarial phase that pushes the distribution of
  G's outputs toward a chosen prior via a GAN-style discriminator.
* ``dae``  - denoising autoencoder on feature rows; the encoder plays the
  role of G.
* ``adae`` - dae plus the same adversarial phase on the encoder outputs.

Each model is one structure objective (:class:`SkipGram` for idw and aidw,
:class:`Dae` for dae and adae) plus, for the adversarial kinds, the shared
adversarial regularizer. Each training cycle runs ``structure_steps``
minibatch updates of the structure objective, then (for adversarial models)
``disc_steps`` discriminator updates followed by ``gen_steps`` generator
updates. The generator G is a single shared parameter bundle: the structure
phase and the adversarial phase update the same network.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy import sparse

from . import nn
from .graph import InputError, integer, number, open_utf8
from .nn import BatchNorm, DenseLayer, LeakyRelu, Mlp, RmsProp
from .proximity import check_memory, ppmi_features
from .walker import (
    PairBatch,
    negative_sampler,
    order_dtype,
    pair_count,
    positive_pairs,
    random_walks,
    shuffled_batches,
)

# Pairs whose scores are computed at once: the (pairs, k + 1, d) gather of
# their context and negative rows stays small.
NEG_BLOCK = 256

# the adversarial phase's source of 'real' samples, by prior kind: each
# sampler(rng, count, dim) draws every coordinate from U[-1, 1] or N(0, 1)
PRIORS = {
    "uniform": lambda rng, count, dim: rng.uniform(-1.0, 1.0, size=(count, dim)),
    "gaussian": lambda rng, count, dim: rng.standard_normal(size=(count, dim)),
}
PRIOR_KINDS = tuple(PRIORS)

# dtype of the trained networks, of the feature rows they read and of the
# exported embeddings; the losses and the batch-norm statistics are float64
TRAIN_DTYPE = np.float32
VALUE_BYTES = np.dtype(TRAIN_DTYPE).itemsize  # of one network value
# the arithmetic above, as run manifests record it
ARITHMETIC = {
    "networks": TRAIN_DTYPE.__name__,
    "batch_norm_statistics": "float64",
    "losses": "float64",
    "export": TRAIN_DTYPE.__name__,
}


# width of the discriminator's two hidden layers
DISC_HIDDEN = 512


class TrainingDiverged(RuntimeError):
    """A loss or a gradient became non-finite; the run is unusable. The
    message names the cycle, the phase and the losses of the last cycle that
    finished."""


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run depends on besides the graph itself.

    Construction stores each integer field as an ``int`` of at least its
    ``INT_LEAST`` value and each float field as a ``float``, or raises
    :class:`InputError` (exit code 2 in the CLI; a bool is refused). ``lr`` is
    the RMSProp step of every phase; ``grad_clip`` bounds the global gradient
    norm of the adversarial steps (``inf``: no clipping).
    """

    # least value of each integer field (None: any); batch norm needs two rows.
    # The bounds of WALK_FIELDS bind only for the models that walk
    INT_LEAST = {
        "dim": 1, "negatives": 1, "epochs": 1, "batch_size": 2, "adv_batch_size": 2,
        "structure_steps": 1, "disc_steps": 0, "gen_steps": 0, "walks_per_node": 1,
        "walk_length": 2, "context_size": None, "ppmi_steps": 1, "seed": 0,
    }
    WALK_FIELDS = ("walks_per_node", "walk_length")

    model: str = "aidw"
    dim: int = 128
    negatives: int = 5
    epochs: int = 5
    batch_size: int = 256
    adv_batch_size: int = 128
    structure_steps: int = 1
    disc_steps: int = 1
    gen_steps: int = 1
    lr: float = 0.001
    prior: str = "uniform"
    dae_corruption: float = 0.2
    grad_clip: float = 5.0
    walks_per_node: int = 10
    walk_length: int = 80
    context_size: int = 10
    ppmi_steps: int = 4
    ppmi_beta: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise InputError(f"model must be one of {MODEL_KINDS}, got {self.model!r}")
        walks = OBJECTIVES[self.model] is SkipGram
        # a float passes every bound and fails halfway through a run
        for name, least in self.INT_LEAST.items():
            least = least if walks or name not in self.WALK_FIELDS else None
            object.__setattr__(self, name, integer(name, getattr(self, name), least))
        for name in ("lr", "dae_corruption", "grad_clip", "ppmi_beta"):
            if name != "ppmi_beta" or self.ppmi_beta is not None:
                object.__setattr__(self, name, number(name, getattr(self, name)))
        if not 0.0 <= self.dae_corruption < 1.0:
            raise InputError(f"dae_corruption must be in [0, 1), got {self.dae_corruption}")
        # a negative step or clip norm would reverse the updates
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise InputError(f"lr must be a finite number > 0, got {self.lr}")
        if not self.grad_clip > 0:
            raise InputError(f"grad_clip must be > 0 (inf: no clipping), got {self.grad_clip}")
        if self.prior not in PRIOR_KINDS:
            raise InputError(f"prior must be one of {PRIOR_KINDS}, got {self.prior!r}")
        if self.ppmi_beta is not None and not 0 < self.ppmi_beta < math.inf:
            raise InputError(f"ppmi_beta must be a finite number > 0, got {self.ppmi_beta}")
        # a window of 1 holds no pair
        if walks and not 2 <= self.context_size < self.walk_length:
            raise InputError(f"context_size must be in [2, walk_length), got {self.context_size}")

    @property
    def adversarial(self):
        return self.model in ("aidw", "adae")

    def digest(self):
        """Stable hash of the resolved configuration, for provenance."""
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class CycleRecord:
    cycle: int
    structure_loss: float
    disc_loss: float  # nan when the adversarial phase is disabled
    gen_loss: float
    bn_mean_abs: float  # worst |mean| of normalized batch-norm outputs, read after each phase
    bn_var_err: float  # worst |var - 1| likewise


@dataclass
class TrainingLog:
    records: list = field(default_factory=list)

    def __len__(self):
        return len(self.records)

    def save(self, path):
        """Line-delimited log of the three mean losses per cycle; runs with
        equal seeds produce byte-identical files."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# cycle structure_loss disc_loss gen_loss\n")
            for r in self.records:
                fh.write(
                    f"{r.cycle} {r.structure_loss:.17g} {r.disc_loss:.17g} {r.gen_loss:.17g}\n"
                )


@dataclass
class EmbeddingMatrix:
    """Learned node representations, one row per node id."""

    vectors: np.ndarray  # (N, d), TRAIN_DTYPE from training and from load_embeddings
    ids: list


def build_generator(in_dim, out_dim, rng, dtype=np.float64):
    """Single dense layer with leaky ReLU and batch norm on the output."""
    return Mlp(
        [DenseLayer(in_dim, out_dim, rng, dtype), LeakyRelu(), BatchNorm(out_dim, dtype=dtype)]
    )


def build_discriminator(in_dim, rng, hidden=DISC_HIDDEN, dtype=np.float64):
    """Hidden structure 512-512-1; sigmoid is applied by the loss functions."""
    return Mlp(
        [
            DenseLayer(in_dim, hidden, rng, dtype),
            LeakyRelu(),
            BatchNorm(hidden, dtype=dtype),
            DenseLayer(hidden, hidden, rng, dtype),
            LeakyRelu(),
            BatchNorm(hidden, dtype=dtype),
            DenseLayer(hidden, 1, rng, dtype),
        ]
    )


def build_decoder(in_dim, out_dim, rng, dtype=np.float64):
    """Linear reconstruction head for the autoencoder models."""
    return Mlp([DenseLayer(in_dim, out_dim, rng, dtype)])


def _unique_nodes(nodes, num_nodes):
    """``np.unique(nodes, return_inverse=True)`` for indices below ``num_nodes``,
    by a presence bitmap: the sorted distinct nodes, and each entry's position
    among them, shaped like ``nodes``. No sort runs."""
    present = np.zeros(num_nodes, dtype=bool)
    present[nodes] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[nodes]


def idw_batch_loss(gen_g, gen_f, batch, features):
    """Structure loss for one pair batch; leaves gradients on both generators.

    Each generator runs once on the batch's unique rows of ``features`` (a
    CSR array in training), so batch-norm statistics are over distinct
    nodes. The ``k + 1`` scores of each pair (its context, then its ``k``
    negatives) are taken straight from the unique output rows,
    ``NEG_BLOCK`` pairs at a time. One sparse coupling matrix ``C`` (unique
    context rows x unique target rows) sums each pair's score gradients at
    its (context, target) entries, so context rows get ``C @ u_rows`` and
    target rows ``C.T @ v_rows``. No array holds a row per pair: besides the
    unique rows, the step keeps a few numbers per score and one block's
    gathered rows. Scores and their gradients are in the generators' dtype;
    the loss is summed in float64.
    """
    b, k = batch.negatives.shape
    tgt_nodes, tgt_pos = _unique_nodes(batch.targets, features.shape[0])
    # column 0: the pair's context, then its negatives
    ctx_nodes, ctx_pos = _unique_nodes(
        np.column_stack([batch.contexts, batch.negatives]), features.shape[0]
    )

    u_rows = gen_g.forward(features[tgt_nodes])
    v_rows = gen_f.forward(features[ctx_nodes])

    scores = np.empty((b, k + 1), dtype=u_rows.dtype)
    for start in range(0, b, NEG_BLOCK):
        rows = slice(start, start + NEG_BLOCK)
        scores[rows] = np.matmul(v_rows[ctx_pos[rows]], u_rows[tgt_pos[rows], :, None])[:, :, 0]
    # -log sigma(s_pos) - sum_k log sigma(-s_neg_k), averaged over the pairs
    loss_pos, grad_pos = nn.logistic_loss(scores[:, 0], 1)
    loss_neg, grad_neg = nn.logistic_loss(scores[:, 1:], 0)
    loss = (loss_pos + loss_neg) / b

    # the score gradients, written over the scores
    scores[:, 0], scores[:, 1:] = grad_pos / b, grad_neg / b
    coupling = sparse.csr_array(
        (scores.ravel(), (ctx_pos.ravel(), np.repeat(tgt_pos, k + 1))),
        shape=(ctx_nodes.size, tgt_nodes.size),
    )
    gen_g.backward(coupling.T @ v_rows, input_grad=False)
    gen_f.backward(coupling @ u_rows, input_grad=False)
    return loss


def _bce(logits, real):
    """Mean cross-entropy of discriminator logits against one label (``real``:
    prior samples, else embeddings) and its gradient in the logits, in the
    logits' dtype."""
    n = logits.shape[0]
    loss, grad = nn.logistic_loss(logits, 1 if real else 0)
    return loss / n, (grad / n).astype(logits.dtype, copy=False)


def discriminator_loss(disc, real_z, fake_u):
    """Discriminator objective on one real and one fake batch.

    Real and fake samples go through the network as one ``(2, b, d)`` stack,
    so batch norm takes its statistics per side (the batch is axis ``-2``),
    and one backward sums the discriminator's parameter gradients over the
    2b rows. Fake embeddings are treated as constants: no gradient reaches
    the generator here.
    """
    if real_z.shape[0] != fake_u.shape[0]:
        raise ValueError(
            f"real and fake batches must match: {real_z.shape[0]} vs {fake_u.shape[0]}"
        )
    logits = disc.forward(np.stack([real_z, fake_u]))
    loss_real, grad_real = _bce(logits[0], real=True)
    loss_fake, grad_fake = _bce(logits[1], real=False)
    disc.backward(np.stack([grad_real, grad_fake]), input_grad=False)
    return loss_real + loss_fake


def generator_adversarial_loss(gen_g, disc, x_rows):
    """Generator payoff step: make embeddings score as prior samples.

    The discriminator normalizes by the embeddings' batch statistics, as in
    its own step, and backpropagates only the gradient with respect to its
    input (no parameter gradients), so this step can only change the
    generator.
    """
    u = gen_g.forward(x_rows)
    loss, grad_logits = _bce(disc.forward(u), real=True)
    grad_u = disc.backward(grad_logits, param_grads=False)
    gen_g.backward(grad_u, input_grad=False)
    return loss


def dae_batch_loss(encoder, decoder, rows, corruption, rng):
    """Denoising reconstruction loss on a batch of clean feature rows.

    ``rows`` is a scipy sparse array without duplicate entries or a dense
    array; it is taken as CSR in its own dtype and kept sparse through the
    encoder. Masking noise sets ``n_mask = round(corruption * D)`` uniformly
    chosen entries of each D-wide row to zero. Only the stored entries can
    change, so the law is drawn on them alone: a row with ``s`` stored
    entries loses ``Hypergeometric(s, D - s, n_mask)`` of them, a uniform
    subset of that size, and each stored entry is killed with probability
    ``n_mask / D``.
    Killed entries stay stored as zeros.
    The corrupted row is encoded and decoded, and the dense reconstruction
    is scored against the clean row with mean squared error over all D
    entries, zeros included, summed in float64.
    """
    if not 0.0 <= corruption < 1.0:
        raise ValueError(f"corruption must be in [0, 1), got {corruption}")
    x = sparse.csr_array(rows)
    n, d = x.shape
    stored = np.diff(x.indptr)
    corrupted = x
    n_mask = int(round(corruption * d))
    if n_mask > 0:
        kills = rng.hypergeometric(stored, d - stored, n_mask)
        # each entry's row packed above a random key: sorted, each row's
        # entries come in uniform random order, and its first kills[row] die
        shift = 63 - n.bit_length()
        order = rng.integers(0, 1 << shift, size=x.nnz, dtype=np.int64)
        order |= np.repeat(np.arange(n, dtype=np.int64) << shift, stored)
        order = np.argsort(order)  # the keys are freed as their order replaces them
        runs = np.column_stack([kills, stored - kills]).ravel()  # per row: killed, kept
        data = x.data.copy()
        data[order[np.repeat(np.tile([True, False], n), runs)]] = 0.0
        del order
        corrupted = sparse.csr_array((data, x.indices, x.indptr), shape=x.shape)

    diff = decoder.forward(encoder.forward(corrupted))
    # recon - x: x is zero off its stored entries
    diff[np.repeat(np.arange(n), stored), x.indices] -= x.data
    loss = float((diff * diff).mean(dtype=np.float64))
    # the gradient of the loss in recon, written over diff
    diff *= 2.0
    diff /= diff.size
    encoder.backward(decoder.backward(diff), input_grad=False)
    return loss


class SkipGram:
    """Skip-gram structure objective of idw and aidw.

    A target generator G and a context generator F map feature rows to
    vectors and are trained with negative sampling on the positive pairs of
    a random-walk corpus. Items are pairs; a batch is a :class:`PairBatch`.
    """

    @staticmethod
    def memory(graph, config, in_dim, widest):
        """:func:`check_memory_plan` items: each epoch's order of the pairs,
        the pairs, a batch's step and the two generators. A batch that
        takes in the next slice (all pairs of one share a node) is not counted."""
        n, d, k = graph.num_nodes, config.dim, config.negatives
        pairs = pair_count(n * config.walks_per_node, config.walk_length, config.context_size)
        # a step holds about 64 bytes per score slot (a pair's context and
        # negatives) and 64 bytes per dimension of each distinct row of either
        # generator, the size of eight d-wide float64 arrays: an upper bound
        # for the float32 networks, kept until a measurement sets a smaller one
        batch = min(config.batch_size, pairs)
        slots = batch * (k + 1)
        rows = min(n, batch) + min(n, slots)
        # It also holds one block's gather of its pairs' context and negative
        # rows and their target rows, and the generators' gathered feature
        # rows, 8 bytes per stored entry (tracemalloc on 34 x 20 000 rows,
        # 25-100 % dense), counted as 12
        block = VALUE_BYTES * min(batch, NEG_BLOCK) * (k + 2) * d
        gathered = widest(min(n, batch)) + widest(min(n, slots))
        step_bytes = 64 * slots + 64 * d * rows + block + 12 * gathered
        # G and F, DenseLayer(in_dim, d) and BatchNorm(d), with gradients and accumulators
        values = 3 * 2 * (in_dim + 3) * d
        # the int32 corpus, walks * length <= pairs entries, is gone before an order exists
        walk = "lower --walks, --walk-length or --context"
        step = f"a batch of {batch} pairs with {k} negatives each"
        order = np.dtype(order_dtype(pairs)).itemsize * pairs
        return [
            (order, f"an epoch's order of {pairs} pairs", walk),
            (8 * pairs, f"{pairs} pairs", walk),
            (step_bytes, step, "lower --batch, --negatives or --dim"),
            (VALUE_BYTES * values, f"generators G and F, {values} values", "lower --dim"),
        ]

    def __init__(self, graph, config, features, rng_init, rng_walks):
        self.config = config
        self.features = features
        self.gen_g = build_generator(features.shape[1], config.dim, rng_init, TRAIN_DTYPE)
        self.gen_f = build_generator(features.shape[1], config.dim, rng_init, TRAIN_DTYPE)
        self.nets = (self.gen_g, self.gen_f)

        corpus = random_walks(graph, config.walks_per_node, config.walk_length, rng_walks)
        self.pair_targets, self.pair_contexts = positive_pairs(corpus, config.context_size)
        self.neg_table = negative_sampler(graph)

    def batches(self, rng):
        """One epoch of shuffled pair batches; each pair's ``negatives`` noise
        draws are taken as its batch is yielded. Each generator normalizes
        over the distinct nodes of a batch, so a batch whose pairs share one
        target or one context is folded into a neighbouring one."""
        targets, contexts = self.pair_targets, self.pair_contexts

        def one_node(sel):
            t, c = targets[sel], contexts[sel]
            return (t == t[0]).all() or (c == c[0]).all()

        for sel in shuffled_batches(targets.size, self.config.batch_size, rng, one_node):
            shape = (sel.size, self.config.negatives)
            negs = self.neg_table.sample(rng, np.zeros(shape, dtype=np.int64))
            yield PairBatch(targets[sel], contexts[sel], negs)

    def loss(self, batch, rng):
        """Loss of one batch; leaves gradients on the networks."""
        return idw_batch_loss(self.gen_g, self.gen_f, batch, self.features)


class Dae:
    """Denoising-autoencoder structure objective of dae and adae.

    The encoder is the generator G; a linear decoder reconstructs the clean
    feature row from the encoding of a corrupted one. Items are nodes; a
    batch is an array of node indices.
    """

    @staticmethod
    def memory(graph, config, in_dim, widest):
        """:func:`check_memory_plan` items: the encoder and decoder, and the
        largest batch's step (a one-node tail in): its dense reconstruction
        and its square, and its gathered feature rows."""
        # the encoder is a generator, the decoder DenseLayer(d, in_dim)
        values = 3 * ((in_dim + 3) * config.dim + (config.dim + 1) * in_dim)
        rows = min(config.batch_size + 1, graph.num_nodes)
        step = f"a batch's {rows} x {in_dim} reconstruction and its square"
        # the rows' gather, corruption and subtraction took 12.6-20.2 bytes per
        # stored entry (tracemalloc on 34 x 20 000 rows, 10-100 % dense), counted as 32
        return [
            (VALUE_BYTES * values, f"encoder and decoder, {values} values", "lower --dim"),
            (VALUE_BYTES * 2 * rows * in_dim + 32 * widest(rows), step, "lower --batch"),
        ]

    def __init__(self, graph, config, features, rng_init, rng_walks):
        self.config = config
        self.features = features
        self.gen_g = build_generator(features.shape[1], config.dim, rng_init, TRAIN_DTYPE)
        self.decoder = build_decoder(config.dim, features.shape[1], rng_init, TRAIN_DTYPE)
        self.nets = (self.gen_g, self.decoder)

    def batches(self, rng):
        """One epoch of shuffled node batches; a trailing one-node batch is
        folded into the one before it."""
        return shuffled_batches(
            self.features.shape[0], self.config.batch_size, rng, lambda sel: sel.size < 2
        )

    def loss(self, batch, rng):
        """Loss of one batch, corrupted with ``rng``; leaves gradients on the networks.

        The batch's feature rows stay CSR: the corruption masks only their
        stored entries, with the law of masking a fixed count of all entries
        of each row, and the encoder multiplies the sparse rows.
        """
        return dae_batch_loss(
            self.gen_g, self.decoder, self.features[batch], self.config.dae_corruption, rng
        )


# structure objective of each model kind
OBJECTIVES = {"idw": SkipGram, "aidw": SkipGram, "dae": Dae, "adae": Dae}
MODEL_KINDS = tuple(OBJECTIVES)


def csr_rows(features, name):
    """``features`` as ``TRAIN_DTYPE`` CSR rows, shared when they already
    are; the values of other sparse rows are cast, sharing their index
    arrays when those are CSR. A dense array is checked against physical
    memory first, in a message that ``name`` starts, and converted in its
    own dtype, so a stored entry is one that is non-zero there."""
    if not sparse.issparse(features):
        nnz = int(np.count_nonzero(features))
        # scipy converts through COO: 32 bytes an entry at the peak for a
        # float64 matrix, 28 for a float32 one, and about 4.6 kB whatever the
        # size (tracemalloc), counted as 8 KiB; a cast in the same call would
        # hold 4 bytes an entry more
        check_memory(
            features.nbytes + 32 * nnz + 8192,
            f"{name}: CSR rows of {nnz} stored entries",
            "the dense matrix, 32 bytes an entry and 8 KiB while it is converted",
            "use a narrower --features file",
        )
        features = sparse.csr_array(features)
    return sparse.csr_array(features, dtype=TRAIN_DTYPE)


def check_memory_plan(graph, config, features=None):
    """What training on ``features``, the CSR rows of :func:`csr_rows`,
    holds, as ``(bytes, what, remedy)`` items all alive in training: the
    objective's ``memory``; for adversarial models the discriminator with G's
    second RMSProp accumulator, and an adversarial batch's steps; the export
    pass of :meth:`Trainer.embeddings`; and the rows. A step that gathers up
    to ``r`` rows counts the stored entries of the ``r`` widest. ``features`` None
    stands for PPMI rows not built yet, of which nothing is counted;
    :class:`Trainer` checks again once it has them. Returns the items;
    raises ``GraphError`` when their sum exceeds physical memory, listing
    them and naming the remedy of the largest."""
    in_dim = graph.num_nodes if features is None else features.shape[1]
    sizes = np.zeros(0, np.int64) if features is None else np.sort(np.diff(features.indptr))[::-1]

    def widest(r):
        """Stored entries of the ``r`` widest rows."""
        return int(sizes[:r].sum())

    items = OBJECTIVES[config.model].memory(graph, config, in_dim, widest)
    d, h, b = config.dim, DISC_HIDDEN, config.adv_batch_size
    if config.adversarial:
        # the discriminator's three DenseLayers and two BatchNorms, and G's
        # second accumulator, for the generator step
        values = 3 * ((d + h + 7) * h + 1) + (in_dim + 3) * d
        what = f"discriminator and G's second accumulator, {values} values"
        items.append((VALUE_BYTES * values, what, "lower --dim"))
        # 36 864 bytes a sampled row at dim 128, where tracemalloc measured
        # 29 860 for the discriminator step (real and fake stacked) and
        # 14 935 for the generator step (karate, adv batch 128). Both steps
        # gather the rows, drawn with replacement: 8 bytes per stored entry
        # (34 x 20 000 rows, 25-100 % dense), counted as 12 for b draws of
        # the widest
        per_row = VALUE_BYTES * (16 * h + 8 * d)
        need = per_row * b + 12 * b * widest(1)
        items.append((need, f"an adversarial batch of {b} rows", "lower --adv-batch"))
    # the export pass over all n rows: while batch norm runs, its input, its
    # centred rows and their square (three n x d arrays) beside leaky ReLU's
    # n x d boolean mask, numpy's float64 buffer for the statistics' cast (n
    # x d values, at most np.getbufsize()) and its d-wide float64 arrays,
    # counted as 8; then the embedding's list of n ids
    n = graph.num_nodes
    export = (3 * VALUE_BYTES + 1) * n * d + 8 * (min(np.getbufsize(), n * d) + 8 * d + n)
    items.append((export, f"the export pass over {n} rows", "lower --dim"))
    if features is not None:
        held = sum(a.nbytes for a in (features.data, features.indices, features.indptr))
        items.append((held, "feature rows", "use a narrower --features file"))
    check_memory(
        sum(need for need, _, _ in items),
        f"Training arrays of {config.model} on {graph.num_nodes} x {in_dim} features",
        "; ".join(f"{what}: {need / 1e9:.1f} GB" for need, what, _ in items),
        max(items, key=lambda item: item[0])[2],
    )
    return items


def _mean(losses):
    """Mean of a phase's step losses; nan for a phase that took no step."""
    return float(np.mean(losses)) if losses else float("nan")


class Trainer:
    """Owns the networks, optimizers and RNG streams for one training run.

    Randomness is split into independent streams so that disabling the
    adversarial phase does not shift the structure phase: an adversarial
    model with zero disc/gen steps reproduces its plain counterpart bit for
    bit under the same seed.

    Every network is built in ``TRAIN_DTYPE`` (float32), and every step and
    :meth:`embeddings` read ``features``, the one ``TRAIN_DTYPE`` CSR copy of
    the rows.
    """

    def __init__(self, graph, config, features=None):
        self.graph = graph
        self.config = config

        streams = np.random.SeedSequence(config.seed).spawn(7)
        (
            self.rng_init,
            self.rng_disc_init,
            self.rng_walks,
            self.rng_batches,
            self.rng_prior,
            self.rng_noise,
            self.rng_adv_rows,
        ) = (np.random.default_rng(s) for s in streams)

        if features is None:
            # the memory check first: it is cheap, the PPMI build is not
            check_memory_plan(graph, config)
            features = ppmi_features(graph, config.ppmi_steps, config.ppmi_beta)
        elif features.shape[0] != graph.num_nodes:
            raise InputError(
                f"feature rows ({features.shape[0]}) != graph nodes ({graph.num_nodes})"
            )
        elif features.shape[1] < 1:
            raise InputError("feature rows have no column")
        # one form whatever the source; float32 CSR rows are shared, not copied
        self.features = csr_rows(features, "features")
        del features  # float64 PPMI rows built above are freed before the walks
        check_memory_plan(graph, config, self.features)
        self.objective = OBJECTIVES[config.model](
            graph, config, self.features, self.rng_init, self.rng_walks
        )
        self.gen_g = self.objective.gen_g
        self.structure_nets = list(self.objective.nets)

        self.disc = None
        if config.adversarial:
            self.disc = build_discriminator(config.dim, self.rng_disc_init, dtype=TRAIN_DTYPE)
            self.disc_opt = RmsProp([self.disc], lr=config.lr)
            self.gen_adv_opt = RmsProp([self.gen_g], lr=config.lr)

        self.structure_opt = RmsProp(self.structure_nets, lr=config.lr)
        self.log = TrainingLog()

    # -- single steps ------------------------------------------------------

    def _structure_step(self, batch):
        loss = self.objective.loss(batch, self.rng_noise)
        return self._update(loss, "structure", self.structure_opt)

    def _disc_step(self):
        cfg = self.config
        real = PRIORS[cfg.prior](self.rng_prior, cfg.adv_batch_size, cfg.dim).astype(TRAIN_DTYPE)
        rows = self.rng_adv_rows.integers(self.graph.num_nodes, size=cfg.adv_batch_size)
        fake = self.gen_g.forward(self.features[rows])
        loss = discriminator_loss(self.disc, real, fake)
        return self._update(loss, "discriminator", self.disc_opt, self.disc.grads)

    def _gen_step(self):
        rows = self.rng_adv_rows.integers(self.graph.num_nodes, size=self.config.adv_batch_size)
        loss = generator_adversarial_loss(self.gen_g, self.disc, self.features[rows])
        return self._update(loss, "generator", self.gen_adv_opt, self.gen_g.grads)

    def _update(self, loss, phase, opt, clipped=None):
        """Finish a step whose gradients are on ``opt``'s networks: check the
        loss, clip the gradient vector ``clipped`` (if given) to
        ``grad_clip``, and step ``opt``. A non-finite loss or gradient
        raises :class:`TrainingDiverged`. Returns the loss."""
        if not np.isfinite(loss):
            raise self._diverged(f"{phase} loss became {float(loss)!r}")
        if clipped is not None:
            nn.clip_global_norm(clipped, self.config.grad_clip)
        try:
            opt.step()
        except nn.GradientError as exc:
            raise self._diverged(f"{phase} gradient became non-finite") from exc
        return loss

    def _diverged(self, what):
        """A :class:`TrainingDiverged` saying ``what`` happened in the current
        cycle, with the losses of the last cycle that finished."""
        # one record per finished cycle, so its length is the current cycle
        cycle = len(self.log)
        if cycle:
            last = self.log.records[-1]
            state = (
                f"cycle {last.cycle} ended with structure loss {last.structure_loss!r}, "
                f"disc loss {last.disc_loss!r}, gen loss {last.gen_loss!r}"
            )
        else:
            state = "no cycle had finished"
        return TrainingDiverged(f"{what} in cycle {cycle}; {state}")

    @staticmethod
    def _bn_drift(nets):
        """(|mean|, |var - 1|) of every batch-norm layer's last forward."""
        return [
            (layer.last_norm_mean_abs, layer.last_norm_var_err)
            for net in nets
            for layer in net.layers
            if isinstance(layer, BatchNorm)
        ]

    def cycles(self):
        """Train, yielding each cycle's :class:`CycleRecord` once the log
        holds it; a caller that stops early keeps the networks as that cycle
        left them.

        An epoch is one pass over the objective's batch stream (positive
        pairs, or feature rows for the autoencoder models): each cycle takes
        the next ``structure_steps`` batches, then runs the adversarial
        phase, and the epoch ends when the stream runs dry.

        Each cycle's steps run on one OpenBLAS thread (:func:`nn.one_blas_thread`),
        so the bytes do not depend on the caller's thread count; the caller's
        count is back in force at each yield, on a :class:`TrainingDiverged`
        and on return.
        """
        cfg = self.config
        disc_steps, gen_steps = (cfg.disc_steps, cfg.gen_steps) if cfg.adversarial else (0, 0)

        for _ in range(cfg.epochs):
            batches = self.objective.batches(self.rng_batches)
            while True:
                with nn.one_blas_thread():
                    structure_losses = []
                    drift = [(0.0, 0.0)]
                    for _ in range(cfg.structure_steps):
                        batch = next(batches, None)
                        if batch is None:
                            break
                        structure_losses.append(self._structure_step(batch))
                        drift += self._bn_drift(self.structure_nets)
                    if not structure_losses:
                        break  # the epoch's batches are used up

                    disc_losses = [self._disc_step() for _ in range(disc_steps)]
                    gen_losses = [self._gen_step() for _ in range(gen_steps)]
                    if disc_losses or gen_losses:
                        drift += self._bn_drift([self.disc, self.gen_g])

                    self.log.records.append(
                        CycleRecord(
                            cycle=len(self.log),
                            structure_loss=_mean(structure_losses),
                            disc_loss=_mean(disc_losses),
                            gen_loss=_mean(gen_losses),
                            bn_mean_abs=max(mean_abs for mean_abs, _ in drift),
                            bn_var_err=max(var_err for _, var_err in drift),
                        )
                    )
                yield self.log.records[-1]

    def run(self):
        """Train to completion (drain :meth:`cycles`); return (embeddings, training log)."""
        for _ in self.cycles():
            pass
        return self.embeddings(), self.log

    def embeddings(self):
        """Current node representations: all N feature rows pass through G
        as one batch, the float32 pass a training step runs, so batch norm
        uses the population statistics, summed in float64, and each
        dimension has mean ``shift`` and variance ``gamma**2 var / (var +
        eps)`` to float32 rounding. G's cached mask and normalized rows
        (N x d each) are dropped when the pass returns, so the export and the
        evaluation after it hold only the vectors. The pass runs on one
        OpenBLAS thread, as the cycles do."""
        with nn.one_blas_thread():
            vectors = self.gen_g.forward(self.features)
            self.gen_g.release()
        return EmbeddingMatrix(vectors=vectors, ids=list(self.graph.ids))


def train(graph, config, features=None):
    """Run the full two-phase training procedure.

    Returns ``(EmbeddingMatrix, TrainingLog)``. ``features`` defaults to the
    shifted-PPMI matrix built from the graph with the config's settings.
    """
    return Trainer(graph, config, features=features).run()


def export_embeddings(embedding, path):
    """Write embeddings as text: ``N d`` header, then one node per line with
    its external id and coordinates as ``TRAIN_DTYPE`` values at 9
    significant digits, the width that round-trips every finite float32, so
    :func:`load_embeddings` reads back the same bits. Vectors of another
    dtype are cast first. Rows become Python floats one at a time, so the
    text costs no whole-matrix list."""
    with np.errstate(over="ignore"):
        vecs = np.asarray(embedding.vectors, dtype=TRAIN_DTYPE)
    if not np.isfinite(vecs).all():
        raise ValueError(f"embedding matrix contains non-finite {TRAIN_DTYPE.__name__} values")
    line = "%s" + " %.9g" * vecs.shape[1] + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{vecs.shape[0]} {vecs.shape[1]}\n")
        for node_id, row in zip(embedding.ids, vecs):
            fh.write(line % (node_id, *row.tolist()))


def load_embeddings(path):
    """Reload a file written by :func:`export_embeddings`, or any node-keyed
    matrix in its format, as ``TRAIN_DTYPE`` vectors; a header that is not
    two integers or gives no coordinate, a malformed row, a non-finite coordinate or one beyond the
    float32 range, a repeated node id, a row beyond the header's N or a file
    that ends before them raises :class:`InputError` naming the file and
    the line.

    The matrix holds no more rows than the file's bytes can: a row of
    ``d + 1`` tokens, each followed by a space or a line end, takes at least
    ``2 (d + 1)`` bytes. Its size, ``VALUE_BYTES`` a value, is checked
    against physical memory before it is allocated.
    """
    dtype = TRAIN_DTYPE.__name__
    # a value that overflows dtype is refused below, by its line
    with open_utf8(path) as fh, np.errstate(over="ignore"):
        header = fh.readline().split()
        if len(header) != 2 or not all(tok.isdecimal() for tok in header):
            raise InputError(f"{path}: line 1: expected 'N d' header, got {header!r}")
        n, d = int(header[0]), int(header[1])
        if d < 1:
            raise InputError(
                f"{path}: line 1: header gives d = {d}; a row needs at least 1 coordinate"
            )
        # the header and each row that parses take 2 (d + 1) bytes or more per row
        rows = min(n, os.fstat(fh.fileno()).st_size // (2 * (d + 1)))
        check_memory(
            VALUE_BYTES * rows * d, f"{path}: {rows} rows of {d} coordinates", dtype,
            "use a smaller file",
        )
        line_of = {}  # node id -> its line
        vectors = np.empty((rows, d), dtype=TRAIN_DTYPE)
        for i in range(n):
            line = fh.readline()
            parts = line.split()
            if len(parts) != d + 1:
                ends = "" if line else f"; the file ends after {i} of the {n} rows line 1 gives"
                raise InputError(
                    f"{path}: line {i + 2} has {len(parts)} fields, expected {d + 1}{ends}"
                )
            if parts[0] in line_of:
                raise InputError(
                    f"{path}: line {i + 2} repeats the node id {parts[0]!r} "
                    f"of line {line_of[parts[0]]}"
                )
            line_of[parts[0]] = i + 2
            try:
                values = [float(tok) for tok in parts[1:]]
            except ValueError as exc:
                raise InputError(f"{path}: line {i + 2}: {exc}") from exc
            vectors[i] = values
            if not np.isfinite(vectors[i]).all():
                what = "non-finite coordinate"
                if np.isfinite(values).all():
                    what = f"coordinate beyond the {dtype} range"
                raise InputError(f"{path}: line {i + 2} holds a {what}")
        for k, line in enumerate(fh, start=n + 2):
            if line.strip():
                raise InputError(f"{path}: line {k}: more than the {n} rows the header gives")
    return EmbeddingMatrix(vectors=vectors, ids=list(line_of))
