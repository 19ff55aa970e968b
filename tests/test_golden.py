"""Golden outputs: every model on two graphs writes the recorded bytes.

Each case trains through the Python API (load, preprocess, train, export) with
a small fixed config and compares the sha256 of ``embedding.txt`` followed by
``training_log.txt`` with a digest recorded on the numpy and BLAS named below.
Refactors that are meant to be exact must keep every digest. Another numpy or
BLAS build, or the same OpenBLAS on a CPU where it picks another kernel, may
round differently, so the cases skip there. The digests were the same with
one and with two OpenBLAS threads.

The idw and aidw digests were recorded again, with scipy 1.17.1, when the
skip-gram gradients moved to sparse incidence products: those sum each row's
pair terms in pair order, which rounds differently from the sorted segment
sums they replaced. The sparse products are scipy's own loops, not BLAS.

They were recorded once more when walks and negatives moved to one alias
table built for all CSR rows at once: its build pairs small and large
entries in another order, and negatives are now drawn with two uniform
floats instead of a uniform integer and a float. Unit-weight rows never
alias, so walks on unweighted graphs are unchanged, but the negatives
change on every graph.

All sixteen were recorded again when the PPMI features moved to the sparse
transition matrix: each power is now ``A @ A^k`` with a CSR ``A`` (scipy's
loop, adding each row's terms in entry order) instead of the dense BLAS
product ``A^k @ A``. The proximity matrix moved by at most 2.2e-16 and the
PPMI features by 8.9e-16 on a 2 708-node planted graph, but training is
chaotic, so every digest changes. In the same change ``Graph.degrees``
became one segmented sum in entry order, which rounds differently from
``ndarray.sum`` on rows of 8 or more entries, so the transition matrix and
the negative-sampling weights can move by one rounding as well.

All sixteen were recorded again when the generators started taking their
feature rows as a scipy CSR array: the first layer's ``x @ W.T`` and
``grad.T @ x`` became scipy's sparse-times-dense loops, which add only the
non-zero terms, in entry order, where BLAS added every term. The PPMI
values themselves are bit-equal to the dense transform. In the same change
the skip-gram negative scores moved from ``np.einsum`` to a batched
``np.matmul``, which rounds differently. dae and adae change through the
adversarial phase and the exported embedding; their corrupted training
batches are still dense.

The eight dae and adae digests were recorded again when the autoencoder
batches stayed CSR: the corruption draws each row's kill count from a
hypergeometric law and picks the killed stored entries by sorted random
keys, which consumes the noise stream differently, and the encoder's
products become scipy's sparse sums. The four aidw digests moved in the
same change only because ``DenseLayer`` now stores its weights as
``(in_dim, out_dim)``: ``clip_global_norm`` then sums each transposed
weight gradient in another order (with ``grad_clip=inf`` a karate aidw run
is bit-identical). The idw digests did not move.

All sixteen were recorded again when batch norm lost its running averages:
the export now passes all N feature rows through the generator as one
batch and normalizes by their exact statistics, where it used to
normalize by a moving average of the training batches'. Training never
read the running averages, so every ``training_log.txt`` stayed
byte-identical; only ``embedding.txt`` moved.

The eight idw and aidw digests were recorded again when the skip-gram step
stopped building arrays with a row per pair. Each pair's positive score is
now the first column of the same batched ``np.matmul`` as its negative
scores, where it used to be an elementwise product summed along the row.
Both row gradients now come from one coupling matrix (unique context rows x
unique target rows) that sums each pair's score gradients per entry, so
``C.T @ v_rows`` gives the target rows. The old code took ``W.T @ v_rows``
per pair and then summed the pairs of each target. The eight dae and adae
digests did not move. Neither did any digest when batch norm and leaky ReLU
started allocating less, or when the epoch's pair order moved to int32.

All sixteen were recorded again when training moved to float32: the
trainer builds every network in float32 and trains on float32 feature
rows, so every product, activation, gradient and RMSProp update rounds to
float32 (the dense products become OpenBLAS sgemm and scipy's float32
loops). Batch norm still sums its statistics in float64, the losses are
reduced in float64, and ``embedding.txt`` is a float64 pass of the float32
parameters over the float64 features. The new digests were again the same
with one and with two OpenBLAS threads.

The eight aidw and adae digests were recorded again when each network's
parameters and gradients moved into one contiguous vector:
``clip_global_norm`` now takes the norm as one float32 dot product over the
whole gradient vector (OpenBLAS ``sdot``, the same with one and two
threads) where it added one float32 sum of squares per layer array, so the
clipped gradients round differently whenever clipping binds. With the
per-array summation put back, all sixteen old digests matched. The eight
idw and dae digests did not move.

The eight aidw and adae digests were recorded again when the discriminator
and generator losses moved to the one logistic loss that the skip-gram
uses. The old loss clamped each probability to [1e-12, 1 - 1e-12] before
the log and zeroed the gradient where the clamp bound; the new one is the
exact ``-log_sigmoid`` and keeps the gradient ``sigmoid - label`` at any
logit. Every ``training_log.txt`` moved in its disc and gen columns,
because ``log(sigmoid)`` and ``log_sigmoid`` round differently. The clamp
bound on 10 of the 12 480 discriminator logits of these eight cases (at
|logit| of 27.6 or more); six ``embedding.txt`` files moved through those
gradients, and with the gradient zeroed again where the clamp bound, all
eight old ``embedding.txt`` files came back byte for byte. The eight idw
and dae digests did not move.
"""

import ctypes
import hashlib
from pathlib import Path

import numpy as np
import pytest

from ane.embedder import TrainConfig, Trainer, export_embeddings
from ane.graph import load_edge_list, preprocess

GRAPHS = {
    "karate": Path(__file__).resolve().parents[1] / "src" / "ane" / "data" / "karate.edges",
    "weighted": Path(__file__).resolve().parent / "data" / "weighted.edges",
}
CONFIG = dict(
    dim=4, walks_per_node=2, walk_length=10, context_size=3, epochs=2,
    batch_size=64, adv_batch_size=16, seed=3,
)
RECORDED_NUMPY = "2.4.6"
RECORDED_BLAS = "scipy-openblas 0.3.31.188.0 SkylakeX"

DIGESTS = {
    "karate-unweighted-idw": "ef42f05948aed62e9e0fcd6f5744045a625695f199b33ea831cc5a66e1c25941",
    "karate-unweighted-aidw": "81ff7d5e6b0b47e14e5de95b35f568d8f478cf50aba98a10a4c3128997fda5e0",
    "karate-unweighted-dae": "91344bb0806b3e9c469ee7906bd97fe2ba5f8cdf4b9ca4fbd7e32a781b224c97",
    "karate-unweighted-adae": "9c4d2bb55f93257d0d8889ba76e7f7922eb557b46a95281997ee272bbc67c080",
    "karate-weighted-idw": "ef42f05948aed62e9e0fcd6f5744045a625695f199b33ea831cc5a66e1c25941",
    "karate-weighted-aidw": "81ff7d5e6b0b47e14e5de95b35f568d8f478cf50aba98a10a4c3128997fda5e0",
    "karate-weighted-dae": "91344bb0806b3e9c469ee7906bd97fe2ba5f8cdf4b9ca4fbd7e32a781b224c97",
    "karate-weighted-adae": "9c4d2bb55f93257d0d8889ba76e7f7922eb557b46a95281997ee272bbc67c080",
    "weighted-unweighted-idw": "f42e45fb9902c439e8c89149db935a2b43d4272d169e1d73f13b28ea6bc64593",
    "weighted-unweighted-aidw": "82865496f46a9d6ab12c253c4a7e76707987e94b2f4ef2391de236453f545ab7",
    "weighted-unweighted-dae": "5ac6cb70c6a3db8695b05e8d7b6164792e13747a0864a0048353dc1c2aefbaa7",
    "weighted-unweighted-adae": "f704aad73475fdd543599f2e50f6b66b7c283bca54dd6c4e832bb4b740d89084",
    "weighted-weighted-idw": "021e1376ff80b2dfe0e3c511ff57be8d303d79d7bd5a38034dd5a276582999b4",
    "weighted-weighted-aidw": "4baf76c70bf19c9ed27348cdbaee2b219558c778e804ab2be5f77ccc6a9dd570",
    "weighted-weighted-dae": "132659135bea2160f348be5bc4eb616c76b0b5fb2c36a063cccc51c3bb9809f3",
    "weighted-weighted-adae": "8bfeee15c32f1dbdaad3b8cc6b6c527733991995a4ec1f0cfbc61ec310687618",
}


def _blas():
    """numpy's BLAS build and, for OpenBLAS, the CPU kernel it chose at run time."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')} {_openblas_core()}"


def _openblas_core():
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return "unknown"
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "unknown"


def _digest(graph_name, weighted, model, out):
    graph = preprocess(load_edge_list(GRAPHS[graph_name], weighted=weighted))
    embedding, log = Trainer(graph, TrainConfig(model=model, **CONFIG)).run()
    export_embeddings(embedding, out / "embedding.txt")
    log.save(out / "training_log.txt")
    blob = (out / "embedding.txt").read_bytes() + (out / "training_log.txt").read_bytes()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_golden_digest(case, tmp_path):
    if (np.__version__, _blas()) != (RECORDED_NUMPY, RECORDED_BLAS):
        pytest.skip(
            f"digests recorded with numpy {RECORDED_NUMPY} and {RECORDED_BLAS}; "
            f"this is numpy {np.__version__} with {_blas()}"
        )
    graph_name, weighting, model = case.split("-")
    assert _digest(graph_name, weighting == "weighted", model, tmp_path) == DIGESTS[case]
