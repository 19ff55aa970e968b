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
    "karate-unweighted-idw": "f98914b398ac1f0b3b5a7c60cc25387760e0495c79b7a0273b3fee4a741b8660",
    "karate-unweighted-aidw": "e08ad8b2237ea04bea553548f8384cc87f1aa364531522a8108a4762486ba51a",
    "karate-unweighted-dae": "41671babe07e54a99973d5452d83d65801724f098d732a4e0aee2f3ec8767d5e",
    "karate-unweighted-adae": "30fc988b6c042405c56956d7c50ae9ac0aebdb2184a60c7386156d10fa17bedc",
    "karate-weighted-idw": "f98914b398ac1f0b3b5a7c60cc25387760e0495c79b7a0273b3fee4a741b8660",
    "karate-weighted-aidw": "e08ad8b2237ea04bea553548f8384cc87f1aa364531522a8108a4762486ba51a",
    "karate-weighted-dae": "41671babe07e54a99973d5452d83d65801724f098d732a4e0aee2f3ec8767d5e",
    "karate-weighted-adae": "30fc988b6c042405c56956d7c50ae9ac0aebdb2184a60c7386156d10fa17bedc",
    "weighted-unweighted-idw": "d25e91de6e0a4e41c1a38448f2a950f6f85817bc86e876720db2c43e866ba7a4",
    "weighted-unweighted-aidw": "45968c09c2a70073d53477dd36b7dce0bb6b115241bde6759f24ba8030d95ad7",
    "weighted-unweighted-dae": "c0fbb0ddd361d4cc964987179b08254a42c7a074978509ed84a756cf7a79f604",
    "weighted-unweighted-adae": "6c3116d4b1f9bc3dafc238c3811113979893ea9e0da25029c3d75d09c356280a",
    "weighted-weighted-idw": "63495daa42af31437d7e1bf187533f35284b65e0ba8980213e81f2a7d47c9698",
    "weighted-weighted-aidw": "cd458fa91a1c54d8b45aa646770ffd4eb2fe08a4933cbbb7907f9450b603e50b",
    "weighted-weighted-dae": "7ac19d64b7700b480d7b1275a752f0e3fe97abf2658ba7b7bce1f96d9b03c71c",
    "weighted-weighted-adae": "73453bf35ce2b256e9c3384eb67496afc87a3365edc129801f4e253b788a1636",
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
