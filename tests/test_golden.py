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
    "karate-unweighted-aidw": "af3fd85a1e8181efebfc20326f48865ea98696780352eb561e9e39e86823dd2c",
    "karate-unweighted-dae": "2c44d72cc7066ab0daf1ed10e24b992b6a61892cdb52ac4ce62210748049a57d",
    "karate-unweighted-adae": "0038e5a1250596b9f6de52794b5c9b131af3f345cdfe3becfa2118aaf188004d",
    "karate-weighted-idw": "f98914b398ac1f0b3b5a7c60cc25387760e0495c79b7a0273b3fee4a741b8660",
    "karate-weighted-aidw": "af3fd85a1e8181efebfc20326f48865ea98696780352eb561e9e39e86823dd2c",
    "karate-weighted-dae": "2c44d72cc7066ab0daf1ed10e24b992b6a61892cdb52ac4ce62210748049a57d",
    "karate-weighted-adae": "0038e5a1250596b9f6de52794b5c9b131af3f345cdfe3becfa2118aaf188004d",
    "weighted-unweighted-idw": "d25e91de6e0a4e41c1a38448f2a950f6f85817bc86e876720db2c43e866ba7a4",
    "weighted-unweighted-aidw": "93a75ffa1eb0df8187066fef4b4623e89fd75978d7091d776f5fd7d75bcf33f0",
    "weighted-unweighted-dae": "eaab0b724cbc82715e3d0ad5851f3a908e76ed36a86390c9a84a60ceb2ef3689",
    "weighted-unweighted-adae": "cc286c6e24f9f60c64f3de6287864055226969c4c6a658bda96e87094652b165",
    "weighted-weighted-idw": "63495daa42af31437d7e1bf187533f35284b65e0ba8980213e81f2a7d47c9698",
    "weighted-weighted-aidw": "d72d5cac31b9f0081f0975788482647dd7346fd9e5434615f5b57d0a39ab4f45",
    "weighted-weighted-dae": "c939fe4846ec6be97748ace4f23fb9f938bf6bf391e70e51f2da377bf3b18459",
    "weighted-weighted-adae": "fab8c00b9e52fa3dd292679659a547bbaa3282422394d5e0a5bc7853086680fe",
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
