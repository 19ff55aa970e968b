"""Golden outputs: every model on two graphs writes the recorded bytes.

Each case trains through the Python API (load, preprocess, train, export) with
a small fixed config and compares the sha256 of ``embedding.txt`` followed by
``training_log.txt`` with a digest recorded on the numpy and BLAS named below.
Refactors that are meant to be exact must keep every digest. Another numpy or
BLAS build, or the same OpenBLAS on a CPU where it picks another kernel, may
round differently, so the cases skip there. The digests were the same with
one and with two OpenBLAS threads.

Why each digest moved when it was recorded again, with the old and new
digests, is in CHANGES.md.
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
