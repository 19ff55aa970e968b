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
    "karate-unweighted-idw": "b75152a88edd527973ae7449fdc361f5de4e9c18b0aeb5be14e0f45af5727f96",
    "karate-unweighted-aidw": "a2251d2de7f0486ab9fcf1fdbe90156815bee54a9d5aeb12b9dd0501e781dbc1",
    "karate-unweighted-dae": "3d8366346e4436dff4168ad234a9840c9ebd8095f676c232096b91ad395dff63",
    "karate-unweighted-adae": "48dba5446ed5df17b29c644b5f5ebec0d7ac1c7c86aaa7fe72ea96694bddec52",
    "karate-weighted-idw": "b75152a88edd527973ae7449fdc361f5de4e9c18b0aeb5be14e0f45af5727f96",
    "karate-weighted-aidw": "a2251d2de7f0486ab9fcf1fdbe90156815bee54a9d5aeb12b9dd0501e781dbc1",
    "karate-weighted-dae": "3d8366346e4436dff4168ad234a9840c9ebd8095f676c232096b91ad395dff63",
    "karate-weighted-adae": "48dba5446ed5df17b29c644b5f5ebec0d7ac1c7c86aaa7fe72ea96694bddec52",
    "weighted-unweighted-idw": "3e900c130e999014568b654c1f8d45e7307e6517b9276780c17977272ae8fedd",
    "weighted-unweighted-aidw": "323b1ca8316ee557e8ca54a526364005cd078689c92bb99c1a56d30d28ab04fd",
    "weighted-unweighted-dae": "0a4b8d4f2c116dc03ca2e3a9d2d8722c9e233fbdda047556e2279645aef6c247",
    "weighted-unweighted-adae": "72404e5d0fddcbf7d91d862b394c683536ee23bc95261ea34d8d7a3b7facb484",
    "weighted-weighted-idw": "73bceeba534ad11b138bf86aed9f718522d87d6c814f1aa103ee2abe6cfae9e0",
    "weighted-weighted-aidw": "33f24a5a09434fbaf8f7effb30b54df9a1c6ca9ecfa9ccd126918b3dc664e321",
    "weighted-weighted-dae": "f6ea2b9257f7401a9911fc80d21594fc56e11750bd19b2e902ad7017880b620b",
    "weighted-weighted-adae": "6bef5673b678553dd26d7ff5a3688b4083812faf45e06196f6871ff72c95cae1",
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
