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
    "karate-unweighted-idw": "fec6015f36124f7acf64b698918a9bdddbce73e756bb5ac588a0b0c9cae30ce0",
    "karate-unweighted-aidw": "bb10f1109979cc8450a16aab7439de1940f604d33e153adba823a2a11fdc3a71",
    "karate-unweighted-dae": "c124cac78af0cdb4da39385bedda550e1da442a8f1c8d3681bca252f492c22d1",
    "karate-unweighted-adae": "bad3d1afa6f3b998b78709921b235448fffd2859f19006d326f6b03b9dac9290",
    "karate-weighted-idw": "fec6015f36124f7acf64b698918a9bdddbce73e756bb5ac588a0b0c9cae30ce0",
    "karate-weighted-aidw": "bb10f1109979cc8450a16aab7439de1940f604d33e153adba823a2a11fdc3a71",
    "karate-weighted-dae": "c124cac78af0cdb4da39385bedda550e1da442a8f1c8d3681bca252f492c22d1",
    "karate-weighted-adae": "bad3d1afa6f3b998b78709921b235448fffd2859f19006d326f6b03b9dac9290",
    "weighted-unweighted-idw": "816cf0ca14df8fbdd2ea4a55271a7e4033e042fd2d4ce8e101b25a1f4a4f5077",
    "weighted-unweighted-aidw": "cd8ee9e73fc674315e36ca44cb8ee3a776fbd4e956ca8ba0cf5977cb644a7c2b",
    "weighted-unweighted-dae": "5438bd7a79f4519012180a50929244f3689f87999cf799b45ee82c60f7d312b3",
    "weighted-unweighted-adae": "d86c3c7c808ec079122b9a25f68cd7d64f35854859c03d8e88895c7373debc5f",
    "weighted-weighted-idw": "14c1a9cdcc37c6e697430c4927cfdc1bee8af4f58741046401223fb3ea623e66",
    "weighted-weighted-aidw": "766cfe1d5f6f65d9a88d2a61a5a3f3c8ff74687932f3eaf278768b9f0c33765b",
    "weighted-weighted-dae": "ec641dd0819289bf0fd23c8043e62022b41ee55205f7be9834864647a51bcf8a",
    "weighted-weighted-adae": "6ad620c007446aa414853a3bebf57d649f94d897b183c9714d4bfb913efddd82",
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
