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
    "karate-unweighted-idw": "8ff5ef3ee9496abfad63fc4c0bb430833e0703d0f20ecd6674e8c366eba3406c",
    "karate-unweighted-aidw": "c249ed0dd58980bd116de06005d5071cd1180a9459b1f91225d045f4a402dfbc",
    "karate-unweighted-dae": "b32b60c6219bce335f08802feb0d468bb75ae5231f7c397c94f4c3ebe8fb9294",
    "karate-unweighted-adae": "99392e408b13ece7a77172c24b741458684bc35b2a69e6ba10bbaa178b184f29",
    "karate-weighted-idw": "8ff5ef3ee9496abfad63fc4c0bb430833e0703d0f20ecd6674e8c366eba3406c",
    "karate-weighted-aidw": "c249ed0dd58980bd116de06005d5071cd1180a9459b1f91225d045f4a402dfbc",
    "karate-weighted-dae": "b32b60c6219bce335f08802feb0d468bb75ae5231f7c397c94f4c3ebe8fb9294",
    "karate-weighted-adae": "99392e408b13ece7a77172c24b741458684bc35b2a69e6ba10bbaa178b184f29",
    "weighted-unweighted-idw": "e36eb38b36f22e78fa1c8f122df8360d0bf0ab0b4a032330f7c01da601ed7451",
    "weighted-unweighted-aidw": "81a2367729633b014979c763cb0627a52cbbdfd07c5fb5ea644ea6cec5c742dc",
    "weighted-unweighted-dae": "2f3ae1c239c423ef4124a48aa72e59442a815d4a8a48c509529eba638f023be9",
    "weighted-unweighted-adae": "7b3595b869881ff77679b8783a893667a820d35d13e0e241fb730509c7e283ef",
    "weighted-weighted-idw": "b6c70d3df1e9f471e7c065ed2c8125a8d1246601b18df28e551795e6d2ebd2d0",
    "weighted-weighted-aidw": "a0ca19ef4a530b86db651f257eff3f5b2745b0c978ee810b44da548eec8a8e20",
    "weighted-weighted-dae": "14358a7d7fdf6ef413276ae9d6f554ac2ba56aa738c9c3be441e3e9ac5b817d0",
    "weighted-weighted-adae": "c3ab43bb82c80c5c7e13027f5e6e81e13a0be51e6601375bc91548059fd7af15",
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
