"""Golden outputs: every model on two graphs writes the recorded bytes.

Each case trains through the Python API (load, preprocess, train, export) with
a small fixed config and compares the sha256 of ``embedding.txt`` and that of
``training_log.txt`` with the digests recorded on the numpy and BLAS named
below. Refactors that are meant to be exact must keep every digest; a change
of the export alone moves only the embedding digests. Another numpy or
BLAS build, or the same OpenBLAS on a CPU where it picks another kernel, may
round differently, so the cases skip there; the versions and the kernel are
read as a run's manifest records them. Training pins OpenBLAS to one thread,
so the digests do not depend on the thread count the tests run on.

Why each digest moved when it was recorded again, with the old and new
digests, is in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from ane.cli import _environment
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

# sha256 of each case's (embedding.txt, training_log.txt)
DIGESTS = {
    "karate-unweighted-adae": (
        "80e61cafe16ba26ff965b801c419f5b49c79962985d1914d3bde2a3b677b326f",
        "db0eff21475df59eb80e3f3a6f57709d5825567b00b12a5a242cba5219dd70a3",
    ),
    "karate-unweighted-aidw": (
        "5db1a80da57046c140fd99730c758373d457c95469ce144f1e146245d4bf5113",
        "61b2a98509a5c3fec790c4f2308564415720f0ea082712fd1f2cb7a3f515c3f6",
    ),
    "karate-unweighted-dae": (
        "10d9e043fcfda728fd07b5a5f4d80f0eeccc18f3aae2fc0a8a09dc4f82784433",
        "88864a882ebc94d54b44dd9cf3397df97bb34bdacafc7a0745ccddc51dca9e6b",
    ),
    "karate-unweighted-idw": (
        "bb5f47cdb3c1d7afc1ebd61856c25a0372fe1356de0ad2695b2e83082adff6fa",
        "0c85c320ba4401d210c8d334ea4d21fa7c3b1c958055bfdfc213644c083337de",
    ),
    "karate-weighted-adae": (
        "80e61cafe16ba26ff965b801c419f5b49c79962985d1914d3bde2a3b677b326f",
        "db0eff21475df59eb80e3f3a6f57709d5825567b00b12a5a242cba5219dd70a3",
    ),
    "karate-weighted-aidw": (
        "5db1a80da57046c140fd99730c758373d457c95469ce144f1e146245d4bf5113",
        "61b2a98509a5c3fec790c4f2308564415720f0ea082712fd1f2cb7a3f515c3f6",
    ),
    "karate-weighted-dae": (
        "10d9e043fcfda728fd07b5a5f4d80f0eeccc18f3aae2fc0a8a09dc4f82784433",
        "88864a882ebc94d54b44dd9cf3397df97bb34bdacafc7a0745ccddc51dca9e6b",
    ),
    "karate-weighted-idw": (
        "bb5f47cdb3c1d7afc1ebd61856c25a0372fe1356de0ad2695b2e83082adff6fa",
        "0c85c320ba4401d210c8d334ea4d21fa7c3b1c958055bfdfc213644c083337de",
    ),
    "weighted-unweighted-adae": (
        "f85f6c998840a6901995c293a4b1e984e726ecfaddae14305c485936a01f3aa5",
        "bfc8fd5684341b2ab18be550f6650a5a5d642e019cfeed76c1e1a030f8e42779",
    ),
    "weighted-unweighted-aidw": (
        "88be0f067b19621c16b39e099358bfbaf0b7ef2584aef7fb16a16782f64673c3",
        "20adff031a2232dc5abc8bb23f9cf36f355a18f3cffaff286a276f2a485561c1",
    ),
    "weighted-unweighted-dae": (
        "8ca29bbbe3d63a893b9f1dc18ff14277bf98569db569822887f802258b9461a3",
        "89ea762b77fa649809b43aa39b812a52fc4577abe2ab069b049a4fa713c2e61e",
    ),
    "weighted-unweighted-idw": (
        "034e0ac90d8d4e427bd2375d3c1abd8b639db63b5e533a790ec908ec334996b5",
        "63dcca42b2ce5086ffdaecd507b992ef31933c21ff02979a415208699c8acc1e",
    ),
    "weighted-weighted-adae": (
        "81bbd19f13ec6da1036bd1b50ec5cd1d10602575077e9ec4ab982e5ed5889556",
        "27b833210bffe0aa6395e3e52fca6d5bd4eecc5e018e873ea66762f55a9ac266",
    ),
    "weighted-weighted-aidw": (
        "bb7a24e3652a39862d520982fcbb6292b54ce8804b50b45b229e89545bce80bf",
        "c6c93b878365c74d1f875067ec63151ac34095491d0077ce440d813c3b20a08e",
    ),
    "weighted-weighted-dae": (
        "40ece86ae7e2fe6896f5673165f9f940773e949cb650d996dfade6b59252fdbe",
        "fa6708962121c803f8a7fd161acc79d1b4fec8fb14b1e45a92dcd99d8fd45402",
    ),
    "weighted-weighted-idw": (
        "3db489eb4146e0c10572724954525c77ec9df820be75e9c4549d19b7b2f6704b",
        "b55bc034c1d6486eecbc150234dff7fe4d09f29452325e1012c54d0cb1de8c5b",
    ),
}


def _platform():
    """The numpy version, and numpy's BLAS build with the OpenBLAS CPU
    kernel, as a manifest records them."""
    env = _environment()
    return env["numpy"], f"{env['blas']} {env['blas_core']}"


def _digest(graph_name, weighted, model, out):
    graph = preprocess(load_edge_list(GRAPHS[graph_name], weighted=weighted))
    embedding, log = Trainer(graph, TrainConfig(model=model, **CONFIG)).run()
    export_embeddings(embedding, out / "embedding.txt")
    log.save(out / "training_log.txt")
    return tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("embedding.txt", "training_log.txt")
    )


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_golden_digest(case, tmp_path):
    numpy_version, blas = _platform()
    if (numpy_version, blas) != (RECORDED_NUMPY, RECORDED_BLAS):
        pytest.skip(
            f"digests recorded with numpy {RECORDED_NUMPY} and {RECORDED_BLAS}; "
            f"this is numpy {numpy_version} with {blas}"
        )
    graph_name, weighting, model = case.split("-")
    assert _digest(graph_name, weighting == "weighted", model, tmp_path) == DIGESTS[case]
