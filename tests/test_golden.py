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
        "24363b8a0bf14e1a34d41d8430d96203ebe54b05d6751977ad20117ef7e2eefd",
        "8e8131cbbffb57d183f3a60225db609bb936f10f07217a4d923ff9b6431b8838",
    ),
    "karate-unweighted-aidw": (
        "bcd51b05c3c5294d736879cb9cd9df0f9ca32f21f6edca369efe1e1305651ea4",
        "8734d418ff0d86ab122fb6b5da88c94d09e5a4dfaef14815bc12a982405537d1",
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
        "24363b8a0bf14e1a34d41d8430d96203ebe54b05d6751977ad20117ef7e2eefd",
        "8e8131cbbffb57d183f3a60225db609bb936f10f07217a4d923ff9b6431b8838",
    ),
    "karate-weighted-aidw": (
        "bcd51b05c3c5294d736879cb9cd9df0f9ca32f21f6edca369efe1e1305651ea4",
        "8734d418ff0d86ab122fb6b5da88c94d09e5a4dfaef14815bc12a982405537d1",
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
        "69a67c8e7a70d6f4971890db00f6b52b7614badeb755788512877789386d0e8f",
        "d4e975893f16c0120edefab39d30c6bfe2daacbfb4c5f0923112c2569665c019",
    ),
    "weighted-unweighted-aidw": (
        "a9290ec6a717bb1ae87cd77a3462a85ed296d73266396ee50146e2f97f389f02",
        "e0f7f394da004f2607d3c13eb2f6cdde1cbccc422746b265544bc50b2e50c4e8",
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
        "ad7b40182415b0c43f0a768beac6022191ed0e3417de8ebd61a2ace798eb9241",
        "c7f51f559609fabe39970ae852db91c6f3e136e77795366f53f76b28ee4b6640",
    ),
    "weighted-weighted-aidw": (
        "864e51ee2701014f15e363f1e6877fe09a5a4bc5be25689b5af1837ae27fce30",
        "a290c301badebd0827f3bcac2f95d98fcf219311195c7ddb3c4398fe9ac028ed",
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
