"""Golden outputs: every model on two graphs writes the recorded bytes.

Each case trains through the Python API (load, preprocess, train, export) with
a small fixed config and compares the sha256 of ``embedding.txt`` and that of
``training_log.txt`` with the digests recorded on the numpy and BLAS named
below. Refactors that are meant to be exact must keep every digest; a change
of the export alone moves only the embedding digests. Another numpy or
BLAS build, or the same OpenBLAS running a kernel with no table here, may
round differently, so the cases skip there; the versions and the kernel are
read as a run's manifest records them. Each table is one OpenBLAS kernel's:
``SkylakeX`` is what OpenBLAS picks on an AVX-512 CPU, and ``Haswell`` is
what it runs on any x86 CPU with AVX2 when ``OPENBLAS_CORETYPE=Haswell`` is
set before numpy loads it, as the pinned CI job does. Training pins OpenBLAS
to one thread, so the digests do not depend on the thread count the tests
run on.

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
RECORDED_BLAS = "scipy-openblas 0.3.31.188.0"

# sha256 of each case's (embedding.txt, training_log.txt), by the OpenBLAS kernel
# that ran it
DIGESTS = {
    "SkylakeX": {
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
    },
    "Haswell": {
        "karate-unweighted-adae": (
            "858de586828a5de5832093e44c8bbbfb5333bc681f464aa9874833c9b6995cfc",
            "8aa0884518c7031caca4f8b01daf4fe3c54c1c6ac3d9a8c403361af20c512203",
        ),
        "karate-unweighted-aidw": (
            "4545a379621b5a31c01abeb48ddbe386f908ed666ed0b010115371e46f406e25",
            "b121826ef60365aa980901fb760f379cc1d8b2142cc2378d883cf076c28de5ed",
        ),
        "karate-unweighted-dae": (
            "b67fec5fa216624b4e6e06803081abc0b9e584998c48bdc473a5616dda5e4da0",
            "f136a5bc9dcd76c4d64d520083a2c9ac1fb3fb4b6f991655ad1a8025f9804d0e",
        ),
        "karate-unweighted-idw": (
            "bb5f47cdb3c1d7afc1ebd61856c25a0372fe1356de0ad2695b2e83082adff6fa",
            "0c85c320ba4401d210c8d334ea4d21fa7c3b1c958055bfdfc213644c083337de",
        ),
        "karate-weighted-adae": (
            "858de586828a5de5832093e44c8bbbfb5333bc681f464aa9874833c9b6995cfc",
            "8aa0884518c7031caca4f8b01daf4fe3c54c1c6ac3d9a8c403361af20c512203",
        ),
        "karate-weighted-aidw": (
            "4545a379621b5a31c01abeb48ddbe386f908ed666ed0b010115371e46f406e25",
            "b121826ef60365aa980901fb760f379cc1d8b2142cc2378d883cf076c28de5ed",
        ),
        "karate-weighted-dae": (
            "b67fec5fa216624b4e6e06803081abc0b9e584998c48bdc473a5616dda5e4da0",
            "f136a5bc9dcd76c4d64d520083a2c9ac1fb3fb4b6f991655ad1a8025f9804d0e",
        ),
        "karate-weighted-idw": (
            "bb5f47cdb3c1d7afc1ebd61856c25a0372fe1356de0ad2695b2e83082adff6fa",
            "0c85c320ba4401d210c8d334ea4d21fa7c3b1c958055bfdfc213644c083337de",
        ),
        "weighted-unweighted-adae": (
            "864b20bd1d351f76886f5a7c7dd2056227e404a851113fffc28997ccfae17077",
            "42e9f66a0f048ae3ebc0b902aca9937fa7094d15d30a0855e9c1e58f2c2e8013",
        ),
        "weighted-unweighted-aidw": (
            "00d8b9087ba126389c135651a0ec751b02c16f2dfc85b098a7e9b4c08ed272fc",
            "a19f2eb4526ef2f894fe8e8ffb366b84fad120c6f57381382d58423bb9e7d8cf",
        ),
        "weighted-unweighted-dae": (
            "8ca29bbbe3d63a893b9f1dc18ff14277bf98569db569822887f802258b9461a3",
            "fc80402f48a3a498f89389021de7400fd59288aeb6c66beac92a8d2a471d864e",
        ),
        "weighted-unweighted-idw": (
            "034e0ac90d8d4e427bd2375d3c1abd8b639db63b5e533a790ec908ec334996b5",
            "63dcca42b2ce5086ffdaecd507b992ef31933c21ff02979a415208699c8acc1e",
        ),
        "weighted-weighted-adae": (
            "047123f6e930d58cb7db6d094ec95d1df5f5cbd40729325749ec342847a47a07",
            "c1f86ffb0538746a4022a9577bf8c844892c544092ec8991ca889dcb705f54a0",
        ),
        "weighted-weighted-aidw": (
            "6662b0d1ec2cb4dfa1ed58962bf4ce4dd8c79a344d85f917dbe024a082ece7b7",
            "ef1ca107715bfbdaaa9c61b5b78593561eefe8c41d79eced3a450df924688e01",
        ),
        "weighted-weighted-dae": (
            "40ece86ae7e2fe6896f5673165f9f940773e949cb650d996dfade6b59252fdbe",
            "fa6708962121c803f8a7fd161acc79d1b4fec8fb14b1e45a92dcd99d8fd45402",
        ),
        "weighted-weighted-idw": (
            "3db489eb4146e0c10572724954525c77ec9df820be75e9c4549d19b7b2f6704b",
            "b55bc034c1d6486eecbc150234dff7fe4d09f29452325e1012c54d0cb1de8c5b",
        ),
    },
}


def _platform():
    """The numpy version, numpy's BLAS build and the OpenBLAS CPU kernel, as a
    manifest records them."""
    env = _environment()
    return env["numpy"], env["blas"], env["blas_core"]


def _digest(graph_name, weighted, model, out):
    graph = preprocess(load_edge_list(GRAPHS[graph_name], weighted=weighted))
    embedding, log = Trainer(graph, TrainConfig(model=model, **CONFIG)).run()
    export_embeddings(embedding, out / "embedding.txt")
    log.save(out / "training_log.txt")
    return tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("embedding.txt", "training_log.txt")
    )


@pytest.mark.parametrize("case", sorted(DIGESTS["SkylakeX"]))
def test_golden_digest(case, tmp_path):
    numpy_version, blas, core = _platform()
    if (numpy_version, blas) != (RECORDED_NUMPY, RECORDED_BLAS) or core not in DIGESTS:
        pytest.skip(
            f"digests recorded with numpy {RECORDED_NUMPY} and {RECORDED_BLAS} on the "
            f"{' and '.join(DIGESTS)} kernels; this is numpy {numpy_version} with {blas} {core}"
        )
    graph_name, weighting, model = case.split("-")
    assert _digest(graph_name, weighting == "weighted", model, tmp_path) == DIGESTS[core][case]
