"""Bundled and locally fetched datasets.

The Zachary karate club graph ships with the package. Larger citation and
wiki graphs are looked up under ``ANE_DATA_DIR`` (default ``./data``) as
``<name>.edges`` / ``<name>.labels`` pairs; see ``scripts/fetch_datasets.py``
in the source tree for how to produce them.
"""

from __future__ import annotations

import os
from importlib import resources
from pathlib import Path

BUNDLED = ("karate",)


def data_dir():
    return Path(os.environ.get("ANE_DATA_DIR", "data"))


def _bundled_path(filename):
    ref = resources.files("ane").joinpath("data", filename)
    with resources.as_file(ref) as path:
        return Path(path)


def dataset_paths(name):
    """Resolve (edges_path, labels_path) for a dataset name.

    Bundled names resolve into the package; anything else must exist under
    ``ANE_DATA_DIR``. ``labels_path`` may be None when no label file exists.
    """
    if name in BUNDLED:
        return _bundled_path(f"{name}.edges"), _bundled_path(f"{name}.labels")
    edges = data_dir() / f"{name}.edges"
    labels = data_dir() / f"{name}.labels"
    if not edges.exists():
        raise FileNotFoundError(
            f"dataset {name!r} not found: expected {edges} "
            f"(set ANE_DATA_DIR or run scripts/fetch_datasets.py)"
        )
    return edges, (labels if labels.exists() else None)
