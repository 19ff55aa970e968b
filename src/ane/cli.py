"""Command-line pipeline: embed graphs, evaluate embeddings, run sweeps.

Exit codes: 0 success, 1 runtime failure (stage-tagged message on stderr),
2 usage or input error. Every output directory receives a ``manifest.json``
with the fully resolved configuration so the run can be replayed exactly
via ``embed --from-manifest``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, nn
from .embedder import (
    ARITHMETIC,
    MODEL_KINDS,
    PRIOR_KINDS,
    TrainConfig,
    Trainer,
    check_memory_plan,
    csr_rows,
    export_embeddings,
    load_embeddings,
)
from .evaluation import (
    ACCURACY_COLUMNS,
    SplitSpec,
    accuracy_cells,
    check_ratios,
    evaluate,
    format_accuracy_table,
    load_labels,
)
from .graph import InputError, load_edge_list, preprocess
from .proximity import ppmi_features

MANIFEST_FORMAT = "ane-manifest-v2"


class StageError(Exception):
    """Failure inside a pipeline stage: exit code 1."""

    def __init__(self, stage, cause):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def _stage(name):
    """Tag a failure with its stage; an InputError or a missing file exits 2."""
    try:
        yield
    except StageError:
        raise
    except (InputError, FileNotFoundError) as exc:
        raise InputError(f"[{name}] {exc}") from exc
    except Exception as exc:
        raise StageError(name, exc) from exc


def _require_file(path):
    if not Path(path).is_file():
        raise InputError(f"file not found: {path}")
    return Path(path)


def _check_out(path):
    """Refuse ``--out`` before any work, without creating it, when it or its
    nearest existing ancestor is not a directory."""
    path = Path(path)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise InputError(f"--out {path}: {existing} is not a directory")


def _atomic_write(path, writer):
    """Write via a sibling temp file and rename, so readers never see a
    partial artifact."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    writer(tmp)
    os.replace(tmp, path)


def _write_json(path, payload):
    _atomic_write(
        path,
        lambda p: Path(p).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n"),
    )


def _environment():
    """What the bytes of a run may depend on beyond its config: the numpy
    version, its BLAS library, and the loaded OpenBLAS's thread count and
    CPU kernel (None if unknown). ``training_blas_pinned`` says whether
    training could pin OpenBLAS to one thread (:func:`nn.one_blas_thread`);
    where it could not, the bytes may depend on ``blas_threads`` too."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        library = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        library = None
    threads, core = nn._openblas("get_num_threads"), nn._openblas("get_corename")
    return {
        "numpy": np.__version__,
        "blas": library,
        "blas_threads": threads() if threads else None,
        "blas_core": core().decode() if core else None,
        "training_blas_pinned": threads is not None and nn._openblas("set_num_threads") is not None,
    }


def _note_environment_changes(recorded):
    """Print one stderr line for each of the numpy version, the BLAS library
    and the OpenBLAS kernel that differ between the ``environment`` a manifest
    recorded and this process's: a product may round differently, so the
    replay's bytes may differ from the run's."""
    recorded = recorded if isinstance(recorded, dict) else {}
    current = _environment()
    for key in ("numpy", "blas", "blas_core"):
        if recorded.get(key) != current[key]:
            print(
                f"warning: the manifest records {key} {recorded.get(key)} and this machine has "
                f"{current[key]}; the replay's bytes may differ",
                file=sys.stderr,
            )


def _manifest(command, **fields):
    """The header every manifest starts with, then ``fields``; a
    ``created_utc`` among them (embed's start time) replaces the time now.
    The header's ``environment`` is informational: a replay only compares it
    with its own (:func:`_note_environment_changes`)."""
    return {
        "format": MANIFEST_FORMAT,
        "package_version": __version__,
        "command": command,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "environment": _environment(),
        **fields,
    }


def _parse_list(caster):
    def parse(text):
        try:
            values = tuple(caster(tok) for tok in text.split(",") if tok.strip())
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad list {text!r}") from exc
        if not values:
            raise argparse.ArgumentTypeError("empty list")
        return values

    return parse


# TrainConfig field -> its flag and argparse options; the default is the field's
TRAIN_FLAGS = {
    "model": ("--model", {"choices": MODEL_KINDS}),
    "dim": ("--dim", {"type": int, "help": "embedding dimension"}),
    "walks_per_node": ("--walks", {"type": int, "help": "walks per node"}),
    "walk_length": ("--walk-length", {"type": int}),
    "context_size": ("--context", {"type": int, "help": "window size for walk pairs"}),
    "negatives": ("--negatives", {"type": int, "help": "negative samples per pair"}),
    "ppmi_steps": ("--ppmi-steps", {"type": int, "help": "transition steps t in the PPMI input"}),
    "ppmi_beta": ("--ppmi-beta", {"type": float, "help": "PPMI shift, default 1/N"}),
    "prior": ("--prior", {"choices": PRIOR_KINDS}),
    "epochs": ("--epochs", {"type": int}),
    "batch_size": ("--batch", {"type": int, "help": "structure-phase batch size"}),
    "adv_batch_size": ("--adv-batch", {"type": int, "help": "adversarial-phase batch size"}),
    "lr": ("--lr", {"type": float, "help": "learning rate for all phases"}),
    "structure_steps": ("--structure-steps", {"type": int}),
    "disc_steps": ("--disc-steps", {"type": int}),
    "gen_steps": ("--gen-steps", {"type": int}),
    "dae_corruption": ("--dae-corruption", {"type": float}),
    "grad_clip": ("--grad-clip", {"type": float}),
    "seed": ("--seed", {"type": int}),
}


def _add_train_flags(p):
    defaults = TrainConfig()
    for name, (flag, options) in TRAIN_FLAGS.items():
        # name the value after the flag, not the field (--batch BATCH)
        metavar = None if "choices" in options else flag[2:].replace("-", "_").upper()
        p.add_argument(flag, dest=name, default=getattr(defaults, name), metavar=metavar, **options)
    p.add_argument("--weighted", action="store_true", help="read edge weights from column 3")
    p.add_argument(
        "--features",
        default=None,
        metavar="PATH",
        help="node-keyed feature rows (the embedding.txt format) to use instead of the PPMI rows",
    )


def _config_from_args(args):
    with _stage("embedder"):
        return TrainConfig(**{name: getattr(args, name) for name in TRAIN_FLAGS})


def _load_dataset(edge_path, weighted, features_path):
    """The graph, the rows of its ``--features`` file in ``graph.ids`` order
    (None: train on PPMI features) and the manifest's record of both."""
    with _stage("graph-core"):
        graph = preprocess(load_edge_list(edge_path, weighted=weighted))
    features = _load_features(_require_file(features_path), graph) if features_path else None
    record = {
        "edge_list": str(Path(edge_path).resolve()),
        "weighted": bool(weighted),
        "features": str(Path(features_path).resolve()) if features_path else None,
    }
    return graph, features, record


def _load_features(path, graph):
    """Read a node-keyed matrix in the ``embedding.txt`` format as float32 CSR
    rows in ``graph.ids`` order: parsed into float32, converted in file order
    (by ``csr_rows``) and the dense matrix freed first. A graph node without
    a row and a row whose id is not a graph node are input errors naming the
    first offenders."""
    with _stage("proximity"):
        feats = load_embeddings(path)
        row_of = {node_id: i for i, node_id in enumerate(feats.ids)}
        for offenders, what in (
            ([v for v in graph.ids if v not in row_of], "graph nodes have no row"),
            ([v for v in feats.ids if v not in graph.index_of], "row ids are not graph nodes"),
        ):
            if offenders:
                raise InputError(
                    f"{path}: {len(offenders)} {what} "
                    f"(first offenders: {', '.join(offenders[:5])})"
                )
        rows = csr_rows(feats.vectors, path)
        del feats
        return rows[[row_of[v] for v in graph.ids]]


def _train_and_write(graph, cfg, out_dir, dataset_meta, features=None):
    """Shared embed pipeline: train, then write embedding, log, manifest."""
    out_dir = Path(out_dir)
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    t0 = time.perf_counter()
    with _stage("embedder"):
        # the Trainer runs the memory checks: a run they stop leaves no directory
        trainer = Trainer(graph, cfg, features=features)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _stage("embedder"):
        embedding, log = trainer.run()
    elapsed = time.perf_counter() - t0
    with _stage("io"):
        _atomic_write(out_dir / "embedding.txt", lambda p: export_embeddings(embedding, p))
        _atomic_write(out_dir / "training_log.txt", lambda p: log.save(p))
        manifest = _manifest(
            "embed",
            created_utc=started,
            dataset=dataset_meta,
            config=asdict(cfg),
            config_digest=cfg.digest(),
            graph={"nodes": len(graph), "edges": graph.num_edges()},
            # informational: a replay reads only the config and the dataset
            arithmetic=dict(ARITHMETIC),
            artifacts={"embedding": "embedding.txt", "training_log": "training_log.txt"},
            timing={"wall_seconds": round(elapsed, 3)},
        )
        _write_json(out_dir / "manifest.json", manifest)
    return embedding, log


def cmd_embed(args):
    if args.from_manifest:
        manifest_path = _require_file(args.from_manifest)
        try:
            payload = json.loads(manifest_path.read_text())
            if (payload.get("format"), payload.get("command")) != (MANIFEST_FORMAT, "embed"):
                raise ValueError(
                    f"expected format {MANIFEST_FORMAT!r} and command 'embed', got format "
                    f"{payload.get('format')!r} and command {payload.get('command')!r}"
                )
            cfg = TrainConfig(**payload["config"])
            dataset = payload["dataset"]
            edge_path = dataset["edge_list"]
            weighted = dataset.get("weighted", False)
            features_path = dataset.get("features")
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad manifest {manifest_path}: {exc}") from exc
        _note_environment_changes(payload.get("environment"))
    else:
        if args.edge_list is None:
            raise InputError("an edge-list path is required (or --from-manifest)")
        cfg = _config_from_args(args)
        edge_path = args.edge_list
        weighted = args.weighted
        features_path = args.features

    _check_out(args.out)
    graph, features, dataset_meta = _load_dataset(
        _require_file(edge_path), weighted, features_path
    )
    embedding, _ = _train_and_write(graph, cfg, args.out, dataset_meta, features=features)
    print(
        f"wrote {embedding.num_nodes} x {embedding.dim} {cfg.model} embedding "
        f"to {Path(args.out) / 'embedding.txt'}"
    )
    return 0


def _eval_protocol(args, labels_path, index_of):
    """The labels aligned by ``index_of`` and the protocol of ``eval`` and
    ``sweep`` (which always normalizes), with every ratio checked against the
    labels; the manifests record it as ``asdict(spec)``, so
    ``SplitSpec(**manifest["protocol"])`` rebuilds it."""
    label_set = load_labels(labels_path, index_of)
    normalize = not getattr(args, "no_normalize", False)
    spec = SplitSpec(args.ratios, args.reps, args.seed, args.l2, normalize)
    check_ratios(label_set, spec)
    return label_set, spec


def cmd_eval(args):
    emb_path = _require_file(args.embedding)
    labels_path = _require_file(args.labels)
    if args.out:
        _check_out(args.out)
    with _stage("evalkit"):
        emb = load_embeddings(emb_path)
        index_of = {node_id: i for i, node_id in enumerate(emb.ids)}
        label_set, spec = _eval_protocol(args, labels_path, index_of)
        results = evaluate(emb.vectors, label_set, spec)
    table = format_accuracy_table(results)
    sys.stdout.write(table)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with _stage("io"):
            _atomic_write(out_dir / "accuracy.tsv", lambda p: Path(p).write_text(table))
            _write_json(
                out_dir / "manifest.json",
                _manifest(
                    "eval",
                    inputs={
                        "embedding": str(emb_path.resolve()),
                        "labels": str(labels_path.resolve()),
                    },
                    protocol=asdict(spec),
                    artifacts={"accuracy": "accuracy.tsv"},
                ),
            )
    return 0


# TrainConfig fields a sweep can vary, one --grid-* flag each
SWEEP_AXES = ("dim", "walk_length", "context_size", "prior")


def cmd_sweep(args):
    edge_path = _require_file(args.edge_list)
    labels_path = _require_file(args.labels)
    base_cfg = _config_from_args(args)

    axes = {n: getattr(args, f"grid_{n}") for n in SWEEP_AXES if getattr(args, f"grid_{n}")}
    if not axes:
        raise InputError("no sweep points")
    _check_out(args.out)
    graph, features, dataset_meta = _load_dataset(edge_path, args.weighted, args.features)
    with _stage("evalkit"):
        label_set, spec = _eval_protocol(args, labels_path, graph.index_of)
    # every point's config and memory plan first, so a grid value that cannot
    # train or fit exits 2 before the PPMI build and before any point trains
    names = list(axes)
    points = []
    for values in itertools.product(*(axes[n] for n in names)):
        overrides = dict(zip(names, values))
        label = ", ".join(f"{k}={v}" for k, v in overrides.items())
        try:
            cfg = replace(base_cfg, **overrides)
            check_memory_plan(graph, cfg, features)
        except InputError as exc:
            raise InputError(f"sweep point ({label}): {exc}") from exc
        points.append((overrides, label, cfg))

    if features is None:
        # no sweep axis changes the PPMI features, so every point trains on
        # one build, converted once to the rows every Trainer shares
        with _stage("proximity"):
            features = csr_rows(
                ppmi_features(graph, base_cfg.ppmi_steps, base_cfg.ppmi_beta), "PPMI rows"
            )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    header = [*names, *ACCURACY_COLUMNS, "status"]
    rows = []
    failures = []
    for idx, (overrides, label, cfg) in enumerate(points):
        point_dir = out_dir / f"point_{idx:03d}"
        try:
            embedding, _ = _train_and_write(graph, cfg, point_dir, dataset_meta, features=features)
            results = evaluate(embedding.vectors, label_set, spec)
            for r in results:
                rows.append([str(overrides[n]) for n in names] + accuracy_cells(r) + ["ok"])
        except Exception as exc:
            failures.append({"point": overrides, "error": str(exc)})
            rows.append(
                [str(overrides[n]) for n in names] + ["-"] * len(ACCURACY_COLUMNS) + ["failed"]
            )
            print(f"sweep point failed ({label}): {exc}", file=sys.stderr)

    table = "".join("\t".join(row) + "\n" for row in [header, *rows])
    sys.stdout.write(table)
    with _stage("io"):
        _atomic_write(out_dir / "sweep_results.tsv", lambda p: Path(p).write_text(table))
        _write_json(
            out_dir / "manifest.json",
            _manifest(
                "sweep",
                dataset=dataset_meta,
                labels=str(labels_path.resolve()),
                base_config=asdict(base_cfg),
                grid={n: list(axes[n]) for n in names},
                protocol=asdict(spec),
                artifacts={"results": "sweep_results.tsv"},
                failures=failures,
            ),
        )
    all_failed = bool(failures) and not any(row[-1] == "ok" for row in rows)
    return 1 if all_failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ane",
        description="Adversarial network embeddings: train, evaluate, sweep.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command")

    p_embed = sub.add_parser("embed", help="train embeddings for an edge list")
    p_embed.add_argument("edge_list", nargs="?", help="edge list path (one edge per line)")
    _add_train_flags(p_embed)
    p_embed.add_argument("--out", default="ane_out", help="output directory")
    p_embed.add_argument(
        "--from-manifest",
        default=None,
        metavar="PATH",
        help="replay a previous run from its manifest.json",
    )
    p_embed.set_defaults(func=cmd_embed)

    spec = SplitSpec()
    p_eval = sub.add_parser("eval", help="node-classification accuracy for an embedding")
    p_eval.add_argument("embedding", help="embedding file from the embed command")
    p_eval.add_argument("labels", help="label file with 'node_id label' lines")
    p_eval.add_argument("--ratios", type=_parse_list(float), default=spec.ratios)
    p_eval.add_argument("--reps", type=int, default=spec.repetitions)
    p_eval.add_argument("--seed", type=int, default=spec.seed)
    p_eval.add_argument("--l2", type=float, default=spec.l2)
    p_eval.add_argument("--no-normalize", action="store_true")
    p_eval.add_argument("--out", default=None, help="optional output directory")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="grid of embed+eval runs")
    p_sweep.add_argument("edge_list")
    p_sweep.add_argument("labels")
    _add_train_flags(p_sweep)
    for name in SWEEP_AXES:
        # named after the training flag: --grid-context GRID_CONTEXT
        flag, options = TRAIN_FLAGS[name]
        grid, caster = f"--grid-{flag[2:]}", _parse_list(options.get("type", str))
        metavar = grid[2:].replace("-", "_").upper()
        p_sweep.add_argument(grid, dest=f"grid_{name}", type=caster, metavar=metavar)
    p_sweep.add_argument("--ratios", type=_parse_list(float), default=(0.5,))
    p_sweep.add_argument("--reps", type=int, default=spec.repetitions)
    p_sweep.add_argument("--l2", type=float, default=spec.l2)
    p_sweep.add_argument("--out", default="ane_sweep")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) is None:
        parser.print_help(file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
