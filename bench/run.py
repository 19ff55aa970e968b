"""End-to-end and per-layer benchmark of the ``ane`` embed -> eval pipeline.

Run from the root of a source checkout:

    python3 bench/run.py --workload planted-aidw --seed 1 --seconds 30 --trace 0

One client drives a closed loop: each operation is what ``ane embed``
followed by ``ane eval`` costs (load, preprocess, ``Trainer`` construction,
training, export, log save, evaluation), and the next one starts when the
previous one ends, until ``--seconds`` is used up. Every operation is checked
(finite embedding, no divergence, loss going down, accuracy floor,
byte-identical artifacts across operations of one run). The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
KARATE = SRC / "ane" / "data"

# Each workload: input graph, TrainConfig fields, and the accuracy floor of
# its correctness gate (fraction of labeled test nodes, ratio 0.5, 10 splits).
WORKLOADS = {
    # README quick start and acceptance criterion 5: 1 440 cycles, 85 % floor.
    # Left out of BENCHMARK.json: see bench/README.md.
    "karate-aidw": dict(
        graph="karate",
        config=dict(model="aidw", dim=2, walks_per_node=10, walk_length=20, context_size=4,
                    epochs=20, batch_size=512, adv_batch_size=64),
        floor=0.85,
    ),
    # Cora recipe step shapes (dim 128, batch 8192, 5 negatives, t = 4) over
    # a 64 992-pair corpus: 8 cycles.
    "planted-aidw": dict(
        graph="planted",
        config=dict(model="aidw", dim=128, negatives=5, ppmi_steps=4, batch_size=8192,
                    adv_batch_size=128, epochs=1, walks_per_node=1, walk_length=6,
                    context_size=4),
        floor=0.70,
    ),
    # Full 2 708-wide rows through the encoder and a 128 -> 2 708 decoder: 44 cycles.
    "planted-adae": dict(
        graph="planted",
        config=dict(model="adae", dim=128, ppmi_steps=4, batch_size=256, adv_batch_size=128,
                    epochs=4),
        floor=0.75,
    ),
}
EVAL_RATIO = 0.5
EVAL_REPS = 10
SETUP_SHARE = 0.05  # share of --seconds spent on extra set-ups
SETUP_SAMPLES = 100  # ... or until this many set-ups ran
EVAL_SAMPLE_S = 1.0  # repeat cheap evaluations until this much time is spent


class GateError(Exception):
    """An operation finished but its output failed a correctness check."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas_threads():
    """Run BLAS on one thread; must run before numpy is imported.

    Two OpenBLAS threads on a shared 2-core machine made operation times
    vary about three times as much from run to run as one thread did.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def dgemm_gflop_per_s(np, n=1024, reps=5):
    """Median rate of an n x n float64 matrix product."""
    rng = np.random.default_rng(0)
    a, b = rng.random((n, n)), rng.random((n, n))
    a @ b
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - start)
    return 2.0 * n**3 / statistics.median(times) / 1e9


def environment(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "dgemm_gflop_per_s": dgemm_gflop_per_s(np),
    }


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tail_quantile(n):
    """Highest of the usual quantiles with at least ten samples beyond it."""
    for q in (0.99, 0.95, 0.9, 0.75, 0.5):
        if n * (1.0 - q) >= 10:
            return q
    return 1.0


def quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Bench:
    """One benchmark run: inputs, the timed operation and its checks."""

    def __init__(self, args, ane, planted, np):
        self.ane = ane
        self.np = np
        self.spec = WORKLOADS[args.workload]
        self.out = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        if self.spec["graph"] == "karate":
            self.edges, self.labels = KARATE / "karate.edges", KARATE / "karate.labels"
        else:
            self.edges, self.labels = planted.write_planted(self.out / "input", args.seed)
        self.config = ane.embedder.TrainConfig(seed=args.seed, **self.spec["config"])
        self.digests = None

    def setup(self):
        """What ``ane embed`` does before training: returns (trainer, seconds)."""
        ane = self.ane
        start = time.perf_counter()
        graph = ane.graph.preprocess(ane.graph.load_edge_list(self.edges, weighted=False))
        trainer = ane.embedder.Trainer(graph, self.config)
        return trainer, time.perf_counter() - start

    def operation(self, tracer=None):
        """One embed + eval; returns its timings and checked results."""
        ane, np = self.ane, self.np
        trainer, setup_s = self.setup()
        if tracer is not None:
            tracer.bind(trainer)
        start = time.perf_counter()
        try:
            embedding, log = trainer.run()
        except ane.embedder.TrainingDiverged as exc:
            raise GateError(f"training diverged: {exc}") from exc
        train_s = time.perf_counter() - start
        if not np.isfinite(embedding.vectors).all():
            raise GateError("embedding has non-finite values")
        emb_path, log_path = self.out / "embedding.txt", self.out / "training_log.txt"
        ane.embedder.export_embeddings(embedding, emb_path)
        log.save(log_path)
        embed_s = setup_s + time.perf_counter() - start

        labels = ane.evaluation.load_labels(self.labels, trainer.graph.index_of)
        spec = ane.evaluation.SplitSpec(ratios=(EVAL_RATIO,), repetitions=EVAL_REPS, seed=0)
        eval_times = []
        while not eval_times or (sum(eval_times) < EVAL_SAMPLE_S and tracer is None):
            start = time.perf_counter()
            results = ane.evaluation.evaluate(embedding.vectors, labels, spec)
            eval_times.append(time.perf_counter() - start)
        accuracy = results[0].mean_accuracy

        losses = [r.structure_loss for r in log.records]
        tenth = max(1, len(losses) // 10)
        final_loss = float(np.mean(losses[-tenth:]))
        digests = {"embedding.txt": sha256(emb_path), "training_log.txt": sha256(log_path)}
        if not final_loss < losses[0]:
            raise GateError(f"final loss {final_loss} is not below first-cycle loss {losses[0]}")
        if accuracy < self.spec["floor"]:
            raise GateError(f"accuracy {accuracy:.4f} below floor {self.spec['floor']}")
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            raise GateError(f"artifacts differ from the first operation: {digests}")
        return {
            "setup_s": setup_s,
            "train_s": train_s,
            "embed_s": embed_s,
            "eval_s": statistics.median(eval_times),
            "accuracy": 100.0 * accuracy,
            "final_loss": final_loss,
            "traced": tracer is not None,
        }


def run(args, ane, planted, tracing, np, env):
    bench = Bench(args, ane, planted, np)
    deadline = time.perf_counter() + args.seconds
    tracer = tracing.Tracer() if args.trace else None
    ops, errors = [], []
    longest = 0.0

    def attempt():
        nonlocal longest
        index = len(ops) + len(errors) + 1
        traced = tracer is not None and index % 2 == 0
        start = time.perf_counter()
        try:
            if traced:
                tracer.run_id = index
                with tracer:
                    op = bench.operation(tracer)
            else:
                op = bench.operation()
            ops.append(dict(op, run=index))
        except (GateError, ArithmeticError, ValueError, RuntimeError) as exc:
            errors.append(f"operation {index}: {type(exc).__name__}: {exc}")
        longest = max(longest, time.perf_counter() - start)

    # The first operation runs in a fresh process, like `ane embed`, so the
    # peak RSS read after it is not inflated by later allocator history.
    attempt()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Extra untraced set-ups, so that set-up gets more samples for its median.
    setup_samples = []
    setup_start = time.perf_counter()
    while not setup_samples or (
        time.perf_counter() - setup_start < SETUP_SHARE * args.seconds
        and len(setup_samples) < SETUP_SAMPLES
    ):
        setup_samples.append(bench.setup()[1])

    min_ops = 2 if args.trace else 1
    while len(ops) + len(errors) < min_ops or time.perf_counter() + longest <= deadline:
        attempt()
    attempted = len(ops) + len(errors)

    plain = [op for op in ops if not op["traced"]]
    if not plain:
        return None, errors, attempted, None
    setup_samples += [op["setup_s"] for op in plain]

    def med(key, rows=plain):
        return statistics.median(op[key] for op in rows)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "config": bench.config.__dict__,
        "environment": env,
        "digests": bench.digests,
        "operations": ops,
        "setup_samples": setup_samples,
        "errors": errors,
    }
    if args.trace:
        traced_ops = [op for op in ops if op["traced"]]
        if not traced_ops:
            return None, errors, attempted, None
        metrics = per_layer_metrics(tracer, [op["run"] for op in traced_ops], env)
        metrics["trace.overhead_frac"] = (
            med("train_s", traced_ops) / med("train_s") - 1.0, "frac")
        tracer.write(bench.out / "spans.tsv")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "train_s": (med("train_s"), "s"),
            "embed_s": (med("embed_s"), "s"),
            "eval_s": (med("eval_s"), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "accuracy": (med("accuracy"), "%"),
            "final_loss": (med("final_loss"), "loss"),
        }
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    (bench.out / "record.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    return metrics, errors, attempted, bench.digests


def per_layer_metrics(tracer, runs, env):
    """Per-operation means over the traced operations."""
    n = len(runs)
    spans = tracer.summary(runs)
    counts = tracer.counts

    def total(name):
        return spans.get(name, (0.0, 0.0, []))[0] / n

    def self_time(name):
        return spans.get(name, (0.0, 0.0, []))[1] / n

    m = {}
    for name in ("graph.load_edge_list", "graph.preprocess", "graph.row_normalize",
                 "proximity.accumulate_powers", "proximity.shifted_ppmi",
                 "embedder.export_embeddings", "nn.clip_global_norm",
                 "evaluation.fit_linear_ovr"):
        m[f"{name}.s"] = (total(name), "s")
    m["proximity.accumulate_powers.gflop"] = (
        counts["proximity.accumulate_powers.flop"] / n / 1e9, "GFLOP")
    m["walker.pairs"] = (counts["walker.pairs"], "count")
    m["walker.pair_mb"] = (counts["walker.pair_bytes"] / 2**20, "MB")
    m["embedder.batch_wait_s"] = (total("embedder.next_batch"), "s")

    structure = [spans[k] for k in ("embedder.idw_batch_loss", "embedder.dae_batch_loss")
                 if k in spans]
    durations = [d * 1e3 for _, _, ds in structure for d in ds]
    m["embedder.structure_loss.s"] = (sum(s[0] for s in structure) / n, "s")
    m["embedder.structure_loss.self_s"] = (sum(s[1] for s in structure) / n, "s")
    m["embedder.structure_loss.ms.p50"] = (statistics.median(durations), "ms")
    m["embedder.structure_loss.ms.tail"] = (
        quantile(durations, tail_quantile(len(durations))), "ms")
    m["embedder.structure_loss.unique_row_frac"] = (
        counts["structure.rows"] / counts["structure.slots"], "frac")
    for name in ("embedder.discriminator_loss", "embedder.generator_adversarial_loss"):
        m[f"{name}.s"] = (total(name), "s")
        m[f"{name}.self_s"] = (self_time(name), "s")
    train = total("embedder.Trainer.run")
    m["embedder.unattributed_s"] = (self_time("embedder.Trainer.run"), "s")
    m["trace.coverage_frac"] = (1.0 - self_time("embedder.Trainer.run") / train, "frac")

    for net in ("structure", "disc"):
        for layer in ("DenseLayer", "BatchNorm", "LeakyRelu"):
            for method in ("forward", "backward"):
                key = f"nn.{net}.{layer}.{method}"
                m[f"{key}.s"] = (total(key), "s")
        flop = counts[f"nn.{net}.DenseLayer.flop"] / n
        busy = total(f"nn.{net}.DenseLayer.forward") + total(f"nn.{net}.DenseLayer.backward")
        m[f"nn.{net}.DenseLayer.gflop"] = (flop / 1e9, "GFLOP")
        m[f"nn.{net}.DenseLayer.gflop_per_s"] = (flop / busy / 1e9, "GFLOP/s")
    m["nn.disc.backward.gen_phase_s"] = (
        tracer.under(runs, "nn.disc.backward", "embedder.generator_adversarial_loss") / n, "s")
    for opt in ("structure_opt", "disc_opt", "gen_adv_opt"):
        m[f"nn.RmsProp.step.{opt}.s"] = (total(f"nn.RmsProp.step.{opt}"), "s")
    m["evaluation.fit_linear_ovr.iters"] = (
        counts["evaluation.fit_linear_ovr.iters"] / n, "count")
    m["machine.dgemm_gflop_per_s"] = (env["dgemm_gflop_per_s"], "GFLOP/s")
    return m


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("--seconds must be positive")
    if not (SRC / "ane" / "__init__.py").is_file():
        sys.exit(f"no ane sources under {SRC}; run from the root of a source checkout")
    pin_blas_threads()
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]

    import numpy as np

    import ane.embedder
    import ane.evaluation
    import ane.graph
    import planted
    import tracing

    env = environment(np)
    print(json.dumps({"environment": env}))
    metrics, errors, attempted, digests = run(args, ane, planted, tracing, np, env)
    for line in errors:
        print(line, file=sys.stderr)
    if metrics is None:
        sys.exit(f"{args.workload}: too few operations passed; {len(errors)} failed")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "digests": digests}))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
