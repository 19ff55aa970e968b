"""Span tracing of the ``ane`` layers from outside the package.

:class:`Tracer` replaces the public functions and methods of ``ane.graph``,
``ane.proximity``, ``ane.walker``, ``ane.nn``, ``ane.embedder`` and
``ane.evaluation`` with timing wrappers while it is installed, and puts the
originals back when it is removed, so untraced work runs the package's own
code with nothing added. Spans are kept in memory as
``(name, start, end, parent, run)`` tuples and written out at the end.

Network and optimizer spans are named after the ``Trainer`` attribute that
holds the object (``structure`` for ``Trainer.structure_nets``, ``disc``,
``structure_opt``, ``disc_opt``, ``gen_adv_opt``), matched by object identity
once :meth:`Tracer.bind` has seen the trainer.
"""

from __future__ import annotations

import builtins
import sys
import time
from collections import defaultdict

import numpy as np

from ane import embedder, evaluation, graph, nn, proximity, walker

# (module, public function) pairs whose calls become spans named "<module>.<function>"
FUNCTIONS = [
    (graph, "load_edge_list"),
    (graph, "preprocess"),
    (graph, "row_normalize"),
    (proximity, "ppmi_features"),
    (proximity, "accumulate_powers"),
    (proximity, "shifted_ppmi"),
    (walker, "random_walks"),
    (walker, "positive_pairs"),
    (walker, "negative_sampler"),
    (embedder, "idw_batch_loss"),
    (embedder, "dae_batch_loss"),
    (embedder, "discriminator_loss"),
    (embedder, "generator_adversarial_loss"),
    (embedder, "export_embeddings"),
    (nn, "clip_global_norm"),
    (evaluation, "evaluate"),
    (evaluation, "fit_linear_ovr"),
]
# classes whose methods become spans named "nn.<net>.<Class>.<method>"
LAYER_CLASSES = (nn.DenseLayer, nn.LeakyRelu, nn.BatchNorm)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, run id)
        self.counts = defaultdict(float)
        self.run_id = 0
        self._stack = []
        self._names = {}  # id(network, layer or optimizer) -> attribute name
        self._patches = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.run_id)

    def bind(self, trainer):
        """Name the trainer's networks, their layers and its optimizers."""
        nets = {"structure": trainer.structure_nets}
        if trainer.disc is not None:
            nets["disc"] = [trainer.disc]
        self._names = {}
        for name, group in nets.items():
            for net in group:
                self._names[id(net)] = name
                for layer in net.layers:
                    self._names[id(layer)] = name
        for name in ("structure_opt", "disc_opt", "gen_adv_opt"):
            opt = getattr(trainer, name, None)
            if opt is not None:
                self._names[id(opt)] = name

    def name_of(self, obj):
        return self._names.get(id(obj), "other")

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every traced callable; every module binding of a wrapped
        function is replaced, so calls through ``from x import f`` names are
        traced too."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "ane"]
        for module, fname in FUNCTIONS:
            original = getattr(module, fname)
            wrapper = self._function_wrapper(f"{module.__name__.split('.')[-1]}.{fname}", original)
            for owner in modules:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, attr, wrapper)
        for cls in LAYER_CLASSES:
            for method in ("forward", "backward"):
                label = f"{cls.__name__}.{method}"
                self._patch(cls, method, self._method_wrapper(
                    lambda obj, label=label: f"nn.{self.name_of(obj)}.{label}",
                    getattr(cls, method),
                    _count_dense_flop if cls is nn.DenseLayer else None,
                ))
        for method in ("forward", "backward"):
            self._patch(nn.Mlp, method, self._method_wrapper(
                lambda obj, method=method: f"nn.{self.name_of(obj)}.{method}",
                getattr(nn.Mlp, method),
            ))
        self._patch(nn.RmsProp, "step", self._method_wrapper(
            lambda obj: f"nn.RmsProp.step.{self.name_of(obj)}", nn.RmsProp.step))
        self._patch(embedder.Trainer, "run", self._method_wrapper(
            lambda obj: "embedder.Trainer.run", embedder.Trainer.run))
        # Trainer.run pulls each structure batch with the builtin next(); a
        # module-level name of the same name shadows it inside ane.embedder.
        self._patch(embedder, "next", self._function_wrapper("embedder.next_batch", builtins.next))

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _function_wrapper(self, name, fn):
        tracer = self
        post = _POST_HOOKS.get(name)

        def traced(*args, **kwargs):
            result = tracer._call(name, fn, args, kwargs)
            if post is not None:
                post(tracer.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _method_wrapper(self, name_of, fn, post=None):
        tracer = self

        def traced(obj, *args, **kwargs):
            name = name_of(obj)
            result = tracer._call(name, fn, (obj,) + args, kwargs)
            if post is not None:
                post(tracer.counts, name, obj, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- reading -----------------------------------------------------------

    def write(self, path):
        """One span per line: name, start, end (seconds), parent index, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# index name start end parent run\n")
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(f"{i} {name} {start:.9f} {end:.9f} {parent} {run}\n")

    def summary(self, run_ids):
        """Per-name totals over the given runs: ``{name: (total_s, self_s,
        durations)}``, where self time is a span's duration minus the part
        its direct children cover."""
        runs = set(run_ids)
        child_time = defaultdict(float)
        for name, start, end, parent, run in self.spans:
            if parent >= 0 and run in runs:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            if run not in runs:
                continue
            total, self_s, durations = out.get(name, (0.0, 0.0, []))
            durations.append(end - start)
            out[name] = (total + end - start, self_s + end - start - child_time[i], durations)
        return out

    def under(self, run_ids, name, ancestor):
        """Total seconds of spans called ``name`` that have an ``ancestor``
        span somewhere above them."""
        runs = set(run_ids)
        total = 0.0
        for name_, start, end, parent, run in self.spans:
            if name_ != name or run not in runs:
                continue
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            if parent >= 0:
                total += end - start
        return total


_MISSING = object()


def _count_pairs(counts, args, result):
    targets, contexts = result
    counts["walker.pairs"] = float(targets.size)
    counts["walker.pair_bytes"] = float(targets.nbytes + contexts.nbytes)


def _count_idw_rows(counts, args, result):
    batch = args[2]
    slots = batch.targets.size + batch.contexts.size + batch.negatives.size
    rows = np.unique(batch.targets).size + np.unique(
        np.concatenate([batch.contexts, batch.negatives.ravel()])
    ).size
    counts["structure.rows"] += rows
    counts["structure.slots"] += slots


def _count_dae_rows(counts, args, result):
    rows = args[2].shape[0]
    counts["structure.rows"] += rows
    counts["structure.slots"] += rows


def _count_iters(counts, args, result):
    counts["evaluation.fit_linear_ovr.iters"] += result.iterations_run


def _count_powers(counts, args, result):
    n = result.shape[0]
    counts["proximity.accumulate_powers.flop"] += 2.0 * n**3 * (args[1] - 1)


def _count_dense_flop(counts, name, layer, args, result):
    # forward: x @ W.T; backward: grad.T @ x and grad @ W
    rows = args[0].shape[0]
    per_row = 2.0 * layer.weights.size
    net = name.split(".")[1]
    counts[f"nn.{net}.DenseLayer.flop"] += rows * per_row * (1 if name.endswith("forward") else 2)


_POST_HOOKS = {
    "walker.positive_pairs": _count_pairs,
    "embedder.idw_batch_loss": _count_idw_rows,
    "embedder.dae_batch_loss": _count_dae_rows,
    "evaluation.fit_linear_ovr": _count_iters,
    "proximity.accumulate_powers": _count_powers,
}
