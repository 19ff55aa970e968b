"""Node-classification evaluation: splits, a linear classifier, accuracy tables.

The protocol: repeatedly draw a uniform random train/test split of the
labeled nodes at each train ratio, fit a one-vs-rest L2-regularized logistic
regression on the training embeddings, and report mean and standard
deviation of test accuracy over the repetitions. Each class is solved to a
gradient-norm tolerance by damped Newton (Lin, Weng and Keerthi, JMLR 2008).
A step's Hessian is a matrix times its own transpose, which numpy hands to a
symmetric rank-k update, and the first step is solved once for all classes.
Only numpy is used: importing ``scipy.linalg`` for a Cholesky solve would
cost more resident memory than the solve saves time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import InputError
from .nn import sigmoid

DEFAULT_RATIOS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass(frozen=True)
class LabelSet:
    """Class labels over dense node indices; unlabeled nodes simply absent."""

    node_indices: np.ndarray  # dense node index per labeled node
    classes: np.ndarray  # class index per labeled node
    class_names: tuple

    @property
    def num_classes(self):
        return len(self.class_names)

    def __len__(self):
        return self.node_indices.size


def load_labels(path, index_of):
    """Read a ``node_id label`` file and align it to dense indices.

    ``index_of`` maps external ids to dense indices (from a Graph or an
    embedding file). Unknown ids (the first offenders listed), a node listed
    twice and a file with fewer than two classes raise :class:`InputError`;
    class indices are assigned by sorted label string for reproducibility.
    """
    pairs = []
    unknown = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise InputError(f"{path}:{lineno}: expected 'node_id label', got {line!r}")
            node_id, label = parts
            if node_id not in index_of:
                unknown.append(node_id)
            elif node_id in seen:
                raise InputError(f"{path}:{lineno}: node {node_id!r} is labeled twice")
            else:
                seen.add(node_id)
                pairs.append((index_of[node_id], label))
    if unknown:
        shown = ", ".join(unknown[:5])
        raise InputError(
            f"{path}: {len(unknown)} labeled ids not present in the graph/embedding "
            f"(first offenders: {shown})"
        )
    if not pairs:
        raise InputError(f"{path}: no labels found")
    names = tuple(sorted({label for _, label in pairs}))
    if len(names) < 2:
        raise InputError(f"{path}: need at least 2 classes, every node is labeled {names[0]!r}")
    name_idx = {name: k for k, name in enumerate(names)}
    pairs.sort()
    return LabelSet(
        node_indices=np.array([i for i, _ in pairs], dtype=np.int64),
        classes=np.array([name_idx[label] for _, label in pairs], dtype=np.int64),
        class_names=names,
    )


@dataclass(frozen=True)
class SplitSpec:
    """Evaluation protocol: train ratios, repetitions per ratio, split seed, the
    classifier's ``l2`` and whether rows are L2-normalized (InputError if bad)."""

    ratios: tuple = DEFAULT_RATIOS
    repetitions: int = 10
    seed: int = 0
    l2: float = 1.0
    normalize: bool = True

    def __post_init__(self):
        for r in self.ratios:
            if not 0.0 < r < 1.0:
                raise InputError(f"train ratio must be in (0, 1), got {r}")
        if self.repetitions < 1:
            raise InputError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if not (np.isfinite(self.l2) and self.l2 > 0):
            raise InputError(f"l2 must be a finite number > 0, got {self.l2}")


def train_size(ratio, n):
    """Nodes on the training side of a split of ``n`` at ``ratio``: at least
    one, and at least one left to test."""
    return min(max(int(round(ratio * n)), 1), n - 1)


def check_ratios(label_set, spec):
    """Raise :class:`InputError` for a ratio of ``spec`` whose training side
    holds fewer than two of the labeled nodes, too few for two classes."""
    n = len(label_set)
    for ratio in spec.ratios:
        if train_size(ratio, n) < 2:
            raise InputError(
                f"train ratio {ratio} leaves {train_size(ratio, n)} of the {n} labeled nodes "
                "for training; a fit needs at least 2, of two classes"
            )


def split(label_set, ratio, rep, seed, max_redraws=20):
    """Disjoint train/test cover of the labeled nodes, deterministic per
    (seed, rep). Positions returned index into ``label_set`` arrays.

    If some class is missing from the training side, the draw is repeated up
    to ``max_redraws`` times, then the split is used anyway with a warning.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"train ratio must be in (0, 1), got {ratio}")
    n = len(label_set)
    n_train = train_size(ratio, n)
    rng = np.random.default_rng(np.random.SeedSequence((seed, rep)))
    all_classes = np.unique(label_set.classes)
    for attempt in range(max_redraws + 1):
        order = rng.permutation(n)
        train, test = order[:n_train], order[n_train:]
        if np.array_equal(np.unique(label_set.classes[train]), all_classes):
            return train, test
    warnings.warn(
        f"train split at ratio {ratio} is missing some class after {max_redraws} redraws",
        stacklevel=2,
    )
    return train, test


MAX_NEWTON_STEPS = 50
TOL = 1e-5  # per-class gradient norm at which a fit stops


class LinearOvrClassifier:
    """One-vs-rest logistic regression fit by damped Newton's method.

    Class k minimizes ``_objective``: mean binary cross-entropy of
    ``x @ w_k + b_k`` against ``classes == k`` plus ``l2 / (2 n) |w_k|^2``
    (intercept unpenalized, a C-style regularization of 1/l2); ``loss`` sums
    it over classes. ``iterations_run`` is the most Newton steps any class
    took and ``final_grad_norm`` the largest per-class gradient norm.
    """

    def __init__(self, num_classes, dim):
        self.weights = np.zeros((num_classes, dim), dtype=np.float64)
        self.intercepts = np.zeros(num_classes, dtype=np.float64)
        self.iterations_run = 0
        self.final_grad_norm = np.inf

    def decision_values(self, x):
        return x @ self.weights.T + self.intercepts

    def predict(self, x):
        return self.decision_values(x).argmax(axis=1)

    def loss(self, x, classes, l2=1.0):
        z, classes = self.decision_values(x), np.asarray(classes)
        return sum(_objective(z[:, k], classes == k, w, l2) for k, w in enumerate(self.weights))


def _objective(z, target, w, l2):
    ce = np.logaddexp(0.0, z) - target * z
    return float(ce.sum() / z.size + (l2 / (2.0 * z.size)) * (w @ w))


def _hessian(xt, d, penalty, buf):
    """``xt diag(d) xt.T + diag(penalty)`` as ``S @ S.T`` with ``S = xt sqrt(d)``.

    numpy computes a matrix times its own transpose by a symmetric rank-k
    update, half the work of a general product. ``buf``, shaped like ``xt``,
    holds ``S``.
    """
    np.multiply(xt, np.sqrt(d), out=buf)
    hessian = buf @ buf.T
    hessian.flat[:: hessian.shape[0] + 1] += penalty
    return hessian


def _solve(hessian, grads, which):
    """Newton directions ``hessian^-1 grads``; a singular ``hessian`` raises
    :class:`InputError` naming it as ``which``."""
    try:
        return np.linalg.solve(hessian, grads)
    except np.linalg.LinAlgError as exc:
        raise InputError(
            f"{which} is singular: l2 is too small to regularize linearly dependent "
            "feature columns"
        ) from exc


def _first_steps(xt, targets, penalty, buf):
    """Gradients and Newton directions of every class at ``w = 0``, one per column.

    At zero every score is 0 and every probability 1/2, so all classes share
    one Hessian, solved once for all their gradients.
    """
    n = xt.shape[1]
    grads = xt @ ((0.5 - targets) / n)
    hessian = _hessian(xt, np.full(n, 0.25 / n), penalty, buf)
    return grads, _solve(hessian, grads, "the Newton system every class shares at step 0")


def fit_linear_ovr(features, classes, l2=1.0, *, rows=None):
    """Fit each class by Newton steps from zero, halving a step until the objective
    does not rise, to gradient norm < ``TOL``; warns if ``MAX_NEWTON_STEPS`` fall short.

    The Hessian is built as ``S @ S.T`` (see ``_hessian``) and the first step
    is shared by all classes (see ``_first_steps``). With ``rows``, the fit
    uses only those rows of ``features`` and ``classes``, gathered straight
    into the one float64 copy the steps read, the transposed design
    ``[x, 1].T``, so a split of a larger array is never held twice. Rows of
    one class, or linearly dependent columns that ``l2`` is too small to
    regularize (a singular Newton system), raise :class:`InputError`.
    """
    if not (np.isfinite(l2) and l2 > 0):
        raise ValueError(f"l2 must be a finite number > 0, got {l2}")
    x, classes = np.asarray(features, dtype=np.float64), np.asarray(classes)
    if rows is not None:
        classes = classes[rows]
    if np.unique(classes).size < 2:
        raise InputError("need at least 2 classes present in the training data")

    n, dim = classes.size, x.shape[1]
    model = LinearOvrClassifier(int(classes.max()) + 1, dim)
    # [x, 1] transposed and C-contiguous; xa is its (n, dim + 1) view
    xt = np.ones((dim + 1, n))
    xt[:-1] = (x if rows is None else x[rows]).T
    if not np.isfinite(xt).all():
        raise ValueError("features must be finite")
    xa, buf = xt.T, np.empty_like(xt)
    penalty = np.append(np.full(dim, l2 / n), 0.0)
    targets = (classes[:, None] == np.arange(model.weights.shape[0])).astype(np.float64)
    first_grads, first_directions = _first_steps(xt, targets, penalty, buf)
    steps, norms = [], []
    for k in range(model.weights.shape[0]):
        target = targets[:, k]
        w, z = np.zeros(dim + 1), np.zeros(n)
        f = _objective(z, target, w[:-1], l2)
        grad, direction = first_grads[:, k], first_directions[:, k]
        for step in range(MAX_NEWTON_STEPS + 1):
            if step:
                p = sigmoid(z)
                grad = xt @ ((p - target) / n) + penalty * w
            grad_norm = float(np.linalg.norm(grad))
            if grad_norm < TOL or step == MAX_NEWTON_STEPS:
                break
            if step:
                hessian = _hessian(xt, p * (1.0 - p) / n, penalty, buf)
                direction = _solve(hessian, grad, f"the Newton system of class {k} at step {step}")
            # halving ends: a small enough step rounds to w itself, which keeps f
            scale, w_new = 1.0, w - direction
            while not (f_new := _objective(z_new := xa @ w_new, target, w_new[:-1], l2)) <= f:
                scale *= 0.5
                w_new = w - scale * direction
            w, z, f = w_new, z_new, f_new
        model.weights[k], model.intercepts[k] = w[:-1], w[-1]
        steps.append(step)
        norms.append(grad_norm)
    model.iterations_run, model.final_grad_norm = max(steps), max(norms)
    if model.final_grad_norm >= TOL:
        warnings.warn(
            f"logistic fit stopped after {model.iterations_run} Newton steps with gradient "
            f"norm {model.final_grad_norm:.2e}, above the tolerance {TOL:g}",
            stacklevel=2,
        )
    return model


def normalize_rows(vectors):
    """L2-normalize rows; all-zero rows stay zero."""
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    return vectors / np.where(norms > 0, norms, 1.0)


@dataclass(frozen=True)
class RatioResult:
    ratio: float
    mean_accuracy: float
    std_accuracy: float
    repetitions: int


def evaluate(vectors, label_set, spec=SplitSpec()):
    """Accuracy table (one row per train ratio) for the given embeddings.

    ``vectors`` is an (N, d) array aligned with the dense indices referenced
    by ``label_set``. Rows are L2-normalized before classification unless
    ``spec.normalize`` is false; the classifier is fit with ``spec.l2``. A
    ratio that :func:`check_ratios` refuses raises before any fit.
    """
    check_ratios(label_set, spec)
    # gathered before the cast, so only the labeled rows are ever float64
    feats = np.asarray(vectors)[label_set.node_indices].astype(np.float64, copy=False)
    if spec.normalize:
        feats = normalize_rows(feats)
    classes = label_set.classes

    results = []
    for ratio in spec.ratios:
        accs = []
        for rep in range(spec.repetitions):
            train, test = split(label_set, ratio, rep, spec.seed)
            model = fit_linear_ovr(feats, classes, l2=spec.l2, rows=train)
            pred = model.predict(feats[test])
            accs.append(float((pred == classes[test]).mean()))
        mean, std = float(np.mean(accs)), float(np.std(accs))
        results.append(RatioResult(float(ratio), mean, std, spec.repetitions))
    return results


ACCURACY_COLUMNS = ("ratio", "mean_acc", "std_acc", "n_reps")


def accuracy_cells(result):
    """The ``ACCURACY_COLUMNS`` cells of one ``RatioResult``, accuracy in percent."""
    return [
        f"{result.ratio:.2f}",
        f"{100.0 * result.mean_accuracy:.2f}",
        f"{100.0 * result.std_accuracy:.2f}",
        str(result.repetitions),
    ]


def format_accuracy_table(results):
    """Tab-separated table with accuracy in percent, like the usual
    classification tables."""
    lines = [ACCURACY_COLUMNS] + [accuracy_cells(r) for r in results]
    return "".join("\t".join(line) + "\n" for line in lines)
