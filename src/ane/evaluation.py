"""Node-classification evaluation: splits, a linear classifier, accuracy tables.

The protocol: repeatedly draw a uniform random train/test split of the
labeled nodes at each train ratio, fit a one-vs-rest L2-regularized logistic
regression on the training embeddings, and report mean and standard
deviation of test accuracy over the repetitions. The classes are solved
together, to a per-class gradient-norm tolerance, by damped inexact Newton
(Lin, Weng and Keerthi, JMLR 2008): each direction comes from conjugate
gradients on Hessian-vector products, two matrix products for all classes,
preconditioned by the Hessian every class shares at step 0 with its data
term scaled, by a power of two, toward the class's current curvature. Only
a class whose CG stalls has its own Hessian formed and inverted. Only numpy is used: importing
``scipy.linalg`` would cost more resident memory than its factorizations
save time.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .graph import InputError, integer, number, open_utf8
from .nn import sigmoid


@dataclass(frozen=True)
class LabelSet:
    """Class labels over dense node indices; unlabeled nodes simply absent."""

    node_indices: np.ndarray  # dense node index per labeled node
    classes: np.ndarray  # class index per labeled node
    class_names: tuple

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
    with open_utf8(path) as fh:
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
    classifier's ``l2`` and whether rows are L2-normalized, stored as a float
    tuple, ints, a float and a bool, so JSON keeps them (InputError if bad)."""

    ratios: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    repetitions: int = 10
    seed: int = 0
    l2: float = 1.0
    normalize: bool = True
    INT_LEAST = {"repetitions": 1, "seed": 0}  # least value of each integer field

    def __post_init__(self):
        try:
            ratios = tuple(number("ratios", r) for r in self.ratios)
        except TypeError:
            raise InputError(f"ratios must be a sequence of numbers, got {self.ratios!r}") from None
        object.__setattr__(self, "ratios", ratios)
        for r in self.ratios:
            if not 0.0 < r < 1.0:
                raise InputError(f"train ratio must be in (0, 1), got {r}")
        for name, least in self.INT_LEAST.items():
            object.__setattr__(self, name, integer(name, getattr(self, name), least))
        object.__setattr__(self, "l2", number("l2", self.l2))
        if not (np.isfinite(self.l2) and self.l2 > 0):
            raise InputError(f"l2 must be a finite number > 0, got {self.l2}")
        if not isinstance(self.normalize, bool):
            raise InputError(f"normalize must be a bool, got {self.normalize!r}")


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


def split(label_set, ratio, rep, seed):
    """Disjoint train/test cover of the labeled nodes, deterministic per
    (seed, rep); positions index into ``label_set`` arrays. A draw whose
    training side misses a class is repeated up to ``MAX_REDRAWS`` times, then
    the split is used anyway with a warning."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"train ratio must be in (0, 1), got {ratio}")
    n = len(label_set)
    n_train = train_size(ratio, n)
    rng = np.random.default_rng(np.random.SeedSequence((seed, rep)))
    all_classes = np.unique(label_set.classes)
    for attempt in range(MAX_REDRAWS + 1):
        order = rng.permutation(n)
        train, test = order[:n_train], order[n_train:]
        if np.array_equal(np.unique(label_set.classes[train]), all_classes):
            return train, test
    warnings.warn(
        f"train split at ratio {ratio} is missing some class after {MAX_REDRAWS} redraws",
        stacklevel=2,
    )
    return train, test


MAX_REDRAWS = 20  # draws of a split after the first, before it is used without a class
MAX_NEWTON_STEPS = 50
TOL = 1e-5  # per-class gradient norm at which a fit stops
CG_CAP = 10  # CG iterations after which a class is preconditioned by its own Hessian


@dataclass(frozen=True, eq=False)
class LinearOvrClassifier:
    """One-vs-rest logistic regression, as :func:`fit_linear_ovr` returns it.

    Class k minimizes ``_objective``: mean binary cross-entropy of
    ``x @ w_k + b_k`` against ``classes == k`` plus ``l2 / (2 n) |w_k|^2``
    (intercept unpenalized, a C-style regularization of 1/l2).
    ``iterations_run`` is the most Newton steps any class took and
    ``final_grad_norm`` the largest per-class gradient norm.
    """

    weights: np.ndarray  # (classes, dim) float64
    intercepts: np.ndarray  # (classes,) float64
    iterations_run: int
    final_grad_norm: float

    def predict(self, x):
        return (x @ self.weights.T + self.intercepts).argmax(axis=1)


def _objective(z, target, w, l2):
    """Mean cross-entropy of the scores ``z`` against ``target`` plus
    ``l2 / (2 n) |w|^2``: one value for each column of ``z`` and ``w``."""
    ce = np.logaddexp(0.0, z) - target * z
    n = z.shape[0]
    return ce.sum(axis=0) / n + (l2 / (2.0 * n)) * (w * w).sum(axis=0)


def _hessian(xt, d, penalty):
    """``xt diag(d) xt.T + diag(penalty)`` as ``S @ S.T`` with ``S = xt sqrt(d)``,
    which numpy computes by a symmetric rank-k update, half the work of a
    general product. A scalar ``d`` scales ``xt @ xt.T`` instead, with no
    ``S`` the size of ``xt``."""
    if np.ndim(d):
        s = xt * np.sqrt(d)
        hessian = s @ s.T
    else:
        hessian = xt @ xt.T
        hessian *= d
    hessian.flat[:: hessian.shape[0] + 1] += penalty
    return hessian


@contextmanager
def _naming_singular(which):
    """Turn a ``LinAlgError`` from a singular Hessian into an :class:`InputError`
    that names the system as ``which``."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise InputError(
            f"{which} is singular: l2 is too small to regularize linearly dependent "
            "feature columns"
        ) from exc


def _newton_cg(xt, d, grads, penalty, inverses):
    """Newton directions ``H_k^-1 g_k`` for the gradient columns ``g_k`` by
    preconditioned conjugate gradients, with ``H_k v = xt (d_k * xt.T v) + penalty v``.

    All columns iterate together, so a Hessian-vector product is two matrix
    products for every class. Column ``k`` is preconditioned by the matrix
    ``inverses[k]``, in one product with the columns that share it, and
    stops once its residual is at most ``min(0.1, sqrt(|g_k|)) |g_k|``.
    Returns the directions and a mask of the columns that ``CG_CAP``
    iterations left above that; a zero curvature turns its column to nan,
    which never meets it.
    """

    def precondition(r, cols):
        out = np.empty_like(r)
        for inverse in {id(inverses[c]): inverses[c] for c in cols}.values():
            same = [i for i, c in enumerate(cols) if inverses[c] is inverse]
            out[:, same] = inverse @ r[:, same]
        return out

    norms = np.linalg.norm(grads, axis=0)
    limit = np.minimum(0.1, np.sqrt(norms)) * norms
    running = np.ones(grads.shape[1], dtype=bool)
    v, r = np.zeros_like(grads), grads.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        p = precondition(r, np.arange(grads.shape[1]))
        rz = np.einsum("ij,ij->j", r, p)
        for _ in range(CG_CAP):
            j = np.flatnonzero(running)
            hp = xt @ (d[:, j] * (xt.T @ p[:, j])) + penalty[:, None] * p[:, j]
            alpha = rz[j] / np.einsum("ij,ij->j", p[:, j], hp)
            v[:, j] += alpha * p[:, j]
            r[:, j] -= alpha * hp
            running[j] = ~(np.linalg.norm(r[:, j], axis=0) <= limit[j])
            if not running.any():
                break
            j = np.flatnonzero(running)
            z = precondition(r[:, j], j)
            rz_new = np.einsum("ij,ij->j", r[:, j], z)
            p[:, j] = z + (rz_new / rz[j]) * p[:, j]
            rz[j] = rz_new
    return v, running


def fit_linear_ovr(features, classes, l2=1.0, *, rows=None):
    """Fit every class by Newton steps from zero, halving a class's step until
    its objective does not rise, to gradient norm < ``TOL``; warns if
    ``MAX_NEWTON_STEPS`` fall short.

    All classes still above ``TOL`` step together, their weights, scores and
    gradients held as one column each. At ``w = 0`` every probability is
    1/2, so every class has the step-0 Hessian ``gram + diag(penalty)``,
    ``gram = xt xt.T / (4 n)``, and its inverse gives the first directions.
    Each later direction is ``_newton_cg``'s, preconditioned by the inverse
    of ``2^e gram + diag(penalty)``, where ``2^e`` is the class's mean
    ``p (1 - p)`` over step 0's 1/4, rounded down to a power of two. Classes
    of one power share an inverse, and where a class's ``p`` is the same in
    every row its preconditioned Hessian has eigenvalues in [1, 2). A class
    still short of the CG tolerance after ``CG_CAP`` iterations has its own
    Hessian formed by ``_hessian``: it takes the exact Newton step, and the
    inverse preconditions it from then on. With ``rows``, the fit uses only
    those rows of ``features`` and ``classes``: the steps read one float64
    copy of them, the transposed design ``[x, 1].T``, and the caller need
    not gather a split of a larger array first. Rows of one class, or
    linearly dependent columns that ``l2`` is too small to regularize (a
    singular Hessian), raise :class:`InputError`.
    """
    if not (np.isfinite(l2) and l2 > 0):
        raise ValueError(f"l2 must be a finite number > 0, got {l2}")
    x, classes = np.asarray(features, dtype=np.float64), np.asarray(classes)
    if rows is not None:
        classes = classes[rows]
    if np.unique(classes).size < 2:
        raise InputError("need at least 2 classes present in the training data")

    n, dim, c = classes.size, x.shape[1], int(classes.max()) + 1
    # [x, 1] transposed and C-contiguous
    xt = np.ones((dim + 1, n))
    xt[:-1] = (x if rows is None else x[rows]).T
    if not np.isfinite(xt).all():
        raise ValueError("features must be finite")
    penalty = np.append(np.full(dim, l2 / n), 0.0)
    targets = (classes[:, None] == np.arange(c)).astype(np.float64)
    # at w = 0 every probability is 1/2, so every class has the step-0 Hessian
    # gram + diag(penalty)
    gram = _hessian(xt, 0.25 / n, 0.0)
    scaled = {}  # power e of two -> inverse of 2^e gram + diag(penalty)

    def scaled_inverse(e, which):
        if e not in scaled:
            with _naming_singular(which):
                scaled[e] = np.linalg.inv(np.ldexp(gram, e) + np.diag(penalty))
        return scaled[e]

    scaled_inverse(0, "the Newton system every class shares at step 0")
    own = {}  # class -> inverse of its own Hessian, from the step its CG stalled
    weights, scores = np.zeros((dim + 1, c)), np.zeros((n, c))
    f = _objective(scores, targets, weights[:-1], l2)
    steps, norms = np.zeros(c, dtype=int), np.zeros(c)
    active = np.arange(c)
    for step in range(MAX_NEWTON_STEPS + 1):
        w, t, p = weights[:, active], targets[:, active], sigmoid(scores[:, active])
        grads = xt @ ((p - t) / n) + penalty[:, None] * w
        norms[active], steps[active] = np.linalg.norm(grads, axis=0), step
        if step == MAX_NEWTON_STEPS:
            break
        going = ~(norms[active] < TOL)
        if not going.any():
            break
        active = active[going]
        w, t, p, grads = (a[:, going] for a in (w, t, p, grads))
        if step == 0:
            directions = scaled[0] @ grads
        else:
            d = p * (1.0 - p) / n
            # each class's mean d over step 0's, rounded down to a power of two
            powers = np.frexp(4.0 * d.sum(axis=0))[1] - 1
            inverses = [
                own[k] if k in own
                else scaled_inverse(e, f"the Newton system of class {k} at step {step}")
                for k, e in zip(active, powers)
            ]
            for e in set(scaled) - set(powers):
                del scaled[e]
            directions, stalled = _newton_cg(xt, d, grads, penalty, inverses)
            for i in np.flatnonzero(stalled):
                k = active[i]
                with _naming_singular(f"the Newton system of class {k} at step {step}"):
                    own[k] = np.linalg.inv(_hessian(xt, d[:, i], penalty))
                directions[:, i] = own[k] @ grads[:, i]
        # halving ends for a class once its step no longer moves w
        scale, w_new = np.ones(active.size), w - directions
        z_new, f_new = np.empty((n, active.size)), np.empty(active.size)
        halving = np.arange(active.size)
        while halving.size:
            z_new[:, halving] = xt.T @ w_new[:, halving]
            f_new[halving] = _objective(z_new[:, halving], t[:, halving], w_new[:-1, halving], l2)
            rose = ~(f_new[halving] <= f[active[halving]])
            halving = halving[rose & (w_new[:, halving] != w[:, halving]).any(axis=0)]
            scale[halving] *= 0.5
            w_new[:, halving] = w[:, halving] - scale[halving] * directions[:, halving]
        weights[:, active], scores[:, active], f[active] = w_new, z_new, f_new

    model = LinearOvrClassifier(
        weights[:-1].T.copy(), weights[-1].copy(), int(steps.max()), float(norms.max())
    )
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
