import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from ane import evaluation
from ane.embedder import TrainConfig, train
from ane.graph import InputError
from ane.nn import sigmoid
from ane.evaluation import (
    LabelSet,
    SplitSpec,
    check_ratios,
    evaluate,
    fit_linear_ovr,
    format_accuracy_table,
    load_labels,
    normalize_rows,
    split,
)
from oracles import load_dataset


def make_labels(classes):
    classes = np.asarray(classes, dtype=np.int64)
    names = tuple(str(c) for c in sorted(set(classes.tolist())))
    return LabelSet(
        node_indices=np.arange(classes.size, dtype=np.int64),
        classes=classes,
        class_names=names,
    )


# label loading


def test_load_labels_sorted_classes(tmp_path):
    path = tmp_path / "x.labels"
    path.write_text("# comment\nn2 zebra\nn0 ant\nn1 zebra\n")
    ls = load_labels(path, {"n0": 0, "n1": 1, "n2": 2})
    assert ls.class_names == ("ant", "zebra")
    assert len(ls.class_names) == 2
    np.testing.assert_array_equal(ls.node_indices, [0, 1, 2])
    np.testing.assert_array_equal(ls.classes, [0, 1, 1])


def test_load_labels_unknown_ids_listed(tmp_path):
    path = tmp_path / "x.labels"
    path.write_text("\n".join(f"ghost{i} a" for i in range(8)))
    with pytest.raises(ValueError, match="ghost0, ghost1, ghost2, ghost3, ghost4"):
        load_labels(path, {"n0": 0})


def test_load_labels_malformed_line(tmp_path):
    path = tmp_path / "x.labels"
    path.write_text("n0 a extra\n")
    with pytest.raises(ValueError, match="expected 'node_id label'"):
        load_labels(path, {"n0": 0})


def test_load_labels_node_listed_twice(tmp_path):
    # one node in two positions could land in both the train and test split
    path = tmp_path / "x.labels"
    path.write_text("n0 A\nn1 B\nn0 B\n")
    with pytest.raises(ValueError, match=r"x.labels:3: node 'n0' is labeled twice"):
        load_labels(path, {"n0": 0, "n1": 1})


def test_load_labels_empty_file(tmp_path):
    path = tmp_path / "x.labels"
    path.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no labels"):
        load_labels(path, {})


def test_load_labels_one_class_rejected(tmp_path):
    path = tmp_path / "x.labels"
    path.write_text("n0 a\nn1 a\n")
    with pytest.raises(ValueError, match="need at least 2 classes, every node is labeled 'a'"):
        load_labels(path, {"n0": 0, "n1": 1})


# splits


def test_split_sizes_half():
    ls = make_labels([0] * 5 + [1] * 5)
    train, test = split(ls, 0.5, rep=0, seed=0)
    assert train.size == 5 and test.size == 5


def test_split_partition():
    ls = make_labels([0, 1] * 10)
    train, test = split(ls, 0.3, rep=2, seed=1)
    both = np.sort(np.concatenate([train, test]))
    np.testing.assert_array_equal(both, np.arange(20))


def test_split_deterministic_per_rep():
    ls = make_labels([0, 1, 2] * 7)
    a = split(ls, 0.4, rep=3, seed=9)
    b = split(ls, 0.4, rep=3, seed=9)
    np.testing.assert_array_equal(a[0], b[0])
    c = split(ls, 0.4, rep=4, seed=9)
    assert not np.array_equal(a[0], c[0])


def test_split_redraws_until_all_classes_present():
    # one rare class; a 5-node train side misses it half the time on the
    # first draw, so some reps must exercise the redraw loop
    ls = make_labels([0] * 9 + [1])
    redrew = 0
    for rep in range(10):
        train, _ = split(ls, 0.5, rep=rep, seed=0)
        assert set(ls.classes[train].tolist()) == {0, 1}
        first = np.random.default_rng(np.random.SeedSequence((0, rep))).permutation(10)[:5]
        if not np.array_equal(np.sort(train), np.sort(first)):
            redrew += 1
    assert redrew > 0


def test_split_warns_when_class_unreachable():
    # rare class and max_redraws=0 with an adversarial seed: find a rep whose
    # first draw misses class 1, then confirm the warning fires
    ls = make_labels([0] * 40 + [1])
    hit = None
    for rep in range(50):
        rng = np.random.default_rng(np.random.SeedSequence((123, rep)))
        order = rng.permutation(41)
        if 40 not in order[:4]:
            hit = rep
            break
    assert hit is not None
    with pytest.warns(UserWarning, match="missing some class"):
        split(ls, 0.1, rep=hit, seed=123, max_redraws=0)


def test_split_ratio_validation():
    ls = make_labels([0, 1, 0, 1])
    with pytest.raises(ValueError):
        split(ls, 0.0, rep=0, seed=0)
    with pytest.raises(ValueError):
        split(ls, 1.0, rep=0, seed=0)


@pytest.mark.parametrize(
    "classes, ratio, size",
    [([0, 1], 0.5, 1), ([1] + [0] * 5, 0.2, 1), ([0, 1] * 10, 0.01, 1)],
)
def test_ratios_leaving_under_two_training_nodes_refused_before_any_fit(
    classes, ratio, size, monkeypatch
):
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran for a refused ratio")

    monkeypatch.setattr(evaluation, "fit_linear_ovr", no_fit)
    ls = make_labels(classes)
    spec = SplitSpec(ratios=(0.5, ratio))
    message = (
        f"^train ratio {ratio} leaves {size} of the {len(classes)} labeled nodes for training; "
    )
    with pytest.raises(InputError, match=message):
        check_ratios(ls, spec)
    with pytest.raises(InputError, match=message):
        evaluate(np.ones((len(classes), 2)), ls, spec)


def test_split_missing_a_class_after_every_redraw_is_an_input_error():
    # two of 41 training nodes at ratio 0.05: most splits miss the one node
    # of class 1 on every redraw, and the fit refuses the split
    ls = make_labels([0] * 40 + [1])
    check_ratios(ls, SplitSpec(ratios=(0.05,)))
    with pytest.warns(UserWarning, match="missing some class"):
        with pytest.raises(InputError, match="need at least 2 classes present"):
            evaluate(np.eye(41), ls, SplitSpec(ratios=(0.05,), repetitions=10))


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(ratios=(0.5, 1.5))
    with pytest.raises(ValueError):
        SplitSpec(repetitions=0)
    for l2 in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(InputError, match=f"l2 must be a finite number > 0, got {l2}"):
            SplitSpec(l2=l2)


# classifier


def test_separable_blobs_train_accuracy_one():
    rng = np.random.default_rng(0)
    a = rng.normal(loc=(-3, -3), scale=0.3, size=(40, 2))
    b = rng.normal(loc=(3, 3), scale=0.3, size=(40, 2))
    x = np.vstack([a, b])
    y = np.array([0] * 40 + [1] * 40)
    model = fit_linear_ovr(x, y)
    assert (model.predict(x) == y).mean() == 1.0


def test_single_class_rejected():
    with pytest.raises(InputError, match="2 classes"):
        fit_linear_ovr(np.ones((5, 2)), np.zeros(5, dtype=int))


def test_singular_newton_system_is_an_input_error_naming_l2():
    # columns v, v, 2v: at l2 1e-20 the shared first system is singular, at 1e-12 it is not
    v = np.random.default_rng(4).normal(size=30)
    x, y = np.column_stack([v, v, 2 * v]), np.arange(30) % 3
    with pytest.raises(InputError, match=(
        r"^the Newton system every class shares at step 0 is singular: l2 is too small to "
        "regularize linearly dependent feature columns$"
    )) as caught:
        fit_linear_ovr(x, y, l2=1e-20)
    assert isinstance(caught.value.__cause__, np.linalg.LinAlgError)
    fit_linear_ovr(x, y, l2=1e-12)


def test_singular_newton_system_in_a_later_step_names_the_class(monkeypatch):
    # with no CG iterations allowed, every class takes its own Hessian from
    # step 1 on; the first one built after step 0's is all zeros
    monkeypatch.setattr(evaluation, "CG_CAP", 0)
    hessian = evaluation._hessian
    calls = []

    def zero_after_first(*args):
        calls.append(1)
        h = hessian(*args)
        return h if len(calls) == 1 else np.zeros_like(h)

    monkeypatch.setattr(evaluation, "_hessian", zero_after_first)
    x = np.random.default_rng(6).normal(size=(40, 3))
    with pytest.raises(InputError, match="^the Newton system of class 0 at step 1 is singular: "):
        fit_linear_ovr(x, np.arange(40) % 2, l2=1e-3)


def test_fit_on_rows_equals_fit_on_gathered_rows():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(80, 5))
    y = rng.integers(3, size=80)
    rows = rng.permutation(80)[:50]
    m1 = fit_linear_ovr(x, y, l2=0.5, rows=rows)
    m2 = fit_linear_ovr(x[rows], y[rows], l2=0.5)
    np.testing.assert_array_equal(m1.weights, m2.weights)
    np.testing.assert_array_equal(m1.intercepts, m2.intercepts)
    # only the chosen rows are read: a non-finite row outside them is ignored
    x[np.setdiff1d(np.arange(80), rows)[0]] = np.nan
    np.testing.assert_array_equal(fit_linear_ovr(x, y, l2=0.5, rows=rows).weights, m1.weights)


def ovr_objective(x, y, c, l2):
    """The fit's objective summed over the ``c`` classes, with its gradient, as
    a function of the flattened ``(c, d + 1)`` weights and intercepts."""
    n, d = x.shape
    onehot = np.eye(c)[y]
    xa = np.hstack([x, np.ones((n, 1))])

    def objective(flat):
        wa = flat.reshape(c, d + 1)
        z = xa @ wa.T
        value = (np.logaddexp(0.0, z) - onehot * z).sum() / n
        value += l2 / (2 * n) * (wa[:, :d] ** 2).sum()
        grad = (1.0 / (1.0 + np.exp(-z)) - onehot).T @ xa / n
        grad[:, :d] += l2 / n * wa[:, :d]
        return value, grad.ravel()

    return objective


def flat_params(model):
    return np.hstack([model.weights, model.intercepts[:, None]]).ravel()


def test_convexity_final_loss_below_zero_weights():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(60, 4))
    y = rng.integers(3, size=60)
    model = fit_linear_ovr(x, y, l2=1.0)
    objective = ovr_objective(x, y, 3, 1.0)
    assert objective(flat_params(model))[0] <= objective(np.zeros(3 * 5))[0]


def test_random_labels_score_near_majority_rate():
    rng = np.random.default_rng(2)
    n = 300
    x = rng.normal(size=(n, 8))
    y = (rng.random(n) < 0.6).astype(int)  # majority class share ~0.6
    ls = LabelSet(np.arange(n), y, ("a", "b"))
    majority = max(y.mean(), 1 - y.mean())
    results = evaluate(x, ls, SplitSpec(ratios=(0.5,), repetitions=10, seed=0))
    # features carry no signal, so accuracy sits at the chance level set by
    # the class prior (the fit shrinks toward the majority-rate intercept)
    assert abs(results[0].mean_accuracy - majority) <= 0.10


def test_column_permutation_preserves_predictions():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(50, 6))
    y = rng.integers(2, size=50)
    perm = rng.permutation(6)
    m1 = fit_linear_ovr(x, y)
    m2 = fit_linear_ovr(x[:, perm], y)
    np.testing.assert_array_equal(m1.predict(x), m2.predict(x[:, perm]))


def test_newton_meets_tol_at_the_lbfgs_minimum():
    rng = np.random.default_rng(4)
    n, d, c, l2 = 60, 4, 3, 0.5
    x = rng.normal(size=(n, d))
    y = rng.integers(c, size=n)
    model = fit_linear_ovr(x, y, l2=l2)
    assert model.final_grad_norm < 1e-5
    assert model.iterations_run <= 10

    objective = ovr_objective(x, y, c, l2)
    ref = minimize(
        objective, np.zeros(c * (d + 1)), jac=True, method="L-BFGS-B",
        options={"gtol": 1e-12, "ftol": 1e-15, "maxiter": 10_000},
    ).x.reshape(c, d + 1)
    # a gradient norm under 1e-5 leaves the weights within about 1e-5 over
    # the smallest Hessian eigenvalue of the minimum
    np.testing.assert_allclose(model.weights, ref[:, :d], atol=1e-4)
    np.testing.assert_allclose(model.intercepts, ref[:, d], atol=1e-4)
    assert objective(flat_params(model))[0] == pytest.approx(objective(ref.ravel())[0], abs=1e-9)


def test_saturating_fit_converges_with_step_halving():
    # large features and a tiny penalty: full Newton steps overshoot into
    # saturation, where the undamped iteration meets a singular Hessian
    rng = np.random.default_rng(0)
    x = rng.normal(size=(100, 40)) * 10
    y = rng.integers(3, size=100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = fit_linear_ovr(x, y, l2=1e-6)
    assert model.final_grad_norm < 1e-5
    assert np.isfinite(model.weights).all() and np.isfinite(model.intercepts).all()


def test_fit_stopped_at_step_cap_warns(monkeypatch):
    monkeypatch.setattr(evaluation, "MAX_NEWTON_STEPS", 1)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 3))
    y = rng.integers(2, size=40)
    with pytest.warns(UserWarning, match="stopped after 1 Newton steps"):
        model = fit_linear_ovr(x, y)
    assert model.iterations_run == 1 and model.final_grad_norm >= 1e-5


@pytest.fixture(scope="module")
def karate_embedding():
    graph, labels = load_dataset("karate")
    config = TrainConfig(dim=4, walks_per_node=2, walk_length=20, context_size=4, epochs=1)
    embedding, _ = train(graph, config)
    rows = {node_id: i for i, node_id in enumerate(embedding.ids)}
    return embedding.vectors, load_labels(labels, rows)


@pytest.mark.filterwarnings("error:logistic fit stopped:UserWarning")
@pytest.mark.parametrize(
    "settings",
    [
        {},
        {"ratios": (0.5,), "repetitions": 2},
        {"ratios": (0.5,), "repetitions": 2, "normalize": False, "l2": 1e-6},
    ],
    ids=["defaults", "half-twice", "half-twice-unnormalized-l2-1e-6"],
)
def test_karate_fits_stop_before_the_step_cap(karate_embedding, settings):
    # a fit that reaches MAX_NEWTON_STEPS warns, here an error; the other
    # warnings, such as a split's redraws, stay warnings
    vectors, labels = karate_embedding
    spec = SplitSpec(**settings)
    results = evaluate(vectors, labels, spec)
    assert [r.repetitions for r in results] == [spec.repetitions] * len(spec.ratios)


def newton_oracle(x, classes, l2):
    """Reference fit: per class, Newton from zero on the general product
    ``(xa.T * d) @ xa`` solved by LU, halving each step until the objective
    does not rise. Returns the (classes, dim + 1) weights and the most steps."""
    n, dim = x.shape
    xa = np.hstack([x, np.ones((n, 1))])
    penalty = np.append(np.full(dim, l2 / n), 0.0)
    weights, steps = [], []
    for k in range(int(classes.max()) + 1):
        target = (classes == k).astype(np.float64)
        w, z = np.zeros(dim + 1), np.zeros(n)
        f = evaluation._objective(z, target, w[:-1], l2)
        for step in range(evaluation.MAX_NEWTON_STEPS + 1):
            p = sigmoid(z)
            grad = xa.T @ ((p - target) / n) + penalty * w
            if np.linalg.norm(grad) < evaluation.TOL or step == evaluation.MAX_NEWTON_STEPS:
                break
            direction = np.linalg.solve((xa.T * (p * (1 - p) / n)) @ xa + np.diag(penalty), grad)
            scale, w_new = 1.0, w - direction
            while not (f_new := evaluation._objective(xa @ w_new, target, w_new[:-1], l2)) <= f:
                scale *= 0.5
                w_new = w - scale * direction
            w, z, f = w_new, xa @ w_new, f_new
        weights.append(w)
        steps.append(step)
    return np.array(weights), max(steps)


def newton_cg_oracle(x, classes, l2):
    """The fit's rule transcribed one class at a time on the general products
    of ``xa``: Newton from zero, the first direction solved with the step-0
    Hessian ``xa.T xa / (4 n) + diag(penalty)``, each later one by conjugate
    gradients until the residual is at most ``min(0.1, sqrt(|g|)) |g|``,
    preconditioned with the inverse of the Hessian whose ``d`` is step 0's
    times the step's mean ``d`` over step 0's, rounded down to a power of
    two. A class that ``CG_CAP`` iterations leave short of that takes the
    exact step of its own Hessian, whose inverse preconditions it from then
    on. Returns weights as ``newton_oracle`` does."""
    n, dim = x.shape
    xa = np.hstack([x, np.ones((n, 1))])
    penalty = np.append(np.full(dim, l2 / n), 0.0)
    weights, steps = [], []
    for k in range(int(classes.max()) + 1):
        target = (classes == k).astype(np.float64)
        w, z, own = np.zeros(dim + 1), np.zeros(n), None
        f = evaluation._objective(z, target, w[:-1], l2)
        for step in range(evaluation.MAX_NEWTON_STEPS + 1):
            p = sigmoid(z)
            grad = xa.T @ ((p - target) / n) + penalty * w
            grad_norm = np.linalg.norm(grad)
            if grad_norm < evaluation.TOL or step == evaluation.MAX_NEWTON_STEPS:
                break
            d = p * (1 - p) / n
            hessian = (xa.T * d) @ xa + np.diag(penalty)
            inverse = own
            if inverse is None:
                scale = np.ldexp(0.25 / n, np.frexp(4.0 * d.sum())[1] - 1) if step else 0.25 / n
                inverse = np.linalg.inv(scale * (xa.T @ xa) + np.diag(penalty))
            direction = inverse @ grad
            if step:
                direction, r = np.zeros(dim + 1), grad.copy()
                s = inverse @ r
                rz = r @ s
                for _ in range(evaluation.CG_CAP):
                    hs = hessian @ s
                    alpha = rz / (s @ hs)
                    direction, r = direction + alpha * s, r - alpha * hs
                    if np.linalg.norm(r) <= min(0.1, np.sqrt(grad_norm)) * grad_norm:
                        break
                    u = inverse @ r
                    s, rz = u + (r @ u) / rz * s, r @ u
                else:
                    own = np.linalg.inv(hessian)
                    direction = own @ grad
            scale, w_new = 1.0, w - direction
            while not (f_new := evaluation._objective(xa @ w_new, target, w_new[:-1], l2)) <= f:
                scale *= 0.5
                w_new = w - scale * direction
            w, z, f = w_new, xa @ w_new, f_new
        weights.append(w)
        steps.append(step)
    return np.array(weights), max(steps)


def oracle_predictions(weights, x):
    return (np.hstack([x, np.ones((x.shape[0], 1))]) @ weights.T).argmax(axis=1)


def seven_class_data(seed, n=300, dim=16):
    rng = np.random.default_rng(seed)
    classes = rng.integers(7, size=n)
    centers = rng.normal(size=(7, dim))
    return normalize_rows(centers[classes] + rng.normal(size=(n, dim))), classes


@pytest.mark.parametrize("missing", [None, 3])
def test_fit_matches_lu_newton_oracle(missing):
    # the fit follows its per-class transcription to 1e-8, step for step, and
    # predicts like exact per-class Newton solved by LU. missing: class 3 has
    # no training rows, so its target column is all zero; its intercept runs
    # down until the mean probability is under TOL
    x, classes = seven_class_data(6)
    if missing is not None:
        keep = classes != missing
        x, classes = x[keep], classes[keep]
    for l2 in (1.0, 1e-3):
        model = fit_linear_ovr(x, classes, l2=l2)
        want, steps = newton_cg_oracle(x, classes, l2)
        assert model.weights.shape[0] == 7
        np.testing.assert_allclose(model.weights, want[:, :-1], rtol=0, atol=1e-8)
        np.testing.assert_allclose(model.intercepts, want[:, -1], rtol=0, atol=1e-8)
        assert model.iterations_run == steps
        assert model.final_grad_norm < evaluation.TOL
        exact, _ = newton_oracle(x, classes, l2)
        np.testing.assert_array_equal(model.predict(x), oracle_predictions(exact, x))


@pytest.mark.parametrize("seed", range(5))
def test_fit_at_the_defaults_predicts_like_exact_newton(seed):
    x, classes = seven_class_data(seed)
    train = np.arange(0, 300, 3)
    model = fit_linear_ovr(x, classes, rows=train)
    exact, _ = newton_oracle(x[train], classes[train], 1.0)
    np.testing.assert_array_equal(model.predict(x), oracle_predictions(exact, x))


def test_shared_first_direction_equals_per_class_solve(monkeypatch):
    # one Newton step: at w = 0 every class's Hessian is xa.T xa / (4 n) +
    # diag(penalty), and the full step along its solve lowers the objective
    monkeypatch.setattr(evaluation, "MAX_NEWTON_STEPS", 1)
    x, classes = seven_class_data(7)
    n, dim = x.shape
    l2 = 1.0
    with pytest.warns(UserWarning, match="stopped after 1 Newton steps"):
        model = fit_linear_ovr(x, classes, l2=l2)
    xa = np.hstack([x, np.ones((n, 1))])
    penalty = np.append(np.full(dim, l2 / n), 0.0)
    hessian = (xa.T * (0.25 / n)) @ xa + np.diag(penalty)
    for k in range(7):
        want = -np.linalg.solve(hessian, xa.T @ ((0.5 - (classes == k)) / n))
        np.testing.assert_allclose(model.weights[k], want[:-1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.intercepts[k], want[-1], rtol=0, atol=1e-12)


def test_train_and_evaluate_leave_scipy_linalg_unimported():
    # importing scipy.linalg costs about 7.5 MB of resident memory (measured
    # 49.9 -> 57.4 MB), some 4.5 % of a Cora-sized run's peak; the fit's
    # Hessian products and solves stay within numpy
    script = """
import sys
from ane.datasets import dataset_paths
from ane.embedder import TrainConfig, train
from ane.evaluation import SplitSpec, evaluate, load_labels
from ane.graph import load_edge_list, preprocess
edges_path, labels_path = dataset_paths("karate")
graph = preprocess(load_edge_list(edges_path))
labels = load_labels(labels_path, graph.index_of)
config = TrainConfig(model="aidw", dim=4, walks_per_node=2, walk_length=8, context_size=2,
                     epochs=1, batch_size=64, adv_batch_size=16)
embedding, _ = train(graph, config)
evaluate(embedding.vectors, labels, SplitSpec(ratios=(0.5,), repetitions=2))
assert "scipy.linalg" not in sys.modules, "scipy.linalg was imported"
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("l2", [0.0, -1.0, np.nan, np.inf])
def test_fit_rejects_l2_not_finite_and_positive(l2):
    with pytest.raises(ValueError, match="l2 must be a finite number > 0"):
        fit_linear_ovr(np.eye(4), np.array([0, 1, 0, 1]), l2=l2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_rejects_non_finite_features(bad):
    x = np.eye(4)
    x[2, 1] = bad
    with pytest.raises(ValueError, match="features must be finite"):
        fit_linear_ovr(x, np.array([0, 1, 0, 1]))


# evaluate


def test_one_hot_embeddings_perfect_at_every_ratio():
    # large enough that every class keeps several training samples even at
    # the lowest ratio; with starved classes the regularized optimum is not
    # guaranteed to rank the true class first
    y = np.array([0, 1, 2] * 60)
    x = np.eye(3)[y]
    ls = make_labels(y)
    results = evaluate(x, ls, SplitSpec(ratios=(0.1, 0.5, 0.9), repetitions=5, seed=0))
    for r in results:
        assert r.mean_accuracy == 1.0
        assert r.std_accuracy == 0.0


def test_identical_embeddings_hit_majority_share():
    y = np.array([0] * 30 + [1] * 10)
    x = np.ones((40, 4))
    ls = make_labels(y)
    spec = SplitSpec(ratios=(0.5,), repetitions=10, seed=1)
    results = evaluate(x, ls, spec)
    # constant predictor: every test point gets the train-majority class
    expected = []
    for rep in range(10):
        train, test = split(ls, 0.5, rep, seed=1)
        maj = np.bincount(y[train]).argmax()
        expected.append((y[test] == maj).mean())
    assert results[0].mean_accuracy == pytest.approx(np.mean(expected))


def test_evaluate_uses_requested_repetitions():
    y = np.array([0, 1] * 20)
    x = np.random.default_rng(5).normal(size=(40, 3))
    results = evaluate(x, make_labels(y), SplitSpec(ratios=(0.5,), repetitions=7, seed=0))
    assert results[0].repetitions == 7


def test_evaluate_takes_l2_and_normalize_from_the_spec():
    # the classes differ only in row length, which normalization removes,
    # and a huge l2 leaves only the intercepts: each setting moves the accuracy
    y = np.array([0, 1] * 30)
    x = np.column_stack([1.0 + 9.0 * y, np.zeros(60)])
    x += np.random.default_rng(3).normal(0.0, 0.1, x.shape)
    ls = make_labels(y)

    def accuracy(**settings):
        spec = SplitSpec(ratios=(0.5,), repetitions=3, **settings)
        return evaluate(x, ls, spec)[0].mean_accuracy

    assert accuracy(normalize=False, l2=1e-3) == 1.0
    assert accuracy(normalize=True, l2=1e-3) < 0.8
    assert accuracy(normalize=False, l2=1e6) < 0.8


def test_evaluate_holds_one_float64_copy_of_each_split():
    # only the labeled float32 rows, every fourth, are gathered and cast, and
    # each fit gathers its split's rows straight into the transposed design:
    # at ratio 0.5 the peak is the labeled rows in float64 plus the design and
    # the Hessian's workspace of half as much each. Measured 2.21 float64
    # copies of the n x d labeled rows (2.71 with the split's row copy held
    # through the fit, 5.00 with all 4 n rows cast before the gather);
    # bounded at 2.4
    n, dim = 2000, 64
    rng = np.random.default_rng(0)
    classes = rng.integers(7, size=n)
    x = np.zeros((4 * n, dim), dtype=np.float32)
    x[::4] = rng.normal(size=(7, dim))[classes] + rng.normal(size=(n, dim))
    labels = LabelSet(np.arange(0, 4 * n, 4), classes, tuple("abcdefg"))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        evaluate(x, labels, SplitSpec(ratios=(0.5,), repetitions=1))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.4 * n * dim * 8


def test_normalize_rows_behavior():
    x = np.array([[3.0, 4.0], [0.0, 0.0]])
    out = normalize_rows(x)
    np.testing.assert_allclose(out[0], [0.6, 0.8])
    np.testing.assert_array_equal(out[1], [0.0, 0.0])


def test_table_format():
    y = np.array([0, 1] * 15)
    x = np.eye(2)[y]
    results = evaluate(x, make_labels(y), SplitSpec(ratios=(0.3, 0.7), repetitions=3, seed=0))
    table = format_accuracy_table(results)
    lines = table.strip().splitlines()
    assert lines[0].split("\t") == ["ratio", "mean_acc", "std_acc", "n_reps"]
    assert len(lines) == 3
    assert lines[1].split("\t")[0] == "0.30"
    assert lines[1].split("\t")[1] == "100.00"
