import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

from ane import nn
from ane.nn import (
    BatchNorm,
    DenseLayer,
    GradientError,
    LeakyRelu,
    Mlp,
    RmsProp,
    clip_global_norm,
    log_sigmoid,
    logistic_loss,
    sigmoid,
)
from oracles import gradient_check

# activations


def test_sigmoid_zero():
    assert sigmoid(np.array(0.0)) == 0.5


def test_sigmoid_extreme_arguments_no_overflow():
    with np.errstate(over="raise", invalid="raise"):
        hi = sigmoid(np.array(500.0))
        lo = sigmoid(np.array(-500.0))
    assert hi >= 1.0 - 1e-200
    assert 0.0 < lo < 1e-200


def test_sigmoid_symmetry():
    rng = np.random.default_rng(0)
    x = rng.normal(scale=5.0, size=200)
    np.testing.assert_allclose(sigmoid(-x), 1.0 - sigmoid(x), atol=1e-12)


def _two_branch_sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_has_the_bits_of_the_two_branch_formula(dtype):
    rng = np.random.default_rng(5)
    x = np.concatenate([
        rng.standard_normal(1000) * scale for scale in (1.0, 10.0, 100.0, 1000.0)
    ] + [[0.0, -0.0, np.inf, -np.inf]]).astype(dtype)
    with np.errstate(over="raise", invalid="raise"):
        got = sigmoid(x)
    assert got.dtype == np.float64
    assert got.tobytes() == _two_branch_sigmoid(x).tobytes()
    # only the sign bit of a nan may differ
    assert np.isnan(sigmoid(np.array([np.nan], dtype=dtype))).all()


def test_log_sigmoid_matches_naive_in_safe_range():
    x = np.linspace(-20, 20, 101)
    np.testing.assert_allclose(log_sigmoid(x), np.log(sigmoid(x)), atol=1e-12)


def test_log_sigmoid_stable_at_extremes():
    with np.errstate(over="raise"):
        vals = log_sigmoid(np.array([-750.0, 750.0]))
    assert vals[0] == pytest.approx(-750.0)
    assert vals[1] == pytest.approx(0.0, abs=1e-300)


def test_logistic_loss_hand_values_and_unclamped_tails():
    x = np.array([-800.0, -40.0, 0.0, 40.0, 800.0], dtype=np.float32)
    loss_real, grad_real = logistic_loss(x, 1)
    loss_fake, grad_fake = logistic_loss(x, 0)
    # -log sigmoid(x) ~ -x far below 0, ln 2 at 0, ~0 far above
    assert loss_real == pytest.approx(840.0 + np.log(2.0), rel=1e-15)
    assert loss_fake == pytest.approx(840.0 + np.log(2.0), rel=1e-15)
    assert grad_real.dtype == np.float64 and grad_fake.dtype == np.float64
    # a confidently wrong logit keeps the whole gradient of -1 or 1
    np.testing.assert_array_equal(grad_real, [-1.0, -1.0, -0.5, 0.0, 0.0])
    np.testing.assert_array_equal(grad_fake, [0.0, sigmoid(-40.0), 0.5, 1.0, 1.0])


def test_logistic_loss_gradient_matches_central_differences():
    x = np.random.default_rng(3).normal(scale=4.0, size=50)
    h = 1e-6
    for label in (0, 1):
        _, grad = logistic_loss(x, label)
        numeric = [
            (logistic_loss(x[i:i + 1] + h, label)[0] - logistic_loss(x[i:i + 1] - h, label)[0])
            / (2 * h)
            for i in range(x.size)
        ]
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-9)


def test_dense_glorot_weights_are_one_draw_taken_in_blocks():
    # 513 rows of the (out_dim, in_dim) draw, 69 a block: 8 blocks, the last short
    in_dim, out_dim = 469, 513
    assert nn.STEP_SLICE // in_dim == 69
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    for dtype in (np.float32, np.float64):
        layer_rng, rng = np.random.default_rng(1), np.random.default_rng(1)
        weights = DenseLayer(in_dim, out_dim, layer_rng, dtype).weights
        assert weights.dtype == dtype and weights.flags.c_contiguous
        assert (np.abs(weights) <= limit).all()
        whole = rng.uniform(-limit, limit, size=(out_dim, in_dim)).T.astype(dtype)
        assert weights.tobytes() == np.ascontiguousarray(whole).tobytes()
        # the layer left its rng in the state of the whole draw
        assert layer_rng.random() == rng.random()
    # zero-wide rows (a features file of 0 columns) draw nothing
    layer_rng = np.random.default_rng(1)
    assert DenseLayer(0, 3, layer_rng).weights.shape == (0, 3)
    assert layer_rng.random() == np.random.default_rng(1).random()


# dense layer


def test_dense_identity_forward():
    layer = DenseLayer(3, 3, np.random.default_rng(0))
    layer.weights = np.eye(3)
    layer.bias[:] = 0.0
    x = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(layer.forward(x), x)


def test_dense_bias_gradient_sums_over_batch():
    layer = DenseLayer(2, 4, np.random.default_rng(2))
    x = np.random.default_rng(3).normal(size=(5, 2))
    layer.forward(x)
    layer.backward(np.ones((5, 4)))
    np.testing.assert_array_equal(layer.grad_bias, np.full(4, 5.0))


def test_dense_shape_mismatch_errors():
    layer = DenseLayer(3, 2, np.random.default_rng(0))
    with pytest.raises(ValueError, match="does not match"):
        layer.forward(np.zeros((4, 5)))


def test_dense_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    layer = DenseLayer(4, 3, rng)
    net = Mlp([layer])
    x = rng.normal(size=(6, 4))
    target = rng.normal(size=(6, 3))

    def loss_fn():
        out = net.forward(x)
        net.backward(2.0 * (out - target) / out.size)
        return float(((out - target) ** 2).mean())

    assert gradient_check(net, loss_fn) < 1e-7


def test_leaky_relu_values_and_grad():
    act = LeakyRelu()
    x = np.array([[3.0, -5.0, 0.0]])
    np.testing.assert_array_equal(act.forward(x), [[3.0, -1.0, 0.0]])
    grad = act.backward(np.ones((1, 3)))
    np.testing.assert_array_equal(grad, [[1.0, 0.2, 0.2]])


def signed_bits(a):
    """The raw bits of a float array, so -0.0 and 0.0 compare unequal."""
    return np.ascontiguousarray(a).view(f"i{a.itemsize}")


# zeros of both signs, a constant column and a 2-row batch
EDGE_BATCHES = [
    np.array([[0.0, -0.0, 3.0, 1e-300], [-0.0, 0.0, -2.5, -1e-300], [0.0, -0.0, 3.0, 7.0]]),
    np.array([[1.5, -0.0, 4.0], [-2.0, 0.0, 4.0]]),
    np.random.default_rng(14).normal(size=(37, 40)),
]


@pytest.mark.parametrize("x", EDGE_BATCHES)
def test_leaky_relu_bit_equal_to_where_scale_and_caches_a_bool_mask(x):
    for dtype in (np.float64, np.float32):
        v = x.astype(dtype)
        act = LeakyRelu()
        scale = np.where(v > 0, 1.0, 0.2).astype(dtype)
        out = act.forward(v)
        assert act._mask.dtype == np.bool_ and act._mask.shape == x.shape
        assert out.dtype == dtype
        np.testing.assert_array_equal(signed_bits(out), signed_bits(v * scale))
        grad = np.random.default_rng(15).normal(size=x.shape).astype(dtype)
        grad[0] = [-0.0] * x.shape[1]
        np.testing.assert_array_equal(signed_bits(act.backward(grad)), signed_bits(grad * scale))


@pytest.mark.parametrize("slope", [0.0, 0.01, 0.2, 0.5, 1.0])
def test_leaky_relu_scale_is_exactly_one_or_slope(slope, monkeypatch):
    # LEAKY_SLOPE is 0.2; the scale is as exact at the other usual slopes
    monkeypatch.setattr(nn, "LEAKY_SLOPE", slope)
    for dtype in (np.float64, np.float32):
        act = LeakyRelu()
        act.forward(np.array([[2.0, -2.0]], dtype=dtype))
        grad = act.backward(np.ones((1, 2), dtype=dtype))
        assert grad.dtype == dtype
        np.testing.assert_array_equal(grad, np.array([[1.0, slope]], dtype=dtype))


# batch norm


def test_batchnorm_identical_rows_outputs_shift():
    bn = BatchNorm(3)
    bn.shift[:] = [1.0, -2.0, 0.5]
    x = np.tile([4.0, 4.0, 4.0], (5, 1))
    out = bn.forward(x)
    np.testing.assert_allclose(out, np.tile(bn.shift, (5, 1)), atol=1e-12)


def test_batchnorm_standardized_input_passthrough():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(200, 4))
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    out = BatchNorm(4).forward(x)
    np.testing.assert_allclose(out, x, atol=1e-6)


def test_batchnorm_train_statistics():
    rng = np.random.default_rng(6)
    bn = BatchNorm(5)
    bn.forward(rng.normal(loc=3.0, scale=2.0, size=(64, 5)))
    assert bn.last_norm_mean_abs < 1e-6
    assert bn.last_norm_var_err < 1e-4


def test_batchnorm_drift_reads_the_last_train_mode_forward():
    def drift(x, eps=1e-12):
        norm = (x - x.mean(axis=0)) * (1.0 / np.sqrt(x.var(axis=0) + eps))
        return np.abs(norm.mean(axis=0)).max(), np.abs(norm.var(axis=0) - 1.0).max()

    rng = np.random.default_rng(11)
    bn = BatchNorm(4)
    assert (bn.last_norm_mean_abs, bn.last_norm_var_err) == (0.0, 0.0)
    a = rng.normal(loc=3.0, scale=2.0, size=(32, 4))
    bn.forward(a)
    assert (bn.last_norm_mean_abs, bn.last_norm_var_err) == drift(a)
    # a constant feature normalizes to 0, so its variance is 1 off
    c = rng.normal(size=(8, 4))
    c[:, 2] = 5.0
    bn.forward(c)
    assert (bn.last_norm_mean_abs, bn.last_norm_var_err) == drift(c)
    assert bn.last_norm_var_err == 1.0


@pytest.mark.parametrize("x", EDGE_BATCHES)
@pytest.mark.parametrize("param_grads", [True, False])
def test_batchnorm_bit_equal_to_the_whole_expressions(x, param_grads):
    rng = np.random.default_rng(16)
    bn = BatchNorm(x.shape[1])
    bn.gamma[:] = rng.uniform(0.5, 1.5, size=x.shape[1])
    bn.shift[:] = rng.normal(size=x.shape[1])
    grad = rng.normal(size=x.shape)
    grad[-1] = [-0.0] * x.shape[1]
    before = x.copy(), grad.copy()

    mean, var = x.mean(axis=0), x.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + nn.BN_EPS)
    norm = (x - mean) * inv_std
    b = x.shape[0]
    dnorm = grad * bn.gamma
    want_in = (inv_std / b) * (b * dnorm - dnorm.sum(axis=0) - norm * (dnorm * norm).sum(axis=0))

    out = bn.forward(x)
    np.testing.assert_array_equal(signed_bits(out), signed_bits(bn.gamma * norm + bn.shift))
    np.testing.assert_array_equal(signed_bits(bn._norm), signed_bits(norm))
    got_in = bn.backward(grad, param_grads=param_grads)
    np.testing.assert_array_equal(signed_bits(got_in), signed_bits(want_in))
    if param_grads:
        np.testing.assert_array_equal(bn.grad_gamma, (grad * norm).sum(axis=0))
        np.testing.assert_array_equal(bn.grad_shift, grad.sum(axis=0))
    # the inputs are not written over
    np.testing.assert_array_equal(x, before[0])
    np.testing.assert_array_equal(grad, before[1])


def test_batchnorm_batch_of_one_rejected():
    with pytest.raises(ValueError, match="batch size >= 2"):
        BatchNorm(2).forward(np.zeros((1, 2)))


def test_batchnorm_infer_mode_pure():
    rng = np.random.default_rng(8)
    bn = BatchNorm(3)
    bn.forward(rng.normal(size=(32, 3)))  # leaves nothing the next forward reads
    x = rng.normal(size=(4, 3))
    a = bn.forward(x)
    b = bn.forward(x)
    np.testing.assert_array_equal(a, b)


def test_batchnorm_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    bn = BatchNorm(3)
    bn.gamma[:] = rng.uniform(0.5, 1.5, size=3)
    bn.shift[:] = rng.normal(size=3)
    net = Mlp([bn])
    x = rng.normal(size=(10, 3))
    target = rng.normal(size=(10, 3))

    def loss_fn():
        out = net.forward(x)
        net.backward(2.0 * (out - target) / out.size)
        return float(((out - target) ** 2).mean())

    assert gradient_check(net, loss_fn) < 1e-5


@pytest.mark.parametrize("first", ["dense", "batchnorm", "leaky"])
def test_backward_without_input_grad_keeps_parameter_gradients(first):
    rng = np.random.default_rng(12)
    head = {"dense": DenseLayer(4, 4, rng), "batchnorm": BatchNorm(4), "leaky": LeakyRelu()}
    net = Mlp([head[first], DenseLayer(4, 3, rng), LeakyRelu(), BatchNorm(3)])
    x = rng.normal(size=(7, 4))
    g = rng.normal(size=(7, 3))

    net.forward(x)
    assert net.backward(g).shape == x.shape
    full = net.grads.copy()
    net.forward(x)
    assert net.backward(g, input_grad=False) is None
    np.testing.assert_array_equal(full, net.grads)


def test_backward_without_param_grads_keeps_input_gradient():
    rng = np.random.default_rng(13)
    net = Mlp([DenseLayer(4, 5, rng), LeakyRelu(), BatchNorm(5), DenseLayer(5, 1, rng)])
    x = rng.normal(size=(6, 4))
    g1, g2 = rng.normal(size=(6, 1)), rng.normal(size=(6, 1))

    net.forward(x)
    want = net.backward(g2)
    net.forward(x)
    net.backward(g1)
    before = net.grads.copy()
    net.forward(x)
    np.testing.assert_array_equal(net.backward(g2, param_grads=False), want)
    np.testing.assert_array_equal(before, net.grads)  # the g1 gradients are left in place


def test_batchnorm_input_gradient_matches_finite_differences():
    # differentiates through the batch statistics, not around them
    rng = np.random.default_rng(10)
    bn = BatchNorm(2)
    x = rng.normal(size=(6, 2))
    target = rng.normal(size=(6, 2))

    out = bn.forward(x)
    grad_in = bn.backward(2.0 * (out - target) / out.size)

    def loss_at(xv):
        o = BatchNorm(2).forward(xv)
        return float(((o - target) ** 2).mean())

    h = 1e-5
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            xp = x.copy()
            xp[i, j] += h
            xm = x.copy()
            xm[i, j] -= h
            numeric = (loss_at(xp) - loss_at(xm)) / (2 * h)
            assert abs(numeric - grad_in[i, j]) < 1e-6


# float32 layers


def test_float32_layers_keep_the_input_dtype_forward_and_backward():
    rng = np.random.default_rng(17)
    net = Mlp(
        [
            DenseLayer(6, 5, rng, np.float32),
            LeakyRelu(),
            BatchNorm(5, dtype=np.float32),
            DenseLayer(5, 2, rng, np.float32),
        ]
    )
    x = rng.normal(size=(9, 6)).astype(np.float32)
    outputs = []
    for layer in net.layers:
        x = layer.forward(x)
        outputs.append(x)
    grad = rng.normal(size=(9, 2)).astype(np.float32)
    for layer in reversed(net.layers):
        grad = layer.backward(grad)
        outputs.append(grad)
    assert [a.dtype for a in outputs] == [np.float32] * 8
    assert [a.dtype for a in (net.params, net.grads)] == [np.float32] * 2


def test_float64_rows_through_a_float32_network_give_a_float64_pass():
    rng = np.random.default_rng(18)
    net32 = Mlp([DenseLayer(4, 3, rng, np.float32), LeakyRelu(), BatchNorm(3, dtype=np.float32)])
    net64 = Mlp([DenseLayer(4, 3, rng), LeakyRelu(), BatchNorm(3)])
    net64.params[...] = net32.params
    x = rng.normal(size=(7, 4))
    np.testing.assert_array_equal(net32.forward(x), net64.forward(x))


@pytest.mark.parametrize("offset", [0.0, 3.0, 100.0])
def test_float32_batchnorm_centres_to_the_resolution_of_the_spread(offset):
    # centred by the float32 rounding of its mean alone, a feature whose mean
    # is 1 000 times its spread keeps a normalized mean of ~3e-5; subtracting
    # the float64 remainder of the mean takes it to float32 round-off
    rng = np.random.default_rng(19)
    x = (offset + rng.normal(scale=[1.0, 0.1, 3.0], size=(512, 3))).astype(np.float32)
    bn = BatchNorm(3, dtype=np.float32)
    out = bn.forward(x)
    assert out.dtype == bn._norm.dtype == np.float32
    assert bn.last_norm_mean_abs < 1e-7
    assert bn.last_norm_var_err < 1e-6
    mean = x.mean(axis=0, dtype=np.float64)
    one_pass = (x - mean.astype(np.float32)) / x.std(axis=0, dtype=np.float64).astype(np.float32)
    if offset == 100.0:
        assert np.abs(one_pass.mean(axis=0, dtype=np.float64)).max() > 1e-5


def test_backward_drops_the_dense_input_and_the_leaky_relu_mask():
    rng = np.random.default_rng(20)
    net = Mlp([DenseLayer(4, 3, rng), LeakyRelu(), BatchNorm(3)])
    x = rng.normal(size=(6, 4))
    net.forward(x)
    dense, act, bn = net.layers
    assert dense._input is x and act._mask is not None
    net.backward(rng.normal(size=(6, 3)), input_grad=False)
    assert dense._input is None and act._mask is None
    # batch norm keeps its normalized batch: the drift is read after the step
    assert bn._norm is not None and bn.last_norm_mean_abs < 1e-12
    # a forward that no backward follows drops every layer's cache on release
    net.forward(x)
    net.release()
    assert dense._input is None and act._mask is None
    assert bn._norm is None and bn._inv_std is None and bn.last_norm_mean_abs == 0.0


# sparse inputs


def sparse_rows(rng, shape, dtype, index_dtype, density=0.3):
    """CSR rows with about ``density`` of their entries stored, in ``dtype``
    with ``index_dtype`` indices."""
    x = sparse.csr_array((rng.random(shape) * (rng.random(shape) < density)).astype(dtype))
    x.indices, x.indptr = x.indices.astype(index_dtype), x.indptr.astype(index_dtype)
    return x


@pytest.mark.parametrize("dtype, index_dtype", [(np.float32, np.int32), (np.float64, np.int64)])
@pytest.mark.parametrize("in_mlp", [False, True], ids=["bare", "in-mlp"])
def test_sparse_weight_gradient_has_the_bytes_of_the_scipy_product(dtype, index_dtype, in_mlp):
    rng = np.random.default_rng(22)
    layer = DenseLayer(40, 6, rng, dtype)
    net = Mlp([layer, LeakyRelu()]) if in_mlp else None
    x = sparse_rows(rng, (9, 40), dtype, index_dtype)
    assert x.indices.dtype == index_dtype
    grad = rng.normal(size=(9, 6)).astype(dtype)
    # a previous step's gradient, which the backward writes over
    layer.grad_weights[...] = 7.0
    layer.forward(x)
    layer.backward(grad, input_grad=False)
    expected = x.T @ grad
    assert layer.grad_weights.dtype == expected.dtype == dtype
    assert layer.grad_weights.tobytes() == expected.tobytes()
    if in_mlp:
        # written through the view, into the network's gradient vector
        assert layer.grad_weights.base is net.grads
        assert net.grads[: 40 * 6].tobytes() == expected.tobytes()


@pytest.mark.parametrize("csr", [False, True])
@pytest.mark.parametrize("shape", [(8, 6), (10, 6), (9, 5), (9, 7)])
def test_weight_gradient_of_the_wrong_shape_is_refused(csr, shape):
    rng = np.random.default_rng(25)
    layer = DenseLayer(40, 6, rng, np.float32)
    x = sparse_rows(rng, (9, 40), np.float32, np.int32)
    layer.forward(x if csr else x.toarray())
    with pytest.raises(ValueError):
        layer.backward(np.ones(shape, np.float32), input_grad=False)


def test_float64_rows_into_a_float32_layer_sum_their_rounded_weight_gradient():
    # the float64 pass of float64 rows gives a float64 gradient; both are
    # rounded to float32 and the products summed in float32
    rng = np.random.default_rng(23)
    layer = DenseLayer(40, 6, rng, np.float32)
    x = sparse_rows(rng, (9, 40), np.float64, np.int32)
    grad = rng.normal(size=(9, 6))
    layer.forward(x)
    layer.backward(grad, input_grad=False)
    rounded = x.astype(np.float32).T @ grad.astype(np.float32)
    assert layer.grad_weights.tobytes() == rounded.tobytes()
    np.testing.assert_allclose(layer.grad_weights, x.T @ grad, rtol=0, atol=1e-5)


def test_sparse_weight_gradient_allocates_less_than_a_weight_gradient():
    # 34 x 20 000 rows, all stored, at dim 128: a product made and copied in
    # would allocate the 10.24 MB gradient
    rng = np.random.default_rng(24)
    layer = DenseLayer(20_000, 128, rng, np.float32)
    x = sparse_rows(rng, (34, 20_000), np.float32, np.int32, density=1.0)
    grad = rng.normal(size=(34, 128)).astype(np.float32)
    layer.forward(x)
    layer.backward(grad, input_grad=False)
    layer.forward(x)
    tracemalloc.start()
    try:
        layer.backward(grad, input_grad=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000 * 128 * 4


# flat parameter vectors


def assert_layers_view_the_vectors(net):
    """Every layer's parameter and gradient array is a C-contiguous view of
    ``net.params`` or ``net.grads``, and the views tile the vectors in layer
    and ``PARAMS`` order."""
    for vector, prefix in ((net.params, ""), (net.grads, "grad_")):
        arrays = [getattr(layer, prefix + name) for layer in net.layers for name in layer.PARAMS]
        assert all(a.base is vector and a.flags.c_contiguous for a in arrays)
        saved = vector.copy()
        vector[...] = np.arange(vector.size)
        np.testing.assert_array_equal(np.concatenate([a.ravel() for a in arrays]), vector)
        vector[...] = saved


@pytest.mark.parametrize("csr", [False, True])
def test_layers_stay_views_of_the_vectors_through_backward_and_a_step(csr):
    rng = np.random.default_rng(21)
    net = Mlp([DenseLayer(12, 6, rng), LeakyRelu(), BatchNorm(6), DenseLayer(6, 2, rng)])
    assert net.params.size == net.grads.size == 12 * 6 + 6 + 6 + 6 + 6 * 2 + 2
    assert_layers_view_the_vectors(net)
    x = rng.random((9, 12)) * (rng.random((9, 12)) < 0.3)
    net.forward(sparse.csr_array(x) if csr else x)
    assert_layers_view_the_vectors(net)
    grad = rng.normal(size=(9, 2))
    net.backward(grad, input_grad=False)
    assert_layers_view_the_vectors(net)
    # the backward wrote into the gradient vector
    np.testing.assert_array_equal(net.grads[-2:], grad.sum(axis=0))
    assert np.count_nonzero(net.grads) > net.grads.size // 2
    before = net.params.copy()
    RmsProp([net], lr=0.01).step()
    assert_layers_view_the_vectors(net)
    assert not np.array_equal(net.params, before)


def test_a_network_without_parameters_has_empty_vectors():
    net = Mlp([LeakyRelu()])
    assert net.params.shape == net.grads.shape == (0,)
    RmsProp([net]).step()


# optimizer


def vector(values):
    """A stand-in network: RmsProp reads only ``params`` and ``grads``."""
    values = np.asarray(values, dtype=np.float64)
    return SimpleNamespace(params=values, grads=np.zeros_like(values))


def test_rmsprop_zero_gradient_keeps_params():
    net = vector([1.0, -2.0])
    RmsProp([net]).step()
    np.testing.assert_array_equal(net.params, [1.0, -2.0])


def test_rmsprop_single_step_algebra():
    g = 0.7
    lr, rho, eps = 0.001, nn.RMS_RHO, nn.RMS_EPS
    assert (rho, eps) == (0.9, 1e-8)
    net = vector([0.0])
    net.grads[0] = g
    RmsProp([net], lr=lr).step()
    expected = -lr * g / np.sqrt((1 - rho) * g * g + eps)
    assert net.params[0] == pytest.approx(expected, rel=1e-12)


def test_rmsprop_constant_gradient_update_approaches_lr():
    net = vector([0.0])
    opt = RmsProp([net], lr=0.001)
    net.grads[0] = 2.5
    for _ in range(400):
        prev = net.params.copy()
        opt.step()
    assert abs(abs((net.params - prev)[0]) - 0.001) < 0.01 * 0.001


def test_rmsprop_rejects_nonfinite_gradient():
    net = vector([0.0, 0.0])
    net.grads[1] = np.nan
    with pytest.raises(GradientError):
        RmsProp([net]).step()


def test_rmsprop_slices_bit_equal_to_whole_array_step():
    # 128 x 2 708 spans 11 slices of STEP_SLICE elements and a partial one
    rng = np.random.default_rng(13)
    net = vector(rng.standard_normal(128 * 2708))
    want, acc = net.params.copy(), np.zeros_like(net.params)
    opt = RmsProp([net], lr=0.01)
    assert net.params.size > 10 * nn.STEP_SLICE
    for _ in range(5):
        g = rng.standard_normal(net.params.shape)
        net.grads[...] = g
        opt.step()
        acc *= nn.RMS_RHO
        acc += (1.0 - nn.RMS_RHO) * g * g
        want -= opt.lr * g / np.sqrt(acc + nn.RMS_EPS)
    np.testing.assert_array_equal(net.params, want)
    np.testing.assert_array_equal(opt.acc[0], acc)


def test_rmsprop_non_finite_gradient_leaves_parameter_untouched():
    rng = np.random.default_rng(14)
    net = vector(rng.standard_normal(3 * nn.STEP_SLICE))
    opt = RmsProp([net])
    net.grads[...] = rng.standard_normal(net.params.shape)
    opt.step()
    before, acc_before = net.params.copy(), opt.acc[0].copy()
    net.grads[...] = rng.standard_normal(net.params.shape)
    net.grads[-1] = np.inf  # in the last slice: no earlier slice may be updated
    with pytest.raises(GradientError):
        opt.step()
    np.testing.assert_array_equal(net.params, before)
    np.testing.assert_array_equal(opt.acc[0], acc_before)


def test_non_finite_last_bias_gradient_leaves_every_network_untouched():
    rng = np.random.default_rng(22)
    nets = [
        Mlp([DenseLayer(5, 4, rng), LeakyRelu(), BatchNorm(4), DenseLayer(4, 3, rng)])
        for _ in range(2)
    ]
    opt = RmsProp(nets, lr=0.01)
    x = rng.normal(size=(6, 5))
    for net in nets:
        net.forward(x)
        net.backward(rng.normal(size=(6, 3)))
    opt.step()
    before = [net.params.copy() for net in nets] + [a.copy() for a in opt.acc]
    for net in nets:
        net.forward(x)
        net.backward(rng.normal(size=(6, 3)))
    nets[-1].layers[-1].grad_bias[-1] = np.nan
    with pytest.raises(GradientError):
        opt.step()
    after = [net.params for net in nets] + opt.acc
    for a, b in zip(before, after):
        np.testing.assert_array_equal(a, b)


# clipping


def test_clip_global_norm_scales_down():
    g = np.array([3.0, 0.0, 0.0, 4.0])
    total = clip_global_norm(g, max_norm=1.0)
    assert total == pytest.approx(5.0)
    np.testing.assert_allclose(g, [0.6, 0.0, 0.0, 0.8], rtol=1e-15)
    assert np.sqrt((g**2).sum()) == pytest.approx(1.0)


def test_clip_global_norm_noop_below_threshold():
    g = np.array([0.3, 0.4])
    total = clip_global_norm(g, max_norm=1.0)
    assert total == pytest.approx(0.5)
    np.testing.assert_array_equal(g, [0.3, 0.4])


def test_clip_global_norm_of_a_float32_network_matches_the_per_array_float64_norm():
    # one float32 dot over the vector; the reference sums each array in float64
    rng = np.random.default_rng(23)
    net = Mlp([DenseLayer(128, 512, rng, np.float32), LeakyRelu(),
               BatchNorm(512, dtype=np.float32), DenseLayer(512, 1, rng, np.float32)])
    net.grads[...] = rng.standard_normal(net.grads.size)
    want = np.sqrt(sum(float((getattr(layer, f"grad_{name}").astype(np.float64) ** 2).sum())
                       for layer in net.layers for name in layer.PARAMS))
    rel = 64 * np.finfo(np.float32).eps
    assert clip_global_norm(net.grads, max_norm=1.0) == pytest.approx(want, rel=rel)
    assert np.linalg.norm(net.grads.astype(np.float64)) == pytest.approx(1.0, rel=rel)
