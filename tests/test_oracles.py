"""The reference code of ``oracles`` against cases whose answer is known."""

import numpy as np
import pytest

from ane.nn import DenseLayer, LeakyRelu, Mlp
from oracles import gradient_check


def test_gradient_check_flags_wrong_gradient():
    rng = np.random.default_rng(11)
    layer = DenseLayer(3, 2, rng)
    net = Mlp([layer])
    x = rng.normal(size=(4, 3))

    def broken_loss_fn():
        out = net.forward(x)
        net.backward(np.ones_like(out) / out.size)
        layer.grad_weights *= 1.5  # deliberately corrupted
        return float(out.mean())

    assert gradient_check(net, broken_loss_fn) > 0.1


def test_gradient_check_measures_small_gradients_relative_to_their_size():
    # every analytic entry is 2 % off, but each difference is below atol
    rng = np.random.default_rng(24)
    net = Mlp([DenseLayer(3, 2, rng)])
    x = rng.normal(size=(4, 3))

    def loss_fn():
        out = net.forward(x)
        net.backward(np.full_like(out, 1e-6 / out.size))
        net.grads *= 1.02
        return 1e-6 * float(out.mean())

    assert gradient_check(net, loss_fn) == pytest.approx(0.02 / 1.02, rel=1e-4)
    assert 0.02 * np.abs(net.grads).max() < 1e-7


def test_gradient_check_multi_network():
    rng = np.random.default_rng(12)
    a = Mlp([DenseLayer(3, 2, rng), LeakyRelu()])
    b = Mlp([DenseLayer(3, 2, rng), LeakyRelu()])
    x = rng.normal(size=(5, 3)) + 0.3  # keep clear of the leaky-relu kink

    def loss_fn():
        ya = a.forward(x)
        yb = b.forward(x)
        scores = (ya * yb).sum()
        a.backward(yb)
        b.backward(ya)
        return float(scores)

    assert gradient_check([a, b], loss_fn) < 1e-6
