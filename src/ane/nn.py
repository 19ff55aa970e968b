"""Minimal dense-network kernel with hand-written backpropagation.

Each layer is built in one floating dtype (``dtype``, float64 by default)
and computes in its input's dtype: a float32 network fed float32 rows
computes its products, activations and gradients in float32. Only batch
norm's statistics are summed in float64 whatever the dtype.

The batch is axis ``-2``: a dense ``(k, b, d)`` stack runs as ``k`` batches,
each batch-normalized by its own statistics, with one sum of their gradients.
Layers follow one protocol: ``forward(x)`` caches whatever the matching
``backward(grad, input_grad, param_grads)`` needs, and ``backward`` writes
the gradient of each parameter named in ``PARAMS`` into its ``grad_<name>``
array (skipped when ``param_grads=False``, for a network whose parameters
the step does not update) and returns the gradient with respect to the
layer input, or ``None`` when ``input_grad=False`` (for networks whose input
is a constant, such as feature rows, so nothing reads that gradient).
:func:`logistic_loss` is the one cross-entropy of training: the skip-gram
scores and the discriminator logits both go through it.
An :class:`Mlp` owns one parameter vector and one gradient vector, of which
its layers' arrays are views; clipping and RMSProp work on the vectors.
A network's input may be a scipy sparse array, such as CSR feature rows: the
first ``DenseLayer`` takes it through scipy's sparse-times-dense products,
which read its C-contiguous ``(in_dim, out_dim)`` weights without a copy.
Optimizer state lives outside the networks so several objectives can update
the same parameters independently.
:func:`one_blas_thread` runs a block on one thread of the OpenBLAS that
numpy loaded: a threaded OpenBLAS kernel may round a product differently
from its one-thread kernel, so training pins the count to keep its bytes.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools


class GradientError(RuntimeError):
    """Non-finite gradient encountered; training must abort."""


def sigmoid(x):
    """Logistic function, overflow-safe for arguments of any magnitude:
    ``1 / (1 + e)`` for x >= 0 and ``e / (1 + e)`` below, ``e = exp(-|x|)``."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def log_sigmoid(x):
    """log(sigmoid(x)) computed as -softplus(-x); never overflows."""
    x = np.asarray(x, dtype=np.float64)
    return np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))


def logistic_loss(logits, label):
    """Binary cross-entropy of ``logits`` against one label, 1 or 0.

    Returns the float64 sum of ``-log_sigmoid(logits)`` (label 1) or
    ``-log_sigmoid(-logits)`` (label 0), and the float64 gradient of each
    term in its logit, ``sigmoid(logits) - label``. Both are exact at any
    magnitude: nothing is clamped, so a confidently wrong logit keeps its
    full gradient of -1 or 1.
    """
    loss = -log_sigmoid(logits if label else -logits).sum()
    grad = sigmoid(logits)
    grad -= label
    return loss, grad


class DenseLayer:
    """Affine map x -> x W + b with C-contiguous weights of shape (in_dim, out_dim).

    ``x`` is a dense array or a scipy sparse array. Forward is ``x @ W``,
    the weight gradient ``x.T @ grad``, summed straight into ``grad_weights``
    in its dtype for a sparse ``x`` (float64 operands are rounded first),
    and the input gradient ``grad @ W.T``; scipy's sparse products read the
    C-contiguous ``W`` and ``grad`` in place. The weights are the Glorot draw
    ``rng.uniform(-limit, limit, (out_dim, in_dim)).T``, ``limit = sqrt(6 /
    (in_dim + out_dim))``, taken ``max(1, STEP_SLICE // in_dim)`` rows at a
    time straight into ``dtype``. ``backward`` drops the cached input, so a
    batch's feature rows do not outlive its step.
    """

    PARAMS = ("weights", "bias")
    CACHE = ("_input",)

    def __init__(self, in_dim, out_dim, rng, dtype=np.float64):
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        self.weights = np.empty((in_dim, out_dim), dtype=dtype)
        rows = max(1, STEP_SLICE // max(in_dim, 1))
        for start in range(0, out_dim, rows):
            cols = self.weights[:, start : start + rows]
            cols[...] = rng.uniform(-limit, limit, size=cols.shape[::-1]).T
        self.bias = np.zeros(out_dim, dtype=dtype)
        # np.zeros, unlike zeros_like, leaves the pages untouched until first written
        self.grad_weights = np.zeros(self.weights.shape, dtype)
        self.grad_bias = np.zeros_like(self.bias)
        self._input = None

    def forward(self, x):
        if x.shape[-1] != self.weights.shape[0]:
            raise ValueError(
                f"input dim {x.shape[-1]} does not match layer in_dim {self.weights.shape[0]}"
            )
        self._input = x
        out = x @ self.weights
        out += self.bias
        return out

    def backward(self, grad, input_grad=True, param_grads=True):
        if param_grads:
            x = self._input
            grad_rows = grad.reshape(-1, grad.shape[-1])
            if sparse.issparse(x):
                # the kernel scipy runs for x.T @ grad (a CSR x is the CSC of
                # x.T), summed straight into the zeroed gradient; it trusts
                # the sizes it is given, so they are checked first
                x, g = x.tocsr(), np.ascontiguousarray(grad_rows, self.grad_weights.dtype)
                if g.shape != (x.shape[0], self.grad_weights.shape[1]):
                    raise ValueError(f"gradient shape {g.shape} does not match the layer output")
                self.grad_weights[...] = 0
                _sparsetools.csc_matvecs(*x.shape[::-1], g.shape[1], x.indptr, x.indices,
                                         x.data.astype(g.dtype, copy=False), g, self.grad_weights)
            else:
                np.matmul(x.reshape(-1, x.shape[-1]).T, grad_rows, out=self.grad_weights)
            grad_rows.sum(axis=0, out=self.grad_bias)
        self._input = None
        return grad @ self.weights.T if input_grad else None


# LeakyRelu's slope below zero, RmsProp's decay and denominator guard, and
# BatchNorm's variance guard (see each class)
LEAKY_SLOPE = 0.2
RMS_RHO = 0.9
RMS_EPS = 1e-8
BN_EPS = 1e-12


class LeakyRelu:
    """y = x for x > 0 else ``LEAKY_SLOPE`` * x.

    Only the boolean mask ``x > 0`` is cached, and ``backward`` drops it.
    Forward and backward multiply their operand by the scale ``mask * (1 -
    slope) + slope``, built in the operand's dtype with no branch per
    element. The result has the bits of the operand where the mask holds
    and of the operand times the slope elsewhere, because the scale is
    exactly 1 or the slope: ``(1 - 0.2) + 0.2 == 1`` in float64 and float32.
    """

    PARAMS = ()
    CACHE = ("_mask",)

    def __init__(self):
        self._mask = None

    def _scaled(self, v):
        out = self._mask.astype(v.dtype)
        out *= 1 - LEAKY_SLOPE
        out += LEAKY_SLOPE
        out *= v
        return out

    def forward(self, x):
        self._mask = x > 0
        return self._scaled(x)

    def backward(self, grad, input_grad=True, param_grads=True):
        out = self._scaled(grad) if input_grad else None
        self._mask = None
        return out


class BatchNorm:
    """Per-feature batch normalization with learned scale and shift.

    Every forward normalizes by the statistics of the batch it is given
    (biased variance, over axis ``-2``, so each ``(b, d)`` slice of a stack
    is its own batch), in training and at export alike; the export passes
    all N feature rows as one batch, so it normalizes by the exact
    population statistics. The backward pass differentiates through the
    batch statistics, not around them.

    The output is in the input's dtype, but the statistics are float64
    sums: the mean is taken in float64, the batch is centred by it rounded
    to the input's dtype, and the part of the mean that this rounding lost
    is subtracted once more (zero for a float64 batch). A float32 batch
    whose mean is far larger than its spread is then still centred to
    float32 resolution of the spread, not of the mean. The variance is
    summed in float64 from the centred batch.

    ``BN_EPS`` only guards the variance-zero case. It is added to the float64
    variance, so it is kept tiny in float32 networks too: normalized
    outputs have variance within ~eps/var of 1 (plus the float32 rounding
    of the normalized values, ~1e-7) even for features whose batch variance
    drops to 1e-8.

    ``last_norm_mean_abs`` and ``last_norm_var_err`` are the worst feature's
    |mean| and |var - 1| of the last forward's normalized output, over every
    batch of a stack (0 before the first forward), summed in float64. They
    are computed from the cached batch when read, so a forward pays for none
    of it.
    """

    PARAMS = ("gamma", "shift")
    CACHE = ("_norm", "_inv_std")

    def __init__(self, dim, dtype=np.float64):
        self.gamma = np.ones(dim, dtype=dtype)
        self.shift = np.zeros(dim, dtype=dtype)
        self.grad_gamma = np.zeros_like(self.gamma)
        self.grad_shift = np.zeros_like(self.shift)
        self._norm = None
        self._inv_std = None

    @property
    def last_norm_mean_abs(self):
        if self._norm is None:
            return 0.0
        return float(np.abs(self._norm.mean(axis=-2, dtype=np.float64)).max())

    @property
    def last_norm_var_err(self):
        if self._norm is None:
            return 0.0
        return float(np.abs(self._norm.var(axis=-2, dtype=np.float64) - 1.0).max())

    def forward(self, x):
        if x.shape[-2] < 2:
            raise ValueError("batch norm needs batch size >= 2")
        # for a float64 batch the arithmetic of x.var (the remainder is 0),
        # with the centred batch kept for the output
        mean = x.mean(axis=-2, dtype=np.float64, keepdims=True)
        rounded = mean.astype(x.dtype)
        norm = x - rounded
        norm -= (mean - rounded).astype(x.dtype)
        out = np.square(norm)
        var = out.sum(axis=-2, dtype=np.float64, keepdims=True)
        var /= x.shape[-2]
        inv_std = (1.0 / np.sqrt(var + BN_EPS)).astype(x.dtype)
        norm *= inv_std
        self._norm = norm
        self._inv_std = inv_std
        np.multiply(self.gamma, norm, out=out)
        out += self.shift
        return out

    def backward(self, grad, input_grad=True, param_grads=True):
        norm, inv_std = self._norm, self._inv_std
        b, d = grad.shape[-2:]
        tmp = None
        if param_grads:
            tmp = grad * norm
            tmp.reshape(-1, d).sum(axis=0, out=self.grad_gamma)
            grad.reshape(-1, d).sum(axis=0, out=self.grad_shift)
        if not input_grad:
            return None
        # (inv_std / b) * (b * dnorm - dnorm.sum(-2) - norm * (dnorm * norm).sum(-2)),
        # term by term in two temporaries
        dnorm = grad * self.gamma
        dnorm_sum = dnorm.sum(axis=-2, keepdims=True)
        tmp = np.multiply(dnorm, norm, out=tmp)
        np.multiply(norm, tmp.sum(axis=-2, keepdims=True), out=tmp)
        dnorm *= b
        dnorm -= dnorm_sum
        dnorm -= tmp
        dnorm *= inv_std / b
        return dnorm


class Mlp:
    """Ordered stack of layers sharing the forward/backward protocol.

    ``forward`` computes in its input's dtype: float32 rows through a
    float32 network stay float32, and float64 rows through it give a
    float64 pass of the float32 parameters.

    The layers' parameters are copied, in layer and ``PARAMS`` order, into
    one contiguous vector ``params`` (empty without parameters), and each
    parameter and its ``grad_<name>`` become views of ``params`` and ``grads``.
    Each layer names in ``CACHE`` what a forward keeps for its backward.
    """

    def __init__(self, layers):
        self.layers = list(layers)
        slots = [(layer, name, getattr(layer, name)) for layer in self.layers
                 for name in layer.PARAMS]
        self.params = np.concatenate([value.ravel() for *_, value in slots] or [np.empty(0)])
        self.grads = np.zeros(self.params.shape, self.params.dtype)
        start = 0
        for layer, name, value in slots:
            cut = slice(start, start + value.size)
            setattr(layer, name, self.params[cut].reshape(value.shape))
            setattr(layer, f"grad_{name}", self.grads[cut].reshape(value.shape))
            start = cut.stop

    def forward(self, x):
        out = x if sparse.issparse(x) else np.asarray(x)
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad, input_grad=True, param_grads=True):
        """Backpropagate ``grad``; the first layer skips its input gradient,
        and ``None`` is returned, when ``input_grad`` is False. With
        ``param_grads=False`` no layer computes or stores parameter
        gradients; the input gradient is unchanged."""
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad, param_grads=param_grads)
        return self.layers[0].backward(grad, input_grad=input_grad, param_grads=param_grads)

    def release(self):
        """Drop every layer's ``CACHE``, as after a forward that no backward
        follows; batch norm's drift then reads 0 until the next forward."""
        for layer in self.layers:
            for name in layer.CACHE:
                setattr(layer, name, None)


# Elements worked on at once, so the temporaries stay in the L2 cache: an
# RMSProp step's slice, about a Glorot draw's block; no value depends on it.
STEP_SLICE = 32_768


class RmsProp:
    """RMSProp over the ``params`` of a fixed list of networks, stepped by
    their ``grads`` with decay ``RMS_RHO`` and guard ``RMS_EPS``; one
    accumulator per network. Every gradient is checked to be finite before
    any parameter or accumulator moves."""

    def __init__(self, nets, lr=0.001):
        self.nets = list(nets)
        self.lr = lr
        self.acc = [np.zeros(net.params.shape, net.params.dtype) for net in self.nets]

    def step(self):
        for net in self.nets:
            if not np.isfinite(net.grads).all():
                raise GradientError(
                    f"non-finite gradient in a network of {net.params.size} parameters; aborting"
                )
        for net, a in zip(self.nets, self.acc):
            p, g = net.params, net.grads
            for start in range(0, p.size, STEP_SLICE):
                cut = slice(start, start + STEP_SLICE)
                ps, gs, acc = p[cut], g[cut], a[cut]
                acc *= RMS_RHO
                acc += (1.0 - RMS_RHO) * gs * gs
                ps -= self.lr * gs / np.sqrt(acc + RMS_EPS)


# argument and result types of the OpenBLAS functions :func:`_openblas` finds
OPENBLAS_SIGNATURES = {
    "get_num_threads": ([], ctypes.c_int),
    "set_num_threads": ([ctypes.c_int], None),
    "get_corename": ([], ctypes.c_char_p),
}


@functools.cache
def _openblas(name):
    """The OpenBLAS function ``name`` (a key of ``OPENBLAS_SIGNATURES``) of
    the first OpenBLAS mapped into this process that exports it, under
    numpy's ``scipy_openblas_<name>64_`` or a plain build's
    ``openblas_<name>64_`` or ``openblas_<name>``; None where none does.
    Each name is looked up once per process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = OPENBLAS_SIGNATURES[name]
                return fn
    return None


@contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread, and restore the caller's count
    when it ends, by an exception too. The count is process-wide, so another
    Python thread calling BLAS meanwhile runs on one thread as well. Without
    an OpenBLAS setter the block runs on whatever count is set."""
    get, set_threads = _openblas("get_num_threads"), _openblas("set_num_threads")
    if get is None or set_threads is None:
        yield
        return
    threads = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


def clip_global_norm(grads, max_norm):
    """Scale the gradient vector in place so its L2 norm is <= max_norm;
    returns the norm before clipping."""
    total = np.sqrt(float(np.dot(grads, grads)))
    if total > max_norm and total > 0:
        grads *= max_norm / total
    return total
