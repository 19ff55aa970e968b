"""Reference code and shared graphs that the tests check the package against.

Nothing here runs in training, export or evaluation: each function is either
an independent way to compute what the package computes (finite-difference
gradients, the exact distribution an alias table draws from) or a graph the
tests build often.
"""

import numpy as np

from ane.datasets import dataset_paths
from ane.graph import load_edge_list, parse_edge_lines, preprocess
from ane.nn import Mlp


def ring_graph(n):
    return preprocess(parse_edge_lines([f"{i} {(i + 1) % n}" for i in range(n)]))


def load_dataset(name, weighted=False):
    """Load a named dataset as a preprocessed Graph plus its label path."""
    edges, labels = dataset_paths(name)
    graph = preprocess(load_edge_list(edges, weighted=weighted))
    return graph, labels


def outcome_probabilities(table):
    """Exact distribution implied by an ``AliasTable``, row by row."""
    start = np.repeat(table.indptr[:-1], table.count)
    p = table.prob + np.bincount(start + table.alias, 1.0 - table.prob, table.prob.size)
    return p / np.repeat(table.count, table.count)


def gradient_check(networks, loss_fn, h=1e-5, atol=1e-7):
    """Worst relative error between analytic and central-difference gradients.

    ``networks`` is one Mlp or a sequence of them; ``loss_fn()`` must return
    the scalar loss for the current parameters and leave matching analytic
    gradients on the networks (so it runs forward and backward on a fixed
    batch; batch norm normalizes by that batch, so no state carries over
    from one evaluation to the next).
    An entry whose numeric and analytic values are both below ``atol``
    counts as exact, which keeps round-off noise on true-zero gradients from
    dominating; any other adds ``|numeric - analytic| / max(|both|)``.
    """
    if isinstance(networks, Mlp):
        networks = [networks]

    loss_fn()
    analytic = [net.grads.copy() for net in networks]

    worst = 0.0
    for net, grads in zip(networks, analytic):
        params = net.params
        for k in range(params.size):
            orig = params[k]
            params[k] = orig + h
            plus = loss_fn()
            params[k] = orig - h
            minus = loss_fn()
            params[k] = orig
            numeric = (plus - minus) / (2.0 * h)
            scale = max(abs(numeric), abs(grads[k]))
            if scale >= atol:
                worst = max(worst, abs(numeric - grads[k]) / scale)
    return worst
