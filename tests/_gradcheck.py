"""Shared finite-difference oracle for gradient tests."""

import numpy as np

from seqopt.nn.autodiff import Tensor

STEP = 1e-5


def numeric_gradient(f, x, step=STEP):
    """Central finite differences of a scalar-valued f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(x)
        flat[i] = orig - step
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * step)
    return g


def rel_err(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(1.0, np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0))
    return np.abs(analytic - numeric).max(initial=0.0) / scale


def network_gradients(net, x, adjoint):
    """Reverse-mode derivatives of `net.apply` at `x`, seeded with the output
    adjoint, taken the way training takes them: (parameter grads by name,
    input grad)."""
    net.refresh()
    xt = Tensor(x)
    net.apply(xt).backward(adjoint)
    return net.params.views(net.collect_grads()), xt.grad
