"""Finite-difference oracles shared by the gradient and Hessian tests: they
read loss values only, never the tape's backward rules."""

import numpy as np

import ldnn.autodiff as ad


def assign_flat(params, vec: np.ndarray) -> None:
    """Write a flat vector back into the parameter tensors, in order."""
    vec = np.asarray(vec, dtype=np.float64)
    offset = 0
    for p in params:
        n = p.data.size
        p.assign(vec[offset:offset + n].reshape(p.data.shape))
        offset += n
    assert offset == vec.size, f"vector has {vec.size} entries, parameters hold {offset}"


def numeric_grad(f, x, h=1e-5):
    """Central-difference gradient of a scalar function of one array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat, gflat = x.ravel(), g.ravel()
    for i in range(flat.size):
        xp, xm = flat.copy(), flat.copy()
        xp[i] += h
        xm[i] -= h
        gflat[i] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2 * h)
    return g


def dense_fd_hessian(lossfn, params, h=5e-4):
    """Brute-force Hessian from second differences of loss values; the
    parameters are restored."""
    p0 = ad.flatten_params(params)
    n = p0.size

    def loss_at(vec):
        assign_flat(params, vec)
        with ad.no_grad():
            return float(lossfn().data)

    H = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            ei, ej = np.zeros(n), np.zeros(n)
            ei[i], ej[j] = h, h
            H[i, j] = H[j, i] = (
                loss_at(p0 + ei + ej) - loss_at(p0 + ei - ej)
                - loss_at(p0 - ei + ej) + loss_at(p0 - ei - ej)) / (4 * h * h)
    assign_flat(params, p0)
    return H
