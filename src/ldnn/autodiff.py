"""Tape-based reverse-mode differentiation over dense float64 tensors.

The graph is define-by-run: every operation touching a differentiable
tensor appends one node, and ``backward`` replays the nodes in reverse
creation order, clearing them afterwards so each forward pass builds a
fresh tape.  Hessian-vector products are central finite differences of
gradients, which is accurate enough for the small networks this package
trains.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager

import numpy as np


class ShapeError(ValueError):
    """An operation received tensors whose shapes it cannot combine."""


_node_counter = itertools.count()
_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


@contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation-only forward passes)."""
    prev = _grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


class Tensor:
    """Dense real-valued array; the unit of computation and differentiation.

    ``requires_grad`` marks leaf parameters.  Tensors produced by ops carry
    a reference to the tape node that created them until ``backward`` clears
    the graph.
    """

    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def assign(self, values) -> None:
        """Replace the stored values (same shape); used by optimizers and HVP probes."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != self.data.shape:
            raise ShapeError(f"assign: expected shape {self.data.shape}, got {arr.shape}")
        self.data = arr

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class TapeNode:
    """One recorded operation: parents, output, and the backward rule."""

    __slots__ = ("op", "idx", "parents", "out", "vjp", "needs")

    def __init__(self, op, parents, out, vjp, needs):
        self.op = op
        self.idx = next(_node_counter)
        self.parents = parents
        self.out = out
        self.vjp = vjp
        self.needs = needs


class GradientMap:
    """Per-parameter gradients keyed by tensor identity.

    Parameters that never reached the tape read as zero gradients rather
    than raising.
    """

    def __init__(self, grads: dict):
        self._grads = grads

    def __getitem__(self, param: Tensor) -> np.ndarray:
        g = self._grads.get(param)
        if g is None:
            return np.zeros_like(param.data)
        return g

    def __contains__(self, param: Tensor) -> bool:
        return param in self._grads

    def __len__(self) -> int:
        return len(self._grads)

    def items(self):
        return self._grads.items()


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(op: str, out_data: np.ndarray, parents: tuple, vjp) -> Tensor:
    out = Tensor(out_data)
    if _grad_enabled():
        needs = tuple(p.requires_grad or p.node is not None for p in parents)
        if any(needs):
            out.node = TapeNode(op, parents, out, vjp, needs)
    return out


# ---------------------------------------------------------------------------
# Forward kernels shared with the plain-numpy evaluation paths.

def sigmoid_values(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (no overflow for large |x|)."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def interp_values(x, grid, values) -> np.ndarray:
    """Piecewise-linear interpolation with clamped-constant extrapolation."""
    return np.interp(np.asarray(x, dtype=np.float64), grid, values)


def interp_slopes(x, grid, values) -> np.ndarray:
    """Derivative of ``interp_values`` w.r.t. ``x``: segment slope inside, 0 outside."""
    x = np.asarray(x, dtype=np.float64)
    grid = np.asarray(grid, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    seg = (values[1:] - values[:-1]) / (grid[1:] - grid[:-1])
    pos = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, len(seg) - 1)
    out = seg[pos]
    out = np.where((x < grid[0]) | (x > grid[-1]), 0.0, out)
    return out


# ---------------------------------------------------------------------------
# Operations.

def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim == 2 and bd.ndim == 2:
        if ad.shape[1] != bd.shape[0]:
            raise ShapeError(f"matmul: inner dimensions disagree, {ad.shape} vs {bd.shape}")

        def vjp(g):
            return g @ bd.T, ad.T @ g
    elif ad.ndim == 2 and bd.ndim == 1:
        if ad.shape[1] != bd.shape[0]:
            raise ShapeError(f"matmul: inner dimensions disagree, {ad.shape} vs {bd.shape}")

        def vjp(g):
            return np.outer(g, bd), ad.T @ g
    elif ad.ndim == 1 and bd.ndim == 2:
        if ad.shape[0] != bd.shape[0]:
            raise ShapeError(f"matmul: inner dimensions disagree, {ad.shape} vs {bd.shape}")

        def vjp(g):
            return bd @ g, np.outer(ad, g)
    elif ad.ndim == 1 and bd.ndim == 1:
        if ad.shape[0] != bd.shape[0]:
            raise ShapeError(f"matmul: inner dimensions disagree, {ad.shape} vs {bd.shape}")

        def vjp(g):
            return g * bd, g * ad
    else:
        raise ShapeError(f"matmul: unsupported ranks, {ad.shape} vs {bd.shape}")
    return _make("matmul", ad @ bd, (a, b), vjp)


def add(a, b) -> Tensor:
    """Elementwise addition; broadcasting is limited to scalar-with-tensor and
    per-row bias (matrix + vector over columns) so every backward rule stays
    auditable."""
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    if ad.shape == bd.shape:
        def vjp(g):
            return g, g
    elif bd.ndim == 0:
        def vjp(g):
            return g, np.asarray(g.sum())
    elif ad.ndim == 0:
        def vjp(g):
            return np.asarray(g.sum()), g
    elif ad.ndim == 2 and bd.ndim == 1 and ad.shape[1] == bd.shape[0]:
        def vjp(g):
            return g, g.sum(axis=0)
    elif ad.ndim == 1 and bd.ndim == 2 and bd.shape[1] == ad.shape[0]:
        def vjp(g):
            return g.sum(axis=0), g
    else:
        raise ShapeError(
            f"add: cannot combine shapes {ad.shape} and {bd.shape}; "
            "only equal shapes, scalar broadcast, and per-row bias are supported"
        )
    return _make("add", ad + bd, (a, b), vjp)


# Builtin scalar functions: name -> (value, derivative), both of the input.
# The unary ops, the fused activation and ``nn.BUILTINS`` all read them here.

def _sigmoid_slope(x):
    y = sigmoid_values(x)
    return y * (1.0 - y)


UNARY = {
    "zero": (np.zeros_like, lambda x: 0.0),
    "identity": (np.copy, lambda x: 1.0),
    "sigmoid": (sigmoid_values, _sigmoid_slope),
    "tanh": (np.tanh, lambda x: 1.0 - np.square(np.tanh(x))),
    "relu": (lambda x: np.maximum(x, 0.0), lambda x: (x > 0).astype(np.float64)),
    "sine": (np.sin, np.cos),
}


def _unary(op: str, x, forward, deriv) -> Tensor:
    x = as_tensor(x)
    xd = x.data

    def vjp(g):
        return (g * deriv(xd),)

    return _make(op, forward(xd), (x,), vjp)


def _builtin(name: str, x) -> Tensor:
    return _unary(name, x, *UNARY[name])


def tanh(x) -> Tensor:
    return _builtin("tanh", x)


def sigmoid(x) -> Tensor:
    return _builtin("sigmoid", x)


def relu(x) -> Tensor:
    return _builtin("relu", x)


def sine(x) -> Tensor:
    return _builtin("sine", x)


def identity(x) -> Tensor:
    return _builtin("identity", x)


def zero(x) -> Tensor:
    return _builtin("zero", x)


def square(x) -> Tensor:
    return _unary("square", x, np.square, lambda xd: 2.0 * xd)


def scale(x, c: float) -> Tensor:
    c = float(c)
    return _unary("scale", x, lambda v: c * v, lambda xd: c)


def interp(x, grid, values) -> Tensor:
    """Tabulated activation: piecewise-linear in ``x`` over a fixed grid."""
    grid = np.asarray(grid, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    return _unary("interp", x,
                  lambda v: interp_values(v, grid, values),
                  lambda xd: interp_slopes(xd, grid, values))


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    xd = x.data
    shape = tuple(int(s) for s in shape)

    def vjp(g):
        return (g.reshape(xd.shape),)

    return _make("reshape", xd.reshape(shape), (x,), vjp)


def activation_values(spec, x: np.ndarray, subnet=None):
    """One activation spec applied elementwise to an array: the forward kernel
    of ``activation``, and the plain-array path of ``nn.eval_activation``.

    ``spec`` has a ``kind``: "builtin" applies ``UNARY[spec.name]``;
    "tabulated" interpolates ``spec.values`` on ``spec.grid``; "subnet"
    adds the residual w2 . tanh(w1 a + b1) + b2 to the builtin
    ``spec.name``, with the tensors of ``subnet`` (w1, b1, w2 of length h,
    scalar b2).  Returns the values and, for a subnet, its (x.size, h)
    hidden layer, which the backward rule reads; else None.
    """
    if spec.kind == "builtin":
        return UNARY[spec.name][0](x), None
    if spec.kind == "tabulated":
        return interp_values(x, spec.grid, spec.values), None
    if spec.kind == "subnet":
        if subnet is None:
            raise ValueError("subnet activation needs its parameter block")
        hid = np.multiply.outer(x.ravel(), subnet.w1.data)
        hid += subnet.b1.data
        np.tanh(hid, out=hid)
        res = hid @ subnet.w2.data
        res += subnet.b2.data
        return UNARY[spec.name][0](x) + res.reshape(x.shape), hid
    raise ValueError(f"unknown activation kind {spec.kind!r}")


def activation(z, groups) -> Tensor:
    """Fused activation layer: each column group of the matrix ``z`` through
    its own scalar function, as one tape node.

    ``groups`` is a sequence of ``(cols, spec, subnet)``, one per activation
    type, whose ``cols`` (an index array or slice) partition the columns of
    ``z``; ``spec`` and ``subnet`` are as in ``activation_values``.  The
    backward rule is written out: with hid = tanh(w1 z + b1) and
    s = 1 - hid**2 per subnet group,
    dz = g (base'(z) + s (w1 w2)), dw2 = g'hid, db1 = w2 (g's),
    dw1 = w2 ((g z)'s) and db2 = sum(g).
    """
    z = as_tensor(z)
    zd = z.data
    if zd.ndim != 2:
        raise ShapeError(f"activation: expected a matrix, got shape {zd.shape}")
    groups = list(groups)
    cover = np.zeros(zd.shape[1], dtype=np.intp)
    for cols, _, _ in groups:
        np.add.at(cover, cols, 1)
    if not (cover == 1).all():
        raise ShapeError(f"activation: column groups do not partition {zd.shape[1]} columns")
    out = np.empty_like(zd)
    parents = [z]
    saved = []  # per subnet group: hid, w2 and w1 * w2 as of this forward pass
    for cols, spec, subnet in groups:
        y, hid = activation_values(spec, zd[:, cols], subnet)
        out[:, cols] = y
        if hid is None:
            saved.append(None)
        else:
            parents += [subnet.w1, subnet.b1, subnet.w2, subnet.b2]
            saved.append((hid, subnet.w2.data, subnet.w1.data * subnet.w2.data))

    def vjp(g):
        gz = np.empty_like(zd)
        grads = [gz]
        for (cols, spec, _), sub in zip(groups, saved):
            x, gc = zd[:, cols], g[:, cols]
            if spec.kind == "tabulated":
                gz[:, cols] = gc * interp_slopes(x, spec.grid, spec.values)
                continue
            slope = UNARY[spec.name][1](x)
            if sub is None:
                gz[:, cols] = gc * slope
                continue
            hid, w2, w1w2 = sub
            gf = gc.ravel()
            gw2 = gf @ hid
            # s = 1 - hid**2 overwrites hid: backward replays each node once.
            s = np.square(hid, out=hid)
            np.subtract(1.0, s, out=s)
            gs, gzs = np.stack([gf, gf * x.ravel()]) @ s
            gz[:, cols] = gc * (slope + (s @ w1w2).reshape(x.shape))
            grads += [w2 * gzs, w2 * gs, gw2, np.asarray(gf.sum())]
        return tuple(grads)

    return _make("activation", out, tuple(parents), vjp)


def reduce_mean(x) -> Tensor:
    x = as_tensor(x)
    xd = x.data

    def vjp(g):
        return (np.full(xd.shape, float(g) / xd.size),)

    return _make("reduce-mean", np.asarray(xd.mean()), (x,), vjp)


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Fused mean cross-entropy of softmax(logits) against integer labels.

    Uses max-subtracted log-sum-exp so large logits cannot overflow.
    """
    lg = as_tensor(logits)
    ld = lg.data
    if ld.ndim != 2:
        raise ShapeError(f"softmax-cross-entropy: logits must be a matrix, got {ld.shape}")
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != ld.shape[0]:
        raise ShapeError(
            f"softmax-cross-entropy: labels shape {labels.shape} does not match logits {ld.shape}"
        )
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("softmax-cross-entropy: labels must be integers")
    m, k = ld.shape
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"softmax-cross-entropy: label out of range [0, {k})")
    z = ld - ld.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -logp[np.arange(m), labels].mean()

    def vjp(g):
        p = np.exp(logp)
        p[np.arange(m), labels] -= 1.0
        return (float(g) / m * p,)

    return _make("softmax-cross-entropy", np.asarray(loss), (lg,), vjp)


def mse(pred, target) -> Tensor:
    """Fused mean of squared differences over all elements."""
    p, t = as_tensor(pred), as_tensor(target)
    if p.data.shape != t.data.shape:
        raise ShapeError(f"mean-squared-error: shapes {p.data.shape} vs {t.data.shape}")
    diff = p.data - t.data

    def vjp(g):
        d = (2.0 * float(g) / diff.size) * diff
        return d, -d

    return _make("mean-squared-error", np.asarray((diff * diff).mean()), (p, t), vjp)


_OPS = {
    "matmul": matmul,
    "add": add,
    "tanh": tanh,
    "sigmoid": sigmoid,
    "relu": relu,
    "sine": sine,
    "identity": identity,
    "zero": zero,
    "square": square,
    "scale": scale,
    "interp": interp,
    "reshape": reshape,
    "activation": activation,
    "reduce-mean": reduce_mean,
    "softmax-cross-entropy": softmax_cross_entropy,
    "mean-squared-error": mse,
}


def record(op: str, *inputs, **attrs) -> Tensor:
    """Apply an op-kind by name; the uniform entry point over all operations."""
    try:
        fn = _OPS[op]
    except KeyError:
        raise ValueError(f"unknown op kind: {op!r}") from None
    return fn(*inputs, **attrs)


# ---------------------------------------------------------------------------
# Reverse pass.

def backward(loss: Tensor) -> GradientMap:
    """Accumulate d(loss)/d(leaf) for every parameter on the tape.

    The loss must be scalar.  The tape is cleared afterwards, so replaying
    requires a fresh forward pass.
    """
    if not isinstance(loss, Tensor) or loss.data.ndim != 0:
        shape = getattr(getattr(loss, "data", loss), "shape", None)
        raise ValueError(f"backward expects a scalar loss tensor, got shape {shape}")
    if loss.node is None:
        return GradientMap({})

    nodes = []
    tensors = []
    seen = set()
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        tensors.append(t)
        if t.node is not None:
            nodes.append(t.node)
            stack.extend(t.node.parents)
    nodes.sort(key=lambda n: n.idx)

    adjoint = {id(loss): np.ones((), dtype=np.float64)}
    for node in reversed(nodes):
        g_out = adjoint.get(id(node.out))
        if g_out is None:
            continue
        for parent, needed, g_par in zip(node.parents, node.needs, node.vjp(g_out)):
            if not needed or g_par is None:
                continue
            prev = adjoint.get(id(parent))
            adjoint[id(parent)] = g_par if prev is None else prev + g_par

    grads = {
        t: np.asarray(adjoint[id(t)])
        for t in tensors
        if t.requires_grad and id(t) in adjoint
    }
    for t in tensors:
        t.node = None
    return GradientMap(grads)


# ---------------------------------------------------------------------------
# Parameter-vector helpers and Hessian-vector products.

def flatten_params(params) -> np.ndarray:
    """Concatenate parameter tensors into one flat vector (copy)."""
    if not params:
        return np.zeros(0)
    return np.concatenate([p.data.ravel() for p in params])


def assign_flat(params, vec: np.ndarray) -> None:
    """Write a flat vector back into the parameter tensors, in order."""
    vec = np.asarray(vec, dtype=np.float64)
    offset = 0
    for p in params:
        n = p.data.size
        p.assign(vec[offset:offset + n].reshape(p.data.shape))
        offset += n
    if offset != vec.size:
        raise ShapeError(f"assign_flat: vector has {vec.size} entries, parameters hold {offset}")


def flat_gradient(lossfn, params) -> np.ndarray:
    """Gradient of ``lossfn()`` w.r.t. ``params``, flattened in parameter order."""
    grads = backward(lossfn())
    if not params:
        return np.zeros(0)
    return np.concatenate([grads[p].ravel() for p in params])


def hessian_vector_product(lossfn, params, v) -> np.ndarray:
    """Hv as a central finite difference of gradients.

    Step size follows eps = 1e-4 * (1 + max|p|); parameters are restored
    bitwise afterwards.
    """
    params = list(params)
    v = np.asarray(v, dtype=np.float64).ravel()
    p0 = flatten_params(params)
    if v.size != p0.size:
        raise ShapeError(f"hessian_vector_product: vector length {v.size} != parameter count {p0.size}")
    if p0.size == 0:
        return np.zeros(0)
    eps = 1e-4 * (1.0 + np.abs(p0).max())
    try:
        assign_flat(params, p0 + eps * v)
        g_plus = flat_gradient(lossfn, params)
        assign_flat(params, p0 - eps * v)
        g_minus = flat_gradient(lossfn, params)
    finally:
        assign_flat(params, p0)
    return (g_plus - g_minus) / (2.0 * eps)
