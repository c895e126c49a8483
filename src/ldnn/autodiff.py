"""Tape-based reverse-mode differentiation over dense float64 tensors.

The graph is define-by-run: every operation touching a differentiable
tensor appends one node, and ``backward`` replays the nodes in reverse
creation order, clearing them afterwards so each forward pass builds a
fresh tape.  Hessian-vector products are exact: ``hvp_operator`` runs the
forward and reverse pass once and then applies Pearlmutter's R-operator
(forward-over-reverse; Pearlmutter 1994, *Neural Computation* 6(1)), for
which every node carries a tangent rule and the second-order part of its
backward rule.
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
        """Replace the stored values (same shape); used by optimizers."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != self.data.shape:
            raise ShapeError(f"assign: expected shape {self.data.shape}, got {arr.shape}")
        self.data = arr

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class TapeNode:
    """One recorded operation: parents, output, and its rules.

    ``vjp(g)`` maps the output's adjoint to one adjoint per parent.
    ``jvp(tangents)`` maps one tangent per parent (None for zero) to the
    output's tangent.  ``vjp2(g, tangents)`` is the second-order part of
    the VJP, its derivative along the parent tangents with ``g`` held
    fixed; it is None for ops linear in their inputs.
    """

    __slots__ = ("op", "idx", "parents", "out", "vjp", "jvp", "vjp2", "needs")

    def __init__(self, op, parents, out, vjp, jvp, vjp2, needs):
        self.op = op
        self.idx = next(_node_counter)
        self.parents = parents
        self.out = out
        self.vjp = vjp
        self.jvp = jvp
        self.vjp2 = vjp2
        self.needs = needs


class GradientMap:
    """Per-parameter gradients keyed by tensor identity.

    Parameters that never reached the tape, or that ``backward`` was not
    asked for, read as zero gradients rather than raising.
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


def _make(op: str, out_data: np.ndarray, parents: tuple, vjp, jvp, vjp2=None) -> Tensor:
    out = Tensor(out_data)
    if _grad_enabled():
        needs = tuple(p.requires_grad or p.node is not None for p in parents)
        if any(needs):
            out.node = TapeNode(op, parents, out, vjp, jvp, vjp2, needs)
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

def _matmul_vjp(ad, bd):
    """The backward rule of ``ad @ bd`` for each pairing of ranks 1 and 2."""
    if ad.ndim == 2 and bd.ndim == 2:
        return lambda g: (g @ bd.T, ad.T @ g)
    if ad.ndim == 2:
        return lambda g: (np.outer(g, bd), ad.T @ g)
    if bd.ndim == 2:
        return lambda g: (bd @ g, np.outer(ad, g))
    return lambda g: (g * bd, g * ad)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2):
        raise ShapeError(f"matmul: unsupported ranks, {ad.shape} vs {bd.shape}")
    if ad.shape[-1] != bd.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree, {ad.shape} vs {bd.shape}")

    def jvp(ts):
        ta, tb = ts
        if tb is None:
            return ta @ bd
        return ad @ tb if ta is None else ta @ bd + ad @ tb

    def vjp2(g, ts):
        # Bilinear: the second-order part is the backward rule with the
        # tangents in place of the inputs, (g Rb', Ra' g) for matrices.
        ta, tb = ts
        ga, gb = _matmul_vjp(ad if ta is None else ta, bd if tb is None else tb)(g)
        return (None if tb is None else ga, None if ta is None else gb)

    return _make("matmul", ad @ bd, (a, b), _matmul_vjp(ad, bd), jvp, vjp2)


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
    out = ad + bd

    def jvp(ts):
        ta, tb = ts
        t = tb if ta is None else ta if tb is None else ta + tb
        return np.broadcast_to(t, out.shape)

    return _make("add", out, (a, b), vjp, jvp)


# Builtin scalar functions: name -> (value, first, second derivative), each
# a function of the input.  The fused activation and ``nn.BUILTINS`` read
# them here.

def _sigmoid_slope(x):
    y = sigmoid_values(x)
    return y * (1.0 - y)


def _sigmoid_curvature(x):
    y = sigmoid_values(x)
    return y * (1.0 - y) * (1.0 - 2.0 * y)


def _tanh_curvature(x):
    t = np.tanh(x)
    return -2.0 * t * (1.0 - t * t)


UNARY = {
    "zero": (np.zeros_like, lambda x: 0.0, lambda x: 0.0),
    "identity": (np.copy, lambda x: 1.0, lambda x: 0.0),
    "sigmoid": (sigmoid_values, _sigmoid_slope, _sigmoid_curvature),
    "tanh": (np.tanh, lambda x: 1.0 - np.square(np.tanh(x)), _tanh_curvature),
    "relu": (lambda x: np.maximum(x, 0.0), lambda x: (x > 0).astype(np.float64), lambda x: 0.0),
    "sine": (np.sin, np.cos, lambda x: -np.sin(x)),
}


def square(x) -> Tensor:
    x = as_tensor(x)
    xd = x.data

    def vjp(g):
        return (g * (2.0 * xd),)

    def jvp(ts):
        return ts[0] * (2.0 * xd)

    def vjp2(g, ts):
        return (g * 2.0 * ts[0],)

    return _make("square", np.square(xd), (x,), vjp, jvp, vjp2)


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
        # One product [x, 1] @ [w1; b1] forms the pre-activation; tanh runs
        # in place, so the hidden layer is one C-contiguous array.
        xa = np.empty((x.size, 2))
        xa[:, 0], xa[:, 1] = x.ravel(), 1.0
        hid = xa @ np.stack([subnet.w1.data, subnet.b1.data])
        np.tanh(hid, out=hid)
        res = hid @ subnet.w2.data
        res += subnet.b2.data
        return UNARY[spec.name][0](x) + res.reshape(x.shape), hid
    raise ValueError(f"unknown activation kind {spec.kind!r}")


# Rows of a subnet group's hidden layer that the non-overwriting rules of
# ``activation`` (those of ``hvp_operator``) hold in temporaries at a time.
HVP_BLOCK_ROWS = 512


def _row_blocks(n: int, overwrite: bool) -> list:
    if overwrite:
        return [slice(None)]
    return [slice(r, r + HVP_BLOCK_ROWS) for r in range(0, n, HVP_BLOCK_ROWS)]


def _tanh_slope(hid_rows, overwrite: bool):
    """s = 1 - hid**2, written over ``hid_rows`` if ``overwrite``."""
    s = np.square(hid_rows, out=hid_rows if overwrite else None)
    return np.subtract(1.0, s, out=s)


def _slope(spec, x):
    """The first derivative of a builtin or tabulated spec at ``x``."""
    if spec.kind == "tabulated":
        return interp_slopes(x, spec.grid, spec.values)
    return UNARY[spec.name][1](x)


def _tangents(ts, params):
    """Each tangent of ``ts``, or zeros shaped like its parameter array."""
    return [np.zeros_like(p) if t is None else t for t, p in zip(ts, params)]


def activation(z, groups) -> Tensor:
    """Fused activation layer: each column group of the matrix ``z`` through
    its own scalar function, as one tape node.

    ``groups`` is a sequence of ``(cols, spec, subnet)``, one per activation
    type, whose ``cols`` (an index array or slice) partition the columns of
    ``z``; ``spec`` and ``subnet`` are as in ``activation_values``.  A
    subnet group's hidden layer hid = tanh([z, 1] @ [w1; b1]) comes from one
    (rows x 2) by (2 x h) product.  The backward rule is written out: with
    s = 1 - hid**2 per subnet group,
    dz = g (base'(z) + s (w1 w2)), dw2 = g'hid, db1 = w2 (g's),
    dw1 = w2 ((g z)'s) and db2 = sum(g).  It takes the node's ``needs``
    mask: without z, it skips the dz pass (base'(z) and s (w1 w2)); without
    a group's sub-network parents, it skips g'hid and the stacked product
    for db1 and dw1.

    The tangent and second-order rules differentiate these along tangents
    (Rz, Rw1, Rb1, Rw2, Rb2), with R(a) = Rw1 z + w1 Rz + Rb1 for the
    sub-network's pre-activation, R(hid) = s R(a) and R(s) = -2 hid R(hid).
    They, and the backward rule when ``hvp_operator`` calls it, form s,
    R(hid) and R(s) in blocks of ``HVP_BLOCK_ROWS`` rows and keep hid intact.
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
    saved = []  # per subnet group: hid, w1, w2 and w1 * w2 as of this forward pass
    for cols, spec, subnet in groups:
        y, hid = activation_values(spec, zd[:, cols], subnet)
        out[:, cols] = y
        if hid is None:
            saved.append(None)
        else:
            parents += [subnet.w1, subnet.b1, subnet.w2, subnet.b2]
            w1, w2 = subnet.w1.data, subnet.w2.data
            saved.append((hid, w1, w2, w1 * w2))

    def per_group(ts=None):
        """(cols, x, rx, spec, saved, subnet tangents) per group; rx and
        the subnet tangents, zeros where ``ts`` has None, only with ``ts``."""
        rz = None if ts is None else _tangents(ts[:1], [zd])[0]
        k = 1
        for (cols, spec, _), sub in zip(groups, saved):
            rx = None if rz is None else rz[:, cols]
            rsub = None
            if sub is not None and ts is not None:
                hw = sub[1]
                rsub = _tangents(ts[k:k + 4], [hw, hw, hw, np.zeros(())])
                k += 4
            yield cols, zd[:, cols], rx, spec, sub, rsub

    def vjp(g, needs, overwrite=True):
        # ``backward`` is a tape's last use, so s may overwrite hid there.
        # A parent that ``needs`` leaves out gets None, and the passes that
        # serve only such parents are skipped.
        gz = np.empty_like(zd) if needs[0] else None
        grads = [gz]
        for cols, x, _, spec, sub, _ in per_group():
            gc = g[:, cols]
            if sub is None:
                if gz is not None:
                    gz[:, cols] = gc * _slope(spec, x)
                continue
            want_sub = any(needs[len(grads):len(grads) + 4])
            grads += [None] * 4
            if gz is None and not want_sub:
                continue
            hid, _, w2, w1w2 = sub
            gf, xf = gc.ravel(), x.ravel()
            dzs = np.empty_like(gf)
            gw2 = gs = gzs = 0.0
            for rows in _row_blocks(len(hid), overwrite):
                h, gr = hid[rows], gf[rows]
                if want_sub:
                    gw2 = gw2 + gr @ h
                s = _tanh_slope(h, overwrite)
                if want_sub:
                    block_gs, block_gzs = np.stack([gr, gr * xf[rows]]) @ s
                    gs, gzs = gs + block_gs, gzs + block_gzs
                if gz is not None:
                    dzs[rows] = s @ w1w2
            if gz is not None:
                gz[:, cols] = gc * (_slope(spec, x) + dzs.reshape(x.shape))
            if want_sub:
                grads[-4:] = [w2 * gzs, w2 * gs, gw2, np.asarray(gf.sum())]
        return tuple(grads)

    def jvp(ts):
        ry = np.empty_like(zd)
        for cols, x, rx, spec, sub, rsub in per_group(ts):
            base = rx * _slope(spec, x)
            if sub is None:
                ry[:, cols] = base
                continue
            hid, w1, w2, w1w2 = sub
            rw1, rb1, rw2, rb2 = rsub
            xf, rxf = x.ravel(), rx.ravel()
            # R(res) = hid Rw2 + Rb2 + (s R(a)) w2, the last as s (w2 Rw1) z
            # + s (w1 w2) Rz + s (w2 Rb1).
            coef = np.stack([w2 * rw1, w1w2, w2 * rb1], axis=1)
            res = np.empty_like(xf)
            for rows in _row_blocks(len(hid), False):
                h = hid[rows]
                c = _tanh_slope(h, False) @ coef
                res[rows] = h @ rw2 + xf[rows] * c[:, 0] + rxf[rows] * c[:, 1] + c[:, 2]
            ry[:, cols] = base + (res + rb2).reshape(x.shape)
        return ry

    def vjp2(g, ts):
        gz = np.empty_like(zd)
        grads = [gz]
        for cols, x, rx, spec, sub, rsub in per_group(ts):
            if spec.kind == "tabulated":  # piecewise linear: no second-order term
                gz[:, cols] = 0.0
                continue
            gc = g[:, cols]
            curvature = UNARY[spec.name][2](x) * rx
            if sub is None:
                gz[:, cols] = gc * curvature
                continue
            hid, w1, w2, w1w2 = sub
            rw1, rb1, rw2, _ = rsub
            gf, xf, rxf = gc.ravel(), x.ravel(), rx.ravel()
            a_coef = np.stack([rw1, w1, rb1])
            s_coef = w1 * rw2 + rw1 * w2
            rdz = np.empty_like(gf)
            g_s = g_rs = g_rhid = 0.0
            for rows in _row_blocks(len(hid), False):
                h, gr, xr, rxr = hid[rows], gf[rows], xf[rows], rxf[rows]
                s = _tanh_slope(h, False)
                lhs = np.stack([gr, gr * xr, gr * rxr])
                g_s = g_s + lhs @ s
                rdz[rows] = s @ s_coef
                r = np.stack([xr, rxr, np.ones_like(xr)], axis=1) @ a_coef
                r *= s  # R(hid)
                g_rhid = g_rhid + gr @ r
                r *= h
                r *= -2.0  # R(s)
                g_rs = g_rs + lhs[:2] @ r
                rdz[rows] += r @ w1w2
            # g_s = (g's, (g z)'s, (g Rz)'s); g_rs = (g'R(s), (g z)'R(s)).
            gz[:, cols] = gc * (curvature + rdz.reshape(x.shape))
            grads += [rw2 * g_s[1] + w2 * (g_s[2] + g_rs[1]),
                      rw2 * g_s[0] + w2 * g_rs[0], g_rhid, None]
        return tuple(grads)

    return _make("activation", out, tuple(parents), vjp, jvp, vjp2)


def reduce_mean(x) -> Tensor:
    x = as_tensor(x)
    xd = x.data

    def vjp(g):
        return (np.full(xd.shape, float(g) / xd.size),)

    def jvp(ts):
        return np.asarray(ts[0].mean())

    return _make("reduce-mean", np.asarray(xd.mean()), (x,), vjp, jvp)


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

    def dlogits():
        """m times the loss's gradient: softmax minus the one-hot labels."""
        p = np.exp(logp)
        p[np.arange(m), labels] -= 1.0
        return p

    def vjp(g):
        return (float(g) / m * dlogits(),)

    def jvp(ts):
        return np.asarray((dlogits() * ts[0]).sum() / m)

    def vjp2(g, ts):
        # The softmax's Jacobian, diag(p) - p p', applied row by row.
        p, t = np.exp(logp), ts[0]
        return (float(g) / m * p * (t - (p * t).sum(axis=1, keepdims=True)),)

    return _make("softmax-cross-entropy", np.asarray(loss), (lg,), vjp, jvp, vjp2)


def mse(pred, target) -> Tensor:
    """Fused mean of squared differences over all elements."""
    p, t = as_tensor(pred), as_tensor(target)
    if p.data.shape != t.data.shape:
        raise ShapeError(f"mean-squared-error: shapes {p.data.shape} vs {t.data.shape}")
    diff = p.data - t.data

    def vjp(g):
        d = (2.0 * float(g) / diff.size) * diff
        return d, -d

    def rdiff(ts):
        tp, tt = ts
        return -tt if tp is None else tp if tt is None else tp - tt

    def jvp(ts):
        return np.asarray((2.0 / diff.size) * (diff * rdiff(ts)).sum())

    def vjp2(g, ts):
        d = (2.0 * float(g) / diff.size) * rdiff(ts)
        return d, -d

    return _make("mean-squared-error", np.asarray((diff * diff).mean()), (p, t), vjp, jvp, vjp2)


# ---------------------------------------------------------------------------
# Reverse pass.

def _check_loss(loss) -> None:
    if not isinstance(loss, Tensor) or loss.data.ndim != 0:
        shape = getattr(getattr(loss, "data", loss), "shape", None)
        raise ValueError(f"expected a scalar loss tensor, got shape {shape}")


def _detach_tape(loss: Tensor) -> list:
    """The nodes behind ``loss`` in creation order.  The tape is cleared
    from its tensors, so only the returned nodes still reach it."""
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
    for t in tensors:
        t.node = None
    return nodes


def _accumulate(adjoint: dict, node: TapeNode, grads) -> None:
    """Add a rule's per-parent results into ``adjoint`` (keyed by tensor id)."""
    for parent, needed, g_par in zip(node.parents, node.needs, grads):
        if not needed or g_par is None:
            continue
        prev = adjoint.get(id(parent))
        adjoint[id(parent)] = g_par if prev is None else prev + g_par


def _adjoints(loss: Tensor, nodes, vjp) -> dict:
    """Reverse pass: the adjoint of every tensor on the tape, by id, with
    ``vjp(node, g)`` applying each node's backward rule."""
    adjoint = {id(loss): np.ones((), dtype=np.float64)}
    for node in reversed(nodes):
        g_out = adjoint.get(id(node.out))
        if g_out is not None:
            _accumulate(adjoint, node, vjp(node, g_out))
    return adjoint


def _restrict(nodes, wrt) -> list:
    """The nodes of ``nodes`` (in creation order) that lead to a tensor of
    ``wrt``, each with its ``needs`` narrowed to the parents that are in
    ``wrt`` or lead to it."""
    reach = {id(t) for t in wrt}
    kept = []
    for node in nodes:
        node.needs = tuple(n and id(p) in reach for p, n in zip(node.parents, node.needs))
        if any(node.needs):
            reach.add(id(node.out))
            kept.append(node)
    return kept


def _vjp(node: TapeNode, g, overwrite=True):
    """The node's VJP.  The fused activation's rule computes only the
    adjoints its ``needs`` marks and, with ``overwrite``, writes s over its
    saved hidden layer."""
    if node.op == "activation":
        return node.vjp(g, node.needs, overwrite)
    return node.vjp(g)


def _keep_vjp(node: TapeNode, g):
    """The node's VJP, leaving the tape as it found it."""
    return _vjp(node, g, overwrite=False)


def backward(loss: Tensor, wrt=None) -> GradientMap:
    """Accumulate d(loss)/d(leaf) for every parameter on the tape, or with
    ``wrt`` for the parameters in ``wrt`` only.  Then a node runs only if
    it leads to a tensor of ``wrt``, and computes only the adjoints on
    such paths.

    The loss must be scalar.  The tape is cleared afterwards, so replaying
    requires a fresh forward pass.
    """
    _check_loss(loss)
    if loss.node is None:
        return GradientMap({})
    nodes = _detach_tape(loss)
    if wrt is not None:
        nodes = _restrict(nodes, wrt)
    adjoint = _adjoints(loss, nodes, _vjp)
    leaves = [p for node in nodes for p in node.parents if p.requires_grad]
    return GradientMap({t: np.asarray(adjoint[id(t)]) for t in leaves if id(t) in adjoint})


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


def hvp_operator(lossfn, params):
    """Linearize ``lossfn()`` at the current parameters; return v -> Hv.

    One forward and one reverse pass run here, and the operator keeps
    their tape and adjoints.  Each application is one tangent-forward pass
    (R of every node output along v) and one R-reverse pass: the adjoint
    of a parent gains vjp(R g) + vjp2(g, tangents) per node, g the node's
    kept adjoint.  Hv is exact wherever the loss is twice differentiable;
    the parameters are never perturbed.
    """
    params = list(params)
    sizes = [p.data.size for p in params]
    loss = lossfn()
    _check_loss(loss)
    nodes = [] if loss.node is None else _detach_tape(loss)
    adjoint = _adjoints(loss, nodes, _keep_vjp)

    def apply(v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64).ravel()
        if v.size != sum(sizes):
            raise ShapeError(f"hvp_operator: vector length {v.size} "
                             f"!= parameter count {sum(sizes)}")
        tangent = {}
        for p, part in zip(params, np.split(v, np.cumsum(sizes)[:-1])):
            tangent[id(p)] = part.reshape(p.data.shape)
        for node in nodes[:-1]:  # nothing reads the loss's own tangent
            ts = tuple(tangent.get(id(p)) for p in node.parents)
            if any(t is not None for t in ts):
                tangent[id(node.out)] = node.jvp(ts)
        r_adjoint = {}
        for node in reversed(nodes):
            # Every consumer of this output has run: drop its tangent.
            tangent.pop(id(node.out), None)
            g_out = adjoint.get(id(node.out))
            if g_out is None:
                continue
            rg = r_adjoint.pop(id(node.out), None)
            if rg is not None:
                _accumulate(r_adjoint, node, _keep_vjp(node, rg))
            ts = tuple(tangent.get(id(p)) for p in node.parents)
            if node.vjp2 is not None and any(t is not None for t in ts):
                _accumulate(r_adjoint, node, node.vjp2(g_out, ts))
        if not params:
            return np.zeros(0)
        return np.concatenate([np.ravel(r_adjoint.get(id(p), np.zeros(p.data.shape)))
                               for p in params])

    return apply


def hessian_vector_product(lossfn, params, v) -> np.ndarray:
    """Exact Hv at the current parameters: ``hvp_operator(lossfn, params)(v)``."""
    return hvp_operator(lossfn, params)(v)
