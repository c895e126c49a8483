"""Tape-based reverse-mode differentiation over dense float64 tensors.

The graph is define-by-run: every operation touching a differentiable
tensor appends one node, and ``backward`` replays the nodes in reverse
creation order, clearing them afterwards so each forward pass builds a
fresh tape.  Hessian-vector products are exact: ``hvp_operator`` runs the
forward and reverse pass once and then applies Pearlmutter's R-operator
(forward-over-reverse; Pearlmutter 1994, *Neural Computation* 6(1)), for
which every node carries a tangent rule and, unless it is linear in its
inputs, one R-reverse rule: R of its backward rule, in one call.
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

    Every node's rules follow one contract.  ``vjp(g, needs, overwrite)``
    maps the output's adjoint to one adjoint per parent.
    ``jvp(tangents)`` maps one tangent per parent (None for zero) to the
    output's tangent.  ``rvjp(g, rg, tangents, needs)`` maps the output's
    adjoint, its R-adjoint ``rg`` (None for zero) and the parent tangents
    to R of each parent's adjoint: vjp(rg) plus the derivative of vjp(g)
    along the tangents, summed in place.  It is None for ops linear in
    their inputs, whose R-adjoints are vjp(rg).  The reverse rules may give
    None for a parent that the ``needs`` mask leaves out, and with
    ``overwrite`` (the tape's last use) ``vjp`` may write over what the
    forward pass saved.
    """

    __slots__ = ("op", "idx", "parents", "out", "vjp", "jvp", "rvjp", "needs")

    def __init__(self, op, parents, out, vjp, jvp, rvjp, needs):
        self.op = op
        self.idx = next(_node_counter)
        self.parents = parents
        self.out = out
        self.vjp = vjp
        self.jvp = jvp
        self.rvjp = rvjp
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


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(op: str, out_data: np.ndarray, parents: tuple, vjp, jvp, rvjp=None) -> Tensor:
    out = Tensor(out_data)
    if _grad_enabled():
        needs = tuple(p.requires_grad or p.node is not None for p in parents)
        if any(needs):
            out.node = TapeNode(op, parents, out, vjp, jvp, rvjp, needs)
    return out


def _plus(first, second) -> tuple:
    """Per parent, ``first`` + ``second`` summed into ``first``; None is zero."""
    return tuple(b if a is None else a if b is None else np.add(a, b, out=a)
                 for a, b in zip(first, second))


def _r_rule(vjp, second):
    """The R-reverse rule vjp(rg) + ``second(g, tangents, needs)``."""
    return lambda g, rg, ts, needs: (second(g, ts, needs) if rg is None else
                                     _plus(vjp(rg, needs, False), second(g, ts, needs)))


# ---------------------------------------------------------------------------
# Forward kernels shared with the plain-numpy evaluation paths.

def sigmoid_values(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (no overflow for large |x|)."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def interp_slopes(x, grid, seg) -> np.ndarray:
    """Derivative of ``np.interp`` w.r.t. ``x``: segment slope inside, 0
    outside, for the segment slopes ``seg`` (np.diff(values) / np.diff(grid))
    of the table on ``grid``."""
    x = np.asarray(x, dtype=np.float64)
    grid = np.asarray(grid, dtype=np.float64)
    pos = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, len(seg) - 1)
    out = seg[pos]
    out = np.where((x < grid[0]) | (x > grid[-1]), 0.0, out)
    return out


# ---------------------------------------------------------------------------
# Operations.

def _matmul_vjp(ra: int, rb: int, g, a, b, needs):
    """The backward rule of ``a @ b`` for operands of ranks ``ra`` and
    ``rb`` (1 or 2): (g b', a' g) with a rank-1 ``a`` as a row and a
    rank-1 ``b`` as a column.  ``g``, ``a`` and ``b`` may carry leading
    tangent axes, which ``matmul`` broadcasts; an adjoint that ``needs``
    leaves out is None."""
    a2 = a if ra == 2 else a[..., None, :]
    b2 = b if rb == 2 else b[..., None]
    g2 = g if rb == 2 else g[..., None]
    g2 = g2 if ra == 2 else g2[..., None, :]
    ga = gb = None
    if needs[0]:
        ga = g2 @ b2.swapaxes(-1, -2)
        ga = ga if ra == 2 else ga[..., 0, :]
    if needs[1]:
        gb = a2.swapaxes(-1, -2) @ g2
        gb = gb if rb == 2 else gb[..., 0]
    return ga, gb


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    ra, rb = ad.ndim, bd.ndim
    if ra not in (1, 2) or rb not in (1, 2):
        raise ShapeError(f"matmul: unsupported ranks, {ad.shape} vs {bd.shape}")
    if ad.shape[-1] != bd.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree, {ad.shape} vs {bd.shape}")

    def vjp(g, needs, _overwrite):
        return _matmul_vjp(ra, rb, g, ad, bd, needs)

    def jvp(ts):
        ta, tb = ts
        out = None if ta is None else ta @ bd
        if tb is not None:
            rb_term = ad @ tb if rb == 2 else tb @ ad.T
            out = rb_term if out is None else out + rb_term
        return out

    def second(g, ts, needs):
        # Bilinear: the second-order part is the backward rule with the
        # tangents in place of the inputs, (g Rb', Ra' g) for matrices.
        ta, tb = ts
        return _matmul_vjp(ra, rb, g, ad if ta is None else ta, bd if tb is None else tb,
                           (needs[0] and tb is not None, needs[1] and ta is not None))

    return _make("matmul", ad @ bd, (a, b), vjp, jvp, _r_rule(vjp, second))


def add(a, b) -> Tensor:
    """Elementwise addition; broadcasting is limited to scalar-with-tensor and
    per-row bias (matrix + vector over columns) so every backward rule stays
    auditable."""
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    if not (ad.shape == bd.shape or ad.ndim == 0 or bd.ndim == 0
            or (ad.ndim == 2 and bd.ndim == 1 and ad.shape[1] == bd.shape[0])
            or (ad.ndim == 1 and bd.ndim == 2 and bd.shape[1] == ad.shape[0])):
        raise ShapeError(
            f"add: cannot combine shapes {ad.shape} and {bd.shape}; "
            "only equal shapes, scalar broadcast, and per-row bias are supported"
        )
    out = ad + bd
    # The trailing axes of the output that each operand was broadcast over;
    # anything before them is a tangent axis.
    spread = [tuple(range(-out.ndim, -x.ndim)) if x.ndim < out.ndim else () for x in (ad, bd)]

    def vjp(g, _needs, _overwrite):
        return tuple(np.asarray(g.sum(axis=axes)) if axes else g for axes in spread)

    def jvp(ts):
        lead = ()
        t = None
        for tx, x in zip(ts, (ad, bd)):
            if tx is not None:
                lead = tx.shape[:tx.ndim - x.ndim]
                tx = tx.reshape(lead + (1,) * (out.ndim - x.ndim) + x.shape)
                t = tx if t is None else t + tx
        return np.broadcast_to(t, lead + out.shape)

    return _make("add", out, (a, b), vjp, jvp)


# Builtin scalar functions: name -> (value, first, second derivative), each
# a function of the input.  The fused activation and ``nn.ActivationSpec``
# read them here.

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

    def vjp(g, _needs, _overwrite):
        return (g * (2.0 * xd),)

    def jvp(ts):
        return ts[0] * (2.0 * xd)

    def second(g, ts, _needs):
        return (g * 2.0 * ts[0],)

    return _make("square", np.square(xd), (x,), vjp, jvp, _r_rule(vjp, second))


def activation_values(spec, x: np.ndarray, subnet=None):
    """One activation spec applied elementwise to an array: the forward kernel
    of ``activation``, and the plain-array path of ``nn.eval_activation``.

    ``spec`` has a ``kind``: "builtin" applies ``UNARY[spec.name]``;
    "tabulated" interpolates the values of ``spec.table`` (grid, values,
    segment slopes) on its grid; "subnet"
    adds the residual w2 . tanh(w1 a + b1) + b2 to the builtin
    ``spec.name``, with the tensors of ``subnet`` (w1, b1, w2 of length h,
    scalar b2).  Returns the values and, for a subnet, its (x.size, h)
    hidden layer, which the backward rule reads; else None.
    """
    if spec.kind == "builtin":
        return UNARY[spec.name][0](x), None
    if spec.kind == "tabulated":
        grid, values, _ = spec.table
        return np.interp(x, grid, values), None
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
        grid, _, seg = spec.table
        return interp_slopes(x, grid, seg)
    return UNARY[spec.name][1](x)


def _curvature(spec, x):
    """base''(x) of a builtin spec; None for a tabulated (piecewise linear) one."""
    return None if spec.kind == "tabulated" else UNARY[spec.name][2](x)


def _columns(a, cols):
    """``a[..., cols]``: a view for a slice, else a C-contiguous gather, so
    that a slice of every column, and any index array, flattens without a
    copy."""
    return a[..., cols] if isinstance(cols, slice) else np.take(a, cols, axis=-1)


def _tangents(ts, shapes, lead):
    """Each tangent of ``ts``, or zeros of shape ``lead`` + its ``shapes`` entry."""
    return [np.zeros(lead + shape) if t is None else t for t, shape in zip(ts, shapes)]


def activation(z, groups) -> Tensor:
    """Fused activation layer: each column group of the matrix ``z`` through
    its own scalar function, as one tape node.

    ``groups`` is a sequence of ``(cols, spec, subnet)``, one per activation
    type, whose ``cols`` (an index array or slice) partition the columns of
    ``z``; ``spec`` and ``subnet`` are as in ``activation_values``.  A
    subnet group's hidden layer hid = tanh([z, 1] @ [w1; b1]) comes from one
    (rows x 2) by (2 x h) product; under ``no_grad`` it is dropped before
    the next group's is built.  The backward rule is written out: with
    s = 1 - hid**2 per subnet group,
    dz = g (base'(z) + s (w1 w2)), dw2 = g'hid, db1 = w2 (g's),
    dw1 = w2 ((g z)'s) and db2 = sum(g).  It takes the node's ``needs``
    mask: without z, it skips the dz pass (base'(z) and s (w1 w2)); without
    a group's sub-network parents, it skips g'hid and the stacked product
    for db1 and dw1.

    The tangent and R-reverse rules differentiate these along tangents
    (Rz, Rw1, Rb1, Rw2, Rb2), with R(a) = Rw1 z + w1 Rz + Rb1 for the
    sub-network's pre-activation, R(hid) = s R(a) and R(s) = u R(a),
    u = -2 hid s.  The tangents, and the R-adjoint, may carry leading
    tangent axes.  No array of tangents x rows x h is formed: each sum over
    rows is a product of stacked row vectors with s or u, and each per-row
    term is s or u times stacked coefficient columns, as in
    g'R(hid) = Rw1 (g z)'s + w1 (g Rz)'s + Rb1 g's.  Each rule forms s (and
    u) once per block of ``HVP_BLOCK_ROWS`` rows for all tangents, the
    R-reverse rule for its first-order part (the backward rule on Rg) and
    its second-order part alike, and keeps hid intact.  Both read ``lin``:
    each group's gathered z, base'(z), base''(z) and dz's coefficient of g,
    kept by the backward rule without ``overwrite``, which is the
    linearization of ``hvp_operator``.
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
    recording = _grad_enabled()
    for cols, spec, subnet in groups:
        y, hid = activation_values(spec, zd[:, cols], subnet)
        out[:, cols] = y
        if hid is None or not recording:
            saved.append(None)
        else:
            parents += [subnet.w1, subnet.b1, subnet.w2, subnet.b2]
            w1, w2 = subnet.w1.data, subnet.w2.data
            saved.append((hid, w1, w2, w1 * w2))
        del y, hid  # so a tape-free pass holds one group's hidden layer at a time
    lin = []  # per group, from the linearization: x, base'(x), base''(x), dz's coefficient

    def tangent_axes(ts):
        t, p = next((t, p) for t, p in zip(ts, parents) if t is not None)
        return t.shape[:t.ndim - p.data.ndim]

    def per_group(ts, lead):
        """(cols, spec, saved, lin entry, rx, subnet tangents) per group,
        rx and the subnet tangents zeros where ``ts`` has None.  The subnet
        tangents have their tangent axes flattened into one."""
        rz = _tangents(ts[:1], [zd.shape], lead)[0]
        k = 1
        for (cols, spec, _), sub, kept in zip(groups, saved, lin):
            rsub = None
            if sub is not None:
                shapes = [sub[1].shape] * 3 + [()]
                rsub = [t.reshape((-1,) + shape)
                        for t, shape in zip(_tangents(ts[k:k + 4], shapes, lead), shapes)]
                k += 4
            yield cols, spec, sub, kept, _columns(rz, cols), rsub

    def vjp(g, needs, overwrite):
        # ``backward`` is a tape's last use, so s may overwrite hid there;
        # without ``overwrite`` this is the linearization, which fills
        # ``lin``.  A parent that ``needs`` leaves out gets None, and the
        # passes that serve only such parents are skipped.
        lead = g.shape[:-2]
        gz = np.empty(lead + zd.shape) if needs[0] else None
        want_dz = gz is not None or not overwrite
        grads = [gz]
        if not overwrite:
            lin.clear()
        for (cols, spec, _), sub in zip(groups, saved):
            x, gc = _columns(zd, cols), _columns(g, cols)
            slope = dz = _slope(spec, x) if want_dz else None
            want_sub = sub is not None and any(needs[len(grads):len(grads) + 4])
            grads += [] if sub is None else [None] * 4
            if sub is not None and (want_dz or want_sub):
                hid, _, w2, w1w2 = sub
                gf, xf = gc.reshape(lead + (-1,)), x.ravel()
                dzs = np.empty_like(xf)
                gw2 = gs = gzs = 0.0
                for rows in _row_blocks(len(hid), overwrite):
                    h, gr = hid[rows], gf[..., rows]
                    if want_sub:
                        gw2 = gw2 + gr @ h
                    s = _tanh_slope(h, overwrite)
                    if want_sub:
                        lhs = np.stack([gr, gr * xf[rows]], axis=-2)
                        block = (lhs.reshape(-1, lhs.shape[-1]) @ s).reshape(lhs.shape[:-1] + (-1,))
                        gs, gzs = gs + block[..., 0, :], gzs + block[..., 1, :]
                    if want_dz:
                        dzs[rows] = s @ w1w2
                if want_dz:
                    dz = slope + dzs.reshape(x.shape)
                if want_sub:
                    grads[-4:] = [w2 * gzs, w2 * gs, gw2, np.asarray(gf.sum(axis=-1))]
            if gz is not None:
                gz[..., cols] = gc * dz
            if not overwrite:
                lin.append((x, slope, _curvature(spec, x), dz))
        return tuple(grads)

    def jvp(ts):
        lead = tangent_axes(ts)
        ry = np.empty(lead + zd.shape)
        for cols, _, sub, (x, slope, _, _), rx, rsub in per_group(ts, lead):
            if sub is None:
                ry[..., cols] = rx * slope
                continue
            hid, w1, w2, w1w2 = sub
            rw1, rb1, rw2, rb2 = rsub
            n = len(rw1)
            xf, rxf = x.ravel(), rx.reshape(n, -1)
            slope = np.broadcast_to(slope, x.shape).ravel()
            # R(y) = base'(z) Rz + hid Rw2 + Rb2 + (s R(a)) w2, the last as
            # z s (w2 Rw1) + s (w2 Rb1) + Rz s (w1 w2): rows of coefficients
            # times s'.
            coef = np.concatenate([w2 * rw1, w2 * rb1, w1w2[None]])
            ry_group = np.empty((n, len(xf)))
            for rows in _row_blocks(len(hid), False):
                h = hid[rows]
                c = coef @ _tanh_slope(h, False).T
                c[-1] += slope[rows]
                ry_group[:, rows] = (rw2 @ h.T + xf[rows] * c[:n] + c[n:2 * n]
                                     + rxf[:, rows] * c[-1] + rb2[:, None])
            ry[..., cols] = ry_group.reshape(lead + x.shape)
            del rx, rxf, ry_group  # before the next group's
        return ry

    def rvjp(g, rg, ts, _needs):
        lead = tangent_axes(ts)
        gz = np.empty(lead + zd.shape)
        grads = [gz]
        for cols, _, sub, (x, _, curvature, dz), rx, rsub in per_group(ts, lead):
            gc = _columns(g, cols)
            rgc = None if rg is None else _columns(rg, cols)
            if sub is None:
                second = 0.0 if curvature is None else gc * (curvature * rx)
                gz[..., cols] = second if rgc is None else rgc * dz + second
                continue
            hid, w1, w2, w1w2 = sub
            rw1, rb1, rw2, _ = rsub
            n = len(rw1)
            gf, xf = gc.ravel(), x.ravel()
            rgf = None if rgc is None else rgc.reshape(lead + (-1,))
            rxf = rx.reshape(n, -1)
            gx = gf * xf
            curvature = np.broadcast_to(curvature, x.shape).ravel()
            # Per-row terms of R(dz)/g: base''(z) Rz + s (w1 Rw2 + Rw1 w2)
            # + R(s) (w1 w2), the last as z u (Rw1 w1 w2) + u (Rb1 w1 w2)
            # + Rz u (w1 w1 w2).
            s_coef = w1 * rw2 + rw1 * w2
            u_coef = np.concatenate([rw1 * w1w2, rb1 * w1w2, (w1 * w1w2)[None]])
            rdz = np.empty((n, len(xf)))
            by_s = by_u = gw2 = gs = gzs = 0.0
            for rows in _row_blocks(len(hid), False):
                h, gr, gxr, rxr = hid[rows], gf[rows], gx[rows], rxf[:, rows]
                s = _tanh_slope(h, False)
                u = h * s
                u *= -2.0
                # Sums over rows: (g, g z, g Rz) against s, (g, g z, g z^2,
                # g Rz, g z Rz) against u, and the backward rule's on Rg.
                grx = gr * rxr
                by_s = by_s + np.concatenate([gr[None], gxr[None], grx]) @ s
                by_u = by_u + np.concatenate([gr[None], gxr[None], (gxr * xf[rows])[None],
                                              grx, gxr * rxr]) @ u
                if rgf is not None:
                    rgr = rgf[..., rows]
                    gw2 = gw2 + rgr @ h
                    lhs = np.stack([rgr, rgr * xf[rows]], axis=-2)
                    block = (lhs.reshape(-1, lhs.shape[-1]) @ s).reshape(lhs.shape[:-1] + (-1,))
                    gs, gzs = gs + block[..., 0, :], gzs + block[..., 1, :]
                cu = u_coef @ u.T
                cu[-1] += curvature[rows]
                rdz[:, rows] = s_coef @ s.T + xf[rows] * cu[:n] + cu[n:2 * n] + rxr * cu[-1]
            rdz *= gf
            rdz = rdz.reshape(lead + x.shape)
            if rgc is not None:
                rdz += rgc * dz
            gz[..., cols] = rdz
            del rx, rxf, rdz  # before the next group's
            g_s, gx_s, grx_s = by_s[0], by_s[1], by_s[2:]
            g_u, gx_u, gxx_u, grx_u, gxrx_u = by_u[0], by_u[1], by_u[2], by_u[3:3 + n], by_u[3 + n:]
            g_rhid = rw1 * gx_s + w1 * grx_s + rb1 * g_s     # g'R(hid)
            g_rs = rw1 * gx_u + w1 * grx_u + rb1 * g_u       # g'R(s)
            gx_rs = rw1 * gxx_u + w1 * gxrx_u + rb1 * gx_u   # (g z)'R(s)
            second = [d.reshape(lead + w1.shape) for d in
                      (rw2 * gx_s + w2 * (grx_s + gx_rs), rw2 * g_s + w2 * g_rs, g_rhid)] + [None]
            grads += second if rgf is None else _plus(
                (w2 * gzs, w2 * gs, gw2, np.asarray(rgf.sum(axis=-1))), second)
        return tuple(grads)

    return _make("activation", out, tuple(parents), vjp, jvp, rvjp)


def reduce_mean(x) -> Tensor:
    x = as_tensor(x)
    xd = x.data

    axes = tuple(range(-xd.ndim, 0))

    def vjp(g, _needs, _overwrite):
        g = np.asarray(g)
        return (np.full(g.shape + xd.shape, (g / xd.size).reshape(g.shape + (1,) * xd.ndim)),)

    def jvp(ts):
        return np.asarray(ts[0].mean(axis=axes))

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

    def vjp(g, _needs, _overwrite):
        return (np.asarray(g)[..., None, None] / m * dlogits(),)

    def jvp(ts):
        return np.asarray((dlogits() * ts[0]).sum(axis=(-2, -1)) / m)

    def second(g, ts, _needs):
        # The softmax's Jacobian, diag(p) - p p', applied row by row.
        p, t = np.exp(logp), ts[0]
        return (float(g) / m * p * (t - (p * t).sum(axis=-1, keepdims=True)),)

    return _make("softmax-cross-entropy", np.asarray(loss), (lg,), vjp, jvp, _r_rule(vjp, second))


def mse(pred, target) -> Tensor:
    """Fused mean of squared differences over all elements."""
    p, t = as_tensor(pred), as_tensor(target)
    if p.data.shape != t.data.shape:
        raise ShapeError(f"mean-squared-error: shapes {p.data.shape} vs {t.data.shape}")
    diff = p.data - t.data
    axes = tuple(range(-diff.ndim, 0))

    def vjp(g, _needs, _overwrite):
        g = np.asarray(g)
        d = (2.0 * g.reshape(g.shape + (1,) * diff.ndim) / diff.size) * diff
        return d, -d

    def rdiff(ts):
        tp, tt = ts
        return -tt if tp is None else tp if tt is None else tp - tt

    def jvp(ts):
        return np.asarray((2.0 / diff.size) * (diff * rdiff(ts)).sum(axis=axes))

    def second(g, ts, _needs):
        d = (2.0 * float(g) / diff.size) * rdiff(ts)
        return d, -d

    return _make("mean-squared-error", np.asarray((diff * diff).mean()), (p, t), vjp, jvp,
                 _r_rule(vjp, second))


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


def _adjoints(loss: Tensor, nodes, overwrite: bool) -> dict:
    """Reverse pass: the adjoint of every tensor on the tape, by id.  With
    ``overwrite`` the backward rules may write over what the forward pass
    saved."""
    adjoint = {id(loss): np.ones((), dtype=np.float64)}
    for node in reversed(nodes):
        g_out = adjoint.get(id(node.out))
        if g_out is not None:
            _accumulate(adjoint, node, node.vjp(g_out, node.needs, overwrite))
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
    adjoint = _adjoints(loss, nodes, overwrite=True)
    leaves = [p for node in nodes for p in node.parents if p.requires_grad]
    return GradientMap({t: np.asarray(adjoint[id(t)]) for t in leaves if id(t) in adjoint})


# ---------------------------------------------------------------------------
# Parameter-vector helpers and Hessian-vector products.

def flatten_params(params) -> np.ndarray:
    """Concatenate parameter tensors into one flat vector (copy)."""
    if not params:
        return np.zeros(0)
    return np.concatenate([p.data.ravel() for p in params])


def hvp_operator(lossfn, params):
    """Linearize ``lossfn()`` at the current parameters; return V -> HV.

    V is one vector of the P parameters, shape (P,), or a block of b of
    them as columns, shape (P, b); HV has the shape of V.  A vector is a
    block with b = 1.  One forward and one reverse pass run here, and the
    operator keeps their tape and adjoints.  Each application is one
    tangent-forward pass (R of every node output along each column, carried
    on a leading tangent axis) and one R-reverse pass, which makes one rule
    call per node: the node's ``rvjp`` on its kept adjoint g, its R-adjoint
    Rg and its parents' tangents, or vjp(Rg) for a node linear in its
    inputs.  A block of b columns costs less than b vectors do, as the
    products over each hidden layer become matrix-matrix; see
    ``diagnostics.HVP_BLOCK_TANGENTS``.  HV is exact wherever the loss is
    twice differentiable; the parameters are never perturbed.
    """
    params = list(params)
    sizes = [p.data.size for p in params]
    loss = lossfn()
    _check_loss(loss)
    nodes = [] if loss.node is None else _detach_tape(loss)
    adjoint = _adjoints(loss, nodes, overwrite=False)
    # Each tangent is dropped after its last read: by a tangent rule in the
    # forward pass or, if any reads it, by an R-reverse rule, which the
    # R-reverse pass visits for the earliest such node last.
    last_read = {id(p): node for node in nodes[:-1] for p in node.parents}
    last_reread = {id(p): node for node in reversed(nodes) if node.rvjp is not None
                   for p in node.parents}

    def apply(v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        block = v if v.ndim == 2 else v.reshape(-1, 1)
        if len(block) != sum(sizes):
            raise ShapeError(f"hvp_operator: vector length {len(block)} "
                             f"!= parameter count {sum(sizes)}")
        lead = block.shape[1:]
        tangent = {}
        for p, part in zip(params, np.split(block, np.cumsum(sizes)[:-1])):
            tangent[id(p)] = part.T.reshape(lead + p.data.shape)

        def tangents_of(node):
            return tuple(tangent.get(id(p)) for p in node.parents)

        for node in nodes[:-1]:  # nothing reads the loss's own tangent
            if any(id(p) in tangent for p in node.parents):
                tangent[id(node.out)] = node.jvp(tangents_of(node))
            for p in node.parents:
                if last_read[id(p)] is node and id(p) not in last_reread:
                    tangent.pop(id(p), None)
        r_adjoint = {}
        for node in reversed(nodes):
            g_out = adjoint.get(id(node.out))
            rg = r_adjoint.pop(id(node.out), None)  # popped so it is freed after its one use
            if (node.rvjp is not None and g_out is not None
                    and any(id(p) in tangent for p in node.parents)):
                grads = node.rvjp(g_out, rg, tangents_of(node), node.needs)
            elif rg is not None:
                grads = node.vjp(rg, node.needs, False)
            else:
                continue
            for p in node.parents:
                if last_reread.get(id(p)) is node:
                    tangent.pop(id(p), None)
            _accumulate(r_adjoint, node, grads)
        hv = np.zeros(block.shape)
        for p, part in zip(params, np.split(hv, np.cumsum(sizes)[:-1])):
            if id(p) in r_adjoint:
                part.T[...] = np.reshape(r_adjoint[id(p)], lead + (-1,))
        return hv if v.ndim == 2 else hv.reshape(v.shape)

    return apply


def hessian_vector_product(lossfn, params, v) -> np.ndarray:
    """Exact Hv at the current parameters: ``hvp_operator(lossfn, params)(v)``."""
    return hvp_operator(lossfn, params)(v)
