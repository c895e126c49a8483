"""Alternating two-timescale training: stochastic gradient steps on the
layer weights, with periodic steps on the activation sub-network weights
against the same loss."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .tasks import write_csv

SNAPSHOT_GRID = np.linspace(-6.0, 6.0, 201)


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes NaN or infinite."""


@dataclass
class TrainSchedule:
    """Cadence and step sizes for the inner/outer loops.

    ``outer_period`` is the number of inner steps between outer events;
    ``outer_steps`` how many outer updates fire per event.  ``optimizer``
    is one of plain (SGD), adam.
    """

    inner_lr: float = 1e-2
    outer_lr: float = 1e-3
    outer_period: int = 5
    outer_steps: int = 1
    batch_size: int = 100
    epochs: int = 20
    optimizer: str = "adam"
    seed: int = 0

    def __post_init__(self):
        nn._check_ints({"outer_period": self.outer_period, "outer_steps": self.outer_steps,
                        "batch_size": self.batch_size, "epochs": self.epochs})
        if not (0 < self.inner_lr < math.inf and 0 < self.outer_lr < math.inf):
            raise ValueError("learning rates must be finite and positive, got "
                             f"inner_lr={self.inner_lr!r}, outer_lr={self.outer_lr!r}")
        if self.outer_period < 1 or self.outer_steps < 1:
            raise ValueError("outer_period and outer_steps must be >= 1")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {tuple(OPTIMIZERS)}")


# ---------------------------------------------------------------------------
# Optimizers.  ``update(params, grads)`` steps a group of tensors at once;
# ``grads`` maps each tensor to its gradient, as ``ad.backward`` returns.
# The group's gradient and state are flat arrays, so a step makes the same
# few ufunc calls for any number of tensors, with the bits of
# tensor-by-tensor updates, as every operation is elementwise.

def _flat_grads(params, grads) -> np.ndarray:
    return np.concatenate([np.ravel(grads[p]) for p in params])


def _subtract(params, step: np.ndarray) -> None:
    """p <- p - step over the group, ``step`` flat in the group's order."""
    offset = 0
    for p in params:
        n = p.data.size
        p.assign(p.data - step[offset:offset + n].reshape(p.data.shape))
        offset += n


class PlainSgd:
    def __init__(self, lr: float):
        self.lr = lr

    def update(self, params, grads) -> None:
        _subtract(params, self.lr * _flat_grads(params, grads))


class Adam:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._state = {}

    def update(self, params, grads) -> None:
        key = tuple(map(id, params))
        grad = _flat_grads(params, grads)
        m, v, t = self._state.get(key, (0.0, 0.0, 0))
        t += 1
        m = self.beta1 * m + (1 - self.beta1) * grad
        v = self.beta2 * v + (1 - self.beta2) * grad * grad
        self._state[key] = (m, v, t)
        m_hat = m / (1 - self.beta1 ** t)
        v_hat = v / (1 - self.beta2 ** t)
        _subtract(params, self.lr * m_hat / (np.sqrt(v_hat) + self.eps))


OPTIMIZERS = {"plain": PlainSgd, "adam": Adam}


# ---------------------------------------------------------------------------
# Losses.

def batch_loss(params, config, xb, yb) -> Tensor:
    out, _, _ = nn.forward(params, config, xb)
    if config.task == "classification":
        return ad.softmax_cross_entropy(out, np.asarray(yb))
    return ad.mse(out, Tensor(np.asarray(yb, dtype=np.float64)))


def _checked_loss(params, config, xb, yb, where: str) -> tuple:
    loss = batch_loss(params, config, xb, yb)
    value = float(loss.data)
    if not np.isfinite(value):
        loss.node = None
        raise TrainingDiverged(f"non-finite training loss ({value}) during {where}")
    return loss, value


def inner_step(params, config, batch, schedule: TrainSchedule, optimizer=None) -> float:
    """One stochastic gradient update of the layer weights; sub-network
    weights are never touched, and their gradients are not computed."""
    xb, yb = batch
    loss, value = _checked_loss(params, config, xb, yb, "inner step")
    grads = ad.backward(loss, wrt=params.theta())
    opt = optimizer if optimizer is not None else OPTIMIZERS[schedule.optimizer](schedule.inner_lr)
    opt.update(params.theta(), grads)
    return value


def outer_step(params, config, batch, schedule: TrainSchedule, optimizer=None) -> float:
    """One gradient update of the activation sub-network weights on the same
    loss; layer weights stay bitwise unchanged, and their gradients are not
    computed."""
    xb, yb = batch
    loss, value = _checked_loss(params, config, xb, yb, "outer step")
    grads = ad.backward(loss, wrt=params.theta_a())
    opt = optimizer if optimizer is not None else OPTIMIZERS[schedule.optimizer](schedule.outer_lr)
    opt.update(params.theta_a(), grads)
    return value


# ---------------------------------------------------------------------------
# Full training loop and its history.

@dataclass
class TrainHistory:
    """Per-step losses, per-epoch validation metric, and periodic tabulated
    snapshots of every activation type (the evolution traces)."""

    records: list = field(default_factory=list)  # (step, epoch, phase, loss)
    val: list = field(default_factory=list)      # (epoch, metric)
    snapshot_grid: np.ndarray = None
    snapshots: dict = field(default_factory=dict)  # type index -> [(step, values)]


def _snapshot(history: TrainHistory, params, config, type_indices, step: int) -> None:
    for t in type_indices:
        values = nn.eval_activation(config.activations[t], history.snapshot_grid,
                                    params.subnets.get(t))
        history.snapshots.setdefault(t, []).append((step, np.asarray(values)))


def score(config, out: Tensor, targets) -> float:
    """Accuracy of the net outputs ``out`` against ``targets`` for
    classification, mean squared error for regression."""
    if config.task == "classification":
        preds = np.argmax(out.data, axis=1)
        return float(np.mean(preds == np.asarray(targets)))
    return float(ad.mse(out, Tensor(targets)).data)


def evaluate(params, config, dataset) -> float:
    """Validation accuracy for classification, mean squared error for regression."""
    with ad.no_grad():
        out, _, _ = nn.forward(params, config, dataset.inputs)
    return score(config, out, dataset.targets)


@functools.cache
def _keep_freed_memory() -> None:
    """Let the C heap keep what it frees, up to 256 MiB, and serve blocks up
    to 32 MiB (glibc's largest mmap threshold) itself, so that a training
    step reuses the previous step's memory instead of returning it to the
    kernel and faulting it back in.  Setting either threshold switches off
    glibc's dynamic ones, so both are set.  Once per process; nothing where
    libc has no ``mallopt``."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD


def train(config, schedule: TrainSchedule, train_set, val_set=None):
    """Run the alternating loop: shuffle each epoch, take ``outer_period``
    inner steps, then ``outer_steps`` outer steps on the current batch.
    ``history.val`` holds the metric on ``val_set`` after each epoch; with
    no ``val_set`` it stays empty, and no validation pass runs.

    Returns (params, history).  Deterministic given the schedule seed.
    """
    m = train_set.inputs.shape[0]
    if m == 0 or (val_set is not None and val_set.inputs.shape[0] == 0):
        raise ValueError("datasets must be nonempty")
    _keep_freed_memory()
    s_init, s_shuffle = np.random.SeedSequence(schedule.seed).spawn(2)
    params = nn.init_network(config, seed=s_init)
    rng = np.random.default_rng(s_shuffle)

    inner_opt = OPTIMIZERS[schedule.optimizer](schedule.inner_lr)
    outer_opt = OPTIMIZERS[schedule.optimizer](schedule.outer_lr)

    type_indices = sorted({idx for layer in config.layers for idx in layer.assignment})
    n_batches = (m + schedule.batch_size - 1) // schedule.batch_size
    total_steps = schedule.epochs * n_batches
    every = max(1, total_steps // 16)

    history = TrainHistory(snapshot_grid=SNAPSHOT_GRID.copy())
    _snapshot(history, params, config, type_indices, step=0)

    run_outer = bool(params.subnets)
    step = 0
    for epoch in range(schedule.epochs):
        perm = rng.permutation(m)
        for start in range(0, m, schedule.batch_size):
            idx = perm[start:start + schedule.batch_size]
            batch = (train_set.inputs[idx], train_set.targets[idx])
            loss = inner_step(params, config, batch, schedule, inner_opt)
            step += 1
            history.records.append((step, epoch, "inner", loss))
            if run_outer and step % schedule.outer_period == 0:
                for _ in range(schedule.outer_steps):
                    loss = outer_step(params, config, batch, schedule, outer_opt)
                    history.records.append((step, epoch, "outer", loss))
            if step % every == 0:
                _snapshot(history, params, config, type_indices, step)
        if val_set is not None:
            history.val.append((epoch, evaluate(params, config, val_set)))
    if type_indices and history.snapshots[type_indices[0]][-1][0] != step:
        _snapshot(history, params, config, type_indices, step)
    return params, history


def write_history_csv(history: TrainHistory, path) -> None:
    """Columns: step, epoch, train_loss, val_metric, phase.  The validation
    metric appears on each epoch's final row."""
    val_by_epoch = dict(history.val)
    last_row = {epoch: i for i, (_, epoch, _, _) in enumerate(history.records)}
    write_csv(path, ("step", "epoch", "train_loss", "val_metric", "phase"), (
        (step, epoch, loss,
         val_by_epoch[epoch] if last_row[epoch] == i and epoch in val_by_epoch else "", phase)
        for i, (step, epoch, phase, loss) in enumerate(history.records)))


def write_activation_trace_csv(history: TrainHistory, type_idx: int, path) -> None:
    """Long-format evolution trace of one activation type: step, input, value."""
    write_csv(path, ("step", "a", "sigma"), (
        (step, a, v) for step, values in history.snapshots[type_idx]
        for a, v in zip(history.snapshot_grid, values)))
