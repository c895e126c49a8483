"""Benchmark task construction: synthetic 1-D digit classification and
van der Pol phase-space forecasting via RK4 integration, plus the text
container format both are stored in."""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np


class DatasetFormatError(ValueError):
    """Malformed dataset container (message carries the offending line)."""


class TrajectoryDiverged(RuntimeError):
    """Integration left the sane region (|x| > 1e6)."""


@dataclass
class AffineNorm:
    """Stored standardization transform: z = (x - mean) / std, per column."""

    input_mean: np.ndarray
    input_std: np.ndarray
    target_mean: np.ndarray
    target_std: np.ndarray

    def normalize_inputs(self, x):
        return (np.asarray(x, dtype=np.float64) - self.input_mean) / self.input_std

    def denormalize_inputs(self, z):
        return np.asarray(z, dtype=np.float64) * self.input_std + self.input_mean

    def normalize_targets(self, y):
        return (np.asarray(y, dtype=np.float64) - self.target_mean) / self.target_std

    def denormalize_targets(self, z):
        return np.asarray(z, dtype=np.float64) * self.target_std + self.target_mean


@dataclass
class Dataset:
    """Input matrix with integer class labels or regression targets."""

    inputs: np.ndarray
    targets: np.ndarray
    task: str
    num_classes: int = 0
    split: str = ""
    norm: AffineNorm = None

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        if self.task == "classification":
            self.targets = np.asarray(self.targets, dtype=np.int64)
        else:
            self.targets = np.asarray(self.targets, dtype=np.float64)

    @property
    def n_examples(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_features(self) -> int:
        return self.inputs.shape[1]

    @property
    def output_dim(self) -> int:
        return self.num_classes if self.task == "classification" else self.targets.shape[1]

    def validate(self) -> None:
        if self.task not in ("classification", "regression"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.inputs.ndim != 2 or self.n_examples == 0:
            raise ValueError("dataset needs a nonempty (M, D) input matrix")
        if not np.all(np.isfinite(self.inputs)):
            raise ValueError("dataset inputs contain non-finite values")
        if self.task == "classification":
            if self.num_classes < 1:
                raise ValueError("classification dataset needs num_classes")
            if self.targets.shape != (self.n_examples,):
                raise ValueError("labels must be one integer per example")
            if self.targets.min() < 0 or self.targets.max() >= self.num_classes:
                raise ValueError(f"label out of range [0, {self.num_classes})")
        else:
            if self.targets.ndim != 2 or self.targets.shape[0] != self.n_examples:
                raise ValueError("regression targets must be an (M, O) matrix")
            if not np.all(np.isfinite(self.targets)):
                raise ValueError("dataset targets contain non-finite values")


# ---------------------------------------------------------------------------
# Container format: '#dsv1' header, comma-separated doubles, labels last.

_HEADER_RE = re.compile(
    r"#dsv1 task=(classification|regression) D=(\d+) (K|O)=(\d+) M=(\d+)\s*$"
)


def fmt_float(x) -> str:
    """The one float rule of every artifact: the repr of the Python float,
    the shortest text that reads back bitwise (``nan`` included)."""
    return repr(float(x))


def _cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        return fmt_float(x)
    if isinstance(x, list):
        return ";".join(map(_cell, x))
    return str(x)


def write_csv(path, columns, rows) -> None:
    """A header of ``columns``, then one line per row: floats by
    ``fmt_float``, a list joined by ';', anything else by ``str``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def save_dataset(ds: Dataset, path) -> None:
    ds.validate()
    kind_key = "K" if ds.task == "classification" else "O"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#dsv1 task={ds.task} D={ds.n_features} "
                 f"{kind_key}={ds.output_dim} M={ds.n_examples}\n")
        if ds.norm is not None:
            fh.write("#norm in_mean={} in_std={} out_mean={} out_std={}\n".format(
                ",".join(fmt_float(v) for v in ds.norm.input_mean),
                ",".join(fmt_float(v) for v in ds.norm.input_std),
                ",".join(fmt_float(v) for v in ds.norm.target_mean),
                ",".join(fmt_float(v) for v in ds.norm.target_std)))
        for i in range(ds.n_examples):
            row = [fmt_float(v) for v in ds.inputs[i]]
            if ds.task == "classification":
                row.append(str(int(ds.targets[i])))
            else:
                row.extend(fmt_float(v) for v in ds.targets[i])
            fh.write(",".join(row) + "\n")


def _parse_norm_line(line: str, d: int, o: int) -> AffineNorm:
    parts = dict(tok.split("=", 1) for tok in line[len("#norm "):].split())
    def vec(key, n):
        vals = np.array([float(v) for v in parts[key].split(",")])
        if vals.size != n:
            raise DatasetFormatError(f"#norm {key} has {vals.size} entries, expected {n}")
        return vals
    return AffineNorm(vec("in_mean", d), vec("in_std", d), vec("out_mean", o), vec("out_std", o))


def load_dataset(path) -> Dataset:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetFormatError(f"{path}: empty file")
    m_header = _HEADER_RE.match(lines[0])
    if not m_header:
        raise DatasetFormatError(f"{path}: line 1: bad header {lines[0]!r}")
    task = m_header.group(1)
    d = int(m_header.group(2))
    kind_key, out_dim = m_header.group(3), int(m_header.group(4))
    m = int(m_header.group(5))
    if (task == "classification") != (kind_key == "K"):
        raise DatasetFormatError(f"{path}: line 1: header key {kind_key} does not match task {task}")

    body_start = 1
    norm = None
    if len(lines) > 1 and lines[1].startswith("#norm "):
        try:
            norm = _parse_norm_line(lines[1], d, out_dim)
        except (KeyError, ValueError) as exc:
            raise DatasetFormatError(f"{path}: line 2: bad #norm line ({exc})") from None
        body_start = 2

    # (line number, text) of each non-blank line, numbered as in the file
    body = [(n, l) for n, l in enumerate(lines[body_start:], body_start + 1) if l.strip()]
    if m == 0 or not body:
        raise DatasetFormatError(f"{path}: no examples")
    if len(body) != m:
        raise DatasetFormatError(f"{path}: schema error: header says M={m}, found {len(body)} rows")

    n_fields = d + (1 if task == "classification" else out_dim)
    inputs = np.empty((m, d))
    if task == "classification":
        targets = np.empty(m, dtype=np.int64)
    else:
        targets = np.empty((m, out_dim))
    for i, (lineno, line) in enumerate(body):
        tokens = line.split(",")
        if len(tokens) != n_fields:
            raise DatasetFormatError(
                f"{path}: line {lineno}: expected {n_fields} fields, found {len(tokens)}")
        try:
            inputs[i] = [float(t) for t in tokens[:d]]
            if task == "classification":
                targets[i] = int(tokens[d])
            else:
                targets[i] = [float(t) for t in tokens[d:]]
        except ValueError as exc:
            raise DatasetFormatError(f"{path}: line {lineno}: {exc}") from None
        if task == "classification" and not 0 <= targets[i] < out_dim:
            raise DatasetFormatError(
                f"{path}: line {lineno}: schema error: label {targets[i]} outside [0, {out_dim})")
    if not np.all(np.isfinite(inputs)) or not np.all(np.isfinite(targets)):
        raise DatasetFormatError(f"{path}: non-finite values in body")
    ds = Dataset(inputs, targets, task=task,
                 num_classes=out_dim if task == "classification" else 0, norm=norm)
    ds.validate()
    return ds


# ---------------------------------------------------------------------------
# Synthetic 1-D digit strokes.

# Fixed 12-point stroke templates for digits 0-9; mutually well separated.
STROKE_TEMPLATES = np.array([
    [0.000, 0.563, 1.081, 1.511, 1.819, 1.980, 1.980, 1.819, 1.511, 1.081, 0.563, 0.000],
    [1.800, 1.800, 1.800, 1.800, 1.800, 1.800, 1.800, 1.800, 1.800, 1.800, 1.800, 1.800],
    [-2.000, -1.636, -1.273, -0.909, -0.545, -0.182, 0.182, 0.545, 0.909, 1.273, 1.636, 2.000],
    [2.000, 1.636, 1.273, 0.909, 0.545, 0.182, -0.182, -0.545, -0.909, -1.273, -1.636, -2.000],
    [-1.600, -1.600, -1.600, -1.600, -1.600, -1.600, 1.600, 1.600, 1.600, 1.600, 1.600, 1.600],
    [1.600, 1.600, 1.600, 1.600, 1.600, 1.600, -1.600, -1.600, -1.600, -1.600, -1.600, -1.600],
    [0.000, 0.973, 1.637, 1.782, 1.360, 0.507, -0.507, -1.360, -1.782, -1.637, -0.973, 0.000],
    [1.800, 1.514, 0.748, -0.256, -1.179, -1.727, -1.727, -1.179, -0.256, 0.748, 1.514, 1.800],
    [1.800, -0.164, -1.473, 0.491, 1.145, -0.818, -0.818, 1.145, 0.491, -1.473, -0.164, 1.800],
    [0.000, 0.332, -0.138, -1.144, -1.571, -0.740, 0.740, 1.571, 1.144, 0.138, -0.332, 0.000],
])


@dataclass(frozen=True)
class Synth1DParams:
    """Knobs of the 1-D digit generator.

    Each example places its class template on a longer canvas at a random
    offset, adds a random linear shear, correlated smooth noise, and white
    noise, then resamples down to ``n_points`` features.
    """

    n_points: int = 40
    canvas: int = 48
    translate: int = 18
    shear: float = 0.75
    noise_smooth: float = 0.90
    noise_white: float = 0.50
    smooth_width: int = 7


@functools.lru_cache(maxsize=16)
def _render_grids(p: Synth1DParams):
    """The read-only arrays every example of ``p`` shares: the normalized
    Hann kernel of the smooth noise, the shear ramp, the resampling probe
    and the canvas index grid."""
    kernel = np.hanning(p.smooth_width + 2)[1:-1]
    kernel /= kernel.sum()
    grids = (kernel, np.linspace(-1.0, 1.0, p.canvas),
             np.linspace(0.0, p.canvas - 1.0, p.n_points), np.arange(p.canvas))
    for g in grids:
        g.flags.writeable = False
    return grids


def _render_example(template: np.ndarray, rng, p: Synth1DParams) -> np.ndarray:
    kernel, ramp, probe, index = _render_grids(p)
    canvas = np.zeros(p.canvas)
    center = (p.canvas - template.size) // 2
    offset = center + int(rng.integers(-p.translate, p.translate + 1))
    offset = min(max(offset, 0), p.canvas - template.size)
    canvas[offset:offset + template.size] = template
    canvas += rng.uniform(-p.shear, p.shear) * ramp
    # Both noises are drawn whether or not the smooth one is used, so the
    # stream, and every later example, is the same for any noise_smooth.
    smooth, white = rng.standard_normal((2, p.canvas))
    if p.noise_smooth > 0:
        canvas += p.noise_smooth * np.convolve(smooth, kernel, mode="same")
    canvas += p.noise_white * white
    return np.interp(probe, index, canvas)


def generate_synthetic_1d(seed, m: int, params: Synth1DParams = Synth1DParams(),
                          split: str = "") -> Dataset:
    """Balanced 10-class dataset of distorted stroke templates; deterministic
    for a given seed."""
    if m < 1:
        raise ValueError("m must be positive")
    rng = np.random.default_rng(seed)
    labels = np.tile(np.arange(10), (m + 9) // 10)[:m]
    labels = labels[rng.permutation(m)]
    inputs = np.empty((m, params.n_points))
    for i in range(m):
        inputs[i] = _render_example(STROKE_TEMPLATES[labels[i]], rng, params)
    ds = Dataset(inputs, labels, task="classification", num_classes=10, split=split)
    ds.validate()
    return ds


# ---------------------------------------------------------------------------
# Van der Pol oscillator.

@dataclass
class OscillatorState:
    x: float
    v: float
    t: float = 0.0


def vdp_derivative(state: OscillatorState, mu: float):
    """Phase-space velocity field: dx = v, dv = mu (1 - x^2) v - x."""
    return state.v, mu * (1.0 - state.x * state.x) * state.v - state.x


def rk4_step(state: OscillatorState, h: float, mu: float) -> OscillatorState:
    """Classical fourth-order Runge-Kutta update of (x, v)."""
    if h <= 0:
        raise ValueError("step size must be positive")
    x, v = state.x, state.v
    k1x, k1v = vdp_derivative(state, mu)
    k2x, k2v = vdp_derivative(OscillatorState(x + 0.5 * h * k1x, v + 0.5 * h * k1v), mu)
    k3x, k3v = vdp_derivative(OscillatorState(x + 0.5 * h * k2x, v + 0.5 * h * k2v), mu)
    k4x, k4v = vdp_derivative(OscillatorState(x + h * k3x, v + h * k3v), mu)
    return OscillatorState(
        x=x + h / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x),
        v=v + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v),
        t=state.t + h,
    )


def integrate(state: OscillatorState, h: float, n_steps: int, mu: float) -> OscillatorState:
    for _ in range(n_steps):
        state = rk4_step(state, h, mu)
        if abs(state.x) > 1e6:
            raise TrajectoryDiverged(f"|x| = {abs(state.x):.3g} at t = {state.t:.3g}")
    return state


def build_vdp_forecast_dataset(x0: float = 0.5, v0: float = 0.0, mu: float = 2.7,
                               h: float = 0.01, n_transient: int = 5000,
                               n_samples: int = 4000, seed=0,
                               val_fraction: float = 0.2):
    """One-step forecasting pairs on the limit cycle, standardized by the
    training split's statistics.  Returns (train, val) Datasets sharing one
    stored affine transform."""
    if n_transient < 1 or n_samples < 1:
        raise ValueError("n_transient and n_samples must be positive")
    n_val = int(round(val_fraction * n_samples))
    if not 0 < n_val < n_samples:
        raise ValueError(f"val_fraction {val_fraction} of {n_samples} samples leaves a split empty")
    state = integrate(OscillatorState(x0, v0, 0.0), h, n_transient, mu)
    states = np.empty((n_samples + 1, 2))
    states[0] = (state.x, state.v)
    for i in range(n_samples):
        state = integrate(state, h, 1, mu)
        states[i + 1] = (state.x, state.v)

    x_raw, y_raw = states[:-1], states[1:]
    perm = np.random.default_rng(seed).permutation(n_samples)
    val_idx, train_idx = perm[:n_val], perm[n_val:]

    norm = AffineNorm(
        input_mean=x_raw[train_idx].mean(axis=0),
        input_std=np.maximum(x_raw[train_idx].std(axis=0), 1e-12),
        target_mean=y_raw[train_idx].mean(axis=0),
        target_std=np.maximum(y_raw[train_idx].std(axis=0), 1e-12),
    )
    def build(idx, split):
        ds = Dataset(norm.normalize_inputs(x_raw[idx]), norm.normalize_targets(y_raw[idx]),
                     task="regression", split=split, norm=norm)
        ds.validate()
        return ds

    return build(train_idx, "train"), build(val_idx, "val")
