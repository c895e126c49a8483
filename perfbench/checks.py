"""Correctness checks for the benchmark's workloads.

Every check compares the program's output with a computation made here,
in plain NumPy, or with a property the method must have.  None compares
with a stored copy of earlier output.  A check raises ``CheckFailed``
with the reason; the probe checks return the measured error so that a
probe can be counted as a failed operation without failing the run.

The tolerances are documented in this directory's README.
"""

from __future__ import annotations

import csv
import hashlib
import statistics
from dataclasses import dataclass

import numpy as np

# Program logits against the reference forward, relative to max |logit|.
FORWARD_TOL = 1e-9
# Tape gradient against central differences of the reference loss.
GRADIENT_TOL = 1e-5
GRADIENT_STEP = 1e-6
# Validation accuracy a trained net must reach (chance is 0.1).
ACCURACY_FLOOR = 0.3
# Output-layer block of Hv against the Gauss-Newton closed form.
OUTPUT_BLOCK_TOL = 1e-5
# Symmetry u'Hv = v'Hu and linearity H(2v) = 2Hv; an exact HVP meets both.
SYMMETRY_TOL = 1e-4
LINEARITY_TOL = 1e-4
# Lanczos basis orthonormality and quadrature-weight normalisation.
ORTHONORMAL_TOL = 1e-8
WEIGHT_SUM_TOL = 1e-10
# groups.csv medians against medians recomputed from runs.csv.
MEDIAN_TOL = 1e-12

BASES = {
    "zero": np.zeros_like,
    "identity": lambda a: a,
    "sigmoid": lambda a: 1.0 / (1.0 + np.exp(-a)),
    "tanh": np.tanh,
    "relu": lambda a: np.maximum(a, 0.0),
    "sine": np.sin,
}


class CheckFailed(AssertionError):
    """A program output disagrees with its reference."""


@dataclass
class Net:
    """Plain arrays of a one-hidden-layer net.

    ``types[j]`` is neuron j's activation: ``("builtin", name)`` or
    ``("subnet", base, w1, b1, w2, b2)`` with the residual
    w2 . tanh(w1 a + b1) + b2 added to base(a).
    """

    w0: np.ndarray
    b0: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    types: list


def _activation(kind, z):
    if kind[0] == "builtin":
        return BASES[kind[1]](z)
    _, base, w1, b1, w2, b2 = kind
    return BASES[base](z) + np.tanh(z[..., None] * w1 + b1) @ w2 + b2


def hidden(net: Net, x) -> np.ndarray:
    """Hidden-layer activity, shape (examples, neurons)."""
    z = x @ net.w0 + net.b0
    out = np.empty_like(z)
    for j, kind in enumerate(net.types):
        out[:, j] = _activation(kind, z[:, j])
    return out


def logits(net: Net, x) -> np.ndarray:
    return hidden(net, x) @ net.w1 + net.b1


def softmax(z) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(net: Net, x, y) -> float:
    z = logits(net, x)
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(y)), y].mean())


# ---------------------------------------------------------------------------
# train

def check_forward(net: Net, x, y, program_logits, program_accuracy) -> None:
    """The program's validation logits and accuracy match the reference forward."""
    ref = logits(net, x)
    err = np.abs(np.asarray(program_logits) - ref).max() / max(1.0, np.abs(ref).max())
    if not err <= FORWARD_TOL:
        raise CheckFailed(f"validation logits differ from the reference forward by {err:.3g}")
    accuracy = float(np.mean(ref.argmax(axis=1) == y))
    if accuracy != program_accuracy:
        raise CheckFailed(f"validation accuracy {program_accuracy} != reference {accuracy}")


def check_gradient(loss, arrays: dict, tape_grads: dict, coords: dict) -> None:
    """Tape gradient entries match central differences of ``loss()``.

    ``arrays`` maps a name to the float array ``loss`` reads; each sampled
    coordinate is perturbed in place and restored.
    """
    worst = (0.0, None)
    for name, idx in coords.items():
        arr = arrays[name].reshape(-1)
        for i in idx:
            keep = arr[i]
            arr[i] = keep + GRADIENT_STEP
            up = loss()
            arr[i] = keep - GRADIENT_STEP
            down = loss()
            arr[i] = keep
            fd = (up - down) / (2 * GRADIENT_STEP)
            err = abs(float(tape_grads[name].reshape(-1)[i]) - fd) / max(1.0, abs(fd))
            if not err <= worst[0]:
                worst = (err, f"{name}[{i}]")
    if not worst[0] <= GRADIENT_TOL:
        raise CheckFailed(f"tape gradient differs from central differences by "
                          f"{worst[0]:.3g} at {worst[1]}")


def check_timescales(before: dict, after_inner: dict, after_outer: dict,
                     theta: list, theta_a: list) -> None:
    """An inner step moves only theta; an outer step moves only theta_a."""
    def same(a, b, names):
        return all(a[n].tobytes() == b[n].tobytes() for n in names)

    if not same(before, after_inner, theta_a):
        raise CheckFailed("an inner step changed the activation sub-network weights")
    if same(before, after_inner, theta):
        raise CheckFailed("an inner step left the layer weights unchanged")
    if not same(after_inner, after_outer, theta):
        raise CheckFailed("an outer step changed the layer weights")
    if same(after_inner, after_outer, theta_a):
        raise CheckFailed("an outer step left the activation sub-network weights unchanged")


def check_learning(accuracy: float, first_loss: float, last_loss: float) -> None:
    if not accuracy >= ACCURACY_FLOOR:
        raise CheckFailed(f"validation accuracy {accuracy} is below {ACCURACY_FLOOR}")
    if not last_loss < first_loss:
        raise CheckFailed(f"final training loss {last_loss} is not below the first, {first_loss}")


# ---------------------------------------------------------------------------
# hessian

def output_block_hvp(net: Net, x, v_w, v_b):
    """Hv restricted to the output layer, for a direction on that layer alone.

    With a the hidden activity and p the softmax, dz_i = V' a_i + v_b and
    s_i = (diag p_i - p_i p_i') dz_i; the blocks are
    ((1/m) sum a_i s_i', (1/m) sum s_i).
    """
    a = hidden(net, x)
    p = softmax(a @ net.w1 + net.b1)
    dz = a @ v_w + v_b
    s = p * dz - p * (p * dz).sum(axis=1, keepdims=True)
    return a.T @ s / len(x), s.mean(axis=0)


def check_output_block(net: Net, x, v_w, v_b, hv_w, hv_b) -> None:
    exp_w, exp_b = output_block_hvp(net, x, v_w, v_b)
    expected = np.concatenate([exp_w.ravel(), exp_b])
    got = np.concatenate([np.ravel(hv_w), np.ravel(hv_b)])
    err = np.abs(got - expected).max() / np.abs(expected).max()
    if not err <= OUTPUT_BLOCK_TOL:
        raise CheckFailed(f"output-layer block of Hv differs from the closed form by {err:.3g}")


def asymmetry(u, v, hu, hv) -> float:
    """|u'Hv - v'Hu|, relative to the mean of |u||Hv| and |v||Hu|."""
    scale = 0.5 * (np.linalg.norm(u) * np.linalg.norm(hv) + np.linalg.norm(v) * np.linalg.norm(hu))
    return float(abs(u @ hv - v @ hu) / scale)


def nonlinearity(hv, h2v) -> float:
    """|H(2v) - 2Hv| / |2Hv|."""
    return float(np.linalg.norm(h2v - 2.0 * hv) / np.linalg.norm(2.0 * hv))


def check_symmetry(u, v, hu, hv) -> None:
    err = asymmetry(u, v, hu, hv)
    if not err <= SYMMETRY_TOL:
        raise CheckFailed(f"u'Hv and v'Hu differ by {err:.3g} relative")


def check_lanczos(basis, weights, f) -> None:
    """Orthonormal Krylov basis, quadrature weights summing to 1, f in [0, 1]."""
    basis = np.asarray(basis)
    err = np.abs(basis @ basis.T - np.eye(basis.shape[0])).max()
    if not err <= ORTHONORMAL_TOL:
        raise CheckFailed(f"Lanczos basis is off orthonormal by {err:.3g}")
    total = float(np.sum(weights))
    if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
        raise CheckFailed(f"Lanczos weights sum to {total!r}")
    if not 0.0 <= f <= 1.0:
        raise CheckFailed(f"near-zero fraction {f!r} is outside [0, 1]")


# ---------------------------------------------------------------------------
# campaign

def read_csv(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def run_seed(campaign_seed: int, variant: str, replicate: int) -> int:
    digest = hashlib.sha256(f"{campaign_seed}:{variant}:{replicate}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def check_runs(runs: list, variants, n_seeds: int) -> None:
    """One ``ok`` row per (variant, replicate), and nothing else."""
    keys = sorted((r["variant"], int(r["replicate"])) for r in runs)
    want = sorted((v, i) for v in variants for i in range(n_seeds))
    if keys != want:
        raise CheckFailed(f"runs.csv rows {keys} != expected {want}")
    bad = [(r["variant"], r["replicate"], r["status"]) for r in runs if r["status"] != "ok"]
    if bad:
        raise CheckFailed(f"runs not ok: {bad}")


def check_seeds(runs: list, campaign_seed: int) -> None:
    for r in runs:
        want = run_seed(campaign_seed, r["variant"], int(r["replicate"]))
        if int(r["seed"]) != want:
            raise CheckFailed(f"{r['variant']} #{r['replicate']}: seed {r['seed']} != {want}")


def check_groups(runs: list, groups: list) -> None:
    """Each variant's count and median in groups.csv match runs.csv."""
    metrics = {}
    for r in runs:
        if r["status"] == "ok":
            metrics.setdefault(r["variant"], []).append(float(r["metric"]))
    got = {g["variant"]: (int(g["count"]), float(g["median"])) for g in groups}
    if sorted(got) != sorted(metrics) or len(groups) != len(metrics):
        raise CheckFailed(f"groups.csv variants {sorted(got)} != runs.csv {sorted(metrics)}")
    for variant, values in metrics.items():
        count, median = got[variant]
        want = statistics.median(values)
        if count != len(values) or not abs(median - want) <= MEDIAN_TOL * max(1.0, abs(want)):
            raise CheckFailed(f"{variant}: groups.csv has n={count} median={median!r}, "
                              f"runs.csv gives n={len(values)} median={want!r}")


def check_hist(runs: list, hist: list) -> None:
    total = sum(int(h["count"]) for h in hist)
    ok = sum(r["status"] == "ok" for r in runs)
    if total != ok:
        raise CheckFailed(f"hist2d.csv counts sum to {total}, runs.csv has {ok} ok runs")
