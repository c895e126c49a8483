"""Analysis instruments for trained networks: representation dimensionality
via the participation ratio of the hidden-activity covariance, and
loss-landscape flatness via Hessian trace and spectrum estimates.  Also the
multi-run distribution statistics behind violin/box plots and 2-D density
tables."""

from __future__ import annotations

import json
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .tasks import write_csv

DEFAULT_EPS_ZERO_REL = 1e-3
HESSIAN_PARAM_CAP = 6000
# Columns that ``hessian_matrix`` and ``hutchinson_trace`` hand the Hessian
# operator at once, and the most that a Lanczos step of ``deflated_trace``
# hands it with its probes: the products over a hidden layer are then
# matrix-matrix, not matrix-vector.
HVP_BLOCK_TANGENTS = 4


class DegenerateActivityError(ValueError):
    """Activity matrix carries no variance at all."""


class CapExceededError(ValueError):
    """Too many parameters for an exact Hessian; use the estimators."""


# ---------------------------------------------------------------------------
# Participation ratio.

@dataclass
class CovarianceSummary:
    """Spectrum of the neuron-by-neuron activity covariance.

    ``ratio`` is (tr C)^2 / tr C^2, the effective number of variance
    dimensions; ``normalized`` divides by the neuron count.
    """

    eigenvalues: np.ndarray  # descending
    trace: float
    ratio: float
    normalized: float


def participation_ratio(activity: np.ndarray) -> CovarianceSummary:
    """Center each neuron's activity over inputs, form C = X X^T / M, and
    summarize how evenly its eigenvalues spread."""
    X = np.asarray(activity, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"activity must be (neurons, inputs), got shape {X.shape}")
    n, m = X.shape
    if n < 1 or m < 2:
        raise ValueError("need at least one neuron and two inputs")
    Xc = X - X.mean(axis=1, keepdims=True)
    C = (Xc @ Xc.T) / m
    C = 0.5 * (C + C.T)
    eig = np.linalg.eigvalsh(C)[::-1]
    sum_sq = float((eig * eig).sum())
    if sum_sq == 0.0:
        raise DegenerateActivityError("activity matrix is constant; covariance is zero")
    trace = float(eig.sum())
    ratio = trace * trace / sum_sq
    return CovarianceSummary(eigenvalues=eig, trace=trace, ratio=ratio, normalized=ratio / n)


# ---------------------------------------------------------------------------
# Hessian instruments.

def near_zero_fraction(eigenvalues, weights=None) -> float:
    """Fraction of spectral mass (``weights``, or equal) with |eigenvalue|
    below 1e-3 * max|eigenvalue|.  The one near-zero rule: relative, so it
    survives loss rescaling, and an all-zero spectrum is all near zero."""
    eig = np.asarray(eigenvalues, dtype=np.float64)
    if eig.size == 0:
        return 0.0
    top = np.abs(eig).max()
    if top == 0.0:
        return 1.0
    mask = np.abs(eig) < DEFAULT_EPS_ZERO_REL * top
    if weights is None:
        return float(mask.mean())
    w = np.asarray(weights, dtype=np.float64)
    return float(w[mask].sum() / w.sum())


@dataclass
class HessianSummary:
    """Trace, eigenvalues, and near-zero fraction of a loss Hessian."""

    trace: float
    eigenvalues: np.ndarray  # descending
    f_near_zero: float
    n_params: int


def hessian_matrix(lossfn, params) -> np.ndarray:
    """Assemble H from Hessian-vector products on blocks of
    ``HVP_BLOCK_TANGENTS`` identity columns.  Not symmetrized; callers
    can measure the rounding asymmetry."""
    params = list(params)
    n = ad.flatten_params(params).size
    hvp = ad.hvp_operator(lossfn, params)
    H = np.empty((n, n))
    for i in range(0, n, HVP_BLOCK_TANGENTS):
        j = min(i + HVP_BLOCK_TANGENTS, n)
        basis = np.zeros((n, j - i))
        basis[i:j] = np.eye(j - i)
        H[:, i:j] = hvp(basis)
    return H


def hessian_exact(lossfn, params, cap: int = HESSIAN_PARAM_CAP) -> HessianSummary:
    """Dense symmetric eigendecomposition of the assembled Hessian."""
    params = list(params)
    n = ad.flatten_params(params).size
    if n > cap:
        raise CapExceededError(
            f"{n} parameters exceed the exact-Hessian cap ({cap}); "
            "use hessian_trace_hutchinson / spectrum_lanczos")
    H = hessian_matrix(lossfn, params)
    H = 0.5 * (H + H.T)
    eig = np.linalg.eigvalsh(H)[::-1]
    return HessianSummary(
        trace=float(np.trace(H)),
        eigenvalues=eig,
        f_near_zero=near_zero_fraction(eig),
        n_params=n,
    )


@dataclass
class TraceEstimate:
    value: float
    stderr: float
    n_probes: int


def rademacher_probes(dim: int, n_probes: int, seed=0) -> np.ndarray:
    """(n_probes, dim) Rademacher probe rows, drawn one at a time from
    ``seed``, as a per-probe loop would draw them."""
    if n_probes < 2:
        raise ValueError("need at least two probes for a standard error")
    rng = np.random.default_rng(seed)
    return np.stack([rng.integers(0, 2, size=dim).astype(np.float64) * 2.0 - 1.0
                     for _ in range(n_probes)])


def _trace_estimate(exact_part: float, samples: np.ndarray) -> TraceEstimate:
    return TraceEstimate(
        value=exact_part + float(samples.mean()),
        stderr=float(samples.std(ddof=1) / np.sqrt(samples.size)),
        n_probes=samples.size,
    )


def _apply_block(matvec, block: np.ndarray) -> np.ndarray:
    """``matvec(block)``, which must be a block of the same shape."""
    out = matvec(block)
    if np.shape(out) != block.shape:
        raise ValueError(f"matvec returned shape {np.shape(out)} for a {block.shape} block")
    return out


def hutchinson_trace(matvec, dim: int, n_probes: int, seed=0) -> TraceEstimate:
    """Mean of z^T A z over Rademacher probe vectors z, with standard error.

    ``matvec`` maps a (dim, b) block of columns to A times it, (dim, b).
    The probes (``rademacher_probes``) are applied in blocks of
    ``HVP_BLOCK_TANGENTS``.  ``deflated_trace`` is the one deflated form,
    its probes riding with the Lanczos steps.
    """
    Z = rademacher_probes(dim, n_probes, seed)
    samples = np.empty(n_probes)
    for i in range(0, n_probes, HVP_BLOCK_TANGENTS):
        block = Z[i:i + HVP_BLOCK_TANGENTS]
        samples[i:i + len(block)] = np.einsum("ij,ji->i", block, _apply_block(matvec, block.T))
    return _trace_estimate(0.0, samples)


def deflated_trace(matvec, dim: int, k: int, n_probes: int, trace_seed=0, lanczos_seed=0):
    """Hutchinson trace deflated by the Krylov basis of a k-step Lanczos
    run, with the probes applied alongside the Lanczos steps.

    The trace splits over the run's orthonormal basis Q as
    tr(Q A Q^T) + tr(R A R), R = I - Q^T Q.  The first term is the sum of
    the Ritz values, exact; the probes z (``rademacher_probes`` from
    ``trace_seed``), projected by R, estimate only the second.  The
    estimate stays unbiased, and its variance loses the outlying
    eigenvalues the Krylov space has captured, which dominate a loss
    Hessian's plain Hutchinson variance.

    Step j of the run (``lanczos`` from ``lanczos_seed``) applies A to the
    block [q_j | the next r probes], r = min(ceil(n_probes / k),
    HVP_BLOCK_TANGENTS - 1), so ``matvec`` maps (dim, b) blocks, and one
    block application does the work of 1 + r.  Probes left after a
    breakdown, or beyond k r, go afterwards in blocks of
    ``HVP_BLOCK_TANGENTS``.  Deflation comes from the stored images: with
    W = A Q^T and Y = Z Q^T, R z = z - Q^T (Q z) and, by linearity alone,
    A R z = A z - W^T (Q z), so sample_i = (Z - Y Q)_i . (AZ - Y W)_i.
    Returns (TraceEstimate, LanczosResult).
    """
    Z = rademacher_probes(dim, n_probes, trace_seed)
    alphas, betas, Q, W, AZ = _lanczos_steps(matvec, dim, k, lanczos_seed, riders=Z)
    samples = np.empty(n_probes)
    # In blocks of probes: OpenBLAS runs products of this size on one
    # thread, but splits those over a pass's 64 probes across threads,
    # which makes their last bits depend on the thread count.
    for i in range(0, n_probes, HVP_BLOCK_TANGENTS):
        rows = slice(i, i + HVP_BLOCK_TANGENTS)
        Y = Z[rows] @ Q.T
        samples[rows] = np.einsum("ij,ij->i", Z[rows] - Y @ Q, AZ[rows] - Y @ W)
    lan = _lanczos_result(alphas, betas, Q, k)
    return _trace_estimate(float(lan.ritz_values.sum()), samples), lan


def hessian_trace_hutchinson(lossfn, params, n_probes: int = 200, seed=0) -> TraceEstimate:
    params = list(params)
    n = ad.flatten_params(params).size
    return hutchinson_trace(ad.hvp_operator(lossfn, params), n, n_probes, seed)


@dataclass
class LanczosResult:
    """Ritz values with their quadrature weights from one Lanczos run."""

    ritz_values: np.ndarray  # descending
    weights: np.ndarray      # matching spectral weights, sum to 1
    f_near_zero: float
    basis: np.ndarray  # orthonormal Krylov basis, one row per step
    breakdown: bool = False


def lanczos(matvec, dim: int, k: int, seed=0) -> LanczosResult:
    """k-step Lanczos with full reorthogonalization on a symmetric operator.

    Ritz values approximate the extreme spectrum; the squared first
    components of the tridiagonal eigenvectors weight each Ritz value's
    share of the spectral density seen by the start vector.  ``matvec``
    maps a (dim, b) block of columns to A times it, as for
    ``hutchinson_trace``; each step hands it a (dim, 1) block.  The run
    stops early (``breakdown``) once the new residual falls below 1e-12 of
    the largest |A q| so far, a test that does not depend on A's scale.  ``deflated_trace`` runs the
    same steps with Hutchinson's probes riding in the blocks it applies.
    """
    alphas, betas, Q, _, _ = _lanczos_steps(matvec, dim, k, seed, riders=np.empty((0, dim)))
    return _lanczos_result(alphas, betas, Q, k)


def _lanczos_steps(matvec, dim: int, k: int, seed, riders: np.ndarray):
    """The recurrence of ``lanczos``, applying A to the (n, dim) ``riders``
    alongside as ``deflated_trace`` describes.  Returns (alphas, betas,
    basis Q, A Q^T, A riders^T) with one row per step or rider."""
    if not 1 <= k <= dim:
        raise ValueError(f"need 1 <= k <= dim, got k={k}, dim={dim}")
    per_step = min(-(-len(riders) // k), HVP_BLOCK_TANGENTS - 1)
    rider_images = np.empty(riders.shape)
    applied = 0

    def apply(q):
        nonlocal applied
        r = min(per_step, len(riders) - applied)
        block = np.empty((dim, 1 + r))
        block[:, 0] = q
        block[:, 1:] = riders[applied:applied + r].T
        out = _apply_block(matvec, block)
        rider_images[applied:applied + r] = out[:, 1:].T
        applied += r
        return out[:, 0]

    rng = np.random.default_rng(seed)
    q = rng.standard_normal(dim)
    q /= np.linalg.norm(q)
    Q, W = np.empty((k, dim)), np.empty((k, dim))
    Q[0] = q
    W[0] = apply(q)
    scale = np.linalg.norm(W[0])
    alphas, betas = [float(q @ W[0])], []
    w = W[0] - alphas[0] * q
    for j in range(1, k):
        for _ in range(2):  # full reorthogonalization, twice for safety
            w = w - Q[:j].T @ (Q[:j] @ w)
        beta = float(np.linalg.norm(w))
        if beta <= 1e-12 * scale:
            break
        q = w / beta
        Q[j] = q
        betas.append(beta)
        W[j] = apply(q)
        scale = max(scale, np.linalg.norm(W[j]))
        alphas.append(float(q @ W[j]))
        w = W[j] - alphas[-1] * q - beta * Q[j - 1]
    for i in range(applied, len(riders), HVP_BLOCK_TANGENTS):
        rows = slice(i, i + HVP_BLOCK_TANGENTS)
        rider_images[rows] = _apply_block(matvec, riders[rows].T).T
    steps = len(alphas)
    return alphas, betas, Q[:steps], W[:steps], rider_images


def _lanczos_result(alphas, betas, basis, k: int) -> LanczosResult:
    T = np.diag(alphas)
    if betas:
        T += np.diag(betas, 1) + np.diag(betas, -1)
    evals, evecs = np.linalg.eigh(T)
    order = np.argsort(evals)[::-1]
    ritz = evals[order]
    weights = evecs[0, order] ** 2
    return LanczosResult(
        ritz_values=ritz,
        weights=weights,
        f_near_zero=near_zero_fraction(ritz, weights=weights),
        breakdown=len(alphas) < k,
        basis=basis,
    )


def spectrum_lanczos(lossfn, params, k: int, seed=0) -> LanczosResult:
    params = list(params)
    n = ad.flatten_params(params).size
    return lanczos(ad.hvp_operator(lossfn, params), n, k, seed)


# ---------------------------------------------------------------------------
# Multi-run aggregation.

@dataclass(kw_only=True)
class RunRecord:
    """Outcome of one seeded training run, keyed by a configuration
    fingerprint.  The fields, in order, are the columns of ``runs.csv``."""

    variant: str
    replicate: int = 0
    seed: int
    width: int = 0
    fingerprint: str
    status: str = "ok"
    metric: float  # validation accuracy or loss
    ratio: float = float("nan")
    normalized_ratio: float = float("nan")
    hessian_trace: float = float("nan")
    hessian_trace_stderr: float = float("nan")
    f_near_zero: float = float("nan")
    hessian_params: int = 0  # parameter count the three Hessian fields span; 0 if not run


@dataclass
class GroupStats:
    """One fingerprint's metric distribution; the fields, in order, are the
    columns of ``groups.csv``."""

    fingerprint: str
    variant: str
    count: int
    mean: float
    median: float
    q1: float
    q3: float
    lo: float
    hi: float
    outliers: list = field(default_factory=list)


def _stats_for(values, fingerprint, variant) -> GroupStats:
    vals = np.asarray(values, dtype=np.float64)
    q1, med, q3 = np.percentile(vals, [25, 50, 75])
    iqr = q3 - q1
    fence_lo, fence_hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    outliers = sorted(float(v) for v in vals if v < fence_lo or v > fence_hi)
    return GroupStats(
        fingerprint=fingerprint, variant=variant, count=vals.size,
        mean=float(vals.mean()), median=float(med), q1=float(q1), q3=float(q3),
        lo=float(vals.min()), hi=float(vals.max()), outliers=outliers,
    )


def aggregate_runs(records) -> dict:
    """Group successful records by fingerprint; per group report count, mean,
    median, quartiles, extent, and 1.5*IQR outliers."""
    groups = {}
    for rec in records:
        if rec.status != "ok":
            continue
        groups.setdefault(rec.fingerprint, []).append(rec)
    out = {}
    for fp, recs in groups.items():
        out[fp] = _stats_for([r.metric for r in recs], fp, recs[0].variant)
    return out


@dataclass
class Hist2D:
    a_edges: np.ndarray
    r_edges: np.ndarray
    counts: np.ndarray
    density: np.ndarray


def histogram_2d(records, bins: int = 20, a_range=None) -> Hist2D:
    """Joint density over (metric, normalized participation ratio on [0, 1])."""
    ok = [r for r in records if r.status == "ok" and np.isfinite(r.normalized_ratio)]
    if not ok:
        raise ValueError("no records with participation ratios to bin")
    a_vals = np.array([r.metric for r in ok])
    r_vals = np.array([r.normalized_ratio for r in ok])
    if a_range is None:
        a_range = (float(a_vals.min()), float(max(a_vals.max(), a_vals.min() + 1e-12)))
    counts, a_edges, r_edges = np.histogram2d(
        a_vals, r_vals, bins=bins, range=[list(a_range), [0.0, 1.0]])
    area = np.outer(np.diff(a_edges), np.diff(r_edges))
    total = counts.sum()
    density = counts / (total * area) if total > 0 else counts
    return Hist2D(a_edges=a_edges, r_edges=r_edges, counts=counts, density=density)


# ---------------------------------------------------------------------------
# Emission.

def field_names(cls, *skip) -> list:
    """The names of a dataclass's fields, in order, less ``skip``."""
    return [f.name for f in fields(cls) if f.name not in skip]


def write_run_records_csv(records, path) -> None:
    write_csv(path, field_names(RunRecord), map(astuple, records))


def write_group_stats_csv(groups: dict, path) -> None:
    write_csv(path, field_names(GroupStats), (astuple(groups[fp]) for fp in sorted(groups)))


def write_hist2d_csv(hist: Hist2D, path) -> None:
    write_csv(path, ("a_lo", "a_hi", "r_lo", "r_hi", "count", "density"), (
        (hist.a_edges[i], hist.a_edges[i + 1], hist.r_edges[j], hist.r_edges[j + 1],
         int(hist.counts[i, j]), hist.density[i, j])
        for i in range(hist.counts.shape[0]) for j in range(hist.counts.shape[1])))


def write_summary_json(groups: dict, path, extra: dict = None) -> None:
    obj = {"groups": {}}
    if extra:
        obj.update(extra)
    for fp in sorted(groups):
        obj["groups"][fp] = {k: v for k, v in asdict(groups[fp]).items() if k != "fingerprint"}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")
