"""Participation ratio and Hessian instruments against independent oracles."""

import dataclasses

import numpy as np
import pytest

import ldnn.autodiff as ad
import ldnn.diagnostics as dg
from ldnn import nn
from ldnn.autodiff import Tensor
from ldnn.nn import ActivationSpec


def activity_with_spectrum(eigenvalues, m=50_000, seed=0):
    """Gaussian activity whose covariance has (approximately) the given spectrum."""
    rng = np.random.default_rng(seed)
    n = len(eigenvalues)
    z = rng.standard_normal((n, m))
    return np.sqrt(np.asarray(eigenvalues))[:, None] * z


def tiny_trained_net(seed=0):
    """Small smooth regression net with ~23 parameters, lightly fit."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(30, 2))
    y = np.column_stack([np.sin(2 * x[:, 0]), x.prod(axis=1)])
    config = nn.mlp_config(2, 4, 2, (ActivationSpec.builtin("tanh"),), task="regression")
    params = nn.init_network(config, seed=seed)

    def lossfn():
        out, _, _ = nn.forward(params, config, x)
        return ad.mse(out, Tensor(y))

    from ldnn import metalearn as ml
    opt = ml.Adam(0.02)
    for _ in range(300):
        grads = ad.backward(lossfn())
        opt.update(params.theta(), grads)
    return lossfn, params.theta()


class TestParticipationRatio:
    def test_single_dimension_gives_one(self):
        X = np.zeros((5, 400))
        X[0] = np.random.default_rng(0).standard_normal(400)
        summary = dg.participation_ratio(X)
        assert summary.ratio == pytest.approx(1.0, abs=1e-9)

    def test_isotropic_gives_n(self):
        # zero-mean orthogonal rows (Hadamard) make the centered covariance
        # exactly isotropic
        h2 = np.array([[1.0, 1.0], [1.0, -1.0]])
        h8 = np.kron(h2, np.kron(h2, h2))
        X = np.tile(h8[1:7], 10) * 3.0  # 6 neurons, 80 inputs
        summary = dg.participation_ratio(X)
        assert summary.ratio == pytest.approx(6, abs=1e-9)

    def test_arithmetic_example(self):
        # eigenvalues (3, 1): R = 16 / 10 = 1.6; realize them exactly
        X = np.array([[np.sqrt(3.0), -np.sqrt(3.0), np.sqrt(3.0), -np.sqrt(3.0)],
                      [1.0, 1.0, -1.0, -1.0]])
        summary = dg.participation_ratio(X)
        assert summary.ratio == pytest.approx(1.6, abs=1e-12)

    def test_matches_trace_oracle(self):
        """Eigenvalue route equals the trace route computed without eigensolves."""
        rng = np.random.default_rng(1)
        X = rng.standard_normal((5, 500)) * rng.uniform(0.5, 2.0, size=(5, 1))
        summary = dg.participation_ratio(X)
        Xc = X - X.mean(axis=1, keepdims=True)
        C = Xc @ Xc.T / X.shape[1]
        oracle = np.trace(C) ** 2 / np.sum(C * C)
        assert summary.ratio == pytest.approx(oracle, rel=1e-10)
        assert summary.normalized == pytest.approx(oracle / 5, rel=1e-10)

    def test_constant_activity_rejected(self):
        with pytest.raises(dg.DegenerateActivityError):
            dg.participation_ratio(np.full((4, 100), 2.5))

    def test_permutation_and_scale_invariance(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((8, 300))
        base = dg.participation_ratio(X).ratio
        perm = rng.permutation(8)
        assert abs(dg.participation_ratio(X[perm]).ratio - base) < 1e-10
        assert abs(dg.participation_ratio(-3.7 * X).ratio - base) < 1e-10

    def test_bounds_property(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            X = rng.standard_normal((n, 80)) * rng.uniform(0.1, 3.0, size=(n, 1))
            r = dg.participation_ratio(X)
            assert 1.0 - 1e-9 <= r.ratio <= n + 1e-9
            assert 0.0 < r.normalized <= 1.0 + 1e-9

    def test_input_validation(self):
        with pytest.raises(ValueError):
            dg.participation_ratio(np.ones((3, 1)))
        with pytest.raises(ValueError):
            dg.participation_ratio(np.ones(10))


class QuadraticLoss:
    """0.5 x^T A x as a tape loss over one parameter vector."""

    def __init__(self, a_mat, x0=None):
        self.a = np.asarray(a_mat, dtype=np.float64)
        n = self.a.shape[0]
        self.x = Tensor(np.zeros(n) if x0 is None else x0, requires_grad=True)

    def __call__(self):
        return ad.matmul(ad.matmul(self.x, Tensor(0.5 * self.a)), self.x)

    @property
    def params(self):
        return [self.x]


def per_probe_reference(hvp, n, n_probes, seed, lan):
    """Deflated Hutchinson value and stderr from a per-probe loop: each
    probe projected by the run's basis, then z . Hz."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n_probes):
        z = rng.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0
        z -= lan.basis.T @ (lan.basis @ z)
        samples.append(z @ hvp(z))
    return lan.ritz_values.sum() + np.mean(samples), np.std(samples, ddof=1) / np.sqrt(n_probes)


class TestNearZeroFraction:
    def test_one_relative_rule(self):
        """|lambda| < 1e-3 max|lambda|, whatever the spectrum's scale; an
        all-zero spectrum is all near zero on every path."""
        eig = np.array([2.0, 1.5e-3, 2.5e-3])
        assert dg.near_zero_fraction(eig) == 1 / 3
        for scale in (2.0 ** 20, 2.0 ** -20):
            assert dg.near_zero_fraction(scale * eig) == 1 / 3
        assert dg.near_zero_fraction(np.zeros(4)) == 1.0
        assert dg.lanczos(lambda z: 0.0 * z, 6, 3).f_near_zero == 1.0
        x = Tensor(np.ones(3), requires_grad=True)
        linear = dg.hessian_exact(lambda: ad.matmul(x, Tensor(np.arange(3.0))), [x])
        np.testing.assert_array_equal(linear.eigenvalues, np.zeros(3))
        assert linear.f_near_zero == 1.0


class TestHessianExact:
    def test_diagonal_quadratic(self):
        loss = QuadraticLoss(np.diag([2.0, 4.0]))
        summary = dg.hessian_exact(loss, loss.params)
        np.testing.assert_allclose(summary.eigenvalues, [4.0, 2.0], atol=1e-7)
        assert summary.trace == pytest.approx(6.0, abs=1e-7)

    def test_asymmetry_small_before_symmetrization(self):
        lossfn, params = tiny_trained_net()
        H = dg.hessian_matrix(lossfn, params)
        assert np.abs(H - H.T).max() < 1e-5

    def test_blocks_match_basis_vectors(self):
        """H from identity column blocks equals H from single basis vectors."""
        lossfn, params = tiny_trained_net()
        n = ad.flatten_params(params).size
        hvp = ad.hvp_operator(lossfn, params)
        H = dg.hessian_matrix(lossfn, params)
        for i in range(n):
            col = hvp(np.eye(n)[i])
            assert np.abs(H[:, i] - col).max() <= 1e-12 * np.abs(col).max()

    def test_eigenvalue_sum_equals_trace(self):
        lossfn, params = tiny_trained_net()
        summary = dg.hessian_exact(lossfn, params)
        assert abs(summary.eigenvalues.sum() - summary.trace) < 1e-8 * summary.n_params

    def test_cap_refused(self):
        loss = QuadraticLoss(np.eye(5))
        with pytest.raises(dg.CapExceededError, match="spectrum_lanczos"):
            dg.hessian_exact(loss, loss.params, cap=4)


class TestHutchinson:
    def test_diagonal_exact_per_probe(self):
        d = np.array([1.0, 2.0, 3.0])
        est = dg.hutchinson_trace(lambda z: d[:, None] * z, 3, n_probes=16, seed=0)
        assert est.value == pytest.approx(6.0, abs=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)

    def test_operator_must_keep_block_shape(self):
        d = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=r"shape \(4, 3\) for a \(3, 4\) block"):
            dg.hutchinson_trace(lambda Z: (d[:, None] * Z).T, 3, n_probes=4)

    def test_blocks_draw_the_per_probe_loop_probes(self):
        """The probes are the ones a per-probe loop draws, in order, and
        reach the operator in blocks of ``HVP_BLOCK_TANGENTS`` columns
        and a remainder."""
        dim, n_probes = 7, 2 * dg.HVP_BLOCK_TANGENTS + 1
        blocks = []
        dg.hutchinson_trace(lambda Z: blocks.append(Z.copy()) or Z, dim, n_probes, seed=3)
        assert [b.shape[1] for b in blocks] == [dg.HVP_BLOCK_TANGENTS] * 2 + [1]
        rng = np.random.default_rng(3)
        expected = [rng.integers(0, 2, size=dim).astype(np.float64) * 2.0 - 1.0
                    for _ in range(n_probes)]
        assert np.array_equal(np.hstack(blocks), np.column_stack(expected))

    def test_blocks_match_per_probe_reference(self):
        """The deflated trace, its probes riding with the Lanczos steps,
        matches a per-probe loop.  At k = 2 five of the probes follow the
        steps in blocks of their own."""
        lossfn, params = tiny_trained_net()
        n = ad.flatten_params(params).size
        hvp = ad.hvp_operator(lossfn, params)
        n_probes = 3 * dg.HVP_BLOCK_TANGENTS - 1
        for k in (4, 2):
            est, lan = dg.deflated_trace(hvp, n, k, n_probes, trace_seed=5, lanczos_seed=2)
            value, stderr = per_probe_reference(hvp, n, n_probes, 5, lan)
            assert abs(est.value - value) <= 1e-12 * abs(value)
            assert abs(est.stderr - stderr) <= 1e-12 * stderr

    def test_within_three_stderr_of_exact(self):
        lossfn, params = tiny_trained_net()
        exact = dg.hessian_exact(lossfn, params)
        est = dg.hessian_trace_hutchinson(lossfn, params, n_probes=200, seed=1)
        assert abs(est.value - exact.trace) <= 3 * max(est.stderr, 1e-12)

    def test_reproducible(self):
        lossfn, params = tiny_trained_net()
        a = dg.hessian_trace_hutchinson(lossfn, params, n_probes=20, seed=7)
        b = dg.hessian_trace_hutchinson(lossfn, params, n_probes=20, seed=7)
        assert a.value == b.value and a.stderr == b.stderr

    def test_unbiased_on_diagonally_dominant(self):
        rng = np.random.default_rng(4)
        n = 12
        A = np.diag(rng.uniform(1.0, 3.0, size=n))
        off = rng.standard_normal((n, n)) * 0.02
        A = A + 0.5 * (off + off.T)
        est = dg.hutchinson_trace(lambda z: A @ z, n, n_probes=10_000, seed=5)
        assert abs(est.value - np.trace(A)) / np.trace(A) < 0.01

    def test_needs_two_probes(self):
        with pytest.raises(ValueError):
            dg.hutchinson_trace(lambda z: z, 3, n_probes=1)

    def test_deflation_by_full_basis_is_exact(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((10, 10))
        A = A + A.T
        est, _ = dg.deflated_trace(lambda V: A @ V, 10, 10, n_probes=4, trace_seed=0,
                                   lanczos_seed=3)
        assert est.value == pytest.approx(np.trace(A), abs=1e-9)
        assert est.stderr == pytest.approx(0.0, abs=1e-9)

    def test_deflated_within_three_stderr_of_exact(self):
        lossfn, params = tiny_trained_net()
        exact = dg.hessian_exact(lossfn, params)
        est, _ = dg.deflated_trace(ad.hvp_operator(lossfn, params), exact.n_params, 5,
                                   n_probes=200, trace_seed=1, lanczos_seed=2)
        assert abs(est.value - exact.trace) <= 3 * max(est.stderr, 1e-12)

    def test_deflation_cuts_outlier_variance(self):
        # a few large eigenvalues over a small bulk, as in a trained loss Hessian
        rng = np.random.default_rng(12)
        n = 200
        U, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eig = np.concatenate([[80.0, 40.0, 20.0, 10.0], rng.uniform(0.0, 0.5, size=n - 4)])
        A = (U * eig) @ U.T
        plain = dg.hutchinson_trace(lambda z: A @ z, n, n_probes=64, seed=5)
        defl, _ = dg.deflated_trace(lambda V: A @ V, n, 16, n_probes=64, trace_seed=5,
                                    lanczos_seed=6)
        assert defl.stderr < plain.stderr / 10
        assert abs(defl.value - eig.sum()) <= 3 * defl.stderr
        assert abs(plain.value - eig.sum()) <= 3 * plain.stderr


class TestDeflatedTrace:
    @pytest.mark.parametrize("n_probes, k, widths", [
        (64, 32, [3] * 32),
        (4, 6, [2] * 4 + [1] * 2),
        (9, 2, [4, 4, 3]),
        (5, 1, [4, 2]),
    ])
    def test_application_schedule(self, n_probes, k, widths):
        """Step j applies [q_j | up to HVP_BLOCK_TANGENTS - 1 probes]; the
        probes the steps cannot carry follow in blocks of their own.
        Together the probes are the ones ``hutchinson_trace`` draws."""
        dim = 40
        rng = np.random.default_rng(14)
        A = rng.standard_normal((dim, dim))
        A = A + A.T
        blocks = []
        est, lan = dg.deflated_trace(lambda V: blocks.append(V.copy()) or A @ V, dim, k,
                                     n_probes, trace_seed=3, lanczos_seed=4)
        assert [b.shape[1] for b in blocks] == widths
        assert max(widths) <= dg.HVP_BLOCK_TANGENTS
        assert len(lan.basis) == k
        assert np.array_equal(np.column_stack([b[:, 0] for b in blocks[:k]]), lan.basis.T)
        drawn = []
        dg.hutchinson_trace(lambda Z: drawn.append(Z.copy()) or Z, dim, n_probes, seed=3)
        riders = np.hstack([b[:, 1:] for b in blocks[:k]] + blocks[k:])
        assert np.array_equal(riders, np.hstack(drawn))
        assert est.n_probes == n_probes

    def test_rank_one_breaks_down_and_applies_every_probe(self):
        u = np.random.default_rng(15).standard_normal(6)
        A = np.outer(u, u)
        blocks = []
        est, lan = dg.deflated_trace(lambda V: blocks.append(V.copy()) or A @ V, 6, 5,
                                     n_probes=7, trace_seed=1, lanczos_seed=2)
        # the Krylov space of a rank-one operator is span{q_0, u}
        assert lan.breakdown and len(lan.basis) == 2
        # two probes rode each step; the other three followed in one block
        assert [b.shape[1] for b in blocks] == [3, 3, 3]
        riders = np.hstack([blocks[0][:, 1:], blocks[1][:, 1:], blocks[2]])
        assert np.array_equal(riders.T, dg.rademacher_probes(6, 7, seed=1))
        assert est.value == pytest.approx(u @ u, rel=1e-12)
        assert est.stderr <= 1e-12 * (u @ u)


class TestLanczos:
    def test_full_rank_recovers_diagonal(self):
        d = np.arange(1.0, 11.0)
        res = dg.lanczos(lambda z: d[:, None] * z, 10, k=10, seed=0)
        np.testing.assert_allclose(res.ritz_values, d[::-1], atol=1e-8)
        assert not res.breakdown
        assert res.weights.sum() == pytest.approx(1.0, abs=1e-10)

    def test_k1_is_rayleigh_quotient(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((8, 8))
        A = 0.5 * (A + A.T)
        q = np.random.default_rng(9).standard_normal(8)
        q /= np.linalg.norm(q)
        res = dg.lanczos(lambda z: A @ z, 8, k=1, seed=9)
        assert res.ritz_values[0] == pytest.approx(q @ A @ q, rel=1e-10)

    def test_extremes_match_exact_hessian(self):
        lossfn, params = tiny_trained_net()
        exact = dg.hessian_exact(lossfn, params)
        n = exact.n_params
        res = dg.spectrum_lanczos(lossfn, params, k=min(20, n), seed=2)
        assert abs(res.ritz_values[0] - exact.eigenvalues[0]) < 1e-4
        assert abs(res.ritz_values[-1] - exact.eigenvalues[-1]) < 1e-4

    def test_ritz_values_inside_spectrum(self):
        lossfn, params = tiny_trained_net()
        exact = dg.hessian_exact(lossfn, params)
        res = dg.spectrum_lanczos(lossfn, params, k=10, seed=3)
        lo, hi = exact.eigenvalues[-1], exact.eigenvalues[0]
        assert np.all(res.ritz_values >= lo - 1e-6)
        assert np.all(res.ritz_values <= hi + 1e-6)

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((12, 12))
        A = A + A.T
        res = dg.lanczos(lambda z: A @ z, 12, k=6, seed=1)
        assert res.basis.shape == (6, 12)
        np.testing.assert_allclose(res.basis @ res.basis.T, np.eye(6), atol=1e-12)
        # the Ritz values sum to tr(Q A Q^T), which deflation takes as exact
        assert res.ritz_values.sum() == pytest.approx(np.trace(res.basis @ A @ res.basis.T))

    def test_breakdown_flagged(self):
        # operator of rank 1: the Krylov space is exhausted after one step
        u = np.zeros(6)
        u[0] = 1.0
        res = dg.lanczos(lambda z: np.outer(u, u @ z), 6, k=4, seed=4)
        assert res.breakdown
        assert res.ritz_values.size < 4
        assert res.basis.shape == (res.ritz_values.size, 6)

    def test_breakdown_is_scale_free(self):
        """A tiny multiple of an operator runs the same steps and gives the
        same Ritz values, to scale, and the same near-zero fraction."""
        rng = np.random.default_rng(16)
        U, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        eig = np.concatenate([rng.uniform(1.0, 5.0, 10), rng.uniform(-1e-5, 1e-5, 20)])
        A = (U * eig) @ U.T
        full = dg.lanczos(lambda z: A @ z, 30, k=12, seed=5)
        tiny = dg.lanczos(lambda z: 1e-13 * (A @ z), 30, k=12, seed=5)
        assert not tiny.breakdown and len(tiny.basis) == 12
        top = np.abs(full.ritz_values).max()
        assert np.abs(tiny.ritz_values / 1e-13 - full.ritz_values).max() <= 1e-10 * top
        assert full.f_near_zero > 0.5
        assert tiny.f_near_zero == pytest.approx(full.f_near_zero, rel=1e-12)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            dg.lanczos(lambda z: z, 3, k=4)

    def test_vector_operator_rejected(self):
        """An operator written for (dim,) vectors broadcasts a (dim, 1)
        block to (dim, dim), whose column 0 is not A q."""
        d = np.arange(1.0, 4.0)
        with pytest.raises(ValueError, match=r"shape \(3, 3\) for a \(3, 1\) block"):
            dg.lanczos(lambda z: d * z, 3, k=2)


class TestAggregation:
    @staticmethod
    def record(metric, fp="fp0", variant="mix", **kw):
        return dg.RunRecord(seed=0, fingerprint=fp, variant=variant, metric=metric, **kw)

    def test_single_record_degenerate(self):
        groups = dg.aggregate_runs([self.record(0.5)])
        g = groups["fp0"]
        assert g.count == 1
        assert g.mean == g.median == g.q1 == g.q3 == g.lo == g.hi == 0.5
        assert g.outliers == []

    def test_quartiles_of_arange(self):
        groups = dg.aggregate_runs([self.record(float(v)) for v in range(5)])
        g = groups["fp0"]
        assert (g.median, g.q1, g.q3) == (2.0, 1.0, 3.0)

    def test_outlier_rule(self):
        vals = [1.0, 1.1, 0.9, 1.05, 0.95, 10.0]
        groups = dg.aggregate_runs([self.record(v) for v in vals])
        assert groups["fp0"].outliers == [10.0]

    def test_failed_runs_excluded(self):
        recs = [self.record(0.5), self.record(float("nan"), status="diverged")]
        recs[1].status = "diverged"
        groups = dg.aggregate_runs(recs)
        assert groups["fp0"].count == 1

    def test_deterministic_reaggregation(self):
        rng = np.random.default_rng(8)
        recs = [self.record(float(v), fp=f"fp{i % 3}", variant=f"v{i % 3}")
                for i, v in enumerate(rng.uniform(0, 1, size=50))]
        a = dg.aggregate_runs(recs)
        b = dg.aggregate_runs(list(recs))
        assert a == b

    def test_histogram_2d(self):
        recs = [self.record(0.1 * i, normalized_ratio=0.05 + 0.09 * i) for i in range(10)]
        hist = dg.histogram_2d(recs, bins=5, a_range=(0.0, 1.0))
        assert hist.counts.sum() == 10
        assert hist.counts.shape == (5, 5)
        # density integrates to one
        area = np.outer(np.diff(hist.a_edges), np.diff(hist.r_edges))
        assert float((hist.density * area).sum()) == pytest.approx(1.0)


class TestEmission:
    def test_runs_header_is_the_record_fields(self, tmp_path):
        dg.write_run_records_csv([], tmp_path / "runs.csv")
        header = (tmp_path / "runs.csv").read_text().splitlines()[0].split(",")
        assert header == [f.name for f in dataclasses.fields(dg.RunRecord)]
        assert header == ["variant", "replicate", "seed", "width", "fingerprint", "status",
                          "metric", "ratio", "normalized_ratio", "hessian_trace",
                          "hessian_trace_stderr", "f_near_zero", "hessian_params"]

    def test_outliers_joined_by_semicolon(self, tmp_path):
        g = dg.GroupStats(fingerprint="fpA", variant="mix", count=5, mean=0.5, median=0.5,
                          q1=0.4, q3=0.6, lo=0.1, hi=0.1 + 0.2, outliers=[0.1, 0.1 + 0.2])
        dg.write_group_stats_csv({"fpA": g}, tmp_path / "groups.csv")
        lines = (tmp_path / "groups.csv").read_text().splitlines()
        assert lines == ["fingerprint,variant,count,mean,median,q1,q3,lo,hi,outliers",
                         "fpA,mix,5,0.5,0.5,0.4,0.6,0.1,0.30000000000000004,"
                         "0.1;0.30000000000000004"]

    def test_csv_and_json_writers(self, tmp_path):
        recs = [dg.RunRecord(seed=i, fingerprint="fpA", variant="mix", metric=0.5 + 0.01 * i,
                             normalized_ratio=0.4, ratio=40.0) for i in range(4)]
        dg.write_run_records_csv(recs, tmp_path / "runs.csv")
        lines = (tmp_path / "runs.csv").read_text().splitlines()
        assert lines[0].startswith("variant,replicate,seed")
        assert len(lines) == 5

        groups = dg.aggregate_runs(recs)
        dg.write_group_stats_csv(groups, tmp_path / "groups.csv")
        assert len((tmp_path / "groups.csv").read_text().splitlines()) == 2

        dg.write_summary_json(groups, tmp_path / "summary.json", extra={"task": "demo"})
        import json
        obj = json.loads((tmp_path / "summary.json").read_text())
        assert obj["task"] == "demo"
        assert obj["groups"]["fpA"]["count"] == 4

        hist = dg.histogram_2d(recs, bins=4, a_range=(0.0, 1.0))
        dg.write_hist2d_csv(hist, tmp_path / "hist.csv")
        assert len((tmp_path / "hist.csv").read_text().splitlines()) == 1 + 16
