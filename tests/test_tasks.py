"""Dataset container round-trips, the synthetic digit generator, and the
van der Pol integrator with its forecasting dataset."""

import hashlib
import math

import numpy as np
import pytest

from ldnn import tasks
from ldnn.tasks import (Dataset, DatasetFormatError, OscillatorState, Synth1DParams,
                        rk4_step, vdp_derivative)


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    return (a.task == b.task and a.num_classes == b.num_classes
            and np.array_equal(a.inputs, b.inputs)
            and np.array_equal(a.targets, b.targets))


class TestContainer:
    def test_roundtrip_classification(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.uniform(-3, 3, size=(7, 5)), rng.integers(0, 4, size=7),
                     task="classification", num_classes=4)
        path = tmp_path / "cls.dsv"
        tasks.save_dataset(ds, path)
        loaded = tasks.load_dataset(path)
        assert datasets_equal(ds, loaded)
        assert path.read_text().splitlines()[0] == "#dsv1 task=classification D=5 K=4 M=7"

    def test_roundtrip_regression_with_norm(self, tmp_path):
        train, _ = tasks.build_vdp_forecast_dataset(n_transient=200, n_samples=50, seed=1)
        path = tmp_path / "reg.dsv"
        tasks.save_dataset(train, path)
        loaded = tasks.load_dataset(path)
        assert datasets_equal(train, loaded)
        np.testing.assert_array_equal(loaded.norm.input_mean, train.norm.input_mean)
        np.testing.assert_array_equal(loaded.norm.target_std, train.norm.target_std)

    def test_header_shape(self, tmp_path):
        path = tmp_path / "two.dsv"
        path.write_text("#dsv1 task=classification D=40 K=10 M=2\n"
                        + ",".join(["0.0"] * 40) + ",3\n"
                        + ",".join(["1.0"] * 40) + ",9\n")
        ds = tasks.load_dataset(path)
        assert ds.inputs.shape == (2, 40)
        assert list(ds.targets) == [3, 9]

    def test_empty_body(self, tmp_path):
        path = tmp_path / "empty.dsv"
        path.write_text("#dsv1 task=classification D=2 K=2 M=0\n")
        with pytest.raises(DatasetFormatError, match="no examples"):
            tasks.load_dataset(path)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "bad.dsv"
        path.write_text("#dsv1 task=classification D=2 K=10 M=1\n0.0,1.0,10\n")
        with pytest.raises(DatasetFormatError, match="schema error: label 10"):
            tasks.load_dataset(path)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "short.dsv"
        path.write_text("#dsv1 task=classification D=2 K=2 M=3\n0.0,1.0,0\n")
        with pytest.raises(DatasetFormatError, match="schema error: header says M=3"):
            tasks.load_dataset(path)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "garbled.dsv"
        path.write_text("#dsv1 task=regression D=2 O=1 M=2\n0.0,1.0,0.5\n0.0,oops,0.5\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            tasks.load_dataset(path)

    def test_parse_error_counts_blank_lines(self, tmp_path):
        # the bad field is on line 6 of the file, after two blank lines
        path = tmp_path / "gaps.dsv"
        path.write_text("#dsv1 task=regression D=2 O=1 M=3\n0.0,1.0,0.5\n\n"
                        "0.5,1.0,0.5\n\n0.0,oops,0.5\n")
        with pytest.raises(DatasetFormatError, match="line 6:"):
            tasks.load_dataset(path)

    def test_field_count_error(self, tmp_path):
        path = tmp_path / "fields.dsv"
        path.write_text("#dsv1 task=classification D=3 K=2 M=1\n0.0,1.0,0\n")
        with pytest.raises(DatasetFormatError, match="expected 4 fields"):
            tasks.load_dataset(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.dsv"
        path.write_text("#dsv2 whatever\n")
        with pytest.raises(DatasetFormatError, match="line 1"):
            tasks.load_dataset(path)


class TestWriteCsv:
    @pytest.mark.parametrize("x", [0.1 + 0.2, 5e-324, float("nan"), np.float64(1 / 3)],
                             ids=["sum", "subnormal", "nan", "np-float64"])
    def test_float_reads_back_bitwise(self, tmp_path, x):
        tasks.write_csv(tmp_path / "f.csv", ("x",), [(x,)])
        header, cell = (tmp_path / "f.csv").read_text().splitlines()
        assert header == "x"
        assert np.float64(float(cell)).tobytes() == np.float64(x).tobytes()


class TestSynthetic1D:
    def test_degenerate_params_nearest_template_perfect(self):
        quiet = Synth1DParams(translate=0, shear=0.0, noise_smooth=0.0, noise_white=0.0)
        ds = tasks.generate_synthetic_1d(seed=0, m=200, params=quiet)
        prototypes = np.empty((10, quiet.n_points))
        rng = np.random.default_rng(99)
        for c in range(10):
            prototypes[c] = tasks._render_example(tasks.STROKE_TEMPLATES[c], rng, quiet)
        dists = np.linalg.norm(ds.inputs[:, None, :] - prototypes[None, :, :], axis=2)
        assert np.array_equal(np.argmin(dists, axis=1), ds.targets)

    def test_same_seed_identical(self):
        a = tasks.generate_synthetic_1d(seed=5, m=50)
        b = tasks.generate_synthetic_1d(seed=5, m=50)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.targets, b.targets)

    @pytest.mark.parametrize("seed, m, params, digest", [
        (0, 500, Synth1DParams(),
         "3bd49d2f073017791ee25ae9f6430f3d266bae3cf9c675f97128ffb5118164eb"),
        (1, 200, Synth1DParams(noise_smooth=0.0),
         "7883025ff855fc80aa826d1745e559c94c80e122f426d7a6d0bfa3153c0ba5fa"),
        (2, 200, Synth1DParams(canvas=64, n_points=32, smooth_width=5, shear=0.0),
         "a684f0868d971c10ecbc23775ca7937803845efa45ab352c62fe2b1efbbf7193"),
    ], ids=["default", "no-smooth-noise", "other-canvas"])
    def test_bytes_pinned(self, seed, m, params, digest):
        """The SHA-256 of the inputs' and labels' bytes is pinned, so a
        rewrite of the generator keeps its draws and its arithmetic.  The
        digests hold for NumPy 2.4 on a little-endian machine."""
        ds = tasks.generate_synthetic_1d(seed, m, params)
        assert hashlib.sha256(ds.inputs.tobytes() + ds.targets.tobytes()).hexdigest() == digest

    def test_different_seed_differs(self):
        a = tasks.generate_synthetic_1d(seed=5, m=50)
        b = tasks.generate_synthetic_1d(seed=6, m=50)
        assert not np.array_equal(a.inputs, b.inputs)

    def test_class_balance(self):
        ds = tasks.generate_synthetic_1d(seed=1, m=1000)
        counts = np.bincount(ds.targets, minlength=10)
        assert np.all(np.abs(counts - 100) <= 10)

    def test_shape_and_finiteness(self):
        ds = tasks.generate_synthetic_1d(seed=2, m=64)
        assert ds.inputs.shape == (64, 40)
        assert np.all(np.isfinite(ds.inputs))
        assert ds.num_classes == 10

    def test_not_linearly_easy(self):
        """Default distortions put a linear model well below a relu network."""
        from ldnn import metalearn as ml, nn
        train = tasks.generate_synthetic_1d(seed=3, m=2000, split="train")
        val = tasks.generate_synthetic_1d(seed=4, m=600, split="val")
        schedule = ml.TrainSchedule(inner_lr=0.01, batch_size=100, epochs=8,
                                    optimizer="adam", seed=0)
        relu_cfg = nn.mlp_config(40, 100, 10, (nn.ActivationSpec.builtin("relu"),))
        relu_params, _ = ml.train(relu_cfg, schedule, train, val)
        linear_cfg = nn.NetworkConfig(input_dim=40, layers=(), output_dim=10,
                                      activations=(), task="classification")
        linear_params, _ = ml.train(linear_cfg, schedule, train, val)
        relu_acc = ml.evaluate(relu_params, relu_cfg, val)
        linear_acc = ml.evaluate(linear_params, linear_cfg, val)
        assert linear_acc < relu_acc


class TestVdpDerivative:
    def test_fixed_point(self):
        assert vdp_derivative(OscillatorState(0.0, 0.0), 2.7) == (0.0, 0.0)

    def test_hand_evaluation(self):
        dx, dv = vdp_derivative(OscillatorState(1.0, 1.0), 2.7)
        assert (dx, dv) == (1.0, -1.0)

    def test_mu_independent_on_axis(self):
        for mu in (0.0, 1.0, 2.7):
            assert vdp_derivative(OscillatorState(2.0, 0.0), mu) == (0.0, -2.0)


class TestRk4:
    def test_harmonic_period(self):
        """mu = 0 is the harmonic oscillator: one period returns to (1, 0)."""
        state = OscillatorState(1.0, 0.0)
        h = 1e-3
        n = int(2 * math.pi / h)
        state = tasks.integrate(state, h, n, mu=0.0)
        remainder = 2 * math.pi - n * h
        state = rk4_step(state, remainder, 0.0)
        assert math.hypot(state.x - 1.0, state.v) < 1e-9

    def test_energy_conservation(self):
        state = OscillatorState(1.0, 0.0)
        e0 = 0.5 * (state.x ** 2 + state.v ** 2)
        state = tasks.integrate(state, 1e-3, 10_000, mu=0.0)
        e1 = 0.5 * (state.x ** 2 + state.v ** 2)
        assert abs(e1 - e0) / e0 < 1e-8

    def test_fourth_order_convergence(self):
        """Halving h cuts the end-state error ~16x (Richardson h/10 reference)."""
        t_end, mu = 1.0, 2.7
        start = OscillatorState(0.5, 0.0)

        def end_state(h):
            s = tasks.integrate(OscillatorState(start.x, start.v), h, int(round(t_end / h)), mu)
            return np.array([s.x, s.v])

        ref = end_state(0.002)
        err_h = np.linalg.norm(end_state(0.02) - ref)
        err_h2 = np.linalg.norm(end_state(0.01) - ref)
        assert 8.0 < err_h / err_h2 < 32.0

    def test_small_step_matches_derivative(self):
        state = OscillatorState(0.7, -0.3)
        h = 1e-6
        nxt = rk4_step(state, h, 2.7)
        dx, dv = vdp_derivative(state, 2.7)
        assert abs(nxt.x - (state.x + h * dx)) < 1e-11
        assert abs(nxt.v - (state.v + h * dv)) < 1e-11
        assert nxt.t == pytest.approx(h)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            rk4_step(OscillatorState(1.0, 0.0), 0.0, 2.7)


class TestForecastDataset:
    def test_consecutive_sampling_before_standardization(self):
        train, val = tasks.build_vdp_forecast_dataset(n_transient=500, n_samples=400, seed=3)
        norm = train.norm
        # rebuild the raw sequence: every target must equal the next input
        raw_in = {tuple(np.round(r, 12)) for r in
                  np.vstack([norm.denormalize_inputs(train.inputs),
                             norm.denormalize_inputs(val.inputs)])}
        raw_targets = np.vstack([norm.denormalize_targets(train.targets),
                                 norm.denormalize_targets(val.targets)])
        hits = sum(tuple(np.round(t, 12)) in raw_in for t in raw_targets)
        assert hits >= raw_targets.shape[0] - 1  # the final target has no successor input

    def test_limit_cycle_amplitude(self):
        state = tasks.integrate(OscillatorState(0.5, 0.0), 1e-3, 50_000, mu=2.7)
        max_x = 0.0
        for _ in range(20_000):
            state = rk4_step(state, 1e-3, 2.7)
            max_x = max(max_x, abs(state.x))
        assert abs(max_x - 2.0) < 0.2

    def test_integrator_is_perfect_predictor(self):
        train, val = tasks.build_vdp_forecast_dataset(n_transient=1000, n_samples=500, seed=4)
        for ds in (train, val):
            raw_in = ds.norm.denormalize_inputs(ds.inputs)
            preds = np.array([[s.x, s.v] for s in
                              (rk4_step(OscillatorState(x, v), 0.01, 2.7) for x, v in raw_in)])
            mse = np.mean((ds.norm.normalize_targets(preds) - ds.targets) ** 2)
            assert mse < 1e-8

    def test_standardization_moments(self):
        train, _ = tasks.build_vdp_forecast_dataset(n_transient=500, n_samples=600, seed=5)
        assert np.abs(train.inputs.mean(axis=0)).max() < 1e-10
        assert np.abs(train.inputs.var(axis=0) - 1.0).max() < 1e-10
        assert np.abs(train.targets.mean(axis=0)).max() < 1e-10

    def test_split_sizes_and_tags(self):
        train, val = tasks.build_vdp_forecast_dataset(n_transient=200, n_samples=100, seed=6,
                                                      val_fraction=0.25)
        assert train.n_examples == 75 and val.n_examples == 25
        assert train.split == "train" and val.split == "val"
        assert train.norm is val.norm

    @pytest.mark.parametrize("val_fraction", [-0.1, 0, 0.995, 1.0, 1.5])
    def test_empty_split_rejected_before_integrating(self, monkeypatch, val_fraction):
        monkeypatch.setattr(tasks, "integrate", lambda *a: pytest.fail("integrated"))
        with pytest.raises(ValueError, match="val_fraction"):
            tasks.build_vdp_forecast_dataset(n_transient=200, n_samples=50, seed=1,
                                             val_fraction=val_fraction)

    def test_divergence_guard(self):
        with pytest.raises(tasks.TrajectoryDiverged):
            tasks.build_vdp_forecast_dataset(x0=1.0, v0=0.0, mu=2.7, h=1.5,
                                             n_transient=5000, n_samples=10, seed=7)
