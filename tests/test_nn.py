"""Network construction, per-type activations, and tabulated extraction."""

import re

import numpy as np
import pytest

import ldnn.autodiff as ad
from ldnn import nn
from ldnn.autodiff import ShapeError, Tensor
from ldnn.nn import ActivationSpec, LayerSpec, NetworkConfig


def subnet_config(base="sine", width=6, types=(0, 1), task="classification",
                  input_dim=4, output_dim=3, hidden_width=5, seed=0):
    acts = tuple(ActivationSpec.subnet(base, hidden_width) for _ in range(max(types) + 1))
    return nn.mlp_config(input_dim, width, output_dim, acts, types=types, task=task, seed=seed)


class TestSpecs:
    def test_builtin_validation(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            ActivationSpec.builtin("gelu")

    def test_tabulated_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            ActivationSpec.tabulated([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="length"):
            ActivationSpec.tabulated([0.0], [1.0])

    @pytest.mark.parametrize("grid, values, message", [
        ((0.0, float("nan"), 1.0), (0.0, 1.0, 2.0), "grid[1] must be finite, got nan"),
        ((0.0, 1.0, 2.0), (0.0, float("inf"), 2.0), "values[1] must be finite, got inf"),
        ((float("-inf"), 1.0), (0.0, 1.0), "grid[0] must be finite, got -inf"),
    ], ids=["nan-grid", "infinite-value", "infinite-grid"])
    def test_tabulated_rejects_non_finite(self, grid, values, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ActivationSpec.tabulated(grid, values)

    def test_layer_assignment_length(self):
        with pytest.raises(ValueError, match="assignment length"):
            LayerSpec(3, (0, 0))

    def test_config_rejects_undeclared_type(self):
        with pytest.raises(ValueError, match="not declared"):
            NetworkConfig(input_dim=2, layers=(LayerSpec(2, (0, 1)),), output_dim=1,
                          activations=(ActivationSpec.builtin("tanh"),))

    def test_mixed_assignment_equal_split(self):
        a = nn.mixed_assignment(100, [0, 1])
        assert a[:4] == (0, 1, 0, 1)
        counts = np.bincount(a)
        assert abs(counts[0] - counts[1]) <= 1


class TestInit:
    def test_subnet_starts_at_base(self):
        config = subnet_config()
        params = nn.init_network(config, seed=3)
        grid = np.linspace(-5, 5, 101)
        for t, sp in params.subnets.items():
            spec = config.activations[t]
            diff = nn.eval_activation(spec, grid, sp) - ad.UNARY[spec.name][0](grid)
            assert np.abs(diff).max() < 1e-12

    def test_zero_base_starts_null(self):
        config = subnet_config(base="zero", types=(0,))
        params = nn.init_network(config, seed=1)
        grid = np.linspace(-5, 5, 51)
        out = nn.eval_activation(config.activations[0], grid, params.subnets[0])
        np.testing.assert_array_equal(out, np.zeros(51))

    def test_same_seed_bitwise_identical(self):
        config = subnet_config()
        p1 = nn.init_network(config, seed=11)
        p2 = nn.init_network(config, seed=11)
        for a, b in zip(p1.all_tensors(), p2.all_tensors()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_partition_sizes(self):
        config = subnet_config(width=6, hidden_width=5, types=(0, 1))
        params = nn.init_network(config)
        assert nn.theta_size(params) == 4 * 6 + 6 + 6 * 3 + 3
        assert nn.theta_a_size(params) == 2 * (3 * 5 + 1)

    def test_weight_range_respects_fan_in(self):
        config = subnet_config(input_dim=16, width=8, types=(0,))
        params = nn.init_network(config, seed=5)
        w = params.weights[0].data
        assert np.abs(w).max() <= 1.0 / 4.0


class TestForward:
    def test_identity_network_passes_through(self):
        spec = ActivationSpec.builtin("identity")
        config = nn.mlp_config(3, 3, 3, (spec,), task="regression")
        params = nn.init_network(config)
        params.weights[0].assign(np.eye(3))
        params.biases[0].assign(np.zeros(3))
        params.weights[1].assign(np.eye(3))
        params.biases[1].assign(np.zeros(3))
        x = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])
        out, pre, act = nn.forward(params, config, x)
        np.testing.assert_array_equal(out.data, x)
        np.testing.assert_array_equal(pre.data, x)
        np.testing.assert_array_equal(act.data, x)

    def test_single_sine_neuron(self):
        spec = ActivationSpec.builtin("sine")
        config = nn.mlp_config(1, 1, 1, (spec,), task="regression")
        params = nn.init_network(config)
        params.weights[0].assign([[1.0]])
        params.biases[0].assign([0.0])
        _, _, act = nn.forward(params, config, [[np.pi / 2]])
        np.testing.assert_allclose(act.data, [[1.0]], atol=1e-15)

    def test_batch_width_checked(self):
        config = subnet_config(input_dim=4)
        params = nn.init_network(config)
        with pytest.raises(ShapeError, match="input_dim"):
            nn.forward(params, config, np.ones((2, 5)))

    def test_mixed_layer_matches_scalar_evaluation(self):
        """Each neuron's activity equals its own spec applied to its preactivation."""
        config = nn.mlp_config(
            4, 6, 2,
            (ActivationSpec.subnet("sine", 5), ActivationSpec.builtin("relu")),
            types=(0, 1), task="regression",
        )
        params = nn.init_network(config, seed=9)
        # give the learned type a visible residual
        rng = np.random.default_rng(10)
        params.subnets[0].w2.assign(rng.uniform(-0.5, 0.5, size=5))
        params.subnets[0].b2.assign(0.3)
        x = rng.uniform(-1, 1, size=(7, 4))
        _, pre, act = nn.forward(params, config, x)
        assignment = config.layers[0].assignment
        for j in range(6):
            spec = config.activations[assignment[j]]
            expect = nn.eval_activation(spec, pre.data[:, j], params.subnets.get(assignment[j]))
            np.testing.assert_allclose(act.data[:, j], expect, atol=1e-12)

    def test_same_preactivation_different_types_differ(self):
        config = nn.mlp_config(
            2, 4, 2,
            (ActivationSpec.builtin("tanh"), ActivationSpec.builtin("sine")),
            types=(0, 1), task="regression",
        )
        params = nn.init_network(config, seed=2)
        # identical columns of W so every neuron sees the same preactivation
        params.weights[0].assign(np.tile([[0.7], [-0.4]], (1, 4)))
        params.biases[0].assign(np.full(4, 0.2))
        x = np.random.default_rng(3).uniform(-1, 1, size=(5, 2))
        _, pre, act = nn.forward(params, config, x)
        np.testing.assert_allclose(pre.data[:, 0], pre.data[:, 1], atol=1e-15)
        assert np.abs(act.data[:, 0] - act.data[:, 1]).max() > 1e-3
        np.testing.assert_array_equal(act.data[:, 0], act.data[:, 2])
        np.testing.assert_array_equal(act.data[:, 1], act.data[:, 3])

    def test_batch_equals_rowwise(self):
        config = subnet_config(types=(0, 1), task="regression")
        params = nn.init_network(config, seed=4)
        rng = np.random.default_rng(5)
        params.subnets[0].w2.assign(rng.uniform(-0.5, 0.5, size=5))
        params.subnets[1].w2.assign(rng.uniform(-0.5, 0.5, size=5))
        x = rng.uniform(-2, 2, size=(6, 4))
        out_batch, _, _ = nn.forward(params, config, x)
        rows = [nn.forward(params, config, x[i:i + 1])[0].data for i in range(6)]
        np.testing.assert_allclose(out_batch.data, np.vstack(rows), atol=1e-12)

    def test_homogeneous_relu_matches_reference(self):
        config = nn.mlp_config(5, 7, 3, (ActivationSpec.builtin("relu"),))
        params = nn.init_network(config, seed=6)
        x = np.random.default_rng(7).uniform(-1, 1, size=(9, 5))
        out, _, _ = nn.forward(params, config, x)
        w1, b1 = params.weights[0].data, params.biases[0].data
        w2, b2 = params.weights[1].data, params.biases[1].data
        ref = np.maximum(x @ w1 + b1, 0.0) @ w2 + b2
        np.testing.assert_array_equal(out.data, ref)

    def test_gradients_flow_to_both_partitions(self):
        config = subnet_config(types=(0, 1), task="regression", output_dim=2)
        params = nn.init_network(config, seed=8)
        x = np.random.default_rng(9).uniform(-1, 1, size=(5, 4))
        y = np.random.default_rng(10).uniform(-1, 1, size=(5, 2))
        out, _, _ = nn.forward(params, config, x)
        grads = ad.backward(ad.mse(out, Tensor(y)))
        assert np.abs(grads[params.weights[0]]).max() > 0
        # residual output weights start at zero but still receive gradient
        assert np.abs(grads[params.subnets[0].w2]).max() > 0


def elementwise(x, value, slope):
    """value(x) elementwise as one tape op, with its backward rule only."""
    xd = x.data
    return ad._make("elementwise", value(xd), (x,),
                    lambda g, _needs, _overwrite: (g * slope(xd),), None)


def reshape(x, shape):
    """x reshaped as one tape op, with its backward rule only."""
    xd = x.data
    return ad._make("reshape", xd.reshape(shape), (x,),
                    lambda g, _needs, _overwrite: (g.reshape(xd.shape),), None)


def reference_layer(z, layer, config, params):
    """A hidden layer's activations from elementary tape ops: 0/1 selection
    matrices gather each type's columns and scatter them back, and a subnet
    is the reshape/matmul/add/tanh chain of its residual on the base."""
    m, k = z.data.shape
    assignment = np.asarray(layer.assignment)
    acc = None
    for t in np.unique(assignment).tolist():
        cols = np.flatnonzero(assignment == t)
        sel = np.zeros((k, cols.size))
        sel[cols, np.arange(cols.size)] = 1.0
        zc = ad.matmul(z, Tensor(sel))
        spec = config.activations[t]
        if spec.kind == "builtin":
            y = elementwise(zc, *ad.UNARY[spec.name][:2])
        elif spec.kind == "tabulated":
            y = elementwise(zc, lambda v: np.interp(v, spec.grid, spec.values),
                            lambda v: ad.interp_slopes(
                                v, spec.grid, np.diff(spec.values) / np.diff(spec.grid)))
        else:
            sp = params.subnets[t]
            h = sp.hidden_width
            flat = reshape(zc, (m * cols.size, 1))
            hid = elementwise(ad.add(ad.matmul(flat, reshape(sp.w1, (1, h))), sp.b1),
                              *ad.UNARY["tanh"][:2])
            res = ad.add(ad.matmul(hid, reshape(sp.w2, (h, 1))), sp.b2)
            y = reshape(ad.add(elementwise(flat, *ad.UNARY[spec.name][:2]), res), zc.shape)
        part = ad.matmul(y, Tensor(sel.T))
        acc = part if acc is None else ad.add(acc, part)
    return acc


def test_tape_free_forward_bitwise_taped():
    """Dropping each hidden layer in a tape-free pass changes no bit: two
    hidden layers over sub-networks of widths 7 and 33 and a builtin."""
    acts = (ActivationSpec.subnet("sine", 7), ActivationSpec.subnet("tanh", 33),
            ActivationSpec.builtin("relu"))
    config = NetworkConfig(5, (LayerSpec(9, (0, 1, 2) * 3), LayerSpec(6, (2, 1, 0, 0, 1, 2))),
                           3, acts)
    params = nn.init_network(config, seed=4)
    for sp in params.subnets.values():  # non-zero residuals
        sp.w2.assign(np.random.default_rng(5).uniform(-1, 1, sp.w2.data.shape))
    x = np.random.default_rng(6).standard_normal((700, 5))
    taped = nn.forward(params, config, x)
    with ad.no_grad():
        free = nn.forward(params, config, x)
    for a, b in zip(taped, free):
        assert a.data.tobytes() == b.data.tobytes()
    assert taped[0].node is not None and free[0].node is None


class TestFusedLayer:
    @staticmethod
    def mixed_net():
        """Two hidden layers sharing two subnet types, with a builtin and a
        tabulated type, in assignments that do not interleave regularly."""
        grid = np.linspace(-3, 3, 13)
        acts = (ActivationSpec.subnet("sine", 5), ActivationSpec.subnet("sigmoid", 4),
                ActivationSpec.builtin("tanh"),
                ActivationSpec.tabulated(grid, np.sin(grid) + 0.1 * grid ** 2))
        layers = (LayerSpec(7, (2, 0, 0, 1, 3, 1, 2)), LayerSpec(5, (0, 3, 3, 1, 2)))
        config = NetworkConfig(input_dim=3, layers=layers, output_dim=2,
                               activations=acts, task="regression")
        params = nn.init_network(config, seed=31)
        rng = np.random.default_rng(32)
        for sp in params.subnets.values():
            sp.w2.assign(rng.uniform(-0.5, 0.5, size=sp.hidden_width))
            sp.b2.assign(rng.uniform(-0.5, 0.5))
        x = rng.uniform(-1.5, 1.5, size=(9, 3))
        y = rng.uniform(-1, 1, size=(9, 2))
        return params, config, x, y

    def test_matches_elementary_reference(self):
        params, config, x, y = self.mixed_net()
        out, _, _ = nn.forward(params, config, x)
        loss = ad.mse(out, Tensor(y))

        a = Tensor(x)
        for i, layer in enumerate(config.layers):
            z = ad.add(ad.matmul(a, params.weights[i]), params.biases[i])
            a = reference_layer(z, layer, config, params)
        ref_out = ad.add(ad.matmul(a, params.weights[2]), params.biases[2])
        ref_loss = ad.mse(ref_out, Tensor(y))

        np.testing.assert_allclose(out.data, ref_out.data, rtol=0, atol=1e-12)
        grads, ref_grads = ad.backward(loss), ad.backward(ref_loss)
        tensors = params.all_tensors()
        assert len(tensors) == 6 + 2 * 4
        for t in tensors:
            assert t in grads and t in ref_grads
            np.testing.assert_allclose(grads[t], ref_grads[t], rtol=0, atol=1e-12)


class TestEvalActivation:
    def test_builtin_sine_at_zero(self):
        assert float(nn.eval_activation(ActivationSpec.builtin("sine"), 0.0)) == 0.0

    def test_tabulated_midpoint(self):
        spec = ActivationSpec.tabulated([-1.0, 1.0], [-1.0, 1.0])
        assert float(nn.eval_activation(spec, 0.0)) == 0.0

    def test_subnet_matches_hand_computation(self):
        spec = ActivationSpec.subnet("sigmoid", 3)
        sp = nn.SubnetParams(
            w1=Tensor([0.5, -1.0, 2.0], requires_grad=True),
            b1=Tensor([0.1, 0.2, -0.3], requires_grad=True),
            w2=Tensor([1.5, -0.5, 0.25], requires_grad=True),
            b2=Tensor(np.asarray(0.7), requires_grad=True),
        )
        for a in [-2.0, -0.5, 0.0, 1.0, 3.0]:
            hand = (ad.sigmoid_values(a)
                    + 1.5 * np.tanh(0.5 * a + 0.1)
                    - 0.5 * np.tanh(-1.0 * a + 0.2)
                    + 0.25 * np.tanh(2.0 * a - 0.3) + 0.7)
            got = float(nn.eval_activation(spec, a, sp))
            np.testing.assert_allclose(got, hand, rtol=1e-12)

    def test_subnet_requires_params(self):
        with pytest.raises(ValueError, match="parameter block"):
            nn.eval_activation(ActivationSpec.subnet("tanh"), 1.0)


class TestExtraction:
    def test_identity_equivalent_subnet_roundtrip(self):
        config = subnet_config(base="identity", types=(0,))
        params = nn.init_network(config, seed=12)
        spec = config.activations[0]
        tab = nn.extract_tabulated(spec, params.subnets[0], -2.0, 2.0, 401)
        probe = np.linspace(-2, 2, 1603)
        direct = nn.eval_activation(spec, probe, params.subnets[0])
        interp = nn.eval_activation(tab, probe)
        assert np.abs(interp - direct).max() < 1e-4

    def test_two_points_exact_on_linear(self):
        spec = ActivationSpec.builtin("identity")
        tab = nn.extract_tabulated(spec, None, -3.0, 3.0, 2)
        probe = np.linspace(-3, 3, 61)
        np.testing.assert_allclose(nn.eval_activation(tab, probe), probe, atol=1e-12)

    def test_clamped_outside_range(self):
        spec = ActivationSpec.builtin("identity")
        tab = nn.extract_tabulated(spec, None, -1.0, 1.0, 11)
        assert float(nn.eval_activation(tab, 10.0)) == 1.0
        assert float(nn.eval_activation(tab, -10.0)) == -1.0

    def test_invalid_range(self):
        with pytest.raises(ValueError, match="range"):
            nn.extract_tabulated(ActivationSpec.builtin("tanh"), None, 2.0, -2.0)
        with pytest.raises(ValueError, match="n_points"):
            nn.extract_tabulated(ActivationSpec.builtin("tanh"), None, -2.0, 2.0, 1)

    def test_nonsmooth_default_grid_error(self):
        """Default 601-point grid keeps tanh-smooth interpolation under 1e-3."""
        config = subnet_config(base="tanh", types=(0,))
        params = nn.init_network(config, seed=13)
        rng = np.random.default_rng(14)
        params.subnets[0].w2.assign(rng.uniform(-0.3, 0.3, size=5))
        spec = config.activations[0]
        tab = nn.extract_tabulated(spec, params.subnets[0])
        probe = np.linspace(-6, 6, 4801)
        err = np.abs(nn.eval_activation(tab, probe)
                     - nn.eval_activation(spec, probe, params.subnets[0])).max()
        assert err < 1e-3


class TestActivityMatrix:
    def test_selector_row(self):
        spec = ActivationSpec.builtin("identity")
        config = nn.mlp_config(3, 1, 1, (spec,), task="regression")
        params = nn.init_network(config)
        params.weights[0].assign([[1.0], [0.0], [0.0]])
        params.biases[0].assign([0.0])
        inputs = np.column_stack([np.arange(5.0), np.ones(5), -np.ones(5)])
        X = nn.hidden_activity_matrix(params, config, inputs)
        assert X.shape == (1, 5)
        np.testing.assert_array_equal(X[0], np.arange(5.0))

    def test_zero_activation_all_zero(self):
        config = nn.mlp_config(3, 4, 2, (ActivationSpec.builtin("zero"),))
        params = nn.init_network(config, seed=1)
        X = nn.hidden_activity_matrix(params, config, np.ones((6, 3)))
        np.testing.assert_array_equal(X, np.zeros((4, 6)))

    def test_shape_and_finiteness(self):
        config = subnet_config(width=10, types=(0, 1), input_dim=4)
        params = nn.init_network(config, seed=2)
        X = nn.hidden_activity_matrix(params, config, np.random.default_rng(3).uniform(-1, 1, (20, 4)))
        assert X.shape == (10, 20)
        assert np.all(np.isfinite(X))


class TestSerialization:
    def test_activation_json_roundtrip(self, tmp_path):
        tab = nn.extract_tabulated(ActivationSpec.builtin("sine"), None, -3.0, 3.0, 25)
        path = tmp_path / "act.json"
        nn.save_activation_json(tab, path, provenance={"base": "sine", "task": "demo", "seed": 0})
        loaded = nn.load_activation_json(path)
        assert loaded == tab

    def test_params_snapshot_roundtrip_exact(self, tmp_path):
        config = subnet_config(types=(0, 1))
        params = nn.init_network(config, seed=21)
        rng = np.random.default_rng(22)
        params.subnets[0].w2.assign(rng.standard_normal(5))
        path = tmp_path / "params.json"
        nn.save_params(params, config, path)
        loaded, config2 = nn.load_params(path)
        assert config2 == config
        for a, b in zip(params.all_tensors(), loaded.all_tensors()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_mixed_two_layer_snapshot_roundtrip_bitwise(self, tmp_path):
        """Subnets of two widths, a builtin and a tabulated type over two
        layers: the snapshot passes the loader's shape checks and loads
        bitwise."""
        acts = (ActivationSpec.subnet("sine", 5), ActivationSpec.subnet("tanh", 3),
                ActivationSpec.builtin("relu"),
                ActivationSpec.tabulated([-1.0, 0.0, 1.0], [0.0, 0.5, 0.25]))
        layers = (LayerSpec(7, (2, 0, 0, 1, 3, 1, 2)), LayerSpec(5, (0, 3, 3, 1, 2)))
        config = NetworkConfig(input_dim=3, layers=layers, output_dim=2, activations=acts,
                               task="regression", seed=4)
        params = nn.init_network(config)
        rng = np.random.default_rng(23)
        for t in params.all_tensors():
            t.assign(rng.standard_normal(t.data.shape))
        path = tmp_path / "params.json"
        nn.save_params(params, config, path)
        loaded, config2 = nn.load_params(path)
        assert config2 == config
        assert sorted(loaded.subnets) == sorted(params.subnets)
        for a, b in zip(params.all_tensors(), loaded.all_tensors()):
            assert (a.data.shape, a.data.tobytes()) == (b.data.shape, b.data.tobytes())

    def test_config_dict_roundtrip(self):
        config = nn.mlp_config(
            4, 6, 2,
            (ActivationSpec.subnet("sine", 5), ActivationSpec.builtin("relu"),
             ActivationSpec.tabulated([-1.0, 0.0, 1.0], [0.0, 0.5, 0.25])),
            types=(0, 1, 2), task="regression", seed=7,
        )
        assert nn.config_from_dict(nn.config_to_dict(config)) == config
