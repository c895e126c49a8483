"""Inner/outer alternating optimization: losses, partition discipline, history."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

import ldnn.autodiff as ad
import ldnn.metalearn as ml
from ldnn import nn
from ldnn.autodiff import Tensor
from ldnn.nn import ActivationSpec


@dataclass
class Data:
    inputs: np.ndarray
    targets: np.ndarray


def toy_classification(m=20, d=4, k=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(m, d))
    y = rng.integers(0, k, size=m)
    return Data(x, y)


def toy_regression(m=16, d=4, o=2, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(m, d))
    y = rng.uniform(-1, 1, size=(m, o))
    return Data(x, y)


def subnet_cfg(task="classification", types=(0, 1), width=6, d=4, o=3, base="sine"):
    acts = tuple(ActivationSpec.subnet(base, 5) for _ in range(max(types) + 1))
    return nn.mlp_config(d, width, o, acts, types=types, task=task)


class TestLosses:
    def test_uniform_logits(self):
        loss = ad.softmax_cross_entropy(Tensor(np.zeros((4, 10))), np.array([3, 0, 9, 5]))
        np.testing.assert_allclose(float(loss.data), math.log(10), rtol=1e-12)

    def test_saturated_correct_is_zero(self):
        labels = np.array([0, 2, 1])
        logits = np.zeros((3, 3))
        logits[np.arange(3), labels] = 1e6
        loss = ad.softmax_cross_entropy(Tensor(logits), labels)
        assert 0.0 <= float(loss.data) < 1e-9

    def test_cross_entropy_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        logits = rng.uniform(-3, 3, size=(4, 3))
        labels = rng.integers(0, 3, size=4)
        total = 0.0
        for i in range(4):
            row = logits[i]
            p = np.exp(row) / np.exp(row).sum()
            total += -math.log(p[labels[i]])
        loss = ad.softmax_cross_entropy(Tensor(logits), labels)
        np.testing.assert_allclose(float(loss.data), total / 4, rtol=1e-10)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label out of range"):
            ad.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_mse_cases(self):
        x = np.random.default_rng(2).uniform(-1, 1, size=(3, 2))
        assert float(ad.mse(Tensor(x), Tensor(x.copy())).data) == 0.0
        assert float(ad.mse(Tensor(x + 1.0), Tensor(x)).data) == pytest.approx(1.0)
        y = np.random.default_rng(3).uniform(-1, 1, size=(3, 2))
        oracle = float(np.mean((x - y) ** 2))
        np.testing.assert_allclose(float(ad.mse(Tensor(x), Tensor(y)).data), oracle, rtol=1e-12)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.mse(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))


class TestOptimizers:
    def test_plain_sgd_hand_case(self):
        # L = (w - 2)^2 at w = 0, lr 0.1: gradient -4, update to 0.4
        w = Tensor(np.zeros(()), requires_grad=True)
        loss = ad.mse(w, Tensor(np.asarray(2.0)))
        grads = ad.backward(loss)
        ml.PlainSgd(0.1).update([w], grads)
        assert float(w.data) == pytest.approx(0.4, abs=1e-15)

    def test_adam_first_step_size(self):
        # bias correction makes the first step lr-sized regardless of gradient scale
        w = Tensor(np.zeros(1), requires_grad=True)
        ml.Adam(0.01).update([w], {w: np.array([1e-3])})
        np.testing.assert_allclose(w.data, [-0.01], rtol=1e-4)

    @pytest.mark.parametrize("kind", ml.OPTIMIZERS)
    def test_group_update_matches_per_tensor_reference(self, kind):
        """One update over a group of tensors gives bitwise the values of
        the tensor-by-tensor rule, step after step."""
        rng = np.random.default_rng(5)
        shapes = [(4, 3), (3,), (), (2, 5)]
        group = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
        ref = [t.data.copy() for t in group]
        state = [(0.0, 0.0, 0)] * len(group)
        opt = ml.OPTIMIZERS[kind](0.01)
        for _ in range(3):
            grads = {t: rng.standard_normal(t.data.shape) for t in group}
            opt.update(group, grads)
            for i, t in enumerate(group):
                g = grads[t]
                m, v, n = state[i]
                if kind == "plain":
                    ref[i] = ref[i] - 0.01 * g
                else:
                    m = 0.9 * m + (1 - 0.9) * g
                    v = 0.999 * v + (1 - 0.999) * g * g
                    m_hat, v_hat = m / (1 - 0.9 ** (n + 1)), v / (1 - 0.999 ** (n + 1))
                    ref[i] = ref[i] - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
                state[i] = (m, v, n + 1)
        for t, r in zip(group, ref):
            assert t.data.shape == r.shape and np.array_equal(t.data, r)


class TestSteps:
    def test_inner_leaves_subnets_untouched(self):
        config = subnet_cfg()
        params = nn.init_network(config, seed=1)
        before = [t.data.copy() for t in params.theta_a()]
        data = toy_classification()
        schedule = ml.TrainSchedule(optimizer="plain")
        ml.inner_step(params, config, (data.inputs, data.targets), schedule)
        for prev, t in zip(before, params.theta_a()):
            np.testing.assert_array_equal(prev, t.data)

    def test_outer_leaves_theta_untouched(self):
        config = subnet_cfg()
        params = nn.init_network(config, seed=1)
        before = [t.data.copy() for t in params.theta()]
        data = toy_classification()
        schedule = ml.TrainSchedule(optimizer="plain")
        ml.outer_step(params, config, (data.inputs, data.targets), schedule)
        for prev, t in zip(before, params.theta()):
            np.testing.assert_array_equal(prev, t.data)
        # and the outer step did move something
        assert any(np.abs(t.data).max() > 0 for t in params.theta_a())

    def test_ten_inner_steps_decrease_separable_loss(self):
        config = nn.mlp_config(2, 4, 2, (ActivationSpec.builtin("tanh"),))
        params = nn.init_network(config, seed=2)
        data = Data(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]))
        schedule = ml.TrainSchedule(optimizer="plain", inner_lr=0.05)
        losses = [ml.inner_step(params, config, (data.inputs, data.targets), schedule)
                  for _ in range(10)]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_first_outer_gradient_on_output_bias(self):
        """d(loss)/d(b2) from the tape matches a finite difference on b2."""
        config = subnet_cfg(types=(0,), task="regression", o=2)
        params = nn.init_network(config, seed=3)
        data = toy_regression()
        b2 = params.subnets[0].b2
        loss = ml.batch_loss(params, config, data.inputs, data.targets)
        analytic = float(ad.backward(loss)[b2])

        def loss_at(v):
            b2.assign(np.asarray(v))
            with ad.no_grad():
                return float(ml.batch_loss(params, config, data.inputs, data.targets).data)

        h = 1e-6
        numeric = (loss_at(h) - loss_at(-h)) / (2 * h)
        b2.assign(np.asarray(0.0))
        assert abs(analytic - numeric) / max(1.0, abs(numeric)) < 1e-5

    def test_descent_property_small_step(self):
        config = subnet_cfg(task="regression", o=2)
        params = nn.init_network(config, seed=4)
        data = toy_regression()
        schedule = ml.TrainSchedule(optimizer="plain", inner_lr=1e-4)
        before = ml.inner_step(params, config, (data.inputs, data.targets), schedule)
        with ad.no_grad():
            after = float(ml.batch_loss(params, config, data.inputs, data.targets).data)
        assert after <= before

    def test_non_finite_loss_aborts(self):
        config = nn.mlp_config(3, 4, 2, (ActivationSpec.builtin("identity"),), task="regression")
        params = nn.init_network(config, seed=5)
        data = Data(np.full((4, 3), 1e200), np.zeros((4, 2)))
        schedule = ml.TrainSchedule(optimizer="plain")
        with np.errstate(over="ignore"):
            with pytest.raises(ml.TrainingDiverged, match="non-finite"):
                ml.inner_step(params, config, (data.inputs, data.targets), schedule)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            ml.TrainSchedule(outer_steps=0)
        with pytest.raises(ValueError):
            ml.TrainSchedule(inner_lr=0.0)
        with pytest.raises(ValueError):
            ml.TrainSchedule(optimizer="adagrad")

    @pytest.mark.parametrize("field, value, message", [
        ("epochs", 2.5, "epochs must be an integer, got 2.5"),
        ("batch_size", True, "batch_size must be an integer, got True"),
        ("outer_period", 2.0, "outer_period must be an integer, got 2.0"),
        ("outer_steps", 1.0, "outer_steps must be an integer, got 1.0"),
        ("outer_lr", math.inf, "outer_lr=inf"),
        ("inner_lr", math.nan, "inner_lr=nan"),
    ], ids=["float-epochs", "boolean-batch-size", "float-outer-period", "float-outer-steps",
            "infinite-outer-lr", "nan-inner-lr"])
    def test_schedule_field_types(self, field, value, message):
        """Counts are integers, booleans excluded, and rates are finite."""
        with pytest.raises(ValueError, match=re.escape(message)):
            ml.TrainSchedule(**{field: value})


def tape_nodes(loss):
    """Nodes on the tape behind ``loss``."""
    seen, stack, count = set(), [loss], 0
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            if t.node is not None:
                count += 1
                stack.extend(t.node.parents)
    return count


def test_mix_net_batch_loss_tape_size():
    """matmul, bias add, one fused activation, matmul, bias add, loss."""
    mix = (ActivationSpec.subnet("sine", 50), ActivationSpec.subnet("sine", 50))
    config = nn.mlp_config(4, 20, 10, mix)
    params = nn.init_network(config, seed=3)
    data = toy_classification(m=100, d=4, k=10)
    assert tape_nodes(ml.batch_loss(params, config, data.inputs, data.targets)) == 6


class TestTrain:
    def small_sets(self, task="classification"):
        if task == "classification":
            return toy_classification(m=30, seed=6), toy_classification(m=12, seed=7)
        return toy_regression(m=30, seed=6), toy_regression(m=12, seed=7)

    def test_fixed_seed_bitwise_identical(self):
        config = subnet_cfg()
        schedule = ml.TrainSchedule(batch_size=10, epochs=3, outer_period=2, seed=42)
        train_set, val_set = self.small_sets()
        p1, h1 = ml.train(config, schedule, train_set, val_set)
        p2, h2 = ml.train(config, schedule, train_set, val_set)
        assert h1.records == h2.records
        assert h1.val == h2.val
        for a, b in zip(p1.all_tensors(), p2.all_tensors()):
            np.testing.assert_array_equal(a.data, b.data)
        for t in h1.snapshots:
            for (s1, v1), (s2, v2) in zip(h1.snapshots[t], h2.snapshots[t]):
                assert s1 == s2
                np.testing.assert_array_equal(v1, v2)

    def test_no_val_set_skips_validation_only(self, monkeypatch):
        """Without a validation set no validation pass runs, and the
        weights, losses and snapshots are bitwise those of a run with one."""
        config = subnet_cfg()
        schedule = ml.TrainSchedule(batch_size=10, epochs=3, outer_period=2, seed=43)
        train_set, val_set = self.small_sets()
        p1, h1 = ml.train(config, schedule, train_set, val_set)
        monkeypatch.setattr(ml, "evaluate", lambda *a: pytest.fail("validation pass ran"))
        p2, h2 = ml.train(config, schedule, train_set)
        assert len(h1.val) == 3 and h2.val == []
        assert h1.records == h2.records
        for a, b in zip(p1.all_tensors(), p2.all_tensors()):
            assert a.data.tobytes() == b.data.tobytes()
        for t in h1.snapshots:
            assert [(s, v.tobytes()) for s, v in h1.snapshots[t]] == \
                [(s, v.tobytes()) for s, v in h2.snapshots[t]]

    def test_frozen_subnet_equals_builtin_base(self):
        """A subnet net whose outer loop never fires is the homogeneous base
        network."""
        train_set, val_set = self.small_sets()
        sub = nn.mlp_config(4, 6, 3, (ActivationSpec.subnet("tanh", 5),))
        base = nn.mlp_config(4, 6, 3, (ActivationSpec.builtin("tanh"),))
        # 3 epochs of 3 batches: the first outer event would follow step 10
        schedule = ml.TrainSchedule(batch_size=10, epochs=3, outer_period=10, seed=9)
        p_sub, h_sub = ml.train(sub, schedule, train_set, val_set)
        p_base, h_base = ml.train(base, schedule, train_set, val_set)
        assert len(h_sub.records) == len(h_base.records) == 9
        for (s1, e1, ph1, l1), (s2, e2, ph2, l2) in zip(h_sub.records, h_base.records):
            assert (s1, e1, ph1) == (s2, e2, ph2)
            assert abs(l1 - l2) < 1e-12
        assert all(ph == "inner" for _, _, ph, _ in h_base.records)
        for a, b in zip(p_sub.theta(), p_base.theta()):
            np.testing.assert_array_equal(a.data, b.data)
        # frozen residual stayed exactly zero
        np.testing.assert_array_equal(p_sub.subnets[0].w2.data, np.zeros(5))

    def test_builtin_only_runs_no_outer_phase(self):
        train_set, val_set = self.small_sets()
        config = nn.mlp_config(4, 6, 3, (ActivationSpec.builtin("relu"),))
        schedule = ml.TrainSchedule(batch_size=10, epochs=2, seed=10)
        params, history = ml.train(config, schedule, train_set, val_set)
        assert all(phase == "inner" for _, _, phase, _ in history.records)
        assert not params.subnets

    def test_outer_phase_fires_on_schedule(self):
        train_set, val_set = self.small_sets()
        config = subnet_cfg()
        schedule = ml.TrainSchedule(batch_size=10, epochs=2, outer_period=3, outer_steps=2, seed=11)
        _, history = ml.train(config, schedule, train_set, val_set)
        inner_steps = [r[0] for r in history.records if r[2] == "inner"]
        outer_steps = [r[0] for r in history.records if r[2] == "outer"]
        assert len(inner_steps) == 6  # 3 batches/epoch * 2 epochs
        assert outer_steps == [3, 3, 6, 6]

    def test_snapshot_at_step_zero_is_base_tabulation(self):
        train_set, val_set = self.small_sets()
        config = subnet_cfg(base="sine")
        schedule = ml.TrainSchedule(batch_size=10, epochs=1, seed=12)
        _, history = ml.train(config, schedule, train_set, val_set)
        step0, values = history.snapshots[0][0]
        assert step0 == 0
        np.testing.assert_array_equal(values, np.sin(history.snapshot_grid))

    def test_history_csv(self, tmp_path):
        train_set, val_set = self.small_sets()
        config = subnet_cfg()
        schedule = ml.TrainSchedule(batch_size=10, epochs=2, outer_period=2, seed=13)
        _, history = ml.train(config, schedule, train_set, val_set)
        path = tmp_path / "history.csv"
        ml.write_history_csv(history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,epoch,train_loss,val_metric,phase"
        assert len(lines) == len(history.records) + 1
        rows = [l.split(",") for l in lines[1:]]
        assert {r[4] for r in rows} == {"inner", "outer"}
        with_val = [r for r in rows if r[3]]
        assert len(with_val) == schedule.epochs

    def test_activation_trace_csv(self, tmp_path):
        train_set, val_set = self.small_sets()
        config = subnet_cfg()
        schedule = ml.TrainSchedule(batch_size=10, epochs=1, seed=14)
        _, history = ml.train(config, schedule, train_set, val_set)
        path = tmp_path / "trace.csv"
        ml.write_activation_trace_csv(history, 0, path)
        lines = path.read_text().splitlines()
        n_snaps = len(history.snapshots[0])
        assert len(lines) == 1 + n_snaps * history.snapshot_grid.size


# Trains the benchmark's mix net (width 20, two sine/50 sub-networks,
# batches of 100 of 4000 digits) for 2 epochs without a validation set, and
# prints the minor page faults per inner or outer step.
FAULTS_PER_STEP = """
import resource
import numpy as np
from ldnn import metalearn as ml, nn, tasks
train_set = tasks.generate_synthetic_1d(np.random.SeedSequence(5), 4000, split="train")
mix = (nn.ActivationSpec.subnet("sine", 50), nn.ActivationSpec.subnet("sine", 50))
config = nn.mlp_config(train_set.n_features, 20, 10, mix)
schedule = ml.TrainSchedule(batch_size=100, epochs=2, seed=3)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
_, history = ml.train(config, schedule, train_set)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(history.records))
"""


def test_training_steps_reuse_their_memory():
    """A training step reuses the memory the step before it freed: without
    validation passes, glibc's dynamic trim threshold would give each step's
    hidden layers back to the kernel (about 165 faults per step).  A fresh
    process, as the allocator settings are process state."""
    import ctypes

    if not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("libc has no mallopt")
    src = os.path.dirname(os.path.dirname(ml.__file__))
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", FAULTS_PER_STEP], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert float(out) < 5


class TestEvaluate:
    def test_one_hidden_layer_at_a_time(self):
        """A tape-free pass drops each sub-network group's hidden layer
        before the next group's is built."""
        mix = (ActivationSpec.subnet("sine", 50), ActivationSpec.subnet("sine", 50))
        config = nn.mlp_config(4, 20, 3, mix)
        params = nn.init_network(config, seed=8)
        data = toy_classification(m=1000, d=4, k=3, seed=9)
        one_layer = 1000 * 10 * 50 * 8  # rows x a group's 10 columns x h, in bytes
        tracemalloc.start()
        try:
            ml.evaluate(params, config, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * one_layer

    def test_perfect_classifier(self):
        config = nn.mlp_config(2, 2, 2, (ActivationSpec.builtin("identity"),))
        params = nn.init_network(config)
        params.weights[0].assign(np.eye(2))
        params.biases[0].assign(np.zeros(2))
        params.weights[1].assign(np.eye(2) * 10)
        params.biases[1].assign(np.zeros(2))
        data = Data(np.array([[1.0, -1.0], [-1.0, 1.0], [2.0, 0.0]]), np.array([0, 1, 0]))
        assert ml.evaluate(params, config, data) == 1.0

    def test_constant_predictor_near_chance(self):
        rng = np.random.default_rng(20)
        config = nn.mlp_config(3, 4, 10, (ActivationSpec.builtin("zero"),))
        params = nn.init_network(config, seed=21)
        data = Data(rng.uniform(-1, 1, size=(2000, 3)), rng.integers(0, 10, size=2000))
        acc = ml.evaluate(params, config, data)
        assert abs(acc - 0.1) < 0.03

    def test_perfect_regressor(self):
        config = nn.mlp_config(2, 2, 2, (ActivationSpec.builtin("identity"),), task="regression")
        params = nn.init_network(config)
        params.weights[0].assign(np.eye(2))
        params.biases[0].assign(np.zeros(2))
        params.weights[1].assign(np.eye(2))
        params.biases[1].assign(np.zeros(2))
        x = np.random.default_rng(22).uniform(-1, 1, size=(5, 2))
        assert ml.evaluate(params, config, Data(x, x.copy())) == 0.0
