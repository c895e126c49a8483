"""Reverse-mode differentiation checked against finite-difference oracles."""

import math

import numpy as np
import pytest

import ldnn.autodiff as ad
from ldnn import nn
from ldnn.autodiff import GradientMap, ShapeError, Tensor
from ldnn.nn import ActivationSpec
from oracles import assign_flat, dense_fd_hessian, numeric_grad


def rel_err(a, n):
    denom = max(1.0, np.abs(a).max(initial=0.0), np.abs(n).max(initial=0.0))
    return np.abs(a - n).max(initial=0.0) / denom


def act(t, spec):
    """The matrix ``t`` through one activation spec, as one fused layer."""
    return ad.activation(t, [(slice(None), spec, None)])


def sum_sq(t):
    """sum(t^2) of a matrix on the tape: ones' square(t) ones."""
    rows = ad.matmul(np.ones(t.shape[0]), ad.square(t))
    return ad.matmul(rows, np.ones(t.shape[1]))


class TestRecordExamples:
    """Forward values of single ops, and the shape checks each op makes."""

    def test_square(self):
        out = ad.square(Tensor([3.0]))
        np.testing.assert_allclose(out.data, [9.0])

    def test_matmul_identity(self):
        out = ad.matmul(Tensor(np.eye(2)), Tensor([1.0, 2.0]))
        np.testing.assert_allclose(out.data, [1.0, 2.0])

    def test_uniform_softmax_cross_entropy(self):
        out = ad.softmax_cross_entropy(Tensor(np.zeros((1, 10))), np.array([3]))
        assert out.data.ndim == 0
        np.testing.assert_allclose(float(out.data), math.log(10.0), rtol=1e-12)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown activation kind"):
            act(Tensor(np.ones((1, 1))), ActivationSpec(kind="convolve"))

    def test_shape_mismatch_names_op_and_shapes(self):
        with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_add_broadcast_restricted(self):
        ad.add(Tensor(np.ones((3, 4))), Tensor(np.ones(4)))  # per-row bias ok
        ad.add(Tensor(np.ones((3, 4))), Tensor(2.0))  # scalar ok
        with pytest.raises(ShapeError, match="add"):
            ad.add(Tensor(np.ones((3, 4))), Tensor(np.ones((3, 1))))
        with pytest.raises(ShapeError, match="add"):
            ad.add(Tensor(np.ones((3, 4))), Tensor(np.ones(3)))


class TestBackwardExamples:
    def test_dsquare_dx(self):
        x = Tensor(3.0, requires_grad=True)
        grads = ad.backward(ad.square(x))
        np.testing.assert_allclose(grads[x], 6.0)

    def test_softmax_ce_closed_form(self):
        logits = Tensor(np.zeros((1, 10)), requires_grad=True)
        grads = ad.backward(ad.softmax_cross_entropy(logits, np.array([3])))
        expect = np.full((1, 10), 0.1)
        expect[0, 3] -= 1.0
        np.testing.assert_allclose(grads[logits], expect, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        y = ad.square(Tensor([1.0, 2.0], requires_grad=True))
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(y)

    def test_detached_tensor_reads_zero(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        unused = Tensor([5.0], requires_grad=True)
        grads = ad.backward(ad.reduce_mean(ad.square(x)))
        assert unused not in grads
        np.testing.assert_array_equal(grads[unused], np.zeros(1))

    def test_constant_graph_yields_empty_map(self):
        loss = ad.reduce_mean(ad.square(Tensor([1.0, 2.0])))
        grads = ad.backward(loss)
        assert isinstance(grads, GradientMap)
        assert len(grads) == 0

    def test_tape_cleared_after_backward(self):
        x = Tensor([2.0], requires_grad=True)
        loss = ad.reduce_mean(ad.square(x))
        assert loss.node is not None
        ad.backward(loss)
        assert loss.node is None

    def test_reused_tensor_accumulates(self):
        x = Tensor([1.5], requires_grad=True)
        y = ad.add(ad.square(x), ad.square(x))
        grads = ad.backward(ad.reduce_mean(y))
        np.testing.assert_allclose(grads[x], [6.0])


class TestGradientOracle:
    """Analytic gradients vs central finite differences on random inputs."""

    def _check(self, op, x, make_loss, tol=1e-5, **attrs):
        xt = Tensor(x, requires_grad=True)
        analytic = ad.backward(make_loss(xt))[xt]

        def f(arr):
            with ad.no_grad():
                return float(make_loss(Tensor(arr)).data)

        numeric = numeric_grad(f, x)
        assert rel_err(analytic, numeric) < tol, f"{op}: gradient mismatch"

    @pytest.mark.parametrize("op", ["tanh", "sigmoid", "sine", "identity", "zero", "square"])
    def test_unary_gradcheck(self, op):
        """``square`` is an op; each builtin goes through the fused layer."""
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.uniform(-2, 2, size=(3, 4))
            self._check(op, x, lambda t: sum_sq(
                ad.square(t) if op == "square" else act(t, ActivationSpec.builtin(op))))

    def test_relu_gradcheck_away_from_kink(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.uniform(-2, 2, size=(3, 4))
            x[np.abs(x) < 1e-3] += 0.1  # finite differences straddle the kink otherwise
            self._check("relu", x, lambda t: sum_sq(act(t, ActivationSpec.builtin("relu"))))

    def test_interp_gradcheck_between_knots(self):
        grid = np.linspace(-2, 2, 9)
        rng = np.random.default_rng(10)
        values = rng.standard_normal(9)
        x = rng.uniform(-1.9, 1.9, size=(3, 3))
        # keep probes a safe distance from knots and the clamp boundary
        x[np.abs((x + 2) % 0.5) < 1e-3] += 0.01
        spec = ActivationSpec.tabulated(grid, values)
        self._check("interp", x, lambda t: sum_sq(act(t, spec)))

    def test_interp_clamps_outside_grid(self):
        spec = ActivationSpec.tabulated([-1.0, 1.0], [-1.0, 1.0])
        y = act(Tensor([[-5.0, 0.0, 5.0]]), spec)
        np.testing.assert_allclose(y.data, [[-1.0, 0.0, 1.0]])
        xt = Tensor([[-5.0, 5.0]], requires_grad=True)
        grads = ad.backward(ad.reduce_mean(act(xt, spec)))
        np.testing.assert_array_equal(grads[xt], [[0.0, 0.0]])

    def test_matmul_gradcheck_both_sides(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(-2, 2, size=(3, 4))
        b = rng.uniform(-2, 2, size=(4, 2))
        at, bt = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        grads = ad.backward(sum_sq(ad.matmul(at, bt)))

        def f_a(arr):
            with ad.no_grad():
                return float(sum_sq(ad.matmul(Tensor(arr), Tensor(b))).data)

        def f_b(arr):
            with ad.no_grad():
                return float(sum_sq(ad.matmul(Tensor(a), Tensor(arr))).data)

        assert rel_err(grads[at], numeric_grad(f_a, a)) < 1e-5
        assert rel_err(grads[bt], numeric_grad(f_b, b)) < 1e-5

    def test_bias_add_gradcheck(self):
        rng = np.random.default_rng(12)
        a = rng.uniform(-2, 2, size=(5, 3))
        b = rng.uniform(-2, 2, size=(3,))
        bt = Tensor(b, requires_grad=True)
        grads = ad.backward(sum_sq(ad.add(Tensor(a), bt)))

        def f(arr):
            with ad.no_grad():
                return float(sum_sq(ad.add(Tensor(a), Tensor(arr))).data)

        assert rel_err(grads[bt], numeric_grad(f, b)) < 1e-5

    def test_fused_losses_gradcheck(self):
        rng = np.random.default_rng(13)
        logits = rng.uniform(-2, 2, size=(6, 5))
        labels = rng.integers(0, 5, size=6)
        lt = Tensor(logits, requires_grad=True)
        grads = ad.backward(ad.softmax_cross_entropy(lt, labels))

        def f(arr):
            with ad.no_grad():
                return float(ad.softmax_cross_entropy(Tensor(arr), labels).data)

        assert rel_err(grads[lt], numeric_grad(f, logits)) < 1e-5

        pred = rng.uniform(-2, 2, size=(4, 3))
        target = rng.uniform(-2, 2, size=(4, 3))
        pt = Tensor(pred, requires_grad=True)
        grads = ad.backward(ad.mse(pt, Tensor(target)))

        def f2(arr):
            with ad.no_grad():
                return float(ad.mse(Tensor(arr), Tensor(target)).data)

        assert rel_err(grads[pt], numeric_grad(f2, pred)) < 1e-5

    def test_activation_column_groups_gradcheck(self):
        """The fused activation gathers each group's columns and scatters its
        gradient back: check z and every subnet tensor of a split layer."""
        rng = np.random.default_rng(14)
        z = rng.uniform(-2, 2, size=(4, 6))
        arrays = [z] + [rng.uniform(-1, 1, size=s) for s in (3, 3, 3, ())]
        sub_cols, sine_cols = np.array([1, 3, 4]), np.array([0, 2, 5])

        def loss_from(parts, grad=False):
            zt, *sub = [Tensor(p, requires_grad=grad) for p in parts]
            groups = [(sub_cols, ActivationSpec.subnet("tanh", 3), nn.SubnetParams(*sub)),
                      (sine_cols, ActivationSpec.builtin("sine"), None)]
            return sum_sq(ad.activation(zt, groups)), [zt] + sub

        loss, tensors = loss_from(arrays, grad=True)
        grads = ad.backward(loss)
        for pick, tensor in enumerate(tensors):
            def f(arr, pick=pick):
                parts = list(arrays)
                parts[pick] = arr
                with ad.no_grad():
                    return float(loss_from(parts)[0].data)

            assert rel_err(grads[tensor], numeric_grad(f, arrays[pick])) < 1e-5

    def test_tanh_network_gradcheck(self):
        """Gradient of a tanh(Wa+b) network vs central finite differences."""
        rng = np.random.default_rng(15)
        x = rng.uniform(-2, 2, size=(8, 3))
        w1 = rng.uniform(-1, 1, size=(3, 5))
        b1 = rng.uniform(-1, 1, size=5)
        w2 = rng.uniform(-1, 1, size=(5, 2))
        target = rng.uniform(-1, 1, size=(8, 2))

        def loss_from(w1a, b1a, w2a, grad=False):
            wt = Tensor(w1a, requires_grad=grad)
            bt = Tensor(b1a, requires_grad=grad)
            vt = Tensor(w2a, requires_grad=grad)
            h = act(ad.add(ad.matmul(Tensor(x), wt), bt), ActivationSpec.builtin("tanh"))
            return ad.mse(ad.matmul(h, vt), Tensor(target)), (wt, bt, vt)

        loss, (wt, bt, vt) = loss_from(w1, b1, w2, grad=True)
        grads = ad.backward(loss)
        for arr, tensor, pick in [(w1, wt, 0), (b1, bt, 1), (w2, vt, 2)]:
            def f(a, pick=pick):
                parts = [w1, b1, w2]
                parts[pick] = a
                with ad.no_grad():
                    return float(loss_from(*parts)[0].data)

            assert rel_err(grads[tensor], numeric_grad(f, arr)) < 1e-5


class TestBackwardProperties:
    def test_linearity_of_backward(self):
        rng = np.random.default_rng(20)
        x = Tensor(rng.uniform(-2, 2, size=(3, 3)), requires_grad=True)

        def loss_a():
            return ad.reduce_mean(ad.square(x))

        def loss_b():
            return ad.reduce_mean(act(x, ActivationSpec.builtin("sine")))

        ga = ad.backward(loss_a())[x]
        gb = ad.backward(loss_b())[x]
        gsum = ad.backward(ad.add(loss_a(), loss_b()))[x]
        np.testing.assert_allclose(gsum, ga + gb, atol=1e-12)

    def test_replay_bitwise_deterministic(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.uniform(-2, 2, size=(4, 4)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, size=(4, 2)), requires_grad=True)

        def run():
            loss = ad.reduce_mean(ad.square(act(ad.matmul(x, w), ActivationSpec.builtin("tanh"))))
            g = ad.backward(loss)
            return float(loss.data), g[w].copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)

    def test_outputs_finite_on_extreme_inputs(self):
        big = Tensor(np.array([[1e4, -1e4, 0.0]]))
        grid = np.linspace(-3, 3, 7)
        specs = [ActivationSpec.builtin(name) for name in ad.UNARY]
        for spec in specs + [ActivationSpec.tabulated(grid, np.tanh(grid))]:
            out = act(big, spec)
            assert np.all(np.isfinite(out.data)), spec
        ce = ad.softmax_cross_entropy(big, np.array([0]))
        assert np.isfinite(float(ce.data))

    def test_no_grad_suppresses_tape(self):
        x = Tensor([1.0], requires_grad=True)
        with ad.no_grad():
            y = ad.square(x)
        assert y.node is None


class TestActivation:
    @staticmethod
    def subnet_layer(m=30, k=4, h=6, seed=40):
        rng = np.random.default_rng(seed)
        z = Tensor(rng.uniform(-2, 2, size=(m, k)), requires_grad=True)
        sub = nn.SubnetParams(*[Tensor(rng.uniform(-1, 1, size=s), requires_grad=True)
                                for s in (h, h, h, ())])
        return z, [(slice(None), ActivationSpec.subnet("sine", h), sub)]

    def test_backward_leaves_forward_output_unchanged(self):
        """The backward rule overwrites the saved hidden layer in place; the
        layer's output and a fresh forward pass must not see it."""
        z, groups = self.subnet_layer()
        y = ad.activation(z, groups)
        before = y.data.copy()
        grads = ad.backward(ad.reduce_mean(ad.square(y)))
        assert len(grads) == 5
        np.testing.assert_array_equal(y.data, before)
        np.testing.assert_array_equal(ad.activation(z, groups).data, before)

    def test_second_backward_returns_empty_map(self):
        z, groups = self.subnet_layer()
        loss = ad.reduce_mean(ad.square(ad.activation(z, groups)))
        assert len(ad.backward(loss)) == 5
        assert len(ad.backward(loss)) == 0

    def test_one_tape_node_per_layer(self):
        z, groups = self.subnet_layer()
        y = ad.activation(z, groups)
        assert y.node.op == "activation"
        assert y.node.parents == (z,) + tuple(groups[0][2].tensors())

    def test_columns_must_partition(self):
        z = Tensor(np.ones((2, 3)))
        sine = ActivationSpec.builtin("sine")
        for cols in ([np.array([0, 1])], [np.array([0, 1]), np.array([1, 2])]):
            with pytest.raises(ShapeError, match="partition"):
                ad.activation(z, [(c, sine, None) for c in cols])

    def test_subnet_needs_parameters(self):
        with pytest.raises(ValueError, match="parameter block"):
            ad.activation(Tensor(np.ones((2, 2))),
                          [(slice(None), ActivationSpec.subnet("tanh", 3), None)])


    def test_subnet_hidden_layer_is_one_product(self):
        """The pre-activation [x, 1] @ [w1; b1] matches the outer-product
        form, and its hidden layer is one C-contiguous array, which the
        backward rule overwrites in place."""
        rng = np.random.default_rng(41)
        x = rng.uniform(-4, 4, size=(30, 8))[:, ::2]  # a strided view, as a column group
        sub = nn.SubnetParams(*[Tensor(rng.uniform(-2, 2, size=s)) for s in (50, 50, 50, ())])
        y, hid = ad.activation_values(ActivationSpec.subnet("sine", 50), x, sub)
        ref = np.tanh(np.multiply.outer(x.ravel(), sub.w1.data) + sub.b1.data)
        assert hid.shape == (x.size, 50) and hid.flags.c_contiguous
        assert np.abs(hid - ref).max() <= 1e-15
        ref_y = np.sin(x) + (ref @ sub.w2.data + sub.b2.data).reshape(x.shape)
        assert np.abs(y - ref_y).max() <= 1e-12

    def test_column_groups_read_without_extra_copies(self):
        """A slice group reads through a view, an index-array group through
        one C-contiguous gather, with or without a leading tangent axis."""
        a = np.arange(2 * 5 * 4, dtype=np.float64).reshape(2, 5, 4)
        assert np.shares_memory(ad._columns(a, slice(None)), a)
        picked = ad._columns(a, np.array([0, 3]))
        assert picked.flags.c_contiguous
        assert np.array_equal(picked, a[..., [0, 3]])


class TestBackwardWrt:
    """``backward(loss, wrt=S)`` returns exactly the gradients of S that
    the full reverse pass returns, and nothing else."""

    @staticmethod
    def net(kind, seed=42):
        """A two-hidden-layer classifier's batch loss as a function, and
        its parameters.  "mix" shares two sub-network types and a ReLU
        group between both layers."""
        rng = np.random.default_rng(seed)
        grid = np.linspace(-3, 3, 25)
        types = {"mix": (ActivationSpec.subnet("sine", 7), ActivationSpec.subnet("tanh", 5),
                         ActivationSpec.builtin("relu")),
                 "tabulated": (ActivationSpec.tabulated(grid, np.tanh(grid)),),
                 "relu": (ActivationSpec.builtin("relu"),)}[kind]
        layers = [nn.LayerSpec(w, nn.mixed_assignment(w, range(len(types)))) for w in (8, 6)]
        config = nn.NetworkConfig(input_dim=5, layers=layers, output_dim=3, activations=types)
        params = nn.init_network(config, seed=seed)
        for sp in params.subnets.values():
            sp.w2.assign(rng.uniform(-0.5, 0.5, size=sp.hidden_width))
        x = rng.uniform(-1, 1, size=(20, 5))
        y = rng.integers(0, 3, size=20)
        return (lambda: ad.softmax_cross_entropy(nn.forward(params, config, x)[0], y)), params

    @pytest.mark.parametrize("kind", ["mix", "tabulated", "relu"])
    def test_same_bits_for_wrt_and_nothing_else(self, kind):
        lossfn, params = self.net(kind)
        full = ad.backward(lossfn())
        everything = params.all_tensors()
        subsets = [params.theta(), params.theta_a(), params.weights[:1], params.biases[-1:]]
        subsets += [params.subnets[t].tensors()[2:3] for t in params.subnets]
        for wrt in subsets:
            grads = ad.backward(lossfn(), wrt=wrt)
            assert len(grads) == len(wrt)
            for p in everything:
                if any(p is q for q in wrt):
                    assert np.array_equal(grads[p], full[p])
                else:
                    assert p not in grads

    def test_no_path_to_wrt_gives_empty_map(self):
        lossfn, _ = self.net("mix")
        assert len(ad.backward(lossfn(), wrt=[Tensor(np.ones(3), requires_grad=True)])) == 0


class TestTangentBlocks:
    """``hvp_operator`` applied to a (P, b) block returns, column by column,
    what it returns for each column alone."""

    @staticmethod
    def assert_columns_match(hvp, V):
        HV = hvp(V)
        assert HV.shape == V.shape
        for j in range(V.shape[1]):
            single = hvp(V[:, j])
            assert single.shape == V[:, j].shape
            assert np.abs(HV[:, j] - single).max() <= 1e-12 * np.abs(single).max()

    @pytest.mark.parametrize("kind", ["mix", "tabulated", "relu"])
    def test_block_columns_equal_single_vectors(self, kind):
        lossfn, params = TestBackwardWrt.net(kind)
        tensors = params.all_tensors()
        V = np.random.default_rng(44).standard_normal((ad.flatten_params(tensors).size, 5))
        self.assert_columns_match(ad.hvp_operator(lossfn, tensors), V)

    def test_with_small_row_blocks(self, monkeypatch):
        monkeypatch.setattr(ad, "HVP_BLOCK_ROWS", 7)
        lossfn, params = TestBackwardWrt.net("mix")
        tensors = params.all_tensors()
        V = np.random.default_rng(45).standard_normal((ad.flatten_params(tensors).size, 3))
        self.assert_columns_match(ad.hvp_operator(lossfn, tensors), V)

    def test_vector_and_one_column_shapes(self):
        lossfn, params = TestBackwardWrt.net("mix")
        tensors = params.all_tensors()
        hvp = ad.hvp_operator(lossfn, tensors)
        v = np.random.default_rng(46).standard_normal(ad.flatten_params(tensors).size)
        hv = hvp(v)
        assert hv.shape == v.shape
        assert np.array_equal(hvp(v[:, None])[:, 0], hv)
        with pytest.raises(ShapeError, match="vector length"):
            hvp(np.ones((v.size + 1, 2)))

    def test_subset_of_parameters(self):
        """Tangents along theta_a only: the activation's input has no tangent."""
        lossfn, params = TestBackwardWrt.net("mix")
        tensors = params.theta_a()
        V = np.random.default_rng(47).standard_normal((ad.flatten_params(tensors).size, 3))
        self.assert_columns_match(ad.hvp_operator(lossfn, tensors), V)


class TestRReverseRule:
    """One R-reverse rule per tape node.  The fused activation forms
    s = 1 - hid**2 once per row block and subnet group in each of its
    tangent and R-reverse rules, and reads its linearization constants,
    which its backward rule kept, from one linearization per operator."""

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        fn = getattr(ad, name)
        monkeypatch.setattr(ad, name, lambda *a: calls.append(1) or fn(*a))
        return calls

    def assert_s_per_application(self, monkeypatch, lossfn, params, blocks):
        """The linearization forms s once per block, each application twice;
        base'(z) and base''(z) come once per group and operator."""
        s_calls = self.count_calls(monkeypatch, "_tanh_slope")
        constants = [self.count_calls(monkeypatch, name) for name in ("_slope", "_curvature")]
        hvp = ad.hvp_operator(lossfn, params)
        assert len(s_calls) == blocks
        built = [len(c) for c in constants]
        V = np.random.default_rng(48).standard_normal((ad.flatten_params(params).size, 3))
        for applied in (1, 2):
            hvp(V)
            assert len(s_calls) == blocks + 2 * blocks * applied
        assert [len(c) for c in constants] == built

    def test_s_twice_per_block_and_group_small_blocks(self, monkeypatch):
        monkeypatch.setattr(ad, "HVP_BLOCK_ROWS", 7)
        lossfn, params = TestHessianVectorProduct.small_net(TestHessianVectorProduct.MIX)
        # Each subnet group has 3 of the 8 columns of the 40-row batch:
        # 120 rows, 18 blocks of 7, per group.
        self.assert_s_per_application(monkeypatch, lossfn, params, blocks=2 * 18)

    def test_hessian_workload_net_forms_s_80_times(self, monkeypatch):
        """The benchmark's Hessian net: 1000 examples, width 20 and two
        sine/50 types, so 20 blocks of 512 rows per group."""
        rng = np.random.default_rng(50)
        config = nn.mlp_config(40, 20, 10, (ActivationSpec.subnet("sine", 50),) * 2)
        params = nn.init_network(config, seed=50)
        x, y = rng.uniform(-1, 1, size=(1000, 40)), rng.integers(0, 10, size=1000)
        self.assert_s_per_application(
            monkeypatch, lambda: ad.softmax_cross_entropy(nn.forward(params, config, x)[0], y),
            params.all_tensors(), blocks=2 * 20)

    def test_blocks_of_other_widths_change_nothing(self):
        lossfn, params = TestHessianVectorProduct.small_net(TestHessianVectorProduct.MIX)
        hvp = ad.hvp_operator(lossfn, params)
        rng = np.random.default_rng(51)
        n = ad.flatten_params(params).size
        V = rng.standard_normal((n, 3))
        first = hvp(V)
        for b in (1, 3, 4):
            hvp(rng.standard_normal((n, b)))
        assert np.array_equal(hvp(V), first)

    def test_operator_after_a_parameter_step(self):
        """A new operator linearizes at the new parameters; the old one keeps
        its own linearization."""
        rng = np.random.default_rng(52)
        config = nn.mlp_config(2, 2, 2, (ActivationSpec.subnet("sine", 3),
                                          ActivationSpec.subnet("tanh", 2)))
        params = nn.init_network(config, seed=52)
        for sp in params.subnets.values():
            sp.w2.assign(rng.uniform(-0.5, 0.5, size=sp.hidden_width))
        x, y = rng.uniform(-1, 1, size=(12, 2)), rng.integers(0, 2, size=12)
        tensors = params.all_tensors()

        def lossfn():
            return ad.softmax_cross_entropy(nn.forward(params, config, x)[0], y)

        v = rng.standard_normal(ad.flatten_params(tensors).size)
        before = ad.hvp_operator(lossfn, tensors)
        hv_before = before(v)
        assign_flat(tensors, ad.flatten_params(tensors) + 0.3 * rng.standard_normal(v.size))
        hv = ad.hvp_operator(lossfn, tensors)(v)
        expected = dense_fd_hessian(lossfn, tensors) @ v
        assert np.abs(hv - expected).max() < 1e-6
        assert np.abs(hv_before - expected).max() > 1e-2
        assert np.array_equal(before(v), hv_before)


class TestHessianVectorProduct:
    @staticmethod
    def quadratic_loss(params, a_mat):
        """0.5 * x^T A x built on the tape from a parameter vector x."""
        (x,) = params
        return ad.matmul(ad.matmul(x, Tensor(0.5 * np.asarray(a_mat))), x)

    def test_diagonal_quadratic(self):
        a = np.diag([2.0, 4.0])
        x = Tensor([1.0, 1.0], requires_grad=True)
        hv = ad.hessian_vector_product(lambda: self.quadratic_loss([x], a), [x], [1.0, 1.0])
        np.testing.assert_allclose(hv, [2.0, 4.0], atol=1e-8)

    def test_zero_vector(self):
        a = np.diag([2.0, 4.0])
        x = Tensor([0.3, -0.7], requires_grad=True)
        hv = ad.hessian_vector_product(lambda: self.quadratic_loss([x], a), [x], np.zeros(2))
        np.testing.assert_array_equal(hv, np.zeros(2))

    def test_dimension_mismatch(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError, match="vector length"):
            ad.hessian_vector_product(lambda: ad.reduce_mean(ad.square(x)), [x], np.ones(3))

    def test_parameters_restored(self):
        x = Tensor([0.5, -0.25], requires_grad=True)
        before = x.data.copy()
        ad.hessian_vector_product(lambda: ad.reduce_mean(ad.square(x)), [x], np.ones(2))
        np.testing.assert_array_equal(x.data, before)

    def test_unary_second_derivatives(self):
        """Each builtin's second derivative against central differences of
        its first, extrapolated from steps h and h/2."""
        x = np.random.default_rng(36).uniform(-3, 3, size=200)
        x[np.abs(x) < 0.01] += 0.05  # clear of relu's kink
        h = 1e-3
        for name, (_, first, second) in ad.UNARY.items():
            def diff(step):
                return (np.asarray(first(x + step)) - np.asarray(first(x - step))) / (2 * step)
            expected = (4 * diff(h / 2) - diff(h)) / 3
            err = np.abs(np.asarray(second(x)) - expected).max()
            assert err < 1e-8 * max(1.0, np.abs(expected).max()), (name, err)

    @staticmethod
    def small_net(types, m=40, seed=37):
        """One-hidden-layer classifier on a fixed random batch; sub-network
        output weights drawn non-zero so every residual takes part."""
        rng = np.random.default_rng(seed)
        config = nn.mlp_config(6, 8, 3, types)
        params = nn.init_network(config, seed=seed)
        for sp in params.subnets.values():
            sp.w2.assign(rng.uniform(-0.5, 0.5, size=sp.hidden_width))
            sp.b2.assign(0.2)
        x = rng.uniform(-1, 1, size=(m, 6))
        y = rng.integers(0, 3, size=m)
        tensors = params.all_tensors()
        return (lambda: ad.softmax_cross_entropy(nn.forward(params, config, x)[0], y)), tensors

    @staticmethod
    def richardson_hvp(lossfn, params, v, h=1e-4):
        """Central differences of tape gradients along v, extrapolated from
        steps h and h/2; the parameters are restored."""
        p0 = ad.flatten_params(params)

        def grad_at(vec):
            assign_flat(params, vec)
            grads = ad.backward(lossfn())
            return np.concatenate([grads[p].ravel() for p in params])

        def diff(step):
            return (grad_at(p0 + step * v) - grad_at(p0 - step * v)) / (2 * step)

        try:
            return (4 * diff(h / 2) - diff(h)) / 3
        finally:
            assign_flat(params, p0)

    MIX = (ActivationSpec.subnet("sine", 7), ActivationSpec.subnet("tanh", 5),
           ActivationSpec.builtin("relu"))

    @pytest.mark.parametrize("kind", ["relu", "tabulated"])
    def test_exactly_linear_and_symmetric_on_kinked_nets(self, kind):
        """Finite differences step across kinks and knots; the R-operator
        differentiates the linear pieces it is on."""
        grid = np.linspace(-3, 3, 25)
        spec = (ActivationSpec.builtin("relu") if kind == "relu"
                else ActivationSpec.tabulated(grid, np.tanh(grid)))
        lossfn, params = self.small_net((spec,))
        hvp = ad.hvp_operator(lossfn, params)
        rng = np.random.default_rng(38)
        for _ in range(3):
            u, v = rng.standard_normal((2, ad.flatten_params(params).size))
            hu, hv = hvp(u), hvp(v)
            assert np.linalg.norm(hvp(2.0 * v) - 2.0 * hv) <= 1e-12 * np.linalg.norm(2.0 * hv)
            scale = 0.5 * (np.linalg.norm(u) * np.linalg.norm(hv) + np.linalg.norm(v) * np.linalg.norm(hu))
            assert abs(u @ hv - v @ hu) <= 1e-12 * scale

    def test_operator_reuse(self):
        """An operator keeps its tape intact: applying it again gives the
        same bits, equal to a fresh operator's and to gradient differences,
        and the parameters are never touched."""
        lossfn, params = self.small_net(self.MIX)
        before = [p.data.tobytes() for p in params]
        hvp = ad.hvp_operator(lossfn, params)
        rng = np.random.default_rng(39)
        u, v = rng.standard_normal((2, ad.flatten_params(params).size))
        hv = hvp(v)
        hvp(u)
        assert np.array_equal(hvp(v), hv)
        assert [p.data.tobytes() for p in params] == before
        assert np.array_equal(ad.hessian_vector_product(lossfn, params, v), hv)
        fd = self.richardson_hvp(lossfn, params, v)
        assert np.abs(hv - fd).max() <= 1e-8 * np.abs(fd).max()

    def test_row_blocks_do_not_change_hv(self, monkeypatch):
        lossfn, params = self.small_net(self.MIX, m=23)  # 23 * 3 rows per subnet group
        v = np.random.default_rng(40).standard_normal(ad.flatten_params(params).size)
        whole = ad.hessian_vector_product(lossfn, params, v)
        monkeypatch.setattr(ad, "HVP_BLOCK_ROWS", 7)
        blocked = ad.hessian_vector_product(lossfn, params, v)
        assert not np.array_equal(blocked, whole)  # the sums were split
        assert np.abs(blocked - whole).max() <= 1e-13 * np.abs(whole).max()

    @staticmethod
    def tiny_net():
        """tanh regression net with 14 parameters and a fixed batch."""
        rng = np.random.default_rng(33)
        x = rng.uniform(-1, 1, size=(12, 2))
        y = rng.uniform(-1, 1, size=(12, 1))
        w1 = Tensor(rng.uniform(-0.8, 0.8, size=(2, 3)), requires_grad=True)
        b1 = Tensor(rng.uniform(-0.5, 0.5, size=3), requires_grad=True)
        w2 = Tensor(rng.uniform(-0.8, 0.8, size=(3, 1)), requires_grad=True)
        b2 = Tensor(rng.uniform(-0.5, 0.5, size=1), requires_grad=True)
        params = [w1, b1, w2, b2]

        def lossfn():
            h = act(ad.add(ad.matmul(Tensor(x), w1), b1), ActivationSpec.builtin("tanh"))
            return ad.mse(ad.add(ad.matmul(h, w2), b2), Tensor(y))

        return lossfn, params

    def test_hvp_matches_dense_fd_hessian(self):
        lossfn, params = self.tiny_net()
        H = dense_fd_hessian(lossfn, params)
        n = H.shape[0]
        assert n <= 50
        rng = np.random.default_rng(34)
        for _ in range(3):
            v = rng.standard_normal(n)
            hv = ad.hessian_vector_product(lossfn, params, v)
            assert np.abs(hv - H @ v).max() < 1e-6

    def test_hvp_symmetry(self):
        lossfn, params = self.tiny_net()
        n = ad.flatten_params(params).size
        rng = np.random.default_rng(35)
        for _ in range(5):
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            hu = ad.hessian_vector_product(lossfn, params, u)
            hv = ad.hessian_vector_product(lossfn, params, v)
            assert abs(v @ hu - u @ hv) < 1e-8
