"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The statistical reproductions (criteria 7-11) run desk-scale campaigns through
the same code path as the CLI; expect the module to take several minutes.
"""

import inspect
import json
import math
import os
import re

import numpy as np
import pytest

import ldnn.autodiff as ad
import ldnn.diagnostics as dg
import ldnn.metalearn as ml
from ldnn import cli, nn, tasks
from ldnn.autodiff import Tensor
from ldnn.nn import ActivationSpec
from oracles import dense_fd_hessian, numeric_grad

# Campaign scales, pinned by the criteria.
N_SEEDS_ACCURACY = 20   # criterion 7 / 10
N_SEEDS_FLATNESS = 10   # criterion 8
N_SEEDS_VDP = 20        # criterion 9
N_SEEDS_REUSE = 5       # criterion 11

CAMPAIGN_WIDTH = 20
MNIST1D_SCHEDULE = {
    "inner_lr": 0.01, "outer_lr": 0.001, "outer_period": 5, "outer_steps": 1,
    "batch_size": 100, "epochs": 60, "optimizer": "adam",
}
VDP_SCHEDULE = {
    "inner_lr": 0.01, "outer_lr": 0.001, "outer_period": 5, "outer_steps": 1,
    "batch_size": 100, "epochs": 80, "optimizer": "adam",
}
DATA_SEED = 99
CAMPAIGN_SEED = 2024
CAMPAIGN_SEED_RETRY = 7071


def report(num, name, ok, detail=""):
    print(f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def experiment(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    exp = cli.parse_experiment_config(str(path))
    train, val = cli.build_datasets(exp)
    return exp, train, val


def medians(records, key=lambda r: r.metric):
    out = {}
    for rec in records:
        out.setdefault(rec.variant, []).append(key(rec))
    return {v: float(np.median(vals)) for v, vals in out.items()}


def means(records, key=lambda r: r.metric):
    out = {}
    for rec in records:
        out.setdefault(rec.variant, []).append(key(rec))
    return {v: float(np.mean(vals)) for v, vals in out.items()}


# ---------------------------------------------------------------------------
# Criterion 1: gradient correctness of every op, 100 random cases each.

def max_rel_err(analytic, numeric):
    denom = max(1.0, np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0))
    return float(np.abs(analytic - numeric).max(initial=0.0)) / denom


def gradcheck_cases(build, n_cases=100, seed=0):
    """build(rng) -> (input array, loss_fn taking array).  Returns worst rel err."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        x, loss_fn = build(rng)
        xt = Tensor(x, requires_grad=True)
        analytic = ad.backward(loss_fn(xt))[xt]

        def f(arr):
            with ad.no_grad():
                return float(loss_fn(Tensor(arr)).data)

        worst = max(worst, max_rel_err(analytic, numeric_grad(f, x)))
    return worst


def _sum_sq(t):
    """sum(t^2) on the tape: a scalar with non-constant upstream gradient.
    square(t) is contracted with ones through matmul, a matrix's rows first."""
    sq = ad.square(t)
    if sq.data.ndim == 2:
        sq = ad.matmul(np.ones(sq.shape[0]), sq)
    return ad.matmul(sq, np.ones(sq.shape[0])) if sq.data.ndim else sq


def _builtin(t, name):
    """The matrix ``t`` through the builtin ``name``, as one fused layer."""
    return ad.activation(t, [(slice(None), ActivationSpec.builtin(name), None)])


def recorded_op_kinds():
    """The op kinds ``autodiff`` records: the literal kinds passed to ``_make``."""
    kinds = set(re.findall(r'_make\(\s*"([^"]+)"', inspect.getsource(ad)))
    assert {"matmul", "activation"} <= kinds, f"op kinds not found in the source: {kinds}"
    return kinds


def knot_distance(x):
    """Distance to the nearest knot of the tables below (spacing 0.5, one
    knot at 0, where relu's kink is too)."""
    frac = (x + 2.5) % 0.5
    return np.minimum(frac, 0.5 - frac)


def criterion_1_checks():
    """Gradcheck cases by name.  A name is an op kind that ``autodiff``
    records, or an op kind followed by ``-`` and the case it covers."""

    checks = {"square": lambda rng: (rng.uniform(-2, 2, size=(3, 4)),
                                     lambda t: _sum_sq(ad.square(t)))}
    checks["reduce-mean"] = lambda rng: (rng.uniform(-2, 2, size=(3, 5)),
                                         lambda t: ad.reduce_mean(ad.square(t)))

    grid = np.linspace(-2.5, 2.5, 11)
    tab_vals = np.random.default_rng(5).standard_normal(11)

    def off_knots(x):
        # keep probes clear of the knots (spacing 0.5) so FD stays one-sided
        x[knot_distance(x) < 1e-3] += 0.01
        return x

    w_fixed = np.random.default_rng(6).uniform(-1, 1, size=(4, 3))
    checks["matmul-left"] = lambda rng: (rng.uniform(-2, 2, size=(3, 4)),
                                         lambda t: _sum_sq(ad.matmul(t, Tensor(w_fixed))))
    x_fixed = np.random.default_rng(7).uniform(-1, 1, size=(3, 4))
    checks["matmul-right"] = lambda rng: (rng.uniform(-2, 2, size=(4, 3)),
                                          lambda t: _sum_sq(ad.matmul(Tensor(x_fixed), t)))
    a_fixed = np.random.default_rng(8).uniform(-1, 1, size=(5, 3))
    checks["add-same"] = lambda rng: (rng.uniform(-2, 2, size=(5, 3)),
                                      lambda t: _sum_sq(ad.add(Tensor(a_fixed), t)))
    checks["add-bias"] = lambda rng: (rng.uniform(-2, 2, size=(3,)),
                                      lambda t: _sum_sq(ad.add(Tensor(a_fixed), t)))
    checks["add-scalar"] = lambda rng: (rng.uniform(-2, 2, size=()),
                                        lambda t: _sum_sq(ad.add(Tensor(a_fixed), t)))

    labels_fixed = np.random.default_rng(9).integers(0, 4, size=6)
    checks["softmax-cross-entropy"] = lambda rng: (
        rng.uniform(-2, 2, size=(6, 4)),
        lambda t: ad.softmax_cross_entropy(t, labels_fixed))
    target_fixed = np.random.default_rng(10).uniform(-2, 2, size=(4, 3))
    checks["mean-squared-error"] = lambda rng: (
        rng.uniform(-2, 2, size=(4, 3)),
        lambda t: ad.mse(t, Tensor(target_fixed)))

    # The fused activation layer: one case per kind of column group, each
    # subnet tensor on its own, and a layer mixing all three kinds.
    subnet = ActivationSpec.subnet("sine", 5)
    tabulated = ActivationSpec.tabulated(grid, tab_vals)
    sub_rng = np.random.default_rng(11)
    sub_fixed = [sub_rng.uniform(-1, 1, size=(5,)) for _ in range(3)] + [np.asarray(0.3)]
    z_fixed = np.random.default_rng(12).uniform(-2, 2, size=(3, 4))

    def layer(z, spec, sub=sub_fixed):
        params = nn.SubnetParams(*map(ad.as_tensor, sub))
        return _sum_sq(ad.activation(z, [(slice(None), spec, params)]))

    def builtin_case(name, keep_away=0.0):
        def build(rng):
            x = rng.uniform(-2, 2, size=(3, 4))
            x[np.abs(x) < keep_away] += 10 * keep_away
            return x, lambda t: layer(t, ActivationSpec.builtin(name))
        return build

    for name in ad.UNARY:  # relu's kink kept clear
        checks[f"activation-builtin-{name}"] = builtin_case(name, 1e-3 if name == "relu" else 0.0)
    checks["activation-subnet"] = lambda rng: (
        rng.uniform(-2, 2, size=(3, 4)), lambda t: layer(t, subnet))
    for i, name in enumerate(("w1", "b1", "w2", "b2")):
        def build(rng, i=i):
            def loss(t):
                parts = list(sub_fixed)
                parts[i] = t
                return layer(Tensor(z_fixed), subnet, parts)
            return rng.uniform(-1, 1, size=sub_fixed[i].shape), loss
        checks[f"activation-subnet-{name}"] = build
    checks["activation-tabulated"] = lambda rng: (
        off_knots(rng.uniform(-2, 2, size=(3, 3))), lambda t: layer(t, tabulated))

    assignment = np.array([2, 2, 0, 1, 1, 0, 0, 2])
    mixed = [(ActivationSpec.builtin("relu"), None), (subnet, nn.SubnetParams(*map(Tensor, sub_fixed))),
             (tabulated, None)]

    def mixed_case(rng):
        x = off_knots(rng.uniform(-2, 2, size=(3, 8)))  # 0 is a knot: relu's kink is cleared too
        groups = [(np.flatnonzero(assignment == t), spec, sub) for t, (spec, sub) in enumerate(mixed)]
        return x, lambda t: _sum_sq(ad.activation(t, groups))

    checks["activation-mixed"] = mixed_case
    return checks


def test_criterion_1_gradient_correctness():
    failures = []
    tol = 1e-5
    checks = criterion_1_checks()
    for name, build in checks.items():
        err = gradcheck_cases(build)
        if err >= tol:
            failures.append(f"{name}: {err:.2e}")
    report(1, "gradient-correctness", not failures,
           f"({len(checks)} ops x 100 cases, tol {tol:g})"
           + (f" failures: {failures}" if failures else ""))


def test_criterion_1_covers_every_op():
    """Every op kind, the fused activation included, has a gradcheck case."""
    names = list(criterion_1_checks())
    missing = [op for op in sorted(recorded_op_kinds())
               if not any(name == op or name.startswith(op + "-") for name in names)]
    assert not missing, f"op kinds without a criterion 1 gradcheck case: {missing}"


# ---------------------------------------------------------------------------
# Exact Hessian-vector products: every op's tangent and second-order rules
# against differences of tape gradients.

HVP_STEP = 1e-4
HVP_KNOT_MARGIN = 5e-3  # well above HVP_STEP times any tangent a case produces


def tape_gradient(loss_fn, arrays):
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    grads = ad.backward(loss_fn(tensors))
    return np.concatenate([grads[t].ravel() for t in tensors])


def richardson_hvp(loss_fn, arrays, v, h=HVP_STEP):
    """Hv from central differences of tape gradients along v, extrapolated
    from steps h and h/2 so the error is O(h^4)."""
    parts = np.split(v, np.cumsum([a.size for a in arrays])[:-1])

    def difference(step):
        plus, minus = (tape_gradient(loss_fn, [a + sign * step * p.reshape(a.shape)
                                               for a, p in zip(arrays, parts)])
                       for sign in (1.0, -1.0))
        return (plus - minus) / (2 * step)

    return (4 * difference(h / 2) - difference(h)) / 3


def hvp_checks():
    """HVP cases by name, named as in ``criterion_1_checks``.  A case maps
    an rng to (input arrays, loss function of one tensor per array); all
    inputs are differentiated, and kinks and knots are kept
    ``HVP_KNOT_MARGIN`` away."""

    def on(shape, margin=0.0):
        def draw(rng):
            x = rng.uniform(-2, 2, size=shape)
            x[knot_distance(x) < margin] += 0.1
            return x
        return draw

    def case(loss_fn, *draws):
        return lambda rng: ([d(rng) for d in draws], loss_fn)

    checks = {"square": case(lambda ts: _sum_sq(ad.square(ts[0])), on((3, 4)))}
    checks["reduce-mean"] = case(lambda ts: ad.square(ad.reduce_mean(_builtin(ts[0], "sine"))),
                                 on((3, 5)))
    grid = np.linspace(-2.5, 2.5, 11)
    tab_vals = np.random.default_rng(5).standard_normal(11)
    for name, (sa, sb) in {"mat": ((3, 4), (4, 3)), "matvec": ((3, 4), (4,)),
                           "vecmat": ((4,), (4, 3)), "dot": ((4,), (4,))}.items():
        checks[f"matmul-{name}"] = case(lambda ts: _sum_sq(ad.matmul(*ts)), on(sa), on(sb))
    for name, sb in {"same": (5, 3), "bias": (3,), "scalar": ()}.items():
        checks[f"add-{name}"] = case(lambda ts: _sum_sq(_builtin(ad.add(*ts), "sine")),
                                     on((5, 3)), on(sb))
    labels_fixed = np.random.default_rng(9).integers(0, 4, size=6)
    checks["softmax-cross-entropy"] = case(
        lambda ts: _sum_sq(ad.softmax_cross_entropy(ts[0], labels_fixed)), on((6, 4)))
    checks["mean-squared-error"] = case(lambda ts: _sum_sq(ad.mse(*ts)), on((4, 3)), on((4, 3)))

    # The fused layer: one case per kind of column group, z and every
    # subnet tensor differentiated together; a mixed layer; two layers.
    subnet = ActivationSpec.subnet("sine", 5)
    tabulated = ActivationSpec.tabulated(grid, tab_vals)
    sub_draws = [on((5,)), on((5,)), on((5,)), on(())]

    def layer(spec):
        def loss_fn(ts):
            sub = nn.SubnetParams(*ts[1:]) if spec.kind == "subnet" else None
            return _sum_sq(ad.activation(ts[0], [(slice(None), spec, sub)]))
        return loss_fn

    for name in ad.UNARY:
        margin = HVP_KNOT_MARGIN if name == "relu" else 0.0
        checks[f"activation-builtin-{name}"] = case(layer(ActivationSpec.builtin(name)),
                                                    on((3, 4), margin))
    checks["activation-subnet"] = case(layer(subnet), on((3, 4)), *sub_draws)
    checks["activation-tabulated"] = case(layer(tabulated), on((3, 3), HVP_KNOT_MARGIN))

    kinds = [ActivationSpec.builtin("relu"), subnet, tabulated, ActivationSpec.builtin("tanh")]

    def groups(assignment, sub):
        return [(np.flatnonzero(assignment == t), spec, sub if spec.kind == "subnet" else None)
                for t, spec in enumerate(kinds) if (assignment == t).any()]

    mixed = np.array([2, 2, 0, 1, 1, 0, 0, 2])
    checks["activation-mixed"] = case(
        lambda ts: _sum_sq(ad.activation(ts[0], groups(mixed, nn.SubnetParams(*ts[1:])))),
        on((3, 8), HVP_KNOT_MARGIN), *sub_draws)

    # x -> (W0, b0) -> mixed layer -> (W1, b1) -> mixed layer -> W2 -> cross
    # entropy, one subnet type shared by both layers.
    layers = (np.array([0, 1, 2, 3, 1, 0, 2, 3]), np.array([1, 3, 1, 2, 0, 1]))
    x_two = np.random.default_rng(13).uniform(-1, 1, size=(5, 3))
    labels_two = np.random.default_rng(14).integers(0, 4, size=5)

    def two_layers(ts):
        a, sub, pre = Tensor(x_two), nn.SubnetParams(*ts[5:]), []
        for i, assignment in enumerate(layers):
            z = ad.add(ad.matmul(a, ts[2 * i]), ts[2 * i + 1])
            a = ad.activation(z, groups(assignment, sub))
            pre.append(z.data[:, (assignment == 0) | (assignment == 2)])
        return ad.softmax_cross_entropy(ad.matmul(a, ts[4]), labels_two), pre

    def two_layer_case(rng):
        for _ in range(100):
            arrays = [rng.uniform(-1, 1, size=s)
                      for s in [(3, 8), (8,), (8, 6), (6,), (6, 4), (5,), (5,), (5,), ()]]
            with ad.no_grad():
                _, pre = two_layers([Tensor(a) for a in arrays])
            if min(knot_distance(z).min() for z in pre) > HVP_KNOT_MARGIN:
                return arrays, lambda ts: two_layers(ts)[0]
        raise RuntimeError("no draw kept the pre-activations clear of the knots")

    checks["activation-two-layers"] = two_layer_case
    return checks


def test_hvp_covers_every_op():
    """Every op kind, and each kind of fused-activation group, has an HVP case."""
    names = list(hvp_checks())
    required = recorded_op_kinds() | {f"activation-{k}" for k in
                                      ("builtin", "subnet", "tabulated", "mixed", "two-layers")}
    missing = [op for op in sorted(required)
               if not any(name == op or name.startswith(op + "-") for name in names)]
    assert not missing, f"op kinds without an HVP case: {missing}"


def test_hvp_matches_gradient_differences():
    tol = 1e-8
    failures = []
    for name, build in hvp_checks().items():
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(20):
            arrays, loss_fn = build(rng)
            tensors = [Tensor(a, requires_grad=True) for a in arrays]
            v = rng.standard_normal(sum(a.size for a in arrays))
            hv = ad.hessian_vector_product(lambda: loss_fn(tensors), tensors, v)
            fd = richardson_hvp(loss_fn, arrays, v)
            scale = max(np.abs(fd).max(), np.abs(hv).max())
            worst = max(worst, np.abs(hv - fd).max() / scale if scale else 0.0)
        if not worst <= tol:
            failures.append(f"{name}: {worst:.2e}")
    assert not failures, f"HVP differs from gradient differences beyond {tol:g}: {failures}"


# ---------------------------------------------------------------------------
# Criteria 2 and 3 share one tiny network.

@pytest.fixture(scope="module")
def tiny_net():
    rng = np.random.default_rng(33)
    x = rng.uniform(-1, 1, size=(24, 3))
    y = np.column_stack([np.sin(2 * x[:, 0]), x[:, 1] * x[:, 2]])
    config = nn.mlp_config(3, 4, 2, (ActivationSpec.builtin("tanh"),), task="regression")
    params = nn.init_network(config, seed=33)

    def lossfn():
        out, _, _ = nn.forward(params, config, x)
        return ad.mse(out, Tensor(y))

    opt = ml.Adam(0.02)
    for _ in range(200):
        grads = ad.backward(lossfn())
        opt.update(params.theta(), grads)
    return lossfn, params.theta()


def test_criterion_2_hvp_and_exact_hessian(tiny_net):
    lossfn, params = tiny_net
    n = ad.flatten_params(params).size
    assert n <= 50
    H_oracle = dense_fd_hessian(lossfn, params)
    H_hvp = dg.hessian_matrix(lossfn, params)
    hvp_err = float(np.abs(H_hvp - H_oracle).max())
    summary = dg.hessian_exact(lossfn, params)
    trace_gap = abs(summary.eigenvalues.sum() - summary.trace)
    ok = hvp_err < 1e-6 and trace_gap < 1e-8 * n
    report(2, "hvp-hessian-oracle", ok,
           f"(P={n}, max|Hv - H_fd v|={hvp_err:.2e}, |sum(eig)-trace|={trace_gap:.2e})")


def test_criterion_3_hutchinson_consistency(tiny_net):
    lossfn, params = tiny_net
    exact = dg.hessian_exact(lossfn, params)
    est = dg.hessian_trace_hutchinson(lossfn, params, n_probes=200, seed=17)
    gap = abs(est.value - exact.trace)
    ok = gap <= 3 * max(est.stderr, 1e-12)
    report(3, "hutchinson-consistency", ok,
           f"(exact {exact.trace:.6f}, estimate {est.value:.6f} +- {est.stderr:.6f})")


# ---------------------------------------------------------------------------
# Criterion 4: participation ratio limiting cases and invariances.

def test_criterion_4_participation_ratio():
    checks = []
    # all variance in one dimension -> R = 1
    X = np.zeros((8, 400))
    X[0] = np.random.default_rng(0).standard_normal(400)
    checks.append(("delta", abs(dg.participation_ratio(X).ratio - 1.0) < 1e-9))
    # exactly isotropic -> R = N (zero-mean orthogonal Hadamard rows)
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]])
    h8 = np.kron(h2, np.kron(h2, h2))
    iso = np.tile(h8[1:7], 12)
    checks.append(("isotropic", abs(dg.participation_ratio(iso).ratio - 6.0) < 1e-9))
    # random isotropic data with M = 10N stays above 0.9 N
    Xr = np.random.default_rng(0).standard_normal((100, 1000))
    r_big = dg.participation_ratio(Xr).ratio
    checks.append(("random-M=10N", r_big >= 0.9 * 100))
    # invariances
    rng = np.random.default_rng(1)
    Y = rng.standard_normal((10, 300)) * rng.uniform(0.2, 2.0, size=(10, 1))
    base = dg.participation_ratio(Y).ratio
    checks.append(("permutation", abs(dg.participation_ratio(Y[rng.permutation(10)]).ratio - base) < 1e-10))
    checks.append(("scaling", abs(dg.participation_ratio(2.7 * Y).ratio - base) < 1e-10))
    bad = [name for name, ok in checks if not ok]
    report(4, "participation-ratio", not bad,
           f"(R_random={r_big:.2f} on N=100)" + (f" failures: {bad}" if bad else ""))


# ---------------------------------------------------------------------------
# Criterion 5: integrator order and accuracy.

def test_criterion_5_integrator():
    state = tasks.OscillatorState(1.0, 0.0)
    h = 1e-3
    n = int(2 * math.pi / h)
    state = tasks.integrate(state, h, n, mu=0.0)
    state = tasks.rk4_step(state, 2 * math.pi - n * h, 0.0)
    period_err = math.hypot(state.x - 1.0, state.v)

    def end_state(hh):
        s = tasks.integrate(tasks.OscillatorState(0.5, 0.0), hh, int(round(1.0 / hh)), 2.7)
        return np.array([s.x, s.v])

    ref = end_state(0.002)
    ratio = (np.linalg.norm(end_state(0.02) - ref)
             / np.linalg.norm(end_state(0.01) - ref))
    ok = period_err < 1e-9 and 8.0 < ratio < 32.0
    report(5, "rk4-integrator", ok,
           f"(period error {period_err:.2e}, halving ratio {ratio:.1f})")


# ---------------------------------------------------------------------------
# Criterion 6: baseline training sanity.

@pytest.fixture(scope="module")
def digit_data():
    s_train, s_val = np.random.SeedSequence(DATA_SEED).spawn(2)
    train = tasks.generate_synthetic_1d(s_train, 4000, split="train")
    val = tasks.generate_synthetic_1d(s_val, 1000, split="val")
    return train, val


def test_criterion_6_baseline_relu(digit_data):
    train, val = digit_data
    config = nn.mlp_config(40, 100, 10, (ActivationSpec.builtin("relu"),))
    schedule = ml.TrainSchedule(inner_lr=0.01, batch_size=100, epochs=15,
                                optimizer="adam", seed=1)
    params, _ = ml.train(config, schedule, train, val)
    acc = ml.evaluate(params, config, val)
    report(6, "baseline-relu-sanity", acc > 0.30,
           f"(validation accuracy {acc:.3f} on M=4000, chance 0.10)")


# ---------------------------------------------------------------------------
# Criteria 7 and 10: the accuracy campaign.

def accuracy_campaign_config(seed):
    return {
        "task": "mnist1d", "seed": seed, "n_seeds": N_SEEDS_ACCURACY,
        "hidden_width": CAMPAIGN_WIDTH,
        "activation_types": [
            {"kind": "subnet", "base": "sine", "hidden_width": 50},
            {"kind": "subnet", "base": "sine", "hidden_width": 50},
            {"kind": "builtin", "name": "relu"},
        ],
        "variants": {"mix": [0, 1], "type1": [0], "type2": [1], "relu": [2]},
        "data": {"m_train": 4000, "m_val": 1000, "seed": DATA_SEED},
        "schedule": MNIST1D_SCHEDULE,
        # Criterion 8's settings; it reads this campaign's records.
        "diagnostics": {"hessian": True, "hutchinson_probes": 64,
                        "lanczos_k": 32, "hessian_examples": 1000},
    }


def run_accuracy_campaign(tmp_path, seed):
    exp, train, val = experiment(tmp_path, accuracy_campaign_config(seed))
    return cli.run_campaign(exp, train, val, CAMPAIGN_WIDTH, jobs=os.cpu_count() or 1)


def ordering_holds(records):
    med = medians(records)
    mean = means(records)
    ok = (med["mix"] >= med["type1"] and med["mix"] >= med["type2"]
          and mean["mix"] > min(mean["type1"], mean["type2"]))
    detail = (f"median mix={med['mix']:.4f} type1={med['type1']:.4f} "
              f"type2={med['type2']:.4f} relu={med['relu']:.4f}; "
              f"mean mix={mean['mix']:.4f}")
    return ok, detail


@pytest.fixture(scope="module")
def accuracy_campaign(tmp_path_factory):
    """Criterion-7 campaign; re-run once with a second seed if the ordering
    fails, reporting both (the criterion's stated protocol)."""
    tmp = tmp_path_factory.mktemp("campaign7")
    records = run_accuracy_campaign(tmp, CAMPAIGN_SEED)
    ok, detail = ordering_holds(records)
    attempts = [(CAMPAIGN_SEED, ok, detail, records)]
    if not ok:
        retry = run_accuracy_campaign(tmp, CAMPAIGN_SEED_RETRY)
        ok2, detail2 = ordering_holds(retry)
        attempts.append((CAMPAIGN_SEED_RETRY, ok2, detail2, retry))
    return attempts


@pytest.mark.slow
def test_criterion_7_mix_outperforms(accuracy_campaign):
    for seed, ok, detail, _ in accuracy_campaign:
        print(f"  campaign seed {seed}: {'ordering holds' if ok else 'ordering fails'} {detail}")
    seed, ok, detail, _ = accuracy_campaign[-1]
    n_failed = sum(1 for r in accuracy_campaign[-1][3] if r.status != "ok")
    report(7, "mix-outperforms-pure", ok,
           detail + f" [seed {seed}, {n_failed} failed runs]")


@pytest.mark.slow
def test_criterion_10_participation_coupling(accuracy_campaign):
    _, _, _, records = accuracy_campaign[-1]
    mean_a = means(records)
    mean_r = means(records, key=lambda r: r.normalized_ratio)
    baselines = ["relu"]  # homogeneous fixed-activation competitors in the roster
    fails = [b for b in baselines
             if not (mean_a["mix"] > mean_a[b] and mean_r["mix"] > mean_r[b])]
    detail = (f"(mix A={mean_a['mix']:.4f} r={mean_r['mix']:.4f}; "
              + "; ".join(f"{b} A={mean_a[b]:.4f} r={mean_r[b]:.4f}" for b in baselines) + ")")
    report(10, "participation-accuracy-coupling", not fails, detail)


# ---------------------------------------------------------------------------
# Criterion 8: flatness of the found minima.

@pytest.mark.slow
def test_criterion_8_flatness(accuracy_campaign):
    # Criterion 7's campaign at CAMPAIGN_SEED: its replicates 0-9 of these
    # variants are the runs a campaign of N_SEEDS_FLATNESS seeds would train.
    variants = accuracy_campaign_config(CAMPAIGN_SEED)["variants"]
    variants = {v: variants[v] for v in ("mix", "type1", "type2")}
    records = [r for r in accuracy_campaign[0][3]
               if r.variant in variants and r.replicate < N_SEEDS_FLATNESS]
    assert len(records) == len(variants) * N_SEEDS_FLATNESS
    # The Hessian spans theta (40*20+20 + 20*10+10 = 1030 weights) and theta_a
    # (151 per sine/50 sub-network), so mix has two sub-networks' worth more
    # diagonal entries to sum than type1 or type2.  Compare the mean curvature
    # tr(H)/P, which like the fraction f does not grow with P.
    n_params = {v: 1030 + 151 * len(types) for v, types in variants.items()}
    assert all(r.hessian_params == n_params[r.variant] for r in records)
    med_raw = medians(records, key=lambda r: r.hessian_trace)
    med_tr = medians(records, key=lambda r: r.hessian_trace / r.hessian_params)
    med_se = medians(records, key=lambda r: r.hessian_trace_stderr / r.hessian_params)
    med_f = medians(records, key=lambda r: r.f_near_zero)
    ok = (med_tr["mix"] < med_tr["type1"] and med_tr["mix"] < med_tr["type2"]
          and med_f["mix"] > med_f["type1"] and med_f["mix"] > med_f["type2"])
    report(8, "diverse-minima-flatter", ok, "(medians: " + "; ".join(
        f"{v} P={n_params[v]} TrH={med_raw[v]:.3f} TrH/P={med_tr[v]:.5f} "
        f"stderr/P={med_se[v]:.5f} f={med_f[v]:.4f}" for v in n_params) + ")")


# ---------------------------------------------------------------------------
# Criterion 9: van der Pol regression direction.

@pytest.mark.slow
def test_criterion_9_vdp_regression(tmp_path):
    cfg = {
        "task": "vdp", "seed": CAMPAIGN_SEED, "n_seeds": N_SEEDS_VDP,
        "hidden_width": CAMPAIGN_WIDTH,
        "activation_types": [
            {"kind": "subnet", "base": "sine", "hidden_width": 50},
            {"kind": "subnet", "base": "sine", "hidden_width": 50},
            {"kind": "builtin", "name": "sine"},
        ],
        "variants": {"mix": [0, 1], "sine": [2]},
        "data": {"mu": 2.7, "h": 0.01, "n_transient": 5000, "n_samples": 4000,
                 "seed": DATA_SEED},
        "schedule": VDP_SCHEDULE,
    }
    exp, train, val = experiment(tmp_path, cfg)
    records = cli.run_campaign(exp, train, val, CAMPAIGN_WIDTH, jobs=os.cpu_count() or 1)
    med = medians(records)
    ok = med["mix"] <= med["sine"]
    report(9, "vdp-mix-beats-sine", ok,
           f"(median one-step MSE: mix={med['mix']:.3e}, sine={med['sine']:.3e})")


# ---------------------------------------------------------------------------
# Criterion 11: export and reuse of learned activations.

@pytest.mark.slow
def test_criterion_11_reuse_pipeline(tmp_path, digit_data):
    train, val = digit_data
    subnet_acts = (ActivationSpec.subnet("sine", 50), ActivationSpec.subnet("sine", 50))
    schedule_kw = {k: v for k, v in MNIST1D_SCHEDULE.items()}
    subnet_accs, frozen_accs = [], []
    for rep in range(N_SEEDS_REUSE):
        seed = cli.derive_run_seed(CAMPAIGN_SEED, "reuse", rep)
        config = nn.mlp_config(40, CAMPAIGN_WIDTH, 10, subnet_acts, types=(0, 1))
        params, _ = ml.train(config, ml.TrainSchedule(**schedule_kw, seed=seed), train, val)
        subnet_accs.append(ml.evaluate(params, config, val))
        # freeze through the real CLI export path
        snapshot = tmp_path / f"reuse{rep}_params.json"
        nn.save_params(params, config, snapshot)
        loaded = []
        for t in (0, 1):
            act_path = tmp_path / f"reuse{rep}_{t}.json"
            assert cli.main(["export-activation", str(snapshot), "--type", str(t),
                             "--out", str(act_path)]) == 0
            loaded.append(nn.load_activation_json(act_path))
        frozen_config = nn.mlp_config(40, CAMPAIGN_WIDTH, 10, tuple(loaded), types=(0, 1))
        frozen_params, _ = ml.train(frozen_config, ml.TrainSchedule(**schedule_kw, seed=seed),
                                    train, val)
        assert nn.theta_a_size(frozen_params) == 0
        frozen_accs.append(ml.evaluate(frozen_params, frozen_config, val))
    gap = abs(float(np.median(frozen_accs)) - float(np.median(subnet_accs)))
    report(11, "reuse-pipeline", gap <= 0.02,
           f"(median subnet {np.median(subnet_accs):.4f}, "
           f"median frozen {np.median(frozen_accs):.4f}, gap {gap:.4f})")


# ---------------------------------------------------------------------------
# Criterion 12: byte-identical determinism of commands.

def test_criterion_12_determinism(tmp_path):
    def tree(root):
        out = {}
        for dirpath, _, files in os.walk(root):
            for f in files:
                full = os.path.join(dirpath, f)
                out[os.path.relpath(full, root)] = open(full, "rb").read()
        return out

    cfg = {
        "task": "mnist1d", "seed": 5, "n_seeds": 2, "hidden_width": 6,
        "activation_types": [
            {"kind": "subnet", "base": "sine", "hidden_width": 4},
            {"kind": "builtin", "name": "relu"},
        ],
        "variants": {"mix": [0, 1], "relu": [1]},
        "data": {"m_train": 60, "m_val": 30, "seed": 3},
        "schedule": {"inner_lr": 0.01, "outer_lr": 0.001, "batch_size": 20,
                     "epochs": 2, "optimizer": "adam"},
    }
    config = tmp_path / "exp.json"
    config.write_text(json.dumps(cfg))
    same = []
    for cmd in (["train", str(config), "--seed", "7"],
                ["campaign", str(config), "--jobs", "1"],
                ["gen-data", "mnist1d-synth", "--seed", "4", "--m", "40"]):
        o1, o2 = tmp_path / f"{cmd[0]}-a", tmp_path / f"{cmd[0]}-b"
        assert cli.main(cmd + ["--out", str(o1)]) == 0
        assert cli.main(cmd + ["--out", str(o2)]) == 0
        same.append(tree(o1) == tree(o2))
    report(12, "byte-identical-determinism", all(same),
           f"(train/campaign/gen-data re-runs identical: {same})")
