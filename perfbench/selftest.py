"""Tests of the benchmark's correctness checks: each passes on the
program's real output and rejects a corrupted copy of it.

    python3 -m pytest perfbench/selftest.py

The file is not named test_*.py, so the repository's own test run does not
collect it.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from ldnn import autodiff as ad  # noqa: E402
from ldnn import cli, diagnostics as dg, metalearn as ml, nn, tasks  # noqa: E402

SCHEDULE = dict(workloads.SCHEDULE, epochs=2)


@pytest.fixture(scope="module")
def data():
    return (tasks.generate_synthetic_1d(1, 300, split="train"),
            tasks.generate_synthetic_1d(2, 100, split="val"))


@pytest.fixture(scope="module")
def mix(data):
    """A small trained mix net: two sine subnets and a relu neuron type."""
    train, val = data
    acts = workloads.MIX + (nn.ActivationSpec.builtin("relu"),)
    config = nn.mlp_config(train.n_features, 6, 10, acts)
    params, history = ml.train(config, ml.TrainSchedule(**SCHEDULE, seed=3), train, val)
    return config, params, history


def test_forward(data, mix):
    _, val = data
    config, params, _ = mix
    with ad.no_grad():
        program = nn.forward(params, config, val.inputs)[0].data
    accuracy = ml.evaluate(params, config, val)
    net = workloads.net_arrays(params, config)
    checks.check_forward(net, val.inputs, val.targets, program, accuracy)

    flipped = workloads.net_arrays(params, config)
    kind = flipped.types[0]
    kind[4][:] = -kind[4]  # the sign of the first subnet's output weights
    with pytest.raises(CheckFailed, match="logits"):
        checks.check_forward(flipped, val.inputs, val.targets, program, accuracy)
    with pytest.raises(CheckFailed, match="accuracy"):
        checks.check_forward(net, val.inputs, val.targets, program, accuracy + 0.01)


def test_gradient(data, mix):
    train, _ = data
    config, params, _ = mix
    xb, yb = train.inputs[:50], train.targets[:50]
    tensors = workloads.named_tensors(params)
    grads = ad.backward(ml.batch_loss(params, config, xb, yb))
    net = workloads.net_arrays(params, config)
    arrays = workloads.named_arrays(net, config)
    coords = {name: np.arange(min(a.size, 4)) for name, a in arrays.items()}
    tape = {name: grads[tensors[name]].copy() for name in arrays}

    def loss():
        return checks.cross_entropy(net, xb, yb)

    checks.check_gradient(loss, arrays, tape, coords)
    for name in ("w0", "t0.w1", "t1.b2"):
        bad = {k: v.copy() for k, v in tape.items()}
        bad[name].reshape(-1)[0] += 1e-3
        with pytest.raises(CheckFailed, match=name.replace(".", r"\.")):
            checks.check_gradient(loss, arrays, bad, coords)


def test_timescales(data, mix):
    train, _ = data
    config, params, _ = mix
    batch = (train.inputs[:50], train.targets[:50])
    tensors = workloads.named_tensors(params)
    theta = ["w0", "b0", "w1", "b1"]
    theta_a = [n for n in tensors if n not in theta]
    saved = {n: t.data.copy() for n, t in tensors.items()}

    def state():
        return {n: t.data.copy() for n, t in tensors.items()}

    before = state()
    ml.inner_step(params, config, batch, ml.TrainSchedule(**SCHEDULE))
    after_inner = state()
    ml.outer_step(params, config, batch, ml.TrainSchedule(**SCHEDULE))
    after_outer = state()
    for n, t in tensors.items():
        t.assign(saved[n])
    checks.check_timescales(before, after_inner, after_outer, theta, theta_a)

    def nudged(s, name):
        s = dict(s)
        s[name] = np.nextafter(s[name], np.inf)
        return s

    with pytest.raises(CheckFailed, match="inner step changed"):
        checks.check_timescales(before, nudged(after_inner, "t1.b2"), after_outer, theta, theta_a)
    with pytest.raises(CheckFailed, match="outer step changed"):
        checks.check_timescales(before, after_inner, nudged(after_outer, "b0"), theta, theta_a)
    with pytest.raises(CheckFailed, match="inner step left"):
        checks.check_timescales(before, before, after_outer, theta, theta_a)
    with pytest.raises(CheckFailed, match="outer step left"):
        checks.check_timescales(before, after_inner, after_inner, theta, theta_a)


def test_learning():
    checks.check_learning(0.8, 2.3, 0.5)
    with pytest.raises(CheckFailed, match="accuracy"):
        checks.check_learning(0.1, 2.3, 0.5)
    with pytest.raises(CheckFailed, match="loss"):
        checks.check_learning(0.8, 2.3, 2.3)


def _hvp(config, params, x, y):
    return lambda v: ad.hessian_vector_product(
        lambda: ml.batch_loss(params, config, x, y), params.all_tensors(), v)


def test_output_block(data, mix):
    train, _ = data
    config, params, _ = mix
    x, y = train.inputs[:100], train.targets[:100]
    w_slice, b_slice, dim = workloads.output_layer_slices(params)
    rng = np.random.default_rng(0)
    v_w, v_b = rng.standard_normal(params.weights[1].data.shape), rng.standard_normal(10)
    v = np.zeros(dim)
    v[w_slice], v[b_slice] = v_w.ravel(), v_b
    hv = _hvp(config, params, x, y)(v)
    net = workloads.net_arrays(params, config)
    hv_w, hv_b = hv[w_slice], hv[b_slice]
    checks.check_output_block(net, x, v_w, v_b, hv_w, hv_b)
    bad = hv_w.copy()
    bad[7] *= 1.01
    with pytest.raises(CheckFailed, match="output-layer"):
        checks.check_output_block(net, x, v_w, v_b, bad, hv_b)


def test_symmetry(data):
    """On a smooth net; the relu type in ``mix`` has kinks the
    finite-difference HVP steps across."""
    train, val = data
    config = nn.mlp_config(train.n_features, 6, 10, workloads.MIX)
    params, _ = ml.train(config, ml.TrainSchedule(**SCHEDULE, seed=3), train, val)
    hvp = _hvp(config, params, train.inputs[:100], train.targets[:100])
    u, v = np.random.default_rng(1).standard_normal((2, sum(t.data.size for t in params.all_tensors())))
    hu, hv = hvp(u), hvp(v)
    checks.check_symmetry(u, v, hu, hv)
    bad = hv.copy()
    bad[np.argmax(np.abs(u))] += 0.01 * np.linalg.norm(hv)
    with pytest.raises(CheckFailed, match="u'Hv"):
        checks.check_symmetry(u, v, hu, bad)


def test_probes_count_failures():
    """On a quadratic loss the finite-difference HVP is exact, so no probe
    fails; the ReLU probe net of a benchmark run is where they do."""
    a = np.random.default_rng(4).standard_normal((30, 12))
    p = ad.Tensor(np.ones(12), requires_grad=True)
    probe = workloads.Hessian.__new__(workloads.Hessian)
    probe._relu = ([p], lambda: ad.reduce_mean(ad.square(ad.matmul(a, p))))
    assert probe.round_ops() == (1 + 2 * len(workloads.PROBE_SEEDS), 0)


def test_probe_measures():
    hv = np.array([1.0, -2.0, 3.0])
    assert checks.nonlinearity(hv, 2 * hv) == 0.0
    assert checks.nonlinearity(hv, 2.2 * hv) > checks.LINEARITY_TOL
    h = np.array([[2.0, 1.0], [1.0, 3.0]])
    u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert checks.asymmetry(u, v, h @ u, h @ v) == 0.0
    h[0, 1] = 1.5
    assert checks.asymmetry(u, v, h @ u, h @ v) > checks.SYMMETRY_TOL


def test_lanczos():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((40, 40))
    a = a @ a.T
    lan = dg.lanczos(lambda z: a @ z, 40, 12, seed=3)
    checks.check_lanczos(lan.basis, lan.weights, lan.f_near_zero)
    bad = lan.basis.copy()
    bad[3] *= 1.0 + 1e-6
    with pytest.raises(CheckFailed, match="orthonormal"):
        checks.check_lanczos(bad, lan.weights, lan.f_near_zero)
    with pytest.raises(CheckFailed, match="weights"):
        checks.check_lanczos(lan.basis, lan.weights * 1.001, lan.f_near_zero)
    with pytest.raises(CheckFailed, match="near-zero"):
        checks.check_lanczos(lan.basis, lan.weights, 1.2)


@pytest.fixture(scope="module")
def campaign(tmp_path_factory, data):
    """A tiny campaign emitted by the program, read back as CSV rows."""
    out = tmp_path_factory.mktemp("campaign")
    train, val = data
    grid, values = workloads.swish_table()
    exp = cli.ExperimentConfig(
        task="mnist1d", seed=31, n_seeds=2, hidden_width=4,
        activation_types=[nn.ActivationSpec.subnet("sine", 5), nn.ActivationSpec.builtin("relu"),
                          nn.ActivationSpec.tabulated(grid, values)],
        variants={"mix": [0, 1], "tab": [2]}, schedule={**SCHEDULE, "epochs": 1},
        diagnostics=dict(cli.DIAG_DEFAULTS))
    records = cli.run_campaign(exp, train, val, exp.hidden_width, jobs=1)
    cli.emit_campaign(exp, records, str(out), exp.hidden_width)
    read = {name: checks.read_csv(out / f"{name}.csv") for name in ("runs", "groups", "hist2d")}
    return exp, read


def test_campaign_outputs(campaign):
    exp, read = campaign
    runs = read["runs"]
    checks.check_runs(runs, exp.variants, exp.n_seeds)
    checks.check_seeds(runs, exp.seed)
    checks.check_groups(runs, read["groups"])
    checks.check_hist(runs, read["hist2d"])


def test_campaign_rows_rejected(campaign):
    exp, read = campaign
    runs = read["runs"]
    with pytest.raises(CheckFailed, match="rows"):
        checks.check_runs(runs[1:], exp.variants, exp.n_seeds)
    failed = [dict(r) for r in runs]
    failed[2]["status"] = "failed: TrainingDiverged"
    with pytest.raises(CheckFailed, match="not ok"):
        checks.check_runs(failed, exp.variants, exp.n_seeds)


def test_campaign_swapped_seed_rejected(campaign):
    exp, read = campaign
    swapped = [dict(r) for r in read["runs"]]
    swapped[0]["seed"], swapped[1]["seed"] = swapped[1]["seed"], swapped[0]["seed"]
    with pytest.raises(CheckFailed, match="seed"):
        checks.check_seeds(swapped, exp.seed)
    with pytest.raises(CheckFailed, match="seed"):
        checks.check_seeds(read["runs"], exp.seed + 1)


def test_campaign_groups_rejected(campaign):
    _, read = campaign
    runs, groups = read["runs"], read["groups"]
    bad = [dict(g) for g in groups]
    bad[0]["median"] = repr(float(bad[0]["median"]) + 1e-6)
    with pytest.raises(CheckFailed, match="median"):
        checks.check_groups(runs, bad)
    bad = [dict(g) for g in groups]
    bad[0]["count"] = str(int(bad[0]["count"]) + 1)
    with pytest.raises(CheckFailed, match="n="):
        checks.check_groups(runs, bad)
    with pytest.raises(CheckFailed, match="variants"):
        checks.check_groups(runs, groups[1:])


def test_campaign_hist_rejected(campaign):
    _, read = campaign
    hist = [dict(h) for h in read["hist2d"]]
    row = next(h for h in hist if int(h["count"]) > 0)
    row["count"] = str(int(row["count"]) - 1)
    with pytest.raises(CheckFailed, match="hist2d"):
        checks.check_hist(read["runs"], hist)
