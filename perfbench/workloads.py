"""The benchmark's three workloads, driven through ldnn's public functions
and its CLI.

Each workload does its set-up when constructed.  ``op`` runs the timed
operation once and returns its output (``trace_run`` selects the form a
traced run times); ``round_ops`` runs the untimed operations that belong
to every round and returns (attempted, failed) for the whole round, the
timed operation included; ``check`` raises ``checks.CheckFailed`` if an
output is wrong.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np

import checks
from ldnn import autodiff as ad
from ldnn import cli, metalearn as ml, nn, tasks

WIDTH = 20
M_TRAIN, M_VAL = 4000, 1000
SCHEDULE = {"inner_lr": 0.01, "outer_lr": 0.001, "outer_period": 5, "outer_steps": 1,
            "batch_size": 100, "optimizer": "adam"}
MIX = (nn.ActivationSpec.subnet("sine", 50), nn.ActivationSpec.subnet("sine", 50))

TRAIN_EPOCHS = 20
HESSIAN_NET_EPOCHS = 5
HESSIAN_PROBES, LANCZOS_K, HESSIAN_EXAMPLES = 64, 32, 1000
# The ReLU probe net and its probes do not depend on --seed: they exist
# to fail the same way on every run until the HVP is exact.
PROBE_DATA_SEED, PROBE_NET_SEED, PROBE_SEEDS = 7, 11, (101, 202, 303)
CAMPAIGN_JOBS, CAMPAIGN_SEEDS, CAMPAIGN_EPOCHS = 2, 2, 10
CAMPAIGN_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _datasets(seed_seq):
    s_train, s_val = seed_seq.spawn(2)
    return (tasks.generate_synthetic_1d(s_train, M_TRAIN, split="train"),
            tasks.generate_synthetic_1d(s_val, M_VAL, split="val"))


def _int_seed(seed_seq) -> int:
    return int(seed_seq.generate_state(1, np.uint64)[0])


def net_arrays(params, config) -> checks.Net:
    """Copies of a one-hidden-layer net's parameters as plain arrays."""
    per_type = {}
    for t, spec in enumerate(config.activations):
        if spec.kind == "subnet":
            sp = params.subnets[t]
            per_type[t] = ("subnet", spec.name, sp.w1.data.copy(), sp.b1.data.copy(),
                           sp.w2.data.copy(), sp.b2.data.copy())
        else:
            per_type[t] = ("builtin", spec.name)
    return checks.Net(params.weights[0].data.copy(), params.biases[0].data.copy(),
                      params.weights[1].data.copy(), params.biases[1].data.copy(),
                      [per_type[t] for t in config.layers[0].assignment])


def named_tensors(params) -> dict:
    out = {"w0": params.weights[0], "b0": params.biases[0],
           "w1": params.weights[1], "b1": params.biases[1]}
    for t, sp in params.subnets.items():
        out.update({f"t{t}.w1": sp.w1, f"t{t}.b1": sp.b1, f"t{t}.w2": sp.w2, f"t{t}.b2": sp.b2})
    return out


def named_arrays(net: checks.Net, config) -> dict:
    """The arrays of ``net`` under the names ``named_tensors`` gives the
    program's parameters."""
    out = {"w0": net.w0, "b0": net.b0, "w1": net.w1, "b1": net.b1}
    for t, kind in zip(config.layers[0].assignment, net.types):
        out.update({f"t{t}.{k}": a for k, a in zip(("w1", "b1", "w2", "b2"), kind[2:])})
    return out


def output_layer_slices(params):
    """Where the output layer's weights and biases sit in the flat
    parameter vector of ``params.all_tensors()``."""
    offsets = np.cumsum([0] + [t.data.size for t in params.all_tensors()])
    return slice(offsets[2], offsets[3]), slice(offsets[3], offsets[4]), offsets[-1]


class Train:
    """One seeded metalearn.train of the mix net, BLAS on one thread."""

    name = "train"

    def __init__(self, seed: int, workdir: str):
        s_data, s_run, self._s_check = np.random.SeedSequence(seed).spawn(3)
        self.train_set, self.val_set = _datasets(s_data)
        self.config = nn.mlp_config(self.train_set.n_features, WIDTH, 10, MIX)
        self.schedule = ml.TrainSchedule(**SCHEDULE, epochs=TRAIN_EPOCHS, seed=_int_seed(s_run))

    def op(self, trace_run: bool):
        return ml.train(self.config, self.schedule, self.train_set, self.val_set)

    def round_ops(self):
        return 1, 0

    def check(self, output, first: bool):
        params, history = output
        val = self.val_set
        with ad.no_grad():
            program_logits = nn.forward(params, self.config, val.inputs)[0].data
        checks.check_forward(net_arrays(params, self.config), val.inputs, val.targets,
                             program_logits, ml.evaluate(params, self.config, val))
        inner = [r[3] for r in history.records if r[2] == "inner"]
        checks.check_learning(history.val[-1][1], inner[0], inner[-1])

        rng = np.random.default_rng(self._s_check)
        idx = rng.choice(self.train_set.n_examples, SCHEDULE["batch_size"], replace=False)
        xb, yb = self.train_set.inputs[idx], self.train_set.targets[idx]
        tensors = named_tensors(params)
        grads = ad.backward(ml.batch_loss(params, self.config, xb, yb))
        net = net_arrays(params, self.config)
        arrays = named_arrays(net, self.config)
        coords = {name: rng.choice(a.size, min(a.size, 6), replace=False)
                  for name, a in arrays.items()}
        checks.check_gradient(lambda: checks.cross_entropy(net, xb, yb), arrays,
                              {name: grads[tensors[name]] for name in arrays}, coords)

        theta = ["w0", "b0", "w1", "b1"]
        theta_a = [n for n in tensors if n not in theta]

        def state():
            return {n: t.data.copy() for n, t in tensors.items()}

        before = state()
        ml.inner_step(params, self.config, (xb, yb), self.schedule)
        after_inner = state()
        ml.outer_step(params, self.config, (xb, yb), self.schedule)
        checks.check_timescales(before, after_inner, state(), theta, theta_a)


class Hessian:
    """One cli.hessian_diagnostics pass on a mix net trained in set-up,
    plus the ReLU symmetry and linearity probes."""

    name = "hessian"

    def __init__(self, seed: int, workdir: str):
        s_data, s_run, s_diag, self._s_check = np.random.SeedSequence(seed).spawn(4)
        self.train_set, val_set = _datasets(s_data)
        self.config = nn.mlp_config(self.train_set.n_features, WIDTH, 10, MIX)
        schedule = ml.TrainSchedule(**SCHEDULE, epochs=HESSIAN_NET_EPOCHS, seed=_int_seed(s_run))
        self.params, _ = ml.train(self.config, schedule, self.train_set, val_set)
        self.trace_seed, self.lanczos_seed = (int(s) for s in s_diag.generate_state(2, np.uint64))

        probe_set = tasks.generate_synthetic_1d(PROBE_DATA_SEED, HESSIAN_EXAMPLES)
        relu = nn.mlp_config(probe_set.n_features, WIDTH, 10, (nn.ActivationSpec.builtin("relu"),))
        relu_params, _ = ml.train(relu, ml.TrainSchedule(**SCHEDULE, epochs=HESSIAN_NET_EPOCHS,
                                                          seed=PROBE_NET_SEED),
                                  probe_set, probe_set)
        self._relu = (relu_params.all_tensors(),
                      lambda: ml.batch_loss(relu_params, relu, probe_set.inputs, probe_set.targets))

    def _hvp_on_mix(self, v):
        xb = self.train_set.inputs[:HESSIAN_EXAMPLES]
        yb = self.train_set.targets[:HESSIAN_EXAMPLES]
        return ad.hessian_vector_product(lambda: ml.batch_loss(self.params, self.config, xb, yb),
                                         self.params.all_tensors(), v)

    def op(self, trace_run: bool):
        return cli.hessian_diagnostics(self.params, self.config, self.train_set, HESSIAN_PROBES,
                                       LANCZOS_K, HESSIAN_EXAMPLES, self.trace_seed,
                                       self.lanczos_seed)

    def round_ops(self):
        """Each probe is one operation; it fails when the HVP breaks the property."""
        tensors, lossfn = self._relu
        dim = sum(t.data.size for t in tensors)
        failed = 0
        for seed in PROBE_SEEDS:
            u, v = np.random.default_rng(seed).standard_normal((2, dim))
            hu = ad.hessian_vector_product(lossfn, tensors, u)
            hv = ad.hessian_vector_product(lossfn, tensors, v)
            failed += checks.asymmetry(u, v, hu, hv) > checks.SYMMETRY_TOL
            h2v = ad.hessian_vector_product(lossfn, tensors, 2.0 * v)
            failed += checks.nonlinearity(hv, h2v) > checks.LINEARITY_TOL
        return 1 + 2 * len(PROBE_SEEDS), failed

    def check(self, output, first: bool):
        _, lan, _ = output
        checks.check_lanczos(lan.basis, lan.weights, lan.f_near_zero)
        if not first:
            return
        rng = np.random.default_rng(self._s_check)
        w_slice, b_slice, dim = output_layer_slices(self.params)
        v_w = rng.standard_normal(self.params.weights[1].data.shape)
        v_b = rng.standard_normal(self.params.biases[1].data.shape)
        v = np.zeros(dim)
        v[w_slice], v[b_slice] = v_w.ravel(), v_b
        hv = self._hvp_on_mix(v)
        checks.check_output_block(net_arrays(self.params, self.config),
                                  self.train_set.inputs[:HESSIAN_EXAMPLES], v_w, v_b,
                                  hv[w_slice], hv[b_slice])
        u, v = rng.standard_normal((2, dim))
        checks.check_symmetry(u, v, self._hvp_on_mix(u), self._hvp_on_mix(v))


def swish_table():
    """The tabulated variant's activation, a * sigmoid(a) sampled on [-6, 6]."""
    grid = np.linspace(-6.0, 6.0, 241)
    return grid, grid / (1.0 + np.exp(-grid))


def reap_children(deadline: float):
    """Wait for every child of this process, including orphaned descendants
    re-parented to it; kill the rest at ``deadline``."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() > deadline:
                raise TimeoutError("a child process outlived its deadline")
            time.sleep(0.001)


class Campaign:
    """`ldnn campaign --jobs 2` on .dsv data written in set-up, BLAS and
    OpenMP thread variables unset."""

    name = "campaign"
    variants = {"mix": [0, 1], "relu": [2], "tab": [3]}

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.campaign_seed = seed
        train_set, val_set = _datasets(np.random.SeedSequence(seed))
        paths = {"train_path": os.path.join(workdir, "train.dsv"),
                 "val_path": os.path.join(workdir, "val.dsv")}
        tasks.save_dataset(train_set, paths["train_path"])
        tasks.save_dataset(val_set, paths["val_path"])
        grid, values = swish_table()
        self.config_path = os.path.join(workdir, "campaign.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump({
                "task": "mnist1d", "seed": seed, "n_seeds": CAMPAIGN_SEEDS, "hidden_width": WIDTH,
                "activation_types": [nn.spec_to_dict(s) for s in MIX] + [
                    {"kind": "builtin", "name": "relu"},
                    {"kind": "tabulated", "grid": grid.tolist(), "values": values.tolist()}],
                "variants": self.variants,
                "data": paths,
                "schedule": {**SCHEDULE, "epochs": CAMPAIGN_EPOCHS},
                "diagnostics": {"hessian": False},
            }, fh, indent=1)
        self._rounds = 0

    def op(self, trace_run: bool):
        self._rounds += 1
        out = os.path.join(self.workdir, f"out{self._rounds}")
        if trace_run:
            return self._in_process(out)
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.dirname(os.path.dirname(cli.__file__)),
                                                        env.get("PYTHONPATH")) if p)
        cmd = [sys.executable, "-m", "ldnn.cli", "campaign", self.config_path,
               "--jobs", str(CAMPAIGN_JOBS), "--out", out]
        deadline = time.monotonic() + CAMPAIGN_TIMEOUT_S
        with open(out + ".stdout", "wb") as so, open(out + ".stderr", "wb") as se:
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=so, stderr=se,
                                    env=env, cwd=self.workdir, start_new_session=True)
            try:
                proc.wait(timeout=CAMPAIGN_TIMEOUT_S)
                reap_children(deadline)
            except (subprocess.TimeoutExpired, TimeoutError):
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                reap_children(time.monotonic() + 10)
                raise
        return proc.returncode, out

    def _in_process(self, out):
        """The traced form: spawned workers cannot be wrapped, so after the
        pooled campaign each variant's first run is repeated in process."""
        exp = cli.parse_experiment_config(self.config_path)
        train_set, val_set = cli.build_datasets(exp)
        records = cli.run_campaign(exp, train_set, val_set, exp.hidden_width, CAMPAIGN_JOBS)
        cli.emit_campaign(exp, records, out, exp.hidden_width)
        for variant in exp.variants:
            cli.run_single(exp, train_set, val_set, variant, 0, exp.hidden_width)
        return 0, out

    def round_ops(self):
        return len(self.variants) * CAMPAIGN_SEEDS, 0

    def check(self, output, first: bool):
        returncode, out = output
        if returncode != 0:
            with open(out + ".stderr", encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            raise checks.CheckFailed(f"ldnn campaign exited {returncode}: {tail}")
        runs = checks.read_csv(os.path.join(out, "runs.csv"))
        checks.check_runs(runs, self.variants, CAMPAIGN_SEEDS)
        checks.check_seeds(runs, self.campaign_seed)
        checks.check_groups(runs, checks.read_csv(os.path.join(out, "groups.csv")))
        checks.check_hist(runs, checks.read_csv(os.path.join(out, "hist2d.csv")))


WORKLOADS = {w.name: w for w in (Train, Hessian, Campaign)}
