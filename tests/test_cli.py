"""End-to-end CLI behavior: exit codes, file inventories, determinism."""

import json
import multiprocessing
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import ldnn.metalearn as ml
from ldnn import cli, nn, tasks
from ldnn import diagnostics as dg
from test_diagnostics import per_probe_reference


def write_config(tmp_path, name="exp.json", **overrides):
    cfg = {
        "task": "mnist1d",
        "seed": 1234,
        "n_seeds": 2,
        "hidden_width": 6,
        "activation_types": [
            {"kind": "subnet", "base": "sine", "hidden_width": 4},
            {"kind": "subnet", "base": "sine", "hidden_width": 4},
            {"kind": "builtin", "name": "relu"},
        ],
        "variants": {"mix": [0, 1], "relu": [2]},
        "data": {"m_train": 60, "m_val": 30, "seed": 7},
        "schedule": {"inner_lr": 0.01, "outer_lr": 0.001, "outer_period": 2,
                     "batch_size": 20, "epochs": 2, "optimizer": "adam"},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def slurp_tree(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            full = os.path.join(dirpath, f)
            out[os.path.relpath(full, root)] = open(full, "rb").read()
    return out


class TestTrain:
    def test_smoke_writes_artifacts(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["train", config, "--out", str(out)]) == 0
        names = sorted(os.listdir(out))
        assert names == ["activation_type0.csv", "activation_type1.csv",
                         "history.csv", "params.json"]
        assert "validation accuracy" in capsys.readouterr().out

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert cli.main(["train", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_bad_config_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path, variants={})
        assert cli.main(["train", config]) == 2

    def test_same_seed_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["train", config, "--seed", "7", "--out", str(out1)]) == 0
        assert cli.main(["train", config, "--seed", "7", "--out", str(out2)]) == 0
        assert slurp_tree(out1) == slurp_tree(out2)

    def test_unknown_variant_exit_2(self, tmp_path):
        config = write_config(tmp_path)
        assert cli.main(["train", config, "--variant", "nope"]) == 2

    def test_unwritable_out_exit_4(self, tmp_path, capsys):
        config = write_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        assert cli.main(["train", config, "--out", str(blocker / "sub")]) == 4
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.parametrize("exc", [ml.TrainingDiverged, tasks.TrajectoryDiverged])
    def test_training_abort_exit_3(self, tmp_path, capsys, monkeypatch, exc):
        def diverge(*args, **kwargs):
            raise exc("loss is nan")

        monkeypatch.setattr(ml, "train", diverge)
        assert cli.main(["train", write_config(tmp_path)]) == 3
        assert "training aborted: loss is nan" in capsys.readouterr().err


class TestCampaign:
    def test_bookkeeping_and_tables(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "camp"
        assert cli.main(["campaign", config, "--jobs", "1", "--out", str(out)]) == 0
        runs = (out / "runs.csv").read_text().splitlines()
        assert len(runs) == 1 + 2 * 2  # n_seeds * |roster|
        groups = (out / "groups.csv").read_text().splitlines()
        assert len(groups) == 1 + 2
        assert (out / "summary.json").exists()
        assert (out / "hist2d.csv").exists()
        printed = capsys.readouterr().out
        assert "mix:" in printed and "relu:" in printed

    def test_identical_specs_keep_separate_groups(self, tmp_path, capsys):
        # types 0 and 1 are both sine/4 subnets, so only the name tells them apart
        config = write_config(tmp_path, variants={"type1": [0], "type2": [1]})
        out = tmp_path / "camp"
        assert cli.main(["campaign", config, "--jobs", "1", "--out", str(out)]) == 0
        groups = (out / "groups.csv").read_text().splitlines()[1:]
        assert sorted(line.split(",")[1] for line in groups) == ["type1", "type2"]
        summary = json.loads((out / "summary.json").read_text())
        assert sorted((g["variant"], g["count"]) for g in summary["groups"].values()) == [
            ("type1", 2), ("type2", 2)]
        printed = capsys.readouterr().out
        assert "type1: n=2" in printed and "type2: n=2" in printed

    def test_hessian_params_column(self, tmp_path):
        config = write_config(
            tmp_path, n_seeds=1, variants={"mix": [0, 1], "type1": [0], "relu": [2]},
            diagnostics={"hessian": True, "hutchinson_probes": 2, "lanczos_k": 4,
                         "hessian_examples": 20})
        out = tmp_path / "camp"
        assert cli.main(["campaign", config, "--jobs", "1", "--out", str(out)]) == 0
        lines = (out / "runs.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[-1] == "hessian_params"
        exp = cli.parse_experiment_config(config)
        train, _ = cli.build_datasets(exp)
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            net = cli.network_config(exp, exp.variants[row["variant"]], exp.hidden_width, train)
            params = nn.init_network(net, seed=0)
            assert int(row["hessian_params"]) == nn.theta_size(params) + nn.theta_a_size(params)

    def test_single_seed_degenerate_table(self, tmp_path):
        config = write_config(tmp_path, n_seeds=1)
        out = tmp_path / "camp1"
        assert cli.main(["campaign", config, "--jobs", "1", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        for group in summary["groups"].values():
            assert group["count"] == 1
            assert group["median"] == group["mean"] == group["lo"] == group["hi"]

    def test_rerun_identical(self, tmp_path):
        config = write_config(tmp_path)
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        assert cli.main(["campaign", config, "--jobs", "1", "--out", str(out1)]) == 0
        assert cli.main(["campaign", config, "--jobs", "1", "--out", str(out2)]) == 0
        assert slurp_tree(out1) == slurp_tree(out2)

    def test_worker_pool_matches_serial(self, tmp_path):
        config = write_config(tmp_path)
        serial, pooled = tmp_path / "ser", tmp_path / "par"
        assert cli.main(["campaign", config, "--jobs", "1", "--out", str(serial)]) == 0
        assert cli.main(["campaign", config, "--jobs", "2", "--out", str(pooled)]) == 0
        assert slurp_tree(serial) == slurp_tree(pooled)

    def test_runs_skip_the_validation_they_discard(self, tmp_path, monkeypatch):
        """A campaign run keeps no training history, so it runs no
        per-epoch validation pass; its metric comes from ``net_diagnostics``."""
        config = write_config(tmp_path)
        reference = tmp_path / "ref"
        assert cli.main(["campaign", config, "--jobs", "1", "--out", str(reference)]) == 0
        monkeypatch.setattr(ml, "evaluate", lambda *a: pytest.fail("validation pass ran"))
        out = tmp_path / "camp"
        assert cli.main(["campaign", config, "--jobs", "1", "--out", str(out)]) == 0
        assert slurp_tree(out) == slurp_tree(reference)

    def test_hessian_pool_matches_serial(self, tmp_path):
        # Above BLAS's threading thresholds: the serial runs use the caller's
        # thread count, the pooled ones one thread each.
        config = write_config(
            tmp_path, n_seeds=1, hidden_width=20,
            activation_types=[{"kind": "subnet", "base": "sine", "hidden_width": 50}] * 2,
            variants={"mix": [0, 1], "type1": [0]},
            data={"m_train": 1000, "m_val": 100, "seed": 7},
            schedule={"inner_lr": 0.01, "outer_lr": 0.001, "outer_period": 5,
                      "batch_size": 100, "epochs": 1, "optimizer": "adam"},
            diagnostics={"hessian": True, "hutchinson_probes": 8, "lanczos_k": 8,
                         "hessian_examples": 1000})
        serial, pooled = tmp_path / "ser", tmp_path / "par"
        assert cli.main(["campaign", config, "--jobs", "1", "--out", str(serial)]) == 0
        assert cli.main(["campaign", config, "--jobs", "2", "--out", str(pooled)]) == 0
        assert slurp_tree(serial) == slurp_tree(pooled)


def test_diagnose_hessian_same_bytes_at_any_thread_count(tmp_path):
    """The README's claim, in a few seconds: ``diagnose --hessian`` on 1000
    examples, where the linearization's products are above OpenBLAS's
    threading threshold, prints the same bytes at one BLAS thread and with
    the thread variables unset."""
    data = tmp_path / "d"
    assert cli.main(["gen-data", "mnist1d-synth", "--m", "1000", "--out", str(data)]) == 0
    config = write_config(
        tmp_path, n_seeds=1, hidden_width=20,
        activation_types=[{"kind": "subnet", "base": "sine", "hidden_width": 50}] * 2,
        variants={"mix": [0, 1]},
        data={"train_path": str(data / "train.dsv"), "val_path": str(data / "val.dsv")},
        schedule={"inner_lr": 0.01, "outer_lr": 0.001, "outer_period": 5,
                  "batch_size": 100, "epochs": 1, "optimizer": "adam"})
    assert cli.main(["train", config, "--out", str(tmp_path / "net")]) == 0
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in threads}
    env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(os.path.dirname(cli.__file__)),
                                         env.get("PYTHONPATH", "")])
    command = [sys.executable, "-m", "ldnn.cli", "diagnose", str(tmp_path / "net" / "params.json"),
               "--data", str(data / "train.dsv"), "--hessian", "--probes", "8", "--k", "8",
               "--hessian-examples", "1000"]
    stdouts = []
    for pinned in (dict.fromkeys(threads, "1"), {}):
        run = subprocess.run(command, env={**env, **pinned}, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        stdouts.append(run.stdout)
    assert '"hessian_params"' in stdouts[0]
    assert stdouts[0] == stdouts[1]


def roster(entry):
    """``activation_types`` override: two well-formed entries, then ``entry``."""
    return {"activation_types": [{"kind": "subnet", "base": "sine", "hidden_width": 4},
                                 {"kind": "builtin", "name": "relu"}, entry]}


def readme_config_section():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("### Experiment config")[1].split("\n## ")[0]


class TestDiagnosticsConfig:
    """A bad ``diagnostics`` block or an unknown key in any section or
    activation entry fails when the config is parsed, before any run
    trains."""

    @pytest.mark.parametrize("overrides, message", [
        ({"hist_bin": 0}, "hist_bin"),
        ({"data": {"m_trian": 60, "m_val": 30, "seed": 7}}, "m_trian"),
        ({"data": {"train_path": "t.dsv", "val_path": "v.dsv", "m_train": 60}}, "m_train"),
        ({"data": {"m_train": 60, "m_val": 30, "params": {"n_pointz": 40}}},
         "unknown data (mnist1d) keys: ['params']"),
        ({"diagnostics": {"hessian": True, "hesian_examples": 20}}, "hesian_examples"),
        ({"diagnostics": {"hessian": True, "hutchinson_probes": 1}}, "hutchinson_probes"),
        ({"diagnostics": {"hessian": True, "lanczos_k": 0}}, "lanczos_k"),
        ({"diagnostics": {"hessian": True, "hessian_examples": 0}}, "hessian_examples"),
        ({"diagnostics": {"hessian": True, "lanczos_k": 4.5}}, "lanczos_k"),
        ({"hist_bins": 0}, "hist_bins"),
        ({"hidden_width": 0, "sizes": [10, 20, 40]}, "hidden_width must be an integer >= 1"),
        (roster({"kind": "subnet", "base": "sine", "hiden_width": 3}), "hiden_width"),
        (roster({"kind": "builtin", "name": "relu", "base": "sine"}), "base"),
        (roster({"kind": "tabulated", "grid": [0, 1], "vals": [0, 1]}), "vals"),
        (roster({"kind": "tabulated", "path": "act0.json", "grid": [0, 1]}), "grid"),
        ({"activation_types": ["relu"]}, "activation_types must be a list of objects"),
        ({"variants": [[0]]}, "variants must be an object"),
        ({"diagnostics": {"hessian": "no"}}, "diagnostics.hessian must be true or false"),
        ({"diagnostics": {"hessian": True, "lanczos_k": True}}, "lanczos_k"),
        ({"variants": {"mix": "01"}}, "variant 'mix' must be a list of integer"),
        ({"variants": {"mix": [0, 1.7]}}, "variant 'mix' must be a list of integer"),
        ({"variants": {"mix": ["1"]}}, "variant 'mix' must be a list of integer"),
        ({"hidden_width": 20.9}, "hidden_width must be an integer"),
        ({"n_seeds": "3"}, "n_seeds must be an integer"),
        ({"hist_bins": True}, "unknown top-level keys: ['hist_bins']"),
        ({"sizes": [4.5, "6"]}, "sizes must be a list of integers"),
        ({"data": {"m_train": 60.5, "m_val": 30}}, "data.m_train must be an integer"),
        ({"data": {"m_train": 60, "m_val": 30, "params": {"canvas": 48.5}}},
         "unknown data (mnist1d) keys: ['params']"),
        ({"data": {"train_path": 5, "val_path": "v.dsv"}}, "data.train_path must be a string"),
        ({"schedule": {"epochs": True}}, "schedule.epochs must be an integer"),
        ({"schedule": {"outer_period": 2.5}}, "schedule.outer_period must be an integer"),
        ({"schedule": {"epochs": 2, "seed": 3}}, "unknown schedule keys: ['seed']"),
        (roster({"kind": "subnet", "base": "sine", "hidden_width": 3.5}),
         "activation_types[2].hidden_width must be an integer"),
        (roster({"kind": "tabulated", "grid": ["0", "1"], "values": [0, 1]}),
         "activation_types[2].grid must be a list of numbers"),
        ({"task": "vdp", "data": {"mu": "2", "n_transient": 10, "n_samples": 50}},
         "data.mu must be a number"),
        ({"schedule": {"inner_lr": float("nan")}}, "schedule.inner_lr must be a number, got nan"),
        ({"schedule": {"outer_lr": float("inf")}}, "schedule.outer_lr must be a number, got inf"),
        ({"task": "vdp", "data": {"mu": float("-inf"), "n_transient": 10, "n_samples": 50}},
         "data.mu must be a number, got -inf"),
        (roster({"kind": "tabulated", "grid": [0, float("nan"), 1], "values": [0, 1, 2]}),
         "activation_types[2].grid must be a list of numbers"),
    ], ids=["unknown-top-level-key", "unknown-data-key", "unknown-data-path-key",
            "unknown-generator-key", "unknown-key", "probes", "lanczos-k", "examples",
            "non-integer", "hist-bins", "hidden-width-beside-sizes",
            "unknown-subnet-key", "unknown-builtin-key", "unknown-tabulated-key",
            "unknown-tabulated-path-key", "activation-entry-not-object",
            "variants-not-object", "hessian-not-boolean", "boolean-setting",
            "variant-string", "variant-float", "variant-string-index",
            "float-width", "string-seeds", "boolean-bins", "non-integer-sizes",
            "float-m-train", "float-canvas", "numeric-path", "boolean-epochs",
            "float-outer-period", "schedule-seed", "float-subnet-width", "string-grid",
            "string-mu", "nan-inner-lr", "infinite-outer-lr", "infinite-mu", "nan-grid"])
    def test_rejected_before_training(self, tmp_path, capsys, monkeypatch, overrides, message):
        trained = []
        monkeypatch.setattr(ml, "train", lambda *a, **k: trained.append(1))
        config = write_config(tmp_path, **overrides)
        assert cli.main(["campaign", config, "--jobs", "1", "--out", str(tmp_path / "c")]) == 2
        assert message in capsys.readouterr().err
        assert not trained

    @pytest.mark.parametrize("overrides, message", [
        ({"hist_bins": 20}, "unknown top-level keys: ['hist_bins']"),
        ({"data": {"params": {}}}, "unknown data (mnist1d) keys: ['params']"),
    ], ids=["hist-bins", "data-params"])
    def test_removed_settings_rejected_before_data(self, tmp_path, capsys, monkeypatch,
                                                   overrides, message):
        """The histogram's bins and the generator's knobs are not settings:
        a config that sets either fails before any dataset is built."""
        built = []
        monkeypatch.setattr(cli, "build_datasets", lambda *a: built.append(1))
        config = write_config(tmp_path, **overrides)
        assert cli.main(["campaign", config, "--jobs", "1", "--out", str(tmp_path / "c")]) == 2
        assert message in capsys.readouterr().err
        assert not built

    def test_readme_example_parses(self, tmp_path):
        """The README's config example, its ``//`` comments stripped, is a
        valid config."""
        block = readme_config_section().split("```json\n")[1].split("```")[0]
        text = re.sub(r"\s*//.*", "", block)
        nn.save_activation_json(nn.ActivationSpec.tabulated([-1.0, 1.0], [-1.0, 1.0]),
                                tmp_path / "act0.json")
        (tmp_path / "exp.json").write_text(text)
        exp = cli.parse_experiment_config(tmp_path / "exp.json")
        assert [s.kind for s in exp.activation_types] == ["subnet", "subnet", "builtin",
                                                          "tabulated"]
        assert exp.diagnostics["hessian"] and exp.sizes == [10, 20, 40]

    def test_readme_names_every_config_key(self):
        section = readme_config_section()
        assert [(name, key) for name, table in cli.CONFIG_KEYS.items() for key in table
                if f"`{key}`" not in section] == []


class TestJobs:
    @pytest.mark.parametrize("command", ["campaign", "size-sweep"])
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_below_one_rejected_before_data(self, tmp_path, capsys, monkeypatch, command, jobs):
        built = []
        monkeypatch.setattr(cli, "build_datasets", lambda exp: built.append(1))
        config = write_config(tmp_path, sizes=[6])
        assert cli.main([command, config, "--jobs", jobs, "--out", str(tmp_path / "o")]) == 2
        assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not built

    @pytest.mark.parametrize("command", ["campaign", "size-sweep"])
    def test_unset_uses_every_core(self, tmp_path, monkeypatch, command):
        seen = []

        def spy(exp, train_set, val_set, width, jobs=1):
            seen.append(jobs)
            return cli.run_single(exp, train_set, val_set, "relu", 0, width),

        monkeypatch.setattr(cli, "run_campaign", spy)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        config = write_config(tmp_path, sizes=[6], variants={"relu": [2]}, n_seeds=1)
        assert cli.main([command, config, "--out", str(tmp_path / "o")]) == 0
        assert seen == [5]


class TestWorkerThreads:
    """The campaign pool runs its workers at one BLAS thread."""

    def spy_pool(self, monkeypatch, seen, fail=False):
        spawn = multiprocessing.get_context("spawn")

        def read_env():
            return {var: os.environ.get(var) for var in cli.BLAS_THREAD_VARS}

        class Spy:
            def Pool(self, *args, **kwargs):
                pool = spawn.Pool(*args, **kwargs)
                seen["parent"] = read_env()
                seen["worker"] = {var: pool.apply(os.getenv, (var,))
                                  for var in cli.BLAS_THREAD_VARS}
                pool_map = pool.map

                def map_(*a, **kw):
                    seen["map"] = read_env()
                    if fail:
                        raise RuntimeError("inside the pool block")
                    return pool_map(*a, **kw)

                pool.map = map_
                return pool

        monkeypatch.setattr(cli.multiprocessing, "get_context", lambda method: Spy())

    def campaign(self, tmp_path):
        exp = cli.parse_experiment_config(write_config(tmp_path))
        train, val = cli.build_datasets(exp)
        return lambda: cli.run_campaign(exp, train, val, exp.hidden_width, jobs=2)

    def test_pinned_inside_restored_after(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        run = self.campaign(tmp_path)
        before = dict(os.environ)
        seen = {}
        self.spy_pool(monkeypatch, seen)
        records = run()
        ones = dict.fromkeys(cli.BLAS_THREAD_VARS, "1")
        assert seen == {"parent": ones, "worker": ones, "map": ones}
        assert dict(os.environ) == before
        assert [r.status for r in records] == ["ok"] * 4

    def test_restored_after_exception(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "4")
        run = self.campaign(tmp_path)
        before = dict(os.environ)
        seen = {}
        self.spy_pool(monkeypatch, seen, fail=True)
        with pytest.raises(RuntimeError, match="inside the pool block"):
            run()
        assert seen["map"] == dict.fromkeys(cli.BLAS_THREAD_VARS, "1")
        assert dict(os.environ) == before


DEAD = {**roster({"kind": "builtin", "name": "zero"}), "variants": {"relu": [1], "dead": [2]}}


class TestFailedRuns:
    """The ``zero`` builtin gives every ``dead`` run a constant hidden layer,
    so its participation ratio raises ``DegenerateActivityError``."""

    def test_failed_rows_keep_the_metric(self, tmp_path, capsys):
        out, ref = tmp_path / "camp", tmp_path / "ref"
        config = write_config(tmp_path, **DEAD)
        assert cli.main(["campaign", config, "--jobs", "1", "--out", str(out)]) == 3
        assert ("campaign failed: a variant has zero successful runs (dead)"
                in capsys.readouterr().err)
        alone = write_config(tmp_path, name="alone.json", **{**DEAD, "variants": {"relu": [1]}})
        assert cli.main(["campaign", alone, "--jobs", "1", "--out", str(ref)]) == 0
        lines = (out / "runs.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        failed = [row for row in rows if row["variant"] == "dead"]
        assert len(failed) == 2
        for row in failed:
            assert row["status"] == "failed: DegenerateActivityError"
            # A constant net predicts one class of the balanced 30 examples.
            assert row["metric"] == "0.1"
            assert row["ratio"] == row["normalized_ratio"] == "nan"
        kept = [line for line in lines if line.startswith("relu,")]
        assert [lines[0]] + kept == (ref / "runs.csv").read_text().splitlines()

    def test_no_successful_run_removes_old_histogram(self, tmp_path):
        """A campaign with no successful run leaves no ``hist2d.csv`` of an
        earlier campaign beside its own tables."""
        out = tmp_path / "camp"
        relu = write_config(tmp_path, **{**DEAD, "variants": {"relu": [1]}}, n_seeds=1)
        assert cli.main(["campaign", relu, "--jobs", "1", "--out", str(out)]) == 0
        assert (out / "hist2d.csv").exists()
        dead = write_config(tmp_path, name="dead.json", **{**DEAD, "variants": {"dead": [2]}},
                            n_seeds=1)
        assert cli.main(["campaign", dead, "--jobs", "1", "--out", str(out)]) == 3
        assert sorted(os.listdir(out)) == ["groups.csv", "runs.csv", "summary.json"]

    def test_size_sweep_names_the_width(self, tmp_path, capsys):
        config = write_config(tmp_path, **DEAD, sizes=[4, 6], n_seeds=1)
        assert cli.main(["size-sweep", config, "--jobs", "1", "--out", str(tmp_path / "s")]) == 3
        err = capsys.readouterr().err
        for width in (4, 6):
            assert (f"campaign failed at width {width}: a variant has zero successful runs "
                    "(dead)") in err


class TestSizeSweep:
    def test_per_size_tables(self, tmp_path):
        config = write_config(tmp_path, sizes=[4, 6], n_seeds=1)
        out = tmp_path / "sweep"
        assert cli.main(["size-sweep", config, "--jobs", "1", "--out", str(out)]) == 0
        assert (out / "size_4" / "runs.csv").exists()
        assert (out / "size_6" / "runs.csv").exists()
        lines = (out / "sizes.csv").read_text().splitlines()
        assert lines[0].startswith("width,variant")
        assert len(lines) == 1 + 2 * 2  # two widths x two variants

    def test_single_size_equals_campaign(self, tmp_path):
        config = write_config(tmp_path, sizes=[6], n_seeds=1)
        sweep_out = tmp_path / "sweep1"
        camp_out = tmp_path / "camp1"
        assert cli.main(["size-sweep", config, "--jobs", "1", "--out", str(sweep_out)]) == 0
        assert cli.main(["campaign", config, "--jobs", "1", "--out", str(camp_out)]) == 0
        assert slurp_tree(sweep_out / "size_6") == slurp_tree(camp_out)

    def test_zero_width_rejected(self, tmp_path):
        config = write_config(tmp_path, sizes=[0])
        assert cli.main(["size-sweep", config]) == 2

    def test_missing_sizes_rejected(self, tmp_path):
        config = write_config(tmp_path)
        assert cli.main(["size-sweep", config]) == 2


class TestGenData:
    def test_vdp_container(self, tmp_path):
        out = tmp_path / "vdp"
        assert cli.main(["gen-data", "vdp", "--seed", "3", "--m", "100",
                         "--out", str(out)]) == 0
        train = tasks.load_dataset(out / "train.dsv")
        assert train.task == "regression"
        assert train.n_features == 2 and train.targets.shape[1] == 2

    def test_mnist1d_container(self, tmp_path):
        out = tmp_path / "digits"
        assert cli.main(["gen-data", "mnist1d-synth", "--seed", "3", "--m", "200",
                         "--out", str(out)]) == 0
        train = tasks.load_dataset(out / "train.dsv")
        val = tasks.load_dataset(out / "val.dsv")
        assert train.task == "classification"
        assert train.n_features == 40 and train.num_classes == 10
        assert train.n_examples == 200 and val.n_examples == 50

    def test_same_seed_identical_files(self, tmp_path):
        o1, o2 = tmp_path / "a", tmp_path / "b"
        for out in (o1, o2):
            assert cli.main(["gen-data", "mnist1d-synth", "--seed", "5", "--m", "50",
                             "--out", str(out)]) == 0
        assert slurp_tree(o1) == slurp_tree(o2)

    @pytest.mark.parametrize("m", [0, -5])
    def test_nonpositive_m_rejected(self, tmp_path, capsys, m):
        out = tmp_path / "none"
        assert cli.main(["gen-data", "mnist1d-synth", "--m", str(m), "--out", str(out)]) == 2
        assert "--m must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("task, generator, holds", [
        ("vdp", "mnist1d-synth", "classification"), ("mnist1d", "vdp", "regression")])
    def test_config_task_must_match_the_files(self, tmp_path, capsys, monkeypatch, task,
                                              generator, holds):
        """Both files' header task is checked against the config's before
        any run trains, and the error names the task and both files."""
        trained = []
        monkeypatch.setattr(ml, "train", lambda *a, **k: trained.append(1))
        data = tmp_path / "d"
        assert cli.main(["gen-data", generator, "--m", "40", "--out", str(data)]) == 0
        train, val = data / "train.dsv", data / "val.dsv"
        config = write_config(tmp_path, task=task,
                              data={"train_path": str(train), "val_path": str(val)})
        assert cli.main(["campaign", config, "--jobs", "1", "--out", str(tmp_path / "c")]) == 2
        err = capsys.readouterr().err
        assert f"task {task} needs" in err
        assert f"{train} holds {holds} data and {val} holds {holds} data" in err
        assert not trained


class TestMalformedFiles:
    """A malformed snapshot or activation file is a config error (exit 2)
    that names the file, never a traceback or a truncated value."""

    @pytest.mark.parametrize("command, edit, message", [
        (["export-activation", "--type", "0"], lambda obj: {"format": obj["format"]},
         "malformed parameter snapshot (KeyError('config'))"),
        (["diagnose"], lambda obj: {k: v for k, v in obj.items() if k != "biases"},
         "malformed parameter snapshot (KeyError('biases'))"),
        (["export-activation", "--type", "0"], lambda obj: {**obj, "subnets": {}},
         "no sub-network for subnet types [0]"),
        (["diagnose"], lambda obj: {**obj, "config": {**obj["config"], "activations": [
            {"kind": "subnet", "base": "sine", "hidden_width": 3.7},
            {"kind": "builtin", "name": "relu"}]}},
         "subnet hidden_width must be an integer >= 1, got 3.7"),
        (["diagnose"], lambda obj: {**obj, "subnets": {"0": {
            **obj["subnets"]["0"], "w1": [0.5] * 4, "b1": [0.5] * 4, "w2": [0.5] * 4}}},
         "subnets[0].w1 has shape (4,), but the config makes (3,)"),
        (["diagnose"], lambda obj: {**obj, "config": {**obj["config"], "input_dim": 40.9}},
         "input_dim must be an integer, got 40.9"),
        (["diagnose"], lambda obj: {**obj, "config": {**obj["config"], "seed": True}},
         "seed must be an integer, got True"),
        (["diagnose"], lambda obj: {**obj, "config": {**obj["config"], "layers": [
            {"width": 4, "assignment": [0.0, 1, 0, 1]}]}},
         "assignment[0] must be an integer, got 0.0"),
        (["diagnose"], lambda obj: {**obj, "weights": [
            {"shape": [2, 2], "data": [0.5] * 4}] + obj["weights"][1:]},
         "weights[0] has shape (2, 2), but the config makes (40, 4)"),
        (["diagnose"], lambda obj: {**obj, "config": {**obj["config"], "activations": [
            {"kind": "subnet", "base": "sine"}, {"kind": "builtin", "name": "relu"}]}},
         "malformed parameter snapshot (KeyError('hidden_width'))"),
    ], ids=["format-only", "no-biases", "no-subnets", "float-subnet-width", "wide-subnet-arrays",
            "float-input-dim", "boolean-seed", "float-assignment", "small-first-weight",
            "no-subnet-width"])
    def test_bad_snapshot(self, tmp_path, capsys, command, edit, message):
        data = tmp_path / "d"
        assert cli.main(["gen-data", "mnist1d-synth", "--m", "10", "--out", str(data)]) == 0
        config = nn.mlp_config(40, 4, 10, (nn.ActivationSpec.subnet("sine", 3),
                                           nn.ActivationSpec.builtin("relu")))
        path = tmp_path / "params.json"
        nn.save_params(nn.init_network(config), config, path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        extra = (["--data", str(data / "val.dsv")] if command == ["diagnose"]
                 else ["--out", str(tmp_path / "act.json")])
        capsys.readouterr()
        assert cli.main(command[:1] + [str(path)] + command[1:] + extra) == 2
        err = capsys.readouterr().err
        assert f"{path}: " in err and message in err

    def test_activation_file_holding_a_list(self, tmp_path, capsys):
        act = tmp_path / "act0.json"
        act.write_text("[0, 1]\n")
        config = write_config(tmp_path, activation_types=[{"kind": "tabulated",
                                                           "path": "act0.json"}],
                              variants={"frozen": [0]})
        assert cli.main(["train", config, "--out", str(tmp_path / "out")]) == 2
        assert f"{act}: not a tabulated activation file" in capsys.readouterr().err


    @pytest.mark.parametrize("entry, message", [
        ({"grid": [0, float("nan"), 1], "values": [0, 1, 2]}, "grid[1] must be finite, got nan"),
        ({"grid": [0, 1], "values": [0, float("inf")]}, "values[1] must be finite, got inf"),
    ], ids=["nan-grid", "infinite-value"])
    def test_activation_file_with_non_finite_entries(self, tmp_path, capsys, entry, message):
        act = tmp_path / "act0.json"
        act.write_text(json.dumps({"kind": "tabulated", **entry}))
        config = write_config(tmp_path, activation_types=[{"kind": "tabulated",
                                                           "path": "act0.json"}],
                              variants={"frozen": [0]})
        assert cli.main(["train", config, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{act}: bad tabulated activation" in err and message in err


class TestExportAndReuse:
    def train_once(self, tmp_path, **overrides):
        config = write_config(tmp_path, **overrides)
        out = tmp_path / "trained"
        assert cli.main(["train", config, "--out", str(out)]) == 0
        return config, out / "params.json"

    def test_export_roundtrip_close_to_subnet(self, tmp_path):
        _, params_path = self.train_once(tmp_path)
        act_path = tmp_path / "act0.json"
        assert cli.main(["export-activation", str(params_path), "--type", "0",
                         "--range", "-4", "4", "--points", "301",
                         "--out", str(act_path)]) == 0
        spec = nn.load_activation_json(act_path)
        params, config = nn.load_params(params_path)
        probe = np.linspace(-4, 4, 1201)
        direct = nn.eval_activation(config.activations[0], probe, params.subnets[0])
        assert np.abs(nn.eval_activation(spec, probe) - direct).max() < 1e-3

    def test_export_builtin_only_fails(self, tmp_path, capsys):
        _, params_path = self.train_once(tmp_path, variants={"relu": [2]})
        assert cli.main(["export-activation", str(params_path), "--type", "2",
                         "--out", str(tmp_path / "x.json")]) == 2
        assert "no subnet at index 2" in capsys.readouterr().err

    def test_export_index_out_of_range(self, tmp_path):
        _, params_path = self.train_once(tmp_path)
        assert cli.main(["export-activation", str(params_path), "--type", "9",
                         "--out", str(tmp_path / "x.json")]) == 2

    def test_reuse_frozen_tabulated_has_no_outer_params(self, tmp_path):
        _, params_path = self.train_once(tmp_path)
        for t in (0, 1):
            assert cli.main(["export-activation", str(params_path), "--type", str(t),
                             "--out", str(tmp_path / f"act{t}.json")]) == 0
        reuse_config = write_config(
            tmp_path, name="reuse.json",
            activation_types=[{"kind": "tabulated", "path": f"act{t}.json"} for t in (0, 1)],
            variants={"frozen-mix": [0, 1]},
        )
        out = tmp_path / "reuse-out"
        assert cli.main(["train", reuse_config, "--out", str(out)]) == 0
        params, _ = nn.load_params(out / "params.json")
        assert nn.theta_a_size(params) == 0  # parameter census: no outer-loop weights

    def test_diagnose(self, tmp_path, capsys):
        config_path, params_path = self.train_once(tmp_path)
        data_dir = tmp_path / "d"
        assert cli.main(["gen-data", "mnist1d-synth", "--seed", "7", "--m", "60",
                         "--out", str(data_dir)]) == 0
        report = tmp_path / "diag.json"
        assert cli.main(["diagnose", str(params_path), "--data", str(data_dir / "val.dsv"),
                         "--out", str(report)]) == 0
        obj = json.loads(report.read_text())
        assert obj.keys() == {"task", "metric", "ratio", "normalized_ratio",
                              "theta_params", "theta_a_params"}
        assert 1.0 <= obj["ratio"] <= 6.0
        assert obj["normalized_ratio"] == obj["ratio"] / 6

    def test_diagnose_hessian_spans_all_parameters(self, tmp_path):
        _, params_path = self.train_once(tmp_path)
        data_dir = tmp_path / "d"
        assert cli.main(["gen-data", "mnist1d-synth", "--seed", "7", "--m", "60",
                         "--out", str(data_dir)]) == 0
        report = tmp_path / "diag.json"
        assert cli.main(["diagnose", str(params_path), "--data", str(data_dir / "val.dsv"),
                         "--hessian", "--probes", "4", "--k", "6", "--hessian-examples", "20",
                         "--out", str(report)]) == 0
        obj = json.loads(report.read_text())
        assert obj.keys() == {"task", "metric", "ratio", "normalized_ratio", "theta_params",
                              "theta_a_params", "hessian_trace", "hessian_trace_stderr",
                              "f_near_zero", "hessian_params"}
        assert obj["hessian_params"] == obj["theta_params"] + obj["theta_a_params"]
        assert np.isfinite(obj["hessian_trace"]) and 0.0 <= obj["f_near_zero"] <= 1.0

    def test_hessian_pass_linearizes_once(self, tmp_path, monkeypatch):
        exp = cli.parse_experiment_config(write_config(tmp_path))
        train, _ = cli.build_datasets(exp)
        config = cli.network_config(exp, exp.variants["mix"], exp.hidden_width, train)
        params = nn.init_network(config, seed=3)
        tensors = params.all_tensors()

        def lossfn():
            return ml.batch_loss(params, config, train.inputs[:40], train.targets[:40])

        built, applied = [], []
        operator = cli.ad.hvp_operator

        def counted(*a):
            built.append(1)
            hvp = operator(*a)
            return lambda v: applied.append(np.shape(v)) or hvp(v)

        monkeypatch.setattr(cli.ad, "hvp_operator", counted)
        est, lan, _ = cli.hessian_diagnostics(params, config, train, 4, 6, 40,
                                              trace_seed=12, lanczos_seed=11)
        assert len(built) == 1
        # Six Lanczos steps; each of the first four carries one probe.
        n = sum(t.data.size for t in tensors)
        assert applied == [(n, 2)] * 4 + [(n, 1)] * 2
        # Against a separate Lanczos run and a per-probe loop on the same
        # operator.  Column 0 of a block is not bitwise a single product.
        hvp = operator(lossfn, tensors)
        ref = dg.lanczos(hvp, n, 6, seed=11)
        value, stderr = per_probe_reference(hvp, n, 4, 12, ref)
        assert abs(est.value - value) <= 1e-12 * abs(value)
        assert abs(est.stderr - stderr) <= 1e-12 * stderr
        assert lan.f_near_zero == pytest.approx(ref.f_near_zero, rel=1e-12)
        top = np.abs(ref.ritz_values).max()
        assert np.abs(lan.ritz_values - ref.ritz_values).max() <= 1e-12 * top
        assert np.abs(lan.basis - ref.basis).max() <= 1e-12

    @pytest.mark.parametrize("flag, value", [
        ("--probes", "1"), ("--k", "0"), ("--hessian-examples", "0")])
    def test_diagnose_rejects_hessian_flags_before_work(self, tmp_path, capsys, monkeypatch,
                                                        flag, value):
        """``diagnose`` applies the ``diagnostics`` block's rule table to its
        Hessian flags before it loads or evaluates anything."""
        _, params_path = self.train_once(tmp_path)
        data_dir = tmp_path / "d"
        assert cli.main(["gen-data", "mnist1d-synth", "--seed", "7", "--m", "60",
                         "--out", str(data_dir)]) == 0
        called = []
        monkeypatch.setattr(cli.ad, "hvp_operator", lambda *a: called.append("hvp"))
        monkeypatch.setattr(cli.nn, "forward_activity", lambda *a: called.append("evaluate"))
        capsys.readouterr()
        assert cli.main(["diagnose", str(params_path), "--data", str(data_dir / "val.dsv"),
                         "--hessian", flag, value]) == 2
        assert flag in capsys.readouterr().err
        assert not called


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        a = cli.derive_run_seed(1234, "mix", 0)
        assert a == cli.derive_run_seed(1234, "mix", 0)
        assert a != cli.derive_run_seed(1234, "mix", 1)
        assert a != cli.derive_run_seed(1234, "type1", 0)
        assert a != cli.derive_run_seed(1235, "mix", 0)
