"""Experiment driver: seeded multi-run campaigns, dataset generation,
activation export/reuse, and plot-ready CSV emission.

Exit codes: 0 ok, 2 config error, 3 training abort, 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import multiprocessing
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import diagnostics as dg
from . import metalearn as ml
from . import nn
from . import tasks
from .metalearn import TrainingDiverged, TrainSchedule


class ConfigError(Exception):
    """Bad or missing experiment configuration."""


@dataclass
class ExperimentConfig:
    task: str
    activation_types: list
    variants: dict  # name -> list of type indices, interleaved over the layer
    seed: int = 0
    n_seeds: int = 1
    hidden_width: int = 100
    schedule: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)
    sizes: list = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def net_task(self) -> str:
        return "classification" if self.task == "mnist1d" else "regression"


DIAG_DEFAULTS = {
    "hessian": False,
    "hutchinson_probes": 64,
    "lanczos_k": 32,
    "hessian_examples": 1000,
}
DIAGNOSE_FLAGS = {"hutchinson_probes": "--probes", "lanczos_k": "--k",
                  "hessian_examples": "--hessian-examples"}


def _typed(defaults) -> dict:
    """Each (key, default) pair's key with the type of its default."""
    return {key: type(default) for key, default in defaults}


# The keys each config section accepts, with the JSON type of each value:
# ``int`` is an integer and ``float`` any finite number, neither a boolean;
# ``[kind]`` is a list of ``kind``, and ``(kind, least)`` a ``kind`` of at
# least ``least``.  Other ranges are checked where the value is used.
# ``data`` holds either the two dataset paths or the generator settings of
# the task, and a tabulated activation either its table or the path of its
# file.  ``schedule.seed`` is each run's own seed, so no config sets it.
CONFIG_KEYS = {
    "top-level": {"task": str, "seed": int, "n_seeds": (int, 1), "hidden_width": (int, 1),
                  "sizes": [(int, 1)], "activation_types": [dict], "variants": dict,
                  "schedule": dict, "data": dict, "diagnostics": dict},
    "schedule": _typed((f.name, f.default) for f in fields(TrainSchedule) if f.name != "seed"),
    "data (paths)": {"train_path": str, "val_path": str},
    "data (mnist1d)": {"seed": int, "m_train": int, "m_val": int},
    "data (vdp)": _typed((name, p.default) for name, p in
                         inspect.signature(tasks.build_vdp_forecast_dataset).parameters.items()),
    "diagnostics": {"hessian": bool, "hutchinson_probes": (int, 2), "lanczos_k": (int, 1),
                    "hessian_examples": (int, 1)},
    "activation (builtin)": {"kind": str, "name": str},
    "activation (subnet)": {"kind": str, "base": str, "hidden_width": int},
    "activation (tabulated)": {"kind": str, "grid": [float], "values": [float]},
    "activation (tabulated path)": {"kind": str, "path": str},
}

# How a message names a value of each JSON type, alone and as list items.
JSON_NAMES = {bool: ("true or false", "booleans"), int: ("an integer", "integers"),
              float: ("a number", "numbers"), str: ("a string", "strings"),
              dict: ("an object", "objects")}


def _fits(value, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and all(_fits(v, kind[0]) for v in value)
    if isinstance(kind, tuple):
        return _fits(value, kind[0]) and value >= kind[1]
    if isinstance(value, bool) or kind is bool:
        return type(value) is kind
    if kind is float:  # JSON has no NaN or infinity, though Python's json reads them
        return isinstance(value, int) or isinstance(value, float) and math.isfinite(value)
    return isinstance(value, kind)


def _describe(kind, plural: bool = False) -> str:
    if isinstance(kind, list):
        return "a list of " + _describe(kind[0], plural=True)
    if isinstance(kind, tuple):
        return f"{_describe(kind[0], plural)} >= {kind[1]}"
    return JSON_NAMES[kind][plural]


def _check_value(name: str, value, kind) -> None:
    """Reject ``value`` unless it is of ``kind``, a type of ``CONFIG_KEYS``."""
    if not _fits(value, kind):
        raise ConfigError(f"{name} must be {_describe(kind)}, got {value!r}")


def check_section(section: str, given: dict, prefix: str = "", names: dict | None = None) -> None:
    """Reject a key of ``given`` that ``CONFIG_KEYS[section]`` lacks, or a
    value not of its key's type.  A message names a key as ``names`` maps
    it, or else as ``prefix`` followed by the key."""
    table = CONFIG_KEYS[section]
    unknown = sorted(set(given) - set(table))
    if unknown:
        raise ConfigError(f"unknown {section} keys: {unknown}")
    for key, value in given.items():
        _check_value(names[key] if names else prefix + key, value, table[key])


def _load_activation_entry(entry: dict, prefix: str, base_dir: str) -> nn.ActivationSpec:
    kind = entry.get("kind")
    form = "tabulated path" if kind == "tabulated" and "path" in entry else kind
    section = f"activation ({form})"
    if section in CONFIG_KEYS:  # an unknown kind fails in spec_from_dict
        check_section(section, entry, prefix)
    if form == "tabulated path":
        path = entry["path"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        return nn.load_activation_json(path)
    return nn.spec_from_dict(entry)


def parse_experiment_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None

    if not isinstance(obj, dict):
        raise ConfigError(f"the config must be an object, got {type(obj).__name__}")
    check_section("top-level", obj)
    if obj.get("task") not in ("mnist1d", "vdp"):
        raise ConfigError(f"task must be mnist1d or vdp, got {obj.get('task')!r}")
    data = obj.get("data", {})
    data_form = "paths" if "train_path" in data or "val_path" in data else obj["task"]
    check_section(f"data ({data_form})", data, "data.")
    check_section("schedule", obj.get("schedule", {}), "schedule.")
    check_section("diagnostics", obj.get("diagnostics", {}), "diagnostics.")
    base_dir = os.path.dirname(os.path.abspath(path))
    try:
        roster = [_load_activation_entry(entry, f"activation_types[{i}].", base_dir)
                  for i, entry in enumerate(obj["activation_types"])]
        exp = ExperimentConfig(**{**obj, "activation_types": roster,
                                  "diagnostics": {**DIAG_DEFAULTS, **obj.get("diagnostics", {})}})
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc!r}") from None

    if not exp.activation_types:
        raise ConfigError("activation roster is empty")
    if not exp.variants:
        raise ConfigError("no variants declared")
    for name, types in exp.variants.items():
        _check_value(f"variant {name!r}", types, [int])
        if not types:
            raise ConfigError(f"variant {name!r} lists no activation types")
        for t in types:
            if not 0 <= t < len(exp.activation_types):
                raise ConfigError(f"variant {name!r} references undeclared type {t}")
    try:
        TrainSchedule(**exp.schedule)
    except ValueError as exc:
        raise ConfigError(f"bad schedule: {exc}") from None
    return exp


# ---------------------------------------------------------------------------
# Data and run plumbing.

def build_datasets(exp: ExperimentConfig):
    data = exp.data
    if "train_path" in data or "val_path" in data:
        try:
            train = tasks.load_dataset(data["train_path"])
            val = tasks.load_dataset(data["val_path"])
        except KeyError as exc:
            raise ConfigError(f"data section needs both train_path and val_path ({exc})") from None
        if {train.task, val.task} != {exp.net_task}:
            raise ConfigError(f"task {exp.task} needs {exp.net_task} data, but "
                              f"{data['train_path']} holds {train.task} data and "
                              f"{data['val_path']} holds {val.task} data")
        return train, val
    if exp.task == "vdp":
        return tasks.build_vdp_forecast_dataset(**{"seed": exp.seed, **data})
    s_train, s_val = np.random.SeedSequence(data.get("seed", exp.seed)).spawn(2)
    train = tasks.generate_synthetic_1d(s_train, data.get("m_train", 4000), split="train")
    val = tasks.generate_synthetic_1d(s_val, data.get("m_val", 1000), split="val")
    return train, val


def network_config(exp: ExperimentConfig, variant_types, width: int,
                   train_set: tasks.Dataset) -> nn.NetworkConfig:
    return nn.mlp_config(
        input_dim=train_set.n_features,
        hidden_width=width,
        output_dim=train_set.output_dim,
        activations=tuple(exp.activation_types),
        types=variant_types,
        task=exp.net_task,
    )


def derive_run_seed(campaign_seed: int, variant: str, replicate: int) -> int:
    """Stable per-run seed: adding variants never perturbs other streams."""
    digest = hashlib.sha256(f"{campaign_seed}:{variant}:{replicate}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def fingerprint(exp: ExperimentConfig, variant: str, width: int) -> str:
    """Group key for one variant's runs.  The variant name is part of it, so
    two variants with identical specs still aggregate separately."""
    ident = {
        "task": exp.task,
        "variant": variant,
        "width": width,
        "types": [nn.spec_to_dict(exp.activation_types[t]) for t in exp.variants[variant]],
        "schedule": exp.schedule,
    }
    return hashlib.sha256(json.dumps(ident, sort_keys=True).encode()).hexdigest()[:12]


def hessian_diagnostics(params, config, dataset, n_probes: int, k: int, n_examples: int,
                        trace_seed: int, lanczos_seed: int):
    """Loss-Hessian flatness over all trainable parameters (theta and theta_a)
    on the first ``n_examples`` examples: a Lanczos run for the near-zero
    fraction and a Hutchinson trace deflated by its Krylov basis
    (``dg.deflated_trace``), whose probes ride with the Lanczos steps, on
    one linearization of the loss.
    Returns (TraceEstimate, LanczosResult, parameter count P)."""
    m = min(n_examples, dataset.n_examples)
    xb, yb = dataset.inputs[:m], dataset.targets[:m]
    theta_all = params.all_tensors()
    n_params = sum(t.data.size for t in theta_all)

    def lossfn():
        return ml.batch_loss(params, config, xb, yb)

    est, lan = dg.deflated_trace(ad.hvp_operator(lossfn, theta_all), n_params,
                                 min(k, n_params), n_probes, trace_seed, lanczos_seed)
    return est, lan, n_params


def net_diagnostics(params, config, eval_set, hessian_set, settings: dict,
                    trace_seed: int, lanczos_seed: int):
    """A trained net's diagnostics, as (``dg.RunRecord`` field, value) pairs
    yielded as each is computed, so that a caller keeps what came before a
    failure: the ``metric`` and the participation ratio of the hidden
    activity on ``eval_set``, then, when ``settings["hessian"]``, the
    ``hessian_diagnostics`` pass on ``hessian_set`` with the settings'
    probes, ``lanczos_k`` and examples."""
    out, activity = nn.forward_activity(params, config, eval_set.inputs)
    yield "metric", ml.score(config, out, eval_set.targets)
    summary = dg.participation_ratio(activity)
    yield "ratio", summary.ratio
    yield "normalized_ratio", summary.normalized
    if settings["hessian"]:
        est, lan, n_params = hessian_diagnostics(
            params, config, hessian_set, settings["hutchinson_probes"], settings["lanczos_k"],
            settings["hessian_examples"], trace_seed, lanczos_seed)
        yield "hessian_trace", est.value
        yield "hessian_trace_stderr", est.stderr
        yield "f_near_zero", lan.f_near_zero
        yield "hessian_params", n_params


def run_single(exp: ExperimentConfig, train_set, val_set, variant: str,
               replicate: int, width: int) -> dg.RunRecord:
    """Train one seeded run and compute its diagnostics."""
    run_seed = derive_run_seed(exp.seed, variant, replicate)
    record = dg.RunRecord(seed=run_seed, fingerprint=fingerprint(exp, variant, width),
                          variant=variant, metric=float("nan"),
                          replicate=replicate, width=width)
    config = network_config(exp, exp.variants[variant], width, train_set)
    schedule = TrainSchedule(**exp.schedule, seed=run_seed)
    try:
        params, _ = ml.train(config, schedule, train_set)  # its history is not kept
        for name, value in net_diagnostics(params, config, val_set, train_set, exp.diagnostics,
                                           run_seed ^ 0x5EED, run_seed ^ 0xF00D):
            setattr(record, name, value)
    except (TrainingDiverged, dg.DegenerateActivityError) as exc:
        record.status = f"failed: {type(exc).__name__}"
        print(f"[{variant} #{replicate}] {exc}", file=sys.stderr)
    return record


_POOL_STATE = {}
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _pool_init(exp, train_set, val_set, width):
    _POOL_STATE["args"] = (exp, train_set, val_set, width)


def _pool_run(task):
    variant, replicate = task
    exp, train_set, val_set, width = _POOL_STATE["args"]
    return run_single(exp, train_set, val_set, variant, replicate, width)


def run_campaign(exp: ExperimentConfig, train_set, val_set, width: int, jobs: int = 1):
    """All (variant, replicate) runs at one width, optionally on a worker pool."""
    todo = [(variant, rep) for variant in exp.variants for rep in range(exp.n_seeds)]
    if jobs <= 1 or len(todo) == 1:
        records = [run_single(exp, train_set, val_set, v, r, width) for v, r in todo]
    else:
        # Workers run one BLAS thread: their small-batch runs gain nothing
        # from more, and the pool already uses the cores.  Spawned workers
        # read the variables when they import NumPy; the caller's NumPy is
        # loaded, so its thread count stays.  They stay set for the pool's
        # whole life, so that a replacement worker gets them too.
        saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
        try:
            ctx = multiprocessing.get_context("spawn")
            with ctx.Pool(jobs, initializer=_pool_init,
                          initargs=(exp, train_set, val_set, width)) as pool:
                records = pool.map(_pool_run, todo)
        finally:
            for var, value in saved.items():
                if value is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = value
    records.sort(key=lambda r: (list(exp.variants).index(r.variant), r.replicate))
    return records


def emit_campaign(exp: ExperimentConfig, records, out_dir, width: int) -> None:
    os.makedirs(out_dir, exist_ok=True)
    dg.write_run_records_csv(records, os.path.join(out_dir, "runs.csv"))
    groups = dg.aggregate_runs(records)
    dg.write_group_stats_csv(groups, os.path.join(out_dir, "groups.csv"))
    a_range = (0.0, 1.0) if exp.net_task == "classification" else None
    ok = [r for r in records if r.status == "ok"]
    hist_path = os.path.join(out_dir, "hist2d.csv")
    if ok:
        dg.write_hist2d_csv(dg.histogram_2d(ok, a_range=a_range), hist_path)
    elif os.path.exists(hist_path):  # an earlier campaign's, not of these runs
        os.remove(hist_path)
    dg.write_summary_json(groups, os.path.join(out_dir, "summary.json"),
                          extra={"task": exp.task, "width": width,
                                 "n_seeds": exp.n_seeds, "campaign_seed": exp.seed})


def _campaign_ok(exp: ExperimentConfig, records, where: str = "") -> bool:
    """Whether every variant has a successful run; if not, say which have
    none, with ``where`` after "campaign failed"."""
    ok = {r.variant for r in records if r.status == "ok"}
    failed = [v for v in exp.variants if v not in ok]
    if failed:
        print(f"campaign failed{where}: a variant has zero successful runs "
              f"({', '.join(failed)})", file=sys.stderr)
    return not failed


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_train(args) -> int:
    exp = parse_experiment_config(args.config)
    variant = args.variant or next(iter(exp.variants))
    if variant not in exp.variants:
        raise ConfigError(f"unknown variant {variant!r}")
    train_set, val_set = build_datasets(exp)
    config = network_config(exp, exp.variants[variant], exp.hidden_width, train_set)
    run_seed = args.seed if args.seed is not None else derive_run_seed(exp.seed, variant, 0)
    schedule = TrainSchedule(**exp.schedule, seed=run_seed)
    params, history = ml.train(config, schedule, train_set, val_set)

    os.makedirs(args.out, exist_ok=True)
    nn.save_params(params, config, os.path.join(args.out, "params.json"))
    ml.write_history_csv(history, os.path.join(args.out, "history.csv"))
    for t in sorted(history.snapshots):
        ml.write_activation_trace_csv(
            history, t, os.path.join(args.out, f"activation_type{t}.csv"))
    label = "accuracy" if exp.net_task == "classification" else "loss"
    print(f"run seed {run_seed}: validation {label} {history.val[-1][1]:.4f}")
    return 0


def _pool_size(jobs) -> int:
    """``--jobs``, one worker per core when unset."""
    if jobs is not None and jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    return jobs or os.cpu_count() or 1


def cmd_campaign(args) -> int:
    jobs = _pool_size(args.jobs)
    exp = parse_experiment_config(args.config)
    train_set, val_set = build_datasets(exp)
    records = run_campaign(exp, train_set, val_set, exp.hidden_width, jobs)
    emit_campaign(exp, records, args.out, exp.hidden_width)
    groups = dg.aggregate_runs(records)
    for fp in sorted(groups, key=lambda f: groups[f].variant):
        g = groups[fp]
        print(f"{g.variant}: n={g.count} median={g.median:.4f} mean={g.mean:.4f}")
    return 0 if _campaign_ok(exp, records) else 3


def cmd_size_sweep(args) -> int:
    jobs = _pool_size(args.jobs)
    exp = parse_experiment_config(args.config)
    if not exp.sizes:
        raise ConfigError("size sweep needs a 'sizes' list in the config")
    train_set, val_set = build_datasets(exp)
    os.makedirs(args.out, exist_ok=True)
    all_ok = True
    combined = []
    for width in exp.sizes:
        records = run_campaign(exp, train_set, val_set, width, jobs)
        emit_campaign(exp, records, os.path.join(args.out, f"size_{width}"), width)
        all_ok = _campaign_ok(exp, records, f" at width {width}") and all_ok
        groups = dg.aggregate_runs(records)
        for g in sorted(groups.values(), key=lambda g: g.variant):
            combined.append((width, g))
    columns = dg.field_names(dg.GroupStats, "fingerprint", "outliers")
    tasks.write_csv(os.path.join(args.out, "sizes.csv"), ["width"] + columns,
                    ([width] + [getattr(g, c) for c in columns] for width, g in combined))
    return 0 if all_ok else 3


def cmd_export_activation(args) -> int:
    try:
        params, config = nn.load_params(args.params)
    except FileNotFoundError:
        raise ConfigError(f"params snapshot not found: {args.params}") from None
    idx = args.type
    if not 0 <= idx < len(config.activations):
        raise ConfigError(f"type index {idx} out of range "
                          f"(snapshot declares {len(config.activations)} types)")
    spec = config.activations[idx]
    if spec.kind != "subnet":
        raise ConfigError(f"no subnet at index {idx} (kind is {spec.kind!r})")
    lo, hi = args.range
    tab = nn.extract_tabulated(spec, params.subnets[idx], lo, hi, args.points)
    nn.save_activation_json(tab, args.out, provenance={
        "base": spec.name, "task": config.task, "seed": config.seed})
    print(f"exported type {idx} ({spec.name} base) on [{lo}, {hi}] to {args.out}")
    return 0


def cmd_gen_data(args) -> int:
    if args.m < 1:
        raise ConfigError(f"--m must be >= 1, got {args.m}")
    os.makedirs(args.out, exist_ok=True)
    if args.task == "mnist1d-synth":
        s_train, s_val = np.random.SeedSequence(args.seed).spawn(2)
        train = tasks.generate_synthetic_1d(s_train, args.m, split="train")
        val = tasks.generate_synthetic_1d(s_val, max(1, args.m // 4), split="val")
    else:
        train, val = tasks.build_vdp_forecast_dataset(seed=args.seed, n_samples=args.m)
    train_path = os.path.join(args.out, "train.dsv")
    val_path = os.path.join(args.out, "val.dsv")
    tasks.save_dataset(train, train_path)
    tasks.save_dataset(val, val_path)
    print(f"wrote {train_path} ({train.n_examples} examples) and "
          f"{val_path} ({val.n_examples} examples)")
    return 0


def cmd_diagnose(args) -> int:
    check_section("diagnostics", {key: getattr(args, key) for key in DIAGNOSE_FLAGS},
                  names=DIAGNOSE_FLAGS)
    try:
        params, config = nn.load_params(args.params)
    except FileNotFoundError:
        raise ConfigError(f"params snapshot not found: {args.params}") from None
    dataset = tasks.load_dataset(args.data)
    result = {"task": config.task, "theta_params": nn.theta_size(params),
              "theta_a_params": nn.theta_a_size(params)}
    result.update(net_diagnostics(params, config, dataset, dataset, vars(args),
                                  args.seed, args.seed + 1))
    text = json.dumps(result, sort_keys=True, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------------------
# Entry point.

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ldnn",
                                     description="learned-diversity network experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="one training run with full artifacts")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--variant", default=None)
    p.add_argument("--out", default="runs/train")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("campaign", help="n_seeds runs per variant with diagnostics")
    p.add_argument("config")
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--out", default="runs/campaign")
    p.set_defaults(fn=cmd_campaign)

    p = sub.add_parser("size-sweep", help="repeat the campaign across hidden widths")
    p.add_argument("config")
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--out", default="runs/size-sweep")
    p.set_defaults(fn=cmd_size_sweep)

    p = sub.add_parser("export-activation", help="freeze a learned activation to JSON")
    p.add_argument("params")
    p.add_argument("--type", type=int, required=True)
    p.add_argument("--range", type=float, nargs=2, default=(-6.0, 6.0))
    p.add_argument("--points", type=int, default=601)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_export_activation)

    p = sub.add_parser("gen-data", help="write dataset containers")
    p.add_argument("task", choices=["mnist1d-synth", "vdp"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, default=4000)
    p.add_argument("--out", default="data")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("diagnose", help="recompute diagnostics from a snapshot")
    p.add_argument("params")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--hessian", action="store_true")
    for key, flag in DIAGNOSE_FLAGS.items():
        p.add_argument(flag, dest=key, type=int, default=DIAG_DEFAULTS[key])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError) as exc:  # tasks.DatasetFormatError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (TrainingDiverged, tasks.TrajectoryDiverged) as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
