"""Feed-forward networks with per-neuron activation specifications.

A hidden neuron's nonlinearity is either a builtin function, a small
trainable sub-network added on top of a base function, or a frozen
piecewise-linear interpolant extracted from a trained sub-network.
Sub-network parameters are shared by every neuron of the same type and
form the outer-loop parameter group, disjoint from the layer weights.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor

TASKS = ("classification", "regression")


def _check_ints(values: dict) -> None:
    """Reject a value of ``values`` (by name) that is not an integer; a
    boolean is not one."""
    for name, value in values.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ActivationSpec:
    """Description of one neuron nonlinearity.

    kind "builtin": the named fixed function.
    kind "subnet": base(a) plus a trainable tanh-hidden residual network,
    scalar in, scalar out.
    kind "tabulated": linear interpolation on a fixed grid, clamped to the
    endpoint values outside it.  Its ``table`` holds the grid, the values
    and the segment slopes as read-only arrays, built once here for every
    forward and backward pass.
    """

    kind: str
    name: str = ""
    hidden_width: int = 0
    grid: tuple = ()
    values: tuple = ()
    table: tuple = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind == "tabulated":
            grid, values = (np.array(t, dtype=np.float64) for t in (self.grid, self.values))
            table = (grid, values, np.diff(values) / np.diff(grid))
            for arr in table:
                arr.flags.writeable = False
            object.__setattr__(self, "table", table)

    @staticmethod
    def builtin(name: str) -> "ActivationSpec":
        if name not in ad.UNARY:
            raise ValueError(f"unknown builtin activation {name!r}")
        return ActivationSpec(kind="builtin", name=name)

    @staticmethod
    def subnet(base: str, hidden_width: int = 50) -> "ActivationSpec":
        if base not in ad.UNARY:
            raise ValueError(f"unknown base activation {base!r}")
        if type(hidden_width) is not int or hidden_width < 1:
            raise ValueError(f"subnet hidden_width must be an integer >= 1, got {hidden_width!r}")
        return ActivationSpec(kind="subnet", name=base, hidden_width=hidden_width)

    @staticmethod
    def tabulated(grid, values) -> "ActivationSpec":
        grid = tuple(float(g) for g in grid)
        values = tuple(float(v) for v in values)
        if len(grid) < 2 or len(grid) != len(values):
            raise ValueError("tabulated spec needs matching grid/values of length >= 2")
        for name, seq in (("grid", grid), ("values", values)):
            bad = next((i for i, v in enumerate(seq) if not math.isfinite(v)), None)
            if bad is not None:
                raise ValueError(f"tabulated {name}[{bad}] must be finite, got {seq[bad]!r}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("tabulated grid must be strictly ascending")
        return ActivationSpec(kind="tabulated", grid=grid, values=values)


@dataclass(frozen=True)
class LayerSpec:
    """Hidden layer width plus the per-neuron activation-type assignment.
    ``plan`` holds (type, columns) per type, in ascending order: a slice of
    every column when one type fills the layer, else a read-only index array."""

    width: int
    assignment: tuple
    plan: tuple = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(self.assignment))
        _check_ints({"width": self.width,
                     **{f"assignment[{i}]": t for i, t in enumerate(self.assignment)}})
        if self.width < 1:
            raise ValueError("layer width must be positive")
        if len(self.assignment) != self.width:
            raise ValueError(f"assignment length {len(self.assignment)} != width {self.width}")
        assignment = np.asarray(self.assignment)
        types = np.unique(assignment).tolist()
        plan = tuple((t, slice(None) if len(types) == 1 else np.flatnonzero(assignment == t))
                     for t in types)
        for _, cols in plan:
            if isinstance(cols, np.ndarray):
                cols.flags.writeable = False
        object.__setattr__(self, "plan", plan)


def mixed_assignment(width: int, type_indices) -> tuple:
    """Interleave the given activation types over a layer (equal split)."""
    types = [int(t) for t in type_indices]
    if not types:
        raise ValueError("need at least one activation type")
    return tuple(types[i % len(types)] for i in range(width))


@dataclass(frozen=True)
class NetworkConfig:
    input_dim: int
    layers: tuple
    output_dim: int
    activations: tuple
    task: str = "classification"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "activations", tuple(self.activations))
        _check_ints({"input_dim": self.input_dim, "output_dim": self.output_dim, "seed": self.seed})
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be positive")
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}")
        for layer in self.layers:
            for idx in layer.assignment:
                if not 0 <= idx < len(self.activations):
                    raise ValueError(f"activation index {idx} not declared")


def mlp_config(input_dim, hidden_width, output_dim, activations, types=None,
               task="classification", seed=0) -> NetworkConfig:
    """Single-hidden-layer network with the given types interleaved."""
    activations = tuple(activations)
    if types is None:
        types = range(len(activations))
    layer = LayerSpec(hidden_width, mixed_assignment(hidden_width, types))
    return NetworkConfig(input_dim=input_dim, layers=(layer,), output_dim=output_dim,
                         activations=activations, task=task, seed=seed)


@dataclass
class SubnetParams:
    """Trainable residual for one activation type: w2 . tanh(w1 a + b1) + b2."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def tensors(self):
        return [self.w1, self.b1, self.w2, self.b2]

    @property
    def hidden_width(self) -> int:
        return self.w1.data.size


@dataclass
class ParamSet:
    """Disjoint parameter partition: layer weights vs activation sub-networks."""

    weights: list = field(default_factory=list)
    biases: list = field(default_factory=list)
    subnets: dict = field(default_factory=dict)

    def theta(self):
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def theta_a(self):
        out = []
        for key in sorted(self.subnets):
            out.extend(self.subnets[key].tensors())
        return out

    def all_tensors(self):
        return self.theta() + self.theta_a()


def theta_size(params: ParamSet) -> int:
    return sum(t.data.size for t in params.theta())


def theta_a_size(params: ParamSet) -> int:
    return sum(t.data.size for t in params.theta_a())


def subnet_types(config: NetworkConfig) -> list:
    """The subnet activation types that some layer uses, ascending."""
    return sorted({idx for layer in config.layers for idx in layer.assignment
                   if config.activations[idx].kind == "subnet"})


def init_network(config: NetworkConfig, seed=None) -> ParamSet:
    """Draw layer weights uniform in +-1/sqrt(fan_in); zero each subnet's
    output layer so every learned activation starts exactly at its base."""
    rng = np.random.default_rng(config.seed if seed is None else seed)
    dims = [config.input_dim] + [l.width for l in config.layers] + [config.output_dim]
    params = ParamSet()
    for fan_in, width in zip(dims[:-1], dims[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        params.weights.append(Tensor(rng.uniform(-bound, bound, size=(fan_in, width)),
                                     requires_grad=True))
        params.biases.append(Tensor(rng.uniform(-bound, bound, size=width),
                                    requires_grad=True))
    for t in subnet_types(config):
        h = config.activations[t].hidden_width
        params.subnets[t] = SubnetParams(
            w1=Tensor(rng.uniform(-1.0, 1.0, size=h), requires_grad=True),
            b1=Tensor(rng.uniform(-1.0, 1.0, size=h), requires_grad=True),
            w2=Tensor(np.zeros(h), requires_grad=True),
            b2=Tensor(np.zeros(()), requires_grad=True),
        )
    return params


# ---------------------------------------------------------------------------
# Forward evaluation.

def _layer_groups(layer: LayerSpec, config: NetworkConfig, params: ParamSet) -> list:
    """(columns, spec, subnet parameters) of each activation type in a layer."""
    return [(cols, config.activations[t], params.subnets.get(t)) for t, cols in layer.plan]


def forward(params: ParamSet, config: NetworkConfig, batch):
    """Propagate a batch through the network.

    Returns (outputs, hidden_preacts, hidden_acts) where the hidden tensors
    belong to the last hidden layer (the representation feeding the output).
    Outputs are raw logits for classification and identity for regression.
    """
    x = batch if isinstance(batch, Tensor) else Tensor(batch)
    if x.data.ndim != 2 or x.data.shape[1] != config.input_dim:
        raise ShapeError(
            f"forward: batch shape {x.data.shape} does not match input_dim {config.input_dim}"
        )
    a = x
    pre = act = None
    for i, layer in enumerate(config.layers):
        z = ad.add(ad.matmul(a, params.weights[i]), params.biases[i])
        a = ad.activation(z, _layer_groups(layer, config, params))
        pre, act = z, a
    n = len(config.layers)
    out = ad.add(ad.matmul(a, params.weights[n]), params.biases[n])
    return out, pre, act


def eval_activation(spec: ActivationSpec, a, subnet_params: SubnetParams = None):
    """Evaluate one activation spec on plain numbers (no tape).

    Scalar-in/scalar-out semantics broadcast elementwise over arrays.  A
    subnet spec requires its parameter block.
    """
    return ad.activation_values(spec, np.asarray(a, dtype=np.float64), subnet_params)[0]


def extract_tabulated(spec: ActivationSpec, subnet_params: SubnetParams = None,
                      lo: float = -6.0, hi: float = 6.0, n_points: int = 601) -> ActivationSpec:
    """Sample an activation on a uniform grid and freeze it as an interpolant."""
    if not lo < hi:
        raise ValueError(f"invalid range [{lo}, {hi}]")
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    grid = np.linspace(lo, hi, int(n_points))
    values = eval_activation(spec, grid, subnet_params)
    return ActivationSpec.tabulated(grid, values)


def hidden_activity_matrix(params: ParamSet, config: NetworkConfig, inputs) -> np.ndarray:
    """Post-activation activity of each hidden neuron on each input, shape (N, M)."""
    return forward_activity(params, config, inputs)[1]


def forward_activity(params: ParamSet, config: NetworkConfig, inputs):
    """One forward pass without the tape: the outputs, and the activity
    matrix of the last hidden layer (``hidden_activity_matrix``)."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.shape[0] == 0:
        raise ValueError("empty input set")
    if not config.layers:
        raise ValueError("network has no hidden layer")
    with ad.no_grad():
        out, _, act = forward(params, config, inputs)
    return out, act.data.T.copy()


# ---------------------------------------------------------------------------
# Serialization: tabulated-activation JSON, config dicts, parameter snapshots.

def save_activation_json(spec: ActivationSpec, path, provenance: dict = None) -> None:
    if spec.kind != "tabulated":
        raise ValueError("only tabulated activations are exported")
    obj = {
        "kind": "tabulated",
        "grid": [float(g) for g in spec.grid],
        "values": [float(v) for v in spec.values],
        "extrapolation": "clamp",
        "provenance": provenance or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _read_json_object(path, key: str, value: str, what: str) -> dict:
    """The JSON object in the file ``path``, which maps ``key`` to ``value``;
    else a ValueError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict) or obj.get(key) != value:
        raise ValueError(f"{path}: not {what}")
    return obj


def load_activation_json(path) -> ActivationSpec:
    """Read a tabulated activation file; a malformed one raises ValueError
    naming ``path``."""
    obj = _read_json_object(path, "kind", "tabulated", "a tabulated activation file")
    if obj.get("extrapolation", "clamp") != "clamp":
        raise ValueError(f"{path}: unsupported extrapolation rule {obj['extrapolation']!r}")
    try:
        return ActivationSpec.tabulated(obj["grid"], obj["values"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad tabulated activation ({exc!r})") from None


def spec_to_dict(spec: ActivationSpec) -> dict:
    if spec.kind == "builtin":
        return {"kind": "builtin", "name": spec.name}
    if spec.kind == "subnet":
        return {"kind": "subnet", "base": spec.name, "hidden_width": spec.hidden_width}
    return {"kind": "tabulated", "grid": list(spec.grid), "values": list(spec.values)}


def spec_from_dict(obj: dict) -> ActivationSpec:
    kind = obj.get("kind")
    if kind == "builtin":
        return ActivationSpec.builtin(obj["name"])
    if kind == "subnet":
        return ActivationSpec.subnet(obj["base"], obj["hidden_width"])
    if kind == "tabulated":
        return ActivationSpec.tabulated(obj["grid"], obj["values"])
    raise ValueError(f"unknown activation kind {kind!r}")


def config_to_dict(config: NetworkConfig) -> dict:
    return {
        "input_dim": config.input_dim,
        "output_dim": config.output_dim,
        "task": config.task,
        "seed": config.seed,
        "layers": [{"width": l.width, "assignment": list(l.assignment)} for l in config.layers],
        "activations": [spec_to_dict(s) for s in config.activations],
    }


def config_from_dict(obj: dict) -> NetworkConfig:
    return NetworkConfig(
        input_dim=obj["input_dim"],
        layers=tuple(LayerSpec(l["width"], l["assignment"]) for l in obj["layers"]),
        output_dim=obj["output_dim"],
        activations=tuple(spec_from_dict(s) for s in obj["activations"]),
        task=obj.get("task", "classification"),
        seed=obj.get("seed", 0),
    )


def save_params(params: ParamSet, config: NetworkConfig, path) -> None:
    """Write a self-describing JSON snapshot; floats round-trip exactly."""
    obj = {
        "format": "ldnn-params-v1",
        "config": config_to_dict(config),
        "weights": [{"shape": list(w.data.shape), "data": w.data.ravel().tolist()}
                    for w in params.weights],
        "biases": [{"shape": list(b.data.shape), "data": b.data.ravel().tolist()}
                   for b in params.biases],
        "subnets": {
            str(t): {
                "w1": sp.w1.data.tolist(),
                "b1": sp.b1.data.tolist(),
                "w2": sp.w2.data.tolist(),
                "b2": float(sp.b2.data),
            }
            for t, sp in sorted(params.subnets.items())
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def _shapes(params: ParamSet) -> dict:
    """The shape of every array of ``params``, by its name in a snapshot."""
    named = [(f"weights[{i}]", w) for i, w in enumerate(params.weights)]
    named += [(f"biases[{i}]", b) for i, b in enumerate(params.biases)]
    named += [(f"subnets[{t}].{k}", getattr(sp, k))
              for t, sp in params.subnets.items() for k in ("w1", "b1", "w2", "b2")]
    return {name: t.data.shape for name, t in named}


def load_params(path):
    """Read a snapshot back; returns (ParamSet, NetworkConfig).  A malformed
    snapshot, one without the sub-network of a subnet type its layers use,
    or one whose arrays are not the shapes ``init_network`` makes for its
    config, raises ValueError naming ``path``."""
    obj = _read_json_object(path, "format", "ldnn-params-v1", "a parameter snapshot")
    try:
        config = config_from_dict(obj["config"])
        params = ParamSet()
        for entry in obj["weights"]:
            params.weights.append(Tensor(np.asarray(entry["data"]).reshape(entry["shape"]),
                                         requires_grad=True))
        for entry in obj["biases"]:
            params.biases.append(Tensor(np.asarray(entry["data"]).reshape(entry["shape"]),
                                        requires_grad=True))
        for key, sp in obj["subnets"].items():
            params.subnets[int(key)] = SubnetParams(
                w1=Tensor(sp["w1"], requires_grad=True),
                b1=Tensor(sp["b1"], requires_grad=True),
                w2=Tensor(sp["w2"], requires_grad=True),
                b2=Tensor(np.asarray(sp["b2"]), requires_grad=True),
            )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed parameter snapshot ({exc!r})") from None
    missing = sorted(set(subnet_types(config)) - set(params.subnets))
    if missing:
        raise ValueError(f"{path}: no sub-network for subnet types {missing}")
    got, want = _shapes(params), _shapes(init_network(config))
    for name in {**want, **got}:
        if got.get(name) != want.get(name):
            raise ValueError(f"{path}: {name} has shape {got.get(name)}, "
                             f"but the config makes {want.get(name)}")
    return params, config
