"""Spans around the calls into each ldnn module, taken from outside.

The tracer replaces public functions by wrappers on their module objects.
Calls from inside the package go through module globals or module
attributes, so they pass through the wrappers too.  A span records its
name, start, end, parent span and, for a few calls, one extra value.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time

from ldnn import autodiff, cli, diagnostics, metalearn, nn, tasks


def _tape_nodes(loss):
    """Nodes on the tape behind ``loss``, counted before ``backward`` clears them."""
    seen, stack, count = set(), [loss], 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t.node is not None:
            count += 1
            stack.extend(t.node.parents)
    return count


def _taped(args, kwargs, result):
    return result[0].node is not None


def _variant(args, kwargs, result):
    return kwargs["variant"] if "variant" in kwargs else args[3]


# (module, function, extra value taken before the call, after the call)
TARGETS = [
    (autodiff, "backward", lambda a, k: _tape_nodes(a[0]), None),
    (autodiff, "hessian_vector_product", None, None),
    (nn, "forward", None, _taped),
    (nn, "eval_activation", None, None),
    (metalearn, "batch_loss", None, None),
    (metalearn, "inner_step", None, None),
    (metalearn, "outer_step", None, None),
    (metalearn, "evaluate", None, None),
    (metalearn, "train", None, None),
    (diagnostics, "spectrum_lanczos", None, None),
    (diagnostics, "hessian_trace_hutchinson", None, None),
    (diagnostics, "participation_ratio", None, None),
    (cli, "hessian_diagnostics", None, None),
    (cli, "run_campaign", None, None),
    (cli, "emit_campaign", None, None),
    (cli, "run_single", None, _variant),
    (cli, "build_datasets", None, None),
    (tasks, "generate_synthetic_1d", None, None),
    (tasks, "load_dataset", None, None),
]
SETUP_TARGETS = [t for t in TARGETS if t[0] is tasks]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, extra]
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, before, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            if before is not None:
                span[4] = before(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                span[4] = after(args, kwargs, result)
            return result

        return wrapper

    def install(self, targets=TARGETS):
        for module, attr, before, after in targets:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, self._wrap(name, fn, before, after))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "extra"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, jobs: int, n_seeds: int) -> dict:
    """Per-layer metrics from recorded spans.  A layer the run never
    reached reads 0.  ``jobs`` and ``n_seeds`` describe the campaign whose
    pool overhead is estimated; they matter only where run_campaign ran."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def self_time(i):
        return dur(i) - sum(map(dur, children[i]))

    def find(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def below(i, name):
        """Spans called ``name`` anywhere below span i."""
        out, stack = [], list(children[i])
        while stack:
            c = stack.pop()
            if spans[c][0] == name:
                out.append(c)
            stack.extend(children[c])
        return out

    backward, hvp = find("autodiff.backward"), find("autodiff.hessian_vector_product")
    steps = find("metalearn.inner_step") + find("metalearn.outer_step")
    train, passes = find("metalearn.train"), find("cli.hessian_diagnostics")
    singles = find("cli.run_single")
    single_s = {v: _median([dur(i) for i in singles if spans[i][4] == v])
                for v in ("mix", "relu", "tab")}
    campaign = _median([dur(i) for i in find("cli.run_campaign")])

    ms = 1e3
    return {
        "autodiff.backward_ms": ms * _median([dur(i) for i in backward]),
        "autodiff.tape_nodes": _median([spans[i][4] for i in backward]),
        "autodiff.hvp_ms": ms * _median([dur(i) for i in hvp]),
        "autodiff.backward_calls_per_hvp": _median([len(below(i, "autodiff.backward")) for i in hvp]),
        "nn.forward_ms": ms * _median([dur(i) for i in find("nn.forward") if spans[i][4]]),
        "nn.eval_activation_ms": ms * _median([dur(i) for i in find("nn.eval_activation")]),
        "metalearn.inner_step_ms": ms * _median([dur(i) for i in find("metalearn.inner_step")]),
        "metalearn.outer_step_ms": ms * _median([dur(i) for i in find("metalearn.outer_step")]),
        "metalearn.optimizer_ms": ms * _median([self_time(i) for i in steps]),
        "metalearn.evaluate_ms": ms * _median([dur(i) for i in find("metalearn.evaluate")]),
        "metalearn.train_self_s": _median([self_time(i) for i in train]),
        "metalearn.steps": _median([len(below(i, "metalearn.inner_step") + below(i, "metalearn.outer_step"))
                                    for i in train]),
        "diagnostics.lanczos_s": _median([dur(i) for i in find("diagnostics.spectrum_lanczos")]),
        "diagnostics.hutchinson_s": _median([dur(i) for i in find("diagnostics.hessian_trace_hutchinson")]),
        "diagnostics.hvps": _median([len(below(i, "autodiff.hessian_vector_product")) for i in passes]),
        "diagnostics.linalg_self_s": _median([dur(i) - sum(map(dur, below(i, "autodiff.hessian_vector_product")))
                                            for i in passes]),
        "diagnostics.participation_ratio_ms": ms * _median([dur(i) for i in find("diagnostics.participation_ratio")]),
        "cli.run_campaign_s": campaign,
        "cli.emit_campaign_s": _median([dur(i) for i in find("cli.emit_campaign")]),
        "cli.run_single_s.mix": single_s["mix"],
        "cli.run_single_s.relu": single_s["relu"],
        "cli.run_single_s.tab": single_s["tab"],
        "cli.pool_overhead_s": (campaign - n_seeds * sum(single_s.values()) / jobs) if campaign else 0.0,
        "tasks.generate_s": sum(dur(i) for i in find("tasks.generate_synthetic_1d")),
        "tasks.load_dataset_s": _median([sum(map(dur, below(i, "tasks.load_dataset")))
                                         for i in find("cli.build_datasets")]),
    }

