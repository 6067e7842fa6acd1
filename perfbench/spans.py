"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark's own wrappers around the public
callables of each package layer; the package itself is not edited. A span
holds its name, start, end, parent span and run id (one run id per traced
set-up or fit pass). Spans live in flat arrays so that a traced sweep of
several hundred thousand calls stays a few tens of MB, and are written out
once, when the benchmark ends.

Wrappers replace a name where the caller looks it up: ``algorithms`` imports
``median_heuristic`` and ``stein_direction`` by name, so those are patched in
``particle_em.algorithms``; ``cli`` imports ``run`` and the data loaders by
name, so those are patched in ``particle_em.cli`` as well. Model methods are
wrapped on the instance.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from array import array
from time import perf_counter

import numpy as np

#: (module under particle_em, attribute, span name); a missing attribute is skipped
MODULE_TARGETS = [
    ("kernels", "pairwise_sq_dists", "kernels.pairwise_sq_dists"),
    ("kernels", "rbf_matrix", "kernels.rbf_matrix"),
    ("kernels", "median_heuristic", "kernels.median_heuristic"),
    ("kernels", "stein_direction", "kernels.stein_direction"),
    ("algorithms", "median_heuristic", "kernels.median_heuristic"),
    ("algorithms", "stein_direction", "kernels.stein_direction"),
    ("algorithms", "svgd_em_step", "algorithms.step.svgd_em"),
    ("algorithms", "coin_em_step", "algorithms.step.coin_em"),
    ("algorithms", "adaptive_coin_em_step", "algorithms.step.adaptive_coin_em"),
    ("algorithms", "marginal_svgd_em_step", "algorithms.step.marginal_svgd_em"),
    ("algorithms", "marginal_coin_em_step", "algorithms.step.marginal_coin_em"),
    ("algorithms", "pgd_step", "algorithms.step.pgd"),
    ("algorithms", "run", "algorithms.run"),
    ("cli", "run", "algorithms.run"),
    ("data", "load_csv", "data.load_csv"),
    ("data", "train_test_split", "data.train_test_split"),
    ("data", "load_edgelist", "data.load_edgelist"),
    ("data", "generate_toy_data", "data.generate_toy_data"),
    ("cli", "load_csv", "data.load_csv"),
    ("cli", "train_test_split", "data.train_test_split"),
    ("cli", "load_edgelist", "data.load_edgelist"),
    ("cli", "generate_toy_data", "data.generate_toy_data"),
    ("cli", "run_sweep", "cli.run_sweep"),
    ("cli", "execute_run", "cli.execute_run"),
    ("cli", "_sweep_point", "cli.sweep_point"),
    ("cli", "_run_single", "cli.run_single"),
    ("cli", "_write_trace_csv", "cli.write_trace_csv"),
    ("cli", "_write_sidecar", "cli.write_sidecar"),
]

MODEL_METHODS = ("grad_theta", "mean_grad_theta", "grad_z", "log_joint", "default_init",
                 "predict", "predict_proba")

_MISSING = object()


def _pairwise_bytes(particles, *args, **kwargs) -> float:
    # the (N, N, d) float64 difference tensor each call materialises
    n, d = np.shape(particles)
    return float(n * n * d * 8)


class Tracer:
    """Collects spans from wrapped callables into flat arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self._stack = [-1]
        self.run_id = -1
        self._restore: list[tuple[object, str, object]] = []

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, amount=None, post=None):
        """Return ``fn`` recording one span per call.

        ``amount(*args)`` adds a per-call quantity (bytes computed); ``post``
        transforms the return value (to instrument a model or hooks that the
        wrapped call built).
        """
        nid = self._name(name)
        stack = self._stack
        name_id, parent, run, start, end, amt = (
            self.name_id, self.parent, self.run, self.start, self.end, self.amount)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            run.append(self.run_id)
            amt.append(amount(*args, **kwargs) if amount is not None else 0.0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return post(result) if post is not None else result
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()

        return traced

    def _patch(self, obj, attr: str, value) -> None:
        self._restore.append((obj, attr, obj.__dict__.get(attr, _MISSING)))
        setattr(obj, attr, value)

    def install(self) -> None:
        """Wrap the package's layer callables in place."""
        for module_name, attr, span in MODULE_TARGETS:
            module = importlib.import_module(f"particle_em.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            amount = _pairwise_bytes if span == "kernels.pairwise_sq_dists" else None
            self._patch(module, attr, self.wrap(span, fn, amount=amount))
        cli = importlib.import_module("particle_em.cli")
        if hasattr(cli, "_build_model"):
            self._patch(cli, "_build_model", self.wrap(
                "cli.build_model", cli._build_model,
                post=lambda res: (self.instrument_model(res[0], restore=False), *res[1:])))
        if hasattr(cli, "_metric_hooks"):
            self._patch(cli, "_metric_hooks", self.wrap(
                "cli.metric_hooks", cli._metric_hooks, post=self.wrap_hooks))

    def instrument_model(self, model, restore: bool = True):
        """Wrap the model's methods on the instance; returns the model."""
        for method in MODEL_METHODS:
            fn = getattr(model, method, None)
            if fn is None:
                continue
            wrapped = self.wrap(f"models.{method}", fn)
            if restore:
                self._patch(model, method, wrapped)
            else:
                setattr(model, method, wrapped)
        return model

    def wrap_hooks(self, hooks: dict) -> dict:
        return {name: self.wrap("algorithms.hooks", hook) for name, hook in hooks.items()}

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        while self._restore:
            obj, attr, old = self._restore.pop()
            if old is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)

    # ------------------------------------------------------------------
    # aggregation

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "amount": np.frombuffer(self.amount, dtype=np.float64).copy(),
        }

    def per_run(self) -> dict[int, dict[str, dict[str, float]]]:
        """{run id: {span name: {calls, s, self_s, amount}}}.

        A span's self time is its duration minus the durations of its direct
        children; the run is single-threaded, so children never overlap.
        """
        a = self.arrays()
        if a["name_id"].size == 0:
            return {}
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child
        n_names = len(self.names)
        out: dict[int, dict[str, dict[str, float]]] = {}
        for run_id in np.unique(a["run"]):
            mask = a["run"] == run_id
            ids = a["name_id"][mask]
            calls = np.bincount(ids, minlength=n_names)
            total = np.bincount(ids, weights=dur[mask], minlength=n_names)
            selfs = np.bincount(ids, weights=self_t[mask], minlength=n_names)
            amounts = np.bincount(ids, weights=a["amount"][mask], minlength=n_names)
            out[int(run_id)] = {
                name: {"calls": float(calls[i]), "s": float(total[i]),
                       "self_s": float(selfs[i]), "amount": float(amounts[i])}
                for i, name in enumerate(self.names) if calls[i]
            }
        return out

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _get(name: str, key: str):
    return lambda run: run.get(name, {}).get(key, 0.0)


def _total(prefix: str, key: str):
    return lambda run: sum((v[key] for n, v in run.items() if n.startswith(prefix)), 0.0)


def _layer_self(layer: str):
    return lambda run: sum((v["self_s"] for n, v in run.items() if n.split(".")[0] == layer), 0.0)


def _per_step(name: str):
    def ratio(run):
        steps = _total("algorithms.step.", "calls")(run)
        return _get(name, "calls")(run) / steps if steps else 0.0
    return ratio


#: (metric, unit, value of one traced run); medians over the traced fit
#: passes, plus the median over traced set-ups for the two set-up metrics
PER_PASS = [
    ("kernels.median_heuristic.calls", "count", _get("kernels.median_heuristic", "calls")),
    ("kernels.median_heuristic.s", "s", _get("kernels.median_heuristic", "s")),
    ("kernels.pairwise_sq_dists.calls", "count", _get("kernels.pairwise_sq_dists", "calls")),
    ("kernels.pairwise_sq_dists.calls_per_step", "1/step", _per_step("kernels.pairwise_sq_dists")),
    ("kernels.pairwise_sq_dists.s", "s", _get("kernels.pairwise_sq_dists", "s")),
    ("kernels.pairwise_sq_dists.bytes_computed", "B", _get("kernels.pairwise_sq_dists", "amount")),
    ("kernels.rbf_matrix.s", "s", _get("kernels.rbf_matrix", "s")),
    ("kernels.stein_direction.calls", "count", _get("kernels.stein_direction", "calls")),
    ("kernels.stein_direction.self_s", "s", _get("kernels.stein_direction", "self_s")),
    ("kernels.self_s", "s", _layer_self("kernels")),
    ("models.grad_z.calls", "count", _get("models.grad_z", "calls")),
    ("models.grad_z.s", "s", _get("models.grad_z", "s")),
    ("models.grad_theta.calls", "count", _get("models.grad_theta", "calls")),
    ("models.grad_theta.s", "s", _get("models.grad_theta", "s")),
    ("models.log_joint.calls", "count", _get("models.log_joint", "calls")),
    ("models.log_joint.s", "s", _get("models.log_joint", "s")),
    ("models.default_init.s", "s", _get("models.default_init", "s")),
    ("models.self_s", "s", _layer_self("models")),
    ("algorithms.step.calls", "count", _total("algorithms.step.", "calls")),
    ("algorithms.step.self_s", "s", _total("algorithms.step.", "self_s")),
    ("algorithms.hooks.calls", "count", _get("algorithms.hooks", "calls")),
    ("algorithms.hooks.s", "s", _get("algorithms.hooks", "s")),
    ("algorithms.run.self_s", "s", _get("algorithms.run", "self_s")),
    ("algorithms.self_s", "s", _layer_self("algorithms")),
    ("data.load.s", "s", _total("data.", "s")),
    ("cli.run_sweep.s", "s", _get("cli.run_sweep", "s")),
    ("cli.self_s", "s", _layer_self("cli")),
    ("trace.spans_per_pass", "count", _total("", "calls")),
]
SETUP_TOO = {"models.default_init.s", "data.load.s"}
COUNTERS = [("cli.bytes_written", "B"), ("cli.sweep.diverged_points", "count")]


def layer_metrics(per_run, pass_runs, setup_runs, counters) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one fit pass (and one set-up, where named)."""
    passes = [per_run.get(r, {}) for r in pass_runs]
    setups = [per_run.get(r, {}) for r in setup_runs]
    out = {}
    for metric, unit, value in PER_PASS:
        total = _median([value(r) for r in passes])
        if metric in SETUP_TOO:
            total += _median([value(r) for r in setups])
        out[metric] = (total, unit)
    for metric, unit in COUNTERS:
        out[metric] = (_median([c.get(metric, 0.0) for c in counters]), unit)
    return out
