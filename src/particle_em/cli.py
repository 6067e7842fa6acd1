"""Experiment runner: single runs, parameter sweeps, and particle dumps.

Every run writes a long-format CSV trace (``iteration,metric,value``) plus a
JSON sidecar holding the resolved config, derived seeds, wall-clock time, and
final parameter. Sweeps run one grid point per worker (worker count from the
``PARTICLE_EM_WORKERS`` env var) and assemble a ``<name>_sweep.csv`` summary;
a diverged grid point is recorded as ``inf`` rather than failing the sweep.

The CSV files are written as text this module encodes, with csv's minimal
quoting under a ``"\\n"`` line terminator: a field is quoted when it holds
``,``, ``"`` or ``\\n``, and each ``"`` inside is doubled. A bare ``\\r`` is
left unquoted, so a metric name holding one is refused: a reader would end
the row there.

Seed derivation: from a master seed S, the dataset stream uses
SeedSequence([S, 0]) and run k uses SeedSequence([S, 1, k]), so any sweep
point can be reproduced individually via ``run --seed S --run-index k`` with
its grid value; ``run`` is always one run and ignores the sweep keys.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import glob
import json
import logging
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace

import numpy as np

from . import __version__, metrics
from .algorithms import Trace, run, validate_run
from .config import LINK_SIGNS, SWEEP_KEYS, ExperimentConfig, parse_config, read_config_file
from .data import generate_toy_data, load_csv, load_edgelist, train_test_split
from .exceptions import ConfigError, DivergedError, ParseError
from .models import BayesianLogisticRegression, GaussianHierarchicalModel, LatentSpaceNetworkModel
from .models.base import particle_mean

logger = logging.getLogger(__name__)

WORKERS_ENV = "PARTICLE_EM_WORKERS"
#: the trace rows the CSV writer reads from the columns at a time
TRACE_CSV_BLOCK = 32

#: the final metric a sweep summarizes each grid point by, unless ``sweep_metric`` names another
SUMMARY_METRICS = {"toy": "theta_mse", "logreg": "test_error", "network": "mean_log_joint"}


def derive_seed(master_seed: int, *stream: int) -> int:
    """Deterministic 64-bit seed for one stream of a master seed; all are non-negative integers of any size."""
    ss = np.random.SeedSequence([master_seed, *stream])
    return int(ss.generate_state(1, np.uint64)[0])


def _build_model(config: ExperimentConfig, data_seed: int):
    """Instantiate the configured model; returns (model, extras)."""
    if config.model == "toy":
        x, _ = generate_toy_data(config.toy_dim, config.theta_true, data_seed)
        return GaussianHierarchicalModel(x), {}
    if config.model == "logreg":
        dataset = load_csv(config.data_path, config.label_column, config.positive_label)
        try:
            train, test = train_test_split(dataset, config.test_fraction, data_seed)
        except ConfigError:  # a bad test_fraction, not a fault of the data file
            raise
        except ValueError as err:
            raise ParseError(f"{config.data_path}: {err}") from None
        model = BayesianLogisticRegression(train.X, train.y, prior_var=config.prior_var)
        return model, {"test": (test.X, test.y)}
    if config.model == "network":
        net = load_edgelist(config.edgelist_path, config.labels_path)
        model = LatentSpaceNetworkModel(
            net.to_adjacency(),
            embed_dim=config.embed_dim,
            prior_var_z=config.prior_var_z,
            link_sign=LINK_SIGNS[config.link_sign],
        )
        return model, {"node_labels": net.node_labels}
    raise ConfigError([f"unknown model {config.model!r}"])


def _metric_hooks(config: ExperimentConfig, model, extras):
    hooks = {"theta": lambda th, Z: float(th[0])}
    if config.model == "toy":
        theta_star = model.theta_star()
        post_mean, _ = model.posterior_moments(theta_star)
        hooks["theta_mse"] = lambda th, Z: float((th[0] - theta_star) ** 2)
        # run hands every hook of a record the same cloud object, so the hooks take its mean once a
        # record; the memo holds the cloud itself, so a later cloud can never share its identity
        last = {}

        def cloud_mean(Z):
            if last.get("cloud") is not Z:
                last["cloud"], last["mean"] = Z, particle_mean(Z)
            return last["mean"]

        def post_mean_mse(th, Z):  # metrics.mse(Z.mean(axis=0), post_mean) bit for bit
            diff = cloud_mean(Z) - post_mean
            diff *= diff
            return float(np.add.reduce(diff) / diff.size)

        def posterior_var(th, Z):  # Z.var(axis=0, ddof=1).mean() bit for bit, in numpy's _var order
            dev = Z - cloud_mean(Z)
            dev *= dev
            var = np.add.reduce(dev, 0)
            var /= Z.shape[0] - 1
            return float(np.add.reduce(var) / var.size)

        hooks["post_mean_mse"] = post_mean_mse
        if config.particles >= 2:
            hooks["posterior_var"] = posterior_var
    elif config.model == "logreg":
        X_test, y_test = extras["test"]
        hooks["test_error"] = lambda th, Z: metrics.test_error(model.predict(Z, X_test), y_test)
    elif config.model == "network":
        hooks["mean_log_joint"] = lambda th, Z: float(particle_mean(np.array([model.log_joint(th, z) for z in Z])))

    def theta_grad_norm(th, Z):  # np.linalg.norm's own arithmetic on a vector, without its dispatch
        grad = model.mean_grad_theta(th, Z)
        return math.sqrt(grad.dot(grad))

    hooks["theta_grad_norm"] = theta_grad_norm
    return hooks


def _summary_metric(config: ExperimentConfig) -> str:
    """The final metric a sweep summarizes each grid point by."""
    return config.sweep_metric or SUMMARY_METRICS[config.model]


def _csv_line(fields) -> str:
    """One CSV row as text, the bytes ``csv.writer(fh, lineterminator="\\n").writerow(fields)`` writes for
    str, int and float fields: each field is its ``str``, quoted when it holds a ``,``, a ``"`` or a
    ``\\n``, with each ``"`` inside doubled. A bare ``\\r`` is left unquoted, as csv leaves it. A row of
    one empty field is out of scope: csv spells it ``""``, and no CLI file has one-field rows."""
    return ",".join(map(_csv_field, fields)) + "\n"


def _csv_field(value) -> str:
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path: str, header: list, lines) -> None:
    """Write one CLI CSV file, creating its directory: the header row, then ``lines``, strings already
    encoded as ``_csv_line`` encodes a row, each one row or a block of rows."""
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_line(header))
        fh.writelines(lines)


def _write_trace_csv(path: str, trace: Trace) -> None:
    # a bare "\r" is left unquoted, and a reader then takes it for a line end
    names = trace.metric_names
    bad = sorted(name for name in names if "\r" in name)
    if bad:
        raise ValueError(f"metric name {bad[0]!r} contains a carriage return; the trace CSV cannot hold it")
    columns = [trace.iterations()] + [trace.metric_values(name)[1] for name in names]
    _write_csv(path, ["iteration", "metric", "value"], _trace_csv_rows(names, columns))


def _trace_csv_rows(names, columns):
    """The trace CSV's rows, iteration by iteration and metric by metric, as one string per block of
    ``TRACE_CSV_BLOCK`` iterations. The columns are read as Python ints and floats a block at a time: a
    numpy scalar per value is slow, and a whole column at once would hold a Python float for every
    value of the trace. Each name is encoded once."""
    fields = [_csv_field(name) for name in names]
    for start in range(0, len(columns[0]), TRACE_CSV_BLOCK):
        iterations, *values = (column[start:start + TRACE_CSV_BLOCK].tolist() for column in columns)
        yield "".join([f"{iteration},{field},{value!r}\n"
                       for iteration, row in zip(iterations, zip(*values)) for field, value in zip(fields, row)])


def _write_sidecar(path: str, config: ExperimentConfig, info: dict) -> None:
    payload = {"config": asdict(config), **info}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@functools.cache
def _openblas_threads():
    """The (set, get) thread-count functions of numpy's bundled OpenBLAS, or None where none is found."""
    numpy_dir = os.path.dirname(np.__file__)
    for path in sorted(glob.glob(os.path.join(numpy_dir, os.pardir, "numpy.libs", "*openblas*"))
                       + glob.glob(os.path.join(numpy_dir, ".dylibs", "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)  # the library numpy has loaded, so the same handle
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                setter = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if setter is not None:
                    getter = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    return setter, getter
    return None


def _pin_blas_threads() -> bool:
    """Run numpy's BLAS on one thread in this process; returns False where the count cannot be set.

    The logistic model's matrix products change their last bits with the
    OpenBLAS thread count, so without the pin a CLI trace would depend on the
    host's CPU count. The library's ``run`` never pins.
    """
    threads = _openblas_threads()
    if threads is not None:
        threads[0](1)
    return threads is not None


def _versions() -> dict:
    """What the trace bytes depend on: the package and numpy versions, numpy's BLAS build, its thread
    count and the CPU features numpy dispatches on; ``blas``, ``blas_threads`` and ``cpu_features``
    are None where they cannot be found."""
    try:
        build = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its build configuration
        build = {}
    blas = build.get("Build Dependencies", {}).get("blas", {})
    features = build.get("SIMD Extensions", {}).get("found")
    threads = _openblas_threads()
    return {"particle_em": __version__, "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}" if blas.get("name") and blas.get("version") else None,
            "blas_threads": None if threads is None else int(threads[1]()),
            "cpu_features": None if features is None else list(features)}


def execute_run(config: ExperimentConfig) -> tuple[Trace, dict]:
    """Run one experiment in memory; returns (trace, run info).

    A diverged run returns the partial trace with ``diverged`` set in the
    info dict instead of raising.
    """
    data_seed = derive_seed(config.seed, 0)
    run_seed = derive_seed(config.seed, 1, config.run_index)
    model, extras = _build_model(config, data_seed)
    run_config = config.run_config(seed=run_seed, metric_hooks=_metric_hooks(config, model, extras))
    info = {
        "master_seed": config.seed,
        "run_seed": run_seed,
        "data_seed": data_seed,
        "diverged": False,
        "diverged_at": None,
        "versions": _versions(),
    }
    if extras.get("node_labels"):
        info["node_labels"] = extras["node_labels"]
    started = time.perf_counter()
    try:
        trace = run(config.algorithm, model, run_config)
    except DivergedError as err:
        logger.warning("run %s diverged at iteration %s", config.resolved_name(), err.iteration)
        trace = err.trace
        info["diverged"] = True
        info["diverged_at"] = err.iteration
    info["wall_clock_s"] = time.perf_counter() - started
    info["final_theta"] = [float(v) for v in trace.final_theta]  # the last completed step, as in dump
    return trace, info


def _run_single(config: ExperimentConfig) -> tuple[float, bool]:
    """Execute one run and write its trace and sidecar files.

    Returns (final value of the sweep metric, diverged flag); the metric is
    ``inf`` for diverged runs.
    """
    trace, info = execute_run(config)
    base = os.path.join(config.output_dir, config.resolved_name())
    _write_trace_csv(base + ".csv", trace)  # first: it creates the output directory
    _write_sidecar(base + ".json", config, info)
    if info["diverged"]:
        return float("inf"), True
    return float(trace.metric_values(_summary_metric(config))[1][-1]), False


def _sweep_point(config: ExperimentConfig) -> float:
    """Worker entry: run one grid point; returns its summary metric."""
    return _run_single(config)[0]


def _point_configs(config: ExperimentConfig) -> list[ExperimentConfig]:
    points = []
    base = config.resolved_name()
    for k, value in enumerate(config.sweep_values):
        override = {"gamma": float(value)} if config.sweep_param == "gamma" else {"particles": int(value)}
        points.append(replace(config, run_index=k, name=f"{base}_{k:03d}", **override))
    return points


def _worker_count(n_points: int) -> int:
    """Sweep workers: ``PARTICLE_EM_WORKERS`` if set, else one per CPU; at most one per point."""
    text = os.environ.get(WORKERS_ENV, "").strip()
    if not text:
        return min(os.cpu_count() or 1, n_points)
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError([f"{WORKERS_ENV} must be a positive integer, got {text!r}"])
    return min(workers, n_points)


def _check_sweep(config: ExperimentConfig, points: list[ExperimentConfig]) -> None:
    """Raise one ConfigError for every problem some grid point would meet. The run checks and the hooks
    depend on the model and the particle count only, and every point shares the data seed, so one
    model build serves each distinct count; it is dropped on return, before any point runs."""
    summary = _summary_metric(config)
    model, extras = _build_model(config, derive_seed(config.seed, 0))
    problems = []
    for point in {point.particles: point for point in points}.values():
        hooks = _metric_hooks(point, model, extras)
        problems += validate_run(point.algorithm, point.run_config(metric_hooks=hooks), model)
        if summary not in hooks:
            problems.append(f"summary metric {summary!r} is not recorded for model {config.model!r} "
                            f"at {point.particles} particle(s)")
    if problems:
        raise ConfigError(list(dict.fromkeys(problems)))


def run_sweep(config: ExperimentConfig) -> str:
    """Run every grid point and write the summary CSV; returns its path."""
    points = _point_configs(config)
    workers = _worker_count(len(points))
    _check_sweep(config, points)
    if workers <= 1:
        finals = [_sweep_point(point) for point in points]
    else:
        with ProcessPoolExecutor(max_workers=workers, initializer=_pin_blas_threads) as pool:
            finals = list(pool.map(_sweep_point, points))

    summary_path = os.path.join(config.output_dir, config.resolved_name() + "_sweep.csv")
    lines = (_csv_line([repr(float(value)), repr(metric)]) for value, metric in zip(config.sweep_values, finals))
    _write_csv(summary_path, ["sweep_value", "final_metric"], lines)
    return summary_path


def dump_particles(config: ExperimentConfig, at: str = "final") -> str:
    """Run the experiment and write a particle snapshot CSV; returns its path.

    ``at`` selects the snapshot: 'init' for iteration 0 (the run then takes
    no step), 'final' for the last iteration reached (t - 1 on a run that
    diverged at step t). Network snapshots get one row per (particle, node)
    with the node label; other models one row per particle.
    """
    if at not in ("init", "final"):
        raise ConfigError([f"snapshot must be 'init' or 'final', got {at!r}"])
    trace, info = execute_run(replace(config, iters=0) if at == "init" else config)
    cloud, iteration = trace.initial_particles, 0
    if at == "final":  # a diverged run keeps the cloud from before the step that diverged
        cloud = trace.final_particles
        iteration = info["diverged_at"] - 1 if info["diverged"] else trace.final().iteration

    path = os.path.join(config.output_dir, config.resolved_name() + f"_particles_{at}.csv")
    if config.model == "network":
        labels, dim = info["node_labels"], config.embed_dim
        header = ["iteration", "particle", "node", "label"] + [f"c{d}" for d in range(dim)]
        lines = (_csv_line([iteration, i, node, labels[node]] + [repr(float(v)) for v in pos])
                 for i, flat in enumerate(cloud) for node, pos in enumerate(flat.reshape(-1, dim)))
    else:
        header = ["iteration", "particle"] + [f"z{d}" for d in range(cloud.shape[1])]
        lines = (_csv_line([iteration, i] + [repr(float(v)) for v in row]) for i, row in enumerate(cloud))
    _write_csv(path, header, lines)
    return path


# ---------------------------------------------------------------------------
# command line


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--model", help="toy | logreg | network")
    parser.add_argument("--algorithm", help="optimizer name")
    parser.add_argument("--seed", help="master seed")
    parser.add_argument("--gamma", help="learning rate (gamma algorithms only)")
    parser.add_argument("--particles", help="number of particles")
    parser.add_argument("--iters", help="number of iterations")
    parser.add_argument("--record-every", dest="record_every")
    parser.add_argument("--run-index", dest="run_index", help="seed stream index")
    parser.add_argument("--name", help="basename for output files")
    parser.add_argument("--out", dest="output_dir", help="output directory")
    parser.add_argument("--data-path", dest="data_path", help="CSV dataset path (logreg)")
    parser.add_argument("--edgelist-path", dest="edgelist_path", help="edge list path (network)")


def _overrides(args: argparse.Namespace) -> dict:
    skip = {"command", "config", "at"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="particle-em",
        description="Run particle-based maximum-likelihood training experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a single experiment run")
    _add_common_flags(p_run)

    p_sweep = sub.add_parser("sweep", help="run a grid of experiments")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--sweep-param", dest="sweep_param", help="gamma | particles")
    p_sweep.add_argument("--sweep-values", dest="sweep_values", help="comma-separated grid values")
    p_sweep.add_argument("--sweep-metric", dest="sweep_metric", help="summary metric name")

    p_dump = sub.add_parser("dump", help="run and write a particle snapshot")
    _add_common_flags(p_dump)
    p_dump.add_argument("--at", choices=("init", "final"), default="final")

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    if not _pin_blas_threads():
        logger.info("no OpenBLAS thread setter found in numpy; BLAS keeps its own thread count, "
                    "on which the last bits of a trace may depend")

    try:
        keys = read_config_file(args.config) if args.config is not None else {}
        keys.update(_overrides(args))
        if args.command != "sweep":  # run and dump are one run each, whatever sweep keys the file holds
            keys = {key: value for key, value in keys.items() if key not in SWEEP_KEYS}
        config = parse_config(None, keys)
        if args.command == "dump":
            logger.info("particle snapshot written to %s", dump_particles(config, at=args.at))
        elif args.command == "sweep":
            if config.sweep_param is None:
                raise ConfigError(["sweep requires sweep_param and sweep_values"])
            logger.info("sweep summary written to %s", run_sweep(config))
        else:
            metric, diverged = _run_single(config)
            status = "diverged" if diverged else f"final metric {metric!r}"
            logger.info("run %s finished: %s", config.resolved_name(), status)
        return 0
    except ConfigError as err:
        for violation in err.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 2
    except (ParseError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:  # numpy's message names the size it could not allocate
        print(f"error: out of memory: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
