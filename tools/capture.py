"""Compare what two versions of the package compute, array for array and file for file.

    python3 tools/capture.py <parent-ref> [--change <ref>] [--tiny]

Extracts <parent-ref> with ``git archive`` into a temporary directory and runs
one fixed capture set on it and on the working tree (or on ``--change <ref>``,
extracted the same way). Each tree runs in its own interpreter with its own
``src/`` on the path. The capture set:

- golden: every case of ``tests/test_golden.py``;
- kernels: the five kernel functions on seeded clouds of the shapes in
  ``KERNEL_SHAPES``, each function that takes ``pair_sq`` with and without it,
  at the median-heuristic bandwidth, and ``pair_sq_dists`` with a grown
  scratch at (100, 30);
- models: each model's cloud methods called directly (``grad_theta``,
  ``grad_z``, ``mean_grad_theta``, the toy ``marginal_mstep`` and the
  logistic ``predict_proba``) on seeded clouds of ``MODEL_SIZES`` particles,
  for the toy, network and logreg models of the groups below;
- toy: N=100 particles, d=10, all six algorithms; and ``pgd`` recording
  every iteration with the hooks of ``SPECIAL_HOOKS``, which return -0.0,
  inf and nan, so the trace's columns carry special values both ways;
- network: four algorithms from the model's ``default_init`` on
  ``configs/network_edges.txt``, plus the ``bnn`` and old-theta variants of
  ``adaptive_coin_em``; and ``pgd`` and old-theta ``adaptive_coin_em`` on a
  second model of that graph with ``embed_dim=3``, no latent prior and
  ``link_sign=+1``;
- logreg: the library's logistic model on seeded 455x30 data at N=100, the
  shape of the benchmark's ``logreg-synth`` fit, under ``svgd_em``,
  ``adaptive_coin_em``, its old-theta variant and ``pgd``;
- cli: the trace CSVs (and sweep summaries) of the c10 command, of every
  ``configs/*.cfg`` (``sweep`` for a config that sets ``sweep_param``, else
  ``run``), of a small particles sweep, of ``run`` on grid point 7 of
  ``configs/toy_pgd_sweep.cfg`` and, recording every iteration, on its
  diverging grid point 35, and of a one-particle toy ``pgd`` run recording
  every iteration, and of ``run`` on ``configs/network_coin.cfg`` with
  ``link_sign = plus``; a logreg config reads a seeded synthetic CSV
  in place of the clinical file the repository does not ship; and the
  particle snapshots of ``dump --at init`` and ``--at final`` on the toy and
  network configs, and of ``dump --at init`` on the network config with a
  labels file whose labels the snapshot CSV must quote.

Each library run keeps every record's iteration, theta, particle mean and
metrics, the initial particles, the final theta and particles, and the
divergence iteration and message. The CLI's CSV files are compared byte for
byte and its JSON sidecars as parsed JSON, without ``wall_clock_s`` and with
each tree's own output directory replaced by one placeholder in every path.
Prints each array or file that differs, with its largest relative change,
then a count per group. Exits 0 when nothing differs, 1 otherwise.
``--tiny`` cuts the iteration counts, for the smoke test.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import io
import json
import logging
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from trees import ROOT, trees

ALL = ("svgd_em", "coin_em", "adaptive_coin_em", "marginal_svgd_em", "marginal_coin_em", "pgd")
GAMMA = {"svgd_em": 0.01, "marginal_svgd_em": 0.01, "pgd": 0.01}
C10 = ["run", "--model", "toy", "--algorithm", "adaptive_coin_em", "--particles", "5",
       "--iters", "50", "--seed", "10", "--name", "det"]
PARTICLES_SWEEP = ["sweep", "--model", "toy", "--algorithm", "adaptive_coin_em", "--seed", "4",
                   "--sweep-param", "particles", "--sweep-values", "2,5,10", "--iters", "20"]
GROUPS = ("golden", "kernels", "models", "toy", "network", "logreg", "cli")
#: (N, d) of the kernels group's clouds: one particle, one pair, rows past a chunk of 8192 values, and a
#: (300, 1) cloud whose (N, N) kernel, at 720 KB, is past the 128 KB mmap threshold
KERNEL_SHAPES = ((1, 1), (2, 1), (3, 2), (100, 1), (300, 1), (100, 30), (2, 9000), (9, 8193))
#: N of the models group's clouds: one particle, one pair, and a small cloud
MODEL_SIZES = (1, 2, 10)
#: metric hooks that return the special values a trace must keep bit for bit, as a float or a numpy scalar
SPECIAL_HOOKS = {"neg_zero": lambda th, Z: -0.0, "inf": lambda th, Z: np.float64(np.inf),
                 "nan": lambda th, Z: float("nan")}


# ---------------------------------------------------------------------------
# one tree, in its own interpreter


def _capture_run(arrays: dict, key: str, algorithm: str, model, config) -> None:
    from particle_em.algorithms import run
    from particle_em.exceptions import DivergedError

    try:
        trace, diverged = run(algorithm, model, config), ""
    except DivergedError as err:
        trace, diverged = err.trace, f"{err.iteration}: {err}"
    records = trace.records
    arrays[f"{key}/iteration"] = trace.iterations()
    arrays[f"{key}/theta"] = np.array([r.theta for r in records])
    arrays[f"{key}/particle_mean"] = np.array([r.particle_mean for r in records])
    for name in records[0].metrics:
        arrays[f"{key}/metric/{name}"] = np.array([r.metrics[name] for r in records])
    arrays[f"{key}/initial_particles"] = trace.initial_particles
    arrays[f"{key}/final_theta"] = trace.final_theta
    arrays[f"{key}/final_particles"] = trace.final_particles
    arrays[f"{key}/diverged"] = np.array(diverged)


def _capture_kernels(arrays: dict) -> None:
    from particle_em import kernels
    from particle_em.scratch import Scratch

    for n, d in KERNEL_SHAPES:
        rng = np.random.default_rng(n * d)
        z, grads = rng.standard_normal((n, d)), rng.standard_normal((n, d))
        key, pair_sq = f"kernels/{n}x{d}", kernels.pair_sq_dists(z)
        arrays[f"{key}/pair_sq_dists"] = pair_sq
        arrays[f"{key}/pairwise_sq_dists"] = kernels.pairwise_sq_dists(z)
        for given, keyword in (("", {}), ("/pair_sq", {"pair_sq": pair_sq})):
            h = kernels.median_heuristic(z, **keyword)
            arrays[f"{key}/median_heuristic{given}"] = np.array(h)
            arrays[f"{key}/rbf_matrix{given}"] = kernels.rbf_matrix(z, h, **keyword)
            arrays[f"{key}/stein_direction{given}"] = kernels.stein_direction(z, grads, h, **keyword)
        if (n, d) == (100, 30):  # seven chunks of rows in the halves of the logistic model's slot 0 at N = 100
            scratch = Scratch()
            scratch.take(0, 100 * 455)
            arrays[f"{key}/pair_sq_dists/scratch"] = kernels.pair_sq_dists(z, scratch)


def _capture_models(arrays: dict, models: dict) -> None:
    for name, model in models.items():
        for n in MODEL_SIZES:
            rng = np.random.default_rng(n)
            theta, z = rng.standard_normal(1), rng.standard_normal((n, model.d_z))
            key = f"models/{name}/{n}"
            arrays[f"{key}/grad_theta"] = model.grad_theta(theta, z)
            arrays[f"{key}/grad_z"] = model.grad_z(theta, z)
            arrays[f"{key}/mean_grad_theta"] = model.mean_grad_theta(theta, z)
            if name == "toy":
                arrays[f"{key}/marginal_mstep"] = model.marginal_mstep(z)
            if name == "logreg":
                arrays[f"{key}/predict_proba"] = model.predict_proba(z, model.X)


def _synthetic_logreg_csv(path: Path, label_column: str, positive_label: str) -> None:
    rng = np.random.default_rng(17)
    X = rng.standard_normal((300, 9))
    positive = rng.random(300) < 1.0 / (1.0 + np.exp(-X @ rng.standard_normal(9)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"f{k}" for k in range(9)] + [label_column])
        for row, pos in zip(X, positive):
            writer.writerow([repr(float(v)) for v in row] + [positive_label if pos else "0"])


def _cli_commands(out: Path, tiny: bool) -> dict[str, list[str]]:
    from particle_em.config import read_config_file

    commands = {"c10": list(C10), "particles_sweep": list(PARTICLES_SWEEP)}
    for cfg in sorted(Path("configs").glob("*.cfg")):
        keys = read_config_file(str(cfg))
        args = ["sweep" if "sweep_param" in keys else "run", "--config", str(cfg)]
        if keys.get("model") == "logreg":
            data = out / f"{cfg.stem}-data.csv"
            _synthetic_logreg_csv(data, keys.get("label_column", "label"), keys.get("positive_label", "1"))
            args += ["--data-path", str(data)]
        commands[cfg.stem] = args
    for stem in ("toy_coin", "network_coin"):
        for at in ("init", "final"):
            commands[f"dump_{stem}_{at}"] = ["dump", "--config", f"configs/{stem}.cfg", "--at", at]
    sweep_cfg = "configs/toy_pgd_sweep.cfg"
    gammas = read_config_file(sweep_cfg)["sweep_values"].split(",")
    commands["toy_pgd_sweep_point"] = ["run", "--config", sweep_cfg, "--gamma", gammas[7], "--run-index", "7",
                                       "--name", "toy_pgd_007"]
    # every record of a run whose cloud overflows to inf on the way to divergence (at step 114)
    commands["toy_pgd_sweep_diverging"] = ["run", "--config", sweep_cfg, "--gamma", gammas[35], "--run-index",
                                           "35", "--record-every", "1", "--name", "toy_pgd_035"]
    # the network config with link_sign = plus, the one CLI run of the 'plus' spelling
    plus = out / "network_plus.cfg"
    plus.write_text(Path("configs/network_coin.cfg").read_text(encoding="utf-8") + "link_sign = plus\n",
                    encoding="utf-8")
    commands["network_plus"] = ["run", "--config", str(plus), "--iters", "100", "--name", "network_plus"]
    # node labels holding the characters the snapshot CSV quotes on, inner spaces and non-ASCII text
    labels = out / "network_labels.txt"
    labels.write_text('v00 Smith, J.\nv01 the "hub"\nv02 São  Paulo — 東京\nv03 "," ,""\n', encoding="utf-8")
    labelled = out / "network_labelled.cfg"
    labelled.write_text(Path("configs/network_coin.cfg").read_text(encoding="utf-8") + f"labels_path = {labels}\n",
                        encoding="utf-8")
    commands["dump_network_labelled"] = ["dump", "--config", str(labelled), "--at", "init",
                                         "--name", "network_labelled"]
    # one particle: the toy hooks without posterior_var
    commands["toy_pgd_one_particle"] = ["run", "--model", "toy", "--algorithm", "pgd", "--gamma", "0.01",
                                        "--particles", "1", "--iters", "100", "--record-every", "1", "--seed", "6"]
    extra = ["--iters", "5"] if tiny else []
    return {label: args + extra + ["--out", str(out / "cli" / label)] for label, args in commands.items()}


def emit(out: Path, tiny: bool) -> None:
    """Run the capture set on the package on ``sys.path``; write ``arrays.npz`` and ``cli/`` to ``out``."""
    from particle_em import cli
    from particle_em.algorithms import RunConfig
    from particle_em.data import generate_toy_data, load_edgelist
    from particle_em.models import BayesianLogisticRegression, GaussianHierarchicalModel, LatentSpaceNetworkModel

    spec = importlib.util.spec_from_file_location("golden_cases", ROOT / "tests" / "test_golden.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    arrays: dict[str, np.ndarray] = {}

    built = {name: build() for name, (build, _) in golden.MODELS.items()}
    for case_id, model_name, config in golden.CASES:
        _capture_run(arrays, f"golden/{case_id}", case_id.split("/")[1], built[model_name], config)
    _capture_kernels(arrays)

    iters, every = (10, 5) if tiny else (200, 10)
    toy = GaussianHierarchicalModel(generate_toy_data(10, 1.0, 5)[0])
    for algorithm in ALL:
        config = RunConfig(n_particles=100, n_iters=iters, gamma=GAMMA.get(algorithm), seed=1, record_every=every)
        _capture_run(arrays, f"toy/{algorithm}", algorithm, toy, config)
    config = RunConfig(n_particles=10, n_iters=iters, gamma=GAMMA["pgd"], seed=1, metric_hooks=SPECIAL_HOOKS)
    _capture_run(arrays, "toy/pgd-special-hooks", "pgd", toy, config)

    iters, every = (5, 1) if tiny else (100, 10)
    network = LatentSpaceNetworkModel(load_edgelist("configs/network_edges.txt").to_adjacency(), embed_dim=2)
    runs = {a: (a, {}) for a in ("svgd_em", "coin_em", "adaptive_coin_em", "pgd")}
    runs["adaptive_coin_em-bnn"] = ("adaptive_coin_em", {"adaptive_denominator": "bnn"})
    runs["adaptive_coin_em-old_theta"] = ("adaptive_coin_em", {"particle_grads_use_new_theta": False})
    for key, (algorithm, variant) in runs.items():
        config = RunConfig(n_particles=10, n_iters=iters, gamma=GAMMA.get(algorithm), seed=2,
                           record_every=every, **variant)
        _capture_run(arrays, f"network/{key}", algorithm, network, config)
    # the other branches of the network model's per-position helpers: e = 3, no prior, link +1
    models = {"toy": toy, "network": network}
    network = LatentSpaceNetworkModel(network.Y, embed_dim=3, prior_var_z=np.inf, link_sign=1.0)
    models["network-e3-inf-plus"] = network
    for key in ("pgd", "adaptive_coin_em-old_theta"):
        algorithm, variant = runs[key]
        config = RunConfig(n_particles=10, n_iters=iters, gamma=GAMMA.get(algorithm), seed=3,
                           record_every=every, **variant)
        _capture_run(arrays, f"network/e3-inf-plus/{key}", algorithm, network, config)

    iters, every = (10, 5) if tiny else (200, 10)
    rng = np.random.default_rng(455)
    X = rng.standard_normal((455, 30))
    y = (rng.random(455) < 1.0 / (1.0 + np.exp(-0.5 * X @ rng.standard_normal(30)))).astype(float)
    logreg = BayesianLogisticRegression(X, y)
    for key in ("svgd_em", "adaptive_coin_em", "adaptive_coin_em-old_theta", "pgd"):
        algorithm, variant = runs[key]
        config = RunConfig(n_particles=100, n_iters=iters, gamma=GAMMA.get(algorithm), seed=4,
                           record_every=every, **variant)
        _capture_run(arrays, f"logreg/{key}", algorithm, logreg, config)
    _capture_models(arrays, {**models, "logreg": logreg})

    os.environ["PARTICLE_EM_WORKERS"] = "1"
    logging.getLogger().addHandler(logging.NullHandler())  # the CLI's log lines name paths and times
    out.mkdir(parents=True)
    for label, args in _cli_commands(out, tiny).items():
        printed = io.StringIO()
        with redirect_stdout(printed), redirect_stderr(printed):
            arrays[f"cli/{label}/exit"] = np.array(cli.main(args))
        arrays[f"cli/{label}/printed"] = np.array(printed.getvalue())

    np.savez(out / "arrays.npz", **arrays)


# ---------------------------------------------------------------------------
# both trees


def _run_tree(tree: Path, out: Path, tiny: bool) -> None:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--emit", str(out)]
                          + (["--tiny"] if tiny else []), cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"capture failed in {tree}:\n{proc.stderr[-3000:]}")


def _max_rel(a: np.ndarray, b: np.ndarray) -> str:
    if a.shape != b.shape:
        return f"shape {a.shape} vs {b.shape}"
    if a.dtype.kind != "f" or b.dtype.kind != "f":
        return f"{a.dtype} {a.tolist()!r:.60} vs {b.dtype} {b.tolist()!r:.60}"
    with np.errstate(all="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    rel = rel[np.isfinite(rel)]
    return f"max relative change {rel.max():.2g}" if rel.size else "non-finite entries"


def _sidecar(path: Path, out: Path) -> str:
    """A CLI sidecar parsed and written back in one form (a nan equals a nan), without its wall-clock
    time and with ``out`` in any path as '<out>'."""
    def clean(value):
        if isinstance(value, dict):
            return {k: clean(v) for k, v in value.items() if k != "wall_clock_s"}
        if isinstance(value, list):
            return [clean(v) for v in value]
        return value.replace(str(out), "<out>") if isinstance(value, str) else value

    return json.dumps(clean(json.loads(path.read_text(encoding="utf-8"))), sort_keys=True)


def compare(parent: Path, change: Path) -> tuple[list[str], dict[str, list[int]]]:
    """(one line per difference, {group: [compared, differ]})."""
    lines, counts = [], {g: [0, 0] for g in GROUPS}
    with np.load(parent / "arrays.npz") as pa, np.load(change / "arrays.npz") as ch:
        parent_keys, change_keys = set(pa.files), set(ch.files)
        for key in sorted(parent_keys | change_keys):
            group = counts[key.split("/")[0]]
            group[0] += 1
            if key not in parent_keys or key not in change_keys:
                note = "missing in " + ("parent" if key not in parent_keys else "change")
            else:
                a, b = pa[key], ch[key]
                if a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes():
                    continue
                note = _max_rel(a, b)
            group[1] += 1
            lines.append(f"differs  {key}: {note}")
    files = {p.relative_to(side / "cli") for side in (parent, change) for pattern in ("*.csv", "*.json")
             for p in (side / "cli").rglob(pattern)}
    for name in sorted(files):
        counts["cli"][0] += 1
        a, b = parent / "cli" / name, change / "cli" / name
        if a.exists() and b.exists():
            if name.suffix == ".json" and _sidecar(a, parent) == _sidecar(b, change):
                continue
            if name.suffix == ".csv" and a.read_bytes() == b.read_bytes():
                continue
        counts["cli"][1] += 1
        lines.append(f"differs  cli file {name}" + ("" if a.exists() and b.exists() else ": missing on one side"))
    return lines, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", help="git ref of the parent, e.g. HEAD~")
    parser.add_argument("--change", help="git ref to compare in place of the working tree")
    parser.add_argument("--tiny", action="store_true", help="short runs, for the smoke test")
    parser.add_argument("--emit", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit(Path(args.emit), args.tiny)
        return 0
    if args.parent is None:
        parser.error("the parent ref is required")

    with tempfile.TemporaryDirectory(prefix="capture-") as tmp:
        tmp = Path(tmp)
        sides = trees(args.parent, args.change, tmp)
        for side, (tree, _) in sides.items():
            _run_tree(tree, tmp / f"out-{side}", args.tiny)
        lines, counts = compare(tmp / "out-parent", tmp / "out-change")
    print(f"# parent {sides['parent'][1]}  vs  change {sides['change'][1]}" + ("  (tiny)" if args.tiny else ""))
    for line in lines:
        print(line)
    for group, (compared, differ) in counts.items():
        print(f"{group:8s} {compared:5d} compared, {differ:5d} differ")
    total = sum(d for _, d in counts.values())
    print(f"total    {sum(c for c, _ in counts.values()):5d} compared, {total:5d} differ")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
