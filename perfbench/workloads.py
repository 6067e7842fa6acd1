"""The benchmark's four workloads: seeded inputs, set-up, one fit pass, checks.

Each workload generates its inputs from the run's seed and hands the package
only files and arrays: an edge list, a CSV table, a config file, or the toy
observations drawn through ``data.generate_toy_data``. Fits go through the
package's public API, always looked up as module attributes at call time
(``algorithms.run``, ``cli.run_sweep``) so that the traced run's wrappers
apply. Where one input gives a reference gap that varies much
between seeds, a run fits ``datasets`` independent inputs and ``ref_gap`` is
their mean (see README.md for the measured spreads).

A workload's methods:

* ``make_input(workdir, seed, k)``: write input k (not timed);
* ``setup(inp, instrument)``: from the input files to the initial state, the
  part timed as ``setup_s``; ``instrument`` wraps a freshly built model for
  the traced run and is the identity otherwise;
* ``fit(state, tracer)``: one pass of the workload's fits, timed as ``fit_s``;
* ``check(inp, state, result)``: one ``(ok, gap, detail)`` per fit.
"""

from __future__ import annotations

import csv
import os
import shutil

import numpy as np

from particle_em import algorithms, cli, config, data, metrics
from particle_em.algorithms import RunConfig
from particle_em.models import (
    BayesianLogisticRegression,
    GaussianHierarchicalModel,
    LatentSpaceNetworkModel,
)


def seed_int(seed: int, k: int, stream: int) -> int:
    """Independent 32-bit seed for stream ``stream`` of input ``k``."""
    return int(np.random.SeedSequence([seed, k, stream]).generate_state(1)[0])


def _sigmoid(u: np.ndarray) -> np.ndarray:
    return np.exp(-np.logaddexp(0.0, -u))


class Workload:
    name = ""
    datasets = 1
    fits_per_pass = 1
    sweep = False

    def before_pass(self, state: dict) -> None:
        """Untimed preparation of a pass."""

    def counters(self, result) -> dict[str, float]:
        """Per-pass counts taken from the fit result rather than from spans."""
        return {}


# ---------------------------------------------------------------------------
# toy-posterior: kernels dominate (N=100, d=1)


class ToyPosterior(Workload):
    """The c02 shape: exact Gaussian posterior with variance 0.5."""

    name = "toy-posterior"
    fits_per_pass = 2
    ALGORITHMS = (("adaptive_coin_em", None), ("svgd_em", 0.1))

    def __init__(self, tiny: bool = False) -> None:
        self.n_particles, self.n_iters = (10, 50) if tiny else (100, 5000)

    def make_input(self, workdir: str, seed: int, k: int) -> dict:
        x, _ = data.generate_toy_data(1, 1.0, seed_int(seed, k, 0))
        return {"x": x, "run_seed": seed_int(seed, k, 1)}

    def setup(self, inp: dict, instrument) -> dict:
        model = instrument(GaussianHierarchicalModel(inp["x"]))
        init = model.default_init(self.n_particles, np.random.default_rng(inp["run_seed"]))
        return {"model": model, "init": init, "seed": inp["run_seed"]}

    def fit(self, state: dict, tracer) -> list:
        out = []
        for algorithm, gamma in self.ALGORITHMS:
            trace = algorithms.run(algorithm, state["model"], RunConfig(
                n_particles=self.n_particles, n_iters=self.n_iters, gamma=gamma,
                seed=state["seed"], record_every=self.n_iters, init=state["init"]))
            out.append((algorithm, trace))
        return out

    def check(self, inp: dict, state: dict, result) -> list:
        theta_star = state["model"].theta_star()
        checks = []
        for algorithm, trace in result:
            var = float(trace.final_particles.var(axis=0, ddof=1).mean())
            theta_err = abs(float(trace.final().theta[0]) - theta_star)
            ok = 0.35 <= var <= 0.65 and theta_err <= 1e-2
            checks.append((ok, abs(var - 0.5) + theta_err,
                           f"{algorithm}: posterior variance {var:.4f}, |theta - theta*| {theta_err:.2e}"))
        return checks


# ---------------------------------------------------------------------------
# network-n50: per-particle model loops dominate (N=10, d_z=100)


class NetworkN50(Workload):
    """Planted two-community graph, read back from an edge-list file."""

    name = "network-n50"
    datasets = 8
    # 0.9/0.1 separates the communities perfectly, so the share below is
    # always 1; at 0.8/0.2 the distance ratio is 0.2 and varies 10% between graphs
    P_WITHIN, P_ACROSS = 0.8, 0.2

    def __init__(self, tiny: bool = False) -> None:
        if tiny:
            self.n_nodes, self.n_particles, self.n_iters, self.record_every = 10, 4, 20, 5
        else:
            self.n_nodes, self.n_particles, self.n_iters, self.record_every = 50, 10, 500, 25

    def make_input(self, workdir: str, seed: int, k: int) -> dict:
        rng = np.random.default_rng(seed_int(seed, k, 0))
        n = self.n_nodes
        community = rng.permutation(np.arange(n) % 2)
        prob = np.where(community[:, None] == community[None, :], self.P_WITHIN, self.P_ACROSS)
        adjacency = np.triu(rng.random((n, n)) < prob, k=1)
        for i in range(n):
            # a node without edges would be missing from the edge list
            if not adjacency[i].any() and not adjacency[:, i].any():
                j = next(j for j in range(n) if j != i and community[j] == community[i])
                adjacency[min(i, j), max(i, j)] = True
        edges = [(f"v{i:02d}", f"v{j:02d}") for i, j in zip(*np.nonzero(adjacency))]
        rng.shuffle(edges)
        path = os.path.join(workdir, f"network-{k}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# planted two-community graph, n={n}\n")
            fh.writelines(f"{u} {v}\n" for u, v in edges)
        names = {f"v{i:02d}": int(c) for i, c in enumerate(community)}
        return {"path": path, "community": names, "run_seed": seed_int(seed, k, 1)}

    def setup(self, inp: dict, instrument) -> dict:
        net = data.load_edgelist(inp["path"])
        model = instrument(LatentSpaceNetworkModel(net.to_adjacency(), embed_dim=2, prior_var_z=1.0))
        init = model.default_init(self.n_particles, np.random.default_rng(inp["run_seed"]))
        # the hook looks the method up per call, so a traced model is traced here too
        hooks = {"mean_log_joint": lambda th, Z: float(np.mean([model.log_joint(th, z) for z in Z]))}
        community = np.array([inp["community"][name] for name in net.node_labels])
        return {"model": model, "init": init, "hooks": hooks, "community": community,
                "seed": inp["run_seed"]}

    def fit(self, state: dict, tracer):
        hooks = tracer.wrap_hooks(state["hooks"]) if tracer is not None else state["hooks"]
        return algorithms.run("adaptive_coin_em", state["model"], RunConfig(
            n_particles=self.n_particles, n_iters=self.n_iters, seed=state["seed"],
            record_every=self.record_every, init=state["init"], metric_hooks=hooks))

    def check(self, inp: dict, state: dict, trace) -> list:
        n = self.n_nodes
        community = state["community"]
        positions = trace.final_particles.mean(axis=0).reshape(n, 2)
        dists = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=2)
        iu = np.triu_indices(n, k=1)
        same = (community[:, None] == community[None, :])[iu]
        within, across = dists[iu][same], dists[iu][~same]
        share = float(np.mean(within[:, None] < across[None, :]))
        ratio = float(within.mean() / across.mean())
        _, log_joint = trace.metric_values("mean_log_joint")
        ok = len(community) == n and share > 0.5 and bool(np.all(np.isfinite(log_joint)))
        return [(ok, ratio, f"within<across share {share:.3f}, "
                            f"mean within/across distance {ratio:.4f}")]


# ---------------------------------------------------------------------------
# logreg-synth: kernels at d=30 plus the BLAS/sigmoid path of the model


class LogregSynth(Workload):
    """Seeded logistic data written as CSV, read back and split 80/20."""

    name = "logreg-synth"
    datasets = 2
    TEST_FRACTION = 0.2
    WEIGHT_NORM = 4.0
    ERROR_MARGIN = 0.10
    MEAN_MARGIN = 0.5

    def __init__(self, tiny: bool = False) -> None:
        if tiny:
            self.rows, self.dim, self.n_particles, self.n_iters, self.record_every = 60, 5, 10, 20, 5
        else:
            self.rows, self.dim, self.n_particles, self.n_iters, self.record_every = 569, 30, 100, 800, 20

    def make_input(self, workdir: str, seed: int, k: int) -> dict:
        rng = np.random.default_rng(seed_int(seed, k, 0))
        d = self.dim
        weights = rng.standard_normal(d) * self.WEIGHT_NORM / np.sqrt(d)
        # raw columns on mixed scales, so the split's normalisation matters
        scale = 10.0 ** rng.uniform(-1.0, 2.0, d)
        offset = rng.uniform(-10.0, 10.0, d)
        features = rng.standard_normal((self.rows, d))
        labels = (rng.random(self.rows) < _sigmoid(features @ weights)).astype(int)
        path = os.path.join(workdir, f"logreg-{k}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([f"f{j:02d}" for j in range(d)] + ["label"])
            for row, label in zip(features * scale + offset, labels):
                writer.writerow([repr(float(v)) for v in row] + [str(label)])
        return {
            "path": path, "weights": weights, "scale": scale, "offset": offset,
            "split_seed": seed_int(seed, k, 1), "run_seed": seed_int(seed, k, 2),
        }

    def setup(self, inp: dict, instrument) -> dict:
        dataset = data.load_csv(inp["path"], label_column="label", positive_label="1")
        train, test = data.train_test_split(dataset, self.TEST_FRACTION, inp["split_seed"])
        model = instrument(BayesianLogisticRegression(train.X, train.y, prior_var=5.0))
        init = model.default_init(self.n_particles, np.random.default_rng(inp["run_seed"]))
        hooks = {"test_error": lambda th, Z: metrics.test_error(model.predict(Z, test.X), test.y)}
        return {"model": model, "init": init, "hooks": hooks, "train": train, "test": test,
                "seed": inp["run_seed"]}

    def fit(self, state: dict, tracer):
        hooks = tracer.wrap_hooks(state["hooks"]) if tracer is not None else state["hooks"]
        return algorithms.run("adaptive_coin_em", state["model"], RunConfig(
            n_particles=self.n_particles, n_iters=self.n_iters, seed=state["seed"],
            record_every=self.record_every, init=state["init"], metric_hooks=hooks))

    def check(self, inp: dict, state: dict, trace) -> list:
        model, train, test = state["model"], state["train"], state["test"]
        particles = trace.final_particles
        fit_error = float(np.mean(model.predict(particles, test.X) != test.y))
        true_features = (test.denormalized() - inp["offset"]) / inp["scale"]
        true_error = float(np.mean((true_features @ inp["weights"] >= 0).astype(int) != test.y))
        mode, precision = laplace_posterior(train.X, train.y, model.prior_var)
        # mean error and spread of the cloud, both in units of the Laplace posterior
        offset = particles.mean(axis=0) - mode
        mean_err = float(np.sqrt(offset @ precision @ offset / offset.size))
        spread = float(np.trace(precision @ np.cov(particles, rowvar=False)) / offset.size)
        gap = mean_err + abs(1.0 - spread)
        ok = fit_error <= true_error + self.ERROR_MARGIN and mean_err <= self.MEAN_MARGIN
        return [(ok, gap, f"test error {fit_error:.4f} vs generating weights {true_error:.4f} "
                          f"(margin {self.ERROR_MARGIN}); mean error {mean_err:.4f} posterior sd "
                          f"(margin {self.MEAN_MARGIN}), spread {spread:.4f} of the Laplace variance")]


def laplace_posterior(X: np.ndarray, y: np.ndarray, prior_var: float, iters: int = 50):
    """Laplace approximation N(mode, precision^-1) of the weight posterior.

    The mode is the joint mode of (w, theta) under the prior
    N(theta * 1, prior_var * I), found by Newton steps on w with theta set to
    mean(w), its maximiser for fixed w. It is the reference for ``ref_gap``:
    unlike the generating weights it carries the same training sample as the
    fit, so the gap measures the fit and not the sampling noise of 455 rows.
    """
    def precision(w):
        p = _sigmoid(X @ w)
        return (X.T * (p * (1.0 - p))) @ X + np.eye(w.size) / prior_var

    w = np.zeros(X.shape[1])
    theta = 0.0
    for _ in range(iters):
        grad = X.T @ (y - _sigmoid(X @ w)) - (w - theta) / prior_var
        w = w + np.linalg.solve(precision(w), grad)
        theta = float(w.mean())
    return w, precision(w)


# ---------------------------------------------------------------------------
# pgd-sweep: run loop, hooks, CLI process pool and file writing; no kernels


class PgdSweep(Workload):
    """``cli.run_sweep`` over the learning-rate grid of configs/toy_pgd_sweep.cfg."""

    name = "pgd-sweep"
    sweep = True
    MSE_TOLERANCE = 1e-2

    def __init__(self, tiny: bool = False) -> None:
        self.gammas = np.logspace(-5.0, 3.0, 5 if tiny else 50)
        self.toy_dim, self.n_particles, self.n_iters = (10, 4, 20) if tiny else (100, 10, 500)

    def make_input(self, workdir: str, seed: int, k: int) -> dict:
        out = os.path.join(workdir, f"sweep-{k}")
        path = os.path.join(workdir, f"sweep-{k}.cfg")
        lines = {
            "model": "toy", "algorithm": "pgd", "particles": self.n_particles,
            "iters": self.n_iters, "seed": seed_int(seed, k, 0), "toy_dim": self.toy_dim,
            "record_every": 1, "output_dir": out, "sweep_param": "gamma",
            "sweep_values": ",".join(repr(float(g)) for g in self.gammas),
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{key} = {value}\n" for key, value in lines.items())
        return {"path": path, "out": out}

    def setup(self, inp: dict, instrument) -> dict:
        return {"config": config.parse_config(inp["path"], {}), "out": inp["out"]}

    def before_pass(self, state: dict) -> None:
        shutil.rmtree(state["out"], ignore_errors=True)

    def fit(self, state: dict, tracer) -> dict:
        summary = cli.run_sweep(state["config"])
        with open(summary, newline="", encoding="utf-8") as fh:
            finals = [float(row["final_metric"]) for row in csv.DictReader(fh)]
        written = sum(entry.stat().st_size for entry in os.scandir(state["out"]))
        return {"finals": np.array(finals), "bytes_written": written}

    def check(self, inp: dict, state: dict, result) -> list:
        finals = result["finals"]
        diverged = int(np.sum(np.isinf(finals)))
        best = float(finals.min()) if finals.size else float("inf")
        miss = float(np.mean(~(finals <= self.MSE_TOLERANCE))) if finals.size else 1.0
        ok = finals.size == self.gammas.size and diverged >= 1 and best <= self.MSE_TOLERANCE
        return [(ok, miss, f"{finals.size} summary rows, {diverged} diverged, "
                           f"best theta_mse {best:.3e}, share missing {self.MSE_TOLERANCE}: {miss:.3f}")]

    def counters(self, result) -> dict[str, float]:
        return {"cli.bytes_written": float(result["bytes_written"]),
                "cli.sweep.diverged_points": float(np.sum(np.isinf(result["finals"])))}


WORKLOADS = {w.name: w for w in (ToyPosterior, NetworkN50, LogregSynth, PgdSweep)}
