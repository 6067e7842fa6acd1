"""Release acceptance suite.

One test per acceptance criterion, each asserting its stated tolerance and
printing a PASS/FAIL line. Run with::

    pytest tests/test_acceptance.py -v -s

The predictive-quality criterion runs against the canonical Wisconsin
breast-cancer CSV when available (tests/data/wisconsin.csv, or the
WISCONSIN_CSV environment variable; see README for how to fetch it), on
scikit-learn's copy of the breast-cancer data when scikit-learn is installed,
and always on a seeded synthetic logistic CSV written by the test, all with
identical protocol and tolerances.
"""

import csv
import os
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from particle_em import (
    BayesianLogisticRegression,
    GaussianHierarchicalModel,
    LatentSpaceNetworkModel,
    RunConfig,
    run,
)
from particle_em.algorithms import State, adaptive_coin_em_step, coin_em_step
from particle_em.cli import main, run_sweep
from particle_em.config import parse_config
from particle_em.data import generate_toy_data, load_csv, train_test_split
from particle_em.kernels import stein_direction
from particle_em.metrics import procrustes_align
from particle_em.metrics import test_error as error_rate
from particle_em.models import sigmoid
from helpers import (
    ConstantGradientModel,
    assert_gradients_match_fd,
    fd_grad_theta,
    fd_grad_z,
    max_rel_err,
    planted_two_community_network,
    stein_naive,
)

WISCONSIN_CSV = os.environ.get(
    "WISCONSIN_CSV", os.path.join(os.path.dirname(__file__), "data", "wisconsin.csv")
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_c01_toy_convergence():
    x, _ = generate_toy_data(100, 1.0, 20)
    model = GaussianHierarchicalModel(x)
    started = time.perf_counter()
    trace = run(
        "adaptive_coin_em",
        model,
        RunConfig(n_particles=10, n_iters=500, seed=21, record_every=500),
    )
    elapsed = time.perf_counter() - started
    sq_err = float((trace.final().theta[0] - model.theta_star()) ** 2)
    report(
        "criterion 1 (toy convergence)",
        sq_err <= 1e-2 and elapsed <= 30.0,
        f"squared error {sq_err:.2e} (<= 1e-2), runtime {elapsed:.2f}s (<= 30s)",
    )


def test_c02_posterior_variance():
    results = {}
    for algorithm, gamma in (("adaptive_coin_em", None), ("svgd_em", 0.1)):
        variances = []
        for seed in range(5):
            x, _ = generate_toy_data(1, 1.0, seed)
            model = GaussianHierarchicalModel(x)
            trace = run(
                algorithm,
                model,
                RunConfig(n_particles=100, n_iters=5000, gamma=gamma, seed=50 + seed, record_every=5000),
            )
            variances.append(float(trace.final_particles.var(ddof=1)))
        results[algorithm] = float(np.mean(variances))
    ok = all(0.35 <= v <= 0.65 for v in results.values())
    report(
        "criterion 2 (posterior variance vs exact 0.5)",
        ok,
        ", ".join(f"{alg} mean variance {v:.3f} (in [0.35, 0.65])" for alg, v in results.items()),
    )


def test_c03_svgd_gradient_decay():
    # theta dynamics are stable only for gamma * d_z < 2, so d_z = 1 here
    x, _ = generate_toy_data(1, 1.0, 7)
    model = GaussianHierarchicalModel(x)
    hooks = {"grad_norm": lambda th, Z: float(np.linalg.norm(model.mean_grad_theta(th, Z)))}
    trace = run(
        "svgd_em",
        model,
        RunConfig(n_particles=20, n_iters=500, gamma=0.05, seed=3, record_every=500, metric_hooks=hooks),
    )
    g0 = trace.records[0].metrics["grad_norm"]
    gT = trace.records[-1].metrics["grad_norm"]
    report(
        "criterion 3 (gradient-norm decay)",
        gT < 0.10 * g0,
        f"norm fell from {g0:.4f} to {gT:.6f} ({gT / g0:.2%} < 10%)",
    )


def _map_predictor_error(train, test):
    """Independent oracle: joint MAP fit by deterministic quasi-Newton ascent."""
    model = BayesianLogisticRegression(train.X, train.y, prior_var=5.0)

    def negative_log_joint(w):
        return -model.log_joint(w[:1], w[1:])

    def negative_grad(w):
        gt = model.grad_theta(w[:1], w[1:][None, :])[0]
        gz = model.grad_z(w[:1], w[1:][None, :])[0]
        return -np.concatenate([gt, gz])

    result = minimize(
        negative_log_joint,
        np.zeros(train.d + 1),
        jac=negative_grad,
        method="L-BFGS-B",
        options={"maxiter": 5000, "ftol": 1e-14, "gtol": 1e-10},
    )
    z_map = result.x[1:]
    predictions = (sigmoid(test.X @ z_map) >= 0.5).astype(int)
    return error_rate(predictions, test.y)


def _logistic_protocol(dataset, label):
    errors, oracle_errors = [], []
    for split_seed in range(5):
        train, test = train_test_split(dataset, 0.2, split_seed)
        model = BayesianLogisticRegression(train.X, train.y, prior_var=5.0)
        trace = run(
            "adaptive_coin_em",
            model,
            RunConfig(n_particles=100, n_iters=800, seed=split_seed, record_every=800),
        )
        predictions = model.predict(trace.final_particles, test.X)
        errors.append(error_rate(predictions, test.y))
        oracle_errors.append(_map_predictor_error(train, test))
    mean_err = float(np.mean(errors))
    mean_oracle = float(np.mean(oracle_errors))
    gap = abs(mean_err - mean_oracle)
    report(
        f"criterion 4 (predictive quality, {label})",
        gap <= 0.02 and mean_err <= 0.10,
        f"test error {mean_err:.4f} (<= 0.10), MAP-oracle gap {gap:.4f} (<= 0.02)",
    )


@pytest.mark.skipif(
    not os.path.exists(WISCONSIN_CSV),
    reason="canonical Wisconsin CSV not present; see README for the fetch command",
)
def test_c04_logreg_predictive_quality_wisconsin():
    dataset = load_csv(WISCONSIN_CSV, "class", "4")
    assert (dataset.n, dataset.d) == (683, 9)
    _logistic_protocol(dataset, "wisconsin")


def test_c04_logreg_predictive_quality_standin(tmp_path):
    # identical protocol and tolerances on locally available clinical data
    sklearn_datasets = pytest.importorskip("sklearn.datasets")
    bunch = sklearn_datasets.load_breast_cancer()
    path = tmp_path / "standin.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"f{i}" for i in range(bunch.data.shape[1])] + ["label"])
        for row, lab in zip(bunch.data, bunch.target):
            writer.writerow([repr(float(v)) for v in row] + [str(int(lab))])
    dataset = load_csv(str(path), "label", "1")
    _logistic_protocol(dataset, "stand-in data")


def test_c04_logreg_predictive_quality_synthetic(tmp_path):
    # identical protocol and tolerances on seeded logistic data that needs no download:
    # 400 standard-normal 9-feature rows, labels ~ Bernoulli(sigmoid(x.w)) with ||w|| = 12
    rng = np.random.default_rng(4)
    X = rng.standard_normal((400, 9))
    w = rng.standard_normal(9)
    w *= 12.0 / np.linalg.norm(w)
    y = (rng.random(400) < sigmoid(X @ w)).astype(int)
    path = tmp_path / "synthetic.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{i}" for i in range(9)] + ["label"])
        for row, lab in zip(X, y):
            writer.writerow([repr(float(v)) for v in row] + [str(lab)])
    dataset = load_csv(str(path), "label", "1")
    assert (dataset.n, dataset.d) == (400, 9)
    _logistic_protocol(dataset, "synthetic data")


def test_c05_learning_rate_sensitivity(tmp_path):
    sweep_cfg = parse_config(None, {
        "model": "toy",
        "algorithm": "pgd",
        "particles": 10,
        "iters": 500,
        "seed": 11,
        "toy_dim": 100,
        "record_every": 500,
        "output_dir": str(tmp_path / "sweep"),
        "sweep_param": "gamma",
        "sweep_values": ",".join(repr(float(g)) for g in np.logspace(-5, 2, 20)),
    })
    summary_path = run_sweep(sweep_cfg)
    with open(summary_path, newline="", encoding="utf-8") as fh:
        finals = [float(r["final_metric"]) for r in csv.DictReader(fh)]
    n_diverged = sum(np.isinf(v) for v in finals)
    best = min(finals)

    out = tmp_path / "coin"
    code = main([
        "run", "--model", "toy", "--algorithm", "adaptive_coin_em", "--particles", "10",
        "--iters", "500", "--seed", "11", "--record-every", "500", "--out", str(out),
    ])
    assert code == 0
    with open(out / "toy_adaptive_coin_em.csv", newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.DictReader(fh) if r["metric"] == "theta_mse"]
    coin_mse = float(rows[-1]["value"])
    report(
        "criterion 5 (learning-rate sensitivity)",
        n_diverged >= 1 and best <= 1e-2 and coin_mse <= 1e-2,
        f"sweep: {n_diverged}/20 diverged, best MSE {best:.2e} (<= 1e-2); "
        f"tuning-free run MSE {coin_mse:.2e} (<= 1e-2)",
    )


def test_c06_gradient_oracle_suite():
    rng = np.random.default_rng(60)
    x, _ = generate_toy_data(5, 1.0, 61)
    toy = GaussianHierarchicalModel(x)
    X = rng.standard_normal((12, 3))
    y = (rng.random(12) < 0.5).astype(int)
    logreg = BayesianLogisticRegression(X, y)
    Y, _ = planted_two_community_network(62, n=5)
    network = LatentSpaceNetworkModel(Y, embed_dim=2)

    worst = 0.0
    for model in (toy, logreg, network):
        for _ in range(100):
            theta = rng.standard_normal(1)
            z = rng.standard_normal(model.d_z)
            analytic_t = model.grad_theta(theta, z[None, :])[0]
            analytic_z = model.grad_z(theta, z[None, :])[0]
            worst = max(worst, max_rel_err(analytic_t, fd_grad_theta(model, theta, z)))
            worst = max(worst, max_rel_err(analytic_z, fd_grad_z(model, theta, z)))
    report(
        "criterion 6 (gradient oracle suite)",
        worst <= 1e-5,
        f"worst relative error {worst:.2e} over 3 models x 100 points (<= 1e-5)",
    )


def test_c07_stein_direction_oracle():
    rng = np.random.default_rng(70)
    worst = 0.0
    for n, d in [(1, 1), (3, 2), (10, 5), (25, 11), (50, 20)]:
        z = rng.standard_normal((n, d))
        g = rng.standard_normal((n, d))
        h = 0.5 + rng.random()
        worst = max(worst, float(np.abs(stein_direction(z, g, h) - stein_naive(z, g, h)).max()))
    report(
        "criterion 7 (kernelized-direction oracle)",
        worst <= 1e-12,
        f"worst absolute error {worst:.2e} vs double-loop reference (<= 1e-12)",
    )


def test_c08_betting_hand_sequences():
    state = State.initial("coin_em", np.zeros(1), np.zeros((1, 1)))
    sequence = [float(state.theta[0])]
    for _ in range(3):
        state = coin_em_step(state, ConstantGradientModel(1.0))
        sequence.append(float(state.theta[0]))
    exact_plain = sequence == [0.0, 0.5, 1.0, 1.875]

    adaptive = State.initial("adaptive_coin_em", np.zeros(1), np.zeros((1, 1)))
    adaptive_seq = []
    for _ in range(2):
        adaptive = adaptive_coin_em_step(adaptive, ConstantGradientModel(1.0))
        adaptive_seq.append(float(adaptive.theta[0]))
    exact_adaptive = adaptive_seq == [0.5, 1.0]
    report(
        "criterion 8 (betting hand sequences)",
        exact_plain and exact_adaptive,
        f"plain {sequence} == [0.0, 0.5, 1.0, 1.875]; adaptive {adaptive_seq} == [0.5, 1.0] (exact)",
    )


def test_c09_marginal_consistency():
    x, _ = generate_toy_data(20, 1.0, 90)
    model = GaussianHierarchicalModel(x)
    hooks = {"grand_mean": lambda th, Z: float(Z.mean())}
    trace = run(
        "marginal_svgd_em",
        model,
        RunConfig(n_particles=10, n_iters=200, gamma=0.1, seed=91, record_every=1, metric_hooks=hooks),
    )
    worst_gap = max(abs(r.theta[0] - r.metrics["grand_mean"]) for r in trace.records)

    theta_hat = trace.final().theta
    particles = trace.final_particles
    q = lambda t: float(np.mean([model.log_joint(np.array([t]), z) for z in particles]))
    strict_max = q(theta_hat[0]) > q(theta_hat[0] + 1e-3) and q(theta_hat[0]) > q(theta_hat[0] - 1e-3)
    report(
        "criterion 9 (exact M-step consistency)",
        worst_gap <= 1e-12 and strict_max,
        f"max |theta - grand mean| {worst_gap:.2e} (<= 1e-12); +/-1e-3 perturbation lowers Q: {strict_max}",
    )


def test_c10_run_determinism(tmp_path):
    args = [
        "run", "--model", "toy", "--algorithm", "adaptive_coin_em",
        "--particles", "5", "--iters", "50", "--seed", "10", "--name", "det",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    identical = (out1 / "det.csv").read_bytes() == (out2 / "det.csv").read_bytes()
    report(
        "criterion 10 (determinism)",
        identical,
        "identical config and seed produce byte-identical trace CSVs",
    )


def test_c11_procrustes_properties():
    rng = np.random.default_rng(110)
    ref = rng.standard_normal((20, 2))
    angle = rng.uniform(0, 2 * np.pi)
    rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    aligned, t = procrustes_align(ref, ref @ rotation.T)
    recovery = float(np.abs(aligned - ref).max())
    orthogonality = float(np.abs(t.T @ t - np.eye(2)).max())

    never_worse = True
    for _ in range(100):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(d, 15))
        a = rng.standard_normal((n, d))
        b = rng.standard_normal((n, d))
        aligned_b, tb = procrustes_align(a, b)
        if np.linalg.norm(a - aligned_b) > np.linalg.norm(a - b) + 1e-12:
            never_worse = False
        if np.abs(tb.T @ tb - np.eye(d)).max() > 1e-10:
            never_worse = False
    report(
        "criterion 11 (orthogonal alignment)",
        recovery <= 1e-10 and orthogonality <= 1e-10 and never_worse,
        f"rotation recovery {recovery:.2e} (<= 1e-10), orthogonality {orthogonality:.2e} (<= 1e-10), "
        f"residual never exceeds unaligned over 100 cases: {never_worse}",
    )


def test_c12_network_community_structure():
    # declared desk-scale substitute for the full network study: planted
    # communities must end up closer in the embedding than cross-community pairs
    fractions = []
    for seed in range(5):
        Y, community = planted_two_community_network(1000 + seed, n=10)
        model = LatentSpaceNetworkModel(Y, embed_dim=2, prior_var_z=1.0)
        trace = run(
            "adaptive_coin_em",
            model,
            RunConfig(n_particles=10, n_iters=500, seed=seed, record_every=500),
        )
        positions = trace.final_particles.mean(axis=0).reshape(10, 2)
        dists = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=2)
        within, across = [], []
        for i in range(10):
            for j in range(i + 1, 10):
                (within if community[i] == community[j] else across).append(dists[i, j])
        within = np.array(within)
        across = np.array(across)
        fractions.append(float(np.mean(within[:, None] < across[None, :])))
    ok = all(f > 0.5 for f in fractions)
    report(
        "criterion 12 (network community recovery)",
        ok,
        "fraction of (within, across) pairs with within < across per seed: "
        + ", ".join(f"{f:.2f}" for f in fractions)
        + " (all > 0.5)",
    )
