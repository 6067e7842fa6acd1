"""Shared test utilities: finite-difference oracles, naive references, stubs."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from particle_em.metrics import mse
from particle_em.models import GaussianHierarchicalModel, sigmoid, softplus
from particle_em.models.base import Model


def fd_grad_theta(model, theta, z):
    """Central-difference parameter gradient of log_joint at one latent point."""
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    out = np.empty_like(theta)
    for k in range(theta.size):
        h = 1e-5 * (1.0 + abs(theta[k]))
        e = np.zeros_like(theta)
        e[k] = h
        out[k] = (model.log_joint(theta + e, z) - model.log_joint(theta - e, z)) / (2 * h)
    return out


def fd_grad_z(model, theta, z):
    """Central-difference latent gradient of log_joint at one latent point."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    for k in range(z.size):
        h = 1e-5 * (1.0 + abs(z[k]))
        e = np.zeros_like(z)
        e[k] = h
        out[k] = (model.log_joint(theta, z + e) - model.log_joint(theta, z - e)) / (2 * h)
    return out


def max_rel_err(a, b):
    """Worst relative error with an absolute floor of 1 (for near-zero entries)."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))))


def assert_gradients_match_fd(model, theta, z, tol=1e-5):
    analytic_t = model.grad_theta(theta, np.asarray(z)[None, :])[0]
    analytic_z = model.grad_z(theta, np.asarray(z)[None, :])[0]
    assert max_rel_err(analytic_t, fd_grad_theta(model, theta, z)) <= tol
    assert max_rel_err(analytic_z, fd_grad_z(model, theta, z)) <= tol


def assert_bitwise_equal(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape and a.tobytes() == b.tobytes(), (a, b)


def stein_naive(particles, grads, h):
    """Double-loop reference for the kernelized update direction."""
    z = np.asarray(particles, dtype=np.float64)
    g = np.asarray(grads, dtype=np.float64)
    n = z.shape[0]
    out = np.zeros_like(z)
    for i in range(n):
        for j in range(n):
            kji = np.exp(-np.sum((z[j] - z[i]) ** 2) / h)
            out[i] += kji * g[j] + (2.0 / h) * (z[i] - z[j]) * kji
    return out / n


def pairwise_sq_dists_naive(particles):
    """Reference (N, N) squared distances from the dense (N, N, d) difference tensor."""
    z = np.asarray(particles, dtype=np.float64)
    diff = z[:, None, :] - z[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def stein_dense(particles, grads, h):
    """Reference kernelized direction from the dense (N, N) kernel matrix exp(-sq / h)."""
    z = np.asarray(particles, dtype=np.float64)
    g = np.asarray(grads, dtype=np.float64)
    k = np.exp(-pairwise_sq_dists_naive(z) / h)
    attraction = k.T @ g
    repulsion = (2.0 / h) * (z * k.sum(axis=0)[:, None] - k.T @ z)
    return (attraction + repulsion) / z.shape[0]


def median_heuristic_naive(particles):
    """Reference bandwidth: np.median over the square roots of the upper-triangle pair distances."""
    z = np.asarray(particles, dtype=np.float64)
    n = z.shape[0]
    if n < 2:
        return 1.0
    sq = pairwise_sq_dists_naive(z)
    med = float(np.median(np.sqrt(sq[np.triu_indices(n, 1)])))
    log_n = np.log(n)
    if med == 0.0 or log_n == 0.0:
        return 1.0
    return med * med / log_n


def _network_dense(model, z):
    """Positions (n, e), differences (n, n, e) and distances (n, n) over every ordered node pair."""
    pos = np.asarray(z, dtype=np.float64).reshape(model.n_nodes, model.embed_dim)
    diff = pos[:, None, :] - pos[None, :, :]
    return pos, diff, np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def network_log_joint_naive(model, theta, z):
    """Reference network log joint: the dense (n, n) edge terms summed over the upper triangle."""
    pos, _, dist = _network_dense(model, z)
    eta = np.atleast_1d(theta)[0] + model.link_sign * dist
    pair_terms = model.Y * eta - softplus(eta)
    total = float(pair_terms[np.triu(np.ones(model.Y.shape, dtype=bool), k=1)].sum())
    if np.isfinite(model.prior_var_z):
        total -= 0.5 * np.sum(pos * pos) / model.prior_var_z
        total -= 0.5 * model.d_z * (np.log(2.0 * np.pi) + np.log(model.prior_var_z))
    return total


def network_grad_theta_naive(model, theta, particles):
    """Reference network parameter gradient, one dense (n, n) evaluation per particle."""
    t = np.atleast_1d(theta)[0]
    z = np.atleast_2d(np.asarray(particles, dtype=np.float64))
    upper = np.triu(np.ones(model.Y.shape, dtype=bool), k=1)
    out = np.empty((z.shape[0], 1))
    for k in range(z.shape[0]):
        p = sigmoid(t + model.link_sign * _network_dense(model, z[k])[2])
        out[k, 0] = (model.Y - p)[upper].sum()
    return out


def network_grad_z_naive(model, theta, particles):
    """Reference network latent gradient from the dense (n, n) weights and (n, n, e) unit vectors."""
    t = np.atleast_1d(theta)[0]
    z = np.atleast_2d(np.asarray(particles, dtype=np.float64))
    out = np.empty_like(z)
    for k in range(z.shape[0]):
        pos, diff, dist = _network_dense(model, z[k])
        weight = (model.Y - sigmoid(t + model.link_sign * dist)) * model.link_sign
        np.fill_diagonal(weight, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            unit = np.where(dist[:, :, None] > 1e-12, diff / dist[:, :, None], 0.0)
        grad_pos = np.einsum("ij,ijk->ik", weight, unit)
        if np.isfinite(model.prior_var_z):
            grad_pos -= pos / model.prior_var_z
        out[k] = grad_pos.ravel()
    return out


def network_default_init_two_calls(model, n_particles, rng):
    """Reference network point estimate: 2000 steps of 1e-2 from theta = 0, z ~ N(0, 1), each
    taking the theta-gradient at the old theta and then the latent gradient at the new one, both
    from the dense references, then N(z_hat, 0.1) particles."""
    theta, z = np.zeros(1), rng.standard_normal((1, model.d_z))
    for _ in range(2000):
        theta = theta + 1e-2 * network_grad_theta_naive(model, theta, z)[0]
        z = z + 1e-2 * network_grad_z_naive(model, theta, z)
    return theta, z + np.sqrt(0.1) * rng.standard_normal((n_particles, model.d_z))


@st.composite
def toy_problems(draw, max_n=40, max_d=300):
    """(toy model, theta, cloud): N in 1..max_n, d in 1..max_d, values of magnitude 1e-8 to 1e8
    around an offset, and up to three entries of +-inf or nan in the cloud."""
    n, d = draw(st.integers(1, max_n)), draw(st.integers(1, max_d))
    scale = 10.0 ** draw(st.floats(-8.0, 8.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = scale * (rng.standard_normal((n, d)) + draw(st.floats(-3.0, 3.0)))
    for value in draw(st.lists(st.sampled_from([np.inf, -np.inf, np.nan]), max_size=3)):
        z[rng.integers(n), rng.integers(d)] = value
    model = GaussianHierarchicalModel(scale * rng.standard_normal(d))
    return model, np.array([scale * draw(st.floats(-3.0, 3.0))]), z


def mean_grad_theta_base(model, theta, particles):
    """The particle average of the parameter gradient by its plain formula: grad_theta(...).mean(axis=0)."""
    return model.grad_theta(theta, particles).mean(axis=0)


def toy_hooks_naive(model, theta, particles):
    """The CLI toy hooks by their plain formulas: the mse of the particle mean against the posterior
    mean at theta*, the mean unbiased variance (N >= 2 only) and the norm of the base-class gradient."""
    z = np.asarray(particles, dtype=np.float64)
    post_mean, _ = model.posterior_moments(model.theta_star())
    values = {"post_mean_mse": mse(z.mean(axis=0), post_mean),
              "theta_grad_norm": float(np.linalg.norm(mean_grad_theta_base(model, theta, z)))}
    if z.shape[0] >= 2:
        values["posterior_var"] = float(z.var(axis=0, ddof=1).mean())
    return values


class ConstantGradientModel(Model):
    """Stub whose parameter gradient is a constant and latent gradient zero."""

    def __init__(self, c=1.0, d_z=1):
        self.c = float(c)
        self.d_theta = 1
        self.d_z = d_z

    def log_joint(self, theta, z):
        return float(self.c * np.atleast_1d(theta)[0])

    def grad_theta(self, theta, particles):
        return np.full((np.asarray(particles).shape[0], 1), self.c)

    def grad_z(self, theta, particles, scratch=None):
        return np.zeros_like(np.asarray(particles, dtype=np.float64))

    def default_init(self, n_particles, rng):
        return np.zeros(1), np.zeros((n_particles, self.d_z))


class ZeroGradientModel(ConstantGradientModel):
    def __init__(self, d_z=1):
        super().__init__(c=0.0, d_z=d_z)


def planted_two_community_network(seed, n=10, p_within=0.9, p_across=0.1):
    """Random adjacency with two equal planted communities; returns (Y, labels)."""
    rng = np.random.default_rng(seed)
    community = np.array([0] * (n // 2) + [1] * (n - n // 2))
    Y = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            p = p_within if community[i] == community[j] else p_across
            if rng.random() < p:
                Y[i, j] = Y[j, i] = 1.0
    return Y, community
