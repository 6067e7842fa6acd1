"""Gaussian hierarchical model: z_i ~ N(theta, 1), x_i ~ N(z_i, 1).

The model keeps the observation vector x fixed. The marginal likelihood has
the unique maximizer theta* = mean(x), and the posterior at any theta is an
independent Gaussian per coordinate with mean (theta + x_i)/2 and variance 1/2,
which makes this model a ground-truth benchmark.
"""

from __future__ import annotations

import numpy as np

from ..kernels import _checked
from .base import LOG_2PI, Model, as_flat


class GaussianHierarchicalModel(Model):
    d_theta = 1

    def __init__(self, x):
        x = np.asarray(x, dtype=np.float64).ravel()
        if x.size < 1 or not np.all(np.isfinite(x)):
            raise ValueError("x must be a non-empty finite vector")
        self.x = x
        self.d_z = x.size

    def log_joint(self, theta, z) -> float:
        t = as_flat(theta, 1, "theta")[0]
        z = as_flat(z, self.d_z, "latent vector")
        return float(
            -0.5 * np.sum((z - t) ** 2) - 0.5 * np.sum((self.x - z) ** 2) - self.d_z * LOG_2PI
        )

    def grad_theta(self, theta, particles) -> np.ndarray:
        t = as_flat(theta, 1, "theta")[0]
        z = _checked(particles, d=self.d_z)[0]
        return np.add.reduce(z - t, 1, keepdims=True)  # .sum(axis=1, keepdims=True) without its dispatch

    def grad_z(self, theta, particles, scratch=None) -> np.ndarray:
        t = as_flat(theta, 1, "theta")[0]
        z = _checked(particles, d=self.d_z)[0]
        return (t - z) + (self.x[None, :] - z)

    def theta_star(self) -> float:
        """Exact marginal maximum-likelihood parameter: the mean of x."""
        return float(self.x.mean())

    def posterior_moments(self, theta) -> tuple[np.ndarray, float]:
        """Exact posterior mean vector (theta + x)/2 and per-coordinate variance 0.5."""
        t = as_flat(theta, 1, "theta")[0]
        return (t + self.x) / 2.0, 0.5

    def marginal_mstep(self, particles) -> np.ndarray:
        z = _checked(particles, d=self.d_z)[0]
        return np.array([z.mean()])

    def default_init(self, n_particles, rng):
        theta0 = rng.normal(0.0, 0.1, size=1)
        particles0 = rng.standard_normal((n_particles, self.d_z))
        return theta0, particles0
