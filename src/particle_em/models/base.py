"""Latent-variable model interface used by all optimizers.

A model is the unnormalized joint density pi_theta(z) of latents z and fixed
observations, exposed through its log density and analytic gradients. Gradient
methods are batched over particles: ``particles`` is a non-empty (N, d_z) cloud
by the kernel layer's one rule, and theta is a flat (d_theta,) vector. Models
are immutable after construction and all evaluations are pure.
"""

from __future__ import annotations

import abc

import numpy as np

from ..exceptions import MissingMStepError

LOG_2PI = np.log(2.0 * np.pi)


def particle_mean(Z: np.ndarray) -> np.ndarray:
    """Average over the first axis: the ufunc calls of ``Z.mean(axis=0)``, bit for bit."""
    return np.true_divide(np.add.reduce(Z, 0), Z.shape[0])


def as_flat(x, size: int, what: str) -> np.ndarray:
    """Coerce a scalar or array to a flat float64 vector of length ``size``: theta, or a single latent."""
    arr = np.asarray(x, dtype=np.float64).ravel()
    if arr.size != size:
        raise ValueError(f"{what} must have length {size}, got {arr.size}")
    return arr


class Model(abc.ABC):
    """Interface: log_joint plus batched gradients in theta and z."""

    d_theta: int
    d_z: int

    @abc.abstractmethod
    def log_joint(self, theta, z) -> float:
        """Log joint density at a single latent vector z of shape (d_z,)."""

    @abc.abstractmethod
    def grad_theta(self, theta, particles) -> np.ndarray:
        """Parameter gradient of log_joint per particle, shape (N, d_theta)."""

    @abc.abstractmethod
    def grad_z(self, theta, particles, scratch=None) -> np.ndarray:
        """Latent gradient of log_joint per particle, shape (N, d_z).

        ``run`` passes every call the run's :class:`particle_em.scratch.Scratch` (None elsewhere)
        for the method's large temporaries; a model may ignore it.
        """

    def marginal_mstep(self, particles) -> np.ndarray:
        """Exact maximizer of the average log joint over theta, if available."""
        raise MissingMStepError(f"{type(self).__name__} has no closed-form M-step")

    @abc.abstractmethod
    def default_init(self, n_particles: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Default (theta0, particles0) initialization for optimization runs."""

    def mean_grad_theta(self, theta, particles) -> np.ndarray:
        """Particle average of grad_theta, shape (d_theta,)."""
        return particle_mean(self.grad_theta(theta, particles))
