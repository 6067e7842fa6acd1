"""Bayesian logistic regression with latent weights z and prior N(theta*1, v*I).

The scalar parameter theta is the shared prior mean of the regression weights;
the prior variance v defaults to 5. Labels are Bernoulli with success
probability sigmoid(x_i^T z). The sigmoid takes exp only of -|x_i^T z| and
softplus goes through log-sum-exp, so neither overflows and gradients stay
finite for |x_i^T z| up to at least 1e3.

``grad_z`` and ``predict_proba`` take the sigmoid of their logits in place,
8192 values at a time (:func:`_sigmoid_in_place`): besides the logits, which
``grad_z`` keeps in slot 0 of the run's scratch, they hold one 64 KB block of
exp values, in slot 1. The gemms stay whole: a product taken a block of rows
at a time rounds differently from the whole one.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigError
from ..kernels import _CHUNK, _checked
from ..scratch import Scratch
from .base import LOG_2PI, Model, as_flat


def sigmoid(u: np.ndarray) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-u)), within 2 ulp of the exact value.

    With e = exp(-|u|) in [0, 1] it is 1 / (1 + e) for u >= 0 and e / (1 + e)
    for u < 0, so exp never overflows: exactly 0.5 at +-0, 1 at +inf, 0 at
    -inf and nan at nan. A Python or 0-d input gives a numpy scalar.
    """
    u = np.asarray(u, dtype=np.float64)
    e = np.abs(u, out=np.empty_like(u))  # an array of its own, 0-d included, for the in-place steps
    np.negative(e, out=e)
    np.exp(e, out=e)
    p = np.where(u >= 0, 1.0, e)
    e += 1.0
    p /= e
    return p if p.ndim else p[()]


def _sigmoid_in_place(u: np.ndarray, scratch: Scratch) -> np.ndarray:
    """Overwrite the flat float64 vector u with sigmoid(u), 8192 values at a time; returns u.

    e = exp(-|u|) goes to slot 1 of ``scratch``, one block at a time. The select
    ``max(copysign(1, u), e) / (1 + e)`` equals :func:`sigmoid`'s ``where`` bit for
    bit: 1 / (1 + e) where u >= 0, as e <= 1 (and e = 1 at u = -0), and
    e / (1 + e) where u < 0, as e >= 0; where u is nan, e is the nan that
    ``maximum`` returns. Every step is a float64 ufunc in place, so none
    allocates a mask or a casting buffer, and none branches on the sign of u.
    """
    exps = scratch.take(1, min(u.size, _CHUNK))
    for start in range(0, u.size, _CHUNK):
        block = u[start:start + _CHUNK]
        e = np.abs(block, out=exps[:block.size])
        np.negative(e, out=e)
        np.exp(e, out=e)
        np.copysign(1.0, block, out=block)
        np.maximum(block, e, out=block)
        e += 1.0
        block /= e
    return u


def softplus(u: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, np.asarray(u, dtype=np.float64))


class BayesianLogisticRegression(Model):
    d_theta = 1

    def __init__(self, X, y, prior_var: float = 5.0):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError(f"X must be (n, d), got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError(f"y must have length {X.shape[0]}, got shape {y.shape}")
        if y.size and not np.all(np.isin(y, (0, 1))):
            raise ValueError("labels must be 0 or 1")
        if not (prior_var > 0 and np.isfinite(prior_var)):  # inf would make log_joint -inf everywhere
            raise ConfigError(f"prior_var must be a finite positive number, got {prior_var}")
        self.X = X
        self.y = y.astype(np.float64)
        self.prior_var = float(prior_var)
        self.d_z = X.shape[1]

    def log_joint(self, theta, z) -> float:
        t = as_flat(theta, 1, "theta")[0]
        z = as_flat(z, self.d_z, "latent vector")
        logits = self.X @ z
        loglik = float(np.sum(self.y * logits - softplus(logits)))
        prior = -0.5 * np.sum((z - t) ** 2) / self.prior_var
        prior -= 0.5 * self.d_z * (LOG_2PI + np.log(self.prior_var))
        return loglik + prior

    def grad_theta(self, theta, particles) -> np.ndarray:
        t = as_flat(theta, 1, "theta")[0]
        z = _checked(particles, d=self.d_z)[0]
        return (z - t).sum(axis=1, keepdims=True) / self.prior_var

    def grad_z(self, theta, particles, scratch=None) -> np.ndarray:
        """``prior + (y - sigmoid(z @ X.T)) @ X``, with the (N, n) residuals built in ``scratch``.

        Slot 0 holds the logits u and then, in place, the sigmoid and the residuals;
        :func:`_sigmoid_in_place` takes slot 1 for its blocks of exp values. Without
        ``scratch`` a fresh one is used.
        """
        t = as_flat(theta, 1, "theta")[0]
        z = _checked(particles, d=self.d_z)[0]
        prior = (t - z) / self.prior_var
        n_particles, n_obs = z.shape[0], self.X.shape[0]
        if n_obs == 0:
            return prior
        scratch = Scratch() if scratch is None else scratch
        logits = scratch.take(0, n_particles * n_obs)
        res = np.matmul(z, self.X.T, out=logits.reshape(n_particles, n_obs))
        _sigmoid_in_place(logits, scratch)
        np.subtract(self.y, res, out=res)
        return prior + res @ self.X

    def predict_proba(self, particles, X_test) -> np.ndarray:
        """Particle-averaged success probability per test row, ``sigmoid(X_test @ z.T).mean(axis=1)``
        bit for bit, with the sigmoid taken in place in the (m, N) logits (a hook gets no scratch)."""
        z = _checked(particles, d=self.d_z)[0]
        X_test = np.asarray(X_test, dtype=np.float64)
        if X_test.ndim != 2 or X_test.shape[1] != self.d_z:
            raise ValueError(f"X_test must be (m, {self.d_z}), got shape {X_test.shape}")
        logits = X_test @ z.T
        _sigmoid_in_place(logits.reshape(-1), Scratch())
        return logits.mean(axis=1)

    def predict(self, particles, X_test) -> np.ndarray:
        """Predicted labels: 1 where the averaged probability is >= 0.5."""
        return (self.predict_proba(particles, X_test) >= 0.5).astype(int)

    def default_init(self, n_particles, rng):
        theta0 = np.zeros(1)
        particles0 = rng.standard_normal((n_particles, self.d_z))
        return theta0, particles0
