"""Latent space network model for binary undirected graphs.

Each node i carries a latent position z_(i) in R^embed_dim; an edge between
i and j is Bernoulli with logit theta + link_sign * ||z_(i) - z_(j)||. The
default link_sign = -1 makes nearby nodes more likely to connect (the standard
distance model); link_sign = +1 is available as a flag. Latents carry an
isotropic Gaussian prior with variance prior_var_z (set to inf to disable).

The flat latent vector has length d_z = n * embed_dim and reshapes row-major
to (n, embed_dim). Distances, sigmoids and edge terms are evaluated once per
unordered node pair (the kernel layer's cached table of the n(n-1)/2 pairs
i < j, which the model only reads), with results bit-identical to a dense
(n, n) evaluation. One helper, :meth:`LatentSpaceNetworkModel._pairs`, serves
every method: it gathers a particle's pair differences into the rows of a
table reused from particle to particle and writes the pair residuals in place
beside them, with the sigmoid's exp values in slot 1 of a scratch (the one
``grad_z`` is passed, a fresh one elsewhere). The point estimate of
``default_init`` takes both gradients from one pair geometry per iteration.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigError
from ..kernels import _checked, _pair_table
from ..scratch import Scratch
from .base import LOG_2PI, Model, as_flat
from .logistic import _sigmoid_in_place, softplus

#: distances below this are treated as coincident; the distance gradient is 0 there
_COINCIDENT_TOL = 1e-12
_INIT_ITERS, _INIT_STEP = 2000, 1e-2  # the fixed-step gradient ascent of default_init


class LatentSpaceNetworkModel(Model):
    d_theta = 1

    def __init__(self, Y, embed_dim: int = 2, prior_var_z: float = 1.0, link_sign: float = -1.0):
        Y = np.asarray(Y, dtype=np.float64)
        if Y.ndim != 2 or Y.shape[0] != Y.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {Y.shape}")
        if not np.array_equal(Y, Y.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(Y) != 0):
            raise ValueError("adjacency must have an empty diagonal")
        if not np.all(np.isin(Y, (0.0, 1.0))):
            raise ValueError("adjacency entries must be 0 or 1")
        problems = []
        if embed_dim < 1:
            problems.append(f"embed_dim must be >= 1, got {embed_dim}")
        if not prior_var_z > 0:  # also false for nan
            problems.append(f"prior_var_z must be positive (or inf), got {prior_var_z}")
        if link_sign not in (-1.0, 1.0):
            problems.append(f"link_sign must be -1 or +1, got {link_sign}")
        if problems:
            raise ConfigError(problems)
        self.Y = Y
        self.n_nodes = Y.shape[0]
        self.embed_dim = int(embed_dim)
        self.prior_var_z = float(prior_var_z)
        self.link_sign = float(link_sign)
        self.d_z = self.n_nodes * self.embed_dim
        # pair table: the M = n(n-1)/2 node pairs i < j in row-major order (the kernel layer's cached
        # indices, which the model reads and never writes), their edges, and each ordered (i, j)'s slot
        # in a [0, pairs i<j, pairs j<i] table
        self._iu, self._ju, index = _pair_table(self.n_nodes)
        self._Y_pairs = Y[self._iu, self._ju]
        self._pair_slot = index + 1 + self._iu.size * np.tri(self.n_nodes, k=-1, dtype=np.intp)

    # One node-position matrix pos (n, e) at a time: its pair geometry, the pair residuals at a
    # theta and the latent gradient from both. The batched methods loop over these, so a particle
    # never holds more than its own pairs, and default_init shares one geometry between both gradients.

    def _tables(self, mirror: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """A weight table (R,) and a unit-vector table (R, e), each with a zero row 0.

        Rows 1 .. M, the pair rows, take the pair residuals and the pair differences. With ``mirror``
        R = 2M + 1, and rows M + 1 .. 2M take their mirror images in :meth:`_latent_grad`; else R = M + 1.
        """
        rows = (2 if mirror else 1) * self._iu.size + 1
        weights, units = np.empty(rows), np.empty((rows, self.embed_dim))
        weights[0], units[0] = 0.0, 0.0
        return weights, units

    def _pairs(self, pos: np.ndarray, tables, t: float | None = None, scratch: Scratch | None = None) -> np.ndarray:
        """Distances (M,) of the positions pos over the pairs i < j.

        Writes the differences pos_i - pos_j to the pair rows of the unit-vector table of ``tables``
        (from :meth:`_tables`), and with a theta ``t`` the residuals of :meth:`_residuals` to the
        pair rows of its weight table, taking slot 1 of ``scratch``.
        """
        m = self._iu.size
        # the "wrap" mode is for speed: with an out array, "raise" buffers it; the indices are in range
        diff = np.take(pos, self._iu, 0, out=tables[1][1:m + 1], mode="wrap")
        diff -= np.take(pos, self._ju, 0)
        dist = np.einsum("mk,mk->m", diff, diff)
        np.sqrt(dist, out=dist)
        if t is not None:
            self._residuals(t, dist, tables, scratch)
        return dist

    def _residuals(self, t: float, dist: np.ndarray, tables, scratch: Scratch) -> np.ndarray:
        """Y_ij - sigmoid(t + link_sign * dist_ij) over the pairs i < j, written in place to the pair
        rows of the weight table; their sum is the theta-gradient. The sigmoid's exp values go to slot 1
        of ``scratch``."""
        resid = np.multiply(self.link_sign, dist, out=tables[0][1:dist.size + 1])
        np.add(t, resid, out=resid)
        _sigmoid_in_place(resid, scratch)
        return np.subtract(self._Y_pairs, resid, out=resid)

    def _latent_grad(self, pos, dist, tables, unit) -> np.ndarray:
        """Latent gradient (n, e) at positions pos from their pair distances, with the pair differences
        and residuals of :meth:`_pairs` in ``tables``; ``unit`` (n, n, e) takes the dense unit vectors.

        The pair differences become the unit vectors, and rows 1 .. 2M of both tables are overwritten.
        """
        weights, units = tables
        m = dist.size
        upper = units[1:m + 1]
        np.multiply(weights[1:m + 1], self.link_sign, out=weights[1:m + 1])
        weights[m + 1:] = weights[1:m + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(upper, dist[:, None], out=upper)
        coincident = ~(dist > _COINCIDENT_TOL)  # a nan distance too
        if coincident.any():
            upper[coincident] = 0.0
        np.negative(upper, out=units[m + 1:])
        # rebuilding the full (n, n) weights (symmetric) and (n, n, e) unit vectors
        # (antisymmetric) keeps the sum over j in the dense order, bit for bit; where
        # -unit is -0.0 against a dense +0.0, the zero product cannot change the sum
        grad_pos = np.einsum("ij,ijk->ik", weights.take(self._pair_slot),
                             units.take(self._pair_slot, 0, out=unit, mode="wrap"))
        if np.isfinite(self.prior_var_z):
            grad_pos -= pos / self.prior_var_z
        return grad_pos

    def log_joint(self, theta, z) -> float:
        t = as_flat(theta, 1, "theta")[0]
        pos = as_flat(z, self.d_z, "latent vector").reshape(self.n_nodes, self.embed_dim)
        eta = t + self.link_sign * self._pairs(pos, self._tables(mirror=False))
        total = float((self._Y_pairs * eta - softplus(eta)).sum())
        if np.isfinite(self.prior_var_z):
            total -= 0.5 * np.sum(pos * pos) / self.prior_var_z
            total -= 0.5 * self.d_z * (LOG_2PI + np.log(self.prior_var_z))
        return total

    def grad_theta(self, theta, particles) -> np.ndarray:
        t = as_flat(theta, 1, "theta")[0]
        z = _checked(particles, d=self.d_z)[0]
        out = np.empty((z.shape[0], 1))
        tables, scratch, m = self._tables(mirror=False), Scratch(), self._iu.size
        for k in range(z.shape[0]):
            self._pairs(z[k].reshape(self.n_nodes, self.embed_dim), tables, t, scratch)
            out[k, 0] = tables[0][1:m + 1].sum()
        return out

    def grad_z(self, theta, particles, scratch=None) -> np.ndarray:
        """Latent gradients, one particle at a time in one set of pair tables; the sigmoid of the
        pair residuals takes slot 1 of ``scratch`` (a fresh one without it)."""
        t = as_flat(theta, 1, "theta")[0]
        z = _checked(particles, d=self.d_z)[0]
        scratch = Scratch() if scratch is None else scratch
        out = np.empty_like(z)
        tables, unit = self._tables(), np.empty((self.n_nodes, self.n_nodes, self.embed_dim))
        for k in range(z.shape[0]):
            pos = z[k].reshape(self.n_nodes, self.embed_dim)
            dist = self._pairs(pos, tables, t, scratch)
            out[k] = self._latent_grad(pos, dist, tables, unit).ravel()
        return out

    def default_init(self, n_particles, rng):
        """Deterministic point-estimate fit, then particles jittered around it.

        Runs 2000 fixed-step (1e-2) gradient ascent iterations on log_joint
        from theta = 0, z ~ N(0, 1), then draws each initial particle from a
        N(z_hat, 0.1) (variance 0.1) around the fitted positions. Each
        iteration builds one pair geometry: the theta step takes its
        residuals at the old theta, the latent step at the new one.
        """
        theta, z = np.zeros(1), rng.standard_normal(self.d_z)
        tables, unit = self._tables(), np.empty((self.n_nodes, self.n_nodes, self.embed_dim))
        scratch, m = Scratch(), self._iu.size
        for _ in range(_INIT_ITERS):
            pos = z.reshape(self.n_nodes, self.embed_dim)
            dist = self._pairs(pos, tables, theta[0], scratch)
            theta = theta + _INIT_STEP * tables[0][1:m + 1].sum()
            self._residuals(theta[0], dist, tables, scratch)
            z = z + _INIT_STEP * self._latent_grad(pos, dist, tables, unit).ravel()
        return theta, z + np.sqrt(0.1) * rng.standard_normal((n_particles, self.d_z))
