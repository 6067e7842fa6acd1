"""Latent space network model for binary undirected graphs.

Each node i carries a latent position z_(i) in R^embed_dim; an edge between
i and j is Bernoulli with logit theta + link_sign * ||z_(i) - z_(j)||. The
default link_sign = -1 makes nearby nodes more likely to connect (the standard
distance model); link_sign = +1 is available as a flag. Latents carry an
isotropic Gaussian prior with variance prior_var_z (set to inf to disable).

The flat latent vector has length d_z = n * embed_dim and reshapes row-major
to (n, embed_dim). Distances, sigmoids and edge terms are evaluated once per
unordered node pair (a table of the n(n-1)/2 pairs i < j built at construction),
with results bit-identical to a dense (n, n) evaluation. The point estimate of
``default_init`` takes both gradients from one pair geometry per iteration.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigError
from ..kernels import _checked, _pair_table
from .base import LOG_2PI, Model, as_flat
from .logistic import sigmoid, softplus

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
        # pair table: the M = n(n-1)/2 node pairs i < j in row-major order (the kernel layer's),
        # their edges, and each ordered (i, j)'s slot in a [0, pairs i<j, pairs j<i] table; the
        # indices are the model's own copies, as the kernel layer's cached tables are shared
        iu, ju, index = _pair_table(self.n_nodes)
        self._iu, self._ju = iu.copy(), ju.copy()
        self._Y_pairs = Y[self._iu, self._ju]
        self._pair_slot = index + 1 + self._iu.size * np.tri(self.n_nodes, k=-1, dtype=np.intp)

    # One node-position matrix pos (n, e) at a time: its pair geometry, the pair residuals at a
    # theta and the latent gradient from both. The batched methods loop over these, so a particle
    # never holds more than its own pairs, and default_init shares one geometry between both gradients.

    def _pair_geometry(self, pos: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Differences pos_i - pos_j (M, e), written to ``out`` if given, and distances (M,)
        over the pairs i < j."""
        diff = np.subtract(np.take(pos, self._iu, 0), np.take(pos, self._ju, 0), out=out)
        return diff, np.sqrt(np.einsum("mk,mk->m", diff, diff))

    def _pair_residuals(self, t: float, dist: np.ndarray) -> np.ndarray:
        """Y_ij - sigmoid(t + link_sign * dist_ij) over the pairs i < j; their sum is the theta-gradient."""
        return self._Y_pairs - sigmoid(t + self.link_sign * dist)

    def _tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Work buffers of :meth:`_latent_grad`: a weight table (2M + 1,) and a unit-vector table
        (2M + 1, e), each with a zero row 0; the (n, n, e) unit vectors rebuilt from it; and rows
        1 .. M of the unit-vector table, where :meth:`_pair_geometry` writes the pair differences."""
        m = self._iu.size
        weights, units = np.empty(2 * m + 1), np.empty((2 * m + 1, self.embed_dim))
        weights[0], units[0] = 0.0, 0.0
        return weights, units, np.empty((self.n_nodes, self.n_nodes, self.embed_dim)), units[1:m + 1]

    def _latent_grad(self, pos, dist, resid, tables) -> np.ndarray:
        """Latent gradient (n, e) at positions pos from their pair distances and residuals.

        ``tables`` comes from :meth:`_tables`, with the pair differences of pos in its last one,
        rows 1 .. M of its unit-vector table; they become the unit vectors, and rows 1 .. 2M of
        both tables are overwritten.
        """
        weights, units, unit, upper = tables
        m = dist.size
        np.multiply(resid, self.link_sign, out=weights[1:m + 1])
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
        # (the "wrap" mode is for speed: with an out array, "raise" buffers it; the slots are in range)
        grad_pos = np.einsum("ij,ijk->ik", weights.take(self._pair_slot),
                             units.take(self._pair_slot, 0, out=unit, mode="wrap"))
        if np.isfinite(self.prior_var_z):
            grad_pos -= pos / self.prior_var_z
        return grad_pos

    def log_joint(self, theta, z) -> float:
        t = as_flat(theta, 1, "theta")[0]
        pos = as_flat(z, self.d_z, "latent vector").reshape(self.n_nodes, self.embed_dim)
        eta = t + self.link_sign * self._pair_geometry(pos)[1]
        total = float((self._Y_pairs * eta - softplus(eta)).sum())
        if np.isfinite(self.prior_var_z):
            total -= 0.5 * np.sum(pos * pos) / self.prior_var_z
            total -= 0.5 * self.d_z * (LOG_2PI + np.log(self.prior_var_z))
        return total

    def grad_theta(self, theta, particles) -> np.ndarray:
        t = as_flat(theta, 1, "theta")[0]
        z = _checked(particles, d=self.d_z)[0]
        out = np.empty((z.shape[0], 1))
        for k in range(z.shape[0]):
            dist = self._pair_geometry(z[k].reshape(self.n_nodes, self.embed_dim))[1]
            out[k, 0] = self._pair_residuals(t, dist).sum()
        return out

    def grad_z(self, theta, particles, scratch=None) -> np.ndarray:
        t = as_flat(theta, 1, "theta")[0]
        z = _checked(particles, d=self.d_z)[0]
        out = np.empty_like(z)
        tables = self._tables()
        for k in range(z.shape[0]):
            pos = z[k].reshape(self.n_nodes, self.embed_dim)
            dist = self._pair_geometry(pos, out=tables[3])[1]
            out[k] = self._latent_grad(pos, dist, self._pair_residuals(t, dist), tables).ravel()
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
        tables = self._tables()
        for _ in range(_INIT_ITERS):
            pos = z.reshape(self.n_nodes, self.embed_dim)
            dist = self._pair_geometry(pos, out=tables[3])[1]
            theta = theta + _INIT_STEP * self._pair_residuals(theta[0], dist).sum()
            z = z + _INIT_STEP * self._latent_grad(pos, dist, self._pair_residuals(theta[0], dist),
                                                   tables).ravel()
        return theta, z + np.sqrt(0.1) * rng.standard_normal((n_particles, self.d_z))
