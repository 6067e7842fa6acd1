"""Latent space network model for binary undirected graphs.

Each node i carries a latent position z_(i) in R^embed_dim; an edge between
i and j is Bernoulli with logit theta + link_sign * ||z_(i) - z_(j)||. The
default link_sign = -1 makes nearby nodes more likely to connect (the standard
distance model); link_sign = +1 is available as a flag. Latents carry an
isotropic Gaussian prior with variance prior_var_z (set to inf to disable).

The flat latent vector has length d_z = n * embed_dim and reshapes row-major
to (n, embed_dim). Distances, sigmoids and edge terms are evaluated once per
unordered node pair (a table of the n(n-1)/2 pairs i < j built at construction),
with results bit-identical to a dense (n, n) evaluation.
"""

from __future__ import annotations

import numpy as np

from ..kernels import _pair_table
from .base import LOG_2PI, Model, as_latent, as_particles, as_theta
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
        if embed_dim < 1:
            raise ValueError(f"embed_dim must be >= 1, got {embed_dim}")
        if not prior_var_z > 0:
            raise ValueError(f"prior_var_z must be positive (or inf), got {prior_var_z}")
        if link_sign not in (-1.0, 1.0):
            raise ValueError(f"link_sign must be -1 or +1, got {link_sign}")
        self.Y = Y
        self.n_nodes = Y.shape[0]
        self.embed_dim = int(embed_dim)
        self.prior_var_z = float(prior_var_z)
        self.link_sign = float(link_sign)
        self.d_z = self.n_nodes * self.embed_dim
        # pair table: the M = n(n-1)/2 node pairs i < j in row-major order (the kernel layer's),
        # their edges, and each ordered (i, j)'s slot in a [0, pairs i<j, pairs j<i] table; the
        # indices are writeable copies, as np.take copies a read-only index array on every call
        iu, ju, slot = _pair_table(self.n_nodes)
        self._iu, self._ju = iu.copy(), ju.copy()
        self._Y_pairs = Y[self._iu, self._ju]
        self._pair_slot = slot + self._iu.size * np.tri(self.n_nodes, k=-1, dtype=np.intp)

    def _positions(self, z) -> np.ndarray:
        return as_latent(z, self.d_z).reshape(self.n_nodes, self.embed_dim)

    def _pair_geometry(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Differences pos_i - pos_j (M, e) and distances (M,) over the pairs i < j."""
        diff = np.take(pos, self._iu, 0) - np.take(pos, self._ju, 0)
        return diff, np.sqrt(np.einsum("mk,mk->m", diff, diff))

    def log_joint(self, theta, z) -> float:
        t = as_theta(theta, 1)[0]
        pos = self._positions(z)
        eta = t + self.link_sign * self._pair_geometry(pos)[1]
        total = float((self._Y_pairs * eta - softplus(eta)).sum())
        if np.isfinite(self.prior_var_z):
            total -= 0.5 * np.sum(pos * pos) / self.prior_var_z
            total -= 0.5 * self.d_z * (LOG_2PI + np.log(self.prior_var_z))
        return total

    def grad_theta(self, theta, particles) -> np.ndarray:
        t = as_theta(theta, 1)[0]
        z = as_particles(particles, self.d_z)
        out = np.empty((z.shape[0], 1))
        for k in range(z.shape[0]):
            dist = self._pair_geometry(self._positions(z[k]))[1]
            out[k, 0] = (self._Y_pairs - sigmoid(t + self.link_sign * dist)).sum()
        return out

    def grad_z(self, theta, particles) -> np.ndarray:
        t = as_theta(theta, 1)[0]
        z = as_particles(particles, self.d_z)
        out = np.empty_like(z)
        zero_unit = np.zeros((1, self.embed_dim))
        for k in range(z.shape[0]):
            pos = self._positions(z[k])
            diff, dist = self._pair_geometry(pos)
            weight = (self._Y_pairs - sigmoid(t + self.link_sign * dist)) * self.link_sign
            with np.errstate(divide="ignore", invalid="ignore"):
                unit = np.where(dist[:, None] > _COINCIDENT_TOL, diff / dist[:, None], 0.0)
            # rebuilding the full (n, n) weights (symmetric) and (n, n, e) unit vectors
            # (antisymmetric) keeps the sum over j in the dense order, bit for bit; where
            # -unit is -0.0 against a dense +0.0, the zero product cannot change the sum
            weight = np.take(np.concatenate(([0.0], weight, weight)), self._pair_slot)
            unit = np.take(np.concatenate((zero_unit, unit, -unit)), self._pair_slot, 0)
            grad_pos = np.einsum("ij,ijk->ik", weight, unit)
            if np.isfinite(self.prior_var_z):
                grad_pos -= pos / self.prior_var_z
            out[k] = grad_pos.ravel()
        return out

    def default_init(self, n_particles, rng):
        """Deterministic point-estimate fit, then particles jittered around it.

        Runs 2000 fixed-step (1e-2) gradient ascent iterations on log_joint
        from theta = 0, z ~ N(0, 1), then draws each initial particle from a
        N(z_hat, 0.1) (variance 0.1) around the fitted positions.
        """
        theta, z = np.zeros(1), rng.standard_normal((1, self.d_z))
        for _ in range(_INIT_ITERS):
            theta = theta + _INIT_STEP * self.grad_theta(theta, z)[0]
            z = z + _INIT_STEP * self.grad_z(theta, z)
        return theta, z + np.sqrt(0.1) * rng.standard_normal((n_particles, self.d_z))
