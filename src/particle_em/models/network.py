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
every method: it gathers a particle's pair differences pos_j - pos_i into the
rows of a term table reused from particle to particle and writes the pair
residuals in place into a weight table, with the sigmoid's exp values in slot 1
of a scratch (the one ``grad_z`` is passed, a fresh one elsewhere). The latent
gradient turns each pair row into node j's term from node i and writes its
negation, node i's term from node j, into a mirror row; one gather lays the
terms out as a dense (n, n, e) array, and a reduce over its first axis sums
each node's terms in the order of the dense ``einsum``. The point estimate of
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
        self._prior = bool(np.isfinite(self.prior_var_z))
        # theta + link_sign * d in one ufunc: link_sign is +-1, so its product is exact
        self._link = np.add if self.link_sign > 0 else np.subtract
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
        """A weight table (M,) and a term table (R, e) with a zero row 0.

        The weight table takes the pair residuals, and rows 1 .. M of the term table, the pair rows,
        the pair differences pos_j - pos_i (i < j). With ``mirror`` R = 2M + 1, and :meth:`_latent_grad`
        turns the pair rows into the terms of node j and rows M + 1 .. 2M into those of node i; else
        R = M + 1.
        """
        m = self._iu.size
        terms = np.empty(((2 if mirror else 1) * m + 1, self.embed_dim))
        terms[0] = 0.0
        return np.empty(m), terms

    def _pairs(self, pos: np.ndarray, tables, t: float | None = None, scratch: Scratch | None = None) -> np.ndarray:
        """Distances (M,) of the positions pos over the pairs i < j.

        Writes the differences pos_j - pos_i to the pair rows of the term table of ``tables``
        (from :meth:`_tables`), and with a theta ``t`` the residuals of :meth:`_residuals` to its
        weight table, taking slot 1 of ``scratch``.
        """
        m = self._iu.size
        # the "wrap" mode is for speed: with an out array, "raise" buffers it; the indices are in range
        diff = np.take(pos, self._ju, 0, out=tables[1][1:m + 1], mode="wrap")
        diff -= np.take(pos, self._iu, 0)
        dist = np.einsum("mk,mk->m", diff, diff)
        np.sqrt(dist, out=dist)
        if t is not None:
            self._residuals(t, dist, tables, scratch)
        return dist

    def _residuals(self, t: float, dist: np.ndarray, tables, scratch: Scratch) -> np.ndarray:
        """Y_ij - sigmoid(t + link_sign * dist_ij) over the pairs i < j, written in place to the weight
        table; their sum is the theta-gradient. The sigmoid's exp values go to slot 1 of ``scratch``."""
        resid = self._link(t, dist, out=tables[0])
        _sigmoid_in_place(resid, scratch)
        return np.subtract(self._Y_pairs, resid, out=resid)

    def _latent_grad(self, pos, dist, tables, gathered) -> np.ndarray:
        """Latent gradient (n, e) at positions pos from their pair distances, with the pair differences
        and residuals of :meth:`_pairs` in ``tables``; ``gathered`` (n, n, e) takes the dense terms.

        Node i's term from node j is the dense weight times unit vector, link_sign * resid_ij *
        (pos_i - pos_j) / dist_ij, 0 where the pair is coincident. The pair rows of the term table
        become node j's terms from node i and rows M + 1 .. 2M, their negations, node i's from node j;
        the weight table is overwritten too.
        """
        weights, terms = tables
        m = dist.size
        pair = terms[1:m + 1]
        np.multiply(weights, self.link_sign, out=weights)
        # one strided column at a time: an (M, e) broadcast of the (M,) operands runs M loops of e
        with np.errstate(divide="ignore", invalid="ignore"):
            for k in range(self.embed_dim):
                np.divide(pair[:, k], dist, out=pair[:, k])
        if not dist.min(initial=np.inf) > _COINCIDENT_TOL:  # a nan distance too
            pair[~(dist > _COINCIDENT_TOL)] = 0.0
        for k in range(self.embed_dim):
            np.multiply(pair[:, k], weights, out=pair[:, k])
        np.negative(pair, out=terms[m + 1:])
        # gathered[a, b] is node b's term from node a, so the sum over axis 0 runs over a in ascending
        # order from +0.0: the dense einsum("ij,ijk->ik") order at e >= 2, bit for bit (a zero term
        # signed unlike the dense product cannot change a sum that starts from +0.0)
        terms.take(self._pair_slot, 0, out=gathered, mode="wrap")
        if self.embed_dim == 1:  # einsum's own order over j at e = 1; -gathered[i, j] is i's term from j
            grad_pos = np.einsum("ij,ijk->ik", np.full(self._pair_slot.shape, -1.0), gathered)
        else:
            grad_pos = np.add.reduce(gathered, 0, initial=0.0)
        if self._prior:
            grad_pos -= pos / self.prior_var_z
        return grad_pos

    def log_joint(self, theta, z) -> float:
        t = as_flat(theta, 1, "theta")[0]
        pos = as_flat(z, self.d_z, "latent vector").reshape(self.n_nodes, self.embed_dim)
        eta = self._link(t, self._pairs(pos, self._tables(mirror=False)))
        total = float((self._Y_pairs * eta - softplus(eta)).sum())
        if self._prior:
            total -= 0.5 * np.sum(pos * pos) / self.prior_var_z
            total -= 0.5 * self.d_z * (LOG_2PI + np.log(self.prior_var_z))
        return total

    def grad_theta(self, theta, particles) -> np.ndarray:
        t = as_flat(theta, 1, "theta")[0]
        z = _checked(particles, d=self.d_z)[0]
        out = np.empty((z.shape[0], 1))
        tables, scratch = self._tables(mirror=False), Scratch()
        for k in range(z.shape[0]):
            self._pairs(z[k].reshape(self.n_nodes, self.embed_dim), tables, t, scratch)
            out[k, 0] = tables[0].sum()
        return out

    def grad_z(self, theta, particles, scratch=None) -> np.ndarray:
        """Latent gradients, one particle at a time in one set of pair tables; the sigmoid of the
        pair residuals takes slot 1 of ``scratch`` (a fresh one without it)."""
        t = as_flat(theta, 1, "theta")[0]
        z = _checked(particles, d=self.d_z)[0]
        scratch = Scratch() if scratch is None else scratch
        out = np.empty_like(z)
        tables, gathered = self._tables(), np.empty((self.n_nodes, self.n_nodes, self.embed_dim))
        for k in range(z.shape[0]):
            pos = z[k].reshape(self.n_nodes, self.embed_dim)
            dist = self._pairs(pos, tables, t, scratch)
            out[k] = self._latent_grad(pos, dist, tables, gathered).ravel()
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
        tables, gathered = self._tables(), np.empty((self.n_nodes, self.n_nodes, self.embed_dim))
        scratch = Scratch()
        for _ in range(_INIT_ITERS):
            pos = z.reshape(self.n_nodes, self.embed_dim)
            dist = self._pairs(pos, tables, theta[0], scratch)
            theta = theta + _INIT_STEP * tables[0].sum()
            self._residuals(theta[0], dist, tables, scratch)
            z = z + _INIT_STEP * self._latent_grad(pos, dist, tables, gathered).ravel()
        return theta, z + np.sqrt(0.1) * rng.standard_normal((n_particles, self.d_z))
