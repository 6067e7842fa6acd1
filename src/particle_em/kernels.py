"""RBF kernel, median-heuristic bandwidth, and the kernelized update direction.

Particle clouds are arrays of shape (N, d): one row per particle. The kernel
is k(z, z') = exp(-||z - z'||^2 / h) with bandwidth h > 0.
"""

from __future__ import annotations

import numpy as np


def pairwise_sq_dists(particles: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between all particle pairs, shape (N, N).

    Computed from elementwise squared differences so the result is exactly
    symmetric with an exactly zero diagonal.
    """
    z = np.asarray(particles, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 1:
        raise ValueError(f"particles must be a non-empty (N, d) array, got shape {z.shape}")
    diff = z[:, None, :] - z[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def median_heuristic(particles: np.ndarray, sq: np.ndarray | None = None) -> float:
    """Bandwidth h = med^2 / ln(N), med the median off-diagonal pair distance.

    Falls back to h = 1.0 when there are no pairs (N = 1), when all particles
    coincide (med = 0), or when ln(N) = 0. Even pair counts use the mean of
    the two middle order statistics. ``sq``, if given, must equal
    ``pairwise_sq_dists(particles)``; it saves recomputing the distances.
    """
    z = np.asarray(particles, dtype=np.float64)
    n = z.shape[0]
    if n < 2:
        return 1.0
    if sq is None:
        sq = pairwise_sq_dists(z)
    # sq is exactly symmetric with a zero diagonal, so its sorted entries are N
    # zeros then each of the M pair values twice: order statistics k and k + 1
    # are the two middle pair values (equal when M is odd). sqrt is monotone and
    # correctly rounded, so selecting before the sqrt matches np.median exactly.
    k = n + n * (n - 1) // 2 - 1
    part = np.partition(sq.ravel(), k)
    med = float(np.mean(np.sqrt([part[k], part[k + 1:].min()])))
    log_n = np.log(n)
    if med == 0.0 or log_n == 0.0:
        return 1.0
    return med * med / log_n


def rbf_matrix(particles: np.ndarray, h: float, sq: np.ndarray | None = None) -> np.ndarray:
    """Kernel matrix K[i, j] = exp(-||z_i - z_j||^2 / h), shape (N, N).

    ``sq``, if given, must equal ``pairwise_sq_dists(particles)``.
    """
    h = float(h)
    if not np.isfinite(h) or h <= 0.0:
        raise ValueError(f"bandwidth must be a finite positive number, got {h}")
    if sq is None:
        sq = pairwise_sq_dists(particles)
    return np.exp(-sq / h)


def stein_direction(
    particles: np.ndarray, grads: np.ndarray, h: float, sq: np.ndarray | None = None
) -> np.ndarray:
    """Per-particle update velocity combining attraction and kernel repulsion.

    Row i is (1/N) * sum_j [ k(z_j, z_i) * grads[j] + grad_{z_j} k(z_j, z_i) ],
    where grads[j] is the log-density gradient at particle j and, for the RBF
    kernel, grad_{z_j} k(z_j, z_i) = (2/h) (z_i - z_j) k(z_j, z_i). ``sq``, if
    given, must equal ``pairwise_sq_dists(particles)``.
    """
    z = np.asarray(particles, dtype=np.float64)
    g = np.asarray(grads, dtype=np.float64)
    if g.shape != z.shape:
        raise ValueError(f"grads shape {g.shape} does not match particles shape {z.shape}")
    k = rbf_matrix(z, h, sq)
    n = z.shape[0]
    # K is symmetric; K.T keeps the sum-over-first-argument convention explicit.
    attraction = k.T @ g
    col_sums = k.sum(axis=0)
    repulsion = (2.0 / h) * (z * col_sums[:, None] - k.T @ z)
    return (attraction + repulsion) / n
