"""Evaluation quantities: MSE, particle moments, test error, Procrustes alignment."""

from __future__ import annotations

import numpy as np

from .kernels import _checked


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared componentwise difference of two equal-length vectors."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def particle_moments(particles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate sample mean and unbiased (N-1) sample variance.

    Requires N >= 2 particles for the variance to be defined.
    """
    z = _checked(particles)[0]
    if z.shape[0] < 2:
        raise ValueError("variance needs at least 2 particles")
    return z.mean(axis=0), z.var(axis=0, ddof=1)


def test_error(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Fraction of label disagreements between two {0,1} vectors."""
    p = np.asarray(predicted).ravel()
    a = np.asarray(actual).ravel()
    if p.shape != a.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {a.shape}")
    for name, v in (("predicted", p), ("actual", a)):
        if not np.all(np.isin(v, (0, 1))):
            raise ValueError(f"{name} labels must be 0 or 1")
    return float(np.mean(p != a))


def procrustes_align(reference: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal map of ``target`` onto ``reference``.

    Returns (aligned, T) with T the orthogonal d x d matrix minimizing
    ||reference - target @ T.T||_F, found from the SVD of reference.T @ target,
    and aligned = target @ T.T. No translation or scaling is applied; rank-0
    inputs yield the identity.
    """
    ref = np.asarray(reference, dtype=np.float64)
    tgt = np.asarray(target, dtype=np.float64)
    if ref.shape != tgt.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {tgt.shape}")
    if ref.ndim != 2 or ref.shape[0] < ref.shape[1]:
        raise ValueError(f"expected (n, d) with n >= d, got shape {ref.shape}")
    cross = ref.T @ tgt
    if not np.any(cross):
        t = np.eye(ref.shape[1])
    else:
        u, _, vh = np.linalg.svd(cross)
        t = u @ vh
    return tgt @ t.T, t
