"""RBF kernel, median-heuristic bandwidth, and the kernelized update direction.

Particle clouds are arrays of shape (N, d): one row per particle, every value
finite. The kernel is k(z, z') = exp(-||z - z'||^2 / h) with bandwidth h > 0.
Every public function here first checks its input by one rule: the cloud must
be a non-empty (N, d) array with d >= 1, and a ``pair_sq`` must have the shape
(M,) of that cloud's pairs; anything else is a ValueError that names the shape.
The models and metrics check their clouds by the same rule, with their width d.

The kernel layer works on the condensed vector of the M = N(N-1)/2 pair
squared distances, in row-major i < j order (the order of scipy's ``pdist``):
:func:`pair_sq_dists` computes it once per cloud, and :func:`median_heuristic`,
:func:`rbf_matrix` and :func:`stein_direction` take it through their
``pair_sq`` keyword. Each value equals the one a dense (N, N, d) difference
tensor gives, bit for bit; :func:`pairwise_sq_dists` is its square form.

A kernelized step holds two arrays whose size grows with N^2 at once: the
(M,) pair vector and the (N, N) kernel matrix. :func:`rbf_matrix` and
:func:`stein_direction` take ``overwrite_pair_sq`` (after scipy's
``overwrite_a``): when True, the kernel values k = exp(-d / h) are written over
the given ``pair_sq``, if it is a writeable float64 array, and the matrix is
gathered from it. By default a given ``pair_sq`` is never written, and the
kernel values go to a fresh (M,) vector; a non-float64 or read-only one is
always copied. The run's step is the one caller that sets it, on the vector it
computed for that step. :func:`stein_direction` frees the kernel matrix before
it forms its (N, d) repulsion. The bandwidth h has one rule everywhere, that of
:func:`_bandwidth`: a real number, not a bool, finite and at least the smallest
normal float64 (``np.finfo(np.float64).tiny``).

In a run, :func:`pair_sq_dists` gathers its row chunks into the two halves of
the run's scratch slot 0, once a model has grown it (the logistic model keeps
its (N, n) logits there); a step of a model that grows no slot gathers them
into fresh chunks of at most 8192 values.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .scratch import Scratch

#: float64 values of each row set that :func:`pair_sq_dists` gathers at a time without scratch (64 KB),
#: and of each block of the logistic model's in-place sigmoid
_CHUNK = 8192


@functools.lru_cache(maxsize=4)
def _pair_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs i < j of n particles in row-major order, and each (i, j)'s pair index.

    ``index[i, j]`` is p for the p-th pair, for (i, j) and (j, i) alike, and -1
    on the diagonal, so ``pairs.take(index)`` is the symmetric (n, n) matrix of
    the M pair values with the last pair's value on the diagonal, which the
    caller then overwrites. ``index`` is the one (n, n) table: at n = 1000 a
    size holds 16 MB, and the cache keeps the last four sizes. The arrays are
    shared by this module's functions, which never write to them; another
    module takes copies. They stay writeable, because ``np.take`` copies a
    read-only index array before every gather.
    """
    iu, ju = np.triu_indices(n, 1)
    index = np.full((n, n), -1, dtype=np.intp)
    index[iu, ju] = index[ju, iu] = np.arange(iu.size)
    return iu, ju, index


#: the least bandwidth or gamma the rule takes: a subnormal gamma moves nothing, and a subnormal
#: bandwidth overflows the kernel's d / h
_LEAST_POSITIVE = float(np.finfo(np.float64).tiny)


def _is_positive_real(value) -> bool:
    """Whether ``value`` is a real number (a :class:`numbers.Real`, never a bool) that is finite and at
    least the smallest normal float64 as a float64: the one rule of a bandwidth, here and in
    ``algorithms.validate_run``, which applies it to gamma too."""
    # a float (numpy's float64 included) is a real number: a 30 ns check, where numbers.Real's takes 500
    real = isinstance(value, float) or isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:  # float(), not np.isfinite, which refuses a Python int past int64
        return real and _LEAST_POSITIVE <= float(value) < math.inf
    except OverflowError:  # a Python int past the largest float64
        return False


def _refusal(name: str, value) -> str:
    """The one message for a ``name`` that :func:`_is_positive_real` refuses."""
    return f"{name} must be a finite positive number, got {value!r}; the least allowed is {_LEAST_POSITIVE!r}"


def _bandwidth(h) -> float:
    """``h`` as a float, converted once; a ValueError unless :func:`_is_positive_real` holds."""
    if not _is_positive_real(h):
        raise ValueError(_refusal("bandwidth", h))
    return float(h)


def _checked(particles, pair_sq=None, d=None) -> tuple[np.ndarray, np.ndarray | None]:
    """The cloud as a float64 (N, d) array with N >= 1 and d >= 1 (d equal to ``d``, if given), and ``pair_sq``,
    if given, as a float64 vector of the shape (M,) of its condensed pair distances; anything else is a
    ValueError. The package's one particle-cloud rule: the models and metrics check their clouds here too."""
    z = np.asarray(particles, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 1 or z.shape[1] < 1 or d not in (None, z.shape[1]):
        width = f"{d}) array" if d else "d) array with d >= 1"
        raise ValueError(f"particles must be a non-empty (N, {width}, got shape {z.shape}")
    if pair_sq is not None:
        n = z.shape[0]
        m = n * (n - 1) // 2
        pair_sq = np.asarray(pair_sq, dtype=np.float64)
        if pair_sq.shape != (m,):
            raise ValueError(f"pair_sq must be the ({m},) condensed pair distances of {n} particles, "
                             f"got shape {pair_sq.shape}")
    return z, pair_sq


def pair_sq_dists(particles: np.ndarray, scratch: Scratch | None = None) -> np.ndarray:
    """Squared Euclidean distances of the pairs i < j, shape (M,) with M = N(N-1)/2.

    The pairs are in row-major order, as in ``scipy.spatial.distance.pdist``.
    Both row sets are gathered a chunk of pairs at a time, and each pair's sum
    of squares is the same per-row ``einsum`` as over a dense (N, N, d)
    difference tensor, so every value is bit-identical to it. The two chunks
    live in the two halves of slot 0 of ``scratch`` when a model has already
    grown it past 2 x 8192 values; otherwise they are fresh, of at most 8192
    values (two rows, if d is larger than 4096). This never grows ``scratch``,
    so a run whose model grows no slot holds none between steps.

    The kernel layer assumes finite particles (``run`` checks an explicit
    initialization). For finite input the diagonal of :func:`pairwise_sq_dists`
    is exactly 0, as in the dense form; for a row holding inf or nan the dense
    form gives nan there (inf - inf) and the square form 0.
    """
    z = _checked(particles)[0]
    iu, ju, _ = _pair_table(z.shape[0])
    m, d = iu.size, z.shape[1]
    if m == 1:  # the one pair of two particles, reduced in a taller einsum (see the loop below)
        return pair_sq_dists(z[[0, 1, 0]], scratch)[:1]
    grown = 0 if scratch is None else scratch.size(0) // 2
    rows = max(2, max(_CHUNK, grown) // d)
    halves = scratch.take(0, 2 * grown) if rows * d <= grown else None
    out = np.empty(m)
    for start in range(0, m, rows):
        # a one-row einsum of more than 8192 values (numpy's buffer size) sums them in another
        # order than a taller one, so a lone last row is reduced again with the row before it
        start = min(start, m - 2)
        i, j = iu[start:start + rows], ju[start:start + rows]
        size = i.size * d
        # the indices are in range, so mode="clip" changes nothing; "raise" would buffer ``out``
        diff = np.take(z, i, 0, out=None if halves is None else halves[:size].reshape(-1, d), mode="clip")
        other = np.take(z, j, 0, out=None if halves is None else halves[grown:grown + size].reshape(-1, d),
                        mode="clip")
        np.subtract(diff, other, out=diff)
        np.einsum("mk,mk->m", diff, diff, out=out[start:start + rows])
    return out


def pairwise_sq_dists(particles: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between all particle pairs, shape (N, N).

    The square form of :func:`pair_sq_dists`: exactly symmetric, with an
    exactly zero diagonal.
    """
    pair_sq = pair_sq_dists(particles)
    n = np.shape(particles)[0]
    if n == 1:
        return np.zeros((1, 1))
    square = pair_sq.take(_pair_table(n)[2])
    square.ravel()[::n + 1] = 0.0
    return square


def median_heuristic(particles: np.ndarray, *, pair_sq: np.ndarray | None = None) -> float:
    """Bandwidth h = med^2 / ln(N), med the median pair distance.

    Falls back to h = 1.0 when there are no pairs (N = 1) or when all particles
    coincide (med = 0). Even pair counts use the mean of the two middle order
    statistics. ``pair_sq``, if given, must equal ``pair_sq_dists(particles)``;
    it saves recomputing the distances.
    """
    z, pair_sq = _checked(particles, pair_sq)
    n = z.shape[0]
    if n < 2:
        return 1.0
    pair_sq = pair_sq_dists(z) if pair_sq is None else pair_sq
    # order statistics (m - 1) // 2 and m // 2 are the two middle values (one when m is odd).
    # sqrt is monotone and correctly rounded, so selecting before the sqrt matches np.median
    # exactly, and (a + b) / 2 in floats is the mean np.median takes of the two. One partition
    # and a min: on the clouds of a logistic fit, partitioning at both indices is 6x slower.
    m = pair_sq.size
    k = (m - 1) // 2
    part = np.partition(pair_sq, k)
    upper = part[k] if m % 2 else part[k + 1:].min()
    med = (math.sqrt(part[k]) + math.sqrt(upper)) / 2.0
    if med == 0.0:
        return 1.0
    return med * med / np.log(n)


def rbf_matrix(particles: np.ndarray, h: float, *, pair_sq: np.ndarray | None = None,
               overwrite_pair_sq: bool = False) -> np.ndarray:
    """Kernel matrix K[i, j] = exp(-||z_i - z_j||^2 / h), shape (N, N).

    The exponential is taken once per pair, into an (M,) vector, and the
    (N, N) matrix is gathered from it in one ``take``, with 1.0 then set on
    the diagonal. ``pair_sq``, if given, must equal ``pair_sq_dists(particles)``.
    Besides the result, the call holds that one (M,) vector: the distances it
    computes itself when ``pair_sq`` is None, which it overwrites; with
    ``overwrite_pair_sq=True``, the given ``pair_sq`` if it is a writeable
    float64 array, or else the float64 copy the call makes of it; and by
    default a fresh vector, so that a caller's array is never written. The
    values are the same either way, bit for bit.
    """
    h = _bandwidth(h)
    z, given = _checked(particles, pair_sq)
    n = z.shape[0]
    if n == 1:
        return np.ones((1, 1))
    if given is None:
        given = pairs = pair_sq_dists(z)
    elif overwrite_pair_sq and given.flags.writeable:  # the caller's float64 array, or this call's own copy
        pairs = given
    else:
        pairs = np.empty(given.size)
    with np.errstate(over="ignore"):  # d / h past the largest float64 is -inf, and exp(-inf) = 0 the exact limit
        np.divide(given, -h, out=pairs)
    np.exp(pairs, out=pairs)
    k = pairs.take(_pair_table(n)[2])
    k.ravel()[::n + 1] = 1.0  # the diagonal, through a view of the fresh matrix (np.fill_diagonal is 4x slower)
    return k


def stein_direction(
    particles: np.ndarray, grads: np.ndarray, h: float, *, pair_sq: np.ndarray | None = None,
    overwrite_pair_sq: bool = False
) -> np.ndarray:
    """Per-particle update velocity combining attraction and kernel repulsion.

    Row i is (1/N) * sum_j [ k(z_j, z_i) * grads[j] + grad_{z_j} k(z_j, z_i) ],
    where grads[j] is the log-density gradient at particle j and, for the RBF
    kernel, grad_{z_j} k(z_j, z_i) = (2/h) (z_i - z_j) k(z_j, z_i). ``pair_sq``,
    if given, must equal ``pair_sq_dists(particles)``. h is checked and
    converted to a float once, and that value serves the kernel and the
    repulsion alike. The kernel comes from :func:`rbf_matrix` under the same
    ``overwrite_pair_sq`` contract, so the call holds one (M,) vector of kernel
    values and the (N, N) matrix at once; with ``overwrite_pair_sq=True`` that
    vector is the given ``pair_sq``, if it is a writeable float64 array. The
    kernel matrix is freed before the (N, d) repulsion is formed, and the
    repulsion and the result are built in place: the call holds two (N, d)
    arrays of its own beside the matrix, and three after it is freed.
    """
    z, pair_sq = _checked(particles, pair_sq)
    g = np.asarray(grads, dtype=np.float64)
    if g.shape != z.shape:
        raise ValueError(f"grads shape {g.shape} does not match particles shape {z.shape}")
    h = _bandwidth(h)
    k = rbf_matrix(z, h, pair_sq=pair_sq, overwrite_pair_sq=overwrite_pair_sq)
    # K is symmetric; K.T keeps the sum-over-first-argument convention explicit.
    attraction = k.T @ g
    col_sums = k.sum(axis=0)
    pulled = k.T @ z
    del k  # the (N, N) kernel is freed before the (N, d) repulsion is formed
    repulsion = np.multiply(z, col_sums[:, None])
    np.subtract(repulsion, pulled, out=repulsion)
    np.multiply(2.0 / h, repulsion, out=repulsion)
    np.add(attraction, repulsion, out=attraction)
    return np.divide(attraction, z.shape[0], out=attraction)
