import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import particle_em
from particle_em import algorithms, kernels
from particle_em.algorithms import ALGORITHMS, RunConfig, State, run, validate_run
from particle_em.kernels import (
    median_heuristic,
    pair_sq_dists,
    pairwise_sq_dists,
    rbf_matrix,
    stein_direction,
)
from particle_em.models import GaussianHierarchicalModel, LatentSpaceNetworkModel
from particle_em.scratch import Scratch
from helpers import (
    assert_bitwise_equal,
    median_heuristic_naive,
    pairwise_sq_dists_naive,
    planted_two_community_network,
    stein_dense,
    stein_naive,
)


#: coordinate values: moderate reals, an integer grid (ties), and magnitudes
#: whose squared differences overflow to inf
COORDS = {
    "real": st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
    "grid": st.integers(-3, 3).map(float),
    "huge": st.floats(1e154, 1e200).flatmap(lambda x: st.sampled_from([x, -x, 0.0])),
}


@st.composite
def clouds(draw, max_n=64, max_d=6, kinds=tuple(COORDS)):
    """(N, d) clouds, N in [1, max_n], d in [1, max_d]; some rows repeated (coincident particles)."""
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(1, max_d))
    kind = draw(st.sampled_from(kinds))
    distinct = draw(st.integers(1, n))
    rows = draw(hnp.arrays(np.float64, (distinct, d), elements=COORDS[kind]))
    pick = draw(hnp.arrays(np.intp, n, elements=st.integers(0, distinct - 1)))
    return rows[pick]


moderate_clouds = clouds(max_n=24, kinds=("real", "grid"))


class TestPairwiseSqDists:
    def test_single_particle(self):
        np.testing.assert_array_equal(pairwise_sq_dists(np.array([[0.0]])), [[0.0]])

    def test_two_particles_1d(self):
        np.testing.assert_array_equal(
            pairwise_sq_dists(np.array([[0.0], [2.0]])), [[0.0, 4.0], [4.0, 0.0]]
        )

    def test_two_particles_2d(self):
        # 3-4-5 triangle: squared distance 25
        d = pairwise_sq_dists(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert d[0, 1] == 25.0

    def test_properties_random(self):
        z = np.random.default_rng(0).standard_normal((17, 3))
        d = pairwise_sq_dists(z)
        np.testing.assert_array_equal(d, d.T)  # bitwise symmetric
        np.testing.assert_array_equal(np.diag(d), np.zeros(17))
        assert np.all(d >= 0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pairwise_sq_dists(np.empty((0, 2)))


#: explicit clouds at the shapes of the logistic workload (N=100, d=30) and beyond it
LARGE_CLOUDS = [np.random.default_rng(n).standard_normal((n, 30)) for n in (100, 300)]


class TestPairSqDists:
    """The condensed pair vector and every kernel function on it, bit for bit against the
    dense (N, N, d) path of ``helpers``."""

    def test_single_particle_has_no_pairs(self):
        assert pair_sq_dists(np.array([[1.0, 2.0]])).shape == (0,)

    def test_hand_values_in_row_major_order(self):
        z = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
        np.testing.assert_array_equal(pair_sq_dists(z), [25.0, 1.0, 18.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pair_sq_dists(np.empty((0, 2)))

    @pytest.mark.parametrize("call", [
        lambda z, p: pair_sq_dists(z), lambda z, p: pairwise_sq_dists(z),
        lambda z, p: median_heuristic(z), lambda z, p: median_heuristic(z, pair_sq=p),
        lambda z, p: rbf_matrix(z, 1.0), lambda z, p: rbf_matrix(z, 1.0, pair_sq=p),
        lambda z, p: stein_direction(z, z, 1.0), lambda z, p: stein_direction(z, z, 1.0, pair_sq=p),
    ], ids=["pair_sq_dists", "pairwise_sq_dists", "median_heuristic", "median_heuristic-pair_sq",
            "rbf_matrix", "rbf_matrix-pair_sq", "stein_direction", "stein_direction-pair_sq"])
    def test_rejects_a_cloud_without_coordinates(self, call):
        # no coordinate, no particle, or not two axes; each with a pair_sq of the length its N has
        for shape in [(1, 0), (0, 2), (3,), (1, 1, 1), (4, 0)]:
            n = shape[0]
            with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
                call(np.empty(shape), np.zeros(n * (n - 1) // 2))

    @staticmethod
    def grown(values):
        """A scratch whose slot 0 has two halves of ``values`` values each, the chunk buffers."""
        scratch = Scratch()
        scratch.take(0, 2 * values)
        return scratch

    @pytest.mark.parametrize("n,d,values", [
        # fresh chunks: the 45 pairs of 10 particles under, at and one row over a chunk of 8192 values
        (10, 178, 0), (10, 182, 0), (10, 183, 0),
        # rows longer than a chunk; one pair; no pair
        (9, 8193, 0), (3, 9000, 0), (2, 9000, 0), (2, 3, 0), (1, 9000, 0),
        # a grown scratch: 7 chunks; 7 chunks and a lone last row; one chunk; a lone last row of long
        # rows; a scratch too small to use; one pair of long rows
        (100, 30, 22750), (100, 30, 707 * 30), (100, 30, 4950 * 30),
        (5, 9000, 3 * 9000), (10, 1, 8191), (2, 8193, 10**5)])
    def test_chunks_match_the_dense_path_bitwise(self, n, d, values):
        z = np.random.default_rng(n * d).standard_normal((n, d))
        want = pairwise_sq_dists_naive(z)[np.triu_indices(n, 1)]
        scratch = self.grown(values)
        assert_bitwise_equal(pair_sq_dists(z, scratch), want)
        assert scratch.size(0) == 2 * values and scratch.size(1) == 0  # used, never grown

    @pytest.mark.parametrize("n,d", [(2, 1), (7, 3), (100, 30), (40, 9000)])
    def test_order_matches_scipy_pdist(self, n, d):
        from scipy.spatial.distance import pdist

        z = np.random.default_rng(n + d).standard_normal((n, d))
        np.testing.assert_allclose(pair_sq_dists(z), pdist(z, "sqeuclidean"), rtol=1e-12)

    @staticmethod
    def check_dense(z, h):
        dense = pairwise_sq_dists_naive(z)
        n = z.shape[0]
        assert_bitwise_equal(pair_sq_dists(z), dense[np.triu_indices(n, 1)])
        assert_bitwise_equal(pairwise_sq_dists(z), dense)
        assert_bitwise_equal(median_heuristic(z), median_heuristic_naive(z))
        with np.errstate(over="ignore"):  # huge clouds: sq / h overflows to inf on both paths
            assert_bitwise_equal(rbf_matrix(z, h), np.exp(-dense / h))

    @given(clouds(), st.floats(0.05, 20.0))
    def test_matches_the_dense_path_bitwise(self, z, h):
        self.check_dense(z, h)

    @pytest.mark.parametrize("z", LARGE_CLOUDS, ids=lambda z: f"{z.shape[0]}x{z.shape[1]}")
    def test_large_clouds_match_the_dense_path_bitwise(self, z):
        self.check_dense(z, median_heuristic(z))
        g = np.random.default_rng(1).standard_normal(z.shape)
        h = median_heuristic(z)
        assert_bitwise_equal(stein_direction(z, g, h), stein_dense(z, g, h))

    @given(st.data(), moderate_clouds, st.floats(0.05, 20.0))
    def test_stein_direction_matches_the_dense_path_bitwise(self, data, z, h):
        g = data.draw(hnp.arrays(np.float64, z.shape, elements=COORDS["real"]))
        assert_bitwise_equal(stein_direction(z, g, h), stein_dense(z, g, h))

    def test_a_square_distance_matrix_fails_loudly(self):
        z = np.random.default_rng(2).standard_normal((5, 2))
        square = pairwise_sq_dists(z)
        for call in (lambda: median_heuristic(z, pair_sq=square),
                     lambda: rbf_matrix(z, 1.0, pair_sq=square),
                     lambda: stein_direction(z, z, 1.0, pair_sq=square)):
            with pytest.raises(ValueError, match=r"pair_sq must be the \(10,\) condensed"):
                call()
        with pytest.raises(TypeError):
            median_heuristic(z, square)


class TestMedianHeuristic:
    def test_single_particle_fallback(self):
        assert median_heuristic(np.array([[3.0]])) == 1.0

    def test_coincident_fallback(self):
        assert median_heuristic(np.zeros((4, 2))) == 1.0

    def test_three_points_1d(self):
        # distances {1, 2, 3} -> median 2 -> h = 4 / ln 3
        h = median_heuristic(np.array([[0.0], [1.0], [3.0]]))
        assert h == pytest.approx(4.0 / np.log(3.0), rel=1e-15)

    def test_even_count_averages_middle_pair(self):
        # distances {1,1,1,2,2,3} -> median (1+2)/2 = 1.5
        h = median_heuristic(np.array([[0.0], [1.0], [2.0], [3.0]]))
        assert h == pytest.approx(1.5**2 / np.log(4.0), rel=1e-15)

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((9, 4))
        shift = rng.standard_normal(4) * 10
        assert median_heuristic(z) == pytest.approx(median_heuristic(z + shift), rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((11, 2))
        perm = rng.permutation(11)
        assert median_heuristic(z) == median_heuristic(z[perm])

    @given(clouds())
    def test_matches_np_median_reference_bitwise(self, z):
        want = median_heuristic_naive(z)
        assert_bitwise_equal(median_heuristic(z), want)
        assert_bitwise_equal(median_heuristic(z, pair_sq=pair_sq_dists(z)), want)

    def test_every_cloud_size_up_to_64_on_an_integer_grid(self):
        # odd and even pair counts M = N(N-1)/2, with ties and coincident particles
        rng = np.random.default_rng(8)
        parities = set()
        for n in range(1, 65):
            for d in (1, 3):
                z = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
                assert_bitwise_equal(median_heuristic(z), median_heuristic_naive(z))
            parities.add(n * (n - 1) // 2 % 2)
        assert parities == {0, 1}

    def test_overflowing_cloud_gives_inf(self):
        z = np.array([[1e200], [-1e200], [0.0]])
        assert median_heuristic(z) == np.inf == median_heuristic_naive(z)


class TestRbfMatrix:
    def test_identical_particles_all_ones(self):
        np.testing.assert_array_equal(rbf_matrix(np.zeros((5, 2)), 2.0), np.ones((5, 5)))

    def test_hand_values(self):
        k = rbf_matrix(np.array([[0.0], [1.0]]), 1.0)
        assert k[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-15)
        k = rbf_matrix(np.array([[0.0], [2.0]]), 4.0)
        assert k[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-15)

    def test_unit_diagonal_and_symmetry(self):
        z = np.random.default_rng(3).standard_normal((8, 3))
        k = rbf_matrix(z, 0.7)
        np.testing.assert_array_equal(np.diag(k), np.ones(8))
        np.testing.assert_array_equal(k, k.T)
        assert np.all(k > 0) and np.all(k <= 1)

    def test_rejects_bad_bandwidth(self):
        z = np.zeros((2, 1))
        for h in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                rbf_matrix(z, h)

    @given(clouds(), st.floats(0.05, 20.0))
    def test_precomputed_distances_give_the_same_matrix(self, z, h):
        assert_bitwise_equal(rbf_matrix(z, h, pair_sq=pair_sq_dists(z)), rbf_matrix(z, h))


class TestSteinDirection:
    def test_single_particle_reduces_to_gradient(self):
        g = np.array([[1.5, -2.0]])
        np.testing.assert_array_equal(stein_direction(np.zeros((1, 2)), g, 1.0), g)

    def test_pure_repulsion_two_particles(self):
        # zero gradients: phi = [-e^{-1}, +e^{-1}]
        phi = stein_direction(np.array([[0.0], [1.0]]), np.zeros((2, 1)), 1.0)
        np.testing.assert_allclose(phi, [[-np.exp(-1)], [np.exp(-1)]], rtol=1e-15)

    def test_zero_gradient_antisymmetry(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((2, 5))
        phi = stein_direction(z, np.zeros((2, 5)), 0.9)
        np.testing.assert_allclose(phi[0], -phi[1], rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 3), (7, 2), (23, 6), (50, 20)])
    def test_matches_naive_double_loop(self, n, d):
        rng = np.random.default_rng(n * 100 + d)
        z = rng.standard_normal((n, d))
        g = rng.standard_normal((n, d))
        h = 0.5 + rng.random()
        np.testing.assert_allclose(stein_direction(z, g, h), stein_naive(z, g, h), atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((9, 3))
        g = rng.standard_normal((9, 3))
        perm = rng.permutation(9)
        phi = stein_direction(z, g, 1.3)
        phi_perm = stein_direction(z[perm], g[perm], 1.3)
        np.testing.assert_allclose(phi_perm, phi[perm], atol=1e-12)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            stein_direction(np.zeros((3, 2)), np.zeros((3, 3)), 1.0)

    @given(st.data(), moderate_clouds, st.floats(0.05, 20.0))
    def test_precomputed_distances_give_the_same_direction(self, data, z, h):
        g = data.draw(hnp.arrays(np.float64, z.shape, elements=COORDS["real"]))
        assert_bitwise_equal(stein_direction(z, g, h, pair_sq=pair_sq_dists(z)), stein_direction(z, g, h))

    @given(st.data(), moderate_clouds, st.floats(0.05, 20.0))
    def test_permutation_equivariance_property(self, data, z, h):
        g = data.draw(hnp.arrays(np.float64, z.shape, elements=COORDS["real"]))
        perm = data.draw(st.permutations(range(z.shape[0])))
        phi = stein_direction(z, g, h)
        np.testing.assert_allclose(stein_direction(z[perm], g[perm], h), phi[perm], rtol=1e-9, atol=1e-9)

    @given(st.data(), moderate_clouds, st.floats(0.05, 20.0))
    def test_translation_invariance_property(self, data, z, h):
        g = data.draw(hnp.arrays(np.float64, z.shape, elements=COORDS["real"]))
        shift = data.draw(hnp.arrays(np.float64, z.shape[1], elements=st.floats(-10.0, 10.0)))
        phi = stein_direction(z, g, h)
        np.testing.assert_allclose(stein_direction(z + shift, g, h), phi, rtol=1e-9, atol=1e-9)

    @given(
        hnp.arrays(np.float64, st.tuples(st.just(1), st.integers(1, 6)), elements=COORDS["real"]),
        st.data(),
        st.floats(1e-3, 1e3),
    )
    def test_single_particle_reduces_to_gradient_property(self, z, data, h):
        g = data.draw(hnp.arrays(np.float64, z.shape, elements=COORDS["real"]))
        assert_bitwise_equal(stein_direction(z, g, h), g)


#: the smallest normal float64, the least bandwidth the rule takes
TINY = float(np.finfo(np.float64).tiny)
#: bandwidths outside the one rule: bools, a string, zero, negatives, nan, infinities, an int past float64
#: and the smallest subnormal
BAD_BANDWIDTHS = [True, False, "1.5", 0, 0.0, -1.0, np.nan, np.inf, -np.inf, np.float32(0.0), 10 ** 400, 5e-324]
#: bandwidths inside it: Python, numpy and fractional reals, down to the smallest normal float64
GOOD_BANDWIDTHS = [1, 0.7, np.int64(2), np.float32(0.7), Fraction(1, 3), TINY, 1e308]


class TestBandwidthRule:
    """h is checked once, by one rule (a real number, not a bool, finite and > 0), and converted once."""

    z = np.array([[0.0], [1.0], [3.0]])

    @pytest.mark.parametrize("h", BAD_BANDWIDTHS, ids=lambda h: repr(h)[:24])
    def test_both_kernel_functions_refuse_it(self, h):
        message = re.escape(f"bandwidth must be a finite positive number, got {h!r}")
        with pytest.raises(ValueError, match=message):
            rbf_matrix(self.z, h)
        with pytest.raises(ValueError, match=message):
            stein_direction(self.z, np.ones((3, 1)), h)

    @pytest.mark.parametrize("h", BAD_BANDWIDTHS + GOOD_BANDWIDTHS, ids=lambda h: repr(h)[:24])
    def test_validate_run_applies_the_same_rule(self, h):
        problems = validate_run("svgd_em", RunConfig(gamma=0.1, bandwidth=h))
        try:
            rbf_matrix(self.z, h)
        except ValueError as err:
            assert problems == [str(err)] and any(h is bad for bad in BAD_BANDWIDTHS)
        else:
            assert problems == [] and any(h is good for good in GOOD_BANDWIDTHS)

    def test_the_refusal_names_the_least_bandwidth(self):
        with pytest.raises(ValueError, match=re.escape(f"got 5e-324; the least allowed is {TINY!r}")):
            rbf_matrix(self.z, 5e-324)

    def test_the_least_bandwidth_gives_finite_values_without_a_warning(self):
        # every d / h past the largest float64 is -inf, whose exp is the exact limit 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = rbf_matrix(self.z, TINY)
            phi = stein_direction(self.z, np.ones((3, 1)), TINY)
        assert_bitwise_equal(k, np.eye(3))
        assert np.all(np.isfinite(phi))

    def test_a_float32_bandwidth_serves_kernel_and_repulsion_as_one_float(self):
        rng = np.random.default_rng(12)
        z, g, h = rng.standard_normal((7, 2)), rng.standard_normal((7, 2)), np.float32(0.7)
        assert_bitwise_equal(stein_direction(z, g, h), stein_direction(z, g, float(h)))
        assert_bitwise_equal(rbf_matrix(z, h), rbf_matrix(z, float(h)))


class TestOverwriteContract:
    """A given ``pair_sq`` is written only with ``overwrite_pair_sq=True``, and only if it is a writeable
    float64 array; the results are bit for bit the same either way."""

    @given(clouds(), st.floats(0.05, 20.0))
    @example(np.array([[0.5]]), 1.0)
    @example(np.array([[0.0, 1.0], [2.0, -1.0]]), 0.3)
    def test_pair_sq_is_written_only_when_asked(self, z, h):
        n = z.shape[0]
        g = np.sin(np.arange(z.size, dtype=np.float64)).reshape(z.shape)
        kept = pair_sq_dists(z)
        pair_sq = kept.copy()
        k, phi = rbf_matrix(z, h, pair_sq=pair_sq), stein_direction(z, g, h, pair_sq=pair_sq)
        assert_bitwise_equal(pair_sq, kept)
        assert_bitwise_equal(k, rbf_matrix(z, h))
        # asked: the same results, and the vector now holds the pairs' kernel values
        for call, expected in ((lambda p: rbf_matrix(z, h, pair_sq=p, overwrite_pair_sq=True), k),
                               (lambda p: stein_direction(z, g, h, pair_sq=p, overwrite_pair_sq=True), phi)):
            pair_sq = kept.copy()
            assert_bitwise_equal(call(pair_sq), expected)
            assert_bitwise_equal(pair_sq, k[np.triu_indices(n, 1)])
        # a read-only, byte-swapped or float32 vector is copied, never written
        read_only = kept.copy()
        read_only.flags.writeable = False
        for other in (read_only, kept.astype(">f8"), kept.astype(np.float32)):
            before = other.copy()
            as_float64 = other.astype(np.float64)
            assert_bitwise_equal(rbf_matrix(z, h, pair_sq=other, overwrite_pair_sq=True),
                                 rbf_matrix(z, h, pair_sq=as_float64))
            assert_bitwise_equal(stein_direction(z, g, h, pair_sq=other, overwrite_pair_sq=True),
                                 stein_direction(z, g, h, pair_sq=as_float64))
            assert other.dtype == before.dtype and other.tobytes() == before.tobytes()


@pytest.mark.parametrize("h", [0.7, None], ids=["fixed-bandwidth", "median-heuristic"])
def test_a_kernelized_step_holds_the_pairs_and_the_kernel_only(h):
    """A warm svgd_em step on a (300, 1) toy cloud peaks under (M + N^2 + 4096) float64 values: the
    step's pair vector and kernel matrix, plus room for its (N, d) temporaries. A step that copies the
    pairs' kernel values into a third vector holds M more (about 360 KB here)."""
    n = 300
    m = n * (n - 1) // 2
    model = GaussianHierarchicalModel(np.array([0.7]))
    state = State(theta=np.zeros(1), particles=np.random.default_rng(1).standard_normal((n, 1)), gamma=0.1)
    scratch = Scratch()
    algorithms.step(state, model, *ALGORITHMS["svgd_em"], h, scratch=scratch)  # warm: the cached index tables
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        algorithms.step(state, model, *ALGORITHMS["svgd_em"], h, scratch=scratch)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < (m + n * n + 4096) * 8, (peak, (m + n * n) * 8)


class TestSharedDistances:
    """Each kernelized step builds the condensed pair distances once, fixed bandwidth or not,
    and never the (N, N) square form."""

    @staticmethod
    def counting(monkeypatch):
        calls = []
        for name in ("pair_sq_dists", "pairwise_sq_dists"):
            inner = getattr(kernels, name)

            def counted(particles, *scratch, name=name, inner=inner):
                calls.append(name)
                return inner(particles, *scratch)

            monkeypatch.setattr(kernels, name, counted)
        return calls

    @staticmethod
    def setup(algorithm):
        model = GaussianHierarchicalModel(np.array([0.5, -1.0]))
        z = np.random.default_rng(9).standard_normal((6, 2))
        theta = np.zeros(1)
        if algorithm in ("svgd_em", "marginal_svgd_em", "pgd"):
            return State(theta=theta, particles=z, gamma=0.1), model
        return State.initial(algorithm, theta, z), model

    @pytest.mark.parametrize("h", [None, 0.7])
    @pytest.mark.parametrize(
        "algorithm", ["svgd_em", "coin_em", "adaptive_coin_em", "marginal_svgd_em", "marginal_coin_em"]
    )
    def test_one_distance_matrix_per_step(self, monkeypatch, algorithm, h):
        state, model = self.setup(algorithm)
        calls = self.counting(monkeypatch)
        getattr(algorithms, f"{algorithm}_step")(state, model, h)
        assert calls == ["pair_sq_dists"]

    def test_pgd_builds_none(self, monkeypatch):
        state, model = self.setup("pgd")
        calls = self.counting(monkeypatch)
        algorithms.pgd_step(state, model, np.random.default_rng(0))
        assert calls == []


def test_runs_leave_the_shared_pair_tables_intact():
    # the cached tables are writeable (np.take copies a read-only index array on every gather),
    # so nothing may write to them: after toy and network runs they still equal fresh ones
    toy = GaussianHierarchicalModel(np.array([0.5, -1.0, 2.0]))
    network = LatentSpaceNetworkModel(planted_two_community_network(8, n=7)[0], embed_dim=2)
    for model, n_particles in ((toy, 9), (network, 6)):
        for algorithm, options in (("pgd", {"gamma": 0.01}), ("adaptive_coin_em", {}),
                                   ("coin_em", {"particle_grads_use_new_theta": False})):
            run(algorithm, model, RunConfig(n_particles=n_particles, n_iters=5, seed=2, **options))
    # the network model keeps its own indices, so no model object holds the shared ones
    assert not any(np.shares_memory(own, shared) for own in (network._iu, network._ju)
                   for shared in kernels._pair_table(7))
    for n in (9, 7, 6):
        iu, ju, index = kernels._pair_table(n)
        fresh_iu, fresh_ju = np.triu_indices(n, 1)
        fresh_index = np.full((n, n), -1, dtype=np.intp)
        fresh_index[fresh_iu, fresh_ju] = fresh_index[fresh_ju, fresh_iu] = np.arange(fresh_iu.size)
        for cached, fresh in ((iu, fresh_iu), (ju, fresh_ju), (index, fresh_index)):
            assert cached.dtype == fresh.dtype and np.array_equal(cached, fresh)


def test_kernel_gradient_matches_finite_differences():
    # d/dz_j exp(-||z_j - z_i||^2 / h) = (2/h)(z_i - z_j) k(z_j, z_i)
    rng = np.random.default_rng(6)
    h = 1.7
    for _ in range(20):
        zi = rng.standard_normal(3)
        zj = rng.standard_normal(3)
        analytic = (2.0 / h) * (zi - zj) * np.exp(-np.sum((zj - zi) ** 2) / h)
        fd = np.empty(3)
        for k in range(3):
            step = 1e-6 * (1.0 + abs(zj[k]))
            e = np.zeros(3)
            e[k] = step
            up = np.exp(-np.sum((zj + e - zi) ** 2) / h)
            down = np.exp(-np.sum((zj - e - zi) ** 2) / h)
            fd[k] = (up - down) / (2 * step)
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-9)


FAULT_GUARD = """
import resource
import numpy as np
from particle_em import BayesianLogisticRegression, RunConfig, run

rng = np.random.default_rng(455)
X = rng.standard_normal((455, 30))
y = (rng.random(455) < 1.0 / (1.0 + np.exp(-0.5 * X @ rng.standard_normal(30)))).astype(float)
model = BayesianLogisticRegression(X, y)
config = RunConfig(n_particles=100, n_iters=200, seed=3, record_every=200)
run("adaptive_coin_em", model, config)  # warm-up
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run("adaptive_coin_em", model, config)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / config.n_iters)
"""


#: put before a fault script's measured run for a diagnostic rerun: it counts the minor faults after each
#: step of that run, reads glibc's ``keepcost`` (the free bytes at the heap top) after each step, and prints
#: glibc's heap statistics (``mallinfo2``) before and after the run
FAULT_DIAGNOSIS = """
import ctypes
from particle_em import algorithms


class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in ("arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
                                                     "fsmblks", "uordblks", "fordblks", "keepcost")]


mallinfo2 = getattr(ctypes.CDLL(None), "mallinfo2", None)
if mallinfo2 is not None:
    mallinfo2.argtypes, mallinfo2.restype = [], Mallinfo2


def heap():
    if mallinfo2 is None:
        return "no mallinfo2 in this C library"
    info = mallinfo2()
    return {name: getattr(info, name) for name, _ in Mallinfo2._fields_}


step, step_faults, step_keepcost = algorithms.step, [], []


def counted_step(*args, **kwargs):
    state = step(*args, **kwargs)
    step_faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    step_keepcost.append(None if mallinfo2 is None else mallinfo2().keepcost)
    return state


algorithms.step = counted_step  # looked up at each call, so every step of the measured run counts
print("heap before the measured run:", heap())
"""
FAULT_DIAGNOSIS_END = """
print("heap after the measured run:", heap())
print("minor faults of each step, the first with the run's set-up:", np.diff([before] + step_faults).tolist())
print("keepcost after each step:", step_keepcost)
print("minor faults after the last step:", resource.getrusage(resource.RUSAGE_SELF).ru_minflt - step_faults[-1])
"""


def _diagnostic(script: str) -> str:
    """The fault script with its measured run instrumented by FAULT_DIAGNOSIS."""
    head, measured, tail = script.partition("before = ")
    return head + FAULT_DIAGNOSIS + measured + tail + FAULT_DIAGNOSIS_END


def _run_fault_script(script: str) -> str:
    """Run a fault script in one fresh subprocess, so this process's heap cannot hide a fault, from the
    file system root and with only PATH and PYTHONPATH set, so that the heap layout does not depend on
    where the tests run or on the caller's environment (BLAS is not pinned); return what it prints."""
    pytest.importorskip("resource")
    env = {"PATH": os.environ.get("PATH", os.defpath),
           "PYTHONPATH": str(Path(particle_em.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=os.path.abspath(os.sep),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def _check_faults_per_warm_step(script: str, bound: float = 1.0) -> None:
    """Assert the fault script reads under ``bound`` minor faults per warm step. A reading at or past it
    reruns the script once in diagnostic mode, after the measured subprocess has exited, and puts its
    per-step faults and heap statistics in the assertion message."""
    faults_per_step = float(_run_fault_script(script).split()[-1])
    print(f"{faults_per_step} minor page faults per warm step")
    assert faults_per_step < bound, (f"{faults_per_step} minor page faults per warm step; a diagnostic rerun "
                                     f"printed:\n{_run_fault_script(_diagnostic(script))}")


def test_logreg_steps_reuse_their_pages():
    """A warm 455x30 logistic fit at N=100 takes under one minor page fault per step.

    The step's large temporaries, the pair-distance chunks and the logistic model's (N, n)
    residuals, live in the run's scratch, which every step after the first reuses; so no step
    faults in fresh pages, whatever glibc's mmap threshold. Allocating them afresh each step
    costs some 200 fresh pages a step unless another layer happens to have raised that
    threshold. What is left is the scratch's first touch in the measured run, spread over its
    200 steps.
    """
    _check_faults_per_warm_step(FAULT_GUARD)


#: the same fit under pgd, which builds no pair distances
PGD_FAULT_GUARD = FAULT_GUARD.replace('"adaptive_coin_em"', '"pgd"').replace("record_every=200)",
                                                                            "record_every=200, gamma=0.01)")


def test_logreg_pgd_steps_reuse_their_pages():
    """The pgd fit takes under one minor page fault per warm step too: its logistic residuals
    live in the run's scratch, so their speed does not rest on a pair buffer that pgd never builds."""
    assert PGD_FAULT_GUARD.count('"pgd"') == 2 and "gamma=0.01" in PGD_FAULT_GUARD
    _check_faults_per_warm_step(PGD_FAULT_GUARD)


#: a warm toy fit at N=300, d=1: no model scratch, and a (300, 300) kernel of 720 KB, past glibc's
#: 128 KB mmap threshold, each step
TOY_FAULT_GUARD = """
import resource
import numpy as np
from particle_em import GaussianHierarchicalModel, RunConfig, run

model = GaussianHierarchicalModel(np.array([0.7]))
config = RunConfig(n_particles=300, n_iters=200, seed=3, record_every=200)
run("adaptive_coin_em", model, config)  # warm-up
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run("adaptive_coin_em", model, config)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / config.n_iters)
"""


#: faults per warm step the toy guard allows: a sixtieth of the ~318 a step that held a third (M,) vector read
TOY_FAULT_BOUND = 5.0


def test_toy_kernel_steps_reuse_their_pages():
    """A warm toy fit at N=300 takes under TOY_FAULT_BOUND minor page faults per step, though its model
    grows no scratch. Its step holds the (M,) pair vector and the (N, N) kernel, and frees both at its
    end. When the step also held a third (M,) copy of the kernel values, the heap top was trimmed and
    faulted in again every step: some 320 faults a step."""
    _check_faults_per_warm_step(TOY_FAULT_GUARD, bound=TOY_FAULT_BOUND)


def test_fault_diagnosis_reports_each_step_and_the_heap():
    """The diagnostic rerun a failing fault guard prints: the guard's own reading, the heap statistics
    around the measured run, one fault count and one ``keepcost`` for each of its 200 steps, and the
    count after the last step."""
    before, reading, after, faults, keepcost, rest = _run_fault_script(_diagnostic(PGD_FAULT_GUARD)).splitlines()
    assert before.startswith("heap before the measured run: ") and after.startswith("heap after the measured run: ")
    assert "'keepcost'" in after or "no mallinfo2" in after
    assert float(reading) >= 0.0
    assert len(json.loads(faults.removeprefix("minor faults of each step, the first with the run's set-up: "))) == 200
    keepcost = json.loads(keepcost.removeprefix("keepcost after each step: ").replace("None", "null"))
    assert len(keepcost) == 200
    assert all(value is None for value in keepcost) if "no mallinfo2" in after else all(
        isinstance(value, int) and value >= 0 for value in keepcost)
    assert int(rest.removeprefix("minor faults after the last step: ")) >= 0
