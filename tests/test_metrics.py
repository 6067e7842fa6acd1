import re

import numpy as np
import pytest

from particle_em.metrics import mse, particle_moments, procrustes_align
from particle_em.metrics import test_error as error_rate


class TestMse:
    def test_identical_vectors(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_offset(self):
        assert mse([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_hand_value(self):
        assert mse([1.0, 3.0], [2.0, 5.0]) == 2.5

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            mse([1.0], [1.0, 2.0])


class TestParticleMoments:
    def test_identical_particles_zero_variance(self):
        mean, var = particle_moments(np.full((4, 2), 3.0))
        np.testing.assert_array_equal(mean, [3.0, 3.0])
        np.testing.assert_array_equal(var, [0.0, 0.0])

    def test_unbiased_variance(self):
        mean, var = particle_moments(np.array([[0.0], [2.0]]))
        assert mean[0] == 1.0
        assert var[0] == 2.0  # (1 + 1) / (N - 1)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((7, 3))
        m1, v1 = particle_moments(z)
        m2, v2 = particle_moments(z[rng.permutation(7)])
        np.testing.assert_allclose(m1, m2, rtol=1e-12)
        np.testing.assert_allclose(v1, v2, rtol=1e-12)

    def test_translation_behavior(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((6, 2))
        shift = np.array([5.0, -3.0])
        m1, v1 = particle_moments(z)
        m2, v2 = particle_moments(z + shift)
        np.testing.assert_allclose(m2, m1 + shift, rtol=1e-12)
        np.testing.assert_allclose(v2, v1, rtol=1e-12)

    def test_rejects_single_particle(self):
        with pytest.raises(ValueError):
            particle_moments(np.zeros((1, 2)))


class TestTestError:
    def test_identical(self):
        assert error_rate([0, 1, 1], [0, 1, 1]) == 0.0

    def test_complementary(self):
        assert error_rate([0, 1, 0], [1, 0, 1]) == 1.0

    def test_one_of_four(self):
        assert error_rate([0, 0, 0, 1], [0, 0, 0, 0]) == 0.25

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = (rng.random(20) < 0.5).astype(int)
        b = (rng.random(20) < 0.5).astype(int)
        assert error_rate(a, b) == error_rate(b, a)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            error_rate([0, 2], [0, 1])


class TestProcrustesAlign:
    def test_identity_when_target_equals_reference(self):
        rng = np.random.default_rng(3)
        ref = rng.standard_normal((10, 2))
        aligned, t = procrustes_align(ref, ref)
        np.testing.assert_allclose(aligned, ref, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(ref - aligned), 0.0, atol=1e-12)

    def test_recovers_quarter_turn(self):
        rng = np.random.default_rng(4)
        ref = rng.standard_normal((12, 2))
        rot90 = np.array([[0.0, -1.0], [1.0, 0.0]])
        aligned, t = procrustes_align(ref, ref @ rot90.T)
        np.testing.assert_allclose(aligned, ref, atol=1e-10)

    def test_orthogonality_and_optimality_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = rng.integers(1, 4)
            n = int(rng.integers(d, 12))
            ref = rng.standard_normal((n, d))
            tgt = rng.standard_normal((n, d))
            aligned, t = procrustes_align(ref, tgt)
            np.testing.assert_allclose(t.T @ t, np.eye(d), atol=1e-10)
            assert np.linalg.norm(ref - aligned) <= np.linalg.norm(ref - tgt) + 1e-12

    def test_rank_zero_target_gives_identity(self):
        ref = np.random.default_rng(6).standard_normal((5, 2))
        aligned, t = procrustes_align(ref, np.zeros((5, 2)))
        np.testing.assert_array_equal(t, np.eye(2))
        np.testing.assert_array_equal(aligned, np.zeros((5, 2)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            procrustes_align(np.zeros((4, 2)), np.zeros((4, 3)))


@pytest.mark.parametrize("call,message", [
    (lambda: particle_moments(np.zeros(3)),
     "particles must be a non-empty (N, d) array with d >= 1, got shape (3,)"),
    (lambda: error_rate([0, 1], [0, 1, 1]), "length mismatch: (2,) vs (3,)"),
    (lambda: procrustes_align(np.zeros((2, 3)), np.zeros((2, 3))), "expected (n, d) with n >= d, got shape (2, 3)"),
], ids=["particle_moments", "test_error", "procrustes_align"])
def test_metrics_name_each_malformed_input(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
