import decimal
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import minimize_scalar

from particle_em.data import generate_toy_data
from particle_em.exceptions import ConfigError
from particle_em.metrics import particle_moments
from particle_em.models import (
    BayesianLogisticRegression,
    GaussianHierarchicalModel,
    LatentSpaceNetworkModel,
    sigmoid,
)
from particle_em import algorithms
from particle_em.algorithms import ALGORITHMS, State
from particle_em.models import logistic
from particle_em.models.base import particle_mean
from particle_em.scratch import Scratch
from helpers import (
    assert_bitwise_equal,
    assert_gradients_match_fd,
    mean_grad_theta_base,
    network_default_init_two_calls,
    network_grad_theta_naive,
    network_grad_z_naive,
    network_log_joint_naive,
    planted_two_community_network,
    toy_problems,
)


@pytest.fixture
def toy():
    x, _ = generate_toy_data(4, 1.0, 123)
    return GaussianHierarchicalModel(x)


@pytest.fixture
def logreg():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((15, 3))
    y = (rng.random(15) < 0.5).astype(int)
    return BayesianLogisticRegression(X, y)


@pytest.fixture
def network():
    Y, _ = planted_two_community_network(42, n=5)
    return LatentSpaceNetworkModel(Y, embed_dim=2)


class TestHierarchical:
    def test_grad_theta_hand_value(self):
        m = GaussianHierarchicalModel([0.0, 0.0])
        assert m.grad_theta(np.zeros(1), np.array([[1.0, 1.0]]))[0, 0] == 2.0

    def test_grad_theta_zero_at_particle_mean(self, toy):
        z = np.array([[0.3, -1.0, 0.5, 2.0]])
        theta = np.array([z.mean()])
        assert toy.grad_theta(theta, z)[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_grad_z_hand_value(self):
        m = GaussianHierarchicalModel([2.0])
        # (theta - z) + (x - z) = (0 - 1) + (2 - 1) = 0
        assert m.grad_z(np.zeros(1), np.array([[1.0]]))[0, 0] == 0.0

    def test_grad_z_zero_at_posterior_mode(self, toy):
        theta = np.array([0.7])
        z = (theta[0] + toy.x) / 2.0
        np.testing.assert_allclose(toy.grad_z(theta, z[None, :]), 0.0, atol=1e-14)

    def test_gradients_match_finite_differences(self, toy):
        rng = np.random.default_rng(11)
        for _ in range(25):
            assert_gradients_match_fd(toy, rng.standard_normal(1), rng.standard_normal(4))

    @given(toy_problems(max_n=300, max_d=30))
    def test_mean_grad_theta_is_the_base_class_average(self, problem):
        model, theta, z = problem
        with np.errstate(all="ignore"):
            assert_bitwise_equal(model.mean_grad_theta(theta, z), mean_grad_theta_base(model, theta, z))

    def test_theta_star(self):
        m = GaussianHierarchicalModel([1.0, 2.0, 3.0])
        assert m.theta_star() == 2.0

    def test_posterior_variance_is_half(self, toy):
        _, var = toy.posterior_moments(np.array([0.3]))
        assert var == 0.5

    def test_posterior_mean_symmetric_case(self):
        m = GaussianHierarchicalModel([2.0, 2.0])
        mean, _ = m.posterior_moments(np.array([2.0]))
        np.testing.assert_array_equal(mean, [2.0, 2.0])

    def test_mstep_constant_particles(self):
        m = GaussianHierarchicalModel([0.0, 0.0])
        particles = np.full((3, 2), 1.7)
        assert m.marginal_mstep(particles)[0] == 1.7

    def test_mstep_grand_mean(self):
        m = GaussianHierarchicalModel([0.0])
        assert m.marginal_mstep(np.array([[0.0], [4.0]]))[0] == 2.0

    def test_mstep_matches_numeric_maximizer(self, toy):
        rng = np.random.default_rng(12)
        particles = rng.standard_normal((6, 4))
        q = lambda t: -np.mean([toy.log_joint(np.array([t]), z) for z in particles])
        numeric = minimize_scalar(q, bounds=(-10, 10), method="bounded", options={"xatol": 1e-10})
        assert toy.marginal_mstep(particles)[0] == pytest.approx(numeric.x, abs=1e-8)

    def test_mstep_is_strict_maximizer(self, toy):
        rng = np.random.default_rng(13)
        particles = rng.standard_normal((5, 4))
        theta_hat = toy.marginal_mstep(particles)
        q = lambda t: np.mean([toy.log_joint(np.array([t]), z) for z in particles])
        assert q(theta_hat[0]) > q(theta_hat[0] + 1e-3)
        assert q(theta_hat[0]) > q(theta_hat[0] - 1e-3)


class TestLogisticRegression:
    def test_grad_z_single_datapoint(self):
        m = BayesianLogisticRegression(np.array([[1.0, 0.0]]), np.array([1]))
        g = m.grad_z(np.zeros(1), np.zeros((1, 2)))[0]
        np.testing.assert_allclose(g, [0.5, 0.0], rtol=1e-15)

    def test_grad_z_prior_mode_no_data(self):
        m = BayesianLogisticRegression(np.empty((0, 3)), np.empty(0, dtype=int))
        theta = np.array([0.4])
        z = np.full((1, 3), 0.4)
        np.testing.assert_array_equal(m.grad_z(theta, z), np.zeros((1, 3)))

    def test_grad_theta_hand_value(self, logreg):
        m = BayesianLogisticRegression(np.empty((0, 2)), np.empty(0, dtype=int))
        g = m.grad_theta(np.zeros(1), np.array([[1.0, 1.0]]))
        assert g[0, 0] == pytest.approx(0.4, rel=1e-15)

    def test_grad_theta_zero_at_mean(self, logreg):
        z = np.array([[0.2, -0.4, 1.1]])
        theta = np.array([z.mean()])
        assert logreg.grad_theta(theta, z)[0, 0] == pytest.approx(0.0, abs=1e-16)

    def test_gradients_match_finite_differences(self, logreg):
        rng = np.random.default_rng(14)
        for _ in range(25):
            assert_gradients_match_fd(logreg, rng.standard_normal(1), rng.standard_normal(3))

    def test_gradients_finite_for_large_logits(self, logreg):
        z = np.full((1, 3), 1e3)
        assert np.all(np.isfinite(logreg.grad_z(np.zeros(1), z)))
        assert np.isfinite(logreg.log_joint(np.zeros(1), z[0]))

    @staticmethod
    def grad_z_seed(model, theta, z):
        """The latent gradient as first written: prior + (y - sigmoid(z @ X.T)) @ X, in fresh arrays."""
        prior = (theta[0] - z) / model.prior_var
        return prior if model.X.shape[0] == 0 else prior + (model.y[None, :] - sigmoid(z @ model.X.T)) @ model.X

    @pytest.mark.parametrize("entries", [[0.0, -0.0], [np.nan], [np.inf, -np.inf], [0.0, np.nan, -np.inf]])
    def test_grad_z_matches_the_seed_formula_on_special_values(self, entries):
        rng = np.random.default_rng(len(entries))
        model = BayesianLogisticRegression(rng.standard_normal((40, 4)), rng.integers(0, 2, 40))
        z = rng.standard_normal((9, 4))
        z.flat[rng.choice(z.size, 12, replace=False)] = np.resize(entries, 12)
        theta = np.array([0.3])
        with np.errstate(invalid="ignore", over="ignore"):
            want = self.grad_z_seed(model, theta, z)
            assert_bitwise_equal(model.grad_z(theta, z), want)
            assert_bitwise_equal(model.grad_z(theta, z, scratch=Scratch()), want)

    def test_grad_z_matches_the_seed_formula_past_exp_underflow(self):
        # logits of both signs beyond |u| = 745, where exp(-|u|) is 0, and near it
        rng = np.random.default_rng(21)
        model = BayesianLogisticRegression(rng.standard_normal((30, 3)), rng.integers(0, 2, 30))
        z = np.concatenate([rng.standard_normal((4, 3)) * 1e3, rng.standard_normal((3, 3)) * 300.0])
        u = z @ model.X.T
        assert np.any(u > 745.0) and np.any(u < -745.0) and np.any(np.abs(u) < 745.0)
        theta = np.array([-1.0])
        assert_bitwise_equal(model.grad_z(theta, z, scratch=Scratch()), self.grad_z_seed(model, theta, z))

    def test_grad_z_without_data_is_the_prior_gradient(self):
        model = BayesianLogisticRegression(np.empty((0, 3)), np.empty(0, dtype=int))
        z, theta = np.random.default_rng(22).standard_normal((5, 3)), np.array([0.5])
        for scratch in (None, Scratch()):
            assert_bitwise_equal(model.grad_z(theta, z, scratch=scratch), (theta[0] - z) / model.prior_var)

    def test_one_scratch_serves_every_particle_count(self):
        rng = np.random.default_rng(23)
        model = BayesianLogisticRegression(rng.standard_normal((455, 30)), rng.integers(0, 2, 455))
        scratch, theta = Scratch(), np.array([0.1])
        for n in (100, 7, 1, 100, 301):
            z = rng.standard_normal((n, 30))
            assert_bitwise_equal(model.grad_z(theta, z, scratch=scratch), self.grad_z_seed(model, theta, z))
        assert scratch.size(0) == 301 * 455

    def test_predict_all_zero_particles(self, logreg):
        probs = logreg.predict_proba(np.zeros((4, 3)), logreg.X)
        np.testing.assert_array_equal(probs, np.full(15, 0.5))
        # ties resolve to label 1
        np.testing.assert_array_equal(logreg.predict(np.zeros((4, 3)), logreg.X), np.ones(15, dtype=int))

    def test_predict_single_particle_is_plain_logistic(self, logreg):
        rng = np.random.default_rng(15)
        z = rng.standard_normal((1, 3))
        assert_bitwise_equal(logreg.predict_proba(z, logreg.X), sigmoid(logreg.X @ z.T)[:, 0])

    #: (test rows m, particles N): m * N below, at and past one 8192-value block, and rows past it
    PREDICT_SHAPES = [(1, 1), (15, 3), (81, 101), (64, 128), (82, 100), (8193, 1), (3, 8193)]

    @pytest.mark.parametrize("m,n", PREDICT_SHAPES)
    def test_predict_proba_is_the_sigmoid_mean_bit_for_bit(self, m, n):
        """The in-place blocked sigmoid gives sigmoid(X @ Z.T).mean(axis=1) bit for bit, on logits that
        include +-inf and nan (from test rows holding them) beside random ones."""
        rng = np.random.default_rng(m * n)
        X_test = rng.standard_normal((m, 2)) * 10.0
        X_test[rng.random(m) < 0.2, 1] = 0.0
        special = rng.random(m) < 0.1
        X_test[special, 0] = rng.choice([np.inf, -np.inf, np.nan], special.sum())
        z = np.column_stack([np.ones(n), rng.standard_normal(n)])
        model = BayesianLogisticRegression(np.zeros((1, 2)), np.zeros(1))
        with np.errstate(invalid="ignore"):
            want = sigmoid(X_test @ z.T).mean(axis=1)
            assert_bitwise_equal(model.predict_proba(z, X_test), want)

    @pytest.mark.parametrize("size", [1, 5, 8191, 8192, 8193, 2 * 8192 + 7])
    def test_the_in_place_sigmoid_is_sigmoid_bit_for_bit(self, size):
        u = np.random.default_rng(size).standard_normal(size) * 30.0
        u[:size:7] = np.resize([0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0], u[:size:7].size)
        want, scratch = sigmoid(u), Scratch()
        assert_bitwise_equal(logistic._sigmoid_in_place(u, scratch), want)
        assert_bitwise_equal(u, want)
        assert scratch.size(1) == min(size, 8192)

    def test_a_warm_adaptive_step_holds_one_block_of_sigmoid_work(self):
        """Slot 0 holds the (N, n) logits and slot 1 one 8192-value block of exp values; no slot holds a
        mask (slot 2 once held a half-size one) and slots 1 and 2 hold at most 8192 values each."""
        rng = np.random.default_rng(455)
        model = BayesianLogisticRegression(rng.standard_normal((455, 30)), rng.integers(0, 2, 455))
        state = State.initial("adaptive_coin_em", np.zeros(1), rng.standard_normal((100, 30)))
        scratch = Scratch()
        for _ in range(2):
            state = algorithms.step(state, model, *ALGORITHMS["adaptive_coin_em"], scratch=scratch)
        assert scratch.size(0) == 100 * 455
        assert scratch.size(1) <= 8192 and scratch.size(2) <= 8192

    @pytest.mark.parametrize("m,n", [(114, 100), (15, 3), (300, 64)])
    def test_predict_proba_holds_its_logits_and_one_block(self, m, n):
        """predict_proba peaks under (m N + 8192) float64 values and 4 KB: its (m, N) logits and one
        block of exp values. Taking the sigmoid in fresh arrays holds two more (m, N) arrays."""
        rng = np.random.default_rng(m)
        model = BayesianLogisticRegression(np.zeros((1, 30)), np.zeros(1))
        z, X_test = rng.standard_normal((n, 30)), rng.standard_normal((m, 30))
        model.predict_proba(z, X_test)  # warm
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            model.predict_proba(z, X_test)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < (m * n + 8192) * 8 + 4096, peak

    def test_predict_averages_particles(self):
        m = BayesianLogisticRegression(np.empty((0, 1)), np.empty(0, dtype=int))
        u = np.log(4.0)  # sigmoid(+u) = 0.8, sigmoid(-u) = 0.2
        particles = np.array([[-u], [u]])
        probs = m.predict_proba(particles, np.array([[1.0]]))
        assert probs[0] == pytest.approx(0.5, rel=1e-14)

    def test_predict_rejects_dimension_mismatch(self, logreg):
        with pytest.raises(ValueError):
            logreg.predict(np.zeros((2, 3)), np.zeros((4, 5)))


def _ulp_errors(u, got):
    """|got - sigmoid(u)| in units in the last place of the exact value (60-digit decimal)."""
    errors = []
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for x, y in zip(u.tolist(), got.tolist()):
            exact = 1 / (1 + (-decimal.Decimal(x)).exp())
            below = float(exact)
            if decimal.Decimal(below) > exact:
                below = math.nextafter(below, 0.0)
            # the spacing of the binade holding the exact value; subnormals included
            errors.append(float(abs(decimal.Decimal(y) - exact) / decimal.Decimal(math.ulp(below))))
    return np.array(errors)


class TestSigmoid:
    def test_within_two_ulp(self):
        rng = np.random.default_rng(21)
        u = np.concatenate([
            np.linspace(-745.0, 745.0, 6001),  # exp(-|u|) underflows to 0 beyond 745
            np.linspace(-745.0, -700.0, 451),  # the subnormal tail
            rng.standard_normal(1000),
            rng.standard_normal(1000) * 20.0,
        ])
        errors = _ulp_errors(u, sigmoid(u))
        assert errors.max() <= 2.0, (u[errors.argmax()], errors.max())

    def test_special_values(self):
        got = sigmoid(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
        np.testing.assert_array_equal(got[:4], [0.5, 0.5, 1.0, 0.0])
        assert np.isnan(got[4])

    @pytest.mark.parametrize("u", [0.3, -2, np.float64(-0.3), np.array(1.5)], ids=["float", "int", "float64", "0-d"])
    def test_scalar_input_gives_numpy_scalar(self, u):
        got = sigmoid(u)
        assert type(got) is np.float64
        assert got == sigmoid(np.array([u], dtype=np.float64))[0]

    def test_array_keeps_shape(self):
        u = np.arange(-3, 3).reshape(2, 3)
        got = sigmoid(u)
        assert got.shape == (2, 3) and got.dtype == np.float64
        np.testing.assert_allclose(got, 1.0 / (1.0 + np.exp(-u)), rtol=1e-15)


class TestLatentSpaceNetwork:
    def test_grad_theta_single_pair_coincident(self):
        Y = np.array([[0.0, 1.0], [1.0, 0.0]])
        m = LatentSpaceNetworkModel(Y, embed_dim=2)
        for theta in (-1.0, 0.0, 2.5):
            g = m.grad_theta(np.array([theta]), np.zeros((1, 4)))[0, 0]
            assert g == pytest.approx(1.0 - sigmoid(theta), rel=1e-12)

    def test_grad_theta_saturation_sign(self, network):
        # large theta forces p -> 1 so the gradient approaches -(# non-edges)
        g = network.grad_theta(np.array([40.0]), np.zeros((1, 10)))[0, 0]
        n_pairs = 5 * 4 // 2
        n_edges = int(network.Y.sum() // 2)
        assert g == pytest.approx(n_edges - n_pairs, abs=1e-6)
        assert g <= 0

    def test_gradients_match_finite_differences(self, network):
        rng = np.random.default_rng(16)
        for _ in range(25):
            assert_gradients_match_fd(network, rng.standard_normal(1), rng.standard_normal(10))

    def test_flagged_link_sign_matches_finite_differences(self):
        Y, _ = planted_two_community_network(43, n=5)
        m = LatentSpaceNetworkModel(Y, embed_dim=2, link_sign=1.0)
        rng = np.random.default_rng(17)
        for _ in range(10):
            assert_gradients_match_fd(m, rng.standard_normal(1), rng.standard_normal(10))

    def test_infinite_prior_variance_drops_prior(self):
        Y, _ = planted_two_community_network(44, n=4)
        m = LatentSpaceNetworkModel(Y, embed_dim=2, prior_var_z=np.inf)
        rng = np.random.default_rng(18)
        for _ in range(10):
            assert_gradients_match_fd(m, rng.standard_normal(1), rng.standard_normal(8))

    def test_rotation_equivariance(self, network):
        rng = np.random.default_rng(19)
        z = rng.standard_normal(10)
        theta = np.array([0.3])
        angle = 1.1
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        z_rot = (z.reshape(5, 2) @ rot.T).ravel()
        g = network.grad_z(theta, z[None, :])[0].reshape(5, 2)
        g_rot = network.grad_z(theta, z_rot[None, :])[0].reshape(5, 2)
        np.testing.assert_allclose(g_rot, g @ rot.T, atol=1e-12)
        assert network.grad_theta(theta, z[None, :])[0, 0] == pytest.approx(
            network.grad_theta(theta, z_rot[None, :])[0, 0], rel=1e-12
        )

    def test_coincident_positions_have_finite_gradient(self, network):
        g = network.grad_z(np.zeros(1), np.zeros((1, 10)))
        assert np.all(np.isfinite(g))

    def test_rejects_bad_adjacency(self):
        with pytest.raises(ValueError):
            LatentSpaceNetworkModel(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not symmetric
        with pytest.raises(ValueError):
            LatentSpaceNetworkModel(np.array([[1.0, 0.0], [0.0, 0.0]]))  # diagonal entry
        with pytest.raises(ValueError):
            LatentSpaceNetworkModel(np.array([[0.0, 2.0], [2.0, 0.0]]))  # non-binary

    def test_default_init_is_deterministic(self, network):
        t1, z1 = network.default_init(3, np.random.default_rng(5))
        t2, z2 = network.default_init(3, np.random.default_rng(5))
        np.testing.assert_array_equal(t1, t2)
        np.testing.assert_array_equal(z1, z2)
        assert z1.shape == (3, 10)


#: node coordinates: moderate reals, an integer grid (shared coordinates), all
#: zeros, and magnitudes near 1e3
NODE_COORDS = {
    "real": lambda rng, shape: rng.normal(0.0, 2.0, shape),
    "grid": lambda rng, shape: rng.integers(-2, 3, shape).astype(np.float64),
    "zero": lambda rng, shape: np.zeros(shape),
    "near1e3": lambda rng, shape: rng.choice([-1e3, 1e3], shape) + rng.normal(0.0, 1.0, shape),
}


@st.composite
def network_cases(draw, max_n=40):
    """(model, theta, particles) with n in [1, max_n] (n = 1 has no pairs), e in {1, 2, 3},
    N in [1, 8] and some coincident nodes."""
    n = draw(st.integers(1, max_n))
    e = draw(st.sampled_from([1, 2, 3]))
    n_particles = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((n, n)) < draw(st.floats(0.0, 1.0)), 1).astype(np.float64)
    model = LatentSpaceNetworkModel(
        upper + upper.T,
        embed_dim=e,
        prior_var_z=draw(st.sampled_from([1.0, np.inf])),
        link_sign=draw(st.sampled_from([-1.0, 1.0])),
    )
    theta = np.array([draw(st.sampled_from([0.0, -40.0, 40.0]) | st.floats(-10.0, 10.0))])
    distinct = draw(st.integers(1, n))
    rows = NODE_COORDS[draw(st.sampled_from(sorted(NODE_COORDS)))](rng, (n_particles, distinct, e))
    pick = rng.integers(0, distinct, n)
    pick[:distinct] = np.arange(distinct)
    return model, theta, rows[:, pick].reshape(n_particles, n * e)


class TestNetworkPairTable:
    """The pair-table evaluation is bit-for-bit the dense (n, n) one kept in helpers."""

    @given(network_cases())
    def test_grad_theta_matches_dense_reference(self, case):
        model, theta, z = case
        assert_bitwise_equal(model.grad_theta(theta, z), network_grad_theta_naive(model, theta, z))

    @given(network_cases())
    def test_grad_z_matches_dense_reference(self, case):
        model, theta, z = case
        assert_bitwise_equal(model.grad_z(theta, z), network_grad_z_naive(model, theta, z))

    @given(network_cases())
    def test_log_joint_matches_dense_reference(self, case):
        model, theta, z = case
        for zk in z:
            assert_bitwise_equal(model.log_joint(theta, zk), network_log_joint_naive(model, theta, zk))

    @pytest.mark.parametrize("method", ["grad_z", "grad_theta"])
    def test_peak_memory_does_not_grow_with_particles(self, method):
        # a particle-batched (N, n, n, e) evaluation would scale the peak with N
        Y, _ = planted_two_community_network(45, n=50)
        m = LatentSpaceNetworkModel(Y, embed_dim=2)
        z = np.random.default_rng(21).standard_normal((10, m.d_z))
        theta = np.array([0.5])

        def peak(particles):
            getattr(m, method)(theta, particles)  # warm up
            tracemalloc.start()
            try:
                getattr(m, method)(theta, particles)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(z) <= 1.5 * peak(z[:1])


class _CoincidentStart:
    """A generator whose first draw puts node 1 on node 0 (e coordinates per node) and whose later
    draws are zeros, so that the particles are the fitted positions themselves."""

    def __init__(self, seed, embed_dim):
        self.rng, self.embed_dim, self.first = np.random.default_rng(seed), embed_dim, True

    def standard_normal(self, size):
        if not self.first:
            return np.zeros(size)
        self.first = False
        out = self.rng.standard_normal(size)
        flat, e = out.reshape(-1), self.embed_dim
        flat[e:2 * e] = flat[:e]
        return out


#: (n, embed_dim, prior_var_z, link_sign, graph, coincident start): e in {1, 2, 3}, both priors and
#: link signs, no pairs (n = 1), no edges, all edges, and nodes 0 and 1 on one spot with the same
#: neighbours, so they stay there
DEFAULT_INIT_CASES = [
    (5, 1, 1.0, -1.0, "planted", False),
    (6, 2, np.inf, -1.0, "planted", False),
    (4, 3, 1.0, 1.0, "complete", False),
    (5, 2, np.inf, 1.0, "empty", False),
    (1, 2, 1.0, -1.0, "empty", False),
    (5, 2, 1.0, -1.0, "twins", True),
    (4, 3, np.inf, 1.0, "twins", True),
]


class TestNetworkDefaultInit:
    """The point estimate builds one pair geometry per iteration; its theta and particles are those
    of the two-call loop over the dense references, bit for bit."""

    @staticmethod
    def graph(kind, n):
        if kind == "planted":
            return planted_two_community_network(n, n=n)[0]
        if kind == "complete":
            return np.ones((n, n)) - np.eye(n)
        Y = np.zeros((n, n))
        if kind == "twins":  # nodes 0 and 1 unlinked, both linked to every other node
            Y[:2, 2:] = Y[2:, :2] = 1.0
        return Y

    @pytest.mark.parametrize("n,e,prior,sign,kind,coincident", DEFAULT_INIT_CASES)
    def test_matches_two_call_loop(self, n, e, prior, sign, kind, coincident):
        model = LatentSpaceNetworkModel(self.graph(kind, n), embed_dim=e, prior_var_z=prior, link_sign=sign)

        def draws():
            return _CoincidentStart(n, e) if coincident else np.random.default_rng(n)

        theta, z = model.default_init(3, draws())
        ref_theta, ref_z = network_default_init_two_calls(model, 3, draws())
        assert_bitwise_equal(theta, ref_theta)
        assert_bitwise_equal(z, ref_z)
        if coincident:  # the twins never leave their common spot: every iteration took that branch
            assert_bitwise_equal(z[:, :e], z[:, e:2 * e])


@st.composite
def logreg_problems(draw):
    """(logistic model, theta, cloud): N in 1..300, d in 1..30, values and prior variance of
    magnitude 1e-3 to 1e3."""
    n, d = draw(st.integers(1, 300)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = BayesianLogisticRegression(rng.standard_normal((5, d)), rng.integers(0, 2, 5),
                                       prior_var=10.0 ** draw(st.floats(-3.0, 3.0)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    return model, np.array([scale * draw(st.floats(-3.0, 3.0))]), scale * rng.standard_normal((n, d))


class TestMeanGradTheta:
    """Every model's particle average is grad_theta(...).mean(axis=0), bit for bit (the toy model's
    is checked in TestHierarchical)."""

    @given(logreg_problems())
    def test_logreg(self, problem):
        model, theta, z = problem
        assert_bitwise_equal(model.mean_grad_theta(theta, z), mean_grad_theta_base(model, theta, z))

    @given(network_cases())
    def test_network(self, case):
        model, theta, z = case
        assert_bitwise_equal(model.mean_grad_theta(theta, z), mean_grad_theta_base(model, theta, z))


@pytest.mark.parametrize("call,message", [
    (lambda: BayesianLogisticRegression(np.zeros(3), np.zeros(3)), "X must be (n, d), got shape (3,)"),
    (lambda: BayesianLogisticRegression(np.zeros((3, 2)), np.zeros(2)), "y must have length 3, got shape (2,)"),
    (lambda: BayesianLogisticRegression(np.zeros((2, 2)), [0, 2]), "labels must be 0 or 1"),
    (lambda: GaussianHierarchicalModel([1.0, np.nan]), "x must be a non-empty finite vector"),
    (lambda: GaussianHierarchicalModel([]), "x must be a non-empty finite vector"),
    (lambda: LatentSpaceNetworkModel(np.zeros((2, 3))), "adjacency must be square, got shape (2, 3)"),
    (lambda: GaussianHierarchicalModel([1.0]).log_joint([0.0, 0.0], [0.0]), "theta must have length 1, got 2"),
    (lambda: GaussianHierarchicalModel([1.0]).grad_z(np.zeros(0), np.zeros((3, 1))),
     "theta must have length 1, got 0"),
], ids=["logreg_X", "logreg_y", "logreg_labels", "toy_x_finite", "toy_x_empty", "network_square",
        "theta_length", "theta_empty"])
def test_models_name_each_malformed_input(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


#: every model method that takes a particle cloud, and particle_moments, as (model fixture or None, call)
CLOUD_CALLS = {
    "toy-grad_theta": ("toy", lambda m, z: m.grad_theta(np.zeros(1), z)),
    "toy-grad_z": ("toy", lambda m, z: m.grad_z(np.zeros(1), z)),
    "toy-mean_grad_theta": ("toy", lambda m, z: m.mean_grad_theta(np.zeros(1), z)),
    "toy-marginal_mstep": ("toy", lambda m, z: m.marginal_mstep(z)),
    "logreg-grad_theta": ("logreg", lambda m, z: m.grad_theta(np.zeros(1), z)),
    "logreg-grad_z": ("logreg", lambda m, z: m.grad_z(np.zeros(1), z)),
    "logreg-mean_grad_theta": ("logreg", lambda m, z: m.mean_grad_theta(np.zeros(1), z)),
    "logreg-predict_proba": ("logreg", lambda m, z: m.predict_proba(z, m.X)),
    "logreg-predict": ("logreg", lambda m, z: m.predict(z, m.X)),
    "network-grad_theta": ("network", lambda m, z: m.grad_theta(np.zeros(1), z)),
    "network-grad_z": ("network", lambda m, z: m.grad_z(np.zeros(1), z)),
    "network-mean_grad_theta": ("network", lambda m, z: m.mean_grad_theta(np.zeros(1), z)),
    "particle_moments": (None, lambda m, z: particle_moments(z)),
}


@pytest.mark.parametrize("kind", ["empty", "vector", "width"])
@pytest.mark.parametrize("name", CLOUD_CALLS)
def test_cloud_takers_refuse_what_is_not_a_cloud(name, kind, request):
    # one rule, the kernel layer's: a non-empty (N, d) array of the model's width d (any d >= 1 for the metric)
    fixture_name, call = CLOUD_CALLS[name]
    model = request.getfixturevalue(fixture_name) if fixture_name else None
    d = model.d_z if model else 2
    cloud = {"empty": np.zeros((0, d)), "vector": np.zeros(d), "width": np.zeros((3, d + 1 if model else 0))}[kind]
    width = f"{d}) array" if model else "d) array with d >= 1"
    message = f"particles must be a non-empty (N, {width}, got shape {cloud.shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(model, cloud)


@pytest.mark.parametrize("fixture_name", ["toy", "logreg", "network"])
def test_log_joint_rejects_a_latent_of_the_wrong_length(fixture_name, request):
    model = request.getfixturevalue(fixture_name)
    for z in (np.zeros(model.d_z - 1), np.zeros(model.d_z + 1), np.zeros((2, model.d_z))):
        with pytest.raises(ValueError, match=f"^latent vector must have length {model.d_z}, got {z.size}$"):
            model.log_joint(np.zeros(1), z)


@pytest.mark.parametrize("fixture_name", ["toy", "logreg", "network"])
def test_batched_gradients_match_per_particle(fixture_name, request):
    model = request.getfixturevalue(fixture_name)
    rng = np.random.default_rng(20)
    theta = rng.standard_normal(1)
    batch = rng.standard_normal((6, model.d_z))
    gt = model.grad_theta(theta, batch)
    gz = model.grad_z(theta, batch)
    for i in range(6):
        np.testing.assert_allclose(gt[i], model.grad_theta(theta, batch[i][None, :])[0], rtol=1e-12)
        np.testing.assert_allclose(gz[i], model.grad_z(theta, batch[i][None, :])[0], rtol=1e-12)


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
def test_models_reject_non_positive_prior_variance(value):
    # nan fails a "<= 0" test and would silently turn the prior off; inf turns the network prior off by design
    if not np.isinf(value):
        with pytest.raises(ValueError, match="prior_var_z must be positive"):
            LatentSpaceNetworkModel(np.array([[0.0, 1.0], [1.0, 0.0]]), prior_var_z=value)
    with pytest.raises(ValueError, match="prior_var must be a finite positive number"):
        BayesianLogisticRegression(np.zeros((2, 1)), np.array([0, 1]), prior_var=value)


def test_network_model_rejects_every_bad_parameter_at_once():
    with pytest.raises(ConfigError) as err:
        LatentSpaceNetworkModel(np.array([[0.0, 1.0], [1.0, 0.0]]), embed_dim=0, prior_var_z=-1.0, link_sign=2.0)
    assert err.value.violations == ["embed_dim must be >= 1, got 0", "prior_var_z must be positive (or inf), got -1.0",
                                    "link_sign must be -1 or +1, got 2.0"]


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=300),
                  elements=st.floats(-1e300, 1e300)))
def test_particle_mean_is_mean_over_axis_0_bit_for_bit(Z):
    with np.errstate(over="ignore"):
        assert_bitwise_equal(particle_mean(Z), Z.mean(axis=0))
