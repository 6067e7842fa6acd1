import dataclasses
import functools
import importlib.util
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from particle_em.algorithms import (
    ALGORITHMS,
    KT,
    RunConfig,
    Scale,
    State,
    Trace,
    adaptive_coin_em_step,
    coin_em_step,
    marginal_coin_em_step,
    marginal_svgd_em_step,
    pgd_step,
    run,
    svgd_em_step,
    validate_run,
    _adaptive_update,
    _kt,
)
from particle_em.data import generate_toy_data
from particle_em.exceptions import ConfigError, DivergedError, MissingMStepError
from particle_em.kernels import median_heuristic, stein_direction
from particle_em.models import BayesianLogisticRegression, GaussianHierarchicalModel, LatentSpaceNetworkModel
from particle_em.scratch import Scratch
from helpers import ConstantGradientModel, ZeroGradientModel, assert_bitwise_equal, planted_two_community_network


def toy_model(d_z=4, seed=123, theta_true=1.0):
    x, _ = generate_toy_data(d_z, theta_true, seed)
    return GaussianHierarchicalModel(x)


class NaNGradientModel(GaussianHierarchicalModel):
    """The toy model with column 0 of its theta or its particle gradient set to NaN."""

    def __init__(self, x, nan_in: str):
        super().__init__(x)
        self.nan_in = nan_in

    def grad_theta(self, theta, particles):
        g = super().grad_theta(theta, particles)
        if self.nan_in == "theta":
            g[:, 0] = np.nan
        return g

    def grad_z(self, theta, particles, scratch=None):
        g = super().grad_z(theta, particles, scratch=scratch)
        if self.nan_in == "particle":
            g[:, 0] = np.nan
        return g


class ZeroNoise:
    """Stand-in generator producing deterministic zero draws."""

    def standard_normal(self, shape):
        return np.zeros(shape)


class TestSvgdEmStep:
    def test_hand_computed_single_step(self):
        # theta: 0 -> 0.1; particle: 1 -> 1 + 0.1 * ((0.1 - 1) + (1 - 1)) = 0.91
        m = GaussianHierarchicalModel([1.0])
        s = State(theta=np.array([0.0]), particles=np.array([[1.0]]), gamma=0.1)
        s2 = svgd_em_step(s, m)
        assert s2.theta[0] == pytest.approx(0.1, rel=1e-15)
        assert s2.particles[0, 0] == pytest.approx(0.91, rel=1e-14)

    def test_zero_learning_rate_is_identity(self):
        m = toy_model()
        s = State(theta=np.array([0.4]), particles=np.ones((3, 4)), gamma=0.0)
        s2 = svgd_em_step(s, m)
        np.testing.assert_array_equal(s2.theta, s.theta)
        np.testing.assert_array_equal(s2.particles, s.particles)

    def test_theta_fixed_when_gradient_zero(self):
        m = GaussianHierarchicalModel([2.0])
        z = np.array([[1.3]])
        s = State(theta=np.array([1.3]), particles=z, gamma=0.05)
        assert svgd_em_step(s, m).theta[0] == 1.3

    def test_step_is_pure(self):
        m = toy_model()
        s = State(theta=np.array([0.1]), particles=np.ones((3, 4)), gamma=0.02)
        a = svgd_em_step(s, m)
        b = svgd_em_step(s, m)
        np.testing.assert_array_equal(a.theta, b.theta)
        np.testing.assert_array_equal(a.particles, b.particles)
        np.testing.assert_array_equal(s.particles, np.ones((3, 4)))


class TestCoinEmStep:
    def test_zero_gradient_keeps_initialization(self):
        s = State.initial("coin_em", np.array([0.7]), np.full((2, 1), 0.2))
        for _ in range(5):
            s = coin_em_step(s, ZeroGradientModel())
        assert s.theta[0] == 0.7
        np.testing.assert_array_equal(s.particles, np.full((2, 1), 0.2))

    def test_kt_hand_sequence_exact(self):
        # constant unit gradients from theta0 = 0: 0, 0.5, 1.0, 1.875
        s = State.initial("coin_em", np.zeros(1), np.zeros((1, 1)))
        seq = [s.theta[0]]
        for _ in range(3):
            s = coin_em_step(s, ConstantGradientModel(1.0))
            seq.append(s.theta[0])
        assert seq == [0.0, 0.5, 1.0, 1.875]

    def test_accumulators_match_replayed_history(self):
        m = toy_model(d_z=2)
        rng = np.random.default_rng(0)
        s = State.initial("coin_em", rng.normal(size=1), rng.normal(size=(4, 2)))
        states = [s]
        for _ in range(10):
            states.append(coin_em_step(states[-1], m))
        final = states[-1]

        sum_g = np.zeros(1)
        reward = 0.0
        sum_z = np.zeros((4, 2))
        reward_z = np.zeros(4)
        for prev, cur in zip(states, states[1:]):
            g = m.mean_grad_theta(prev.theta, prev.particles)
            sum_g = sum_g + g
            reward = reward + float(g @ (prev.theta - s.theta0))
            h = median_heuristic(prev.particles)
            phi = stein_direction(prev.particles, m.grad_z(cur.theta, prev.particles), h)
            sum_z = sum_z + phi
            reward_z = reward_z + np.einsum("ij,ij->i", phi, prev.particles - s.z0)
        np.testing.assert_array_equal(final.theta_acc.csum, sum_g)
        assert final.theta_acc.reward == reward
        np.testing.assert_array_equal(final.particle_acc.csum, sum_z)
        np.testing.assert_array_equal(final.particle_acc.reward, reward_z)
        assert final.t == 10

    def test_ordering_flag_changes_particle_gradients(self):
        m = toy_model(d_z=3)
        rng = np.random.default_rng(1)
        s = State.initial("coin_em", rng.normal(size=1), rng.normal(size=(3, 3)))
        new_theta = coin_em_step(s, m, particle_grads_use_new_theta=True)
        old_theta = coin_em_step(s, m, particle_grads_use_new_theta=False)
        np.testing.assert_array_equal(new_theta.theta, old_theta.theta)
        assert not np.array_equal(new_theta.particles, old_theta.particles)

    def test_raw_recursion_diverges_on_unbounded_gradients(self):
        # the betting precondition needs |c| <= 1; large toy gradients break it
        m = toy_model(d_z=100, seed=0)
        rng = np.random.default_rng(100)
        s = State.initial("coin_em", *m.default_init(10, rng))
        with pytest.raises(DivergedError):
            for _ in range(500):
                s = coin_em_step(s, m)


class TestAdaptiveCoinEmStep:
    def test_hand_sequence_first_two_iterates(self):
        s = State.initial("adaptive_coin_em", np.zeros(1), np.zeros((1, 1)))
        s = adaptive_coin_em_step(s, ConstantGradientModel(1.0))
        first = s.theta[0]
        s = adaptive_coin_em_step(s, ConstantGradientModel(1.0))
        assert (first, s.theta[0]) == (0.5, 1.0)

    def test_zero_gradients_fixed_forever(self):
        s = State.initial("adaptive_coin_em", np.array([0.3]), np.full((3, 2), -0.1))
        for _ in range(4):
            s = adaptive_coin_em_step(s, ZeroGradientModel(d_z=2))
        assert s.theta[0] == 0.3
        np.testing.assert_array_equal(s.particles, np.full((3, 2), -0.1))
        np.testing.assert_array_equal(s.theta_acc.L, np.zeros(1))

    @pytest.mark.parametrize("scale", [0.1, 10.0])
    def test_first_iterate_scale_invariance(self, scale):
        base = State.initial("adaptive_coin_em", np.zeros(1), np.zeros((1, 1)))
        plain = adaptive_coin_em_step(base, ConstantGradientModel(0.7))
        scaled = adaptive_coin_em_step(base, ConstantGradientModel(0.7 * scale))
        assert plain.theta[0] == pytest.approx(scaled.theta[0], rel=1e-14)

    def test_bnn_denominator_shrinks_first_step(self):
        base = State.initial("adaptive_coin_em", np.zeros(1), np.zeros((1, 1)))
        standard = adaptive_coin_em_step(base, ConstantGradientModel(1.0), denominator="standard")
        bnn = adaptive_coin_em_step(base, ConstantGradientModel(1.0), denominator="bnn")
        # first step: D = max(G + L, 100 L) = 100 L, so theta = 1/100
        assert bnn.theta[0] == pytest.approx(0.01, rel=1e-15)
        assert abs(bnn.theta[0]) < abs(standard.theta[0])

    def test_bad_denominator_rejected(self):
        base = State.initial("adaptive_coin_em", np.zeros(1), np.zeros((1, 1)))
        with pytest.raises(ValueError, match="denominator must be 'standard' or 'bnn', got 'nope'"):
            adaptive_coin_em_step(base, ConstantGradientModel(1.0), denominator="nope")

    def test_scale_monotonicity_and_reward_sign(self):
        m = toy_model(d_z=3)
        rng = np.random.default_rng(2)
        s = State.initial("adaptive_coin_em", rng.normal(size=1), rng.normal(size=(4, 3)))
        prev = s
        for _ in range(20):
            cur = adaptive_coin_em_step(prev, m)
            assert np.all(cur.theta_acc.L >= prev.theta_acc.L)
            assert np.all(cur.theta_acc.G >= prev.theta_acc.G)
            assert np.all(cur.particle_acc.L >= prev.particle_acc.L)
            assert np.all(cur.particle_acc.G >= prev.particle_acc.G)
            assert np.all(cur.theta_acc.R >= 0.0) and np.all(cur.particle_acc.R >= 0.0)
            g = m.mean_grad_theta(prev.theta, prev.particles)
            assert np.all(np.abs(g) <= cur.theta_acc.L)
            prev = cur


#: the end of every gamma and bandwidth refusal: the least value the rule allows, the smallest normal float64
LEAST = "; the least allowed is 2.2250738585072014e-308"
#: gradient entries: exact zeros and magnitudes in [1e-2, 1e2] of either sign
GRADIENT_ENTRIES = st.just(0.0) | st.floats(1e-2, 1e2).flatmap(lambda x: st.sampled_from([x, -x]))


@st.composite
def gradient_streams(draw, entries=GRADIENT_ENTRIES):
    """(x0, stream): anchors (rows, d) and T gradients (T, rows, d); some coordinates always 0."""
    rows, d, steps = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 25))
    x0 = draw(hnp.arrays(np.float64, (rows, d), elements=st.floats(-5.0, 5.0)))
    stream = draw(hnp.arrays(np.float64, (steps, rows, d), elements=entries))
    dead = draw(hnp.arrays(np.bool_, (rows, d)))
    return x0, np.where(dead, 0.0, stream)


class TestBettingInvariants:
    @pytest.mark.parametrize("denominator", ["standard", "bnn"])
    @given(gradient_streams(entries=GRADIENT_ENTRIES | st.just(np.nan)))
    def test_adaptive_update_is_its_closed_form_bit_for_bit(self, denominator, case):
        """The update equals x0 + csum / D * (1 + R / L) where L != 0, and x0 where L == 0, bit for bit, through
        zero and NaN gradients, whatever temporaries it reuses; and it never writes the accumulators it is given."""
        x0, stream = case
        x, acc = x0.copy(), Scale(*(np.zeros_like(x0) for _ in Scale._fields))
        for c in stream:
            abs_c = np.abs(c)
            L, G = np.maximum(acc.L, abs_c), acc.G + abs_c
            R, csum = np.maximum(acc.R + c * (x - x0), 0.0), acc.csum + c
            D = G + L if denominator == "standard" else np.maximum(G + L, 100.0 * L)
            with np.errstate(divide="ignore", invalid="ignore"):
                want = np.where(L == 0, x0, x0 + csum / D * (1 + R / L))
            given_acc = [a.copy() for a in acc]
            x_new, new_acc = _adaptive_update(x0, x, c, acc, denominator)
            assert_bitwise_equal(x_new, want)
            for got, expected in zip(new_acc, (csum, L, G, R)):
                assert_bitwise_equal(got, expected)
            for kept, before in zip(acc, given_acc):
                assert_bitwise_equal(kept, before)
            x, acc = x_new, new_acc

    @pytest.mark.parametrize("denominator", ["standard", "bnn"])
    @given(gradient_streams())
    def test_adaptive_update_invariants(self, denominator, case):
        x0, stream = case
        x, csum = x0.copy(), np.zeros_like(x0)
        L, G, R = np.zeros_like(x0), np.zeros_like(x0), np.zeros_like(x0)
        seen = np.zeros(x0.shape, dtype=bool)
        for c in stream:
            x, (csum, L_new, G_new, R) = _adaptive_update(x0, x, c, Scale(csum, L, G, R), denominator)
            assert np.all(L_new >= L) and np.all(G_new >= G)
            assert np.all(R >= 0.0)
            L, G = L_new, G_new
            seen |= c != 0.0
            np.testing.assert_array_equal(x[~seen], x0[~seen])
            if denominator == "bnn":
                # x - x0 = csum / D * (1 + R / L) with D >= 100 L, up to the rounding of x0 + step
                bound = np.abs(csum[seen]) / (100.0 * L[seen]) * (1.0 + R[seen] / L[seen])
                rounding = 4.0 * np.spacing(np.maximum(np.abs(x0), np.abs(x)))[seen]
                assert np.all(np.abs(x - x0)[seen] <= bound * (1.0 + 1e-12) + rounding)

    @pytest.mark.parametrize("cloud", [False, True])
    @given(gradient_streams(entries=st.floats(-1.0, 1.0)))
    def test_kt_reward_is_running_inner_product_sum(self, cloud, case):
        x0, stream = case
        if not cloud:  # a single vector iterate, as for theta
            x0, stream = x0[0], stream[:, 0]
        stream = stream / np.maximum(1.0, np.linalg.norm(stream, axis=-1, keepdims=True))
        x, csum = x0.copy(), np.zeros_like(x0)
        reward = np.zeros(x0.shape[:-1])
        terms = []
        for t, c in enumerate(stream):
            terms.append(np.einsum("...i,...i->...", c, x - x0))
            x, (csum, reward) = _kt(x0, x, c, KT(csum, reward), t)
            history = np.reshape(terms, (t + 1, -1))
            expected = np.array([math.fsum(col) for col in history.T])
            scale = np.sum(np.abs(history), axis=0)
            assert np.all(np.abs(np.ravel(reward) - expected) <= 1e-12 * (t + 1) * scale)
            # the next iterate bets the fraction sum(c) / (t + 1) of the wealth 1 + reward
            wealth = 1.0 + expected.reshape(np.shape(reward))
            bet = stream[: t + 1].sum(axis=0) / (t + 1)
            np.testing.assert_allclose(x, x0 + bet * wealth[..., None], rtol=1e-9, atol=1e-12)
            # with ||c|| <= 1 the fraction stays below 1 in norm, so the wealth stays positive
            assert np.all(wealth > 0.0)


class TestMarginalSteps:
    def test_theta_equals_grand_particle_mean(self):
        m = toy_model(d_z=3)
        rng = np.random.default_rng(3)
        s = State(theta=np.array([99.0]), particles=rng.normal(size=(5, 3)), gamma=0.1)
        for _ in range(5):
            s = marginal_svgd_em_step(s, m)
            assert s.theta[0] == s.particles.mean()

    def test_zero_learning_rate_still_refreshes_theta(self):
        m = toy_model(d_z=2)
        z = np.random.default_rng(4).normal(size=(3, 2))
        s = State(theta=np.array([50.0]), particles=z, gamma=0.0)
        s2 = marginal_svgd_em_step(s, m)
        assert s2.theta[0] == z.mean()
        np.testing.assert_array_equal(s2.particles, z)

    def test_single_particle_at_data_mean_pins_theta(self):
        m = toy_model(d_z=3, seed=11)
        x_bar = m.x.mean()
        z = np.full((1, 3), x_bar)
        s = State(theta=np.array([0.0]), particles=z, gamma=0.05)
        for _ in range(3):
            s = marginal_svgd_em_step(s, m)
            assert s.theta[0] == pytest.approx(s.particles.mean(), abs=1e-15)

    def test_missing_mstep_raises(self):
        m = BayesianLogisticRegression(np.zeros((2, 2)), np.array([0, 1]))
        s = State(theta=np.zeros(1), particles=np.zeros((2, 2)), gamma=0.1)
        with pytest.raises(MissingMStepError):
            marginal_svgd_em_step(s, m)

    def test_marginal_coin_accumulator_replay(self):
        m = toy_model(d_z=2)
        rng = np.random.default_rng(5)
        s0 = State.initial("marginal_coin_em", m.marginal_mstep(rng.normal(size=(4, 2))), rng.normal(size=(4, 2)))
        states = [s0]
        for _ in range(8):
            states.append(marginal_coin_em_step(states[-1], m))
        final = states[-1]

        sum_z = np.zeros((4, 2))
        reward_z = np.zeros(4)
        for prev in states[:-1]:
            theta_used = m.marginal_mstep(prev.particles)
            h = median_heuristic(prev.particles)
            phi = stein_direction(prev.particles, m.grad_z(theta_used, prev.particles), h)
            sum_z = sum_z + phi
            reward_z = reward_z + np.einsum("ij,ij->i", phi, prev.particles - s0.z0)
        np.testing.assert_array_equal(final.particle_acc.csum, sum_z)
        np.testing.assert_array_equal(final.particle_acc.reward, reward_z)
        assert final.theta_acc is None  # the M-step keeps no theta-side sums
        assert final.theta[0] == final.particles.mean()


class TestPgdStep:
    def test_zero_learning_rate_is_identity(self):
        m = toy_model()
        s = State(theta=np.array([0.2]), particles=np.ones((3, 4)), gamma=0.0)
        s2 = pgd_step(s, m, np.random.default_rng(0))
        np.testing.assert_array_equal(s2.theta, s.theta)
        np.testing.assert_array_equal(s2.particles, s.particles)

    def test_noise_variance_matches_discretization(self):
        # increments under zero gradients have per-coordinate variance 2 * gamma
        gamma = 0.3
        s = State(theta=np.zeros(1), particles=np.zeros((1000, 100)), gamma=gamma)
        s2 = pgd_step(s, ZeroGradientModel(d_z=100), np.random.default_rng(6))
        empirical = s2.particles.var()
        assert empirical == pytest.approx(2 * gamma, rel=0.05)

    def test_zero_noise_reduces_to_euler_step(self):
        m = toy_model(d_z=3)
        rng = np.random.default_rng(7)
        theta = rng.normal(size=1)
        z = rng.normal(size=(4, 3))
        s = State(theta=theta, particles=z, gamma=0.05)
        s2 = pgd_step(s, m, ZeroNoise())
        np.testing.assert_allclose(s2.theta, theta + 0.05 * m.mean_grad_theta(theta, z), rtol=1e-15)
        np.testing.assert_allclose(s2.particles, z + 0.05 * m.grad_z(theta, z), rtol=1e-15)

    def test_same_generator_state_gives_identical_step(self):
        m = toy_model()
        s = State(theta=np.zeros(1), particles=np.ones((3, 4)), gamma=0.01)
        a = pgd_step(s, m, np.random.default_rng(8))
        b = pgd_step(s, m, np.random.default_rng(8))
        np.testing.assert_array_equal(a.particles, b.particles)

    def test_long_run_average_tracks_optimum(self):
        m = toy_model(d_z=100, seed=5)
        trace = run("pgd", m, RunConfig(n_particles=50, n_iters=2000, gamma=0.01, seed=9, record_every=1))
        thetas = np.array([r.theta[0] for r in trace.records])
        long_run = thetas[len(thetas) // 2 :].mean()
        assert abs(long_run - m.theta_star()) <= 0.1


class TestRunLoop:
    def test_zero_iterations_records_initialization_only(self):
        m = toy_model()
        trace = run("adaptive_coin_em", m, RunConfig(n_particles=3, n_iters=0, seed=0))
        assert [r.iteration for r in trace.records] == [0]
        np.testing.assert_array_equal(trace.initial_particles, trace.final_particles)

    def test_identical_seeds_give_identical_traces(self):
        m = toy_model(d_z=5)
        cfg = RunConfig(n_particles=4, n_iters=30, seed=42, record_every=5)
        t1 = run("adaptive_coin_em", m, cfg)
        t2 = run("adaptive_coin_em", m, cfg)
        assert [r.iteration for r in t1.records] == [r.iteration for r in t2.records]
        for a, b in zip(t1.records, t2.records):
            np.testing.assert_array_equal(a.theta, b.theta)
            np.testing.assert_array_equal(a.particle_mean, b.particle_mean)

    def test_record_every_includes_final_iteration(self):
        m = toy_model()
        trace = run("svgd_em", m, RunConfig(n_particles=2, n_iters=10, gamma=0.01, seed=1, record_every=3))
        assert [r.iteration for r in trace.records] == [0, 3, 6, 9, 10]

    def test_gamma_required_for_rate_algorithms(self):
        m = toy_model()
        with pytest.raises(ConfigError, match="gamma is required"):
            run("svgd_em", m, RunConfig(n_particles=2, n_iters=1))

    def test_gamma_forbidden_for_coin_algorithms(self):
        m = toy_model()
        with pytest.raises(ConfigError, match="gamma is forbidden"):
            run("coin_em", m, RunConfig(n_particles=2, n_iters=1, gamma=0.1))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            run("sgd", toy_model(), RunConfig())

    @pytest.mark.parametrize("algorithm", ["marginal_svgd_em", "marginal_coin_em"])
    def test_marginal_algorithm_needs_model_mstep(self, algorithm):
        m = BayesianLogisticRegression(np.zeros((2, 2)), np.array([0, 1]))
        gamma = 0.1 if algorithm == "marginal_svgd_em" else None
        with pytest.raises(ConfigError, match="closed-form M-step"):
            run(algorithm, m, RunConfig(n_particles=2, n_iters=1, gamma=gamma))

    @pytest.mark.parametrize(
        "algorithm", ["svgd_em", "coin_em", "adaptive_coin_em", "marginal_svgd_em", "marginal_coin_em", "pgd"]
    )
    def test_run_calls_step_through_module_attribute(self, algorithm, monkeypatch):
        # tracing wrappers replace particle_em.algorithms.<name>_step and must see every step
        import particle_em.algorithms as algorithms

        original = getattr(algorithms, f"{algorithm}_step")
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(algorithms, f"{algorithm}_step", counting)
        gamma = 0.01 if algorithm in ("svgd_em", "marginal_svgd_em", "pgd") else None
        run(algorithm, toy_model(), RunConfig(n_particles=3, n_iters=4, gamma=gamma, seed=0))
        assert len(calls) == 4

    @pytest.mark.parametrize("model", [
        BayesianLogisticRegression(np.zeros((5, 0)), np.array([1, 0, 1, 0, 1])),
        LatentSpaceNetworkModel(np.zeros((0, 0))),
    ], ids=["logreg", "network"])
    def test_model_without_latent_coordinates_is_a_config_error(self, model):
        with pytest.raises(ConfigError) as excinfo:
            run("adaptive_coin_em", model, RunConfig(n_particles=3, n_iters=2))
        assert excinfo.value.violations == [
            f"{type(model).__name__} has no latent coordinates (d_z = 0); a particle cloud needs at least one"
        ]

    def test_benchmark_span_targets_exist(self):
        # the benchmark's tracer silently skips a missing attribute, which would zero its per-layer rows
        path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "spans.py")
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        targets = [(module, attr) for module, attr, _ in spans.MODULE_TARGETS]
        missing = [t for t in targets if not hasattr(importlib.import_module(f"particle_em.{t[0]}"), t[1])]
        assert missing == []
        assert {attr for module, attr in targets if module == "algorithms" and attr.endswith("_step")} == {
            f"{name}_step" for name in ALGORITHMS
        }

    def test_divergence_carries_iteration_and_partial_trace(self):
        m = toy_model(d_z=100, seed=0)
        with pytest.raises(DivergedError) as excinfo:
            run("pgd", m, RunConfig(n_particles=5, n_iters=200, gamma=50.0, seed=2, record_every=1))
        err = excinfo.value
        assert err.iteration is not None and err.iteration >= 1
        assert err.trace is not None and len(err.trace.records) >= 1
        assert err.trace.records[-1].iteration < err.iteration

    def test_metric_hooks_recorded(self):
        m = toy_model()
        hooks = {"theta_sq": lambda th, Z: float(th[0] ** 2)}
        trace = run("adaptive_coin_em", m, RunConfig(n_particles=3, n_iters=4, seed=3, metric_hooks=hooks))
        its, vals = trace.metric_values("theta_sq")
        assert list(its) == [0, 1, 2, 3, 4]
        assert np.all(np.isfinite(vals))
        with pytest.raises(KeyError, match="metric 'theta_cube' was never recorded"):
            trace.metric_values("theta_cube")

    def test_frozen_bandwidth_changes_dynamics(self):
        m = toy_model(d_z=3)
        base = RunConfig(n_particles=4, n_iters=20, gamma=0.05, seed=4)
        adaptive = run("svgd_em", m, base)
        frozen = run("svgd_em", m, RunConfig(**{**base.__dict__, "freeze_bandwidth": True}))
        assert not np.array_equal(adaptive.final_particles, frozen.final_particles)

    @pytest.mark.parametrize("freeze", [False, True])
    def test_overflowing_bandwidth_diverges_frozen_or_not(self, freeze):
        # the pair distances of this cloud overflow, so the heuristic (frozen at init or not) is inf
        init = (np.zeros(1), np.array([[1e200], [-1e200], [0.0]]))
        config = RunConfig(n_particles=3, n_iters=2, init=init, freeze_bandwidth=freeze)
        message = "median-heuristic bandwidth overflowed on a diverging cloud"
        with pytest.raises(DivergedError, match=message) as excinfo:
            run("coin_em", toy_model(d_z=1), config)
        assert excinfo.value.iteration == 1

    @pytest.mark.parametrize("path", ["theta", "particle"])
    def test_a_nan_gradient_diverges_under_both_betting_rules(self, path):
        # adaptive betting once kept a coordinate whose gradient is NaN at its anchor: NaN > 0 is false
        model = NaNGradientModel(generate_toy_data(4, 1.0, 0)[0], path)
        for algorithm in ("adaptive_coin_em", "coin_em"):
            with pytest.raises(DivergedError, match=f"non-finite values in {path} update") as excinfo:
                run(algorithm, model, RunConfig(n_particles=5, n_iters=50, seed=1))
            assert excinfo.value.iteration == 1

    def test_fixed_bandwidth_run(self):
        m = toy_model(d_z=3)
        trace = run("svgd_em", m, RunConfig(n_particles=4, n_iters=10, gamma=0.05, seed=5, bandwidth=2.0))
        assert len(trace.records) == 11

    def test_adaptive_coin_reference_run_reaches_optimum(self):
        # desk-scale benchmark: d_z=100, N=10, T=500, theta_true=1
        m = toy_model(d_z=100, seed=21)
        trace = run("adaptive_coin_em", m, RunConfig(n_particles=10, n_iters=500, seed=22, record_every=500))
        assert abs(trace.final().theta[0] - m.theta_star()) <= 0.05

    def test_marginal_run_initializes_theta_from_mstep(self):
        m = toy_model(d_z=3)
        trace = run("marginal_coin_em", m, RunConfig(n_particles=4, n_iters=5, seed=6))
        first = trace.records[0]
        assert first.theta[0] == pytest.approx(first.particle_mean.mean(), abs=1e-15)

    def test_init_override(self):
        m = toy_model(d_z=2)
        theta0 = np.array([5.0])
        z0 = np.zeros((3, 2))
        trace = run("adaptive_coin_em", m, RunConfig(n_particles=3, n_iters=2, seed=7, init=(theta0, z0)))
        assert trace.records[0].theta[0] == 5.0

    def test_init_particle_count_mismatch_rejected(self):
        m = toy_model(d_z=2)
        with pytest.raises(ConfigError, match="particles"):
            run("adaptive_coin_em", m, RunConfig(n_particles=5, n_iters=1, init=(np.zeros(1), np.zeros((3, 2)))))

    def test_init_problems_are_reported_together(self):
        m = toy_model(d_z=2)
        init = (np.zeros(2), np.zeros((3, 3)))
        with pytest.raises(ConfigError) as excinfo:
            run("adaptive_coin_em", m, RunConfig(n_particles=3, n_iters=1, init=init))
        assert excinfo.value.violations == [
            "init theta must have 1 entries, got 2",
            "init particles must have shape (n_particles, d_z) = (3, 2), got (3, 3)",
        ]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["theta", "particles"])
    def test_non_finite_init_is_a_config_error(self, bad, where):
        m = toy_model(d_z=2)
        theta0, z0 = np.zeros(1), np.zeros((3, 2))
        (theta0 if where == "theta" else z0).flat[0] = bad
        with pytest.raises(ConfigError, match=f"init {where} must be finite, got 1 non-finite value"):
            run("adaptive_coin_em", m, RunConfig(n_particles=3, n_iters=1, init=(theta0, z0)))

    def test_one_dimensional_init_particles_rejected(self):
        with pytest.raises(ConfigError, match=r"got \(3,\)"):
            run("svgd_em", toy_model(d_z=1), RunConfig(n_particles=3, n_iters=1, gamma=0.1,
                                                       init=(np.zeros(1), np.zeros(3))))

    def test_mstep_and_init_problems_are_reported_together(self):
        m = BayesianLogisticRegression(np.zeros((2, 2)), np.array([0, 1]))
        init = (np.zeros(2), np.zeros((3, 3)))
        with pytest.raises(ConfigError) as excinfo:
            run("marginal_coin_em", m, RunConfig(n_particles=3, n_iters=1, init=init))
        assert excinfo.value.violations == [
            "algorithm 'marginal_coin_em' needs a closed-form M-step, which BayesianLogisticRegression lacks",
            "init theta must have 1 entries, got 2",
            "init particles must have shape (n_particles, d_z) = (3, 2), got (3, 3)",
        ]

    @pytest.mark.parametrize("name,value,message", [
        ("n_particles", 2.5, "n_particles must be an integer, got 2.5"),
        ("n_particles", True, "n_particles must be an integer, got True"),
        ("n_particles", 0, "n_particles must be >= 1, got 0"),
        ("n_iters", 2.0, "n_iters must be an integer, got 2.0"),
        ("record_every", 1.5, "record_every must be an integer, got 1.5"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("seed", 1.0, "seed must be an integer, got 1.0"),
        ("bandwidth", "1", f"bandwidth must be a finite positive number, got '1'{LEAST}"),
        ("bandwidth", True, f"bandwidth must be a finite positive number, got True{LEAST}"),
        pytest.param("bandwidth", 10 ** 400, f"bandwidth must be a finite positive number, got {10 ** 400}{LEAST}",
                     id="bandwidth-int-past-float64"),
        ("freeze_bandwidth", "no", "freeze_bandwidth must be a bool, got 'no'"),
        ("particle_grads_use_new_theta", "False", "particle_grads_use_new_theta must be a bool, got 'False'"),
        ("init", (np.zeros(1),), "init must be a (theta0, particles0) pair, got (array([0.]),)"),
        ("metric_hooks", None, "metric_hooks must map names to callables, got None"),
        ("metric_hooks", {"m": 1.0}, "metric_hooks must map names to callables, got {'m': 1.0}"),
    ])
    def test_bad_count_or_seed_is_a_config_error(self, name, value, message):
        config = RunConfig(**{"n_particles": 3, "n_iters": 2, "seed": 1, name: value})
        with pytest.raises(ConfigError) as excinfo:
            run("adaptive_coin_em", toy_model(), config)
        assert excinfo.value.violations == [message]

    @pytest.mark.parametrize("value,shown", [("0.1", "'0.1'"), (True, "True"), (np.nan, "nan"), (-1, "-1")])
    def test_bad_gamma_is_a_config_error(self, value, shown):
        with pytest.raises(ConfigError) as excinfo:
            run("svgd_em", toy_model(), RunConfig(n_particles=3, n_iters=2, gamma=value))
        assert excinfo.value.violations == [f"gamma must be a finite positive number, got {shown}{LEAST}"]

    def test_integer_gamma_past_int64_accepted(self):
        assert validate_run("svgd_em", RunConfig(gamma=2 ** 70)) == []

    @pytest.mark.parametrize("algorithm", ["svgd_em", "coin_em"])
    def test_numpy_scalar_options_accepted(self, algorithm):
        m, gamma = toy_model(), (0.25 if algorithm == "svgd_em" else None)
        plain = RunConfig(n_particles=3, n_iters=4, seed=5, gamma=gamma, bandwidth=2.0, freeze_bandwidth=True,
                          particle_grads_use_new_theta=False)
        numpy = RunConfig(n_particles=3, n_iters=4, seed=5, gamma=None if gamma is None else np.float32(gamma),
                          bandwidth=np.int64(2), freeze_bandwidth=np.bool_(True),
                          particle_grads_use_new_theta=np.bool_(False))
        assert_bitwise_equal(run(algorithm, m, numpy).final_particles, run(algorithm, m, plain).final_particles)

    def test_numpy_integer_counts_and_seed_accepted(self):
        m = toy_model()
        plain = run("adaptive_coin_em", m, RunConfig(n_particles=3, n_iters=4, record_every=2, seed=5))
        numpy_ints = run("adaptive_coin_em", m, RunConfig(n_particles=np.int64(3), n_iters=np.int32(4),
                                                          record_every=np.int64(2), seed=np.uint64(5)))
        assert list(numpy_ints.iterations()) == [0, 2, 4]
        np.testing.assert_array_equal(numpy_ints.final_particles, plain.final_particles)

    @pytest.mark.parametrize("theta0,particles,message", [
        (np.zeros(1), [["a", 0.0], [0.0, 0.0], [0.0, 0.0]], "init particles must be an array of real numbers, "
                                                            "got dtype <U32"),
        ("x", np.zeros((3, 2)), "init theta must be an array of real numbers, got dtype <U1"),
        (np.zeros(1), [[0.0], [0.0, 0.0], [0.0, 0.0]], "init particles must be an array of real numbers: "
                                                       "setting an array element with a sequence"),
        (np.zeros(1), np.zeros((3, 2)) + 1j, "init particles must be an array of real numbers, got dtype complex128"),
        (np.zeros(1, dtype=bool), np.zeros((3, 2)), "init theta must be an array of real numbers, got dtype bool"),
        (np.zeros(1), np.zeros((3, 2), dtype=object), "init particles must be an array of real numbers, "
                                                      "got dtype object"),
    ], ids=["string", "string-theta", "ragged", "complex", "bool", "object"])
    def test_init_of_anything_but_real_numbers_is_a_config_error(self, theta0, particles, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a complex cloud once ran, with only a ComplexWarning
            with pytest.raises(ConfigError) as excinfo:
                run("adaptive_coin_em", toy_model(d_z=2), RunConfig(n_particles=3, n_iters=1, init=(theta0, particles)))
        [violation] = excinfo.value.violations
        assert violation.startswith(message)

    def test_bad_particle_count_beside_an_init_is_one_problem(self):
        config = RunConfig(n_particles=np.array([1.0, 2.0]), n_iters=1, init=(np.zeros(1), np.zeros((3, 4))))
        with pytest.raises(ConfigError) as excinfo:
            run("adaptive_coin_em", toy_model(), config)
        assert excinfo.value.violations == ["n_particles must be an integer, got array([1., 2.])"]

    def test_init_is_read_into_fresh_float64_arrays(self):
        m = toy_model(d_z=2)
        theta0, z0 = np.array([[5]]), np.asfortranarray(np.arange(6).reshape(3, 2))
        trace = run("adaptive_coin_em", m, RunConfig(n_particles=3, n_iters=2, seed=7, init=(theta0, z0)))
        floats = run("adaptive_coin_em", m, RunConfig(n_particles=3, n_iters=2, seed=7,
                                                      init=(np.array([5.0]), np.arange(6.0).reshape(3, 2))))
        assert_bitwise_equal(trace.final_particles, floats.final_particles)
        assert trace.initial_particles.dtype == np.float64 and trace.initial_particles.flags.c_contiguous
        assert theta0.dtype.kind == "i" and z0.dtype.kind == "i"  # the caller's arrays are untouched

    @pytest.mark.parametrize("algorithm", ["adaptive_coin_em", "svgd_em", "pgd"])
    def test_initial_particles_are_the_runs_own_copy_of_init(self, algorithm):
        # the trace keeps the array the run read init into, which no step writes, and not the caller's
        theta0, z0 = np.array([0.5]), np.random.default_rng(3).standard_normal((4, 2))
        config = RunConfig(n_particles=4, n_iters=3, gamma=0.01 if algorithm != "adaptive_coin_em" else None,
                           seed=1, init=(theta0, z0))
        trace = run(algorithm, toy_model(d_z=2), config)
        assert_bitwise_equal(trace.initial_particles, z0)
        assert trace.initial_particles.dtype == np.float64 and trace.initial_particles.flags.c_contiguous
        assert not any(np.shares_memory(trace.initial_particles, given) for given in (theta0, z0))

    def test_denominator_array_is_a_config_error(self):
        config = RunConfig(n_particles=3, n_iters=1, adaptive_denominator=np.array(["bnn", "x"]))
        with pytest.raises(ConfigError) as excinfo:
            run("adaptive_coin_em", toy_model(), config)
        assert excinfo.value.violations == [
            "adaptive_denominator must be 'standard' or 'bnn', got array(['bnn', 'x'], dtype='<U3')"]

    @pytest.mark.parametrize("value,reason", [
        ("x", "could not convert string to float: 'x'"),
        (np.zeros(2), "only 0-dimensional arrays can be converted to Python scalars"),
        (None, "float() argument must be a string or a real number, not 'NoneType'"),
    ], ids=["string", "array", "none"])
    def test_hook_value_float_refuses_is_a_config_error(self, value, reason):
        hooks = {"theta": lambda th, Z: float(th[0]), "bad": lambda th, Z: value}
        with pytest.raises(ConfigError) as excinfo:
            run("adaptive_coin_em", toy_model(), RunConfig(n_particles=3, n_iters=1, metric_hooks=hooks))
        assert excinfo.value.violations == [f"metric hook 'bad' must return a real number: {reason}"]

    @pytest.mark.parametrize("value", [np.complex128(1 + 2j), np.complex64(3), np.clongdouble(-0.0)],
                             ids=["complex128", "complex64-real", "clongdouble-zero"])
    def test_complex_hook_value_is_a_config_error(self, value):
        # float() keeps a numpy complex scalar's real part with only a ComplexWarning
        hooks = {"theta": lambda th, Z: float(th[0]), "bad": lambda th, Z: value}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as excinfo:
                run("pgd", toy_model(), RunConfig(n_particles=3, n_iters=1, gamma=0.1, metric_hooks=hooks))
        assert excinfo.value.violations == [
            f"metric hook 'bad' must return a real number: got the complex value {value!r}"]


class TestColumnarTrace:
    HOOKS = {"theta": lambda th, Z: float(th[0]), "spread": lambda th, Z: float(Z.std())}

    @pytest.mark.parametrize("n_iters,every,expected", [
        (0, 3, [0]),
        (1, 3, [0, 1]),
        (9, 3, [0, 3, 6, 9]),
        (10, 3, [0, 3, 6, 9, 10]),
        (10, 1, list(range(11))),
        (4, 10 ** 30, [0, 4]),
    ], ids=["zero", "one", "multiple", "multiple-plus-one", "every", "huge-every"])
    def test_rows_are_allocated_at_their_final_count(self, n_iters, every, expected):
        config = RunConfig(n_particles=3, n_iters=n_iters, seed=1, record_every=every, metric_hooks=self.HOOKS)
        trace = run("adaptive_coin_em", toy_model(), config)
        assert trace.iterations().tolist() == expected and len(expected) == 1 + math.ceil(n_iters / every)
        # every column was allocated once, at the run's row count, and is full
        final = trace.final()
        for column in (trace.iterations(), final.theta, final.particle_mean, trace.metric_values("spread")[1]):
            assert column.base.shape[0] == len(expected)

    def test_accessors_agree_and_are_read_only(self):
        config = RunConfig(n_particles=4, n_iters=7, seed=2, record_every=2, metric_hooks=self.HOOKS)
        trace = run("adaptive_coin_em", toy_model(d_z=3), config)
        records = trace.records
        assert [r.iteration for r in records] == trace.iterations().tolist() == [0, 2, 4, 6, 7]
        assert trace.metric_names == ("theta", "spread")
        for name in trace.metric_names:
            its, values = trace.metric_values(name)
            assert_bitwise_equal(its, trace.iterations())
            assert_bitwise_equal(values, np.array([r.metrics[name] for r in records]))
            assert all(type(r.metrics[name]) is float for r in records)
        final = trace.final()
        assert final.iteration == 7 and final.metrics == records[-1].metrics
        assert_bitwise_equal(final.theta, records[-1].theta)
        assert_bitwise_equal(final.theta, trace.final_theta)
        assert_bitwise_equal(final.particle_mean, records[-1].particle_mean)
        assert_bitwise_equal(final.particle_mean, trace.final_particles.mean(axis=0))
        arrays = [trace.iterations(), trace.metric_values("theta")[1], final.theta, final.particle_mean,
                  records[0].theta, records[0].particle_mean]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_a_diverged_run_exposes_the_rows_before_its_failing_step(self):
        m = toy_model(d_z=100, seed=0)
        with pytest.raises(DivergedError) as excinfo:
            run("pgd", m, RunConfig(n_particles=5, n_iters=200, gamma=50.0, seed=2, record_every=1,
                                    metric_hooks=self.HOOKS))
        err = excinfo.value
        count = err.iteration  # iterations 0 .. iteration - 1 were recorded
        trace = err.trace
        assert len(trace.records) == len(trace.metric_values("theta")[1]) == count
        assert trace.iterations().tolist() == list(range(count))
        assert trace.final().iteration == count - 1
        assert_bitwise_equal(trace.final().theta, trace.final_theta)

    def test_trace_built_from_columns(self):
        trace = Trace([0, 5], [[1.0], [2.0]], [[0.5, 0.25], [-0.0, 3.0]], {"m": [math.inf, math.nan]})
        assert trace.metric_names == ("m",)
        [first, last] = trace.records
        assert (first.iteration, first.metrics) == (0, {"m": math.inf})
        assert last.iteration == 5 and math.isnan(last.metrics["m"]) and math.copysign(1.0, last.particle_mean[0]) < 0
        assert Trace([0], [[1.0]], [[0.0]]).metric_names == ()

    def test_trace_rows_no_array_can_hold_are_a_config_error(self):
        model = toy_model(d_z=100)
        config = RunConfig(n_particles=3, n_iters=2 ** 62, gamma=0.1, record_every=1)
        rows = 2 ** 62 + 1
        assert validate_run("pgd", config, model) == [
            f"trace rows x d_z = {rows} x 100 is more values than one array can hold "
            f"(n_iters = {2 ** 62}, record_every = 1)"]
        assert validate_run("pgd", dataclasses.replace(config, record_every=2 ** 20), model) == []
        assert validate_run("pgd", config) == []  # the row size needs the model

    def test_trace_bytes_are_its_columns(self):
        """A 500-iteration toy pgd run recording every iteration keeps its columns and its two clouds, not
        an object per record (which held 744 KB here)."""
        n, d_z, n_iters = 10, 100, 500
        hooks = {f"h{k}": (lambda k: lambda th, Z: float(th[0]) + k)(k) for k in range(5)}
        model = toy_model(d_z=d_z, seed=4)
        config = RunConfig(n_particles=n, n_iters=n_iters, gamma=1e-3, seed=5, record_every=1, metric_hooks=hooks)
        run("pgd", model, config)  # warm: first-call caches are not the trace's
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = run("pgd", model, config)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        rows = n_iters + 1
        assert len(trace.iterations()) == rows
        columns = 8 * rows * (2 + model.d_theta + d_z + len(hooks))
        clouds = 2 * 8 * n * d_z
        assert held <= 1.1 * columns + clouds, (held, columns, clouds)


#: values of the wrong kind for some RunConfig field, or of the right kind at an extreme
ODD_VALUES = st.one_of(
    st.text(max_size=3), st.booleans(), st.none(), st.floats(), st.complex_numbers(max_magnitude=10),
    st.sampled_from([np.float64(0.5), np.float32(2.0), np.int64(2), np.uint8(1), np.bool_(True), np.str_("bnn"),
                     np.array(1.0), np.array(2), np.array([1.0, 2.0]), np.array(["bnn", "x"]), [[0.0], [0.0, 1.0]],
                     (), 10 ** 30, -(10 ** 30), 2 ** 63, 10 ** 400]),
)


def _is_big_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value > 4


def _valid_fields(algorithm: str, rows: int) -> dict:
    """A strategy of valid values for each RunConfig field but ``n_particles``; ``rows`` sizes the init cloud."""
    hooks = st.one_of(st.floats(), st.sampled_from([np.float64(1.5), np.array(2.0), "3.5", 10 ** 30])).map(
        lambda v: {"theta": lambda th, Z: float(th[0]), "m": lambda th, Z: v})
    return {
        "gamma": st.sampled_from([0.1, np.float64(0.01), 1e300, 2 ** 70]) if "gd" in ALGORITHMS[algorithm]
        else st.none(),
        "record_every": st.sampled_from([1, 2, np.int64(3), 10 ** 30]),
        "bandwidth": st.sampled_from([None, 1.0, np.float32(0.5), 5e-324]),
        "freeze_bandwidth": st.sampled_from([False, True, np.bool_(True)]),
        "adaptive_denominator": st.sampled_from(["standard", "bnn", np.str_("bnn")]),
        "particle_grads_use_new_theta": st.sampled_from([True, False, np.bool_(False)]),
        "n_iters": st.integers(0, 3),
        "seed": st.one_of(st.integers(0, 2 ** 70), st.just(np.uint64(5))),
        "init": st.one_of(st.none(), st.tuples(st.sampled_from([np.zeros(1), np.array(0.5), [2]]),
                                               st.sampled_from([np.zeros((rows, 2)), np.ones((rows, 2), dtype=int),
                                                                np.asfortranarray(np.arange(2.0 * rows).reshape(rows, 2))]))),
        "metric_hooks": st.one_of(st.just({}), hooks),
    }


def _odd_fields(rows: int) -> dict:
    """A strategy of odd values for each RunConfig field but ``n_particles``: ODD_VALUES, plus odd init pairs
    and odd hook values. Only the iteration count never draws a huge integer, which would run for ever."""
    cloud = np.zeros((rows, 2))
    odd_init = st.tuples(st.one_of(st.just(np.zeros(1)), ODD_VALUES),
                         st.one_of(st.sampled_from([cloud + 1j, cloud.astype(bool), cloud.astype(object),
                                                    [["a", 0.0]] * rows, [[0.0]] + [[0.0, 0.0]] * (rows - 1),
                                                    cloud[:, :1], np.full((rows, 2), np.inf)]), ODD_VALUES))
    odd = {name: ODD_VALUES for name in ("gamma", "record_every", "bandwidth", "freeze_bandwidth",
                                         "adaptive_denominator", "particle_grads_use_new_theta", "seed")}
    return {**odd, "n_iters": ODD_VALUES.filter(lambda v: not _is_big_int(v)),
            "init": st.one_of(ODD_VALUES, odd_init),
            "metric_hooks": st.one_of(ODD_VALUES, ODD_VALUES.map(lambda v: {"m": lambda th, Z: v}))}


@given(st.data())
@settings(max_examples=150)
def test_run_returns_a_trace_or_raises_a_run_error_on_any_field_values(data):
    """Each RunConfig field valid or odd, a few odd at a time: a run ends in a Trace, a ConfigError or a
    DivergedError, never in another exception."""
    algorithm = data.draw(st.sampled_from(sorted(ALGORITHMS)), label="algorithm")
    names = [f.name for f in dataclasses.fields(RunConfig)]
    odd_names = data.draw(st.sets(st.sampled_from(names), max_size=3), label="odd fields")
    n_particles = data.draw(ODD_VALUES if "n_particles" in odd_names else st.integers(1, 4), label="n_particles")
    rows = n_particles if type(n_particles) is int and 1 <= n_particles <= 4 else 3
    valid, odd = _valid_fields(algorithm, rows), _odd_fields(rows)
    assert set(valid) == set(odd) == set(names) - {"n_particles"}
    config = RunConfig(n_particles=n_particles, **{
        name: data.draw(odd[name] if name in odd_names else valid[name], label=name) for name in valid})
    try:
        trace = run(algorithm, toy_model(d_z=2), config)
    except ConfigError as err:
        assert err.violations and all(isinstance(v, str) for v in err.violations)
    except DivergedError:
        pass
    else:
        assert isinstance(trace, Trace) and trace.records[0].iteration == 0


def spy_on_grad_z(model, plain=False):
    """Wrap the instance's ``grad_z`` the way the benchmark's tracer does (``functools.wraps``), or with a
    plain ``(*args, **kwargs)`` wrapper; return the list of the scratches its calls receive."""
    inner, received = model.grad_z, []

    def spy(*args, **kwargs):
        received.append(kwargs.get("scratch"))
        return inner(*args, **kwargs)

    model.grad_z = spy if plain else functools.wraps(inner)(spy)
    return received


SPIED_MODELS = {
    "toy": lambda: toy_model(d_z=3),
    "network": lambda: LatentSpaceNetworkModel(planted_two_community_network(8, n=7)[0], embed_dim=2),
    "logreg": lambda: BayesianLogisticRegression(np.random.default_rng(4).standard_normal((20, 3)),
                                                 np.arange(20) % 2),
}


@pytest.mark.parametrize("algorithm", ["adaptive_coin_em", "pgd"])
@pytest.mark.parametrize("name,plain", [("toy", False), ("network", False), ("logreg", False), ("logreg", True)],
                         ids=["toy", "network", "logreg", "logreg-plain-wrapper"])
def test_every_grad_z_call_of_a_run_gets_the_runs_one_scratch(name, plain, algorithm):
    model = SPIED_MODELS[name]()
    received = spy_on_grad_z(model, plain)
    config = RunConfig(n_particles=3, n_iters=4, seed=0, gamma=0.01 if algorithm == "pgd" else None)
    scratches = []
    for _ in range(2):
        received.clear()
        run(algorithm, model, config)
        assert len(received) == 4 and isinstance(received[0], Scratch)
        assert all(scratch is received[0] for scratch in received)
        scratches.append(received[0])
    assert scratches[0] is not scratches[1]


def test_svgd_theta_gradient_decays_on_toy():
    # empirical descent check: gradient norm shrinks over the run (gamma*d_z < 2)
    m = toy_model(d_z=5, seed=30)
    hooks = {"gn": lambda th, Z: float(np.linalg.norm(m.mean_grad_theta(th, Z)))}
    trace = run("svgd_em", m, RunConfig(n_particles=10, n_iters=500, gamma=0.1, seed=31, record_every=500, metric_hooks=hooks))
    assert trace.records[-1].metrics["gn"] < trace.records[0].metrics["gn"]
