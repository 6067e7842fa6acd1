"""Iterative optimizers over (parameter, particle cloud) pairs.

Six particle-based schemes for maximizing the marginal likelihood of a
latent-variable model, each a rule for theta paired with a rule for the
particles (all but ``pgd`` move them along the cloud's kernelized direction):

* ``svgd_em``          -- gradient steps (learning rate gamma) for both.
* ``coin_em``          -- learning-rate-free; Krichevsky-Trofimov betting
                          recursions on both gradient streams.
* ``adaptive_coin_em`` -- betting with per-coordinate gradient-scale
                          normalization for both (unbounded gradients).
* ``marginal_*``       -- the model's exact closed-form M-step for theta;
                          a gradient step or KT betting for the particles.
* ``pgd``              -- Euler-Maruyama discretization of coupled parameter
                          drift and latent Langevin dynamics (the
                          learning-rate-dependent baseline).

Steps are pure state transitions: they never mutate their input state, and
(for ``pgd``) the random generator is part of the input. Any non-finite value
in an updated state aborts with :class:`DivergedError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import kernels
from .exceptions import ConfigError, DivergedError
from .kernels import median_heuristic, stein_direction
from .models.base import Model


# ---------------------------------------------------------------------------
# optimizer states


@dataclass
class SvgdEmState:
    """State of the learning-rate algorithms: current iterate plus step size."""

    theta: np.ndarray  # (d_theta,)
    particles: np.ndarray  # (N, d_z)
    gamma: float


@dataclass
class BettingState:
    """Betting-recursion state: anchors, current iterate, and streamed sums.

    ``sum_grad_*`` accumulate the parameter-gradient stream and, per particle,
    the kernelized directions. The KT rule sums their inner products with
    (x_s - x0) in ``reward_*``; the scale-normalized rule instead tracks per
    coordinate the largest gradient magnitude L, the sum of absolute gradients
    G and the clipped reward R (L, G non-decreasing, R >= 0). Each rule leaves
    the other's fields at zero; ``t`` counts completed steps.
    """

    theta0: np.ndarray
    z0: np.ndarray
    theta: np.ndarray
    particles: np.ndarray
    sum_grad_theta: np.ndarray  # (d_theta,)
    reward_theta: float
    sum_grad_z: np.ndarray  # (N, d_z)
    reward_z: np.ndarray  # (N,)
    L_theta: np.ndarray  # (d_theta,)
    G_theta: np.ndarray
    R_theta: np.ndarray
    L_z: np.ndarray  # (N, d_z)
    G_z: np.ndarray
    R_z: np.ndarray
    t: int = 0

    @classmethod
    def initial(cls, theta0, z0) -> "BettingState":
        theta0 = np.asarray(theta0, dtype=np.float64)
        z0 = np.asarray(z0, dtype=np.float64)
        return cls(
            theta0=theta0.copy(),
            z0=z0.copy(),
            theta=theta0.copy(),
            particles=z0.copy(),
            sum_grad_theta=np.zeros_like(theta0),
            reward_theta=0.0,
            sum_grad_z=np.zeros_like(z0),
            reward_z=np.zeros(z0.shape[0]),
            L_theta=np.zeros_like(theta0),
            G_theta=np.zeros_like(theta0),
            R_theta=np.zeros_like(theta0),
            L_z=np.zeros_like(z0),
            G_z=np.zeros_like(z0),
            R_z=np.zeros_like(z0),
            t=0,
        )


# ---------------------------------------------------------------------------
# single-step updates


def _require_finite(what: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise DivergedError(f"non-finite values in {what}")


def _direction(model: Model, theta: np.ndarray, z: np.ndarray, h: float | None) -> np.ndarray:
    """Kernelized direction of the cloud z with latent gradients at theta (h=None: median heuristic).

    The squared distances are computed once and shared by the bandwidth and the kernel.
    """
    sq = kernels.pairwise_sq_dists(z)
    bandwidth = median_heuristic(z, sq) if h is None else float(h)
    # squared distances of an exploding cloud can overflow the heuristic, now or when it was frozen
    if not np.isfinite(bandwidth):
        raise DivergedError("median-heuristic bandwidth overflowed on a diverging cloud")
    return stein_direction(z, model.grad_z(theta, z), bandwidth, sq)


def _kt(x0, x, c, csum, reward, t):
    """Krichevsky-Trofimov bet on the last axis after the t-th gradient c.

    Returns (x_new, csum, reward); reward sums <c_s, x_s - x0> and is a scalar
    for a vector x, one entry per row for a cloud x.
    """
    csum = csum + c
    reward = reward + np.einsum("...i,...i->...", c, x - x0)
    return x0 + csum / (t + 1) * (1.0 + reward)[..., None], csum, reward


def _adaptive_update(x0, x, csum_prev, c, L_prev, G_prev, R_prev, denominator):
    """Shared per-coordinate scale-normalized betting update.

    Returns (x_new, csum, L, G, R). Coordinates that have never seen a
    non-zero gradient (L = 0) stay at their initial value.
    """
    abs_c = np.abs(c)
    L = np.maximum(L_prev, abs_c)
    G = G_prev + abs_c
    R = np.maximum(R_prev + c * (x - x0), 0.0)
    csum = csum_prev + c
    denom = G + L
    if denominator == "bnn":
        denom = np.maximum(denom, 100.0 * L)
    with np.errstate(divide="ignore", invalid="ignore"):
        candidate = x0 + csum / denom * (1.0 + R / L)
    return np.where(L > 0.0, candidate, x0), csum, L, G, R


def svgd_em_step(state: SvgdEmState, model: Model, h: float | None = None) -> SvgdEmState:
    """One gradient step on theta, then one kernelized transport step.

    The particle update evaluates latent gradients at the already-updated
    theta. ``h`` fixes the kernel bandwidth; None recomputes the median
    heuristic from the current cloud.
    """
    theta, z, gamma = state.theta, state.particles, state.gamma
    with np.errstate(over="ignore", invalid="ignore"):
        theta_new = theta + gamma * model.mean_grad_theta(theta, z)
        _require_finite("theta update", theta_new)
        z_new = z + gamma * _direction(model, theta_new, z, h)
    _require_finite("particle update", z_new)
    return SvgdEmState(theta=theta_new, particles=z_new, gamma=gamma)


def coin_em_step(
    state: BettingState,
    model: Model,
    h: float | None = None,
    particle_grads_use_new_theta: bool = True,
) -> BettingState:
    """One round of the two interacting betting games (no learning rate).

    After k completed steps the iterate is
    ``x = x0 + sum(c_1..c_k) / (k + 1) * (1 + sum_s <c_s, x_s - x0>)``,
    applied to theta with the averaged parameter gradient and to each particle
    with its kernelized direction. By default particle gradients are taken at
    the just-updated theta; set ``particle_grads_use_new_theta=False`` for the
    pre-update theta.
    """
    theta, z, t = state.theta, state.particles, state.t + 1
    with np.errstate(over="ignore", invalid="ignore"):
        g_bar = model.mean_grad_theta(theta, z)
        theta_new, sum_g, reward = _kt(state.theta0, theta, g_bar, state.sum_grad_theta, state.reward_theta, t)
        _require_finite("theta update", theta_new)
        phi = _direction(model, theta_new if particle_grads_use_new_theta else theta, z, h)
        z_new, sum_z, reward_z = _kt(state.z0, z, phi, state.sum_grad_z, state.reward_z, t)
    _require_finite("particle update", z_new)
    return replace(
        state,
        theta=theta_new,
        particles=z_new,
        sum_grad_theta=sum_g,
        reward_theta=reward,
        sum_grad_z=sum_z,
        reward_z=reward_z,
        t=t,
    )


def adaptive_coin_em_step(
    state: BettingState,
    model: Model,
    h: float | None = None,
    denominator: str = "standard",
    particle_grads_use_new_theta: bool = True,
) -> BettingState:
    """Coin betting with per-coordinate scale normalization.

    Each coordinate bets ``x0 + csum / D * (1 + R / L)`` where D = G + L for
    the standard denominator, or max(G + L, 100 L) for the ``bnn`` variant.
    """
    if denominator not in ("standard", "bnn"):
        raise ValueError(f"denominator must be 'standard' or 'bnn', got {denominator!r}")
    theta, z = state.theta, state.particles
    with np.errstate(over="ignore", invalid="ignore"):
        theta_new, sum_g, L_t, G_t, R_t = _adaptive_update(
            state.theta0, theta, state.sum_grad_theta, model.mean_grad_theta(theta, z),
            state.L_theta, state.G_theta, state.R_theta, denominator,
        )
        _require_finite("theta update", theta_new)
        phi = _direction(model, theta_new if particle_grads_use_new_theta else theta, z, h)
        z_new, sum_z, L_z, G_z, R_z = _adaptive_update(
            state.z0, z, state.sum_grad_z, phi,
            state.L_z, state.G_z, state.R_z, denominator,
        )
    _require_finite("particle update", z_new)
    # the constructor, not dataclasses.replace: this is the default optimizer's per-step path
    return BettingState(
        theta0=state.theta0,
        z0=state.z0,
        theta=theta_new,
        particles=z_new,
        sum_grad_theta=sum_g,
        reward_theta=state.reward_theta,
        sum_grad_z=sum_z,
        reward_z=state.reward_z,
        L_theta=L_t,
        G_theta=G_t,
        R_theta=R_t,
        L_z=L_z,
        G_z=G_z,
        R_z=R_z,
        t=state.t + 1,
    )


def marginal_svgd_em_step(state: SvgdEmState, model: Model, h: float | None = None) -> SvgdEmState:
    """Kernelized particle step with theta pinned to the exact M-step.

    Latent gradients are evaluated at the M-step of the pre-update cloud; the
    returned state carries the M-step of the post-update cloud, so
    ``state.theta == model.marginal_mstep(state.particles)`` always holds.
    """
    z, gamma = state.particles, state.gamma
    theta_used = model.marginal_mstep(z)
    with np.errstate(over="ignore", invalid="ignore"):
        z_new = z + gamma * _direction(model, theta_used, z, h)
    _require_finite("particle update", z_new)
    return SvgdEmState(theta=model.marginal_mstep(z_new), particles=z_new, gamma=gamma)


def marginal_coin_em_step(state: BettingState, model: Model, h: float | None = None) -> BettingState:
    """Betting-recursion particle step with theta pinned to the exact M-step.

    The particle accumulators store each round's kernelized direction as
    computed at that round's M-step parameter; the theta-side accumulators of
    the state stay zero.
    """
    z, t = state.particles, state.t + 1
    theta_used = model.marginal_mstep(z)
    with np.errstate(over="ignore", invalid="ignore"):
        phi = _direction(model, theta_used, z, h)
        z_new, sum_z, reward_z = _kt(state.z0, z, phi, state.sum_grad_z, state.reward_z, t)
    _require_finite("particle update", z_new)
    return replace(
        state,
        theta=model.marginal_mstep(z_new),
        particles=z_new,
        sum_grad_z=sum_z,
        reward_z=reward_z,
        t=t,
    )


def pgd_step(state: SvgdEmState, model: Model, rng: np.random.Generator) -> SvgdEmState:
    """Euler-Maruyama step: parameter drift plus noisy latent Langevin step.

    Both gradient evaluations use the pre-update theta; each particle receives
    independent N(0, 2*gamma) noise per coordinate drawn from ``rng``.
    """
    theta, z, gamma = state.theta, state.particles, state.gamma
    with np.errstate(over="ignore", invalid="ignore"):
        theta_new = theta + gamma * model.mean_grad_theta(theta, z)
        _require_finite("theta update", theta_new)
        noise = rng.standard_normal(z.shape)
        z_new = z + gamma * model.grad_z(theta, z) + np.sqrt(2.0 * gamma) * noise
    _require_finite("particle update", z_new)
    return SvgdEmState(theta=theta_new, particles=z_new, gamma=gamma)


class _Algorithm(NamedTuple):
    needs_gamma: bool  # the learning-rate algorithms, which carry an SvgdEmState
    uses_mstep: bool
    step: Callable  # (state, model, bandwidth, rng, RunConfig) -> next state


#: every algorithm by name; a step looks up ``<name>_step`` when called, so run() sees a wrapped one
ALGORITHMS = {
    "svgd_em": _Algorithm(True, False, lambda s, m, h, rng, c: svgd_em_step(s, m, h)),
    "coin_em": _Algorithm(False, False, lambda s, m, h, rng, c: coin_em_step(s, m, h, c.particle_grads_use_new_theta)),
    "adaptive_coin_em": _Algorithm(
        False, False,
        lambda s, m, h, rng, c: adaptive_coin_em_step(s, m, h, c.adaptive_denominator, c.particle_grads_use_new_theta),
    ),
    "marginal_svgd_em": _Algorithm(True, True, lambda s, m, h, rng, c: marginal_svgd_em_step(s, m, h)),
    "marginal_coin_em": _Algorithm(False, True, lambda s, m, h, rng, c: marginal_coin_em_step(s, m, h)),
    "pgd": _Algorithm(True, False, lambda s, m, h, rng, c: pgd_step(s, m, rng)),
}


# ---------------------------------------------------------------------------
# run loop


@dataclass
class TraceRecord:
    iteration: int
    theta: np.ndarray
    particle_mean: np.ndarray
    metrics: dict[str, float]


@dataclass
class Trace:
    """Time-indexed record of a run; iterations are strictly increasing."""

    records: list[TraceRecord] = field(default_factory=list)
    initial_particles: np.ndarray | None = None
    final_particles: np.ndarray | None = None

    def iterations(self) -> np.ndarray:
        return np.array([r.iteration for r in self.records], dtype=int)

    def metric_values(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(iterations, values) for one metric across all records."""
        pairs = [(r.iteration, r.metrics[name]) for r in self.records if name in r.metrics]
        if not pairs:
            raise KeyError(f"metric {name!r} was never recorded")
        its, vals = zip(*pairs)
        return np.array(its, dtype=int), np.array(vals, dtype=np.float64)

    def final(self) -> TraceRecord:
        return self.records[-1]


@dataclass
class RunConfig:
    """Settings for a single optimization run.

    ``gamma`` is required for the learning-rate algorithms and must be absent
    for the coin variants. ``init`` optionally overrides the model's default
    (theta0, particles0). ``metric_hooks`` maps metric names to callables
    ``f(theta, particles) -> float`` evaluated at every recorded iteration.
    ``bandwidth`` fixes the kernel bandwidth; ``freeze_bandwidth`` computes it
    once from the initial cloud instead of at every iteration.
    ``adaptive_denominator`` is read only by ``adaptive_coin_em``, and
    ``particle_grads_use_new_theta`` only by ``coin_em`` and
    ``adaptive_coin_em``; the other algorithms ignore both.
    """

    n_particles: int = 10
    n_iters: int = 500
    gamma: float | None = None
    seed: int = 0
    record_every: int = 1
    init: tuple[np.ndarray, np.ndarray] | None = None
    metric_hooks: dict[str, Callable[[np.ndarray, np.ndarray], float]] = field(default_factory=dict)
    bandwidth: float | None = None
    freeze_bandwidth: bool = False
    adaptive_denominator: str = "standard"
    particle_grads_use_new_theta: bool = True


def validate_run(algorithm: str, config: RunConfig) -> list[str]:
    """Return every problem with running ``algorithm`` under ``config``."""
    problems = []
    if algorithm not in ALGORITHMS:
        problems.append(f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}")
    elif ALGORITHMS[algorithm].needs_gamma:
        if config.gamma is None:
            problems.append(f"gamma is required for algorithm {algorithm!r}")
        elif not np.isfinite(config.gamma) or config.gamma <= 0:
            problems.append(f"gamma must be a finite positive number, got {config.gamma}")
    elif config.gamma is not None:
        problems.append(f"gamma is forbidden for coin algorithm {algorithm!r}")
    for name, low in (("n_particles", 1), ("n_iters", 0), ("record_every", 1)):
        if getattr(config, name) < low:
            problems.append(f"{name} must be >= {low}, got {getattr(config, name)}")
    if config.adaptive_denominator not in ("standard", "bnn"):
        problems.append(f"adaptive_denominator must be 'standard' or 'bnn', got {config.adaptive_denominator!r}")
    if config.bandwidth is not None and not (np.isfinite(config.bandwidth) and config.bandwidth > 0):
        problems.append(f"bandwidth must be a finite positive number, got {config.bandwidth}")
    return problems


def run(algorithm: str, model: Model, config: RunConfig) -> Trace:
    """Execute T optimizer steps and return the recorded trace.

    Iteration 0 (the initialization) is always recorded, then every
    ``record_every`` iterations plus the final one. Identical (algorithm,
    model, config, seed) produce bit-identical traces. On divergence a
    :class:`DivergedError` is raised with the partial trace attached.
    """
    problems = validate_run(algorithm, config)
    spec = ALGORITHMS.get(algorithm)
    if spec is not None and spec.uses_mstep and type(model).marginal_mstep is Model.marginal_mstep:
        problems.append(f"algorithm {algorithm!r} needs a closed-form M-step, which {type(model).__name__} lacks")
    if problems:
        raise ConfigError(problems)

    rng = np.random.default_rng(config.seed)
    if config.init is not None:
        theta0 = np.asarray(config.init[0], dtype=np.float64).ravel().copy()
        z0 = np.asarray(config.init[1], dtype=np.float64).copy()
        if z0.ndim != 2:
            raise ConfigError([f"init particles must be (N, d_z), got shape {z0.shape}"])
    else:
        theta0, z0 = model.default_init(config.n_particles, rng)
    if z0.shape[0] != config.n_particles:
        raise ConfigError(
            [f"init provides {z0.shape[0]} particles but n_particles = {config.n_particles}"]
        )

    h = config.bandwidth
    if config.freeze_bandwidth and h is None:
        h = median_heuristic(z0)

    if spec.uses_mstep:
        theta0 = np.asarray(model.marginal_mstep(z0), dtype=np.float64).ravel()
    if spec.needs_gamma:
        state = SvgdEmState(theta=theta0, particles=z0, gamma=float(config.gamma))
    else:
        state = BettingState.initial(theta0, z0)

    trace = Trace(initial_particles=z0.copy())

    def record(iteration: int, theta: np.ndarray, particles: np.ndarray) -> None:
        # hooks may overflow to inf on states that are en route to divergence
        with np.errstate(over="ignore", invalid="ignore"):
            metrics = {name: float(hook(theta, particles)) for name, hook in config.metric_hooks.items()}
        trace.records.append(
            TraceRecord(
                iteration=iteration,
                theta=theta.copy(),
                particle_mean=particles.mean(axis=0),
                metrics=metrics,
            )
        )

    record(0, state.theta, state.particles)
    for t in range(1, config.n_iters + 1):
        try:
            state = spec.step(state, model, h, rng, config)
        except DivergedError as err:
            trace.final_particles = state.particles.copy()
            raise DivergedError(str(err), iteration=t, trace=trace) from None
        if t % config.record_every == 0 or t == config.n_iters:
            record(t, state.theta, state.particles)
    trace.final_particles = state.particles.copy()
    return trace
