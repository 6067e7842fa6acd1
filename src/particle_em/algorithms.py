"""Iterative optimizers over (parameter, particle cloud) pairs.

Six particle-based schemes for maximizing the marginal likelihood of a
latent-variable model. Each pairs a theta rule, fed the parameter gradient
averaged over the cloud, with a particle rule, fed the cloud's kernelized
direction; ``ALGORITHMS`` maps every name to its pair. The rules:

* ``gd``       -- gradient step with learning rate gamma.
* ``kt``       -- Krichevsky-Trofimov coin betting (no learning rate).
* ``adaptive`` -- coin betting with per-coordinate gradient-scale
                  normalization (no learning rate; unbounded gradients).
* ``mstep``    -- theta only: the model's exact closed-form M-step.
* ``langevin`` -- particles only: a ``gd`` step on the raw latent gradient at
                  the pre-update theta plus N(0, 2 gamma) noise (``pgd``, an
                  Euler-Maruyama discretization of Langevin dynamics).

:func:`step` runs any pair on one :class:`State`; ``<name>_step`` is the public
step of each algorithm. Steps are pure state transitions: they never mutate
their input state, and (for ``pgd``) the random generator is part of the
input. Any non-finite value in an updated state aborts with :class:`DivergedError`.

:func:`run` checks its inputs with :func:`validate_run`, repeats one step and
records every ``record_every``-th iteration into a columnar :class:`Trace`:
it allocates every column once, at the run's row count, and writes each
record into its row, so a record creates no object.
"""

from __future__ import annotations

import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import kernels
from .data import MAX_FLOAT64S
from .exceptions import ConfigError, DivergedError
from .kernels import _is_positive_real, _refusal, median_heuristic, stein_direction
from .models.base import Model
from .scratch import Scratch


# ---------------------------------------------------------------------------
# optimizer state


class KT(NamedTuple):
    """Krichevsky-Trofimov accumulator: the gradient sum and the reward sum of <c_s, x_s - x0>."""

    csum: np.ndarray
    reward: np.ndarray  # a scalar for a vector iterate, one entry per row of a cloud


class Scale(NamedTuple):
    """Scale-normalized accumulator, per coordinate: the gradient sum, the largest gradient
    magnitude L, the sum of magnitudes G and the clipped reward R (L, G never decrease; R >= 0)."""

    csum: np.ndarray
    L: np.ndarray
    G: np.ndarray
    R: np.ndarray


@dataclass
class State:
    """The iterate of any rule pair.

    ``gamma`` is the learning rate of ``gd`` and ``langevin``. The betting
    rules bet from the anchors ``theta0`` and ``z0`` and keep their sums in
    ``theta_acc`` and ``particle_acc`` (a :class:`KT` or :class:`Scale`; None
    under the other rules). ``t`` counts completed steps.
    """

    theta: np.ndarray  # (d_theta,)
    particles: np.ndarray  # (N, d_z)
    gamma: float | None = None
    theta0: np.ndarray | None = None
    z0: np.ndarray | None = None
    theta_acc: KT | Scale | None = None
    particle_acc: KT | Scale | None = None
    t: int = 0

    @classmethod
    def initial(cls, algorithm: str, theta0, z0, gamma: float | None = None) -> "State":
        """Step-0 state of ``algorithm`` at (theta0, z0), with zeroed accumulators."""
        theta0, z0 = np.asarray(theta0, dtype=np.float64), np.asarray(z0, dtype=np.float64)
        theta_rule, particle_rule = ALGORITHMS[algorithm]
        return cls(theta0, z0, None if gamma is None else float(gamma), theta0, z0,
                   _zero_acc(theta_rule, theta0), _zero_acc(particle_rule, z0))


def _zero_acc(rule: str, x: np.ndarray) -> KT | Scale | None:
    if rule == "kt":
        return KT(np.zeros_like(x), np.zeros(x.shape[:-1]))
    if rule == "adaptive":
        return Scale(np.zeros_like(x), np.zeros_like(x), np.zeros_like(x), np.zeros_like(x))
    return None


# ---------------------------------------------------------------------------
# update rules


def _require_finite(what: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise DivergedError(f"non-finite values in {what}")


def _direction(model: Model, theta: np.ndarray, z: np.ndarray, h: float | None,
               scratch: Scratch | None) -> np.ndarray:
    """Kernelized direction of the cloud z with latent gradients at theta (h=None: median heuristic).

    The pair squared distances are computed once and shared by the bandwidth and the kernel, whose
    values then overwrite them: the step holds that (M,) vector and the (N, N) kernel matrix, no third copy.
    """
    pair_sq = kernels.pair_sq_dists(z, scratch)
    bandwidth = median_heuristic(z, pair_sq=pair_sq) if h is None else float(h)
    # squared distances of an exploding cloud can overflow the heuristic, now or when it was frozen
    if not np.isfinite(bandwidth):
        raise DivergedError("median-heuristic bandwidth overflowed on a diverging cloud")
    return stein_direction(z, model.grad_z(theta, z, scratch=scratch), bandwidth, pair_sq=pair_sq,
                           overwrite_pair_sq=True)


def _kt(x0, x, c, acc: KT, t: int):
    """Krichevsky-Trofimov bet on the last axis after the t-th gradient c; returns (x_new, acc).

    After k steps x = x0 + sum(c_1..c_k) / (k + 1) * (1 + sum_s <c_s, x_s - x0>).
    """
    csum = acc.csum + c
    reward = acc.reward + np.einsum("...i,...i->...", c, x - x0)
    return x0 + csum / (t + 1) * (1.0 + reward)[..., None], KT(csum, reward)


def _adaptive_update(x0, x, c, acc: Scale, denominator: str):
    """Per-coordinate scale-normalized bet ``x0 + csum / D * (1 + R / L)``; returns (x_new, acc).

    D = G + L for the ``standard`` denominator and max(G + L, 100 L) for
    ``bnn``. Coordinates that have never seen a non-zero gradient (L = 0) stay
    at their initial value.
    """
    if denominator not in ("standard", "bnn"):
        raise ValueError(f"denominator must be 'standard' or 'bnn', got {denominator!r}")
    # fresh arrays, not out= ones: numpy's in-place ufuncs take a slow path on one-element arrays (1.1 against
    # 0.4 us a call), and every theta update is one; dropping |c| early keeps a step's temporaries down
    abs_c = np.abs(c)
    L = np.maximum(acc.L, abs_c)
    G = acc.G + abs_c
    del abs_c
    R = np.maximum(acc.R + c * (x - x0), 0.0)
    csum = acc.csum + c
    denom = G + L
    if denominator == "bnn":
        denom = np.maximum(denom, 100.0 * L)
    with np.errstate(divide="ignore", invalid="ignore"):
        candidate = x0 + csum / denom * (1.0 + R / L)
    # select on L == 0, not L > 0: a NaN gradient makes L NaN, and the NaN must reach the finiteness check
    return np.where(L == 0.0, x0, candidate), Scale(csum, L, G, R)


def _move(rule: str, x0, x, c, acc, t: int, gamma: float | None, denominator: str):
    """Move x along the gradient or direction c under ``rule``; returns (x_new, acc)."""
    if rule == "adaptive":
        return _adaptive_update(x0, x, c, acc, denominator)
    if rule == "kt":
        return _kt(x0, x, c, acc, t)
    return x + gamma * c, acc


def step(state: State, model: Model, theta_rule: str, particle_rule: str, h: float | None = None,
         rng: np.random.Generator | None = None, denominator: str = "standard",
         particle_grads_use_new_theta: bool = True, scratch: Scratch | None = None) -> State:
    """One step of a rule pair: theta first, then the particles.

    ``h`` fixes the kernel bandwidth (None: the median heuristic of the
    current cloud), ``rng`` draws the Langevin noise and ``denominator``
    selects the ``adaptive`` variant. Kernelized particle rules take latent
    gradients at the updated theta, or at the old one if
    ``particle_grads_use_new_theta`` is False. Under ``mstep`` that theta is
    the M-step of the old cloud, and the returned one is that of the new cloud.
    ``scratch`` (see :mod:`particle_em.scratch`) goes to the pair distances
    and to ``model.grad_z``.
    """
    theta, z, gamma, t = state.theta, state.particles, state.gamma, state.t + 1
    with np.errstate(over="ignore", invalid="ignore"):
        if theta_rule == "mstep":
            theta_new, theta_acc = model.marginal_mstep(z), state.theta_acc
        else:
            g_bar = model.mean_grad_theta(theta, z)
            theta_new, theta_acc = _move(theta_rule, state.theta0, theta, g_bar, state.theta_acc, t, gamma, denominator)
            _require_finite("theta update", theta_new)
        if particle_rule == "langevin":
            z_new = (z + gamma * model.grad_z(theta, z, scratch=scratch)
                     + np.sqrt(2.0 * gamma) * rng.standard_normal(z.shape))
            particle_acc = state.particle_acc
        else:
            phi = _direction(model, theta_new if particle_grads_use_new_theta else theta, z, h, scratch)
            z_new, particle_acc = _move(particle_rule, state.z0, z, phi, state.particle_acc, t, gamma, denominator)
    _require_finite("particle update", z_new)
    if theta_rule == "mstep":
        theta_new = model.marginal_mstep(z_new)
    # the constructor, not dataclasses.replace: this is the default optimizer's per-step path
    return State(theta_new, z_new, gamma, state.theta0, state.z0, theta_acc, particle_acc, t)


#: every algorithm by name: its (theta rule, particle rule)
ALGORITHMS = {
    "svgd_em": ("gd", "gd"),
    "coin_em": ("kt", "kt"),
    "adaptive_coin_em": ("adaptive", "adaptive"),
    "marginal_svgd_em": ("mstep", "gd"),
    "marginal_coin_em": ("mstep", "kt"),
    "pgd": ("gd", "langevin"),
}


def svgd_em_step(state: State, model: Model, h: float | None = None, scratch: Scratch | None = None) -> State:
    return step(state, model, *ALGORITHMS["svgd_em"], h, scratch=scratch)


def coin_em_step(state: State, model: Model, h: float | None = None,
                 particle_grads_use_new_theta: bool = True, scratch: Scratch | None = None) -> State:
    return step(state, model, *ALGORITHMS["coin_em"], h, particle_grads_use_new_theta=particle_grads_use_new_theta,
                scratch=scratch)


def adaptive_coin_em_step(state: State, model: Model, h: float | None = None, denominator: str = "standard",
                          particle_grads_use_new_theta: bool = True, scratch: Scratch | None = None) -> State:
    return step(state, model, *ALGORITHMS["adaptive_coin_em"], h, None, denominator, particle_grads_use_new_theta,
                scratch)


def marginal_svgd_em_step(state: State, model: Model, h: float | None = None,
                          scratch: Scratch | None = None) -> State:
    return step(state, model, *ALGORITHMS["marginal_svgd_em"], h, scratch=scratch)


def marginal_coin_em_step(state: State, model: Model, h: float | None = None,
                          scratch: Scratch | None = None) -> State:
    return step(state, model, *ALGORITHMS["marginal_coin_em"], h, scratch=scratch)


def pgd_step(state: State, model: Model, rng: np.random.Generator, scratch: Scratch | None = None) -> State:
    return step(state, model, *ALGORITHMS["pgd"], rng=rng, scratch=scratch)


# ---------------------------------------------------------------------------
# run loop


@dataclass
class TraceRecord:
    """One recorded iteration; from a :class:`Trace`, its arrays are read-only views of the trace's rows."""

    iteration: int
    theta: np.ndarray
    particle_mean: np.ndarray
    metrics: dict[str, float]


class Trace:
    """Time-indexed record of a run, held as columns; iterations are strictly increasing.

    Row k holds the k-th recorded iteration: ``iterations`` (R,) as int,
    ``theta`` (R, d_theta) and ``particle_mean`` (R, d_z) as float64, and one
    float64 (R,) column per name of ``metrics``; built from given columns, a
    trace copies none that already has its dtype. :func:`run` allocates every
    column once, at its final length, and writes each record into its row.
    Every accessor shows the rows written so far, as read-only views, so the
    partial trace of a diverged run holds exactly the records made before the
    failing step. ``initial_particles`` is the cloud of iteration 0, and
    ``final_theta`` and ``final_particles`` are the state of the last completed
    step: on divergence, of the step before the one that diverged.
    """

    def __init__(self, iterations, theta, particle_mean, metrics: Mapping | None = None,
                 initial_particles: np.ndarray | None = None):
        self._iterations = np.asarray(iterations, dtype=int)
        self._theta = np.asarray(theta, dtype=np.float64)
        self._particle_mean = np.asarray(particle_mean, dtype=np.float64)
        self._metrics = {name: np.asarray(values, dtype=np.float64) for name, values in (metrics or {}).items()}
        self._count = len(self._iterations)
        self.initial_particles = initial_particles
        self.final_theta: np.ndarray | None = None
        self.final_particles: np.ndarray | None = None

    @classmethod
    def allocate(cls, rows: int, theta_shape: tuple, d_z: int, metric_names, initial_particles=None) -> "Trace":
        """An empty trace with room for ``rows`` rows, each column allocated once."""
        trace = cls(np.empty(rows, dtype=int), np.empty((rows, *theta_shape)), np.empty((rows, d_z)),
                    {name: np.empty(rows) for name in metric_names}, initial_particles)
        trace._count = 0
        return trace

    @property
    def metric_names(self) -> tuple[str, ...]:
        return tuple(self._metrics)

    def _rows(self, column: np.ndarray) -> np.ndarray:
        """The rows written so far of one column, as a read-only view."""
        view = column[:self._count]
        view.flags.writeable = False
        return view

    def iterations(self) -> np.ndarray:
        return self._rows(self._iterations)

    def metric_values(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(iterations, values) for one metric across all records."""
        if name not in self._metrics:
            raise KeyError(f"metric {name!r} was never recorded")
        return self.iterations(), self._rows(self._metrics[name])

    @property
    def records(self) -> list[TraceRecord]:
        """One :class:`TraceRecord` per row written, built on each access."""
        theta, mean = self._rows(self._theta), self._rows(self._particle_mean)
        values = {name: self._rows(column).tolist() for name, column in self._metrics.items()}
        return [TraceRecord(iteration, theta[k], mean[k], {name: column[k] for name, column in values.items()})
                for k, iteration in enumerate(self.iterations().tolist())]

    def final(self) -> TraceRecord:
        """The last record written."""
        k = self._count - 1
        return TraceRecord(int(self.iterations()[k]), self._rows(self._theta)[k],
                           self._rows(self._particle_mean)[k],
                           {name: float(column[k]) for name, column in self._metrics.items()})


@dataclass(kw_only=True)
class RunOptions:
    """The optimizer settings of a run, each with its default.

    ``gamma`` (a finite positive real number) is required for the learning-rate
    algorithms and must be None for the coin variants. ``bandwidth`` (None or a
    finite positive real number) fixes the kernel bandwidth; ``freeze_bandwidth``
    (a bool) computes it once from the initial cloud instead of at every
    iteration. ``record_every`` is a positive integer. ``adaptive_denominator``
    (the str ``"standard"`` or ``"bnn"``) is read only by ``adaptive_coin_em``, and
    ``particle_grads_use_new_theta`` (a bool) only by ``coin_em`` and
    ``adaptive_coin_em``; the other algorithms ignore both. Real numbers,
    integers and bools may be numpy scalars; a bool is never a number.
    """

    gamma: float | None = None
    record_every: int = 1
    bandwidth: float | None = None
    freeze_bandwidth: bool = False
    adaptive_denominator: str = "standard"
    particle_grads_use_new_theta: bool = True


@dataclass(kw_only=True)
class RunConfig(RunOptions):
    """Settings for a single optimization run: the :class:`RunOptions` plus these.

    ``n_particles``, ``n_iters``, ``record_every`` and ``seed`` are integers
    (numpy integers too, never bool), ``seed`` non-negative. ``init``
    optionally overrides the model's default with a (theta0, particles0) pair
    of arrays of real numbers: d_theta entries and an (n_particles, d_z) cloud,
    all finite. ``metric_hooks`` maps metric names (str) to callables
    ``f(theta, particles) -> float`` evaluated at every recorded iteration;
    a value ``float()`` refuses is a :class:`ConfigError`.
    """

    n_particles: int = 10
    n_iters: int = 500
    seed: int = 0
    init: tuple[np.ndarray, np.ndarray] | None = None
    metric_hooks: dict[str, Callable[[np.ndarray, np.ndarray], float]] = field(default_factory=dict)


def _is_number(value, kind=numbers.Real) -> bool:
    """Whether ``value`` is a ``kind`` (a :mod:`numbers` class); numpy scalars are, a bool never is."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _read_init(init) -> tuple[np.ndarray, np.ndarray]:
    """The (theta0, particles0) pair as fresh float64 arrays, theta0 flat; raises ValueError on anything
    but a pair, and on an entry that is not an array of real numbers (ragged, string, complex, bool, object)."""
    if not (isinstance(init, (tuple, list)) and len(init) == 2):
        raise ValueError(f"init must be a (theta0, particles0) pair, got {init!r}")
    arrays = []
    for name, value in zip(("theta", "particles"), init):
        try:
            arr = np.asarray(value)
        except ValueError as err:  # numpy refuses a ragged nesting
            raise ValueError(f"init {name} must be an array of real numbers: {err}") from None
        if arr.dtype.kind not in "iuf":
            raise ValueError(f"init {name} must be an array of real numbers, got dtype {arr.dtype}")
        arrays.append(np.array(arr, dtype=np.float64, order="C"))
    return arrays[0].ravel(), arrays[1]


def validate_run(algorithm: str, config: RunConfig, model: Model | None = None) -> list[str]:
    """Return every problem with running ``algorithm`` under ``config``.

    Given the ``model``, also check that the cloud's size can exist, that a
    marginal algorithm's M-step exists and that an explicit ``init`` fits the model.
    """
    problems = []
    rules = ALGORITHMS.get(algorithm)
    if rules is None:
        problems.append(f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}")
    elif "gd" in rules:  # the learning-rate algorithms
        if config.gamma is None:
            problems.append(f"gamma is required for algorithm {algorithm!r}")
        elif not _is_positive_real(config.gamma):
            problems.append(_refusal("gamma", config.gamma))
    elif config.gamma is not None:
        problems.append(f"gamma is forbidden for coin algorithm {algorithm!r}")
    for name, low in (("n_particles", 1), ("n_iters", 0), ("record_every", 1), ("seed", 0)):
        value = getattr(config, name)
        if not _is_number(value, numbers.Integral):
            problems.append(f"{name} must be an integer, got {value!r}")
        elif value < low:
            problems.append(f"{name} must be >= {low}, got {value}")
    for name in ("freeze_bandwidth", "particle_grads_use_new_theta"):
        if not isinstance(getattr(config, name), (bool, np.bool_)):
            problems.append(f"{name} must be a bool, got {getattr(config, name)!r}")
    if not (isinstance(config.adaptive_denominator, str) and config.adaptive_denominator in ("standard", "bnn")):
        problems.append(f"adaptive_denominator must be 'standard' or 'bnn', got {config.adaptive_denominator!r}")
    if config.bandwidth is not None and not _is_positive_real(config.bandwidth):
        problems.append(_refusal("bandwidth", config.bandwidth))
    hooks = config.metric_hooks
    if not (isinstance(hooks, Mapping) and all(isinstance(k, str) and callable(f) for k, f in hooks.items())):
        problems.append(f"metric_hooks must map names to callables, got {hooks!r}")
    init = config.init
    if init is not None:
        try:
            init = _read_init(init)
        except ValueError as err:
            problems.append(str(err))
            init = None
    if model is None:
        return problems
    if model.d_z < 1:
        problems.append(f"{type(model).__name__} has no latent coordinates (d_z = {model.d_z}); "
                        f"a particle cloud needs at least one")
    n = config.n_particles
    if _is_number(n, numbers.Integral) and int(n) * model.d_z > MAX_FLOAT64S:
        problems.append(f"n_particles x d_z = {n} x {model.d_z} is more values than one array can hold")
    n_iters, every = config.n_iters, config.record_every
    if _is_number(n_iters, numbers.Integral) and _is_number(every, numbers.Integral) and n_iters >= 0 and every >= 1:
        rows = _trace_rows(n_iters, every)
        if rows * model.d_z > MAX_FLOAT64S:
            problems.append(f"trace rows x d_z = {rows} x {model.d_z} is more values than one array can hold "
                            f"(n_iters = {n_iters}, record_every = {every})")
    if rules is not None and rules[0] == "mstep" and type(model).marginal_mstep is Model.marginal_mstep:
        problems.append(f"algorithm {algorithm!r} needs a closed-form M-step, which {type(model).__name__} lacks")
    if init is not None:
        theta0, z0 = init
        if theta0.size != model.d_theta:
            problems.append(f"init theta must have {model.d_theta} entries, got {theta0.size}")
        if _is_number(n, numbers.Integral) and z0.shape != (n, model.d_z):  # a bad n_particles is reported
            problems.append(f"init particles must have shape (n_particles, d_z) = "
                            f"({config.n_particles}, {model.d_z}), got {z0.shape}")
        for name, arr in (("theta", theta0), ("particles", z0)):
            if not np.all(np.isfinite(arr)):
                problems.append(f"init {name} must be finite, got {int(np.sum(~np.isfinite(arr)))} non-finite value(s)")
    return problems


def _trace_rows(n_iters: int, record_every: int) -> int:
    """The records of a run: iteration 0, every ``record_every``-th iteration and the last one."""
    return 1 + -(-int(n_iters) // int(record_every))


def _metric_value(name: str, value) -> float:
    """A metric hook's value as a float; a complex value, or one that float() refuses, is a ConfigError
    naming the hook."""
    try:
        if isinstance(value, np.complexfloating):  # float() would keep its real part, with only a warning
            raise TypeError(f"got the complex value {value!r}")
        return float(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError([f"metric hook {name!r} must return a real number: {err}"]) from None


def run(algorithm: str, model: Model, config: RunConfig) -> Trace:
    """Execute T optimizer steps and return the recorded trace.

    Iteration 0 (the initialization) is always recorded, then every
    ``record_every`` iterations plus the final one: 1 + ceil(n_iters /
    record_every) rows, which the :class:`Trace` allocates before the first
    step. Identical (algorithm, model, config, seed) produce bit-identical
    traces. On divergence a :class:`DivergedError` is raised with the partial
    trace attached: the rows recorded before the failing step.
    """
    problems = validate_run(algorithm, config, model)
    if problems:
        raise ConfigError(problems)
    theta_rule, particle_rule = ALGORITHMS[algorithm]
    rng = np.random.default_rng(config.seed)
    theta0, z0 = model.default_init(config.n_particles, rng) if config.init is None else _read_init(config.init)

    h = median_heuristic(z0) if config.freeze_bandwidth and config.bandwidth is None else config.bandwidth

    if theta_rule == "mstep":
        theta0 = np.asarray(model.marginal_mstep(z0), dtype=np.float64).ravel()
    state = State.initial(algorithm, theta0, z0, config.gamma)
    # the public step is looked up here, not bound at import, so a wrapped <name>_step sees every step;
    # each takes the options of its own rules only
    step_fn = globals()[f"{algorithm}_step"]
    args = (rng,) if particle_rule == "langevin" else (h,)
    options = {"denominator": config.adaptive_denominator} if theta_rule == "adaptive" else {}
    if theta_rule in ("kt", "adaptive"):
        options["particle_grads_use_new_theta"] = config.particle_grads_use_new_theta
    options["scratch"] = Scratch()  # one per run; a model never holds it

    hooks = config.metric_hooks
    trace = Trace.allocate(_trace_rows(config.n_iters, config.record_every), state.theta.shape, z0.shape[1], hooks,
                           z0.copy())
    columns = [(name, hook, trace._metrics[name]) for name, hook in hooks.items()]

    def record(iteration: int, theta: np.ndarray, particles: np.ndarray) -> None:
        k = trace._count
        # hooks may overflow to inf on states that are en route to divergence
        with np.errstate(over="ignore", invalid="ignore"):
            for name, hook, column in columns:
                column[k] = _metric_value(name, hook(theta, particles))
        trace._iterations[k], trace._theta[k] = iteration, theta
        mean = trace._particle_mean[k]  # particle_mean(particles) bit for bit, in its row
        np.add.reduce(particles, 0, out=mean)
        np.true_divide(mean, particles.shape[0], out=mean)
        trace._count = k + 1

    record(0, state.theta, state.particles)
    for t in range(1, config.n_iters + 1):
        try:
            state = step_fn(state, model, *args, **options)
        except DivergedError as err:
            trace.final_theta, trace.final_particles = state.theta.copy(), state.particles.copy()
            raise DivergedError(str(err), iteration=t, trace=trace) from None
        if t % config.record_every == 0 or t == config.n_iters:
            record(t, state.theta, state.particles)
    trace.final_theta, trace.final_particles = state.theta.copy(), state.particles.copy()
    return trace
