"""particle-em benchmark: one workload per invocation, result as a JSON last line.

    python3 perfbench/run.py --workload toy-posterior --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from its
``src`` directory. With ``--trace 0`` it prints the end-to-end metrics of
BENCHMARK.json (fit time, set-up time, peak traced memory, gap to the
workload's reference, share of fits that passed their check); with
``--trace 1`` it alternates untraced and traced fit passes and prints the
per-layer metrics. Single process, closed loop: each fit starts when the
previous one has finished. ``--seconds`` bounds the summed time of the
timed passes; untimed work is done between them. Lines before the last
describe the run in words: environment, sample counts and the per-fit check
results.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

# BLAS is fixed to one thread, before numpy is imported, so that a run does
# not depend on the caller's environment; the sweep's workers use the cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent

#: sweep worker processes in the untraced run; never more than the cores
SWEEP_WORKERS = max(1, min(2, os.cpu_count() or 1))
#: set-up is timed until both limits are reached; fast set-ups are batched
SETUP_MIN_SAMPLES = 5
SETUP_MIN_SECONDS = 0.5
SETUP_BATCH_SECONDS = 0.05
#: batches of fast set-ups timed after each pass, so that the samples span the run
SETUP_BATCHES_PER_PASS = 3
MIN_PASSES = 3
#: passes stop here, in wall time, even if the minimum count is not reached
HARD_LIMIT_SECONDS = 150.0


def _another_pass(durations, minimum, began, seconds) -> bool:
    """Whether to start another pass.

    Yes until ``minimum`` passes are done, then only while a pass of median
    length still keeps the summed pass time inside ``seconds``.
    """
    if time.perf_counter() - began >= HARD_LIMIT_SECONDS:
        return False
    return len(durations) < minimum or sum(durations) + statistics.median(durations) <= seconds


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(np, seed: int, sweep_workers: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = None
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "sweep_workers": sweep_workers,
        "seed": seed,
        "git_commit": _git_commit(),
    }


def _import_package():
    """Import particle_em from this checkout's src, or return None."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import particle_em
    except ImportError:
        return None
    src = (ROOT / "src").resolve()
    if src not in Path(particle_em.__file__).resolve().parents:
        return None
    return particle_em


class Tally:
    """Fits attempted and failed, and the first gap seen per input."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.gaps: dict[int, float] = {}
        self.details: list[str] = []

    def record(self, k: int, inp: dict, state: dict, result, error: Exception | None) -> None:
        n_fits = self.workload.fits_per_pass
        self.attempted += n_fits
        if error is not None:
            self.failed += n_fits
            self.details.append(f"input {k}: raised {type(error).__name__}: {error}")
            return
        checks = self.workload.check(inp, state, result)
        gap = sum(g for _, g, _ in checks) / len(checks)
        self.failed += sum(not ok for ok, _, _ in checks)
        if k not in self.gaps:
            self.gaps[k] = gap
            self.details.extend(
                f"input {k}: {'ok' if ok else 'FAILED'}: {detail}" for ok, _, detail in checks)
        elif gap != self.gaps[k]:
            # same input, same seed: the fit must repeat bit for bit
            self.failed += n_fits
            self.details.append(f"input {k}: not reproducible, gap {gap!r} vs {self.gaps[k]!r}")


def _run_pass(workload, state, tracer=None):
    workload.before_pass(state)
    started = time.perf_counter()
    try:
        result = workload.fit(state, tracer)
    except Exception as err:  # a failing fit is counted, and the run goes on
        return time.perf_counter() - started, None, err
    return time.perf_counter() - started, result, None


def _identity(model):
    return model


def _time_setups(workload, inp, batch: int) -> float:
    started = time.perf_counter()
    for _ in range(batch):
        workload.setup(inp, _identity)
    return (time.perf_counter() - started) / batch


def measure_peak_memory(workload, inp, tally):
    """tracemalloc peak over one set-up plus one fit pass, untimed."""
    saved = os.environ.get("PARTICLE_EM_WORKERS")
    # worker processes are invisible to tracemalloc, so the sweep runs serially here
    os.environ["PARTICLE_EM_WORKERS"] = "1"
    tracemalloc.start()
    try:
        state = workload.setup(inp, _identity)
        workload.before_pass(state)
        try:
            result, error = workload.fit(state, None), None
        except Exception as err:
            result, error = None, err
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        os.environ["PARTICLE_EM_WORKERS"] = saved if saved is not None else str(SWEEP_WORKERS)
    tally.record(0, inp, state, result, error)
    return peak


def untraced_run(workload, inputs, seconds):
    """Timed passes, with the untimed work of the run done between them.

    The host's speed drifts over tens of seconds on a shared machine, and a
    run's median follows the drift it sees. So the work that is not a timed
    pass (each input's first set-up before its first pass, batches of fast
    set-ups after every pass, the peak-memory pass once half the pass time
    is done) goes between the passes: the passes then span the whole run,
    not only its last ``seconds``, and average more of the drift.
    """
    tally = Tally(workload)
    states = [None] * len(inputs)
    setup_samples, setup_spent, batch, peak, times = [], 0.0, 1, None, []
    began = time.perf_counter()
    while _another_pass(times, max(MIN_PASSES, len(inputs)), began, seconds):
        k = len(times) % len(inputs)
        if states[k] is None:
            started = time.perf_counter()
            states[k] = workload.setup(inputs[k], _identity)
            setup_samples.append(time.perf_counter() - started)
            setup_spent += setup_samples[-1]
            batch = max(1, int(SETUP_BATCH_SECONDS / max(min(setup_samples), 1e-7)))
        if peak is None and sum(times) >= seconds / 2:
            peak = measure_peak_memory(workload, inputs[0], tally)
        elapsed, result, error = _run_pass(workload, states[k])
        times.append(elapsed)
        tally.record(k, inputs[k], states[k], result, error)
        for _ in range(SETUP_BATCHES_PER_PASS if batch > 1 else 0):
            setup_samples.append(_time_setups(workload, inputs[k], batch))
            setup_spent += setup_samples[-1] * batch
    if peak is None:
        peak = measure_peak_memory(workload, inputs[0], tally)
    while len(setup_samples) < SETUP_MIN_SAMPLES or setup_spent < SETUP_MIN_SECONDS:
        setup_samples.append(_time_setups(workload, inputs[len(setup_samples) % len(inputs)], batch))
        setup_spent += setup_samples[-1] * batch
    gaps = [tally.gaps[k] for k in sorted(tally.gaps)]
    metrics = {
        "fit_s": (_median(times), "s"),
        "setup_s": (_median(setup_samples), "s"),
        "peak_mem_mb": (peak / 1e6, "MB"),
        "ref_gap": (sum(gaps) / len(gaps) if gaps else float("inf"), "1"),
        "pass_frac": (1.0 - tally.failed / tally.attempted, "ratio"),
    }
    counts = {
        "fit_s": f"median of {len(times)} passes, {workload.fits_per_pass} fit(s) each, "
                 f"over {time.perf_counter() - began:.1f} s of run; min {min(times):.4g}, "
                 f"quartiles {' '.join(f'{q:.4g}' for q in _quartiles(times))}, max {max(times):.4g}",
        "setup_s": f"median of {len(setup_samples)} samples: each input's first set-up"
                   + (f", then {SETUP_BATCHES_PER_PASS} batches of {batch} after each pass" if batch > 1 else ""),
        "peak_mem_mb": "one untraced set-up plus pass under tracemalloc, midway through the passes"
                       + (", sweep run serially" if workload.sweep else ""),
        "ref_gap": f"mean over {len(gaps)} seeded input(s)",
        "pass_frac": f"fail_frac = {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4f}",
    }
    return tally, metrics, counts


def traced_run(workload, inputs, seconds, spans_path):
    from spans import Tracer, layer_metrics
    tally = Tally(workload)
    tracer = Tracer()
    states, setup_runs = [], []
    for k, inp in enumerate(inputs):
        tracer.run_id = 1_000_000 + k
        setup_runs.append(tracer.run_id)
        tracer.install()
        try:
            states.append(workload.setup(inp, tracer.instrument_model))
        finally:
            tracer.uninstall()
    untraced, traced, pairs, pass_runs, counters = [], [], [], [], []
    began = time.perf_counter()
    while _another_pass(pairs, max(2, len(inputs)), began, seconds):
        k = len(traced) % len(inputs)
        elapsed, result, error = _run_pass(workload, states[k])
        untraced.append(elapsed)
        tally.record(k, inputs[k], states[k], result, error)
        tracer.run_id = len(traced)
        pass_runs.append(tracer.run_id)
        tracer.install()
        if "model" in states[k]:
            tracer.instrument_model(states[k]["model"])
        try:
            elapsed, result, error = _run_pass(workload, states[k], tracer)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        pairs.append(untraced[-1] + elapsed)
        tally.record(k, inputs[k], states[k], result, error)
        if result is not None:
            counters.append(workload.counters(result))
    per_run = tracer.per_run()
    metrics = layer_metrics(per_run, pass_runs, setup_runs, counters)
    metrics["trace.fit_s.untraced"] = (_median(untraced), "s")
    metrics["trace.fit_s.traced"] = (_median(traced), "s")
    metrics["trace.overhead_frac"] = (_median(traced) / _median(untraced) - 1.0, "ratio")
    tracer.save(str(spans_path))
    counts = {"passes": f"{len(traced)} traced and {len(untraced)} untraced passes, alternating; "
                        f"{len(setup_runs)} traced set-ups; spans written to {spans_path.relative_to(ROOT)}"}
    return tally, metrics, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured seconds of fit passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny shapes, for the smoke test")
    args = parser.parse_args(argv)

    if _import_package() is None:
        print(f"error: cannot import particle_em from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import numpy as np

    # diverged grid points are expected in the sweep; their warnings are noise here
    logging.getLogger("particle_em").setLevel(logging.ERROR)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](tiny=args.tiny)
    sweep_workers = 1 if args.trace else SWEEP_WORKERS
    os.environ["PARTICLE_EM_WORKERS"] = str(sweep_workers)

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = [workload.make_input(str(workdir), args.seed, k) for k in range(workload.datasets)]
        if args.trace:
            spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.npz"
            tally, metrics, counts = traced_run(workload, inputs, args.seconds, spans_path)
        else:
            tally, metrics, counts = untraced_run(workload, inputs, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = _environment(np, args.seed, sweep_workers)
    mode = "traced, sweep serial" if args.trace and workload.sweep else ("traced" if args.trace else "untraced")
    print(f"# workload {workload.name}, seed {args.seed}, {args.seconds:g} s measured, {mode}, "
          "single process, closed loop" + (", tiny shapes" if args.tiny else ""))
    print("# env " + json.dumps(env, sort_keys=True))
    for detail in tally.details:
        print(f"# check {detail}")
    for name, (value, unit) in metrics.items():
        note = counts.get(name, "")
        print(f"# {name:40s} {value:<14.6g} {unit:6s} {note}")
    for name, note in counts.items():
        if name not in metrics:
            print(f"# {note}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
