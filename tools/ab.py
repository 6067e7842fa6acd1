"""Alternating A/B runs of the benchmark: a parent ref against a change.

    python3 tools/ab.py <parent-ref> [--change <ref>] [--workloads a,b] [--pairs 5]
                        [--seconds 24] [--seed 1000] [--tag TAG] [--out DIR] [--tiny]

Extracts <parent-ref> with ``git archive`` into a temporary directory. The
change is the working tree, or ``--change <ref>`` extracted the same way. For
every workload of BENCHMARK.json (or those named), it runs
``perfbench/run.py --workload W --seed S --seconds X`` once in each tree per
pair, each tree from its own copy of ``perfbench/``. Every pair gets a fresh
seed, and the side that runs first alternates from pair to pair, so slow
drift of the host falls on both sides alike.

Writes ``BENCH_<tag>.json`` (tag: the change's short commit hash, with
``+edits`` for uncommitted changes) holding the environment record of the
runs, every pair's end-to-end metrics, and per workload and metric the
median and quartiles of each side, the change/parent ratio of the medians and
the number of pairs the change won (strictly better in the metric's
direction). Each run also records ``minor_faults``, the minor page faults of
its process tree, and each workload the median of those per side, so an
allocator regression shows even when the timings hide it. A run that exits
non-zero stops the tool.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from trees import ROOT, commit_of, trees, working_tree_label


def bench(tree: Path, workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    """One benchmark run: {'env', 'correct', 'attempted', 'failed', 'minor_faults', 'metrics': {name: value}}."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)] + (["--tiny"] if tiny else [])
    faults_before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    minor_faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults_before
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next((json.loads(line[len("# env "):]) for line in lines if line.startswith("# env ")), {})
    return {"env": env, **{k: result[k] for k in ("correct", "attempted", "failed")}, "minor_faults": minor_faults,
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, the ratio of medians and the change's wins."""
    summary = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {side: np.array([p[side]["metrics"][name] for p in pairs]) for side in ("parent", "change")}
        row = {side: dict(zip(("q1", "median", "q3"), np.percentile(v, [25, 50, 75]).tolist()))
               for side, v in sides.items()}
        parent_median = row["parent"]["median"]
        row["ratio"] = row["change"]["median"] / parent_median if parent_median else None
        won = sides["change"] < sides["parent"] if lower else sides["change"] > sides["parent"]
        row["change_won"] = int(won.sum())
        row["pairs"] = len(pairs)
        summary[name] = row
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git ref of the parent, e.g. HEAD~")
    parser.add_argument("--change", help="git ref to measure in place of the working tree")
    parser.add_argument("--workloads", help="comma-separated workload names (default: all)")
    parser.add_argument("--pairs", type=int, default=5, help="pairs of runs per workload")
    parser.add_argument("--seconds", type=float, default=24.0, help="--seconds of each benchmark run")
    parser.add_argument("--seed", type=int, default=1000, help="seed of the first pair; each pair adds one")
    parser.add_argument("--tag", help="file tag (default: the change's short commit hash)")
    parser.add_argument("--out", default=str(ROOT), help="directory for BENCH_<tag>.json (created if missing)")
    parser.add_argument("--tiny", action="store_true", help="tiny shapes, for the smoke test")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    chosen = args.workloads.split(",") if args.workloads else names
    unknown = sorted(set(chosen) - set(names))
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {names}")
    tag = args.tag or (commit_of(args.change)[:7] if args.change else working_tree_label())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # before the first pair, so a bad path costs no runs

    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    report = {"tag": tag, "started": started, "seconds": args.seconds, "tiny": args.tiny, "workloads": {}}
    seed = args.seed
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        sides = trees(args.parent, args.change, Path(tmp))
        report["parent"], report["change"] = sides["parent"][1], sides["change"][1]
        for workload in chosen:
            pairs = []
            for k in range(args.pairs):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    run = bench(sides[side][0], workload, seed, args.seconds, args.tiny)
                    report.setdefault("env", run.pop("env"))
                    pair[side] = run
                    print(f"{workload} pair {k + 1}/{args.pairs} seed {seed} {side}: "
                          f"fit_s {run['metrics'].get('fit_s', float('nan')):.4g}", file=sys.stderr)
                pairs.append(pair)
                seed += 1
            report["workloads"][workload] = {
                "pairs": pairs, "summary": summarize(pairs, spec["end_to_end"]),
                "minor_faults": {side: float(np.median([p[side]["minor_faults"] for p in pairs]))
                                 for side in ("parent", "change")}}
    report["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")

    path = out / f"BENCH_{tag}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, entry in report["workloads"].items():
        for name, row in entry["summary"].items():
            ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.3f}"
            print(f"{workload:14s} {name:12s} parent {row['parent']['median']:<10.4g} "
                  f"change {row['change']['median']:<10.4g} ratio {ratio:6s} "
                  f"won {row['change_won']}/{row['pairs']}")
        faults = entry["minor_faults"]
        print(f"{workload:14s} {'minor_faults':12s} parent {faults['parent']:<10.6g} change {faults['change']:<10.6g}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
