"""Smoke test of the benchmark at tiny shapes.

    python3 perfbench/smoke_test.py      # or: python3 -m pytest perfbench/smoke_test.py

Every workload must run in both modes, exit 0 and print as its last line the
result object, carrying every metric BENCHMARK.json names for that mode with
that unit. The fits are far too short to converge, so the correctness checks
are expected to fail here and are not asserted. Also checks that the
benchmark refuses to run, without printing a result, from a directory that
holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _problems(spec: dict, workload: str, trace: int, proc) -> list[str]:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"{where}: last line is not a JSON object"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1
            and isinstance(result.get("failed"), int)):
        problems.append(f"{where}: attempted/failed are not counts")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if printed != expected:
        problems.append(f"{where}: metrics/units differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(printed))}, "
                        f"extra {sorted(set(printed) - set(expected))}, "
                        f"wrong unit {sorted(n for n in expected if n in printed and printed[n] != expected[n])}")
    for name, m in result.get("metrics", {}).items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r} is not a finite number")
    return problems


def _refuses_without_package() -> list[str]:
    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _bench(bare, "toy-posterior", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["without the package: expected a non-zero exit and no result"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = _problems(spec, workload, trace, _bench(ROOT, workload, trace))
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    problems += _refuses_without_package()
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def test_every_workload_prints_every_metric():
    assert main() == 0


if __name__ == "__main__":
    sys.exit(main())
