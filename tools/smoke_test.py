"""Smoke test of the A/B tools, comparing HEAD with itself at tiny sizes.

    python3 tools/smoke_test.py      # or: python3 -m pytest tools/smoke_test.py

``capture.py HEAD --change HEAD --tiny`` must compare every group and find
nothing that differs. ``ab.py HEAD --change HEAD`` on one tiny workload and
one pair must write a BENCH file, into an ``--out`` directory that does not
exist yet, with both sides of the pair, a summary for every end-to-end metric
of BENCHMARK.json, and the same ``ref_gap`` on both sides, since both run the
same code on the same seed. Timing metrics are not compared: at tiny sizes
they are noise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=600)


def test_capture_finds_nothing_between_head_and_itself():
    proc = _tool("tools/capture.py", "HEAD", "--change", "HEAD", "--tiny")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    counts = {line.split()[0]: line.split() for line in proc.stdout.splitlines() if "compared," in line}
    assert set(counts) == {"golden", "kernels", "models", "toy", "network", "logreg", "cli", "total"}
    for name, words in counts.items():
        assert int(words[1]) > 0 and words[3] == "0", (name, words)


def test_ab_writes_a_bench_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "not-yet"  # ab.py creates the directory
        proc = _tool("tools/ab.py", "HEAD", "--change", "HEAD", "--workloads", "toy-posterior",
                     "--pairs", "1", "--seconds", "0.5", "--tiny", "--tag", "smoke", "--out", str(out))
        assert proc.returncode == 0, proc.stderr[-2000:]
        report = json.loads((out / "BENCH_smoke.json").read_text())
    assert report["env"] and report["parent"] and report["change"]
    entry = report["workloads"]["toy-posterior"]
    (pair,) = entry["pairs"]
    names = [m["name"] for m in spec["end_to_end"]]
    for side in ("parent", "change"):
        assert set(pair[side]["metrics"]) >= set(names)
    assert pair["parent"]["metrics"]["ref_gap"] == pair["change"]["metrics"]["ref_gap"]
    assert set(entry["summary"]) == set(names)
    fit = entry["summary"]["fit_s"]
    assert fit["pairs"] == 1 and fit["change_won"] in (0, 1) and math.isfinite(fit["ratio"])


def main() -> int:
    failures = 0
    for test in (test_capture_finds_nothing_between_head_and_itself, test_ab_writes_a_bench_file):
        try:
            test()
            print(f"ok    {test.__name__}")
        except AssertionError as err:
            failures += 1
            print(f"FAIL  {test.__name__}: {err}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
