#!/usr/bin/env python3
"""Smoke self-test of the benchmark: every workload at a tiny size, twice.

Usage, from the repository root:

    python3 perfbench/selftest.py

Each workload runs traced twice with the same seed. The test fails unless
both runs are correct and the counts that must not depend on timing repeat
exactly: search.visited, rules.succ.*, search.cert_steps_mean, and the run
summary (query count, verdict count, input fingerprint, tail percentile).
Takes under two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("interchange", "lemma_search", "soundness_eval", "group_cli")
EXACT = ("search.visited", "search.cert_steps_mean")


def traced_run(workload: str) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "2", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True)
    summary = next(line for line in proc.stderr.splitlines()
                   if line.startswith(f"perfbench: {workload} "))
    return json.loads(proc.stdout.splitlines()[-1]), summary


def main() -> int:
    bad = []
    for workload in WORKLOADS:
        before = len(bad)
        (first, s1), (second, s2) = traced_run(workload), traced_run(workload)
        for n, doc in enumerate((first, second), start=1):
            if not doc["correct"] or doc["failed"]:
                bad.append(f"{workload}: run {n} not correct")
        if s1 != s2:
            bad.append(f"{workload}: summaries differ:\n  {s1}\n  {s2}")
        for name, m in first["metrics"].items():
            if name in EXACT or name.startswith("rules.succ."):
                again = second["metrics"][name]["value"]
                if m["value"] != again:
                    bad.append(f"{workload}: {name} {m['value']} != {again}")
        print(f"{workload}: {'ok' if len(bad) == before else 'FAILED'}")
    for line in bad:
        print("FAIL", line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
