#!/usr/bin/env python3
"""The opwords benchmark: one workload, one seed, one JSON line of results.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: interchange, lemma_search, soundness_eval, group_cli (see
perfbench/README.md). The package is used from the checkout's src/ tree;
nothing is installed. The harness

  * launches the workload process a few times only to set up (interpreter
    start, imports, input generation), half before and half after the
    measuring launch, and reports the median as setup_s;
  * launches it once more to answer the seeded queries in a closed loop
    (one client, next query after the previous answer), sized by --seconds;
  * reports times as CPU seconds at a reference host speed (speed.py), and
    the unscaled wall-clock times on stderr;
  * reads peak RSS of the workload processes with getrusage(RUSAGE_CHILDREN);
  * prints, as its last line, {"correct", "attempted", "failed", "metrics"}:
    the end-to-end metrics with --trace 0, the per-layer metrics with
    --trace 1 (the traced run has wrappers installed around every layer).

Every child gets PYTHONHASHSEED pinned, because Word and Generator hashes
depend on string hashing. Per-query records go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("interchange", "lemma_search", "soundness_eval", "group_cli")
HASH_SEED = "0"
SETUP_LAUNCHES = 3   # before the measuring launch, and again after it
KILL_AFTER_S = 170

END_TO_END = {
    "cpu_s": "s", "query_p50_cpu_s": "s", "query_tail_cpu_s": "s",
    "decided_frac": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def launch(args, extra, out_path: Path, timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
               PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]))
    # bytecode is cached as an installed package's would be
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_path), *extra]
    launched = time.monotonic()
    proc = subprocess.Popen(cmd + ["--launched", repr(launched)], env=env,
                            cwd=ROOT)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: {args.workload} did not finish "
                         f"within {timeout:.0f}s")
    if code != 0:
        raise SystemExit(f"perfbench: workload process exited {code}")
    return json.loads(out_path.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "opwords" / "__init__.py").is_file():
        print(f"perfbench: no opwords sources at {SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix="tmp-") as tmp:
        def setup_launches():
            return [launch(args, ["--setup-only"], Path(tmp) / "setup.json",
                           timeout=30) for _ in range(SETUP_LAUNCHES)]
        setups = setup_launches()
        left = KILL_AFTER_S - 30 - (time.monotonic() - started)
        doc = launch(args, [], Path(tmp) / "run.json", timeout=left)
        setups += setup_launches()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    problems = list(doc["failures"])
    if doc["drift"]:
        problems.append(doc["drift"])
    setup_s = statistics.median([s["setup_s"] for s in setups]
                                + [doc["setup_s"]])
    print(f"perfbench: {args.workload} seed={args.seed} "
          f"queries={doc['attempted']} failed={doc['failed']} "
          f"failed_frac={doc['failed'] / doc['attempted']:.4f} "
          f"decided={doc['decided']}/{doc['asked']} "
          f"fingerprint={doc['fingerprint']} "
          f"PYTHONHASHSEED={doc['hash_seed']} "
          f"query_tail=p{doc['tail_percentile']:.1f} "
          f"cert_steps_mean={doc['cert_steps_mean']:.3f}", file=sys.stderr)
    setup_wall_s = statistics.median([s["setup_wall_s"] for s in setups]
                                     + [doc["setup_wall_s"]])
    print(f"perfbench: unscaled wall clock: wall_s={doc['wall_s']:.6f} "
          f"query_p50_wall_s={doc['query_p50_wall_s']:.6f} "
          f"query_tail_wall_s={doc['query_tail_wall_s']:.6f} "
          f"setup_wall_s={setup_wall_s:.6f}; "
          f"measuring launch setup_s={doc['setup_s']:.6f}", file=sys.stderr)
    for p in problems:
        print(f"perfbench: FAIL {p}", file=sys.stderr)

    if args.trace:
        units = per_layer_units()
        values = doc["layers"]
        missing = sorted(set(units) - set(values))
        if missing:
            raise SystemExit(f"perfbench: traced run lacks {missing}")
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in units.items()}
    else:
        values = {
            "cpu_s": doc["cpu_s"],
            "query_p50_cpu_s": doc["query_p50_cpu_s"],
            "query_tail_cpu_s": doc["query_tail_cpu_s"],
            "decided_frac": doc["decided"] / doc["asked"],
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}
    print(json.dumps({"correct": not problems, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
