"""One workload in one process: set up, answer the queries, check them.

Started by run.py with the package sources on PYTHONPATH and a pinned hash
seed. Writes one JSON document to the file named by --out and one record per
query to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

import gen
import speed
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
CANARY_SEED, CANARY_SECONDS = 0, 2


def input_fingerprint(wl, queries) -> str:
    keys = [q.key for q in queries] + getattr(wl, "data_key", [])
    return gen.fingerprint(keys)


def canary_drift(name: str) -> str:
    """Empty unless the canary seed's inputs differ from the committed ones."""
    wl = workloads.WORKLOADS[name]()
    got = input_fingerprint(wl, wl.inputs(CANARY_SEED, CANARY_SECONDS))
    want = json.loads((BENCH_DIR / "fingerprints.json").read_text())[name]
    if got != want:
        return (f"input fingerprint drifted for {name}: canary seed "
                f"{CANARY_SEED} gives {got}, committed {want}")
    return ""


def tail(latencies):
    """Latency at the highest percentile that has >= 10 queries beyond it.

    Runs of 10 queries or fewer have no such percentile; they report the
    maximum (percentile 100).
    """
    ordered = sorted(latencies)
    i = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def run_queries(wl, queries, seconds, tracer, speedo):
    """Answer the queries in order; one record per query.

    A record is (query, wall seconds, CPU seconds at the reference speed,
    verdict). A `group_cli` call reports its own scaled CPU time, measured
    in the process it starts.
    """
    records = []
    give_up = time.perf_counter() + max(3 * seconds, seconds + 60)
    for q in queries:
        if time.perf_counter() > give_up:
            v = workloads.Verdict(False, "timeout", False,
                                  note="run exceeded its time cap")
            records.append((q, None, None, v))
            continue
        visited0 = tracer.counts["search.visited"] if tracer else 0
        if tracer:
            tracer.resume()
        t0, m0 = time.perf_counter(), speedo.mark()
        try:
            result = wl.answer(q)
            error = None
        except Exception as exc:  # an uncaught exception is a failed query
            result, error = None, exc
        dt, m1 = time.perf_counter() - t0, speedo.mark()
        if tracer:
            tracer.pause()
        cpu = (result.cpu_s if isinstance(result, workloads.CliRun)
               else speedo.scaled(m0, m1))
        if error is not None:
            v = workloads.Verdict(False, "exception", False,
                                  note=f"{type(error).__name__}: {error}")
        else:
            v = wl.check(q, result)
        if tracer and v.visited is None:
            v.visited = tracer.counts["search.visited"] - visited0
        records.append((q, dt, cpu, v))
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True,
                    help="time.monotonic() of the parent just before launch")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]()
    queries = wl.inputs(args.seed, args.seconds)
    fingerprint = input_fingerprint(wl, queries)
    setup_wall_s = time.monotonic() - args.launched
    setup_cpu_s = time.process_time()
    speedo = speed.Speedometer()
    for _ in range(3):
        speedo.sample()
    doc = {"setup_s": setup_cpu_s * speed.REFERENCE_S
           / statistics.median(speedo.samples),
           "setup_wall_s": setup_wall_s,
           "fingerprint": fingerprint,
           "hash_seed": os.environ.get("PYTHONHASHSEED")}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(doc))
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    tracer = None
    if args.workload == "group_cli":
        wl.call_dir = OUT_DIR / f"cli-calls-{os.getpid()}"
        wl.call_dir.mkdir(exist_ok=True)
        wl.traced = bool(args.trace)
    elif args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.pause()
    speedo.start()
    try:
        records = run_queries(wl, queries, args.seconds, tracer, speedo)
    finally:
        speedo.stop()
    if args.workload == "group_cli":
        wl.call_dir.rmdir()
    latencies = [dt for _, dt, _, _ in records if dt is not None]
    cpus = [cpu for _, _, cpu, _ in records if cpu is not None]

    verdicts = [v for *_, v in records]
    failed = sum(not v.ok for v in verdicts)
    wall = sum(latencies)
    tail_s, tail_pct = tail(cpus)
    steps = [v.steps for v in verdicts if v.steps is not None]
    doc.update({
        "attempted": len(records), "failed": failed,
        "decided": sum(v.decided for q, *_, v in records if q.asks_verdict),
        "asked": sum(q.asks_verdict for q, *_ in records),
        "cpu_s": sum(cpus),
        "query_p50_cpu_s": statistics.median(cpus),
        "query_tail_cpu_s": tail_s, "tail_percentile": tail_pct,
        "wall_s": wall,
        "query_p50_wall_s": statistics.median(latencies),
        "query_tail_wall_s": tail(latencies)[0],
        "cert_steps_mean": statistics.mean(steps) if steps else 0.0,
        "failures": [f"{q.kind} {q.args if wl.name == 'group_cli' else ''}: "
                     f"{v.verdict} {v.note}"[:300]
                     for q, *_, v in records if not v.ok][:20],
    })
    if args.trace:
        startup = 0.0
        if tracer is not None:
            snap = tracer.snapshot()
        else:
            snap = {}
            for part in wl.call_traces:
                tracing.merge(snap, part)
            if wl.call_traces:
                startup = statistics.mean(
                    t["latency_s"] - t["span_s"].get("cli.main", 0.0)
                    for t in wl.call_traces)
        layers = tracing.layer_metrics(snap)
        layers.update(tracing.kernel_metrics(args.seed))
        layers["cli.startup_s"] = startup
        layers["search.cert_steps_mean"] = doc["cert_steps_mean"]
        layers["trace.cpu_s"] = doc["cpu_s"]
        doc["layers"] = layers
    doc["drift"] = canary_drift(args.workload)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.jsonl"
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        for q, dt, cpu, v in records:
            fh.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "kind": q.kind, "verdict": v.verdict, "ok": v.ok,
                "latency_s": dt, "cpu_s": cpu, "visited": v.visited,
                "cert_steps": v.steps, "note": v.note}) + "\n")
    Path(args.out).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
