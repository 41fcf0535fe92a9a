"""fbmdelay benchmark: Monte Carlo throughput at desk scale, end to end and layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mc_continuity --seed 1 --seconds 15 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md): mc_moments,
mc_continuity, mc_decay, single_path, or ``all`` to run them in turn.  Each
runs in its own child processes (worker.py) as a closed loop against the
fbmdelay sources under ./src.

--trace 0 prints the end-to-end metrics: reps_per_s, latency_p50_s,
peak_rss_mb and setup_s.  The timed seconds are split over CHILDREN worker
processes run one after another; setup_s is the median of their start-ups,
each up to the end of one untimed warm-up op, and peak_rss_mb the median of
their ru_maxrss.  --trace 1 prints the per-layer
metrics from a traced run (spans.py).  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it
holds the details (checks, per-op-kind latencies, provenance).  The exit
code is non-zero if any output check failed or the run could not complete.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS as WORKLOAD_CLASSES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILDREN = 3
DEADLINE_S = 170.0
E2E_UNITS = {"reps_per_s": "1/s", "latency_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name: str) -> str:
    if name.endswith(("_frac", "cpu_over_wall", "rss_over_batch")):
        return "1"
    if name == "noise.cells_per_rep":
        return "cells/rep"
    if name == "noise.batch_mb":
        return "MB"
    if name.endswith("_mb"):
        return "MB/op"
    if name.endswith("conv_points"):
        return "points/op"
    if name.endswith("bytes_written"):
        return "B/op"
    if name.endswith(("_s", ".s")) or ".lvl" in name or ".conv_s." in name:
        return "s/op"
    return "count/op"


def _spawn(workload, seed, child, seconds, trace, deadline):
    """Run one worker; returns (seconds until it printed READY, its result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, workload, str(seed),
           str(child), repr(seconds), str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        buf = b""
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while b"\n" not in buf:
                if not sel.select(timeout=max(0.0, deadline - time.monotonic())):
                    raise TimeoutError("worker did not get ready in time")
                chunk = os.read(proc.stdout.fileno(), 65536)
                if not chunk:
                    break
                buf += chunk
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    line, _, tail = buf.partition(b"\n")
    if proc.returncode != 0 or line.strip() != b"READY":
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return setup_s, json.loads((tail + rest).decode().strip().splitlines()[-1])


def _tail_latency(walls):
    """Wall time at the highest percentile with at least ten ops beyond it."""
    n = len(walls)
    if n < 11:
        return None
    s = sorted(walls)
    return {"value_s": s[n - 11], "percentile": 100.0 * (n - 10) / n, "ops": n}


def end_to_end(ops, children, setups):
    by_kind: dict[str, list[float]] = {}
    for op in ops:
        by_kind.setdefault(op["kind"], []).append(op["wall"])
    medians = {k: statistics.median(v) for k, v in by_kind.items()}
    metrics = {
        "reps_per_s": sum(op["reps"] for op in ops) / sum(op["wall"] for op in ops),
        # mean over op kinds of each kind's median, so the op mix cannot flip it between modes
        "latency_p50_s": statistics.fmean(medians.values()),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
        "setup_s": statistics.median(setups),
    }
    details = {"op_kind_p50_s": medians, "op_kind_count": {k: len(v) for k, v in by_kind.items()},
               "latency_tail": _tail_latency([op["wall"] for op in ops]), "setup_samples_s": setups,
               "peak_rss_mb_samples": [c["peak_rss_mb"] for c in children]}
    return metrics, details


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    """Run one workload, print its details and result lines; 0 if every output check passed."""
    # untraced: CHILDREN processes share the timed seconds, so per-process effects
    # (memory placement, page-fault cost) average out; traced: one process
    n_children = 1 if trace else CHILDREN
    deadline = time.monotonic() + DEADLINE_S
    setups, children = [], []
    try:
        for child in range(n_children):
            setup_s, result = _spawn(workload, seed, child, seconds / n_children, trace, deadline)
            setups.append(setup_s)
            children.append(result)
    except (RuntimeError, TimeoutError, ValueError, IndexError) as exc:
        print(f"perfbench: {workload} did not complete: {exc}", file=sys.stderr)
        return 1

    ops = [dict(op, child=i) for i, c in enumerate(children) for op in c["ops"]]
    checks = WORKLOAD_CLASSES[workload].pooled_checks([op for op in ops if not op["problems"]])
    failed_kinds = {c["kind"] for c in checks if not c["ok"]}
    failed = sum(1 for op in ops if op["problems"] or op["kind"] in failed_kinds)
    if trace:
        metrics = {k: (v, layer_unit(k)) for k, v in children[0]["layers"].items()}
        details = {"trace_missing": children[0]["trace_missing"]}
    else:
        e2e, details = end_to_end(ops, children, setups)
        metrics = {k: (v, E2E_UNITS[k]) for k, v in e2e.items()}
    details.update(
        workload=workload, seed=seed, trace=trace, ops=len(ops),
        fail_frac=failed / max(len(ops), 1), checks=checks,
        problems=[f"{op['kind']}: {p}" for op in ops for p in op["problems"]][:20],
        provenance=children[0]["provenance"])
    if workload == "mc_continuity":
        details["noise_checksums"] = [[op["kind"], op["seed"], op["summary"]["noise_checksum"]]
                                      for op in ops if op["summary"]]
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", f"result-{workload}-seed{seed}-trace{trace}.json"),
              "w") as fh:
        json.dump({"details": details, "ops": ops}, fh, indent=1)
    correct = failed == 0 and len(ops) > 0
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}),
          flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*sorted(WORKLOAD_CLASSES), "all"],
                   help="one workload, or all of them in turn (one result line each)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fbmdelay", "__init__.py")):
        print(f"perfbench: no fbmdelay sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = list(WORKLOAD_CLASSES) if args.workload == "all" else [args.workload]
    return max(run_workload(name, args.seed, args.seconds, args.trace) for name in names)


if __name__ == "__main__":
    sys.exit(main())
