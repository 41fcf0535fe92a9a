"""One workload in its own process: set up, warm up, then a closed loop of ops.

Started by run.py as ``python worker.py <root> <workload> <seed> <child>
<seconds> <trace>``.  It prints ``READY`` once the first timed op can start,
then one JSON line with every op's wall time, problems and check summary.
Ops and their seeds derive from (workload, seed, child).

Untraced (trace 0): whole cycles of ops, each timed alone, until the loop has
run for ``seconds``.  Traced (trace 1): every op runs twice at the same
inputs, once untraced and once with the tracer installed, in alternating
order; the two outputs must be bit-identical, and the pair gives the
tracing overhead.
"""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import sys
import time
import traceback

from spans import OP, Tracer, layer_metrics
from workloads import WORKLOADS, comparable


def _git_commit(root: str) -> str | None:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest(pkg_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith(".py"):
            with open(os.path.join(pkg_dir, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _provenance(root, fb, seed):
    import numpy
    import scipy
    return {
        "fbmdelay": fb.__version__, "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(os.path.dirname(fb.__file__)),
        "cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if "THREAD" in k or k.startswith(("OMP_", "MKL_", "OPENBLAS_"))},
        "workload_seed": seed,
    }


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _execute(op, traced=None):
    """prepare, timed run, collect, check; returns (output, wall, cpu, problems)."""
    op.prepare()
    run = op.run if traced is None else traced.wrap(f"op:{op.kind}", OP, op.run)
    c0 = _cpu()
    t0 = time.perf_counter()
    try:
        result = run()
    except Exception:
        wall = time.perf_counter() - t0
        return None, wall, _cpu() - c0, [traceback.format_exc(limit=4)]
    wall = time.perf_counter() - t0
    cpu = _cpu() - c0
    try:
        output = op.collect(result)
        return output, wall, cpu, op.check(output)
    except Exception:
        return None, wall, cpu, [traceback.format_exc(limit=4)]


def _cleanup(positions):
    for insts in positions:
        for op in insts:
            for p in op.files:
                if os.path.exists(p):
                    os.unlink(p)


def main(root, workload_name, seed, child, seconds, trace):
    sys.path.insert(0, os.path.join(root, "src"))
    import fbmdelay
    import fbmdelay.cli  # noqa: F401  (the package __init__ does not import the CLI)
    if not os.path.realpath(fbmdelay.__file__).startswith(os.path.realpath(os.path.join(root, "src"))):
        raise SystemExit(f"fbmdelay imported from {fbmdelay.__file__}, not from {root}/src")

    os.environ.pop(fbmdelay.cli.OUT_ENV, None)
    out_dir = os.path.join(root, ".bench_out", f"{workload_name}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        wl = WORKLOADS[workload_name](fbmdelay, seed, child, out_dir)
        warm = wl.cycle(-1)
        for insts in warm[:wl.warmup_ops]:
            _execute(insts[0])   # untimed; a broken op also fails in the timed loop
        _cleanup(warm)
        print("READY", flush=True)
        tracer = Tracer() if trace else None
        records = _loop(fbmdelay, wl, seconds, tracer)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    result = {
        "ops": [{k: r[k] for k in ("kind", "reps", "seed", "wall", "problems", "summary")}
                for r in records],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": _provenance(root, fbmdelay, seed),
    }
    if trace:
        result["layers"] = _trace_summary(records, tracer, result["peak_rss_mb"])
        tracer.write(os.path.join(root, ".bench_out", f"spans-{workload_name}-seed{seed}.jsonl"))
        result["trace_missing"] = tracer.missing
    return result


def _record(wl, op, output, wall, problems):
    """What the run keeps of an op: its outputs are reduced to the check summary at once."""
    return {"kind": op.kind, "reps": op.reps, "seed": op.seed, "wall": wall, "problems": problems,
            "summary": None if problems else wl.summary(output)}


def _loop(fb, wl, seconds, tracer):
    records = []
    t0 = time.perf_counter()
    c = 0
    while c == 0 or time.perf_counter() - t0 < seconds:
        positions = wl.cycle(c, copies=2 if tracer else 1)
        for i, insts in enumerate(positions):
            if tracer is None:
                output, wall, cpu, problems = _execute(insts[0])
                records.append(_record(wl, insts[0], output, wall, problems))
                continue
            # traced pair: alternate which copy goes first
            order = (False, True) if (c + i) % 2 == 0 else (True, False)
            res = {}
            for copy, traced in zip(insts, order):
                if traced:
                    with tracer.installed(fb):
                        res[traced] = _execute(copy, tracer)
                else:
                    res[traced] = _execute(copy)
            (out_u, wall_u, cpu_u, prob_u), (out_t, wall_t, _, prob_t) = res[False], res[True]
            problems = prob_u + prob_t
            if not problems and comparable(out_u) != comparable(out_t):
                problems.append("traced output differs from untraced output")
            files = out_t["files"].values() if isinstance(out_t, dict) else ()
            records.append(dict(_record(wl, insts[0], out_u, wall_u, problems), cpu=cpu_u,
                                traced_wall=wall_t, files=len(files),
                                bytes=sum(len(d) for d in files)))
        _cleanup(positions)
        c += 1
    return records


def _trace_summary(records, tracer, peak_rss_mb):
    n = len(records)
    m = layer_metrics(tracer.spans, n)
    wall_u = sum(r["wall"] for r in records)
    wall_t = sum(r["traced_wall"] for r in records)
    m["cli.files_written"] = sum(r["files"] for r in records) / n
    m["cli.bytes_written"] = sum(r["bytes"] for r in records) / n
    m["run.op_s"] = wall_t / n
    m["run.cpu_over_wall"] = sum(r["cpu"] for r in records) / wall_u
    m["run.rss_over_batch"] = peak_rss_mb / m["noise.batch_mb"] if m["noise.batch_mb"] else 0.0
    m["run.trace_overhead_frac"] = wall_t / wall_u - 1.0
    layer_self = sum(sp[5] for sp in tracer.spans if sp[1] != OP)
    m["run.self_cover_frac"] = layer_self / wall_t
    return m


if __name__ == "__main__":
    import json
    root, name, seed, child, seconds, trace = sys.argv[1:7]
    out = main(root, name, int(seed), int(child), float(seconds), int(trace))
    print(json.dumps(out, default=float), flush=True)
