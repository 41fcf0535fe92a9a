#!/usr/bin/env python3
"""Paired runs of perfbench/run.py on two git revisions; writes BENCH_<pr>.json.

Usage (from the root of the repository):

    python scripts/bench_pairs.py PARENT CHANGE --pr N \
        --pairs mc_continuity=10 --pairs mc_moments=5 [--seconds 15] [--seed 1201]

Each revision is exported with `git archive` into its own temporary
directory (under $TMPDIR), and `python3 perfbench/run.py --workload <w>
--seed <s> --seconds <t> --trace 0` runs there, so neither side reads the
working tree.  Pair i of a workload runs both sides on one seed, one after
the other; the parent goes first on even pair indices.  Workload k of the
--pairs list uses seeds seed + 100 k + i.

The output records every pair: its seed, which side went first, the
end-to-end metrics, attempted and failed ops, and each op kind's median
latency (`op_kind_p50_s`, from perfbench's details line).  Per workload
and metric it records the median and quartiles of each side, how many
pairs the change won, and whether the change's median is worse than the
parent's by more than the metric's bound in BENCHMARK.json.  `clear_gain` holds when the change won at least 9 pairs
in 10 and its median beats the parent's by more than the parent's
interquartile range.  Per workload, `op_kind_p50_s` holds each op kind's
median over the pairs of each side's p50, which shows where a gain sits.

Each run also records `rusage`: the user and sys CPU seconds and the minor
page faults of the perfbench process and its workers, as the change in
getrusage(RUSAGE_CHILDREN) across the run.  Per workload, `rusage` holds
each side's median of each over the pairs.  Faults and sys seconds show the
memory the allocator hands back and takes again, which wall time hides.

`machine` records the Python, numpy and scipy versions, the CPU count,
numpy's BLAS (name, version and OpenBLAS configuration, as numpy was
built) and the environment variables that set BLAS or OpenMP threads
(OMP_*, OPENBLAS_*, MKL_* and any other *THREAD*): both sides run under
that environment, and a BLAS product may run threaded inside a chunk
thread.

`src_lines` records the line count of src/fbmdelay/*.py on each side, as
`wc -l` counts it: the package's size, tracked in ROADMAP.md.

`src_tree` records the git tree hash of src/ on each side.  A revision
benchmarked before it was committed (say, a `git commit-tree` snapshot of
the index) is linked to the commit that lands it by that hash:
`git rev-parse <commit>:src` prints the same value.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _export(rev: str, dest: str) -> str:
    """git archive of rev unpacked into dest; returns the full commit hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return commit


def _src_sha256(root: str) -> str:
    """sha256 over src/fbmdelay/*.py in name order, each file's name, a NUL, then its bytes."""
    pkg = os.path.join(root, "src", "fbmdelay")
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _src_lines(root: str) -> int:
    """Lines of src/fbmdelay/*.py under root, as `wc -l` counts them (newlines)."""
    pkg = os.path.join(root, "src", "fbmdelay")
    total = 0
    for name in os.listdir(pkg):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def _run(root: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    usage = {"user_s": after.ru_utime - before.ru_utime, "sys_s": after.ru_stime - before.ru_stime,
             "minor_faults": after.ru_minflt - before.ru_minflt}
    lines = proc.stdout.strip().splitlines()
    try:
        details, result = json.loads(lines[-2])["details"], json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        return {"returncode": proc.returncode, "error": proc.stderr.strip()[-500:], "rusage": usage}
    return {"returncode": proc.returncode, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "op_kind_p50_s": details.get("op_kind_p50_s", {}), "rusage": usage}


def _quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else [values[0]] * 3
    return [q[0], q[2]]


def _summary(pairs, metric: dict) -> dict:
    name, higher = metric["name"], metric["better"] == "higher"
    done = [p for p in pairs if "metrics" in p["parent"] and "metrics" in p["change"]]
    parent = [p["parent"]["metrics"][name] for p in done]
    change = [p["change"]["metrics"][name] for p in done]
    if not done:
        return {"pairs": 0}
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = _quartiles(parent)
    gain = (c_med - p_med) if higher else (p_med - c_med)
    worse = (p_med - c_med) / p_med if higher else (c_med - p_med) / p_med
    return {
        "parent_median": p_med, "parent_quartiles": p_q,
        "change_median": c_med, "change_quartiles": _quartiles(change),
        "change_over_parent": c_med / p_med if p_med else None,
        "change_wins": wins, "pairs": len(done), "bound": metric["bound"],
        "worse_beyond_bound": worse > metric["bound"],
        "clear_gain": wins >= 0.9 * len(done) and gain > p_q[1] - p_q[0],
    }


def _op_kinds(pairs) -> dict:
    """Per op kind, the median over pairs of each side's op_kind_p50_s and how many pairs the change was faster."""
    done = [p for p in pairs if "op_kind_p50_s" in p["parent"] and "op_kind_p50_s" in p["change"]]
    kinds = sorted({k for p in done for side in ("parent", "change") for k in p[side]["op_kind_p50_s"]})
    out = {}
    for kind in kinds:
        both = [(p["parent"]["op_kind_p50_s"][kind], p["change"]["op_kind_p50_s"][kind]) for p in done
                if kind in p["parent"]["op_kind_p50_s"] and kind in p["change"]["op_kind_p50_s"]]
        if both:
            parent, change = statistics.median(p for p, _ in both), statistics.median(c for _, c in both)
            out[kind] = {"parent_median_s": parent, "change_median_s": change,
                         "change_over_parent": change / parent if parent else None,
                         "change_faster": sum(c < p for p, c in both), "pairs": len(both)}
    return out


def _rusage(pairs) -> dict:
    """Per side, the median over pairs of each run's child CPU seconds and minor faults."""
    return {side: {key: statistics.median(p[side]["rusage"][key] for p in pairs)
                   for key in ("user_s", "sys_s", "minor_faults")}
            for side in ("parent", "change")}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    """numpy's BLAS as built: name, version and OpenBLAS configuration line, from numpy.__config__.CONFIG."""
    import numpy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def _thread_env() -> dict:
    """The environment variables that set BLAS and OpenMP threading: OMP_*, OPENBLAS_*, MKL_* and any *THREAD*."""
    return {k: v for k, v in sorted(os.environ.items())
            if k.startswith(("OMP_", "OPENBLAS_", "MKL_")) or "THREAD" in k}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="git revision of the parent side")
    p.add_argument("change", help="git revision of the change side")
    p.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json unless --out is given")
    p.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N",
                   help="run N pairs of WORKLOAD; repeat for more workloads")
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out")
    args = p.parse_args(argv)
    plan = []
    for item in args.pairs:
        workload, _, n = item.partition("=")
        if not n.isdigit() or int(n) < 1:
            p.error(f"--pairs takes WORKLOAD=N with N >= 1 (got {item!r})")
        plan.append((workload, int(n)))
    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        roots = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        commits = {side: _export(rev, roots[side]) for side, rev in
                   (("parent", args.parent), ("change", args.change))}
        with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
            e2e = json.load(fh)["end_to_end"]
        workloads = {}
        for k, (workload, n) in enumerate(plan):
            pairs = []
            for i in range(n):
                seed = args.seed + 100 * k + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = _run(roots[side], workload, seed, args.seconds)
                pairs.append(pair)
                print(f"{workload} pair {i} seed {seed}: "
                      + ", ".join(f"{s} {pair[s].get('metrics', pair[s])}" for s in ("parent", "change")),
                      file=sys.stderr, flush=True)
            workloads[workload] = {"pairs": pairs, "summary": {m["name"]: _summary(pairs, m) for m in e2e},
                                   "op_kind_p50_s": _op_kinds(pairs), "rusage": _rusage(pairs)}
        src = {side: _src_sha256(roots[side]) for side in roots}
        lines = {side: _src_lines(roots[side]) for side in roots}
    trees = {side: subprocess.run(["git", "rev-parse", f"{commit}:src"], cwd=ROOT, check=True,
                                  capture_output=True, text=True).stdout.strip()
             for side, commit in commits.items()}

    import numpy
    import scipy
    record = {
        "pr": args.pr,
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {args.seconds:g} --trace 0",
        "how": (f"scripts/bench_pairs.py: each side runs from a git archive of its commit (parent "
                f"{commits['parent'][:12]}, change {commits['change'][:12]}); pair i runs both sides on "
                "one seed, one after the other, the parent first on even pair indices"),
        "commits": commits,
        "machine": {"python": platform.python_version(), "numpy": numpy.__version__,
                    "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
                    "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
                    "blas": _blas(), "thread_env": _thread_env()},
        "cpu_model": _cpu_model(),
        "src_sha256": src,
        "src_tree": trees,
        "src_lines": lines,
        "workloads": workloads,
        "note": ("quartiles are statistics.quantiles(method='inclusive'); clear_gain: the change won at "
                 "least 9 pairs in 10 and its median beats the parent's by more than the parent's IQR; "
                 "src_sha256 is the sha256 over src/fbmdelay/*.py in name order, each file's name, a "
                 "NUL, then its bytes"),
    }
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(out)
    failed = any(not side.get("correct") for w in workloads.values() for pair in w["pairs"]
                 for side in (pair["parent"], pair["change"]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
