#!/usr/bin/env python3
"""Compare the CLI's output bytes between two git revisions; exit 1 if any output differs.

Usage (from the root of the repository):

    python scripts/compare_outputs.py PARENT CHANGE [--steps 256] [--keep DIR]

Each revision is exported with `git archive` (bench_pairs._export) into its
own directory, a temporary one unless --keep names where to work and leave
everything.  In one child process per side, that side's package runs the
matrix below through fbmdelay.cli.parse_and_dispatch, at --warmup 0, 0.5,
4 and 1e14 on --steps steps, with relative --out paths, so that both sides
write the same manifests.  At --warmup 0 the runs that read a history at
h > 1/2 are refused, so the refusals are compared too:

* simulate: every process kind;
* integrate: det:const:1.0, bm, fbm:0.75, rl:0.7:0.25, bm2, pp:bm:8 and
  pp:fbm:0.75:4 at level 3, each at h 0.5 and 0.75;
* verify-moments, continuity (det:const:1.0, pp:bm:8 and pp:fbm:0.75:4),
  nonconv, and decay at levels 3:5 (bm at h 0.75; fbm:0.75 at h 0.5,
  whose integrand reads no history: it runs at --warmup 0 too; and
  det:const:1.0 at h 0.75, whose gaps are zeros, so that no slope is
  fitted and the CSV writes one unfitted).

Each run's manifest is then replayed with --manifest (the replay phase),
and the change side also replays every manifest the parent wrote (the
cross phase), which must give the parent's run back.  One line is printed
per run whose exit code, stdout or stderr differs, and per output or
manifest whose bytes differ or that one side wrote and the other did not.
The last line counts the runs and files compared.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

from bench_pairs import _export

WARMUPS = ("0", "0.5", "4", "1e14")
INTEGRANDS = ("det:const:1.0", "bm", "fbm:0.75", "rl:0.7:0.25", "bm2", "pp:bm:8", "pp:fbm:0.75:4")
#: each phase's runs, and the phase of the parent's they must match
PHASES = {"run": "run", "replay": "replay", "cross": "run"}


def matrix(steps: int) -> list[list[str]]:
    """Every run's argv but --out: each command at each warmup."""
    runs = []
    for warmup in WARMUPS:
        grid = ["--steps", str(steps), "--warmup", warmup, "--seed", "3"]
        runs += [["simulate", "--kind", kind, *grid] for kind in ("B", "B_H", "W_H", "R_H", "DR_H")]
        runs += [["integrate", "--integrand", spec, "--hurst", h, "--level", "3", *grid]
                 for spec in INTEGRANDS for h in ("0.5", "0.75")]
        runs += [["continuity", "--integrand", spec, "--reps", "16", *grid]
                 for spec in ("det:const:1.0", "pp:bm:8", "pp:fbm:0.75:4")]
        runs += [["verify-moments", "--reps", "100", *grid], ["nonconv", "--reps", "16", *grid],
                 ["decay", "--levels", "3:5", "--reps", "16", *grid],
                 ["decay", "--integrand", "fbm:0.75", "--hurst", "0.5", "--levels", "3:5", "--reps", "16", *grid],
                 ["decay", "--integrand", "det:const:1.0", "--hurst", "0.75", "--levels", "3:5", "--reps", "16", *grid]]
    return runs


def _dispatch(argv: list[str], cwd: str) -> dict:
    """parse_and_dispatch(argv) in cwd: its exit code, stdout and stderr (an exception's name and message)."""
    from fbmdelay.cli import parse_and_dispatch
    out, err, here = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = parse_and_dispatch(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback on the command line: recorded, so that both sides can be compared
        code, err = "raised", io.StringIO(f"{type(exc).__name__}: {exc}")
    finally:
        os.chdir(here)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def child(src: str, root: str, steps: int, foreign: str | None) -> None:
    """One side, in root: the matrix under run/, its manifests replayed under replay/ and foreign's under cross/.

    Run k writes into its own directory, runNNN/; every run's exit code, stdout and stderr go to results.json.
    """
    import fbmdelay
    if not os.path.abspath(fbmdelay.__file__).startswith(os.path.join(os.path.abspath(src), "")):
        raise SystemExit(f"imported {fbmdelay.__file__}, not the package under {src}")
    results = {phase: {} for phase in PHASES}
    for k, argv in enumerate(matrix(steps)):
        out = os.path.join(f"run{k:03d}", "out.json" if argv[0] == "integrate" else "out.csv")
        for phase in PHASES:
            os.makedirs(os.path.join(root, phase, os.path.dirname(out)))
        results["run"][out] = _dispatch([*argv, "--out", out], os.path.join(root, "run"))
        for phase, base in (("replay", root), ("cross", foreign)):
            manifest = os.path.join(base or "", "run", out + ".manifest.json")
            if base is not None and os.path.exists(manifest):
                shutil.copy(manifest, os.path.join(root, phase, out + ".manifest.json"))
                results[phase][out] = _dispatch(["--manifest", out + ".manifest.json"], os.path.join(root, phase))
    with open(os.path.join(root, "results.json"), "w") as fh:
        json.dump(results, fh)


def run_side(src: str, root: str, steps: int, foreign: str | None = None) -> None:
    """child() in a fresh interpreter that imports the package of the source tree src."""
    env = {k: v for k, v in os.environ.items() if k != "FBMDELAY_OUT"}
    env["PYTHONPATH"] = os.path.join(src, "src")
    cmd = [sys.executable, os.path.abspath(__file__), "--child", src, root, str(steps), *([foreign] if foreign else [])]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"the child for {src} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")


def _files(directory: str) -> dict[str, bytes]:
    files = {}
    for name in sorted(os.listdir(directory)) if os.path.isdir(directory) else ():
        with open(os.path.join(directory, name), "rb") as fh:
            files[name] = fh.read()
    return files


def differences(parent_root: str, change_root: str) -> tuple[list[str], int, int]:
    """(one line per difference, runs compared, files compared) between the two sides' roots of child()."""
    results = {}
    for side, root in (("parent", parent_root), ("change", change_root)):
        with open(os.path.join(root, "results.json")) as fh:
            results[side] = json.load(fh)
    lines, runs, files = [], 0, 0
    for phase, want_phase in PHASES.items():
        got_runs, want_runs = results["change"][phase], results["parent"][want_phase]
        # a cross run exists only where the parent wrote a manifest
        for out in sorted(set(got_runs) | (set() if phase == "cross" else set(want_runs))):
            runs += 1
            got, want = got_runs.get(out), want_runs.get(out)
            if got != want:
                lines.append(f"{phase} {out}: exit code, stdout or stderr differ: parent {want}, change {got}")
            directory = os.path.dirname(out)
            ours = _files(os.path.join(change_root, phase, directory))
            theirs = _files(os.path.join(parent_root, want_phase, directory))
            for name in sorted(set(ours) | set(theirs)):
                files += 1
                if name not in theirs or name not in ours:
                    lines.append(f"{phase} {directory}/{name}: only the {'change' if name in ours else 'parent'} "
                                 "wrote it")
                elif ours[name] != theirs[name]:
                    lines.append(f"{phase} {directory}/{name}: differs")
    return lines, runs, files


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        _, src, root, steps, *foreign = argv
        child(src, root, int(steps), foreign[0] if foreign else None)
        return 0
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="git revision of the parent side")
    p.add_argument("change", help="git revision of the change side")
    p.add_argument("--steps", type=int, default=256, help="--steps of every run (a power of two >= 64)")
    p.add_argument("--keep", help="work in this new directory and keep it (default: a temporary one)")
    args = p.parse_args(argv)
    with contextlib.ExitStack() as stack:
        work = args.keep or stack.enter_context(tempfile.TemporaryDirectory(prefix="compare_outputs_"))
        roots = {side: os.path.join(work, side) for side in ("parent", "change")}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            _export(rev, os.path.join(roots[side], "tree"))
            run_side(os.path.join(roots[side], "tree"), os.path.join(roots[side], "out"), args.steps,
                     os.path.join(roots["parent"], "out") if side == "change" else None)
        lines, runs, files = differences(os.path.join(roots["parent"], "out"), os.path.join(roots["change"], "out"))
    for line in lines:
        print(line)
    print(f"{runs} runs and {files} files compared: {len(lines)} difference(s)")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
