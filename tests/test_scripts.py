"""The scripts under scripts/ run end to end: exit 0 and every table they name."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args, cwd):
    """`python scripts/<name> args` in a fresh process that imports this checkout's src/."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def test_the_quick_verification_suite_writes_every_table_its_docstring_lists(tmp_path):
    script = ROOT / "scripts" / "run_verification_suite.py"
    listed = re.findall(r"^  (\S+\.(?:csv|json)) ", script.read_text(), flags=re.M)
    assert len(listed) == 7, listed
    proc = _run_script(script.name, str(tmp_path / "out"), "--quick", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    for pattern in listed:
        regex = re.escape(pattern).replace(r"\*", ".+")
        assert [name for name in written if re.fullmatch(regex, name)], (pattern, written)
    assert written == sorted(["dr_moments.csv", "fbm_law.csv", "shiryaev.csv", "nonconv.csv", "continuity_det.csv",
                              "continuity_fbm075.csv", "continuity_ppbm8.csv", "decay_bm_h075.csv",
                              "decay_fbm075_h06.csv", "run_manifest.json"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def test_the_pilot_thresholds_script_prints_every_section(tmp_path):
    proc = _run_script("pilot_thresholds.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    sections = re.findall(r"^== (.+?) [(,=]", proc.stdout, flags=re.M)
    assert sections == ["desk synthesis over the closed form", "continuity finals", "decay slopes",
                        "quadratic-identity defect"], proc.stdout
    assert proc.stdout.count("final/xnorm") == 3 and proc.stdout.count("cross slope") == 2
    assert not list(tmp_path.iterdir())


def _bench_pairs():
    """scripts/bench_pairs.py as a module, without running it."""
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(parent, change, name="reps_per_s"):
    """Synthetic pairs: each side's end-to-end metric name, pair by pair."""
    return [{"parent": {"metrics": {name: p}}, "change": {"metrics": {name: c}}} for p, c in zip(parent, change)]


def test_bench_pairs_summary_counts_wins_ties_and_the_bound():
    """clear_gain takes 9 wins in 10 and a median gain beyond the parent's IQR; a tie is a win for neither side;
    worse_beyond_bound reads the bound on the side the metric gets worse."""
    summary = _bench_pairs()._summary
    rate = {"name": "reps_per_s", "better": "higher", "bound": 0.25}
    parent = [100.0 + i for i in range(10)]  # quartiles 102.25 and 106.75: an IQR of 4.5
    got = summary(_pairs(parent, [p + 10.0 for p in parent[:9]] + [50.0]), rate)
    assert (got["change_wins"], got["pairs"], got["clear_gain"], got["worse_beyond_bound"]) == (9, 10, True, False)
    assert got["parent_quartiles"] == [102.25, 106.75] and got["change_median"] == 113.5
    assert not summary(_pairs(parent, [p + 3.0 for p in parent[:9]] + [50.0]), rate)["clear_gain"]  # within the IQR
    assert not summary(_pairs(parent, [p + 10.0 for p in parent[:8]] + [50.0] * 2), rate)["clear_gain"]  # 8 of 10
    tied = [p + 10.0 for p in parent[:9]] + [parent[9]]
    assert summary(_pairs(parent, tied), rate)["change_wins"] == 9
    assert summary(_pairs(tied, parent), rate)["change_wins"] == 0
    assert summary(_pairs(parent, parent), rate)["change_wins"] == 0
    assert summary(_pairs(parent, [0.7 * p for p in parent]), rate)["worse_beyond_bound"]
    assert not summary(_pairs(parent, [0.8 * p for p in parent]), rate)["worse_beyond_bound"]
    latency = {"name": "latency_p50_s", "better": "lower", "bound": 0.25}
    assert summary(_pairs(parent, [1.3 * p for p in parent], "latency_p50_s"), latency)["worse_beyond_bound"]
    assert not summary(_pairs(parent, [0.7 * p for p in parent], "latency_p50_s"), latency)["worse_beyond_bound"]
    assert summary([], rate) == {"pairs": 0}


def test_bench_pairs_counts_the_package_lines_as_wc_does(tmp_path):
    pkg = tmp_path / "src" / "fbmdelay"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n\ny = 2\n")
    (pkg / "b.py").write_text("z = 3")  # no newline at the end: wc -l counts 0
    (pkg / "notes.txt").write_text("not\ncounted\n")
    assert _bench_pairs()._src_lines(str(tmp_path)) == 3


def test_compare_outputs_finds_no_difference_of_head_with_itself_and_reports_a_planted_byte(tmp_path):
    """HEAD against HEAD at 64 steps: every run, replay and cross replay keeps its bytes; one flipped byte of
    one output is then one line."""
    if subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT, capture_output=True).returncode:
        pytest.skip("not a git checkout with a commit")
    work = tmp_path / "work"
    proc = _run_script("compare_outputs.py", "HEAD", "HEAD", "--steps", "64", "--keep", str(work), cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "288 runs and 540 files compared: 0 difference(s)\n"
    spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "scripts" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(ROOT / "scripts"))  # it imports bench_pairs, as a script does from its directory
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    planted = work / "change" / "out" / "run" / "run007" / "out.json"
    data = bytearray(planted.read_bytes())
    data[data.index(b'"value": ') + len(b'"value": ')] ^= 1  # the first byte of the integral's value
    planted.write_bytes(bytes(data))
    lines, runs, files = module.differences(str(work / "parent" / "out"), str(work / "change" / "out"))
    assert lines == ["run run007/out.json: differs"] and (runs, files) == (288, 540)
