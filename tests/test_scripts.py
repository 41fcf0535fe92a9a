"""The scripts under scripts/ run end to end: exit 0 and every table they name."""

import os
import re
import subprocess
import sys
from pathlib import Path

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
