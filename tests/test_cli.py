"""CLI: dispatch, validation messages, manifests, and replay determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fbmdelay.cli import RunConfig, parse_and_dispatch
from fbmdelay.experiments import DeskConfig, continuity_study, nonconvergence_demo
from oracles import spy_convolutions

FAST = ["--steps", "128", "--warmup", "1.0"]


def _run(argv, capsys):
    code = parse_and_dispatch(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_simulate_writes_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "path.csv"
    code, stdout, _ = _run(["simulate", "--hurst", "0.75", "--seed", "3", *FAST,
                            "--out", str(out)], capsys)
    assert code == 0
    assert str(out) in stdout
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# kind=B_H h=0.75 seed=3")
    assert lines[1] == "time,value"
    assert len(lines) == 2 + 129
    manifest = json.loads((tmp_path / "path.csv.manifest.json").read_text())
    assert manifest["config"]["command"] == "simulate"
    assert "noise_checksum" not in manifest


@pytest.mark.parametrize("argv", [["simulate"], ["integrate"], ["verify-moments", "--reps", "100"]])
def test_left_out_flags_take_the_run_config_defaults(tmp_path, capsys, argv):
    """--kind, --level and --levels left out: the manifest records RunConfig's own defaults."""
    out = tmp_path / "run.out"
    code, _, _ = _run([*argv, *FAST, "--out", str(out)], capsys)
    assert code == 0
    config = json.loads((tmp_path / "run.out.manifest.json").read_text())["config"]
    for field in dataclasses.fields(RunConfig):
        if field.default is not dataclasses.MISSING:
            want = field.default
            assert config[field.name] == (list(want) if isinstance(want, tuple) else want)


def test_integrate_constant_equals_simulated_endpoint(tmp_path, capsys):
    """integrate det:const:1.0 reproduces the simulated fbm value at T for the same seed."""
    jout = tmp_path / "int.json"
    code, _, _ = _run(["integrate", "--integrand", "det:const:1.0", "--hurst", "0.75",
                       "--seed", "1", *FAST, "--out", str(jout)], capsys)
    assert code == 0
    record = json.loads(jout.read_text())
    csvout = tmp_path / "bh.csv"
    code, _, _ = _run(["simulate", "--hurst", "0.75", "--seed", "1", *FAST,
                       "--out", str(csvout)], capsys)
    assert code == 0
    last_value = float(csvout.read_text().splitlines()[-1].split(",")[1])
    assert record["value"] == pytest.approx(last_value, rel=1e-9)
    assert record["value"] == pytest.approx(
        record["ito_part"] + record["tail_part"] + record["cross_part"], abs=1e-12)


def test_integrate_fbm_makes_no_per_segment_convolutions(tmp_path, capsys, monkeypatch):
    """integrate fbm:0.75 at level 8: one path, two history fields, one block convolution each
    for the 256 forecast runs and for the Ito field of the 256 segments."""
    calls = spy_convolutions(monkeypatch)
    code, _, _ = _run(["integrate", "--integrand", "fbm:0.75", "--hurst", "0.6", "--seed", "1",
                       "--out", str(tmp_path / "int.json")], capsys)
    assert code == 0
    assert {k: len(v) for k, v in calls.items()} == {
        "integrator.history_conv": 2, "integrator.block_conv": 1,
        "integrands.history_conv": 1, "integrands.block_conv": 1}
    assert len(calls["integrands.block_conv"][0]) == len(calls["integrator.block_conv"][0]) == 257


def test_verify_moments_brownian_zero_table(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code, _, _ = _run(["verify-moments", "--hurst", "0.5", "--reps", "100", *FAST,
                       "--out", str(out)], capsys)
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    for row in rows:
        fields = row.split(",")
        assert float(fields[3]) == 0.0 and float(fields[4]) == 0.0


def test_nonconv_gap_table(tmp_path, capsys):
    out = tmp_path / "gaps.csv"
    code, _, _ = _run(["nonconv", "--hurst-list", "0.75,0.6,0.51", "--t", "1",
                       "--reps", "400", "--seed", "7", *FAST, "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "h,gap,se,gap_limit,se_limit,refinement_tol"
    assert len(lines) == 4
    for row in lines[1:]:
        h, gap, se, gap_lim, se_lim, rtol = (float(x) for x in row.split(","))
        assert abs(gap_lim - 0.5) <= 3 * se_lim + 0.05  # limit-form gap sits near 1/2


def test_continuity_and_decay_commands(tmp_path, capsys):
    out = tmp_path / "cont.csv"
    code, _, _ = _run(["continuity", "--integrand", "pp:bm:4", "--hurst-list", "0.7,0.51",
                       "--reps", "120", "--seed", "2", *FAST, "--out", str(out)], capsys)
    assert code == 0
    assert out.read_text().splitlines()[0] == "h,gap,se"

    dout = tmp_path / "decay.csv"
    code, _, _ = _run(["decay", "--integrand", "bm", "--hurst", "0.75", "--levels", "3:5",
                       "--reps", "60", "--seed", "4", *FAST, "--out", str(dout)], capsys)
    assert code == 0
    assert dout.read_text().splitlines()[0].startswith("level,gap,se,fitted_slope")


@pytest.mark.parametrize("argv,fragment", [
    (["integrate", "--integrand", "gauss", "--out", "x.json"], "integrand spec"),
    (["simulate", "--hurst", "1.2", "--out", "x.csv"], "hurst"),
    (["simulate", "--steps", "100", "--out", "x.csv"], "power of two"),
    (["simulate", "--steps", "32", "--out", "x.csv"], "power of two"),
    (["nonconv", "--reps", "1", "--out", "x.csv"], "reps"),
    (["simulate", "--kind", "X_H", "--out", "x.csv"], "kind"),
    (["integrate", "--integrand", "fbm:0.75", "--steps", "256", "--out", "x.json"], "--level"),
    (["continuity", "--integrand", "fbm:0.75", "--steps", "256", "--out", "x.csv"], "--steps"),
    (["decay", "--steps", "256", "--out", "x.csv"], "--levels"),
    (["decay", "--steps", "1024", "--out", "x.csv"], "--levels"),
])
def test_validation_failures_are_one_line_and_nonzero(tmp_path, capsys, argv, fragment):
    os.chdir(tmp_path)
    code, _, err = _run(argv, capsys)
    assert code == 2
    assert err.count("\n") == 1
    assert fragment in err


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "fbmdelay.cli", "simulate", "--steps", "100",
                           "--out", "x.csv"], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert "power of two" in proc.stderr


def test_output_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FBMDELAY_OUT", str(tmp_path))
    code, stdout, _ = _run(["simulate", "--seed", "5", *FAST, "--out", "rel.csv"], capsys)
    assert code == 0
    assert (tmp_path / "rel.csv").exists()


def test_manifest_replay_is_byte_identical(tmp_path, capsys):
    out = tmp_path / "gaps.csv"
    argv = ["nonconv", "--hurst-list", "0.6,0.51", "--reps", "150", "--seed", "11",
            *FAST, "--out", str(out)]
    assert _run(argv, capsys)[0] == 0
    first = out.read_bytes()
    manifest = out.with_suffix(".csv.manifest.json")
    first_manifest = manifest.read_bytes()
    out.unlink()
    assert _run(["--manifest", str(manifest)], capsys)[0] == 0
    assert out.read_bytes() == first
    assert manifest.read_bytes() == first_manifest


@pytest.mark.parametrize("command", ["continuity", "nonconv"])
def test_study_manifests_record_the_noise_checksum(tmp_path, capsys, command):
    """The manifest carries the study's noise checksum, and a replay rewrites it byte for byte."""
    out = tmp_path / "study.csv"
    argv = [command, "--hurst-list", "0.7,0.51", "--reps", "40", "--seed", "3", *FAST,
            "--out", str(out)]
    if command == "continuity":
        argv += ["--integrand", "pp:bm:4"]
    assert _run(argv, capsys)[0] == 0
    manifest = out.with_suffix(".csv.manifest.json")
    first = manifest.read_bytes()
    desk = DeskConfig(steps=128, warmup=1.0)
    if command == "continuity":
        want = continuity_study("pp:bm:4", [0.7, 0.51], 40, 3, config=desk).noise_checksum
    else:
        want = nonconvergence_demo([0.7, 0.51], 40, 3, config=desk)[0].noise_checksum
    assert json.loads(first)["noise_checksum"] == want
    out.unlink()
    assert _run(["--manifest", str(manifest)], capsys)[0] == 0
    assert manifest.read_bytes() == first


def test_no_command_prints_usage(capsys):
    code, _, err = _run([], capsys)
    assert code == 2
    assert "usage" in err.lower()
