"""CLI: dispatch, validation messages, manifests, and replay determinism."""

import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
import scipy

import fbmdelay.cli
import fbmdelay.experiments
import fbmdelay.noise
from fbmdelay.cli import RunConfig, parse_and_dispatch
from fbmdelay.experiments import continuity_study, nonconvergence_demo
from fbmdelay.noise import make_grid
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
    for the 256 forecast runs and for the Ito field of the 256 segments.

    The path and the warmup field take the cells before the origin through past_conv."""
    calls = spy_convolutions(monkeypatch)
    code, _, _ = _run(["integrate", "--integrand", "fbm:0.75", "--hurst", "0.6", "--seed", "1",
                       "--out", str(tmp_path / "int.json")], capsys)
    assert code == 0
    assert {k: len(v) for k, v in calls.items()} == {
        "integrator.history_conv": 1, "integrator.past_conv": 1, "integrator.block_conv": 1,
        "integrands.history_conv": 0, "integrands.past_conv": 1, "integrands.block_conv": 1}
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


NEGATIVE_LEVELS = [
    (["decay", "--levels=-1:3", "--steps", "64", "--warmup", "1", "--reps", "4", "--out", "d.csv"],
     "--levels must be >= 0 (got -1)"),
    (["decay", "--levels=-2:1", "--out", "x.csv"], "--levels must be >= 0 (got -2)"),
    (["integrate", "--integrand", "bm2", "--level", "-1", "--out", "x.json"], "--level must be >= 0 (got -1)"),
    (["integrate", "--integrand", "bm", "--level", "-1", "--out", "x.json"], "--level must be >= 0 (got -1)"),
]


# a reversed pair is no level at all, and an equal pair is one
_TWO_LEVELS = "--levels needs two or more levels, as coarse:fine with coarse < fine"
FEWER_THAN_TWO_LEVELS = [
    (["decay", "--levels=3:1", "--out", "x.csv"], f"{_TWO_LEVELS} (got [])"),
    (["decay", "--levels=4:4", "--out", "x.csv"], f"{_TWO_LEVELS} (got [4])"),
]

# an rl start off the lattice, alone or inside a step integrand
_OFF_START = "starts at t=0.3, off the lattice of --steps"
_TAKE_A_START = "; take a start that is a multiple of {!r} from -0.125 to 1.0".format
OFF_LATTICE_STARTS = [
    (["integrate", "--integrand", "rl:0.7:0.3", "--steps", "256", "--level", "2", "--out", "x.json"],
     f"--integrand 'rl:0.7:0.3' {_OFF_START} 256{_TAKE_A_START(1 / 256)}"),
    (["integrate", "--integrand", "pp:rl:0.7:0.3:8", "--steps", "256", "--out", "x.json"],
     f"--integrand 'pp:rl:0.7:0.3:8' {_OFF_START} 256{_TAKE_A_START(1 / 256)}"),
    (["continuity", "--integrand", "rl:0.7:0.3", "--steps", "1024", "--out", "x.csv"],
     f"--integrand 'rl:0.7:0.3' {_OFF_START} 1024{_TAKE_A_START(1 / 1024)}"),
    (["decay", "--integrand", "rl:0.7:0.3", "--steps", "256", "--levels", "2:3", "--out", "x.csv"],
     f"--integrand 'rl:0.7:0.3' {_OFF_START} 256{_TAKE_A_START(1 / 256)}"),
]

# no history at h > 1/2: every command that reads it would cut the integral at the origin, with no budget
def _no_history(argv):
    return ([*argv, "--steps", "256", "--warmup", "0", "--out", "x.out"],
            "--warmup 0.0 leaves no history, which a run at h > 1/2 needs")


NO_HISTORY = [_no_history(argv)
              for argv in (["integrate", "--integrand", "det:const:1.0"], ["integrate", "--integrand", "pp:bm:8"],
                           *(["simulate", "--kind", kind] for kind in ("B_H", "R_H", "DR_H")), ["verify-moments"],
                           *(["continuity", "--hurst-list", "0.75", "--integrand", spec]
                             for spec in ("det:const:1.0", "pp:bm:8")),
                           ["nonconv", "--hurst-list", "0.75"], ["decay", "--integrand", "bm", "--levels", "3:5"])]
# at h = 1/2 the integrand's own h > 1/2 reads the history
NO_HISTORY_AT_HALF = [_no_history(["integrate", "--hurst", "0.5", "--integrand", spec, *level])
                      for spec, level in (("fbm:0.75", ["--level", "2"]), ("pp:fbm:0.75:4", []))]

# a bad inner spec of pp: names the whole spec and gives the accepted specs once
_SPECS = ("accepted integrand specs: det:const:<v> | det:poly:a0,a1,... | bm | fbm:<H> | rl:<H>[:<start>] | bm2 | "
          "pp:<inner>:<n-segments>")
BAD_INNER_SPECS = [
    (["integrate", "--integrand", "pp:det:const:inf:4", "--out", "x.json"],
     f"unknown integrand spec 'pp:det:const:inf:4'; {_SPECS} (inf is not finite)"),
    (["integrate", "--integrand", "pp:gauss:4", "--out", "x.json"], f"unknown integrand spec 'pp:gauss:4'; {_SPECS}"),
]

# an rl integrand at h = 1/2 names itself rl, with its start, alone or inside a step integrand
RL_AT_HALF = [
    (["integrate", "--integrand", "rl:0.5:0.3", "--steps", "64", "--out", "x.json"],
     f"--integrand 'rl:0.5:0.3' {_OFF_START} 64{_TAKE_A_START(1 / 64)}"),
    (["integrate", "--integrand", "pp:rl:0.5:0.25:3", "--steps", "64", "--out", "x.json"],
     "integrand 'pp:rl:0.5:0.25:3' does not split --steps 64 into segments of at least 2 fine cells between "
     "lattice points; take a segment count that divides 32"),
]

# rows whose whole line is compared, not only a fragment of it
WHOLE_LINE = [*NEGATIVE_LEVELS, *FEWER_THAN_TWO_LEVELS, *OFF_LATTICE_STARTS, *NO_HISTORY, *NO_HISTORY_AT_HALF,
              *BAD_INNER_SPECS, *RL_AT_HALF]


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
    (["decay", "--levels", "4", "--out", "x.csv"], "--levels takes coarse:fine integers"),
    (["decay", "--levels", "4:a", "--out", "x.csv"], "--levels takes coarse:fine integers"),
    (["continuity", "--hurst-list", "0.7,abc", "--out", "x.csv"], "--hurst-list takes comma-separated"),
    # a grid too coarse for the projection level: the remedy names only the subcommand's flags
    (["integrate", "--integrand", "fbm:0.75", "--steps", "256", "--out", "x.json"], "lower --level or"),
    (["continuity", "--integrand", "fbm:0.75", "--steps", "256", "--out", "x.csv"], "cells; raise --steps\n"),
    (["decay", "--steps", "256", "--out", "x.csv"], "; lower --levels or raise --steps"),
    (["simulate", "--warmup", "inf", "--out", "x.csv"], "--warmup must be >= 0 and finite"),
    # a grid whose step or reach floats cannot hold
    (["simulate", "--warmup", "1.7e308", "--out", "x.csv"], "--warmup is too far back"),
    (["simulate", "--t", "1e-320", "--out", "x.csv"], "underflows to a step of 0; raise --t"),
    (["simulate", "--t", "nan", "--out", "x.csv"], "--t must be positive and finite (got nan)"),
    (["simulate", "--t", "inf", "--out", "x.csv"], "--t must be positive and finite (got inf)"),
    # a power of two of steps too large for a float: --t / --steps cannot be taken
    (["simulate", "--steps", str(2 ** 1100), "--out", "x.csv"], "--steps must be below 2**1024"),
    # a step integrand whose breakpoints miss the lattice, or fall closer than 2 cells
    *([[cmd, "--integrand", spec, "--steps", "64", "--out", "x.out"],
       f"integrand '{spec}' does not split --steps 64 into segments of at least 2 fine cells between lattice points; "
       "take a segment count that divides 32"]
      for cmd in ("integrate", "continuity") for spec in ("pp:bm:3", "pp:bm:128", "pp:bm:64")),
    # a negative seed, which numpy's SeedSequence would refuse only inside the draw
    (["simulate", "--seed", "-1", "--out", "x.csv"], "--seed must be >= 0 (got -1)"),
    (["continuity", "--seed", "-3", "--out", "x.csv"], "--seed must be >= 0 (got -3)"),
    # a negative dyadic level, coarsest or only (argparse reads a bare -1:3 as an option)
    *NEGATIVE_LEVELS,
    *FEWER_THAN_TWO_LEVELS,
    *OFF_LATTICE_STARTS,
    (["integrate", "--steps", "256", "--warmup", "0", "--out", "x.json"], "--warmup 0.0 leaves no history"),
    *NO_HISTORY,
    # a number in an integrand spec that is not finite
    *(([cmd, "--integrand", spec, "--steps", "256", "--out", "x.out"], f"unknown integrand spec '{spec}'")
      for cmd, spec in (("integrate", "det:const:nan"), ("integrate", "det:const:inf"),
                        ("integrate", "det:poly:1,nan"), ("integrate", "pp:det:const:inf:4"),
                        ("continuity", "det:const:nan"), ("integrate", "rl:0.7:nan"),
                        ("integrate", "rl:0.7:inf"), ("integrate", "pp:rl:0.7:nan:4"))),
    # rows added later go last, so the ids of the rows above stay as they were
    *NO_HISTORY_AT_HALF,
    *BAD_INNER_SPECS,
    *RL_AT_HALF,
])
def test_validation_failures_are_one_line_and_nonzero(tmp_path, capsys, monkeypatch, argv, fragment):
    """Exit 2 and one line that holds the row's fragment, or is it for a WHOLE_LINE row: before any kernel
    is built or row drawn, and with no file written."""
    err = _refused_before_any_draw(argv, tmp_path, capsys, monkeypatch)
    assert fragment in err
    assert (argv, fragment) not in WHOLE_LINE or err == f"fbmdelay: error: {fragment}\n"


def _refused_before_any_draw(argv, tmp_path, capsys, monkeypatch):
    """Run argv in tmp_path with spies on the draw and the kernel build; check exit 2, one line, no draw and
    no file, and return that line."""
    os.chdir(tmp_path)
    draws = []
    monkeypatch.setattr(fbmdelay.experiments, "generate_noise_batch", lambda *args, **kwargs: draws.append(args))
    monkeypatch.setattr(fbmdelay.noise, "_build_kernel", None)  # a kernel build would raise TypeError
    code, _, err = _run(argv, capsys)
    assert code == 2
    assert err.count("\n") == 1
    assert draws == [] and not list(tmp_path.iterdir())
    return err


@pytest.mark.parametrize("command", ["integrate", "continuity"])
def test_a_step_integrand_off_the_lattice_is_refused_before_any_draw(tmp_path, capsys, monkeypatch, command):
    err = _refused_before_any_draw([command, "--integrand", "pp:bm:3", "--steps", "64", "--out", "x.out"],
                                   tmp_path, capsys, monkeypatch)
    assert "take a segment count that divides 32" in err


@pytest.mark.parametrize("argv,fragment", NEGATIVE_LEVELS)
def test_a_negative_level_is_refused_before_any_draw(tmp_path, capsys, monkeypatch, argv, fragment):
    assert _refused_before_any_draw(argv, tmp_path, capsys, monkeypatch) == f"fbmdelay: error: {fragment}\n"


@pytest.mark.parametrize("argv,fragment", FEWER_THAN_TWO_LEVELS)
def test_fewer_than_two_levels_are_refused_naming_levels_before_any_draw(tmp_path, capsys, monkeypatch, argv,
                                                                         fragment):
    assert _refused_before_any_draw(argv, tmp_path, capsys, monkeypatch) == f"fbmdelay: error: {fragment}\n"


@pytest.mark.parametrize("argv,fragment", OFF_LATTICE_STARTS)
def test_an_rl_start_off_the_lattice_is_refused_before_any_draw(tmp_path, capsys, monkeypatch, argv, fragment):
    assert _refused_before_any_draw(argv, tmp_path, capsys, monkeypatch) == f"fbmdelay: error: {fragment}\n"


def test_a_negative_seed_is_refused_before_any_kernel_or_draw(tmp_path, capsys, monkeypatch):
    """--seed -1, given or replayed from a manifest: one line naming --seed, and no kernel built or row drawn."""
    out = tmp_path / "path.csv"
    assert _run(["simulate", "--seed", "3", *FAST, "--out", str(out)], capsys)[0] == 0
    manifest = tmp_path / "path.csv.manifest.json"
    record = json.loads(manifest.read_text())
    record["config"]["seed"] = -1
    manifest.write_text(json.dumps(record))
    out.unlink()
    monkeypatch.setattr(fbmdelay.experiments, "generate_noise_batch", None)  # a draw would raise TypeError
    monkeypatch.setattr(fbmdelay.noise, "_build_kernel", None)  # and so would a kernel build
    for argv in (["simulate", "--seed", "-1", *FAST, "--out", str(out)], ["--manifest", str(manifest)]):
        code, stdout, err = _run(argv, capsys)
        assert code == 2 and stdout == "" and err == "fbmdelay: error: --seed must be >= 0 (got -1)\n"
    assert not out.exists()


def test_what_reads_no_history_runs_without_one(tmp_path, capsys):
    """At --warmup 0, simulate --kind B and W_H run at h = 0.75, and every command but continuity (which takes
    h = 1/2 as its baseline) at h = 1/2; integrate's record then declares a budget of 0.  decay reads its
    integrand only from the origin on (Integrand.level_steps), so fbm:0.75 runs at h = 1/2, and a
    deterministic integrand, whose gaps are exact zeros, reads no noise at h = 0.75; its unfitted slopes are nan."""
    os.chdir(tmp_path)
    for argv in (["simulate", "--kind", "B"], ["simulate", "--kind", "W_H"],
                 *(["simulate", "--kind", kind, "--hurst", "0.5"] for kind in ("B_H", "R_H", "DR_H")),
                 *(["integrate", "--integrand", spec, "--hurst", "0.5"] for spec in ("det:const:1.0", "pp:bm:8")),
                 ["verify-moments", "--hurst", "0.5"], ["nonconv", "--hurst-list", "0.5"],
                 ["decay", "--hurst", "0.5", "--levels", "2:3"],
                 ["decay", "--hurst", "0.5", "--integrand", "fbm:0.75", "--levels", "3:5"],
                 ["decay", "--integrand", "det:const:1.0", "--hurst", "0.75", "--levels", "3:5"]):
        assert _run([*argv, "--steps", "256", "--warmup", "0", "--reps", "100", "--out", "x.out"], capsys)[0] == 0
        if argv[0] == "integrate":
            assert json.loads((tmp_path / "x.out").read_text())["truncation_budget"] == 0.0
        if "det:const:1.0" in argv and argv[0] == "decay":
            zeros = [f"{m},0.0,0.0,nan,0.0,0.0,nan" for m in (3, 4)]
            assert (tmp_path / "x.out").read_text().splitlines()[1:] == zeros
            table = numpy.loadtxt(tmp_path / "x.out", delimiter=",", skiprows=1)  # an unfitted slope reads as nan
            assert table.shape == (2, 7) and numpy.isnan(table[:, [3, 6]]).all()


def test_an_rl_start_on_the_lattice_runs(tmp_path, capsys):
    """A start on the lattice, after the origin or before it (from the near window's start, -T/8), is not refused."""
    for argv in (["integrate", "--integrand", "rl:0.7:0.25", "--steps", "256", "--level", "2"],
                 ["integrate", "--integrand", "rl:0.7:-0.125", "--steps", "256", "--level", "2"],
                 ["decay", "--integrand", "rl:0.7:0.25", "--steps", "256", "--levels", "2:3", "--reps", "8"]):
        assert _run([*argv, "--out", str(tmp_path / "x")], capsys)[0] == 0


COMMAND_ARGVS = {  # each command on the 128-step grid, with what it needs to run
    "simulate": [], "integrate": [], "verify-moments": ["--reps", "100"], "continuity": ["--integrand", "pp:bm:8"],
    "nonconv": [], "decay": ["--levels", "2:3"],
}


@pytest.mark.parametrize("command", COMMAND_ARGVS)
def test_a_grid_too_large_for_the_memory_available_is_refused_before_any_draw(tmp_path, capsys, monkeypatch,
                                                                              command):
    """With 1 MiB available, the rows in flight (5.3 MB of noise) and their fields are refused: one line, no draw."""
    os.chdir(tmp_path)
    draws = []
    monkeypatch.setattr(fbmdelay.experiments, "_memory_available", lambda: 2 ** 20)
    monkeypatch.setattr(fbmdelay.experiments, "generate_noise_batch", lambda *args, **kwargs: draws.append(args))
    monkeypatch.setattr(fbmdelay.noise, "_build_kernel", None)  # a kernel build would raise TypeError
    code, _, err = _run([command, *FAST, *COMMAND_ARGVS[command], "--out", "x.out"], capsys)
    assert code == 2 and err.count("\n") == 1, err
    assert err.startswith("fbmdelay: error: --steps 128 with --warmup 1.043 needs ")
    assert "lower --steps or --warmup" in err
    assert draws == [] and not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", COMMAND_ARGVS)
def test_a_grid_of_2_to_the_40_steps_is_refused_from_the_memory_this_machine_has(tmp_path, capsys, command):
    """Each command refuses --steps 2^40 (64 TiB of noise and fields) in one line: no numpy MemoryError traceback."""
    if fbmdelay.experiments._memory_available() is None:
        pytest.skip("neither /proc/meminfo nor the cgroup's memory.max can be read here")
    os.chdir(tmp_path)
    code, _, err = _run([command, "--steps", str(2 ** 40), *COMMAND_ARGVS[command], "--out", "x.out"], capsys)
    assert code == 2 and err.count("\n") == 1 and "lower --steps or --warmup" in err, err
    assert not list(tmp_path.iterdir())


def test_memory_available_reads_meminfo_and_the_cgroup_limit(monkeypatch):
    """The smaller of MemAvailable and a numeric memory.max; "max" and a missing file set no limit."""
    files = {}

    def fake_open(path, *args, **kwargs):
        if path not in files:
            raise FileNotFoundError(path)
        return io.StringIO(files[path])

    monkeypatch.setattr(fbmdelay.experiments, "open", fake_open, raising=False)
    read = fbmdelay.experiments._memory_available
    assert read() is None
    files["/proc/meminfo"] = "MemTotal:       8000000 kB\nMemAvailable:    2048 kB\nSwapTotal: 0 kB\n"
    assert read() == 2048 * 1024
    files["/sys/fs/cgroup/memory.max"] = "max\n"
    assert read() == 2048 * 1024
    files["/sys/fs/cgroup/memory.max"] = "1048576\n"
    assert read() == 2 ** 20
    del files["/proc/meminfo"]
    assert read() == 2 ** 20


def test_memory_available_reads_a_cgroup_v1_limit_and_the_address_space_limit(monkeypatch):
    """A numeric v1 memory.limit_in_bytes caps it, and so does the soft RLIMIT_AS less VmSize, where both read."""
    files = {"/proc/meminfo": "MemAvailable:    8192 kB\n"}

    def fake_open(path, *args, **kwargs):
        if path not in files:
            raise FileNotFoundError(path)
        return io.StringIO(files[path])

    monkeypatch.setattr(fbmdelay.experiments, "open", fake_open, raising=False)
    read = fbmdelay.experiments._memory_available
    files["/sys/fs/cgroup/memory/memory.limit_in_bytes"] = "4194304\n"
    assert read() == 4 * 2 ** 20
    files["/proc/self/limits"] = ("Limit                     Soft Limit           Hard Limit           Units\n"
                                  "Max address space         unlimited            unlimited            bytes\n")
    files["/proc/self/status"] = "Name:\tpython\nVmPeak:\t   9000 kB\nVmSize:\t   3072 kB\n"
    assert read() == 4 * 2 ** 20
    files["/proc/self/limits"] = files["/proc/self/limits"].replace("unlimited            unlimited",
                                                                    "5242880              unlimited")
    assert read() == 5 * 2 ** 20 - 3072 * 1024
    del files["/proc/self/status"]  # a limit whose use cannot be read sets none
    assert read() == 4 * 2 ** 20


def test_an_address_space_limit_refuses_a_grid_before_any_draw(tmp_path):
    """Under a 1e9-byte RLIMIT_AS (set in the child only), integrate --steps 2^24 (1 GiB of noise and fields) exits
    2 in one line, where it ran out of memory in numpy."""
    resource = pytest.importorskip("resource")
    grid = fbmdelay.noise.make_grid(1.0, 2 ** 24, 1e14)
    free = fbmdelay.experiments._memory_available()
    if free is None or free < 2 * 8 * grid.cell_count * 4:
        pytest.skip("too little memory here for the address-space limit to be the one that refuses")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (10 ** 9, resource.getrlimit(resource.RLIMIT_AS)[1]))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "fbmdelay.cli", "integrate", "--steps", str(2 ** 24),
                           "--out", "x.json"], cwd=tmp_path, env=env, capture_output=True, text=True,
                          preexec_fn=limit)
    assert proc.returncode == 2 and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith(f"fbmdelay: error: --steps {2 ** 24} with --warmup ")
    assert "lower --steps or --warmup" in proc.stderr
    assert not list(tmp_path.iterdir())


def test_running_out_of_memory_past_the_plan_is_one_line(tmp_path, capsys, monkeypatch):
    """A MemoryError that the plan's check did not foresee, here from the CSV writer, exits 2 in one line and writes
    nothing, where it printed a traceback."""
    monkeypatch.chdir(tmp_path)

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(fbmdelay.cli, "write_path_csv", out_of_memory)
    code, stdout, err = _run(["simulate", *FAST, "--out", "x.csv"], capsys)
    assert (code, stdout, err) == (2, "", "fbmdelay: error: out of memory; lower --steps or --warmup\n")
    assert not list(tmp_path.iterdir())


def _run_module(argv, cwd):
    """`python -m fbmdelay.cli argv` in a fresh process that imports this checkout's src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "fbmdelay.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)


def test_python_dash_m_runs_the_cli(tmp_path):
    proc = _run_module(["simulate", "--steps", "100", "--out", "x.csv"], tmp_path)
    assert proc.returncode == 2
    assert "power of two" in proc.stderr


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_the_cached_parser_runs_each_call_as_a_fresh_process(tmp_path, capsys, monkeypatch):
    """One process's calls, in turn, against the same argv in a fresh `python -m fbmdelay.cli`:
    the same exit code, stdout, stderr and files after every call."""
    ours, fresh = tmp_path / "ours", tmp_path / "fresh"
    ours.mkdir()
    fresh.mkdir()
    monkeypatch.delenv("FBMDELAY_OUT", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage at the terminal width
    monkeypatch.chdir(ours)
    argvs = [["simulate", "--hurst", "1.2", "--out", "bad.csv"],
             [],
             ["integrate", "--level", "5", *FAST, "--out", "five.json"],
             ["integrate", *FAST, "--out", "eight.json"],
             ["simulate", "--seed", "4", *FAST, "--out", "path.csv"],
             ["--manifest", "path.csv.manifest.json"]]
    codes = []
    for argv in argvs:
        got = _run(argv, capsys)
        proc = _run_module(argv, fresh)
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv
        assert _files(ours) == _files(fresh), argv
        codes.append(got[0])
    assert codes == [2, 2, 0, 0, 0, 0]
    assert json.loads((ours / "eight.json.manifest.json").read_text())["config"]["level"] == 8
    assert json.loads((ours / "five.json.manifest.json").read_text())["config"]["level"] == 5


def test_each_simulate_and_replay_writes_through_cli_write_path_csv(tmp_path, capsys, monkeypatch):
    """The writer is looked up as cli.write_path_csv on every call, so a wrapper put there sees it."""
    calls, writer = [], fbmdelay.cli.write_path_csv

    def spy(*args):
        calls.append(args[-1])
        writer(*args)

    monkeypatch.setattr(fbmdelay.cli, "write_path_csv", spy)
    out = str(tmp_path / "path.csv")
    assert _run(["simulate", "--seed", "2", *FAST, "--out", out], capsys)[0] == 0
    assert calls == [out]
    assert _run(["--manifest", out + ".manifest.json"], capsys)[0] == 0
    assert calls == [out, out]


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
    grid = make_grid(1.0, 128, 1.0)
    if command == "continuity":
        want = continuity_study("pp:bm:4", [0.7, 0.51], 40, 3, grid=grid).noise_checksum
    else:
        want = nonconvergence_demo([0.7, 0.51], 40, 3, grid=grid)[0].noise_checksum
    assert json.loads(first)["noise_checksum"] == want
    out.unlink()
    assert _run(["--manifest", str(manifest)], capsys)[0] == 0
    assert manifest.read_bytes() == first


@pytest.mark.parametrize("edit,fragment", [
    (lambda m: m["config"].update(tol=None), "unknown keys ['tol'], missing keys []"),
    (lambda m: m["config"].pop("seed"), "unknown keys [], missing keys ['seed']"),
    (lambda m: m.pop("config"), "missing keys ['command', 'horizon'"),
    (lambda m: m["config"].update(steps="512"), "key 'steps' must be int (got '512')"),
    (lambda m: m["config"].update(seed=3.0), "key 'seed' must be int (got 3.0)"),
    (lambda m: m["config"].update(hurst=0.75), "key 'hurst' must be tuple[float, ...] (got 0.75)"),
])
def test_manifest_replay_refuses_a_config_that_is_not_a_run_config(tmp_path, capsys, edit, fragment):
    """An unknown key (older manifests' --tol), a missing key, no config, a mistyped value: one line, exit 2."""
    out = tmp_path / "path.csv"
    assert _run(["simulate", "--seed", "3", *FAST, "--out", str(out)], capsys)[0] == 0
    manifest = tmp_path / "path.csv.manifest.json"
    record = json.loads(manifest.read_text())
    edit(record)
    manifest.write_text(json.dumps(record))
    out.unlink()
    code, stdout, err = _run(["--manifest", str(manifest)], capsys)
    assert code == 2 and stdout == "" and not out.exists()
    assert err.count("\n") == 1
    assert err.startswith("fbmdelay: error: manifest config does not match RunConfig") and fragment in err


def test_manifests_record_the_versions_and_the_history_lattice(tmp_path, capsys):
    """The package, Python, numpy and scipy versions, and the lattice: near window, ratio, reach, cell counts, and
    how the far weights are interpolated, where there are far cells."""
    out = tmp_path / "path.csv"
    assert _run(["simulate", "--seed", "3", "--steps", "128", "--out", str(out)], capsys)[0] == 0
    record = json.loads((tmp_path / "path.csv.manifest.json").read_text())
    assert record["config"]["warmup"] == 1e14
    assert set(record["versions"]) == {"fbmdelay", "python", "numpy", "scipy"}
    assert (record["versions"]["numpy"], record["versions"]["scipy"]) == (numpy.__version__, scipy.__version__)
    reach = make_grid(1.0, 128, 1e14).warmup_length
    assert reach >= 1e14
    assert record["lattice"] == {"near_window": 0.125, "far_ratio": 1.0625, "reach": reach,
                                 "far_cells": 567, "near_cells": 16, "main_cells": 128,
                                 "far_nodes": 20, "far_variable": "log(t + near_window)"}
    assert _run(["simulate", "--seed", "3", "--steps", "128", "--warmup", "0.125", "--out", str(out)], capsys)[0] == 0
    record = json.loads((tmp_path / "path.csv.manifest.json").read_text())
    assert record["lattice"] == {"near_window": 0.125, "far_ratio": 1.0625, "reach": 0.125,  # no far weights
                                 "far_cells": 0, "near_cells": 16, "main_cells": 128}
    assert record["noise"] == {"bit_generator": "SFC64"} and fbmdelay.noise.BIT_GENERATOR == "SFC64"


@pytest.mark.parametrize("edit,fragment", [
    (lambda m: m.pop("lattice"), "history lattice None is not this build's"),  # every earlier manifest
    (lambda m: m["lattice"].update(far_cells=600), "history lattice {"),
    (lambda m: m["lattice"].update(near_window=2.0), "rerun the command to write a new manifest"),
])
def test_manifest_replay_refuses_another_history_lattice(tmp_path, capsys, edit, fragment):
    """A manifest whose lattice is not the one this build makes of its config is refused: one line, exit 2."""
    out = tmp_path / "path.csv"
    argv = ["simulate", "--seed", "3", "--steps", "128", "--warmup", "4.0", "--out", str(out)]
    assert _run(argv, capsys)[0] == 0
    manifest = tmp_path / "path.csv.manifest.json"
    record = json.loads(manifest.read_text())
    edit(record)
    manifest.write_text(json.dumps(record))
    out.unlink()
    code, stdout, err = _run(["--manifest", str(manifest)], capsys)
    assert code == 2 and stdout == "" and not out.exists()
    assert err.count("\n") == 1
    assert err.startswith("fbmdelay: error: manifest history lattice") and fragment in err


def test_manifest_replay_refuses_a_lattice_without_its_far_interpolation(tmp_path, capsys, monkeypatch):
    """A manifest with far cells that does not record how their weights are interpolated (every one written while
    they were interpolated in t) is refused in one line, before any draw, though its counts be this build's: a grid
    whose counts did not move, make_grid(1.0, 1, 4.0), has far weights that moved at the rounding level."""
    old = tmp_path / "old"
    old.mkdir()
    argv = ["simulate", "--seed", "3", "--steps", "64", "--warmup", "4.0", "--out", str(old / "path.csv")]
    assert _run(argv, capsys)[0] == 0
    manifest = old / "path.csv.manifest.json"
    record = json.loads(manifest.read_text())
    assert record["lattice"]["far_cells"] == make_grid(1.0, 64, 4.0).far_cells > 0
    del record["lattice"]["far_nodes"], record["lattice"]["far_variable"]
    record["config"]["out"] = "path.csv"
    manifest.write_text(json.dumps(record))
    run = tmp_path / "run"
    run.mkdir()
    err = _refused_before_any_draw(["--manifest", str(manifest)], run, capsys, monkeypatch)
    assert err.startswith("fbmdelay: error: manifest history lattice {") and "'far_nodes': 20" in err


@pytest.mark.parametrize("edit,noise", [
    (lambda m: m.pop("noise"), "None"),  # every manifest written before the noise record
    (lambda m: m["noise"].update(bit_generator="Philox"), "{'bit_generator': 'Philox'}"),
], ids=["missing", "Philox"])
def test_manifest_replay_refuses_another_bit_generator_before_any_draw(tmp_path, tmp_path_factory, capsys,
                                                                       monkeypatch, edit, noise):
    """A manifest that names no bit generator, or another one, is refused in one line before any kernel or draw:
    its seed draws other bytes here."""
    made = tmp_path_factory.mktemp("made")
    argv = ["simulate", "--seed", "3", "--steps", "128", "--warmup", "4.0", "--out", str(made / "path.csv")]
    assert _run(argv, capsys)[0] == 0
    record = json.loads((made / "path.csv.manifest.json").read_text())
    edit(record)
    record["config"]["out"] = str(tmp_path / "path.csv")  # a replay would write where the spies look
    manifest = made / "edited.manifest.json"
    manifest.write_text(json.dumps(record))
    err = _refused_before_any_draw(["--manifest", str(manifest)], tmp_path, capsys, monkeypatch)
    assert err == (f"fbmdelay: error: manifest noise {noise} is not this build's {{'bit_generator': 'SFC64'}}; "
                   "rerun the command to write a new manifest\n")


def test_manifest_replay_refuses_a_level_for_any_command_but_integrate(tmp_path, capsys):
    """continuity has no --level: a manifest edited to another level is refused in one line, exit 2."""
    out = tmp_path / "study.csv"
    argv = ["continuity", "--integrand", "fbm:0.75", "--hurst-list", "0.7,0.51", "--reps", "20",
            "--steps", "512", "--warmup", "1.0", "--out", str(out)]
    assert _run(argv, capsys)[0] == 0
    manifest = out.with_suffix(".csv.manifest.json")
    record = json.loads(manifest.read_text())
    record["config"].update(level=4, steps=256)
    manifest.write_text(json.dumps(record))
    out.unlink()
    code, stdout, err = _run(["--manifest", str(manifest)], capsys)
    assert code == 2 and stdout == "" and not out.exists()
    assert err.count("\n") == 1
    assert err.startswith("fbmdelay: error: level is set only by integrate's --level; continuity takes 8 (got 4)")


def test_no_command_prints_usage(capsys):
    code, _, err = _run([], capsys)
    assert code == 2
    assert "usage" in err.lower()
