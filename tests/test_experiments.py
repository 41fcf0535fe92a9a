"""Experiment drivers: estimator contracts, qualification rules, file formats."""

import functools
import json
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fbmdelay.experiments
from fbmdelay.kernels import hurst_constant
from fbmdelay.noise import dr_pointwise_closed_form
from fbmdelay.experiments import (
    ContinuityNotApplicableError,
    DeskConfig,
    _mc,
    _replicate,
    cauchy_decay_study,
    continuity_study,
    fbm_law_check,
    nonconvergence_demo,
    parse_integrand,
    shiryaev_identity_check,
    verify_dr_moments,
    write_continuity_csv,
    write_decay_csv,
    write_law_csv,
    write_manifest,
    write_moments_csv,
    write_nonconv_csv,
    write_shiryaev_csv,
)
from fbmdelay.integrands import (
    BrownianIntegrand,
    DeterministicIntegrand,
    FbmIntegrand,
    PiecewisePredictableIntegrand,
    QuadraticBrownianIntegrand,
    SegmentGrid,
)
from oracles import decay_gaps_per_level, spy_convolutions, spy_noise_ffts

SMALL = DeskConfig(steps=512, warmup=2.0)
H75 = hurst_constant(0.75)
H5 = hurst_constant(0.5)


def test_verify_dr_moments_small_scale():
    rep = verify_dr_moments(H75, 1.0, 400, 12, SMALL)
    for res, closed in [(rep.pointwise, rep.pointwise_closed), (rep.energy, rep.energy_closed)]:
        assert res.replications == 400
        assert res.std_error > 0
        assert abs(res.estimate - closed) <= 3 * res.std_error + res.truncation_budget
    rows = list(rep.rows())
    assert [r["quantity"] for r in rows] == ["pointwise", "energy"]


def test_verify_dr_moments_brownian_is_exactly_zero():
    rep = verify_dr_moments(H5, 1.0, 100, 12, SMALL)
    assert rep.pointwise.estimate == 0.0 and rep.pointwise.std_error == 0.0
    assert rep.energy.estimate == 0.0
    assert rep.pointwise_closed == 0.0 and rep.energy_closed == 0.0


def test_verify_dr_moments_rejects_tiny_ensembles():
    with pytest.raises(ValueError):
        verify_dr_moments(H75, 1.0, 99, 12, SMALL)


def test_verify_dr_moments_runs_on_the_config_horizon():
    """span must be the config's horizon: a second horizon is refused, naming both."""
    short = DeskConfig(horizon=0.7, steps=512, warmup=2.0)
    with pytest.raises(ValueError, match="span 1.0 .* horizon 0.7"):
        verify_dr_moments(H75, 1.0, 100, 1, short)
    rep = verify_dr_moments(H75, 0.7, 100, 1, short)
    assert rep.span == 0.7 and rep.pointwise_closed == dr_pointwise_closed_form(H75, 0.7)


def test_replicate_sizes_chunks_from_the_grid(monkeypatch):
    """Near-equal chunks, a multiple of WORKERS of them, of at most _CHUNK_BYTES / WORKERS and never empty.

    64 rows at desk scale on 2 workers, 128 on one, 4 at 2^16 steps; 300
    replications on 2 workers are six chunks of 50, three full rounds, not
    four of 64 and one of 44; every stream is drawn once.  At 2^24 steps one
    row is more than _CHUNK_BYTES, so the chunks run one at a time on the
    calling thread.  Nothing is allocated.
    """
    drawn = []

    def stub(seed, grid, reps, first_stream=0):
        drawn.append((first_stream, reps, threading.get_ident()))
        return SimpleNamespace(replications=reps)

    monkeypatch.setattr(fbmdelay.experiments, "generate_noise_batch", stub)
    for workers, config, reps, want, inline in ((2, DeskConfig(), 512, [64] * 8, False),
                                                (1, DeskConfig(), 512, [128] * 4, True),
                                                (2, DeskConfig(steps=65536), 40, [4] * 10, False),
                                                (2, DeskConfig(), 300, [50] * 6, False),
                                                (2, DeskConfig(), 10, [5, 5], False),
                                                (3, DeskConfig(), 10, [3, 3, 4], False),
                                                (2, DeskConfig(steps=2 ** 24), 2, [1, 1], True)):
        monkeypatch.setattr(fbmdelay.experiments, "WORKERS", workers)
        drawn.clear()
        out, = _replicate(1, config.grid(), reps, lambda nb: (np.zeros(nb.replications),))
        starts = np.cumsum([0] + want[:-1])
        assert sorted(d[:2] for d in drawn) == list(zip(starts, want)) and out.shape == (reps,)
        assert inline == all(d[2] == threading.get_ident() for d in drawn)


@pytest.mark.parametrize("budget_rows, chunk_rows", [(6, 2), (2, 1)])
def test_replicate_keeps_at_most_the_budget_alive(monkeypatch, budget_rows, chunk_rows):
    """From its draw to its return no more than _CHUNK_BYTES of noise exists, and that much does at once.

    On 3 workers a budget of 6 rows runs 3 chunks of 2 rows together; a
    budget of 2 rows runs chunks of 1 row on 2 threads only.  Every chunk
    waits at a barrier of as many parties as the budget allows chunks, which
    only that many chunks alive together can pass.  The rows come back in
    stream order, and a single chunk runs on the calling thread.
    """
    workers, grid = 3, SMALL.grid()
    monkeypatch.setattr(fbmdelay.experiments, "WORKERS", workers)
    monkeypatch.setattr(fbmdelay.experiments, "_CHUNK_BYTES", _chunk_bytes(budget_rows))
    lock, alive, peak = threading.Lock(), [0], [0]
    barrier = threading.Barrier(budget_rows // chunk_rows, timeout=30)
    real_draw = fbmdelay.experiments.generate_noise_batch

    def draw(seed, grid, reps, first_stream=0):
        with lock:
            alive[0] += reps
            peak[0] = max(peak[0], alive[0])
        return real_draw(seed, grid, reps, first_stream=first_stream)

    def per_chunk(nb):
        assert nb.replications == chunk_rows
        barrier.wait()
        with lock:
            alive[0] -= nb.replications
        return (nb.increments[:, :3],)

    monkeypatch.setattr(fbmdelay.experiments, "generate_noise_batch", draw)
    rows, = _replicate(3, grid, 36, per_chunk)  # 36 / chunk_rows chunks, several rounds of the barrier
    assert peak[0] == budget_rows and alive[0] == 0
    assert rows.tobytes() == real_draw(3, grid, 36).increments[:, :3].tobytes()
    caller, = _replicate(3, grid, 1, lambda nb: (np.array([threading.get_ident()]),))
    assert caller[0] == threading.get_ident()


def test_replicate_passes_a_chunk_exception_to_the_caller(monkeypatch):
    """A chunk that raises stops the run: the caller gets its exception, and unstarted chunks never run."""
    monkeypatch.setattr(fbmdelay.experiments, "WORKERS", 2)
    monkeypatch.setattr(fbmdelay.experiments, "_CHUNK_BYTES", _chunk_bytes(2 * 2))  # 2 rows a chunk
    started = []

    def per_chunk(nb):
        started.append(nb.first_stream)
        if nb.first_stream == 0:
            raise RuntimeError("chunk at stream 0 failed")
        time.sleep(0.02)
        return (nb.increments[:, 0],)

    with pytest.raises(RuntimeError, match="chunk at stream 0 failed"):
        _replicate(3, SMALL.grid(), 40, per_chunk)  # 20 chunks
    assert 0 in started and len(started) < 20


def test_fbm_law_check_small_scale():
    (var_res, var_closed), (cov_res, cov_closed) = fbm_law_check(H75, 500, 3, SMALL)
    assert var_closed == 1.0
    assert cov_closed == 0.5
    assert abs(var_res.estimate - var_closed) <= 3 * var_res.std_error + var_res.truncation_budget
    assert abs(cov_res.estimate - cov_closed) <= 3 * cov_res.std_error + cov_res.truncation_budget


def test_shiryaev_defect_decreases_and_validates():
    rows = shiryaev_identity_check(H75, [64, 128, 256], 400, 5, SMALL)
    defects = [r.estimate for _, r in rows]
    assert defects[0] > defects[1] > defects[2] > 0
    with pytest.raises(ValueError):
        shiryaev_identity_check(H5, [64], 100, 5, SMALL)
    with pytest.raises(ValueError):
        shiryaev_identity_check(H75, [100], 100, 5, SMALL)  # does not divide the grid


def test_nonconvergence_rows_and_crn():
    rows = nonconvergence_demo([0.51, 0.75], 400, 9, config=SMALL)
    by_h = {r.h: r for r in rows}
    # the limit-form gap sits near 1/2 at every h; the finite-n gap needs its
    # declared refinement tolerance as h drops to 1/2
    for r in rows:
        assert abs(r.gap_limit.estimate - 0.5) <= 3 * r.gap_limit.std_error + r.gap_limit.truncation_budget
        assert abs(r.gap_riemann.estimate - 0.5) <= 3 * r.gap_riemann.std_error + r.refinement_tol \
            + r.gap_riemann.truncation_budget
    assert by_h[0.51].refinement_tol > by_h[0.75].refinement_tol
    assert rows[0].noise_checksum == rows[1].noise_checksum


def test_continuity_gaps_shrink_toward_half():
    curve = continuity_study("det:const:1.0", [0.7, 0.55, 0.51], 300, 2024, config=SMALL)
    assert curve.hurst_values == (0.7, 0.55, 0.51)
    assert curve.decreasing_within_1se()
    assert curve.final_gap < curve.gaps[0]
    assert curve.x_norm_ref == pytest.approx(1.0, rel=1e-6)


def test_continuity_accepts_instances_and_piecewise():
    frozen = PiecewisePredictableIntegrand(BrownianIntegrand(), SegmentGrid.uniform(1.0, 8))
    curve = continuity_study(frozen, [0.6, 0.51], 200, 7, config=SMALL)
    assert curve.integrand_spec == "pp:bm:8"
    assert curve.gaps[1] < curve.gaps[0]


def test_continuity_rejects_nu_zero_non_predictable():
    for gamma in (BrownianIntegrand(), QuadraticBrownianIntegrand()):
        with pytest.raises(ContinuityNotApplicableError, match="not applicable"):
            continuity_study(gamma, [0.6, 0.51], 100, 7, config=SMALL)
    with pytest.raises(ValueError, match="baseline"):
        continuity_study("det:const:1.0", [0.6, 0.5], 100, 7, config=SMALL)


def test_decay_study_runs_and_reports_both_slopes():
    study = cauchy_decay_study("bm", H75, range(3, 7), 100, 77, config=SMALL)
    assert study.levels == (3, 4, 5)
    assert len(study.gaps) == len(study.cross_gaps) == 3
    assert study.fitted_slope is not None and study.fitted_slope < 0
    assert study.cross_fitted_slope is not None and study.cross_fitted_slope < 0
    assert study.target_slope == pytest.approx(-0.25)


def test_drivers_are_identical_for_any_worker_count():
    """Every driver gives its one-chunk result on 1, 2 or 3 chunk threads, with up to 8 chunks of 20 rows.

    The interpreter switches threads every microsecond here, so chunks
    interleave as finely as they can.
    """
    want = _every_driver_in_one_chunk()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [_every_driver(20, CHUNK_REPS, workers) for workers in (1, 2, 3)]
    finally:
        sys.setswitchinterval(interval)
    for run in runs:
        for got, expected in zip(run, want):
            assert got == expected


def test_drivers_are_identical_for_any_blas_thread_count():
    """One or two OpenBLAS threads give the same bytes for continuity and decay.

    The grid is large enough that the Toeplitz products of the block
    convolutions (16 blocks of 256 cells, 32 of 128) are big enough to thread.
    """
    script = (
        "from fbmdelay.experiments import DeskConfig, cauchy_decay_study, continuity_study\n"
        "from fbmdelay.kernels import hurst_constant\n"
        "import fbmdelay.experiments\n"
        "cfg = DeskConfig(steps=4096, warmup=1.0)\n"
        "fbmdelay.experiments._CHUNK_BYTES = 25 * 8 * cfg.grid().cell_count\n"
        "print(repr(cauchy_decay_study('fbm:0.75', hurst_constant(0.6), range(3, 6), 40, 3, config=cfg)))\n"
        "print(repr(continuity_study('fbm:0.75', [0.75, 0.51], 40, 3, config=cfg, proj_level=4)))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] and outs[0].count("\n") == 2


def _chunk_bytes(rows, config=SMALL):
    """The _CHUNK_BYTES that makes _replicate draw chunks of rows replications on config's grid, at WORKERS = 1."""
    return rows * 8 * config.grid().cell_count


def _every_driver(chunk, reps, workers=1):
    """Every driver's result, in chunks of at most chunk rows run on workers threads."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fbmdelay.experiments, "WORKERS", workers)
        mp.setattr(fbmdelay.experiments, "_CHUNK_BYTES", _chunk_bytes(chunk * workers))
        return (verify_dr_moments(H75, 1.0, reps, 3, SMALL),
                fbm_law_check(H75, reps, 3, SMALL),
                shiryaev_identity_check(H75, [64, 512], reps, 3, SMALL),
                nonconvergence_demo([0.75, 0.51], reps, 3, config=SMALL),
                continuity_study("fbm:0.75", [0.7, 0.51], reps, 3, config=SMALL),
                cauchy_decay_study("fbm:0.75", hurst_constant(0.6), range(3, 6), reps, 3, config=SMALL))


CHUNK_REPS = 150


@functools.cache
def _every_driver_in_one_chunk():
    return _every_driver(CHUNK_REPS, CHUNK_REPS)


def test_drivers_are_identical_for_any_chunk_size():
    """Chunks of 7 (not a divisor of reps), 128 and reps give equal results, checksums included."""
    for chunk in (7, 128):
        for got, want in zip(_every_driver(chunk, CHUNK_REPS), _every_driver_in_one_chunk()):
            assert got == want


@given(chunk=st.integers(1, CHUNK_REPS))
@settings(max_examples=10, deadline=None)
def test_drivers_are_identical_for_a_random_chunk_size(chunk):
    """Any chunk size in [1, reps] gives the one-chunk result of every driver, checksums included."""
    for got, want in zip(_every_driver(chunk, CHUNK_REPS), _every_driver_in_one_chunk()):
        assert got == want


def test_common_random_numbers_across_hurst_lists():
    """h = 0.51 gives bit-identical results alone and after another h in the list."""
    alone = continuity_study("fbm:0.75", [0.51], 150, 5, config=SMALL)
    inside = continuity_study("fbm:0.75", [0.75, 0.51], 150, 5, config=SMALL)
    assert (alone.gaps[0], alone.std_errors[0], alone.noise_checksum) == \
        (inside.gaps[1], inside.std_errors[1], inside.noise_checksum)
    assert nonconvergence_demo([0.51], 150, 5, config=SMALL)[0] == \
        nonconvergence_demo([0.75, 0.51], 150, 5, config=SMALL)[1]


CRN_POOL = (0.5, 0.51, 0.55, 0.6, 0.75, 0.9)


@functools.cache
def _alone(h):
    """(continuity gap, se, checksum) and the nonconv row of h, each from a list of h alone."""
    curve = None if h == 0.5 else continuity_study("pp:bm:8", [h], 40, 5, config=SMALL)
    cont = None if curve is None else (curve.gaps[0], curve.std_errors[0], curve.noise_checksum)
    return cont, nonconvergence_demo([h], 40, 5, config=SMALL)[0]


@given(hursts=st.lists(st.sampled_from(CRN_POOL), min_size=1, max_size=5, unique=True))
@settings(max_examples=25, deadline=None)
def test_every_hurst_value_sees_the_same_noise_in_any_list(hursts):
    """Each h's results are bit-identical alone and inside any list and order of h."""
    rough = [h for h in hursts if h != 0.5]
    if rough:
        curve = continuity_study("pp:bm:8", rough, 40, 5, config=SMALL)
        for h, gap, se in zip(rough, curve.gaps, curve.std_errors):
            assert (gap, se, curve.noise_checksum) == _alone(h)[0]
    for h, row in zip(hursts, nonconvergence_demo(hursts, 40, 5, config=SMALL)):
        assert row == _alone(h)[1]


@pytest.mark.parametrize("spec", ["det:const:1.0", "pp:bm:8"])
def test_continuity_transforms_each_noise_window_once_for_every_h(monkeypatch, spec):
    """Three chunks on three threads, 1 or 4 h: every row's cells of one step and its weights are transformed once.

    The values are inner products with the B_H path taken in the frequency
    domain (noise.past_dot): one forward transform of each row's window
    from the far cells to the end of the main window, one of its weights,
    and no inverse transform; no h makes a segment block convolution either.
    """
    grid = SMALL.grid()
    monkeypatch.setattr(fbmdelay.experiments, "WORKERS", 3)
    inverse = []
    ffts = spy_noise_ffts(monkeypatch, inverse)
    calls = spy_convolutions(monkeypatch)
    reps = 6  # chunks of 2
    window = grid.origin_index - grid.far_cells + grid.main_steps  # the near warmup and the main window, in one
    weights = grid.main_steps + 1  # one per main lattice point
    for hursts in ([0.6], [0.7, 0.6, 0.55, 0.51]):
        ffts.clear()
        continuity_study(spec, hursts, reps, 5, config=SMALL)
        assert sum(rows for rows, width, _ in ffts if width == window) == reps
        assert sum(rows for rows, width, _ in ffts if width == weights) == reps
        for rows, width, n in ffts:  # nothing else but a kernel spectrum, cached per h list and window
            assert width in (window, weights) or (rows, width) == (len(hursts), n)
    assert inverse == []
    assert calls["integrator.block_conv"] == []


@pytest.mark.parametrize("spec,h", [("bm", 0.75), ("fbm:0.75", 0.6), ("rl:0.7", 0.7), ("bm2", 0.6)])
def test_decay_study_equals_per_level_reference(monkeypatch, spec, h):
    """One path and one assembly per level pair give the bytes of the per-level evaluation."""
    monkeypatch.setattr(fbmdelay.experiments, "WORKERS", 1)
    monkeypatch.setattr(fbmdelay.experiments, "_CHUNK_BYTES", _chunk_bytes(128))
    hp, levels, reps = hurst_constant(h), [3, 4, 5], 150  # two chunks of 75
    study = cauchy_decay_study(spec, hp, levels, reps, 9, config=SMALL)
    gamma = parse_integrand(spec)
    gaps = _replicate(9, SMALL.grid(), reps, lambda nb: decay_gaps_per_level(gamma, hp, levels, nb))
    tot = [_mc(g, 9, 0.0) for g in gaps[::2]]
    cross = [_mc(g, 9, 0.0) for g in gaps[1::2]]
    assert study.gaps == tuple(r.estimate for r in tot)
    assert study.std_errors == tuple(r.std_error for r in tot)
    assert study.cross_gaps == tuple(r.estimate for r in cross)
    assert study.cross_std_errors == tuple(r.std_error for r in cross)


def test_decay_study_shares_the_path_and_the_cross_convolutions(monkeypatch):
    """Per chunk: one full-lattice fbm path, two history fields, one block convolution per level grid.

    No segment and no freeze run has a convolution of its own: the cross
    parts come from the shared fields, and each level's forecasts and each
    pair's Ito field are one block convolution.  The two chunks run on two
    threads, so the calls are counted, not ordered.
    """
    grid = SMALL.grid()
    m0, n = grid.origin_index, grid.cell_count
    monkeypatch.setattr(fbmdelay.experiments, "WORKERS", 2)
    calls = spy_convolutions(monkeypatch)
    cauchy_decay_study("fbm:0.75", hurst_constant(0.6), range(3, 6), 150, 5, config=SMALL)
    chunks = 2  # 75 + 75 replications

    def count(key, entry=lambda c: c):
        return Counter(entry(c) for c in calls[key])

    assert count("integrands.history_conv") == {}
    assert count("integrands.past_conv") == {(n, (m0, n)): chunks}
    assert count("integrands.block_conv", len) == {2 ** m + 1: chunks for m in (3, 4, 5)}
    assert count("integrator.history_conv") == {((m0, n), (m0, n + 1)): chunks}
    assert count("integrator.past_conv") == {(m0, (m0, n + 1)): chunks}
    assert count("integrator.block_conv", len) == {2 ** (m + 1) + 1: chunks for m in (3, 4)}


def test_decay_study_deterministic_integrand_skips_fit():
    study = cauchy_decay_study("det:poly:0.0,1.0", H75, range(3, 6), 50, 77, config=SMALL)
    assert study.fitted_slope is None
    assert all(g == 0.0 for g in study.gaps)


def test_decay_study_validates_levels(monkeypatch):
    with pytest.raises(ValueError):
        cauchy_decay_study("bm", H75, [3, 5], 50, 77, config=SMALL)
    with pytest.raises(ValueError):
        cauchy_decay_study("bm2", H75, [3], 50, 77, config=SMALL)

    def no_draw(*args, **kwargs):
        raise AssertionError("noise drawn for a level list the grid cannot carry")
    monkeypatch.setattr(fbmdelay.experiments, "generate_noise_batch", no_draw)
    for levels in (range(8, 11), range(7, 10)):  # 2^10 segments do not align; 2^9 get 1 cell each
        with pytest.raises(ValueError, match="split 512 steps .* lower --levels or raise --steps"):
            cauchy_decay_study("fbm:0.75", H75, levels, 50, 7, config=SMALL)


# ---------------------------------------------------------------------------
# integrand spec strings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec,cls", [
    ("det:const:1.0", DeterministicIntegrand),
    ("det:poly:0.0,1.0,2.0", DeterministicIntegrand),
    ("bm", BrownianIntegrand),
    ("fbm:0.75", FbmIntegrand),
    ("bm2", QuadraticBrownianIntegrand),
    ("pp:bm:8", PiecewisePredictableIntegrand),
    ("pp:fbm:0.6:4", PiecewisePredictableIntegrand),
])
def test_parse_integrand_accepts_known_specs(spec, cls):
    gamma = parse_integrand(spec)
    assert isinstance(gamma, cls)


@pytest.mark.parametrize("spec", ["", "gauss", "fbm", "fbm:abc", "det:exp:1", "pp:bm", "fbm:0.3"])
def test_parse_integrand_rejects_unknown_specs(spec):
    with pytest.raises(ValueError, match="integrand spec"):
        parse_integrand(spec)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_csv_outputs_are_deterministic(tmp_path):
    rep = verify_dr_moments(H75, 1.0, 150, 12, SMALL)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_moments_csv(a, [rep])
    write_moments_csv(b, [rep])
    assert a.read_bytes() == b.read_bytes()
    header, first, _ = a.read_text().splitlines()[:3]
    assert header == "h,span,quantity,estimate,closed_form,se,budget"
    fields = first.split(",")
    assert float(fields[0]) == 0.75 and fields[2] == "pointwise"
    # shortest-roundtrip float formatting
    assert float(fields[3]) == rep.pointwise.estimate


def test_remaining_writers_produce_declared_headers(tmp_path):
    curve = continuity_study("det:const:1.0", [0.7, 0.51], 120, 2, config=SMALL)
    write_continuity_csv(tmp_path / "c.csv", curve)
    assert (tmp_path / "c.csv").read_text().splitlines()[0] == "h,gap,se"

    study = cauchy_decay_study("bm", H75, range(3, 6), 60, 7, config=SMALL)
    write_decay_csv(tmp_path / "d.csv", study)
    assert (tmp_path / "d.csv").read_text().splitlines()[0] == \
        "level,gap,se,fitted_slope,cross_gap,cross_se,cross_fitted_slope"

    rows = nonconvergence_demo([0.6], 120, 3, config=SMALL)
    write_nonconv_csv(tmp_path / "n.csv", rows)
    assert (tmp_path / "n.csv").read_text().splitlines()[0] == \
        "h,gap,se,gap_limit,se_limit,refinement_tol"

    srows = shiryaev_identity_check(H75, [64, 128], 120, 3, SMALL)
    write_shiryaev_csv(tmp_path / "s.csv", srows)
    assert (tmp_path / "s.csv").read_text().splitlines()[0] == "n_steps,defect,se"

    law = fbm_law_check(H75, 120, 3, SMALL)
    write_law_csv(tmp_path / "l.csv", law)
    lines = (tmp_path / "l.csv").read_text().splitlines()
    assert lines[0] == "quantity,estimate,closed_form,se,budget"
    for line, name, (res, closed) in zip(lines[1:], ("var_1", "cov_1_half"), law):
        assert line == f"{name},{res.estimate!r},{closed!r},{res.std_error!r},{res.truncation_budget!r}"


def test_manifest_roundtrip(tmp_path):
    path = tmp_path / "m.json"
    record = {"config": {"seed": 3, "steps": 512}, "outputs": ["x.csv"]}
    write_manifest(path, record)
    write_manifest(tmp_path / "m2.json", record)
    assert path.read_bytes() == (tmp_path / "m2.json").read_bytes()
    assert json.loads(path.read_text()) == record
