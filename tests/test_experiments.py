"""Experiment drivers: estimator contracts, qualification rules, file formats."""

import functools
import json
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fbmdelay.experiments
import fbmdelay.integrands
import fbmdelay.noise
from fbmdelay.kernels import hurst_constant
from fbmdelay.noise import (discrete_dr_energy, discrete_fbm_cov, dr_energy_closed_form, dr_pointwise_closed_form,
                           dr_values, generate_noise_batch, make_grid)
from fbmdelay.experiments import (
    DESK,
    ContinuityNotApplicableError,
    _energy_quadrature,
    _mc,
    _plan,
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
    RlFbmIntegrand,
    SegmentGrid,
    closed_form_x_norm,
    y_norm,
)
from oracles import (decay_gaps_per_level, decreasing_within_1se, reference_draw, spy_convolutions,
                     spy_noise_ffts)

SMALL = make_grid(1.0, 512, 2.0)
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


def test_verify_dr_moments_is_checked_for_the_cells_it_draws(monkeypatch):
    """The desk DR_H check draws 4,628 of 8,724 cells a row: memory for its prefix rows, short of full rows, runs it."""
    grid, e = DESK, fbmdelay.experiments
    rows = e._CHUNK_BYTES // (8 * grid.cell_count)
    prefix, full = (rows * 8 * cells * (1 + e._FIELD_FACTOR) for cells in (grid.origin_index, grid.cell_count))
    monkeypatch.setattr(fbmdelay.experiments, "_memory_available", lambda: (prefix + full) // 2)
    with pytest.raises(ValueError, match="lower --steps or --warmup"):
        _plan(grid)
    assert verify_dr_moments(H75, 1.0, 100, 12).pointwise.replications == 100
    monkeypatch.setattr(fbmdelay.experiments, "_memory_available", lambda: prefix - 1)
    with pytest.raises(ValueError, match="lower --steps or --warmup"):
        verify_dr_moments(H75, 1.0, 100, 12)


def test_every_driver_refuses_a_grid_without_history_above_one_half_before_any_draw(monkeypatch):
    """On a grid with no history, each driver at h = 0.75 raises naming --warmup: no kernel built, no row drawn."""
    grid, draws = make_grid(1.0, 256, 0.0), []
    monkeypatch.setattr(fbmdelay.experiments, "generate_noise_batch", lambda *args, **kwargs: draws.append(args))
    monkeypatch.setattr(fbmdelay.noise, "_build_kernel", None)  # a kernel build would raise TypeError
    for run in (lambda: verify_dr_moments(H75, 1.0, 100, 3, grid), lambda: fbm_law_check(H75, 100, 3, grid),
                lambda: shiryaev_identity_check(H75, [64, 256], 100, 3, grid),
                lambda: nonconvergence_demo([0.5, 0.75], 100, 3, grid),
                lambda: continuity_study("pp:bm:8", [0.75], 100, 3, grid),
                lambda: cauchy_decay_study("bm", H75, [3, 4, 5], 100, 3, grid)):
        with pytest.raises(ValueError, match=r"^--warmup 0\.0 leaves no history, which a run at h > 1/2 needs$"):
            run()
    assert draws == []


def test_verify_dr_moments_rejects_tiny_ensembles():
    with pytest.raises(ValueError):
        verify_dr_moments(H75, 1.0, 99, 12, SMALL)


@pytest.mark.parametrize("chunk, workers", [(7, 1), (50, 2)])
def test_verify_dr_moments_is_its_reference_on_full_rows(monkeypatch, chunk, workers):
    """Drawn up to the origin in chunks, verify_dr_moments is bit for bit dr_values on one batch of full rows;
    without a history, at h = 1/2, no cell is drawn."""
    monkeypatch.setattr(fbmdelay.experiments, "WORKERS", workers)
    reps, seed = 150, 8
    for grid, hp in ((SMALL, H75), (SMALL, hurst_constant(0.55)), (make_grid(1.0, 512, 0.0), H5)):
        monkeypatch.setattr(fbmdelay.experiments, "_CHUNK_BYTES", _chunk_bytes(chunk * workers, grid))
        drv = dr_values(generate_noise_batch(seed, grid, reps), grid, hp, grid.origin_index)
        _, quad_w = _energy_quadrature(grid, hp)
        rep = verify_dr_moments(hp, 1.0, reps, seed, grid)
        assert rep.pointwise == _mc(drv[:, -1] ** 2, seed, rep.pointwise.truncation_budget)
        assert rep.energy == _mc(np.sum(drv ** 2 * quad_w, axis=-1), seed, rep.energy.truncation_budget)


def test_verify_dr_moments_runs_on_the_config_horizon():
    """span must be the grid's horizon: a second horizon is refused, naming both."""
    short = make_grid(0.7, 512, 2.0)
    with pytest.raises(ValueError, match="span 1.0 .* horizon 0.7"):
        verify_dr_moments(H75, 1.0, 100, 1, short)
    rep = verify_dr_moments(H75, 0.7, 100, 1, short)
    assert rep.span == 0.7 and rep.pointwise_closed == dr_pointwise_closed_form(H75, 0.7)


@pytest.mark.parametrize("h", [0.5 + 1e-14, 0.5 + 1e-12, 0.5 + 1e-10, 0.5 + 1e-6, 0.5 + 1e-2, 0.75, 0.95])
def test_energy_quadrature_weights_keep_precision_as_h_nears_half(h):
    """On a 512-step grid every weight is within 1e-14 relative of 50-digit arithmetic.

    The weights are (t_k^q - t_(k-1)^q) / (q t_k^(q-1)), q = 2h - 1; the plain
    difference of powers lost 1.8 of the weight at h = 1/2 + 1e-14.
    """
    hp = hurst_constant(h)
    grid = SMALL
    eval_idx, weights = _energy_quadrature(grid, hp)
    assert eval_idx.tolist() == list(range(grid.origin_index + 1, grid.cell_count + 1))
    with mpmath.workdps(50):
        q, step = 2 * mpmath.mpf(hp.h) - 1, mpmath.mpf(grid.step)  # exact: 2h - 1 has no rounding
        for k, w in enumerate(weights.tolist(), start=1):
            want = ((k * step) ** q - ((k - 1) * step) ** q) / (q * (k * step) ** (q - 1))
            assert abs(w - want) <= 1e-14 * want, (k, w, want)


def test_replicate_sizes_chunks_from_the_grid(monkeypatch):
    """Near-equal chunks, a multiple of WORKERS of them, of at most _CHUNK_BYTES / WORKERS and
    _CHUNK_CAP_BYTES of noise, and never empty.

    32 rows at desk scale on 2 workers and on one (run inline), 2 at 2^16
    steps; 300 replications on 2 workers are ten chunks of 30, five full
    rounds, not nine of 32 and one of 12; every stream is drawn once.  At
    2^18 steps a row is more than _CHUNK_CAP_BYTES, so each chunk is one row,
    and two of them still fit in _CHUNK_BYTES and run on the pool.  At 2^24
    steps one row is more than _CHUNK_BYTES, so the chunks run one at a time
    on the calling thread.  Rows drawn only up to the origin are chunked as
    full rows, and every chunk is asked for those cells.  Nothing is allocated.
    """
    drawn = []

    def stub(seed, grid, reps, first_stream=0, cells=None):
        drawn.append((first_stream, reps, threading.get_ident(), cells))
        return np.empty((reps, 0))

    monkeypatch.setattr(fbmdelay.experiments, "generate_noise_batch", stub)
    for workers, grid, reps, want, inline in ((2, DESK, 512, [32] * 16, False),
                                              (1, DESK, 512, [32] * 16, True),
                                              (2, make_grid(1.0, 65536, 1e14), 40, [2] * 20, False),
                                              (2, DESK, 300, [30] * 10, False),
                                              (2, make_grid(1.0, 2 ** 18, 1e14), 8, [1] * 8, False),
                                              (2, DESK, 10, [5, 5], False),
                                              (3, DESK, 10, [3, 3, 4], False),
                                              (2, make_grid(1.0, 2 ** 24, 1e14), 2, [1, 1], True)):
        monkeypatch.setattr(fbmdelay.experiments, "WORKERS", workers)
        for cells in (None, grid.origin_index):
            drawn.clear()
            out, = _replicate(1, _plan(grid, cells=cells), reps, lambda incs: (np.zeros(len(incs)),))
            starts = np.cumsum([0] + want[:-1])
            assert sorted(d[:2] for d in drawn) == list(zip(starts, want)) and out.shape == (reps,)
            assert inline == all(d[2] == threading.get_ident() for d in drawn)
            assert all(d[3] == cells for d in drawn)


@pytest.mark.parametrize("budget_rows, chunk_rows", [(6, 2), (2, 1)])
def test_replicate_keeps_at_most_the_budget_alive(monkeypatch, budget_rows, chunk_rows):
    """From its draw to its return no more than _CHUNK_BYTES of noise exists, and that much does at once.

    On 3 workers a budget of 6 rows runs 3 chunks of 2 rows together; a
    budget of 2 rows runs chunks of 1 row on 2 threads only.  Every chunk
    waits at a barrier of as many parties as the budget allows chunks, which
    only that many chunks alive together can pass.  The rows come back in
    stream order, and a single chunk runs on the calling thread.
    """
    workers, grid = 3, SMALL
    monkeypatch.setattr(fbmdelay.experiments, "WORKERS", workers)
    monkeypatch.setattr(fbmdelay.experiments, "_CHUNK_BYTES", _chunk_bytes(budget_rows))
    lock, alive, peak = threading.Lock(), [0], [0]
    barrier = threading.Barrier(budget_rows // chunk_rows, timeout=30)
    real_draw = fbmdelay.experiments.generate_noise_batch

    def draw(seed, grid, reps, first_stream=0, cells=None):
        with lock:
            alive[0] += reps
            peak[0] = max(peak[0], alive[0])
        return real_draw(seed, grid, reps, first_stream=first_stream, cells=cells)

    def per_chunk(incs):
        assert len(incs) == chunk_rows
        barrier.wait()
        with lock:
            alive[0] -= len(incs)
        return (incs[:, :3],)

    monkeypatch.setattr(fbmdelay.experiments, "generate_noise_batch", draw)
    rows, = _replicate(3, _plan(grid), 36, per_chunk)  # 36 / chunk_rows chunks, several rounds of the barrier
    assert peak[0] == budget_rows and alive[0] == 0
    assert rows.tobytes() == real_draw(3, grid, 36)[:, :3].tobytes()
    caller, = _replicate(3, _plan(grid), 1, lambda incs: (np.array([threading.get_ident()]),))
    assert caller[0] == threading.get_ident()


def test_replicate_passes_a_chunk_exception_to_the_caller(monkeypatch):
    """A chunk that raises stops the run: the caller gets its exception, and unstarted chunks never run."""
    monkeypatch.setattr(fbmdelay.experiments, "WORKERS", 2)
    monkeypatch.setattr(fbmdelay.experiments, "_CHUNK_BYTES", _chunk_bytes(2 * 2))  # 2 rows a chunk
    started, stream_0 = [], reference_draw(3, SMALL, 0)

    def per_chunk(incs):
        started.append(np.array_equal(incs[0], stream_0))  # whether the chunk starts at stream 0
        if started[-1]:
            raise RuntimeError("chunk at stream 0 failed")
        time.sleep(0.02)
        return (incs[:, 0],)

    with pytest.raises(RuntimeError, match="chunk at stream 0 failed"):
        _replicate(3, _plan(SMALL), 40, per_chunk)  # 20 chunks
    assert True in started and len(started) < 20


def test_fbm_law_check_small_scale():
    (var_res, var_closed), (cov_res, cov_closed) = fbm_law_check(H75, 500, 3, SMALL)
    assert var_closed == 1.0
    assert cov_closed == 0.5
    assert abs(var_res.estimate - var_closed) <= 3 * var_res.std_error + var_res.truncation_budget
    assert abs(cov_res.estimate - cov_closed) <= 3 * cov_res.std_error + cov_res.truncation_budget


def test_a_law_op_builds_two_weight_vectors_and_its_budgets_are_the_exact_discrete_values(monkeypatch):
    """One fbm_law_check call builds the two weight vectors its estimates read, and no more; its budgets,
    and those of verify_dr_moments, are the fresh discrete_fbm_cov and discrete_dr_energy values bit for bit."""
    calls = Counter()
    real = fbmdelay.experiments.fbm_weight_vector

    def counted(*args, **kwargs):
        calls["fbm_weight_vector"] += 1
        return real(*args, **kwargs)
    for module in (fbmdelay.experiments, fbmdelay.noise):  # the noise one is what discrete_fbm_cov calls
        monkeypatch.setattr(module, "fbm_weight_vector", counted)
    (var_res, _), (cov_res, _) = fbm_law_check(H75, 100, 3, SMALL)
    assert calls == {"fbm_weight_vector": 2}
    monkeypatch.undo()
    assert var_res.truncation_budget == abs(1.0 - discrete_fbm_cov(SMALL, H75, 1.0, 1.0))
    assert cov_res.truncation_budget == abs(0.5 - discrete_fbm_cov(SMALL, H75, 1.0, 0.5))
    m0 = SMALL.origin_index
    eval_idx, quad_w = _energy_quadrature(SMALL, H75)
    report = verify_dr_moments(H75, 1.0, 100, 3, SMALL)
    assert report.pointwise.truncation_budget == abs(
        dr_pointwise_closed_form(H75, 1.0) - discrete_dr_energy(SMALL, H75, m0, eval_idx[-1:], [1.0]))
    assert report.energy.truncation_budget == abs(
        dr_energy_closed_form(H75, 1.0) - discrete_dr_energy(SMALL, H75, m0, eval_idx, quad_w))


def test_shiryaev_defect_decreases_and_validates():
    rows = shiryaev_identity_check(H75, [64, 128, 256], 400, 5, SMALL)
    defects = [r.estimate for _, r in rows]
    assert defects[0] > defects[1] > defects[2] > 0
    with pytest.raises(ValueError):
        shiryaev_identity_check(H5, [64], 100, 5, SMALL)
    with pytest.raises(ValueError):
        shiryaev_identity_check(H75, [100], 100, 5, SMALL)  # does not divide the grid


def test_nonconvergence_rows_and_crn():
    rows = nonconvergence_demo([0.51, 0.75], 400, 9, grid=SMALL)
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
    curve = continuity_study("det:const:1.0", [0.7, 0.55, 0.51], 300, 2024, grid=SMALL)
    assert curve.hurst_values == (0.7, 0.55, 0.51)
    assert decreasing_within_1se(curve)
    assert curve.final_gap < curve.gaps[0]
    assert curve.x_norm_ref == pytest.approx(1.0, rel=1e-6)


def test_continuity_accepts_instances_and_piecewise():
    frozen = PiecewisePredictableIntegrand(BrownianIntegrand(), SegmentGrid.uniform(1.0, 8))
    curve = continuity_study(frozen, [0.6, 0.51], 200, 7, grid=SMALL)
    assert curve.integrand_spec == "pp:bm:8"
    assert curve.gaps[1] < curve.gaps[0]


def test_continuity_reference_norm_is_summed_once_per_spec_and_grid(monkeypatch):
    """A second study of one spec on one grid makes no second_moment call, and its x_norm_ref keeps its bytes."""
    calls = Counter()
    second_moment = PiecewisePredictableIntegrand.second_moment

    def counted(self, t):
        calls[self.spec_string()] += 1
        return second_moment(self, t)

    monkeypatch.setattr(PiecewisePredictableIntegrand, "second_moment", counted)
    fbmdelay.experiments._closed_x_norm.cache_clear()
    first = continuity_study("pp:bm:8", [0.6, 0.51], 20, 7, grid=SMALL)
    assert calls["pp:bm:8"] == SMALL.main_steps + 1  # one per cell, and one to see that a closed form exists
    again = continuity_study("pp:bm:8", [0.6, 0.51], 20, 8, grid=SMALL)
    assert calls["pp:bm:8"] == SMALL.main_steps + 1
    frozen = PiecewisePredictableIntegrand(BrownianIntegrand(), SegmentGrid.uniform(1.0, 8))
    assert again.x_norm_ref == first.x_norm_ref == closed_form_x_norm(frozen, SMALL)


class _NoSecondMoment(BrownianIntegrand):
    """bm with no closed-form E gamma(t)^2, as an integrand written outside the package may have."""

    def second_moment(self, t):
        return None

    def spec_string(self):
        return "nomoment"


def test_continuity_refuses_an_integrand_without_a_closed_form_norm_before_any_draw(monkeypatch):
    """A step integrand whose inner one has no second moment has no ||gamma||_X: one line, no kernel, no draw."""
    draws = []
    monkeypatch.setattr(fbmdelay.experiments, "generate_noise_batch", lambda *args, **kwargs: draws.append(args))
    monkeypatch.setattr(fbmdelay.noise, "_build_kernel", None)  # a kernel build would raise TypeError
    gamma = PiecewisePredictableIntegrand(_NoSecondMoment(), SegmentGrid.uniform(1.0, 8))
    with pytest.raises(ValueError, match=r"^integrand 'pp:nomoment:8' has no closed-form \|\|gamma\|\|_X for the "
                                         r"study to report$"):
        continuity_study(gamma, [0.75, 0.6], 100, 3, SMALL)
    assert draws == []


def test_y_norm_refuses_an_integrand_without_a_closed_form_norm():
    """The Y norm's X part is closed_form_x_norm: an integrand without one is refused in one line, as by continuity."""
    gamma = PiecewisePredictableIntegrand(_NoSecondMoment(), SegmentGrid.uniform(1.0, 8))
    with pytest.raises(ValueError, match=r"^integrand 'pp:nomoment:8' has no closed-form \|\|gamma\|\|_X for the Y "
                                         r"norm$"):
        y_norm(gamma, 0.0, 0.25, SMALL)


def test_continuity_rejects_nu_zero_non_predictable():
    for gamma in (BrownianIntegrand(), QuadraticBrownianIntegrand()):
        with pytest.raises(ContinuityNotApplicableError, match="not applicable"):
            continuity_study(gamma, [0.6, 0.51], 100, 7, grid=SMALL)
    with pytest.raises(ValueError, match="baseline"):
        continuity_study("det:const:1.0", [0.6, 0.5], 100, 7, grid=SMALL)


def test_decay_study_runs_and_reports_both_slopes():
    study = cauchy_decay_study("bm", H75, range(3, 7), 100, 77, grid=SMALL)
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
        "from fbmdelay.experiments import cauchy_decay_study, continuity_study\n"
        "from fbmdelay.kernels import hurst_constant\n"
        "from fbmdelay.noise import make_grid\n"
        "import fbmdelay.experiments\n"
        "grid = make_grid(1.0, 4096, 1.0)\n"
        "fbmdelay.experiments._CHUNK_BYTES = 25 * 8 * grid.cell_count\n"
        "assert fbmdelay.experiments._CHUNK_BYTES <= fbmdelay.experiments._CHUNK_CAP_BYTES\n"
        "print(repr(cauchy_decay_study('fbm:0.75', hurst_constant(0.6), range(3, 6), 40, 3, grid=grid)))\n"
        "print(repr(continuity_study('fbm:0.75', [0.75, 0.51], 40, 3, grid=grid, proj_level=4)))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] and outs[0].count("\n") == 2


def _chunk_bytes(rows, grid=SMALL):
    """The _CHUNK_BYTES that makes _replicate draw chunks of rows replications on grid, at WORKERS = 1.

    rows must be within _CHUNK_CAP_BYTES, which would otherwise shrink the chunks unseen.
    """
    assert rows * 8 * grid.cell_count <= fbmdelay.experiments._CHUNK_CAP_BYTES, (rows, grid)
    return rows * 8 * grid.cell_count


def _every_driver(chunk, reps, workers=1):
    """Every driver's result, in chunks of at most chunk rows run on workers threads."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fbmdelay.experiments, "WORKERS", workers)
        mp.setattr(fbmdelay.experiments, "_CHUNK_BYTES", _chunk_bytes(chunk * workers))
        return (verify_dr_moments(H75, 1.0, reps, 3, SMALL),
                fbm_law_check(H75, reps, 3, SMALL),
                shiryaev_identity_check(H75, [64, 512], reps, 3, SMALL),
                nonconvergence_demo([0.75, 0.51], reps, 3, grid=SMALL),
                continuity_study("fbm:0.75", [0.7, 0.51], reps, 3, grid=SMALL),
                cauchy_decay_study("fbm:0.75", hurst_constant(0.6), range(3, 6), reps, 3, grid=SMALL))


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


DESK_REPS = 512  # the benchmark's replications per op

# the benchmark's Monte Carlo op shapes at desk scale (perfbench/workloads.py)
DESK_OPS = {
    **{f"continuity {spec}": functools.partial(continuity_study, spec, (0.7, 0.6, 0.55, 0.51), DESK_REPS, 21)
       for spec in ("det:const:1.0", "fbm:0.75", "pp:bm:8")},
    "decay bm h=0.75": functools.partial(cauchy_decay_study, "bm", H75, range(4, 11), DESK_REPS, 22),
    "decay fbm:0.75 h=0.6": functools.partial(cauchy_decay_study, "fbm:0.75", hurst_constant(0.6), range(4, 11),
                                              DESK_REPS, 22),
    **{f"dr_moments h={h}": functools.partial(verify_dr_moments, hurst_constant(h), 1.0, DESK_REPS, 23)
       for h in (0.55, 0.75, 0.9)},
    "fbm_law h=0.75": functools.partial(fbm_law_check, H75, DESK_REPS, 24),
}


def _desk_chunks(rows, workers):
    """Every desk op's result (repr) with chunks of rows replications on workers threads."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fbmdelay.experiments, "WORKERS", workers)
        mp.setattr(fbmdelay.experiments, "_CHUNK_CAP_BYTES", rows * 8 * DESK.cell_count)
        return {name: repr(op()) for name, op in DESK_OPS.items()}


def test_desk_ops_are_identical_for_32_and_64_row_chunks_and_1_or_2_workers():
    """The benchmark's op shapes give the same bytes at 32- and 64-row desk chunks, on 1 or 2 threads."""
    want = _desk_chunks(64, 2)  # the chunks of 2 CPUs before chunks were capped at 32 rows
    for rows, workers in ((64, 1), (32, 1), (32, 2)):
        got = _desk_chunks(rows, workers)
        assert [name for name in want if got[name] != want[name]] == [], (rows, workers)


def _desk_continuity(spec, reps, seed, rows, workers):
    """repr of a desk continuity_study at one h, in chunks of at most rows replications on workers threads."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fbmdelay.experiments, "WORKERS", workers)
        mp.setattr(fbmdelay.experiments, "_CHUNK_CAP_BYTES", rows * 8 * DESK.cell_count)
        return repr(continuity_study(spec, (0.6,), reps, seed))


@pytest.mark.parametrize("spec", ["det:const:1.0", "fbm:0.75"])
def test_desk_continuity_at_one_h_is_identical_for_any_chunk_and_cpu_count(spec):
    """With one kernel, every sum over a desk row is longer than one einsum buffer: 12 replications in chunks
    of 12, 6 and 1 give the same bytes, and so do 112 on one thread (one chunk) and on two (two of 56)."""
    assert len({_desk_continuity(spec, 12, 5, rows, 1) for rows in (12, 6, 1)}) == 1
    assert _desk_continuity(spec, 112, 4, 128, 1) == _desk_continuity(spec, 112, 4, 128, 2)


@pytest.mark.parametrize("name, op, reps", [
    ("decay", functools.partial(cauchy_decay_study, "fbm:0.75", hurst_constant(0.6), range(4, 11)), 64),
    ("continuity", functools.partial(continuity_study, "fbm:0.75", (0.7, 0.6, 0.55, 0.51)), 64),
    ("dr_moments", functools.partial(verify_dr_moments, hurst_constant(0.55), 1.0), 128),
])
def test_a_desk_chunk_allocates_at_most_three_times_its_noise(monkeypatch, name, op, reps):
    """From its draw to its return, a default desk chunk's traced peak beyond its noise is at most 3x the noise.

    Each chunk runs inline (WORKERS = 1), so its peak is read from its draw to
    the next draw, or to the end of the run.  A first run fills the caches.
    At 32 rows the factors are 2.4 (decay), 1.9 (continuity, 4 h) and 2.7
    (DR_H moments, which draw only up to the origin).
    """
    monkeypatch.setattr(fbmdelay.experiments, "WORKERS", 1)
    real_draw, marks = fbmdelay.experiments.generate_noise_batch, []

    def draw(*args, **kwargs):
        current, peak = tracemalloc.get_traced_memory()
        if marks:
            marks[-1][1] = peak
        tracemalloc.reset_peak()
        incs = real_draw(*args, **kwargs)
        marks.append([current, None, incs.nbytes, len(incs)])
        return incs

    monkeypatch.setattr(fbmdelay.experiments, "generate_noise_batch", draw)
    op(reps, 3)
    marks.clear()
    tracemalloc.start()
    try:
        op(reps, 3)
        marks[-1][1] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [rows for *_, rows in marks] == [32] * (reps // 32)
    factors = [(peak - current - noise) / noise for current, peak, noise, _ in marks]
    assert max(factors) <= 3.0, (name, factors)


@pytest.mark.parametrize("spec, h", [("bm", 0.75), ("fbm:0.75", 0.6)])
def test_a_desk_decay_chunk_holds_no_difference_field(monkeypatch, spec, h):
    """One 32-row desk decay chunk peaks at 4.5 fields of its main window or less, beyond its noise.

    The study reads each gap from row sums against d_tail, d_main and the
    pair's ito field, so it forms neither d_bh - d_tail nor a cross field
    per pair: its traced peak reads 3.8 fields, where one more full-size
    difference field read 5.1.  A first call fills the caches.
    """
    grid, peaks = DESK, []

    def one_chunk(seed, plan, reps, per_chunk):
        incs = generate_noise_batch(seed, plan.grid, 32)
        per_chunk(incs)
        tracemalloc.start()
        try:
            current = tracemalloc.get_traced_memory()[0]
            result = per_chunk(incs)
            peaks.append(tracemalloc.get_traced_memory()[1] - current)
        finally:
            tracemalloc.stop()
        return result

    monkeypatch.setattr(fbmdelay.experiments, "_replicate", one_chunk)
    cauchy_decay_study(spec, hurst_constant(h), range(4, 11), 32, 3)
    assert len(peaks) == 1 and peaks[0] <= 4.5 * 8 * 32 * grid.main_steps, peaks[0] / (8 * 32 * grid.main_steps)


def test_common_random_numbers_across_hurst_lists():
    """h = 0.51 gives bit-identical results alone and after another h in the list."""
    alone = continuity_study("fbm:0.75", [0.51], 150, 5, grid=SMALL)
    inside = continuity_study("fbm:0.75", [0.75, 0.51], 150, 5, grid=SMALL)
    assert (alone.gaps[0], alone.std_errors[0], alone.noise_checksum) == \
        (inside.gaps[1], inside.std_errors[1], inside.noise_checksum)
    assert nonconvergence_demo([0.51], 150, 5, grid=SMALL)[0] == \
        nonconvergence_demo([0.75, 0.51], 150, 5, grid=SMALL)[1]


CRN_POOL = (0.5, 0.51, 0.55, 0.6, 0.75, 0.9)


@functools.cache
def _alone(h):
    """(continuity gap, se, checksum) and the nonconv row of h, each from a list of h alone."""
    curve = None if h == 0.5 else continuity_study("pp:bm:8", [h], 40, 5, grid=SMALL)
    cont = None if curve is None else (curve.gaps[0], curve.std_errors[0], curve.noise_checksum)
    return cont, nonconvergence_demo([h], 40, 5, grid=SMALL)[0]


@given(hursts=st.lists(st.sampled_from(CRN_POOL), min_size=1, max_size=5, unique=True))
@settings(max_examples=25, deadline=None)
def test_every_hurst_value_sees_the_same_noise_in_any_list(hursts):
    """Each h's results are bit-identical alone and inside any list and order of h."""
    rough = [h for h in hursts if h != 0.5]
    if rough:
        curve = continuity_study("pp:bm:8", rough, 40, 5, grid=SMALL)
        for h, gap, se in zip(rough, curve.gaps, curve.std_errors):
            assert (gap, se, curve.noise_checksum) == _alone(h)[0]
    for h, row in zip(hursts, nonconvergence_demo(hursts, 40, 5, grid=SMALL)):
        assert row == _alone(h)[1]


@pytest.mark.parametrize("spec", ["det:const:1.0", "pp:bm:8", "fbm:0.75"])
def test_continuity_transforms_each_noise_window_once_for_every_h(monkeypatch, spec):
    """Three chunks on three threads, 1 or 4 h: a step integrand's values need no transform, any other's one a row.

    The values are inner products with the B_H path (noise.past_dot).
    det:const:1.0 and pp:bm:8 have 2 and 8 nonzero weights a row, which
    past_dot takes directly: no forward transform of a noise row or of its
    weights, and no inverse.  fbm:0.75, projected on 256 segments, has a
    nonzero weight at nearly every breakpoint: past_dot transforms each
    row's one window (from the far cells to the end of the main window)
    and its weights forward once, and inverts nothing.  The only other
    transforms are a kernel spectrum, cached per h list and window, and
    the integrand's own path (FbmIntegrand.values_on_cells through
    past_conv), one forward and one inverse a row.  No h makes a segment
    block convolution.
    """
    grid = SMALL
    monkeypatch.setattr(fbmdelay.experiments, "WORKERS", 3)
    inverse = []
    ffts = spy_noise_ffts(monkeypatch, inverse)
    calls = spy_convolutions(monkeypatch)
    reps = 6  # chunks of 2
    window = grid.origin_index - grid.far_cells + grid.main_steps  # the near warmup and the main window, in one
    weights = grid.main_steps + 1  # one per main lattice point
    for hursts in ([0.6], [0.7, 0.6, 0.55, 0.51]):
        ffts.clear()
        inverse.clear()
        continuity_study(spec, hursts, reps, 5, grid=SMALL)
        if spec != "fbm:0.75":
            assert ffts == [] and inverse == []
            continue
        assert sum(rows for rows, width, _ in ffts if width == window) == reps
        assert sum(rows for rows, width, _ in ffts if width == weights) == reps
        path = [rows for rows, width, n in ffts if width not in (window, weights) and (rows, width) != (len(hursts), n)]
        assert sum(path) == sum(rows for rows, _ in inverse) == reps
    assert calls["integrator.block_conv"] == []


@pytest.mark.parametrize("spec,h", [("bm", 0.75), ("fbm:0.75", 0.6), ("rl:0.7", 0.7), ("bm2", 0.6),
                                    ("bm", 0.5), ("fbm:0.75", 0.5)])
def test_decay_study_equals_per_level_reference(monkeypatch, spec, h):
    """Per replication, every gap is within 1e-12 of the summed |terms| of one projection and one assembly per level.

    The study reads each gap as one inner product with the level step, so it
    rounds differently from the difference of two assemblies; the bound is
    declared, not fitted (the largest ratio seen is below 1e-15).
    """
    monkeypatch.setattr(fbmdelay.experiments, "WORKERS", 1)
    monkeypatch.setattr(fbmdelay.experiments, "_CHUNK_BYTES", _chunk_bytes(128))
    runs = []
    monkeypatch.setattr(fbmdelay.experiments, "_replicate", lambda *args: runs.append(_replicate(*args)) or runs[-1])
    hp, levels, reps = hurst_constant(h), [3, 4, 5], 150  # two chunks of 75
    study = cauchy_decay_study(spec, hp, levels, reps, 9, grid=SMALL)
    (gaps,) = runs
    gamma = parse_integrand(spec)
    ref = _replicate(9, _plan(SMALL), reps, lambda incs: decay_gaps_per_level(gamma, hp, levels, SMALL, incs))
    assert len(ref) == 2 * len(gaps)
    for got, want, scale in zip(gaps, ref, ref[len(gaps):]):
        assert got.shape == (reps,)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
    tot = [_mc(g, 9, 0.0) for g in gaps[::2]]
    cross = [_mc(g, 9, 0.0) for g in gaps[1::2]]
    assert study.gaps == tuple(r.estimate for r in tot)
    assert study.std_errors == tuple(r.std_error for r in tot)
    assert study.cross_gaps == tuple(r.estimate for r in cross)
    assert study.cross_std_errors == tuple(r.std_error for r in cross)


def test_decay_study_shares_the_path_and_the_cross_convolutions(monkeypatch):
    """Per chunk: no path, one pair of history fields; per level pair, one cross product and one block convolution.

    A pair's level step is one noise.blockwise_conv of every level-m
    segment, its first half onto its second.  Its Ito field is one block
    convolution of the second halves only.  No level has cells, forecasts
    or an assembly of its own.  The two chunks run on two threads, so the
    calls are counted, not ordered.
    """
    grid = SMALL
    m0, n = grid.origin_index, grid.cell_count
    monkeypatch.setattr(fbmdelay.experiments, "WORKERS", 2)
    calls = spy_convolutions(monkeypatch)
    fields, assemblies, products = [], [], []
    real_fields = fbmdelay.experiments.noise_transforms
    monkeypatch.setattr(fbmdelay.experiments, "noise_transforms",
                        lambda *args: fields.append(args[3]) or real_fields(*args))
    monkeypatch.setattr(fbmdelay.experiments, "delayed_parts_for_cells", lambda *args: assemblies.append(args))
    real_product = fbmdelay.integrands.blockwise_conv
    monkeypatch.setattr(fbmdelay.integrands, "blockwise_conv",
                        lambda blocks, *args: products.append(blocks.shape[-2:]) or real_product(blocks, *args))
    cauchy_decay_study("fbm:0.75", hurst_constant(0.6), range(3, 6), 150, 5, grid=SMALL)
    chunks = 2  # 75 + 75 replications

    def count(key, entry=lambda c: c):
        return Counter(entry(c) for c in calls[key])

    assert fields == [n] * chunks and assemblies == []
    assert count("integrands.past_conv") == {}
    assert count("integrands.block_conv") == {}
    assert count("integrands.history_conv") == {}
    halves = [SMALL.main_steps >> (m + 1) for m in (3, 4)]
    assert Counter(products) == {(2 ** m, 2 * h): chunks for m, h in zip((3, 4), halves)}
    assert count("integrator.history_conv") == {((m0, n), (m0, n + 1)): chunks}
    assert count("integrator.past_conv") == {(m0, (m0, n + 1)): chunks}
    assert count("integrator.block_conv", len) == {2 ** m + 1: chunks for m in (3, 4)}
    assert count("integrator.block_conv", lambda c: c[1]) == {h: chunks for h in halves}


def test_decay_study_deterministic_integrand_skips_fit():
    study = cauchy_decay_study("det:poly:0.0,1.0", H75, range(3, 6), 50, 77, grid=SMALL)
    assert study.fitted_slope is None
    assert all(g == 0.0 for g in study.gaps)


def test_decay_study_validates_levels(monkeypatch):
    with pytest.raises(ValueError):
        cauchy_decay_study("bm", H75, [3, 5], 50, 77, grid=SMALL)
    with pytest.raises(ValueError):
        cauchy_decay_study("bm2", H75, [3], 50, 77, grid=SMALL)

    def no_draw(*args, **kwargs):
        raise AssertionError("noise drawn for a level list the grid cannot carry")
    monkeypatch.setattr(fbmdelay.experiments, "generate_noise_batch", no_draw)
    for levels in (range(8, 11), range(7, 10)):  # 2^10 segments do not align; 2^9 get 1 cell each
        with pytest.raises(ValueError, match="split 512 steps .* lower --levels or raise --steps"):
            cauchy_decay_study("fbm:0.75", H75, levels, 50, 7, grid=SMALL)


# ---------------------------------------------------------------------------
# integrand spec strings
# ---------------------------------------------------------------------------

KNOWN_SPECS = [
    ("det:const:1.0", DeterministicIntegrand),
    ("det:poly:0.0,1.0,2.0", DeterministicIntegrand),
    ("bm", BrownianIntegrand),
    ("fbm:0.75", FbmIntegrand),
    ("rl:0.7", RlFbmIntegrand),
    ("rl:0.7:0.25", RlFbmIntegrand),
    ("bm2", QuadraticBrownianIntegrand),
    ("pp:bm:8", PiecewisePredictableIntegrand),
    ("pp:fbm:0.6:4", PiecewisePredictableIntegrand),
]


@pytest.mark.parametrize("spec,cls", KNOWN_SPECS)
def test_parse_integrand_accepts_known_specs(spec, cls):
    gamma = parse_integrand(spec)
    assert isinstance(gamma, cls)


@pytest.mark.parametrize("spec", ["", "gauss", "fbm", "fbm:abc", "det:exp:1", "pp:bm", "fbm:0.3"])
def test_parse_integrand_rejects_unknown_specs(spec):
    with pytest.raises(ValueError, match="integrand spec") as info:
        parse_integrand(spec)
    # the message names every accepted family: det:const and det:poly, and the head of each other spec
    families = {":".join(s.split(":")[:2 if s.startswith("det:") else 1]) for s, _ in KNOWN_SPECS}
    for family in families:
        assert re.search(rf"(?<![\w:]){family}(?!\w)", str(info.value)), family


def _written(numbers):
    """A number as a spec may write it: its repr, %g or %.17e."""
    return numbers.flatmap(lambda x: st.sampled_from([repr(x), f"{x:g}", f"{x:.17e}"]))


_HURST = _written(st.one_of(st.just(0.5), st.floats(0.5, 1.0, exclude_max=True)))
_COEFF = _written(st.floats(-4.0, 4.0))
_ACCEPTED_SPECS = st.recursive(
    st.one_of(st.builds("det:const:{}".format, _COEFF),
              st.lists(_COEFF, min_size=1, max_size=3).map(lambda cs: "det:poly:" + ",".join(cs)),
              st.sampled_from(["bm", "bm2"]), st.builds("fbm:{}".format, _HURST), st.builds("rl:{}".format, _HURST),
              # an rl start on the lattice of _SPEC_GRID, whose cells then have values
              st.builds("rl:{}:{!r}".format, _HURST, st.integers(-64, 63).map(lambda k: k / 64))),
    lambda inner: st.builds("pp:{}:{}".format, inner, st.sampled_from([1, 2, 4, 32])), max_leaves=3)
_SPEC_GRID = make_grid(1.0, 64, 1.0)
_SPEC_INCS = generate_noise_batch(2, _SPEC_GRID, 2)


@given(spec=_ACCEPTED_SPECS)
@settings(max_examples=80, deadline=None)
def test_a_printed_spec_parses_back_to_the_same_integrand(spec):
    """The spec an integrand prints parses to one of its type that prints the same spec and takes byte-identical
    values_on_cells, pp: nested included; an rl integrand at h = 1/2 keeps its name and its start."""
    gamma = parse_integrand(spec)
    again = parse_integrand(gamma.spec_string())
    assert type(again) is type(gamma) and again.spec_string() == gamma.spec_string()
    want = gamma.values_on_cells(_SPEC_GRID, _SPEC_INCS)
    assert again.values_on_cells(_SPEC_GRID, _SPEC_INCS).tobytes() == want.tobytes()


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
    curve = continuity_study("det:const:1.0", [0.7, 0.51], 120, 2, grid=SMALL)
    write_continuity_csv(tmp_path / "c.csv", curve)
    assert (tmp_path / "c.csv").read_text().splitlines()[0] == "h,gap,se"

    study = cauchy_decay_study("bm", H75, range(3, 6), 60, 7, grid=SMALL)
    write_decay_csv(tmp_path / "d.csv", study)
    assert (tmp_path / "d.csv").read_text().splitlines()[0] == \
        "level,gap,se,fitted_slope,cross_gap,cross_se,cross_fitted_slope"

    rows = nonconvergence_demo([0.6], 120, 3, grid=SMALL)
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
