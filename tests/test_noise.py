"""Noise generation contracts and the moving-average synthesis identities."""

import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import fft

import fbmdelay.experiments
import fbmdelay.integrator
import fbmdelay.noise
from fbmdelay.cli import parse_and_dispatch
from fbmdelay.integrands import FbmIntegrand
from fbmdelay.kernels import hurst_constant
from fbmdelay.noise import (
    SimulationGrid,
    avg_kernel_table,
    block_conv,
    blockwise_conv,
    discrete_dr_energy,
    discrete_fbm_cov,
    dr_energy_closed_form,
    dr_kernel_table,
    dr_pointwise_closed_form,
    dr_values,
    fbm_values,
    generate_noise_batch,
    history_conv,
    history_kernel,
    make_grid,
    past_conv,
    past_dot,
    process_values,
    r_values,
    row_dot,
    w_values,
)
from oracles import (cell_widths, grid_edges, path_csv_string, reference_draw, reference_write_path_csv, spy_noise_ffts,
                     synthesize_dr, synthesize_w, toeplitz_block_product, toeplitz_half_product)

KINDS = ("B", "B_H", "W_H", "R_H", "DR_H")

H75 = hurst_constant(0.75)
H5 = hurst_constant(0.5)
NOISE_SEED = 20240517


@pytest.fixture(scope="module")
def grid():
    return make_grid(1.0, 512, warmup=4.0)


@pytest.fixture(scope="module")
def noise(grid):
    return generate_noise_batch(NOISE_SEED, grid, 1)


@pytest.fixture(scope="module")
def incs(noise):
    """The single path of the batch of one."""
    return noise[0]


# ---------------------------------------------------------------------------
# grids and generation
# ---------------------------------------------------------------------------

def test_grid_construction_and_indexing(grid):
    """Warmup 4 on [0, 1]: cells of one step back to -1/8 (the near window), then 58 widening by 17/16 to -4.21."""
    assert grid.origin == 0.0
    assert grid.far_cells == 58 and grid.uniform_start == -0.125
    assert grid.warmup_start == -(17 / 16) ** 58 / 8 and grid.warmup_start <= -4.0
    assert grid.cell_count == 512 + 64 + 58
    assert grid.origin_index == 58 + 64
    assert grid.index_of(0.0) == grid.origin_index
    assert grid.index_of(1.0) == grid.cell_count
    assert grid.index_of(-0.125) == grid.far_cells
    widths = cell_widths(grid)
    np.testing.assert_allclose(widths[:57] / widths[1:58], 17 / 16, rtol=1e-13)  # oldest cell widest
    assert widths[57] == pytest.approx(0.125 / 16, rel=1e-13) and np.all(widths[58:] == grid.step)
    assert np.sum(widths) == pytest.approx(1.0 - grid.warmup_start, rel=1e-14)
    assert np.array_equal(np.diff(grid_edges(grid)), widths)
    for t in (0.12345, grid.warmup_start, -3.0):  # off-lattice, or a time of the far cells
        with pytest.raises(ValueError):
            grid.index_of(t)
    uniform = make_grid(1.0, 512, warmup=0.125)  # a warmup within the near window has no far cells
    assert uniform.far_cells == 0 and uniform.warmup_start == -0.125 and uniform.cell_count == 512 + 64


def test_index_of_takes_an_array_as_the_scalar_loop(grid):
    """An array of times gives the indices of one call per time, rounded alike; one bad time refuses all."""
    step = grid.step
    times = np.concatenate([grid_edges(grid)[grid.far_cells::97],
                            [0.0, 1.0, 0.25 + 1e-9 * step, -0.125 + 0.4e-6 * step]])
    got = grid.index_of(times)
    assert got.dtype.kind == "i" and got.tolist() == [grid.index_of(float(t)) for t in times]
    assert type(grid.index_of(0.25)) is int
    for bad in (0.12345, 1.0 + step, -4.0 - step, 0.5 + 0.01 * step):
        with pytest.raises(ValueError, match=f"t={bad!r} is not on the simulation lattice"):
            grid.index_of(bad)
        with pytest.raises(ValueError, match=f"t={bad!r} is not on the simulation lattice"):
            grid.index_of(np.array([0.0, bad, 0.12345, 1.0]))


def test_grid_validation():
    """A grid is its counts: what can still be written wrong is refused, one ValueError each."""
    for args, fragment in (((1.0, 8, -1), "counts >= 0"), ((1.0, 8, 4, -1), "counts >= 0"),
                           ((1.0, 8.5), "whole counts"), ((1.0, 8, 2.5), "whole counts"),
                           ((1.0, 8, 4, 1.0), "whole counts"),
                           ((1.0, 8, 0, 3), "near cells before any far cells"),
                           ((math.nan, 8), "finite horizon > 0"), ((math.inf, 8), "finite horizon > 0"),
                           ((0.0, 8), "finite horizon > 0"), ((-1.0, 8), "finite horizon > 0"),
                           ((1.0, 0), "steps >= 1"), ((1.0, -4), "steps >= 1"),
                           ((1e-320, 4096), "underflows to a step of 0")):
        with pytest.raises(ValueError, match=fragment):
            SimulationGrid(*args)


@example(horizon=1.0, steps=8, warmup=100.0)  # 76 far cells
@example(horizon=1.0, steps=512, warmup=0.0)
@example(horizon=1.0, steps=4096, warmup=1e14)  # the desk grid
@example(horizon=1.0, steps=256, warmup=1e300)
@settings(max_examples=200, deadline=None)
@given(horizon=st.floats(1e-3, 1e3), steps=st.integers(1, 2048),
       warmup=st.one_of(st.just(0.0), st.floats(1e-3, 1e14)))
def test_make_grid_gives_a_grid_of_its_counts(horizon, steps, warmup):
    """make_grid's counts cover the reach, every time they derive agrees, and they alone give the grid back."""
    g = make_grid(horizon, steps, warmup)
    edges = grid_edges(g)
    assert edges[g.origin_index] == 0.0 and g.index_of(0.0) == g.origin_index
    assert g.warmup_start <= -warmup * (1 - 1e-12)
    # numpy's power and Python's differ in the last bit on some grids
    assert edges[0] == pytest.approx(g.warmup_start, rel=1e-15, abs=0.0)
    assert np.all(np.diff(edges) > 0.0) and edges.size == g.cell_count + 1
    assert SimulationGrid(g.horizon, g.main_steps, g.near_cells, g.far_cells) == g


@pytest.mark.parametrize("horizon,warmup,fragment", [
    (1.0, 1.7e308, "overflows the lattice"),  # warmup / step overflows
    (4096.0, 1.75e308, "overflows the lattice"),  # the far cells' reach overflows
    (1e-320, 1e14, "underflows to a step of 0"),
    (math.nan, 1e14, "finite horizon > 0"),
    (math.inf, 1e14, "finite horizon > 0"),
])
def test_make_grid_refuses_a_lattice_that_floats_cannot_hold(horizon, warmup, fragment):
    with pytest.raises(ValueError, match=fragment):
        make_grid(horizon, 4096, warmup)


def test_make_grid_reaches_1e300_back():
    g = make_grid(1.0, 256, 1e300)
    assert g.far_cells == 11_429 and -g.warmup_start >= 1e300 and math.isfinite(g.warmup_start)


def test_generation_is_deterministic(grid):
    a = generate_noise_batch(99, grid, 1)
    b = generate_noise_batch(99, grid, 1)
    assert np.array_equal(a, b)
    c = generate_noise_batch(100, grid, 1)
    assert not np.array_equal(a, c)


def test_batch_rows_match_streams(grid):
    incs = generate_noise_batch(7, grid, 6)
    for r in (0, 3, 5):
        assert np.array_equal(incs[r], reference_draw(7, grid, r))
    # chunk-size independence: a later window reproduces the same rows
    tail = generate_noise_batch(7, grid, 2, first_stream=4)
    assert np.array_equal(tail[1], incs[5])


@pytest.mark.parametrize("reps", [1, 2, 5, 7])
def test_batch_draw_is_identical_for_any_worker_count(grid, monkeypatch, reps):
    """Chunks of 2 rows drawn on 1, 2 or 3 threads give the same bytes; reps < workers and uneven splits too."""
    batches = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(fbmdelay.experiments, "WORKERS", workers)
        monkeypatch.setattr(fbmdelay.experiments, "_CHUNK_BYTES", 2 * workers * 8 * grid.cell_count)
        rows, = fbmdelay.experiments._replicate(7, fbmdelay.experiments._plan(grid), reps, lambda incs: (incs,))
        batches.append(rows)
    for other in batches[1:]:
        assert other.tobytes() == batches[0].tobytes()
    for r in range(reps):
        assert np.array_equal(batches[-1][r], reference_draw(7, grid, r))


#: a graded grid of 335 cells: 263 far cells, then 8 near and 64 main cells of one step
GRADED = make_grid(1.0, 64, warmup=1e6)
#: the same lattice with no far cells: 8 near and 64 main cells
NO_FAR = make_grid(1.0, 64, warmup=0.125)


@given(seed=st.integers(0, 2 ** 32 - 1), first_stream=st.integers(0, 2 ** 20), reps=st.integers(1, 4),
       cells=st.integers(0, GRADED.cell_count))
@example(seed=0, first_stream=0, reps=1, cells=0)  # nothing drawn
@example(seed=0, first_stream=0, reps=1, cells=1)
@example(seed=1, first_stream=5, reps=3, cells=GRADED.far_cells)  # the far cells only
@example(seed=2, first_stream=0, reps=2, cells=GRADED.far_cells + 1)  # and one cell of one step
@example(seed=3, first_stream=9, reps=2, cells=GRADED.origin_index)  # the history, as DR_H reads it
@example(seed=4, first_stream=1, reps=4, cells=GRADED.cell_count)
@settings(max_examples=40, deadline=None)
def test_a_prefix_draw_is_the_first_cells_of_the_full_draw(seed, first_stream, reps, cells):
    """cells=k draws the first k columns of the full draw byte for byte, far-cell scaling included."""
    full = generate_noise_batch(seed, GRADED, reps, first_stream)
    part = generate_noise_batch(seed, GRADED, reps, first_stream, cells=cells)
    assert part.shape == (reps, cells)
    assert part.tobytes() == np.ascontiguousarray(full[:, :cells]).tobytes()


def test_a_batch_holds_zero_to_cell_count_cells_a_row(grid):
    assert generate_noise_batch(1, grid, 2, cells=0).shape == (2, 0)
    for cells in (-1, grid.cell_count + 1):
        with pytest.raises(ValueError, match=f"need 0 <= cells <= {grid.cell_count}"):
            generate_noise_batch(1, grid, 2, cells=cells)


def _history_readers(grid):
    """Each reader of a window of driving cells, as (incs, cells_end) -> array, read up to cells_end."""
    m0, n = grid.origin_index, grid.cell_count
    weights = np.linspace(-1.0, 1.0, n - m0)
    steps = np.zeros(n - m0)
    steps[[0, -1]] = -1.0, 1.0  # a step integrand's two breakpoints
    table = history_kernel(grid, (H75,)).table[0]
    return {
        "history_conv": lambda x, end: history_conv(x, table, (grid.far_cells, end), (m0, n + 1)),
        "history_conv unit kernel": lambda x, end: history_conv(x, None, (m0 - 5, end), (m0, n + 1)),
        "past_conv": lambda x, end: past_conv(x, grid, history_kernel(grid, (H75,), "DR_H"), end, (m0 + 1, n + 1)),
        "past_dot": lambda x, end: past_dot(x, grid, history_kernel(grid, (H75,)), end, (m0 + 1, n + 1),
                                            np.broadcast_to(weights, x.shape[:-1] + weights.shape)),
        "past_dot sparse weights": lambda x, end: past_dot(x, grid, history_kernel(grid, (H75,)), end, (m0 + 1, n + 1),
                                                           np.broadcast_to(steps, x.shape[:-1] + steps.shape)),
    }


@pytest.mark.parametrize("grid,reader", [pytest.param(GRADED, r, id=r) for r in _history_readers(GRADED)]
                         + [pytest.param(NO_FAR, r, id=f"{r}, no far cells") for r in _history_readers(NO_FAR)])
def test_a_reader_refuses_a_window_past_the_drawn_cells(grid, reader):
    """A batch drawn up to the origin reads as the full rows up to there, and one cell more is refused, not cut."""
    read, m0 = _history_readers(grid)[reader], grid.origin_index
    prefix = generate_noise_batch(5, grid, 3, cells=m0)
    full = generate_noise_batch(5, grid, 3)
    assert read(prefix, m0).tobytes() == read(full, m0).tobytes()
    assert read(prefix[0], m0).tobytes() == read(full[0], m0).tobytes()
    with pytest.raises(ValueError, match=f"reaches cell {m0}, but only {m0} cells a row are drawn"):
        read(prefix, m0 + 1)


def test_a_grid_without_far_cells_carries_empty_far_arrays():
    """No far cells is the one lattice with none: the kernel's far arrays are empty, never None."""
    kernel = history_kernel(NO_FAR, (H75,))
    m0 = NO_FAR.origin_index
    assert NO_FAR.far_cells == 0 and kernel.far.shape == (1, fbmdelay.noise.FAR_NODES, 0)
    assert kernel.basis.shape == (fbmdelay.noise.FAR_NODES, NO_FAR.main_steps + 1)
    assert kernel.far_weights(NO_FAR, m0).shape == (1, 0)
    assert fbmdelay.noise.fbm_weight_vector(NO_FAR, H75, m0 + 32).shape == (NO_FAR.cell_count,)


@pytest.mark.parametrize("grid", [GRADED, NO_FAR], ids=["graded", "no far cells"])
def test_the_brownian_weight_vector_has_no_far_weight(grid):
    """At h = 1/2 every cell of [0, t] weighs 1 and the history none, far cells or not: Var B(1) is 1."""
    w = fbmdelay.noise.fbm_weight_vector(grid, H5, grid.cell_count)
    assert not np.any(w[:grid.far_cells])
    np.testing.assert_allclose(w[grid.far_cells:], [0.0] * (grid.origin_index - grid.far_cells)
                               + [1.0] * grid.main_steps, rtol=0.0, atol=1e-15)
    assert discrete_fbm_cov(grid, H5, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_increment_variance_matches_step():
    big = make_grid(1.0, 2 ** 20)
    incs = generate_noise_batch(3, big, 1)[0]
    n = incs.size
    est = float(np.mean(incs ** 2))
    se = math.sqrt(2.0 / n) * big.step  # var of chi2 mean
    assert abs(est - big.step) <= 3 * se


def test_distinct_seeds_uncorrelated():
    big = make_grid(1.0, 2 ** 20)
    a = generate_noise_batch(1, big, 1)[0]
    b = generate_noise_batch(2, big, 1)[0]
    corr = float(np.corrcoef(a, b)[0, 1])
    assert abs(corr) <= 3.0 / math.sqrt(a.size)


def test_increments_immutable(noise, grid, monkeypatch):
    """The rows are read-only however they come: a full draw, a prefix draw, and a chunk's rows in _replicate's
    per_chunk, run inline and on the pool, full or drawn up to the origin."""
    with pytest.raises(ValueError):
        noise[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        generate_noise_batch(1, grid, 2, cells=grid.origin_index)[0] = 1.0
    threads = set()

    def per_chunk(incs):
        threads.add(threading.get_ident())
        with pytest.raises(ValueError, match="read-only"):
            incs[0] = 1.0
        return (np.zeros(len(incs)),)

    for workers in (1, 2):
        monkeypatch.setattr(fbmdelay.experiments, "WORKERS", workers)
        monkeypatch.setattr(fbmdelay.experiments, "_CHUNK_BYTES", 2 * workers * 8 * grid.cell_count)
        for cells in (None, grid.origin_index):
            fbmdelay.experiments._replicate(7, fbmdelay.experiments._plan(grid, cells=cells), 4, per_chunk)
    assert threading.get_ident() in threads and len(threads) > 1


# ---------------------------------------------------------------------------
# synthesis identities (pathwise, machine precision)
# ---------------------------------------------------------------------------

def test_brownian_case_reduces_to_driving_path(incs, grid):
    _, b = process_values(incs, grid, H5, "B")
    _, bh = process_values(incs, grid, H5, "B_H")
    np.testing.assert_allclose(bh, b, atol=1e-12)


def test_fbm_starts_at_zero_and_rejects_empty_warmup(incs, grid):
    """B_H(0) = 0.  On a grid with no cells before the origin each reader of them at h = 0.75 raises the run
    plan's one line, noise.refuse_no_history's; B and W_H at h = 0.75, and every kind at h = 1/2, read none and
    run."""
    _, bh = process_values(incs, grid, H75, "B_H")
    assert bh[0] == 0.0
    bare = make_grid(1.0, 64)
    incs = generate_noise_batch(1, bare, 2)
    kernel, n = history_kernel(bare, (H75,)), bare.cell_count
    for read in (*(lambda kind=kind: process_values(incs, bare, H75, kind) for kind in ("B_H", "R_H", "DR_H")),
                 lambda: fbmdelay.integrator.noise_transforms(bare, incs, H75, n),
                 lambda: past_conv(incs, bare, kernel, n, (0, n + 1)),
                 lambda: past_dot(incs, bare, kernel, n, (0, n + 1), np.ones((2, n + 1))),
                 lambda: FbmIntegrand(0.75).values_on_cells(bare, incs)):
        with pytest.raises(ValueError, match=r"^--warmup 0\.0 leaves no history, which a run at h > 1/2 needs$"):
            read()
    for hp, kinds in ((H75, ("B", "W_H")), (H5, KINDS)):
        for kind in kinds:
            assert np.all(np.isfinite(process_values(incs, bare, hp, kind)[1]))


def test_increment_decomposition_pathwise(incs, grid):
    """B_H(t) - B_H(seg) = W_H(t) + R_H(t) on the whole lattice."""
    for seg_start in (0.0, 0.25):
        idx = grid.index_of(seg_start)
        x = fbm_values(incs, grid, (H75,))[0]
        w = w_values(incs, grid, H75, idx)
        r = r_values(incs, grid, H75, idx)
        rel = idx - grid.origin_index
        lhs = x[rel:] - x[rel]
        np.testing.assert_allclose(lhs, w + r, atol=1e-12)


def test_r_matches_direct_f_kernel_synthesis(incs, grid):
    """Primitive-of-DR route equals an independent slow f-kernel cell-average loop."""
    hp = H75
    idx = grid.origin_index
    t = 0.5
    edges = grid_edges(grid)
    p1 = hp.h + 0.5
    w = np.zeros(grid.cell_count)
    for i in range(idx):
        a, b = edges[i], edges[i + 1]
        w[i] = ((t - a) ** p1 - (t - b) ** p1) / (p1 * (b - a))
        w[i] -= ((0.0 - a) ** p1 - (0.0 - b) ** p1) / (p1 * (b - a))
    direct = hp.c_h * float(np.dot(w, incs))
    via_primitive = r_values(incs, grid, hp, idx)[grid.index_of(t) - idx]
    assert direct == pytest.approx(via_primitive, abs=1e-12)


def test_scalar_ops_match_lattice_paths(incs, grid):
    t = 0.625
    idx = grid.origin_index
    j = grid.index_of(t)
    assert synthesize_w(grid, incs, H75, 0.0, t) == pytest.approx(
        w_values(incs, grid, H75, idx)[j - idx], abs=1e-12)
    assert synthesize_dr(grid, incs, H75, 0.0, t) == pytest.approx(
        dr_values(incs, grid, H75, idx)[j - idx - 1], abs=1e-12)


def test_w_and_dr_edge_cases(incs, grid):
    assert synthesize_w(grid, incs, H75, 0.25, 0.25) == 0.0
    assert synthesize_dr(grid, incs, H5, 0.0, 0.5) == 0.0
    # h = 1/2: W is the plain increment
    times, b = process_values(incs, grid, H5, "B")
    got = synthesize_w(grid, incs, H5, 0.25, 0.75)
    want = b[times.searchsorted(0.75)] - b[times.searchsorted(0.25)]
    assert got == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        synthesize_w(grid, incs, H75, 0.5, 0.25)
    with pytest.raises(ValueError):
        synthesize_dr(grid, incs, H75, 0.5, 0.5)


def test_measurability_future_increments_do_not_matter(incs, grid):
    """DR_H and the history component read nothing after the conditioning time."""
    seg = grid.index_of(0.5)
    tweaked = incs.copy()
    tweaked[seg:] = 0.0
    a = dr_values(incs, grid, H75, seg)
    b = dr_values(tweaked, grid, H75, seg)
    np.testing.assert_array_equal(a, b)


def test_dr_second_moment_scaling_in_span():
    hp = H75
    base = dr_pointwise_closed_form(hp, 1.0)
    assert dr_pointwise_closed_form(hp, 2.0) == pytest.approx(base * 2 ** (2 * hp.h - 2), rel=1e-12)
    e = dr_energy_closed_form(hp, 1.0)
    assert dr_energy_closed_form(hp, 2.0) == pytest.approx(e * 2 ** (2 * hp.h - 1), rel=1e-12)
    assert dr_pointwise_closed_form(H5, 1.0) == 0.0
    assert dr_energy_closed_form(H5, 1.0) == 0.0


@pytest.mark.parametrize("h", [0.5, 0.75])
def test_the_closed_forms_refuse_a_span_that_is_not_positive(h):
    """Both closed forms refuse span <= 0 with ValueError, at h = 1/2 too; the pointwise one is exactly 0.0 there.

    At the parent the pointwise form at h = 0.75 returned a complex number for span -1 and raised
    ZeroDivisionError at span 0.
    """
    hp = hurst_constant(h)
    for closed_form in (dr_pointwise_closed_form, dr_energy_closed_form):
        for span in (0.0, -1.0):
            with pytest.raises(ValueError, match="span must be positive"):
                closed_form(hp, span)
    if h == 0.5:
        assert [dr_pointwise_closed_form(hp, span) for span in (1e-300, 0.5, 1.0, 1e300)] == [0.0] * 4


def _exact_dr_table(hp, m, step):
    """D[m] = ((m step)^p - ((m-1) step)^p) / step with p = h - 1/2, at mpmath's working precision."""
    p = mpmath.mpf(hp.h) - mpmath.mpf(0.5)  # exact: h - 1/2 has no rounding for h in [1/2, 1)
    return ((m * mpmath.mpf(step)) ** p - ((m - 1) * mpmath.mpf(step)) ** p) / step


@pytest.mark.parametrize("k", range(2, 15))
def test_dr_kernel_table_keeps_precision_as_h_nears_half(k):
    """At h = 1/2 + 10^-k the DR table is within 1e-14 relative of 50-digit arithmetic, desk lags."""
    hp, step, n = hurst_constant(0.5 + 10.0 ** -k), 2.0 ** -12, 36864
    table = dr_kernel_table(hp, n, step)
    assert table[0] == 0.0
    for m in np.unique(np.geomspace(1, n, 60).astype(int)):
        with mpmath.workdps(50):
            want = _exact_dr_table(hp, int(m), step)
        assert abs(table[m] - want) <= 1e-14 * abs(want), (m, table[m], want)


@pytest.mark.parametrize("h", [0.5 + 1e-2, 0.5 + 1e-6, 0.5 + 1e-10, 0.5 + 1e-14, 0.55, 0.75, 0.99])
def test_avg_kernel_table_matches_exact_arithmetic(h):
    """The fbm synthesis table is within 1e-14 relative of 50-digit arithmetic at the desk lags."""
    hp, step, n = hurst_constant(h), 2.0 ** -12, 36864
    table = avg_kernel_table(hp, n, step)
    assert table[0] == 0.0
    for m in np.unique(np.geomspace(1, n, 60).astype(int)):
        with mpmath.workdps(50):
            p1 = mpmath.mpf(hp.h) + mpmath.mpf(0.5)
            want = ((m * mpmath.mpf(step)) ** p1 - ((m - 1) * mpmath.mpf(step)) ** p1) / (p1 * step)
        assert abs(table[m] - want) <= 1e-14 * want, (m, table[m], want)


def _exact_far_dr_weight(hp, a, b, t):
    """c_h ((t - a)^p - (t - b)^p) / (b - a), p = h - 1/2: the DR_H weight of the cell [a, b] at t, 50 digits."""
    p = mpmath.mpf(hp.h) - mpmath.mpf(0.5)
    a, b, t = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(t)
    return hp.c_h * ((t - a) ** p - (t - b) ** p) / (b - a)


@pytest.mark.parametrize("h", [0.5 + 1e-12, 0.55, 0.75, 0.9])
def test_dr_budget_matches_exact_arithmetic(grid, h):
    """E DR_H(t)^2 from discrete_dr_energy agrees with the 50-digit weight sum to 1e-13 relative.

    A cell of one step weighs in with c_h D[j - i], a far cell with its own width and weight.
    """
    hp, m0, n, far = hurst_constant(h), grid.origin_index, grid.cell_count, grid.far_cells
    edges = grid_edges(grid)
    for j in (m0 + 1, m0 + 7, n):
        t = (j - m0) * grid.step
        with mpmath.workdps(50):  # DR_H(t_j) weighs cell far <= i < m0 with c_h D[j - i]
            want = hp.c_h ** 2 * grid.step * mpmath.fsum(_exact_dr_table(hp, j - i, grid.step) ** 2
                                                        for i in range(far, m0))
            want += mpmath.fsum((mpmath.mpf(edges[i + 1]) - mpmath.mpf(edges[i]))
                                * _exact_far_dr_weight(hp, edges[i], edges[i + 1], t) ** 2 for i in range(far))
        got = discrete_dr_energy(grid, hp, [j], [1.0])
        assert abs(got - want) <= 1e-13 * want, (j, got, want)
    # an index before the origin or past the last lattice point, index n, is refused in one line, at h = 1/2 too
    weights = fbmdelay.noise.fbm_weight_vector
    for j, off in ((m0 - 1, lambda: discrete_dr_energy(grid, hp, [m0 - 1, n], [1.0, 1.0])),
                   (m0 - 1, lambda: discrete_dr_energy(grid, H5, [m0 - 1, n], [1.0, 1.0])),  # every moment is 0 there
                   (n + 1, lambda: discrete_dr_energy(grid, hp, [n, n + 1], [1.0, 1.0])),
                   (n + 1, lambda: weights(grid, hp, n + 1)),
                   (n + 5, lambda: history_kernel(grid, (hp,)).far_weights(grid, [m0, n + 5])),
                   (m0 - 1, lambda: history_kernel(grid, (hp,)).far_weights(grid, m0 - 1)),
                   (m0 - 3, lambda: weights(grid, H5, m0 - 3)),
                   (n + 1, lambda: discrete_dr_energy(grid, H5, [n + 1], [1.0]))):
        with pytest.raises(ValueError, match=rf"^lattice index {j} is off the main lattice, indices {m0} to {n}$"):
            off()


DESK_GRID = make_grid(1.0, 4096, warmup=1e14)


def _exact_far_bh_weight(hp, a, b, t):
    """The B_H weight of the cell [a, b] at t, from the origin: the cell average of c_h ((t - q)^p - (-q)^p)."""
    p1 = mpmath.mpf(hp.h) + mpmath.mpf(0.5)
    a, b, t = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(t)
    return hp.c_h * (((t - a) ** p1 - (-a) ** p1) - ((t - b) ** p1 - (-b) ** p1)) / (p1 * (b - a))


@pytest.mark.parametrize("h", [0.5 + 1e-6, 0.55, 0.75, 0.9, 0.95])
def test_far_weights_match_exact_arithmetic(h):
    """The far cells' B_H and DR_H weights, as the synthesis applies them, are within 1e-13 relative of 60 digits.

    Desk grid, history to 1e14: 567 far cells, from the near window, T/8 before the origin, out.
    """
    hp, grid = hurst_constant(h), DESK_GRID
    m0, far, edges = grid.origin_index, grid.far_cells, grid.far_edges()
    assert far == 567 and edges[-1] == -0.125 and edges[0] <= -1e14
    cells = (0, 1, far // 2, far - 2, far - 1)
    for kind, exact in (("B_H", _exact_far_bh_weight), ("DR_H", _exact_far_dr_weight)):
        kernel = fbmdelay.noise.history_kernel(grid, (hp,), kind)
        for j in (m0 + 1, m0 + 7, m0 + 2048, grid.cell_count):
            got = kernel.far_weights(grid, j)[0]
            for f in cells:
                with mpmath.workdps(60):
                    want = exact(hp, edges[f], edges[f + 1], (j - m0) * grid.step)
                assert abs(got[f] - want) <= 1e-13 * abs(want), (kind, j, f, got[f], want)
    assert not np.any(fbmdelay.noise.history_kernel(grid, (hp,)).far_weights(grid, m0))  # B_H is 0 at the origin


def _far_interpolation_error(grid, hp, kind) -> float:
    """The largest, over the main lattice points, of the interpolated far weights' error against their direct
    evaluation, weighted by the cells' variances: sqrt(sum width err^2) / sqrt(sum width weight^2)."""
    kernel, widths, worst = history_kernel(grid, (hp,), kind), grid.far_widths(), 0.0
    first = 1 if kind == "B_H" else 0  # B_H's far weights are 0 at the origin, where its direct form divides by t
    for lo in range(first, grid.main_steps + 1, 256):
        j = np.arange(lo, min(lo + 256, grid.main_steps + 1))
        t = j * grid.step
        want = fbmdelay.noise._far_at(grid, (hp,), kind, t)[0] * (t[:, None] if kind == "B_H" else 1.0)
        err = kernel.far_weights(grid, grid.origin_index + j)[0] - want
        worst = max(worst, float(np.max(np.sqrt(err ** 2 @ widths / (want ** 2 @ widths)))))
    return worst


@pytest.mark.parametrize("h", [0.5 + 1e-14, 0.55, 0.75, 0.9, 0.99])
def test_far_weights_are_their_direct_evaluation_at_every_main_lattice_point(h):
    """In log(t + D), 20 Chebyshev nodes carry the far weights within 1e-14, variance-weighted, at every main
    lattice point, for both kinds: on the desk grid (D = T/8) and on make_grid(1.0, n, 1e14) for n = 1 to 64,
    where D is one step or more and the singularities at t = -D and beyond lie on Im log(t + D) = pi.

    The largest error seen is 1.1e-15.  Interpolated in t, as until this lattice, the nodes left 9.6e-16 with a
    near window of T but 4.9e-7 with one of T/8.
    """
    hp = hurst_constant(h)
    for grid in (DESK_GRID, *(make_grid(1.0, n, 1e14) for n in range(1, 65))):
        for kind in ("B_H", "DR_H"):
            assert _far_interpolation_error(grid, hp, kind) <= 1e-14, (grid, kind)


def test_a_point_on_a_node_takes_its_unit_column():
    """The barycentric basis at a point that sits on a node exactly is that node's unit column, never 0/0: at every
    node, and among points off the nodes, whose columns sum to 1."""
    nodes = fbmdelay.noise._chebyshev_nodes()
    assert fbmdelay.noise._barycentric(nodes).tobytes() == np.eye(fbmdelay.noise.FAR_NODES).tobytes()
    x = np.array([-1.0, nodes[3], 0.3, nodes[0], 1.0])
    basis = fbmdelay.noise._barycentric(x)
    assert np.all(np.isfinite(basis)) and np.allclose(basis.sum(axis=0), 1.0, rtol=0.0, atol=1e-14)
    assert basis[:, 1].tolist() == np.eye(fbmdelay.noise.FAR_NODES)[3].tolist()
    assert basis[:, 3].tolist() == np.eye(fbmdelay.noise.FAR_NODES)[0].tolist()


def test_graded_history_recovers_the_variance():
    """Exact discrete Var B_H(1) over the closed form 1: the graded desk lattice against a uniform warmup of 8.

    The 5,175-cell lattice keeps 0.99998 at h = 0.75 and 0.9991 at h = 0.9; the
    36,864 uniform cells of the old desk grid kept 0.951 and 0.657.
    """
    uniform = SimulationGrid(1.0, 4096, near_cells=8 * 4096)
    for h, least, old in ((0.75, 0.999, 0.96), (0.9, 0.99, 0.66)):
        hp = hurst_constant(h)
        assert discrete_fbm_cov(DESK_GRID, hp, 1.0, 1.0) >= least
        assert discrete_fbm_cov(uniform, hp, 1.0, 1.0) < old
    assert DESK_GRID.cell_count == 5175


@pytest.mark.parametrize("rows", [1, 2, 5])
def test_far_history_rows_do_not_depend_on_the_batch(rows):
    """Every reader of the far cells gives a row the bytes it gets inside a larger batch, at any offset.

    noise_transforms is read as its two fields stacked, d_tail and d_main, for each h.
    """
    grid = make_grid(1.0, 256, warmup=1e14)
    incs = generate_noise_batch(17, grid, 9)
    m0, n = grid.origin_index, grid.cell_count
    hps = (H75, hurst_constant(0.9))
    readers = (lambda x: fbm_values(x, grid, hps),
               lambda x: dr_values(x, grid, H75, m0 + 16),
               lambda x: r_values(x, grid, H75, m0 + 16),
               lambda x: np.stack([fbmdelay.integrator.noise_transforms(grid, x, hp, n - 64) for hp in hps]))
    for read in readers:
        whole = read(incs)
        for lo in (0, 3):
            part = read(incs[lo:lo + rows])
            assert part.tobytes() == np.ascontiguousarray(whole[..., lo:lo + rows, :]).tobytes()


def _step_weights(rng, reps: int, outputs: tuple[int, int], cells_end: int) -> np.ndarray:
    """Weights a row: dense, 2 nonzeros (first and last output), 9 (those, 7 more, one past cells_end if any) or none."""
    j0, j1 = outputs
    weights = rng.standard_normal((reps, j1 - j0))
    past = min(max(cells_end + 1 - j0, 1), j1 - j0 - 2)  # the first output past cells_end, if one is
    for r in range(reps):
        if r % 4 == 0:
            cols = [0, j1 - j0 - 1]
        elif r % 4 == 1:
            cols = [0, j1 - j0 - 1, past, *rng.choice(np.setdiff1d(np.arange(1, j1 - j0 - 1), past), 6, replace=False)]
        elif r % 4 == 2:
            cols = []
        else:
            continue
        keep = weights[r, cols].copy()
        weights[r] = 0.0
        weights[r, cols] = keep
    return weights


@pytest.mark.parametrize("warmup", [0.125, 1e14])
def test_past_dot_is_the_inner_product_with_past_conv(monkeypatch, warmup):
    """past_dot is sum_j weights * past_conv to 1e-12 of the summed |terms|, and a row's bytes stand alone.

    On a uniform warmup grid and a graded one, three windows of cells and
    outputs, h = 1/2 + 1e-6, 0.75 and 0.95, in a batch that mixes dense
    rows, rows with 2 and 9 nonzero weights (the first and last output
    among them, and an output past cells_end) and all-zero rows: a row
    gets the bytes it gets alone and in batches of 1, 7 and all rows, each
    h alone those of the stacked kernel, and a block budget of one row
    those of the default blocks.  The sparse rows make no transform.
    """
    grid = make_grid(1.0, 256, warmup=warmup)
    assert (grid.far_cells > 0) == (warmup > 0.125)
    reps, m0, n = 33, grid.origin_index, grid.cell_count
    incs = generate_noise_batch(23, grid, reps)
    hps = [hurst_constant(h) for h in (0.5 + 1e-6, 0.75, 0.95)]
    kernel = fbmdelay.noise.history_kernel(grid, hps)
    for cells_end, outputs in ((n, (m0, n + 1)), (m0, (m0, n + 1)), (m0 + 40, (m0 + 5, n - 3))):
        weights = _step_weights(np.random.default_rng(cells_end), reps, outputs, cells_end)
        assert np.count_nonzero(weights, axis=-1)[:3].tolist() == [2, 9, 0]
        assert cells_end >= outputs[1] - 1 or np.any(weights[1, cells_end + 1 - outputs[0]:-1])
        terms = weights * past_conv(incs, grid, kernel, cells_end, outputs)
        got = past_dot(incs, grid, kernel, cells_end, outputs, weights)
        assert got.shape == (len(hps), reps)
        assert np.all(np.abs(got - np.sum(terms, axis=-1)) <= 1e-12 * np.sum(np.abs(terms), axis=-1))
        assert not np.any(got[:, 2::4])
        for rows in [slice(5, 6), slice(0, 7)] + [slice(r, r + 1) for r in range(8)]:
            part = past_dot(incs[rows], grid, kernel, cells_end, outputs, weights[rows])
            assert part.tobytes() == np.ascontiguousarray(got[:, rows]).tobytes()
        for r in range(4):
            assert past_dot(incs[r], grid, kernel, cells_end, outputs, weights[r]).tobytes() == got[:, r].tobytes()
        for q, hp in enumerate(hps):
            alone = past_dot(incs, grid, fbmdelay.noise.history_kernel(grid, (hp,)), cells_end, outputs, weights)
            assert alone[0].tobytes() == got[q].tobytes()
        with monkeypatch.context() as mp:
            mp.setattr(fbmdelay.noise, "_FFT_BLOCK_POINTS", 1)
            assert past_dot(incs, grid, kernel, cells_end, outputs, weights).tobytes() == got.tobytes()
        sparse = [r for r in range(reps) if r % 4 < 3]
        with monkeypatch.context() as mp:
            mp.setattr(fbmdelay.noise, "_fft", SimpleNamespace(next_fast_len=fft.next_fast_len))  # no transform
            part = past_dot(incs[sparse], grid, kernel, cells_end, outputs, weights[sparse])
        assert part.tobytes() == np.ascontiguousarray(got[:, sparse]).tobytes()
    with pytest.raises(ValueError, match="one per row and output"):
        past_dot(incs, grid, kernel, n, (m0, n + 1), np.ones((reps, n - m0)))


@pytest.mark.parametrize("every", [1, 512])
def test_a_desk_row_alone_gets_its_past_dot_bytes_in_the_batch(every):
    """With one kernel, each of 33 desk rows alone gets the bytes it gets in the batch.

    Weights at every output (the Parseval path, 8,714 floats a row) and at
    every 512th (the direct path, up to 5,175 cells a dot).  These are
    reductions longer than one einsum buffer, which a one-row operand summed
    in another order.
    """
    grid, reps = DESK_GRID, 33
    m0, end = grid.origin_index, grid.cell_count
    incs = generate_noise_batch(5, grid, reps)
    kernel = history_kernel(grid, (hurst_constant(0.6),))
    weights = np.zeros((reps, end + 1 - m0))
    weights[:, ::every] = np.random.default_rng(every).standard_normal((reps, len(range(0, end + 1 - m0, every))))
    got = past_dot(incs, grid, kernel, end, (m0, end + 1), weights)
    alone = [past_dot(incs[r:r + 1], grid, kernel, end, (m0, end + 1), weights[r:r + 1])[0, 0] for r in range(reps)]
    assert [r for r in range(reps) if alone[r].tobytes() != got[0, r].tobytes()] == []


def _row_dot_cases(n, rows, kernels, offset, seed):
    """The per-row reductions of the package's shapes: kernels x n weights against rows x n cells, rows offset."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, n + offset))[:, offset:]
    w = rng.standard_normal((kernels, n))
    return x, w


@given(n=st.integers(1, 40_000), rows=st.integers(1, 64), kernels=st.integers(1, 4), offset=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=5175, rows=33, kernels=1, offset=0, seed=0).via("the desk row")
@example(n=8714, rows=5, kernels=1, offset=0, seed=1).via("a desk Parseval block")
@settings(max_examples=25, deadline=None)
def test_row_dot_gives_a_row_the_bytes_it_gets_in_any_batch(n, rows, kernels, offset, seed):
    """Each row alone (a view or a copy), and each kernel alone, gets its bytes in the batch, either operand first;
    the value is einsum's to rounding."""
    x, w = _row_dot_cases(n, rows, kernels, offset, seed)
    got = row_dot("qi,ri->qr", w, x)
    assert got.tobytes() == row_dot("ri,qi->qr", x, w).tobytes()
    np.testing.assert_allclose(got, np.einsum("qi,ri->qr", w, x), rtol=1e-10, atol=1e-12 * math.sqrt(n))
    for r in {0, rows // 2, rows - 1}:
        for row in (x[r:r + 1], x[r:r + 1].copy(), x[r]):
            assert row_dot("qi,...i->q...", w, row).reshape(kernels).tobytes() == got[:, r].tobytes()
    for q in range(kernels):
        assert row_dot("qi,ri->qr", w[q:q + 1], x).tobytes() == got[q:q + 1].tobytes()


def test_row_dot_tiles_every_summed_index_and_keeps_a_short_sum_as_einsum():
    """At most _DOT_TILE terms a tile: a short sum is einsum's bytes, two summed indices are tiled over the
    first (entry by entry where the second exceeds a tile), and an empty sum is 0."""
    rng = np.random.default_rng(8)
    for spec, shape in (("ri,ri->r", (3, 4096)), ("rij,rij->r", (3, 2, 2048)), ("rij,rij->r", (3, 2048, 2))):
        a, b = rng.standard_normal(shape), rng.standard_normal(shape)
        assert row_dot(spec, a, b).tobytes() == np.einsum(spec, a, b).tobytes()
    for shape in ((5, 3, 9000), (5, 30, 900), (5, 9000, 1)):
        a, b = rng.standard_normal(shape), rng.standard_normal(shape)
        got = row_dot("...kh,...kh->...", a, b)
        np.testing.assert_allclose(got, np.einsum("rkh,rkh->r", a, b), rtol=1e-12)
        assert [row_dot("...kh,...kh->...", a[r], b[r]).tobytes() for r in range(5)] == [v.tobytes() for v in got]
    assert row_dot("qi,ri->qr", np.ones((2, 0)), np.ones((3, 0))).tolist() == [[0.0] * 3] * 2


def test_row_dot_bytes_do_not_depend_on_the_blas_threads():
    """One or two OpenBLAS threads give the same bytes for rows of 12,290 and 40,000 terms."""
    script = ("import numpy as np\nfrom fbmdelay.noise import row_dot\n"
              "for n in (12290, 40000):\n"
              "    rng = np.random.default_rng(n)\n"
              "    got = row_dot('qi,ri->qr', rng.standard_normal((2, n)), rng.standard_normal((64, n)))\n"
              "    print(got.tobytes().hex())\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] and outs[0].count("\n") == 2


def test_dr_closed_forms_frozen_oracle_values():
    # gamma-oracle derived: c_h^2 (h-1/2)^2/(2-2h) and c_h^2 (h-1/2)/(2(2-2h))
    assert dr_pointwise_closed_form(H75, 1.0) == pytest.approx(0.143017455657, rel=1e-9)
    assert dr_energy_closed_form(H75, 1.0) == pytest.approx(0.286034911313, rel=1e-9)
    assert dr_energy_closed_form(hurst_constant(0.9), 1.0) == pytest.approx(0.658078939974, rel=1e-9)
    assert dr_energy_closed_form(hurst_constant(0.55), 1.0) == pytest.approx(0.030295286772, rel=1e-9)


# ---------------------------------------------------------------------------
# Monte Carlo laws at unit-test scale
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mc_batch(grid):
    return generate_noise_batch(314, grid, 4000)


def test_w_second_moment_mc(mc_batch, grid):
    """E W_H(1)^2 = c^2/(2H) (frozen oracle 0.762759763502 at h = 0.75)."""
    w = w_values(mc_batch, grid, H75, grid.origin_index)[:, -1]
    sq = w ** 2
    est = float(np.mean(sq))
    se = float(np.std(sq, ddof=1) / math.sqrt(sq.size))
    closed = 0.762759763502
    disc = grid.step * np.sum(
        (H75.c_h * np.diff((np.arange(513) * grid.step) ** 1.25) / (1.25 * grid.step)) ** 2)
    budget = abs(closed - disc)
    assert abs(est - closed) <= 3 * se + budget


def test_dr_pointwise_mc_matches_discrete_expectation(mc_batch, grid):
    m0 = grid.origin_index
    drv = dr_values(mc_batch, grid, H75, m0)[:, grid.cell_count - m0 - 1]
    sq = drv ** 2
    est = float(np.mean(sq))
    se = float(np.std(sq, ddof=1) / math.sqrt(sq.size))
    target = discrete_dr_energy(grid, H75, [grid.cell_count], [1.0])
    assert abs(est - target) <= 3 * se
    # the distance to the continuum closed form is the declared budget; at this
    # unit-test history (L = 4.14) the truncated tail carries (1+L)^(2h-2) = 44.1%
    closed = dr_pointwise_closed_form(H75, 1.0)
    assert abs(target - closed) == pytest.approx(closed * (1.0 + grid.warmup_length) ** (2 * H75.h - 2), rel=0.02)


def test_fbm_moments_mc(mc_batch, grid):
    bh = fbm_values(mc_batch, grid, (H75,))[0]
    v1 = bh[:, -1] ** 2
    est = float(np.mean(v1))
    se = float(np.std(v1, ddof=1) / math.sqrt(v1.size))
    budget = abs(1.0 - discrete_fbm_cov(grid, H75, 1.0, 1.0))
    assert abs(est - 1.0) <= 3 * se + budget

    cov = bh[:, -1] * bh[:, grid.main_steps // 2]
    est_c = float(np.mean(cov))
    se_c = float(np.std(cov, ddof=1) / math.sqrt(cov.size))
    budget_c = abs(0.5 - discrete_fbm_cov(grid, H75, 1.0, 0.5))
    assert abs(est_c - 0.5) <= 3 * se_c + budget_c


def test_fbm_terminal_value_gaussian(mc_batch, grid):
    bh1 = fbm_values(mc_batch, grid, (H75,))[0, :, -1]
    n = bh1.size
    z = (bh1 - bh1.mean()) / bh1.std()
    skew = float(np.mean(z ** 3))
    kurt = float(np.mean(z ** 4) - 3.0)
    assert abs(skew) <= 3 * math.sqrt(6.0 / n)
    assert abs(kurt) <= 3 * math.sqrt(24.0 / n)


def test_dr_mc_energy_three_hurst_values(grid):
    """MC energy of DR over [0,1] against the closed form, budget-declared."""
    incs = generate_noise_batch(2718, grid, 3000)
    m0 = grid.origin_index
    n = grid.main_steps
    for h in (0.55, 0.75, 0.9):
        hp = hurst_constant(h)
        t = grid.step * np.arange(n + 1)
        e = 2 * hp.h - 2.0
        wq = (t[1:] ** (e + 1) - t[:-1] ** (e + 1)) / ((e + 1) * t[1:] ** e)
        drv = dr_values(incs, grid, hp, m0)[:, :n]
        vals = drv ** 2 @ wq
        est = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(vals.size))
        closed = dr_energy_closed_form(hp, 1.0)
        target = discrete_dr_energy(grid, hp, m0 + 1 + np.arange(n), wq)
        assert abs(est - target) <= 3 * se
        assert abs(est - closed) <= 3 * se + abs(closed - target)


# ---------------------------------------------------------------------------
# the history convolution against a direct double sum
# ---------------------------------------------------------------------------

def _direct_history_sum(x, table, cells, outputs):
    """y[..., j - j0] = sum over lo <= i < min(hi, j) of table[j - i] x[..., i], term by term."""
    (lo, hi), (j0, j1) = cells, outputs
    w = np.zeros((max(j1 - j0, 0), x.shape[-1]))
    for j in range(j0, j1):
        for i in range(lo, min(hi, j)):
            w[j - j0, i] = 1.0 if table is None else table[j - i]
    return x @ w.T


@given(n=st.integers(1, 160), lo=st.integers(0, 160), hi=st.integers(0, 160),
       j0=st.integers(0, 161), span=st.integers(0, 161),
       h=st.sampled_from([None, 0.51, 0.75, 0.95]))
@example(n=128, lo=0, hi=64, j0=64, span=65, h=0.75)   # history-only: both length bounds meet
@example(n=160, lo=0, hi=32, j0=100, span=27, h=0.75)  # history-only: lag k1 - 1 = 126 binds
@example(n=128, lo=0, hi=64, j0=1, span=65, h=0.95)    # all outputs: m + k1 - 1 - k0 binds
@example(n=64, lo=10, hi=50, j0=0, span=65, h=None)    # outputs before lo and past hi
@example(n=64, lo=40, hi=20, j0=0, span=65, h=0.51)    # empty cell window
@example(n=64, lo=0, hi=64, j0=30, span=0, h=0.75)     # empty output window
@settings(max_examples=150, deadline=None)
def test_history_conv_matches_direct_sum(n, lo, hi, j0, span, h):
    lo, hi, j0 = min(lo, n), min(hi, n), min(j0, n + 1)
    j1 = min(j0 + span, n + 1)
    x = np.random.default_rng(n + 1000 * lo + 7 * hi).standard_normal((3, n))
    table = None if h is None else avg_kernel_table(hurst_constant(h), n, 1.0 / n)
    got = history_conv(x, table, (lo, hi), (j0, j1))
    want = _direct_history_sum(x, table, (lo, hi), (j0, j1))
    assert got.shape == want.shape
    scale = np.max(_direct_history_sum(np.abs(x), table, (lo, hi), (j0, j1)), initial=0.0)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale


@pytest.mark.parametrize("rows,cells,threaded", [(64, 8192, True), (8, 1024, False)])
def test_history_conv_is_identical_for_any_worker_count(monkeypatch, rows, cells, threaded):
    """Row blocks convolved on 3 threads at once, or one after another, give the bytes of one call.

    No FFT is handed a worker count: a chunk thread's transforms stay on that thread.
    """
    x = np.random.default_rng(cells).standard_normal((rows, cells))
    table = avg_kernel_table(H75, cells, 1.0 / cells)
    kwargs = []

    def spy(name):
        def call(*args, **kw):
            kwargs.append(kw)
            return getattr(fft, name)(*args, **kw)
        return call

    monkeypatch.setattr(fbmdelay.noise, "_fft", SimpleNamespace(
        rfft=spy("rfft"), irfft=spy("irfft"), next_fast_len=fft.next_fast_len))
    whole = history_conv(x, table, (0, cells), (0, cells + 1))

    def conv(block):
        return history_conv(x[block], table, (0, cells), (0, cells + 1))

    blocks = np.array_split(np.arange(rows), 3)
    if threaded:
        with ThreadPoolExecutor(3) as pool:
            parts = list(pool.map(conv, blocks))
    else:
        parts = [conv(block) for block in blocks]
    assert np.concatenate(parts).tobytes() == whole.tobytes()
    assert kwargs and all("workers" not in kw for kw in kwargs)


@given(lead=st.sampled_from([(), (1,), (4,), (5,), (2, 3)]), block_rows=st.integers(0, 5),
       kernels=st.integers(1, 3), window=st.sampled_from(["all", "history", "main"]),
       seed=st.integers(0, 2 ** 16))
@example(lead=(4,), block_rows=4, kernels=3, window="history", seed=1)   # rows fill a block
@example(lead=(5,), block_rows=4, kernels=3, window="history", seed=2)   # one row spills over
@example(lead=(2, 3), block_rows=4, kernels=2, window="main", seed=3)    # 3-D, two blocks
@example(lead=(2, 3), block_rows=0, kernels=2, window="all", seed=4)     # budget below one row
@settings(max_examples=60, deadline=None)
def test_stacked_history_conv_equals_one_call_per_kernel(lead, block_rows, kernels, window, seed):
    """A (k, lags) table gives, per kernel, the bytes of its own call, in any row blocks.

    A block holds as many rows as the point budget allows, and one row when
    a single row is over budget.
    """
    n_cells, m0 = 200, 120
    cells, outputs = {"all": ((0, n_cells), (0, n_cells + 1)),
                      "history": ((0, m0), (m0, n_cells + 1)),
                      "main": ((m0, n_cells), (m0, n_cells + 1))}[window]
    x = np.random.default_rng(seed).standard_normal(lead + (n_cells,))
    hps = [hurst_constant(h) for h in (0.51, 0.75, 0.95)[:kernels]]
    tables = np.stack([hp.c_h * avg_kernel_table(hp, n_cells, 1.0 / n_cells) for hp in hps])
    want = [history_conv(x, table, cells, outputs) for table in tables]  # one block each
    with pytest.MonkeyPatch.context() as mp:
        blocks = spy_noise_ffts(mp)
        fbmdelay.noise.history_conv(x, tables[0], cells, outputs)
        n = blocks[-1][2]  # the FFT length of this window
        blocks.clear()
        mp.setattr(fbmdelay.noise, "_FFT_BLOCK_POINTS", block_rows * n + n // 2)
        got = fbmdelay.noise.history_conv(x, tables, cells, outputs)
    rows, size = math.prod(lead), max(block_rows, 1)
    assert [b[0] for b in blocks] == [min(size, rows - r) for r in range(0, rows, size)]
    assert got.shape == (kernels,) + want[0].shape
    for q in range(kernels):
        assert got[q].tobytes() == want[q].tobytes()


def test_fbm_values_stacks_a_list_of_hurst_values(incs, grid):
    """Each h of a list gets the bytes of its own call; h = 1/2 never shares a list with h > 1/2."""
    hs = (0.9, 0.75, 0.51)
    alone = [fbm_values(incs, grid, (hurst_constant(h),))[0] for h in hs]
    stacked = fbm_values(incs, grid, [hurst_constant(h) for h in hs])
    assert [row.tobytes() for row in stacked] == [row.tobytes() for row in alone]
    brownian = fbm_values(incs, grid, (H5, H5))
    b = process_values(incs, grid, H5, "B")[1]
    assert brownian[0].tobytes() == brownian[1].tobytes() == b.tobytes()
    with pytest.raises(ValueError, match="running sum"):
        fbm_values(incs, grid, (H75, H5))


#: one block of the transform budget, 2^16 float64 (0.5 MiB), and the blocks a stage may hold beside its result
L2_BLOCK_BYTES, STAGE_BLOCKS = 8 * 2 ** 16, 6


def _traced(stage):
    """(result, traced peak in bytes) of one call of stage."""
    tracemalloc.start()
    try:
        result = stage()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_transform_stages_hold_their_result_and_a_few_blocks():
    """On a 64-row desk chunk a stage's traced peak is its result plus STAGE_BLOCKS blocks of 2^16 points.

    noise_transforms may also hold one field of its results' size: the
    undifferenced convolution whose np.diff it is making.  The stages are
    past_conv (B_H at h = 0.75), past_dot's Parseval path (4 h, weights
    nonzero everywhere), noise_transforms (h = 0.6) and dr_values (h =
    0.75).  At the old budget of 2^20 points every stage goes past the
    bound, and at both budgets every result has the same bytes.
    """
    grid = DESK_GRID
    m0, n = grid.origin_index, grid.cell_count
    incs = generate_noise_batch(19, grid, 64)
    h4 = [hurst_constant(h) for h in (0.7, 0.6, 0.55, 0.51)]
    weights = np.random.default_rng(5).standard_normal((64, n + 1 - m0))
    stages = {
        "past_conv": (lambda: past_conv(incs, grid, history_kernel(grid, (H75,)), n, (m0, n)), 0),
        "past_dot": (lambda: past_dot(incs, grid, history_kernel(grid, h4), n, (m0, n + 1), weights), 0),
        "noise_transforms": (lambda: fbmdelay.integrator.noise_transforms(grid, incs, hurst_constant(0.6), n),
                             8 * 64 * (n + 1 - m0)),
        "dr_values": (lambda: dr_values(incs, grid, H75, m0), 0),
    }
    for name, (stage, field) in stages.items():
        stage()  # builds the kernels and caches
        result, peak = _traced(stage)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fbmdelay.noise, "_FFT_BLOCK_POINTS", 2 ** 20)
            old, old_peak = _traced(stage)
        arrays, old_arrays = (r if isinstance(r, tuple) else (r,) for r in (result, old))
        bound = sum(a.nbytes for a in arrays) + field + STAGE_BLOCKS * L2_BLOCK_BYTES
        assert peak <= bound < old_peak, (name, peak, bound, old_peak)
        assert [a.tobytes() for a in arrays] == [a.tobytes() for a in old_arrays], name


def test_origin_subtraction_copies_one_column_not_the_history():
    """B_H, R_H and the fbm integrand's values subtract their origin column without a copy of the result.

    On a 64-row desk chunk at h = 0.75 each call's traced peak stays within a
    tenth of its result's size above the peak of the past_conv call it makes.
    `x -= x[..., :1]` would not: numpy copies all of x to resolve the overlap.
    """
    grid = DESK_GRID
    m0, n = grid.origin_index, grid.cell_count
    incs = generate_noise_batch(19, grid, 64)
    kernel = history_kernel(grid, (H75,))
    calls = {  # each call, and the (cells_end, outputs) of its past_conv
        "fbm_values": (lambda: fbm_values(incs, grid, (H75,)), n, (m0, n + 1)),
        "r_values": (lambda: r_values(incs, grid, H75, m0), m0, (m0, n + 1)),
        "values_on_cells": (lambda: FbmIntegrand(0.75).values_on_cells(grid, incs), n, (m0, n)),
    }
    for name, (call, cells_end, outputs) in calls.items():
        call()  # builds the kernel and caches
        _, conv_peak = _traced(lambda: past_conv(incs, grid, kernel, cells_end, outputs))
        result, peak = _traced(call)
        assert peak <= conv_peak + result.nbytes / 10, (name, peak, conv_peak, result.nbytes)


def test_history_conv_rejects_short_tables():
    with pytest.raises(ValueError, match="lag"):
        history_conv(np.ones(20), avg_kernel_table(H75, 10, 0.1), (0, 20), (0, 21))


def _direct_block_sum(x, table, edges):
    """y[..., j] = sum_{a <= i <= j} table[j - i] x[..., i], a the start of j's block, point by point."""
    y = np.zeros(x.shape)
    for a, b in zip(edges[:-1], edges[1:]):
        for j in range(a, b):
            y[..., j] = np.sum(x[..., a:j + 1] * table[j - a::-1], axis=-1)
    return y


@given(lengths=st.lists(st.integers(1, 300), min_size=1, max_size=4), equal=st.booleans(),
       lead=st.sampled_from([(), (3,), (2, 3)]), fft_branch=st.booleans(),
       seed=st.integers(0, 2 ** 16))
@example(lengths=[256, 256], equal=True, lead=(3,), fft_branch=False, seed=1)  # longest Toeplitz block
@example(lengths=[257, 257], equal=True, lead=(3,), fft_branch=False, seed=2)  # shortest FFT block
@example(lengths=[1, 300, 2], equal=False, lead=(2, 3), fft_branch=False, seed=3)  # both, unequal
@settings(max_examples=60, deadline=None)
def test_block_conv_matches_direct_sum(lengths, equal, lead, fft_branch, seed):
    """Both branches, equal and unequal blocks, leading batch axes; table[0] is read."""
    if equal:
        lengths = [lengths[0]] * len(lengths)
    edges = np.concatenate([[0], np.cumsum(lengths)])
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(lead + (int(edges[-1]),))
    table = rng.standard_normal(max(lengths) + 5)
    with pytest.MonkeyPatch.context() as mp:
        if fft_branch:
            mp.setattr(fbmdelay.noise, "_TOEPLITZ_MAX", 0)
        got = block_conv(x, table, edges)
    want = _direct_block_sum(x, table, edges)
    assert got.shape == x.shape
    scale = np.max(_direct_block_sum(np.abs(x), np.abs(table), edges))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_block_conv_rejects_bad_edges():
    for edges in ([0, 5, 9], [1, 10], [0, 5, 5, 10]):
        with pytest.raises(ValueError, match="edges"):
            block_conv(np.ones(10), np.ones(10), edges)


@pytest.mark.parametrize("fft_branch", [False, True], ids=["toeplitz", "fft"])
@pytest.mark.parametrize("h", [1, 3, 257])
def test_half_cross_conv_matches_direct_sum(h, fft_branch, monkeypatch):
    """blockwise_conv of each block's first half onto its second, with leading batch axes; 257 cells take the FFT
    anyway."""
    rng = np.random.default_rng(h)
    blocks = rng.standard_normal((2, 3, 4, 2 * h))
    table = rng.standard_normal(2 * h)
    if fft_branch:
        monkeypatch.setattr(fbmdelay.noise, "_TOEPLITZ_MAX", 0)
    got = blockwise_conv(blocks, table, (0, h), (h, 2 * h))
    i = np.arange(h)
    weights = table[h + i[None, :] - i[:, None]]  # weights[i, j] = table[h + j - i]
    want = np.einsum("...i,ij->...j", blocks[..., :h], weights)
    scale = np.einsum("...i,ij->...j", np.abs(blocks[..., :h]), np.abs(weights))
    assert got.shape == blocks.shape[:-1] + (h,)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@pytest.mark.parametrize("n", [1, 3, 128, 256])
def test_blockwise_conv_keeps_the_bytes_of_both_earlier_toeplitz_products(n):
    """On the Toeplitz branch, block_conv's equal blocks of n cells and the level step's halves of n cells are
    byte for byte the products each took before the one primitive (oracles), on a (2, 3, n_blocks, .) batch;
    a table too short for the lags is refused."""
    rng = np.random.default_rng(n)
    blocks = rng.standard_normal((2, 3, 5, 2 * n))
    table = rng.standard_normal(2 * n + 3)
    whole = blocks[..., :n].copy()
    got = blockwise_conv(whole, np.concatenate(([0.0], table[:n])), (0, n), (1, n + 1))
    assert got.tobytes() == toeplitz_block_product(whole, table).tobytes()
    assert block_conv(whole.reshape(2, 3, -1), table, range(0, 5 * n + 1, n)).tobytes() == got.tobytes()
    got = blockwise_conv(blocks, table, (0, n), (n, 2 * n))
    assert got.tobytes() == toeplitz_half_product(blocks, table).tobytes()
    with pytest.raises(ValueError, match=f"kernel table reaches lag {2 * n - 2}, need {2 * n - 1}"):
        blockwise_conv(blocks, table[:2 * n - 1], (0, n), (n, 2 * n))  # refused, as by history_conv


# ---------------------------------------------------------------------------
# path export
# ---------------------------------------------------------------------------

def _simulate(directory, grid_args, seed, kind, h):
    """Run CLI simulate; returns the CSV's lines."""
    out = Path(directory) / f"{kind}.csv"
    assert parse_and_dispatch(["simulate", "--kind", kind, "--hurst", repr(h), "--seed", str(seed),
                               *grid_args, "--out", str(out)]) == 0
    return out.read_text().splitlines()


def _check_csv_rows(lines, times, values):
    """Every CSV row parses back exactly to the synthesized (time, value) pair."""
    assert lines[1] == "time,value"
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[2:]]
    assert rows == list(zip(times.tolist(), values.tolist()))


def test_process_path_kinds_and_csv(noise, incs, grid, tmp_path, capsys):
    for kind in KINDS:
        times, values = process_values(noise, grid, H75, kind)
        assert times.shape == values.shape == (1, grid.main_steps + (kind != "DR_H"))
        assert np.array_equal(values[0], process_values(incs, grid, H75, kind)[1])  # a row is a path
    _, r5 = process_values(incs, grid, H5, "R_H")
    assert np.all(r5 == 0.0)
    with pytest.raises(ValueError, match="kind"):
        process_values(incs, grid, H75, "X_H")

    text = path_csv_string("B_H", H75.h, NOISE_SEED, *process_values(incs, grid, H75, "B_H"))
    lines = text.splitlines()
    assert lines[0] == f"# kind=B_H h=0.75 seed={NOISE_SEED}"
    assert lines[1] == "time,value"
    assert lines[2] == "0.0,0.0"
    # shortest-roundtrip floats: parsing back reproduces the values exactly
    t, v = lines[-1].split(",")
    assert float(v) == fbm_values(incs, grid, (H75,))[0, -1]

    # CLI simulate writes row 0 of the batch of one, for every kind; B is the h = 1/2 path
    grid_args = ["--steps", "512", "--warmup", "4.0"]
    for kind in KINDS:
        lines = _simulate(tmp_path, grid_args, NOISE_SEED, kind, 0.75)
        assert lines[0] == f"# kind={kind} h={0.5 if kind == 'B' else 0.75} seed={NOISE_SEED}"
        times, values = process_values(incs, grid, H75, kind)
        _check_csv_rows(lines, times, values)
        assert "\n".join(lines) + "\n" == path_csv_string(kind, 0.5 if kind == "B" else 0.75,
                                                          NOISE_SEED, times, values)
    capsys.readouterr()


@pytest.mark.parametrize("kind", fbmdelay.noise.PROCESS_KINDS)
def test_path_csv_bytes_are_the_reference_writers(tmp_path, kind):
    """Byte for byte the per-row writer's file, on a dyadic step and on the step 0.3 / 256.

    The two grids' time arrays have one length and different values, and they are written
    one after the other, so a time column cached under anything but the times themselves
    would put one grid's times on the other's path."""
    for horizon in (1.0, 0.3, 1.0):
        g = make_grid(horizon, 256, warmup=4.0)
        times, values = process_values(generate_noise_batch(7, g, 1), g, H75, kind)
        args = (kind, 0.75, 7, times[0], values[0])
        fbmdelay.noise.write_path_csv(*args, tmp_path / "got.csv")
        reference_write_path_csv(*args, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@given(seed=st.integers(0, 2 ** 31), kind=st.sampled_from(KINDS))
@settings(max_examples=10, deadline=None)
def test_csv_roundtrip_is_stable(seed, kind):
    g = make_grid(0.5, 64, warmup=1.0)
    times, values = process_values(generate_noise_batch(seed, g, 1), g, H75, kind)
    args = (kind, 0.75, seed, times[0], values[0])
    assert path_csv_string(*args) == path_csv_string(*args)
    with tempfile.TemporaryDirectory() as tmp:
        lines = _simulate(tmp, ["--t", "0.5", "--steps", "64", "--warmup", "1.0"], seed, kind, 0.75)
    _check_csv_rows(lines, times[0], values[0])
