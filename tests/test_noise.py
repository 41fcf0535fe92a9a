"""Noise generation contracts and the moving-average synthesis identities."""

import math
import tempfile
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
from fbmdelay.kernels import hurst_constant
from fbmdelay.noise import (
    SimulationGrid,
    avg_kernel_table,
    block_conv,
    discrete_dr_energy,
    discrete_fbm_cov,
    dr_energy_closed_form,
    dr_kernel_table,
    dr_pointwise_closed_form,
    dr_values,
    fbm_values,
    generate_noise_batch,
    history_conv,
    make_grid,
    past_conv,
    past_dot,
    process_values,
    r_values,
    w_values,
)
from oracles import cell_widths, path_csv_string, reference_draw, spy_noise_ffts, synthesize_dr, synthesize_w

KINDS = ("B", "B_H", "W_H", "R_H", "DR_H")

H75 = hurst_constant(0.75)
H5 = hurst_constant(0.5)


@pytest.fixture(scope="module")
def grid():
    return make_grid(1.0, 512, warmup=4.0)


@pytest.fixture(scope="module")
def noise(grid):
    return generate_noise_batch(20240517, grid, 1)


@pytest.fixture(scope="module")
def incs(noise):
    """The single path of the batch of one."""
    return noise.increments[0]


# ---------------------------------------------------------------------------
# grids and generation
# ---------------------------------------------------------------------------

def test_grid_construction_and_indexing(grid):
    """Warmup 4 on [0, 1]: cells of one step back to -1 (one horizon), then 23 cells widening by 17/16 to -4.03."""
    assert grid.origin == 0.0
    assert grid.far_cells == 23 and grid.uniform_start == -1.0
    assert grid.warmup_start == -(17 / 16) ** 23 and grid.warmup_start <= -4.0
    assert grid.cell_count == 512 * 2 + 23
    assert grid.origin_index == 23 + 512
    assert grid.index_of(0.0) == grid.origin_index
    assert grid.index_of(1.0) == grid.cell_count
    assert grid.index_of(-1.0) == grid.far_cells
    widths = cell_widths(grid)
    np.testing.assert_allclose(widths[:22] / widths[1:23], 17 / 16, rtol=1e-13)  # oldest cell widest
    assert widths[22] == pytest.approx(1.0 / 16, rel=1e-13) and np.all(widths[23:] == grid.step)
    assert np.sum(widths) == pytest.approx(1.0 - grid.warmup_start, rel=1e-14)
    assert np.array_equal(np.diff(grid.edges()), widths)
    for t in (0.12345, grid.warmup_start, -3.0):  # off-lattice, or a time of the far cells
        with pytest.raises(ValueError):
            grid.index_of(t)
    uniform = make_grid(1.0, 512, warmup=1.0)  # a warmup within one horizon has no far cells
    assert uniform.far_cells == 0 and uniform.warmup_start == -1.0 and uniform.cell_count == 512 * 2


def test_index_of_takes_an_array_as_the_scalar_loop(grid):
    """An array of times gives the indices of one call per time, rounded alike; one bad time refuses all."""
    step = grid.step
    times = np.concatenate([grid.edges()[grid.far_cells::97], [0.0, 1.0, 0.25 + 1e-9 * step, -1.0 + 0.4e-6 * step]])
    got = grid.index_of(times)
    assert got.dtype.kind == "i" and got.tolist() == [grid.index_of(float(t)) for t in times]
    assert type(grid.index_of(0.25)) is int
    for bad in (0.12345, 1.0 + step, -4.0 - step, 0.5 + 0.01 * step):
        with pytest.raises(ValueError, match=f"t={bad!r} is not on the simulation lattice"):
            grid.index_of(bad)
        with pytest.raises(ValueError, match=f"t={bad!r} is not on the simulation lattice"):
            grid.index_of(np.array([0.0, bad, 0.12345, 1.0]))


def test_grid_validation():
    with pytest.raises(ValueError):
        SimulationGrid(warmup_start=1.0, horizon=2.0, step=0.1, cell_count=10)
    with pytest.raises(ValueError):
        SimulationGrid(warmup_start=0.0, horizon=1.0, step=0.1, cell_count=7)


def test_generation_is_deterministic(grid):
    a = generate_noise_batch(99, grid, 1)
    b = generate_noise_batch(99, grid, 1)
    assert np.array_equal(a.increments, b.increments)
    c = generate_noise_batch(100, grid, 1)
    assert not np.array_equal(a.increments, c.increments)


def test_batch_rows_match_streams(grid):
    nb = generate_noise_batch(7, grid, 6)
    for r in (0, 3, 5):
        assert np.array_equal(nb.increments[r], reference_draw(7, grid, r))
    # chunk-size independence: a later window reproduces the same rows
    tail = generate_noise_batch(7, grid, 2, first_stream=4)
    assert np.array_equal(tail.increments[1], nb.increments[5])


@pytest.mark.parametrize("reps", [1, 2, 5, 7])
def test_batch_draw_is_identical_for_any_worker_count(grid, monkeypatch, reps):
    """Chunks of 2 rows drawn on 1, 2 or 3 threads give the same bytes; reps < workers and uneven splits too."""
    batches = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(fbmdelay.experiments, "WORKERS", workers)
        monkeypatch.setattr(fbmdelay.experiments, "_CHUNK_BYTES", 2 * workers * 8 * grid.cell_count)
        rows, = fbmdelay.experiments._replicate(7, grid, reps, lambda nb: (nb.increments,))
        batches.append(rows)
    for other in batches[1:]:
        assert other.tobytes() == batches[0].tobytes()
    for r in range(reps):
        assert np.array_equal(batches[-1][r], reference_draw(7, grid, r))


def test_increment_variance_matches_step():
    big = make_grid(1.0, 2 ** 20)
    incs = generate_noise_batch(3, big, 1).increments[0]
    n = incs.size
    est = float(np.mean(incs ** 2))
    se = math.sqrt(2.0 / n) * big.step  # var of chi2 mean
    assert abs(est - big.step) <= 3 * se


def test_distinct_seeds_uncorrelated():
    big = make_grid(1.0, 2 ** 20)
    a = generate_noise_batch(1, big, 1).increments[0]
    b = generate_noise_batch(2, big, 1).increments[0]
    corr = float(np.corrcoef(a, b)[0, 1])
    assert abs(corr) <= 3.0 / math.sqrt(a.size)


def test_increments_immutable(noise):
    with pytest.raises(ValueError):
        noise.increments[0] = 1.0


# ---------------------------------------------------------------------------
# synthesis identities (pathwise, machine precision)
# ---------------------------------------------------------------------------

def test_brownian_case_reduces_to_driving_path(incs, grid):
    _, b = process_values(incs, grid, H5, "B")
    _, bh = process_values(incs, grid, H5, "B_H")
    np.testing.assert_allclose(bh, b, atol=1e-12)


def test_fbm_starts_at_zero_and_rejects_empty_warmup(incs, grid):
    _, bh = process_values(incs, grid, H75, "B_H")
    assert bh[0] == 0.0
    no_warm = make_grid(1.0, 64)
    bare = generate_noise_batch(1, no_warm, 1).increments
    with pytest.raises(ValueError):
        process_values(bare, no_warm, H75, "B_H")
    process_values(bare, no_warm, H5, "B_H")  # brownian case needs no history


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
    edges = grid.edges()
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
    edges = grid.edges()
    for j in (m0 + 1, m0 + 7, n):
        t = (j - m0) * grid.step
        with mpmath.workdps(50):  # DR_H(t_j) weighs cell far <= i < m0 with c_h D[j - i]
            want = hp.c_h ** 2 * grid.step * mpmath.fsum(_exact_dr_table(hp, j - i, grid.step) ** 2
                                                        for i in range(far, m0))
            want += mpmath.fsum((mpmath.mpf(edges[i + 1]) - mpmath.mpf(edges[i]))
                                * _exact_far_dr_weight(hp, edges[i], edges[i + 1], t) ** 2 for i in range(far))
        got = discrete_dr_energy(grid, hp, m0, [j], [1.0])
        assert abs(got - want) <= 1e-13 * want, (j, got, want)
    with pytest.raises(ValueError, match="seg_idx"):
        discrete_dr_energy(grid, hp, m0, [m0 - 1, n], [1.0, 1.0])


DESK_GRID = make_grid(1.0, 4096, warmup=1e14)


def _exact_far_bh_weight(hp, a, b, t):
    """The B_H weight of the cell [a, b] at t, from the origin: the cell average of c_h ((t - q)^p - (-q)^p)."""
    p1 = mpmath.mpf(hp.h) + mpmath.mpf(0.5)
    a, b, t = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(t)
    return hp.c_h * (((t - a) ** p1 - (-a) ** p1) - ((t - b) ** p1 - (-b) ** p1)) / (p1 * (b - a))


@pytest.mark.parametrize("h", [0.5 + 1e-6, 0.55, 0.75, 0.9, 0.95])
def test_far_weights_match_exact_arithmetic(h):
    """The far cells' B_H and DR_H weights, as the synthesis applies them, are within 1e-13 relative of 60 digits.

    Desk grid, history to 1e14: 532 far cells, from one horizon before the origin out.
    """
    hp, grid = hurst_constant(h), DESK_GRID
    m0, far, edges = grid.origin_index, grid.far_cells, grid.far_edges()
    assert far == 532 and edges[-1] == -1.0 and edges[0] <= -1e14
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


def test_graded_history_recovers_the_variance():
    """Exact discrete Var B_H(1) over the closed form 1: the graded desk lattice against a uniform warmup of 8.

    The 8,724-cell lattice keeps 0.99998 at h = 0.75 and 0.9991 at h = 0.9; the
    36,864 uniform cells of the old desk grid kept 0.951 and 0.657.
    """
    uniform = SimulationGrid(warmup_start=-8.0, horizon=1.0, step=2.0 ** -12, cell_count=36864)
    for h, least, old in ((0.75, 0.999, 0.96), (0.9, 0.99, 0.66)):
        hp = hurst_constant(h)
        assert discrete_fbm_cov(DESK_GRID, hp, 1.0, 1.0) >= least
        assert discrete_fbm_cov(uniform, hp, 1.0, 1.0) < old
    assert DESK_GRID.cell_count == 8724


@pytest.mark.parametrize("rows", [1, 2, 5])
def test_far_history_rows_do_not_depend_on_the_batch(rows):
    """Every reader of the far cells gives a row the bytes it gets inside a larger batch, at any offset."""
    grid = make_grid(1.0, 256, warmup=1e14)
    incs = generate_noise_batch(17, grid, 9).increments
    m0, n = grid.origin_index, grid.cell_count
    hps = (H75, hurst_constant(0.9))
    readers = (lambda x: fbm_values(x, grid, hps),
               lambda x: dr_values(x, grid, H75, m0 + 16),
               lambda x: r_values(x, grid, H75, m0 + 16),
               lambda x: np.stack(fbmdelay.integrator.noise_transforms(grid, x, hps, n - 64)))
    for read in readers:
        whole = read(incs)
        for lo in (0, 3):
            part = read(incs[lo:lo + rows])
            assert part.tobytes() == np.ascontiguousarray(whole[..., lo:lo + rows, :]).tobytes()


@pytest.mark.parametrize("warmup", [0.5, 1e14])
def test_past_dot_is_the_inner_product_with_past_conv(monkeypatch, warmup):
    """past_dot is sum_j weights * past_conv to 1e-12 of the summed |terms|, and a row's bytes stand alone.

    On a uniform warmup grid and a graded one, three windows of cells and
    outputs, h = 1/2 + 1e-6, 0.75 and 0.95: a row gets the bytes it gets in
    batches of 1, 7 and all rows, each h alone those of the stacked kernel,
    and a block budget of one row those of the default blocks.
    """
    grid = make_grid(1.0, 256, warmup=warmup)
    assert (grid.far_cells > 0) == (warmup > 1.0)
    reps, m0, n = 33, grid.origin_index, grid.cell_count
    incs = generate_noise_batch(23, grid, reps).increments
    hps = [hurst_constant(h) for h in (0.5 + 1e-6, 0.75, 0.95)]
    kernel = fbmdelay.noise.history_kernel(grid, hps)
    for cells_end, outputs in ((n, (m0, n + 1)), (m0, (m0, n + 1)), (m0 + 40, (m0 + 5, n - 3))):
        weights = np.random.default_rng(cells_end).standard_normal((reps, outputs[1] - outputs[0]))
        terms = weights * past_conv(incs, grid, kernel, cells_end, outputs)
        got = past_dot(incs, grid, kernel, cells_end, outputs, weights)
        assert got.shape == (len(hps), reps)
        assert np.all(np.abs(got - np.sum(terms, axis=-1)) <= 1e-12 * np.sum(np.abs(terms), axis=-1))
        for rows in (slice(5, 6), slice(0, 7)):
            part = past_dot(incs[rows], grid, kernel, cells_end, outputs, weights[rows])
            assert part.tobytes() == np.ascontiguousarray(got[:, rows]).tobytes()
        for q, hp in enumerate(hps):
            alone = past_dot(incs, grid, fbmdelay.noise.history_kernel(grid, (hp,)), cells_end, outputs, weights)
            assert alone[0].tobytes() == got[q].tobytes()
        with monkeypatch.context() as mp:
            mp.setattr(fbmdelay.noise, "_FFT_BLOCK_POINTS", 1)
            assert past_dot(incs, grid, kernel, cells_end, outputs, weights).tobytes() == got.tobytes()
    with pytest.raises(ValueError, match="one per row and output"):
        past_dot(incs, grid, kernel, n, (m0, n + 1), np.ones((reps, n - m0)))


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
    w = w_values(mc_batch.increments, grid, H75, grid.origin_index)[:, -1]
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
    drv = dr_values(mc_batch.increments, grid, H75, m0)[:, grid.cell_count - m0 - 1]
    sq = drv ** 2
    est = float(np.mean(sq))
    se = float(np.std(sq, ddof=1) / math.sqrt(sq.size))
    target = discrete_dr_energy(grid, H75, m0, [grid.cell_count], [1.0])
    assert abs(est - target) <= 3 * se
    # the distance to the continuum closed form is the declared budget; at this
    # unit-test history (L = 4.14) the truncated tail carries (1+L)^(2h-2) = 44.1%
    closed = dr_pointwise_closed_form(H75, 1.0)
    assert abs(target - closed) == pytest.approx(closed * (1.0 + grid.warmup_length) ** (2 * H75.h - 2), rel=0.02)


def test_fbm_moments_mc(mc_batch, grid):
    bh = fbm_values(mc_batch.increments, grid, (H75,))[0]
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
    bh1 = fbm_values(mc_batch.increments, grid, (H75,))[0, :, -1]
    n = bh1.size
    z = (bh1 - bh1.mean()) / bh1.std()
    skew = float(np.mean(z ** 3))
    kurt = float(np.mean(z ** 4) - 3.0)
    assert abs(skew) <= 3 * math.sqrt(6.0 / n)
    assert abs(kurt) <= 3 * math.sqrt(24.0 / n)


def test_dr_mc_energy_three_hurst_values(grid):
    """MC energy of DR over [0,1] against the closed form, budget-declared."""
    nb = generate_noise_batch(2718, grid, 3000)
    m0 = grid.origin_index
    n = grid.main_steps
    for h in (0.55, 0.75, 0.9):
        hp = hurst_constant(h)
        t = grid.step * np.arange(n + 1)
        e = 2 * hp.h - 2.0
        wq = (t[1:] ** (e + 1) - t[:-1] ** (e + 1)) / ((e + 1) * t[1:] ** e)
        drv = dr_values(nb.increments, grid, hp, m0)[:, :n]
        vals = drv ** 2 @ wq
        est = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(vals.size))
        closed = dr_energy_closed_form(hp, 1.0)
        target = discrete_dr_energy(grid, hp, m0, m0 + 1 + np.arange(n), wq)
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
        times, values = process_values(noise.increments, grid, H75, kind)
        assert times.shape == values.shape == (1, grid.main_steps + (kind != "DR_H"))
        assert np.array_equal(values[0], process_values(incs, grid, H75, kind)[1])  # a row is a path
    _, r5 = process_values(incs, grid, H5, "R_H")
    assert np.all(r5 == 0.0)
    with pytest.raises(ValueError, match="kind"):
        process_values(incs, grid, H75, "X_H")

    text = path_csv_string("B_H", H75.h, noise.seed, *process_values(incs, grid, H75, "B_H"))
    lines = text.splitlines()
    assert lines[0] == f"# kind=B_H h=0.75 seed={noise.seed}"
    assert lines[1] == "time,value"
    assert lines[2] == "0.0,0.0"
    # shortest-roundtrip floats: parsing back reproduces the values exactly
    t, v = lines[-1].split(",")
    assert float(v) == fbm_values(incs, grid, (H75,))[0, -1]

    # CLI simulate writes row 0 of the batch of one, for every kind; B is the h = 1/2 path
    grid_args = ["--steps", "512", "--warmup", "4.0"]
    for kind in KINDS:
        lines = _simulate(tmp_path, grid_args, noise.seed, kind, 0.75)
        assert lines[0] == f"# kind={kind} h={0.5 if kind == 'B' else 0.75} seed={noise.seed}"
        times, values = process_values(incs, grid, H75, kind)
        _check_csv_rows(lines, times, values)
        assert "\n".join(lines) + "\n" == path_csv_string(kind, 0.5 if kind == "B" else 0.75,
                                                          noise.seed, times, values)
    capsys.readouterr()


@given(seed=st.integers(0, 2 ** 31), kind=st.sampled_from(KINDS))
@settings(max_examples=10, deadline=None)
def test_csv_roundtrip_is_stable(seed, kind):
    g = make_grid(0.5, 64, warmup=1.0)
    times, values = process_values(generate_noise_batch(seed, g, 1).increments, g, H75, kind)
    args = (kind, 0.75, seed, times[0], values[0])
    assert path_csv_string(*args) == path_csv_string(*args)
    with tempfile.TemporaryDirectory() as tmp:
        lines = _simulate(tmp, ["--t", "0.5", "--steps", "64", "--warmup", "1.0"], seed, kind, 0.75)
    _check_csv_rows(lines, times[0], values[0])
