"""Integrand family: forecasts, projections, tower property, and the norms."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fbmdelay.noise
from fbmdelay.kernels import hurst_constant
from fbmdelay.experiments import DESK, cauchy_decay_study
from fbmdelay.integrands import (
    BrownianIntegrand,
    DeterministicIntegrand,
    FbmIntegrand,
    Integrand,
    IntegrandCapabilityError,
    PiecewisePredictableIntegrand,
    QuadraticBrownianIntegrand,
    RlFbmIntegrand,
    SegmentGrid,
    closed_form_x_norm,
    dyadic_projection,
    y_norm,
)
from fbmdelay.noise import generate_noise_batch, make_grid
from oracles import cell_widths, cond_exp, dyadic_cells, kernel_cell_averages, value, x_norm

GRID = make_grid(1.0, 512, warmup=2.0)
NOISE = generate_noise_batch(8, GRID, 1)
INCS = NOISE[0]  # the one path of NOISE
BATCH = generate_noise_batch(123, GRID, 800)


# ---------------------------------------------------------------------------
# contracts shared by the provided family
# ---------------------------------------------------------------------------

PRE_ORIGIN = SegmentGrid([-0.125, 0.5, 1.0])  # first freeze before the origin, at the near window's start

FAMILY = [
    DeterministicIntegrand.polynomial([0.5, -1.0, 2.0]),
    BrownianIntegrand(),
    FbmIntegrand(0.75),
    RlFbmIntegrand(0.7),
    QuadraticBrownianIntegrand(),
    *(PiecewisePredictableIntegrand(inner, PRE_ORIGIN)
      for inner in (BrownianIntegrand(), FbmIntegrand(0.75), RlFbmIntegrand(0.7),
                    QuadraticBrownianIntegrand())),
]


@pytest.mark.parametrize("gamma", FAMILY, ids=lambda g: g.spec_string())
def test_conditioning_at_t_is_identity(gamma):
    for t in (0.25, 0.5, 0.875):
        assert cond_exp(gamma, t, t, GRID, INCS) == pytest.approx(value(gamma, t, GRID, INCS), abs=1e-12)
        assert gamma.cond_var(t, t) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("gamma", FAMILY, ids=lambda g: g.spec_string())
def test_cond_exp_reads_only_past_increments(gamma):
    tau, t = 0.5, 0.875
    cut = GRID.index_of(tau)
    tweaked = INCS.copy()
    tweaked[cut:] = 3.14
    assert cond_exp(gamma, tau, t, GRID, INCS) == pytest.approx(cond_exp(gamma, tau, t, GRID, tweaked), abs=1e-12)


@pytest.mark.parametrize("gamma", FAMILY, ids=lambda g: g.spec_string())
def test_cell_values_match_scalar_value(gamma):
    cells = gamma.values_on_cells(GRID, NOISE)[0]
    for l in (0, 17, 255, 511):
        t = l * GRID.step
        assert cells[l] == pytest.approx(value(gamma, t, GRID, INCS), abs=1e-10)


def test_wiener_kernel_conditional_variances():
    b = BrownianIntegrand()
    assert b.cond_var(0.25, 0.75) == pytest.approx(0.5)
    f = FbmIntegrand(0.75)
    c = hurst_constant(0.75).c_h
    assert f.cond_var(0.25, 0.75) == pytest.approx(c ** 2 * 0.5 ** 1.5 / 1.5, rel=1e-12)
    rl = RlFbmIntegrand(0.7, start=0.25)
    assert rl.cond_var(0.0, 0.75) == rl.cond_var(0.25, 0.75)  # nothing known before the start


def test_wiener_kernel_cond_exp_is_truncated_integral():
    """value - forecast is the kernel's integral over the cells after tau: mean zero, and independent of the past.

    The remainder is linear in the cells, with the weights w it takes on the unit rows, so its second moment is
    sum width * w^2 exactly, and it is held to cond_var with no draw.  The cells that end by tau weigh 0, and
    changing them does not move the remainder.
    """
    f = FbmIntegrand(0.75)
    tau, t = 0.5, 1.0
    remainder = lambda row: value(f, t, GRID, row) - cond_exp(f, tau, t, GRID, row)  # noqa: E731
    reps = 600
    incs = generate_noise_batch(5150, GRID, reps)
    # evaluate at t = 1.0 via scalar calls on every path for exactness of the contract
    diffs = np.array([remainder(row) for row in incs])
    assert abs(np.mean(diffs)) <= 3 * float(np.std(diffs, ddof=1) / math.sqrt(reps))
    w = np.array([remainder(unit) for unit in np.eye(GRID.cell_count)])
    np.testing.assert_allclose(incs @ w, diffs, rtol=0, atol=1e-12)
    exact = float(np.sum(cell_widths(GRID) * w ** 2))
    assert abs(exact - f.cond_var(tau, t)) <= 0.01 * f.cond_var(tau, t)
    known = GRID.index_of(tau)  # the cells before this index end by tau
    assert not np.any(w[:known])
    moved = incs[:3].copy()
    moved[:, :known] = incs[3:6, :known]
    np.testing.assert_allclose([remainder(row) for row in moved], diffs[:3], rtol=0, atol=1e-12)


def _fbm_forecast_oracle(h1, a, j, incs):
    """E_a X(t_j) as a weight sum over the kernel's cell averages avg_i, each over its cell's own width:

    c (sum_{i < min(a, j)} avg_i (t_j - q)^p dB_i - sum_{i < min(a, m0)} avg_i (-q)^p dB_i).
    """
    hp1 = hurst_constant(h1)
    m0 = GRID.origin_index
    p1 = hp1.h + 0.5
    t = (j - m0) * GRID.step
    now, origin = min(a, j), min(a, m0)
    return hp1.c_h * (incs[..., :now] @ kernel_cell_averages(GRID, t, p1, now)
                      - incs[..., :origin] @ kernel_cell_averages(GRID, 0.0, p1, origin))


@pytest.mark.parametrize("h1", [0.5, 0.6, 0.75])
def test_fbm_forecast_before_origin_matches_weight_sum(h1):
    """E_tau B_H1(t) subtracts E_tau of the history value at the origin, in both paths.

    Subtracting the pathwise value instead gave E_{-1/4} X(1/2) = 0.409 where
    the weight sum gives 0.0508 (256 steps, warmup 2, seed 4).
    """
    gamma = FbmIntegrand(h1)
    m0 = GRID.origin_index
    incs = BATCH[:3]
    for tau in (-0.125, -0.0625, 0.0, 0.25):  # the near window's start, a point within it, the origin, after
        a = GRID.index_of(tau)
        cells = gamma.frozen_values_on_cells(GRID, incs, np.full(GRID.main_steps, a))
        for t in (0.0, 0.125, 0.5, 0.875):
            j = GRID.index_of(t)
            want = _fbm_forecast_oracle(h1, a, j, incs)
            np.testing.assert_allclose(cells[:, j - m0], want, rtol=0, atol=1e-12)
            assert cond_exp(gamma, tau, t, GRID, INCS) == pytest.approx(
                _fbm_forecast_oracle(h1, a, j, INCS), abs=1e-12)


def test_fbm_cond_var_before_origin_mc():
    """Var_tau B_H1(t) at tau = -1/8 carries the cells of (tau, 0) through (t-r)^p - (-r)^p."""
    gamma = FbmIntegrand(0.75)
    tau, t = -0.125, 0.5
    incs = BATCH
    freeze = np.full(GRID.main_steps, GRID.index_of(tau))
    l = GRID.index_of(t) - GRID.origin_index
    sq = (gamma.values_on_cells(GRID, incs)[:, l]
          - gamma.frozen_values_on_cells(GRID, incs, freeze)[:, l]) ** 2
    est, se = float(np.mean(sq)), float(np.std(sq, ddof=1) / math.sqrt(sq.size))
    want = gamma.cond_var(tau, t)
    assert abs(est - want) <= 3 * se + 0.01 * want
    assert gamma.cond_var(tau, tau) == 0.0
    assert gamma.cond_var(0.0, t) == pytest.approx(hurst_constant(0.75).c_h ** 2 * t ** 1.5 / 1.5)


def test_quadratic_brownian_contract():
    q = QuadraticBrownianIntegrand()
    tau, t = 0.25, 0.75
    b_tau = value(BrownianIntegrand(), tau, GRID, INCS)
    assert cond_exp(q, tau, t, GRID, INCS) == pytest.approx(b_tau ** 2 + (t - tau), abs=1e-12)
    assert q.cond_var(tau, t) == pytest.approx(4 * tau * (t - tau) + 2 * (t - tau) ** 2)
    assert q.second_moment(t) == pytest.approx(3 * t * t)
    # frozen before the origin, B(t)^2 is forecast from B(0) = 0 alone
    frozen = PiecewisePredictableIntegrand(q, PRE_ORIGIN)
    for t in (0.0, 0.125, 0.25, 0.375):
        assert value(frozen, t, GRID, INCS) == t


# ---------------------------------------------------------------------------
# dyadic projection
# ---------------------------------------------------------------------------

def test_projection_of_deterministic_is_unchanged():
    g = DeterministicIntegrand.constant(2.5)
    assert dyadic_projection(g, 5, GRID) is g


def test_projection_of_brownian_freezes_at_cell_starts():
    g = dyadic_projection(BrownianIntegrand(), 3, GRID)
    b = BrownianIntegrand()
    for t, tk in [(0.1, 0.0), (0.25, 0.25), (0.3, 0.25), (0.99, 0.875)]:
        assert value(g, t, GRID, INCS) == pytest.approx(value(b, tk, GRID, INCS), abs=1e-12)


def test_projection_is_piecewise_predictable_member():
    g = dyadic_projection(FbmIntegrand(0.75), 4, GRID)
    assert isinstance(g, PiecewisePredictableIntegrand)
    assert g.grid.min_spacing == pytest.approx(1.0 / 16)
    assert g.segment_predictable_on(SegmentGrid.dyadic(1.0, 4).breakpoints)
    assert g.segment_predictable_on(SegmentGrid.dyadic(1.0, 6).breakpoints)      # finer host
    assert not g.segment_predictable_on(SegmentGrid.dyadic(1.0, 2).breakpoints)  # coarser host


@given(n=st.integers(1, 6), m=st.integers(0, 6))
@settings(max_examples=20, deadline=None)
def test_tower_property_exact(n, m):
    if m > n:
        n, m = m, n
    gamma = FbmIntegrand(0.7)
    twice = PiecewisePredictableIntegrand(dyadic_projection(gamma, n, GRID),
                                          SegmentGrid.dyadic(1.0, m))
    once = dyadic_projection(gamma, m, GRID)
    incs = BATCH[:4]
    np.testing.assert_allclose(twice.values_on_cells(GRID, incs),
                               once.values_on_cells(GRID, incs), atol=1e-12)


def test_projection_error_second_moment_fbm():
    """E[(gamma(t) - gamma_n(t))^2] = c^2 (t - T_k)^(2H) / (2H) for the fbm member."""
    gamma = FbmIntegrand(0.75)
    n = 4
    proj = dyadic_projection(gamma, n, GRID)
    incs = BATCH
    diff = gamma.values_on_cells(GRID, incs) - proj.values_on_cells(GRID, incs)
    cells_per_seg = 512 // 2 ** n
    l = 7 * cells_per_seg + cells_per_seg // 2
    t, tk = l / 512, 7 / 16
    sq = diff[:, l] ** 2
    est, se = float(np.mean(sq)), float(np.std(sq, ddof=1) / math.sqrt(sq.shape[0]))
    want = gamma.cond_var(tk, t)
    assert abs(est - want) <= 3 * se + 0.02 * want


def test_projection_error_decay_slopes():
    """sup_t rms(gamma - gamma_n) decays like 2^(-n (1+nu)/2); fitted within 15%."""
    for gamma, nu in [(BrownianIntegrand(), 0.0), (FbmIntegrand(0.75), 0.5)]:
        rms = []
        levels = range(2, 7)
        vals = gamma.values_on_cells(GRID, BATCH)
        for n in levels:
            proj = dyadic_projection(gamma, n, GRID)
            diff = vals - proj.values_on_cells(GRID, BATCH)
            rms.append(math.sqrt(float(np.max(np.mean(diff ** 2, axis=0)))))
        slope = -np.polyfit(list(levels), np.log2(rms), 1)[0]
        assert slope == pytest.approx((1 + nu) / 2, rel=0.15)


@pytest.mark.parametrize("gamma", FAMILY, ids=lambda g: g.spec_string())
def test_dyadic_cells_equal_per_level_projections(gamma):
    """The levels computed from one path are byte-equal to one projection per level."""
    incs = BATCH[:16]
    levels = (3, 0, 6, 2)
    got = list(dyadic_cells(gamma, GRID, incs, levels))  # every level held at once: no aliasing
    assert len(got) == len(levels)
    for n, cells in zip(levels, got):
        want = dyadic_projection(gamma, n, GRID).values_on_cells(GRID, incs)
        assert cells.shape == want.shape
        assert cells.tobytes() == want.tobytes()


STEPPED = [BrownianIntegrand(), FbmIntegrand(0.75), RlFbmIntegrand(0.7), QuadraticBrownianIntegrand(),
           RlFbmIntegrand(0.7, 0.3125), RlFbmIntegrand(0.7, -0.125)]
LEVELS = range(0, 7)  # segments of 512 down to 8 cells: Toeplitz blocks of 256 down to 4


def _level_step_rows(steps: np.ndarray) -> np.ndarray:
    """Per row, one flat vector of every segment's second half."""
    return steps.reshape(steps.shape[:-2] + (-1,))


@pytest.mark.parametrize("gamma", STEPPED, ids=lambda g: g.spec_string())
def test_level_steps_are_differences_of_projections(gamma):
    """gamma_(m+1) - gamma_m on the second halves, within 1e-12 of the summed |terms|; 0 on the first halves."""
    incs = BATCH[:16]
    cells = list(dyadic_cells(gamma, GRID, incs, LEVELS))
    steps = list(gamma.level_steps(GRID, incs, LEVELS))
    assert len(steps) == len(LEVELS) - 1
    for m, step in zip(LEVELS, steps):
        h = GRID.main_steps >> (m + 1)
        assert step.shape == (16, 2 ** m, h)
        coarse, fine = cells[m], cells[m + 1]
        halves = (fine - coarse).reshape(16, 2 ** m, 2, h)
        scale = 1e-12 * np.sum(np.abs(fine) + np.abs(coarse), axis=-1)
        assert np.all(_level_step_rows(np.abs(halves[..., 0, :])).sum(axis=-1) <= scale), m
        assert np.all(_level_step_rows(np.abs(step - halves[..., 1, :])).sum(axis=-1) <= scale), m


@pytest.mark.parametrize("gamma", STEPPED, ids=lambda g: g.spec_string())
def test_level_steps_bytes_do_not_depend_on_the_batch(gamma):
    """A row's level steps are the same bytes in batches of 1, 7 and 33 rows."""
    incs = BATCH[:33]
    whole = list(gamma.level_steps(GRID, incs, LEVELS))
    for rows in (1, 7):
        for part, full in zip(gamma.level_steps(GRID, incs[:rows], LEVELS), whole):
            assert part.tobytes() == full[:rows].tobytes()


@pytest.mark.parametrize("gamma", [BrownianIntegrand(), FbmIntegrand(0.75), RlFbmIntegrand(0.7, 0.3125),
                                   QuadraticBrownianIntegrand()], ids=lambda g: g.spec_string())
@given(first=st.integers(4, len(BATCH) - 4))
@settings(max_examples=5, deadline=None)
def test_level_steps_read_no_cell_before_the_origin(gamma, first):
    """Other normals in every cell before the origin leave each level step byte for byte: the decay study,
    which reads an integrand only through them, needs no history for it, fbm:0.75 included."""
    incs, m0 = BATCH[:4], GRID.origin_index
    other = incs.copy()
    other[:, :m0] = BATCH[first:first + 4, :m0]  # the history of four other rows
    assert not np.any(other[:, :m0] == incs[:, :m0])
    for got, want in zip(gamma.level_steps(GRID, other, LEVELS), gamma.level_steps(GRID, incs, LEVELS)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("gamma", [FbmIntegrand(0.75), RlFbmIntegrand(0.7)], ids=lambda g: g.spec_string())
def test_level_steps_fft_branch_agrees_with_the_toeplitz_branch(gamma, monkeypatch):
    """With no Toeplitz block allowed every level step is one FFT, within 1e-12 of the summed |terms|.

    The kernel is positive, so the step of |incs| is the sum of |terms| of each cell's product.
    """
    incs = BATCH[:8]
    toeplitz = list(gamma.level_steps(GRID, incs, LEVELS))
    terms = list(gamma.level_steps(GRID, np.abs(incs), LEVELS))
    monkeypatch.setattr(fbmdelay.noise, "_TOEPLITZ_MAX", 0)
    for fft, want, scale in zip(gamma.level_steps(GRID, incs, LEVELS), toeplitz, terms):
        assert fft.shape == want.shape
        assert np.all(_level_step_rows(np.abs(fft - want)).sum(axis=-1) <= 1e-12 * _level_step_rows(scale).sum(axis=-1))


def test_coarse_levels_at_desk_scale_build_no_half_grid_matrix():
    """Levels 0..2 on the desk grid (2,048-cell halves at level 0) stay far below one (N/2)^2 matrix."""
    matrix = (DESK.main_steps // 2) ** 2 * 8
    tracemalloc.start()
    try:
        cauchy_decay_study("fbm:0.75", hurst_constant(0.6), range(0, 3), 2, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < matrix / 2


@pytest.mark.parametrize("gamma", FAMILY, ids=lambda g: g.spec_string())
def test_cell_values_are_c_ordered(gamma):
    """Cell values come out C-ordered, so row-wise reductions over cells read contiguous rows.

    Indexing the last axis with an index array gave bm, bm2 and pp:bm cells
    strides (8, 64).
    """
    incs = BATCH[:8]
    freezes = [PiecewisePredictableIntegrand(gamma, grid).freeze_index_per_cell(GRID)
               for grid in (PRE_ORIGIN, SegmentGrid.dyadic(1.0, 2))]
    arrays = [gamma.values_on_cells(GRID, incs),
              *(gamma.frozen_values_on_cells(GRID, incs, f) for f in freezes),
              *dyadic_cells(gamma, GRID, incs, (0, 3))]
    for cells in arrays:
        assert cells.shape == (8, GRID.main_steps) and cells.flags.c_contiguous


@pytest.mark.parametrize("h1", [0.6, 0.75])
def test_forecast_runs_match_weight_sum(h1):
    """Runs that freeze at their own start (one block convolution) match the weight sum in every run."""
    gamma = FbmIntegrand(h1)
    m0 = GRID.origin_index
    incs = BATCH[:3]
    bps = (0.0, 0.125, 0.3125, 0.5, 1.0)
    frozen = PiecewisePredictableIntegrand(gamma, SegmentGrid(bps))
    cells = frozen.values_on_cells(GRID, incs)
    for a, b in zip(bps[:-1], bps[1:]):
        for t in (a, 0.5 * (a + b), b - GRID.step):
            j = GRID.index_of(t)
            want = _fbm_forecast_oracle(h1, GRID.index_of(a), j, incs)
            np.testing.assert_allclose(cells[:, j - m0], want, rtol=0, atol=1e-12)


def test_projection_validation():
    class NoRule(Integrand):
        """Values on cells, but no forecast rule."""

        def values_on_cells(self, grid, incs):
            return np.zeros(incs.shape[:-1] + (grid.main_steps,))

    with pytest.raises(IntegrandCapabilityError, match="NoRule has no conditional-expectation rule"):
        dyadic_projection(NoRule(), 3, GRID).values_on_cells(GRID, NOISE)
    with pytest.raises(ValueError):
        dyadic_projection(BrownianIntegrand(), 3, None)
    with pytest.raises(ValueError):
        dyadic_projection(BrownianIntegrand(), 12, GRID)  # 2^12 segments > 512 cells


# ---------------------------------------------------------------------------
# segment grids
# ---------------------------------------------------------------------------

def test_segment_grid_construction():
    g = SegmentGrid.dyadic(2.0, 3)
    assert g.n_segments == 8
    assert g.breakpoints[0] == 0.0 and g.breakpoints[-1] == 2.0
    assert g.min_spacing == pytest.approx(0.25)
    u = SegmentGrid.uniform(1.0, 5)
    assert u.n_segments == 5


@given(pts=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6, unique=True))
@settings(max_examples=40, deadline=None)
def test_segment_grid_accepts_sorted_rejects_else(pts):
    pts = sorted(pts)
    gaps = np.diff(pts)
    if len(pts) >= 2 and np.all(gaps > 0):
        g = SegmentGrid(pts)
        assert g.breakpoints == tuple(pts)
        assert g.min_spacing == pytest.approx(float(gaps.min()))
    if len(pts) >= 3:
        with pytest.raises(ValueError):
            SegmentGrid([pts[0], pts[0]] + pts[1:])


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_x_norm_trivial_cases():
    zero = DeterministicIntegrand.constant(0.0)
    one = DeterministicIntegrand.constant(1.0)
    v0, _ = x_norm(zero, GRID, BATCH)
    v1, _ = x_norm(one, GRID, BATCH)
    assert v0 == 0.0
    assert v1 == pytest.approx(1.0, rel=1e-9)
    with pytest.raises(ValueError):
        x_norm(one, GRID, generate_noise_batch(8, GRID, 1))


def test_x_norm_brownian():
    est, se = x_norm(BrownianIntegrand(), GRID, BATCH)
    assert abs(est - math.sqrt(0.5)) <= 3 * se + 0.01


@pytest.mark.parametrize("gamma", FAMILY + [DeterministicIntegrand.constant(1.0)], ids=lambda g: g.spec_string())
def test_closed_form_x_norm_is_the_sum_of_second_moments(gamma):
    """(step * sum_l E gamma(t_l)^2)^(1/2) from one scalar call per cell time, to the last bit."""
    total = sum(gamma.second_moment(float(t)) for t in GRID.step * np.arange(GRID.main_steps))
    assert closed_form_x_norm(gamma, GRID) == math.sqrt(total * GRID.step)


def test_freeze_time_is_the_last_breakpoint_at_or_before_t():
    """On [T_k, T_k+1) the freeze is T_k; before T_0 it is T_0, and from T_n on T_n-1."""
    gamma = PiecewisePredictableIntegrand(BrownianIntegrand(), PRE_ORIGIN)
    for t, want in ((-1.0, -0.125), (-0.125, -0.125), (0.0, -0.125), (0.5, 0.5), (0.75, 0.5), (1.0, 0.5), (2.0, 0.5)):
        assert gamma.freeze_time(t) == want


def test_y_norm_deterministic_is_x_part():
    g = DeterministicIntegrand.constant(1.0)
    res = y_norm(g, 0.0, 0.25, GRID)
    assert res.value == pytest.approx(res.x_part) == pytest.approx(1.0, rel=1e-6)
    assert not res.diverges


def test_y_norm_brownian_nu0_exact_ratio():
    res = y_norm(BrownianIntegrand(), 0.0, 0.25, GRID)
    # Var_tau B(t) = t - tau exactly, so the ratio is identically 1
    assert res.ratio_sup == pytest.approx(1.0, rel=1e-9)
    assert res.value == pytest.approx(res.x_part + 1.0, rel=1e-9)
    assert not res.diverges


def test_y_norm_brownian_positive_nu_blows_up():
    res = y_norm(BrownianIntegrand(), 0.5, 0.25, GRID)
    assert res.diverges
    assert res.ratio_slope < -0.2


def test_y_norm_fbm_class_boundary():
    gamma = FbmIntegrand(0.75)
    at_nu = y_norm(gamma, 2 * 0.75 - 1.0, 0.25, GRID)
    assert not at_nu.diverges
    c = hurst_constant(0.75).c_h
    assert at_nu.ratio_sup == pytest.approx(c / math.sqrt(1.5), rel=1e-9)
    above = y_norm(gamma, 0.75, 0.25, GRID)
    assert above.diverges
