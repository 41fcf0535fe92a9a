"""Delayed integral: exact pathwise identities, baselines, and the extension."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fbmdelay.integrands
import fbmdelay.integrator
from fbmdelay.experiments import _integration_plan, parse_integrand
from fbmdelay.kernels import hurst_constant
from fbmdelay.integrands import (
    BrownianIntegrand,
    DeterministicIntegrand,
    FbmIntegrand,
    PiecewisePredictableIntegrand,
    QuadraticBrownianIntegrand,
    SegmentGrid,
    dyadic_projection,
    y_norm,
)
from fbmdelay.integrator import (
    MIN_CELLS_PER_SEGMENT,
    _segment_lattice_indices,
    delayed_integral_batch,
    delayed_parts_for_cells,
    delayed_segment,
    extended_integral,
    ito_integral_batch,
    noise_transforms,
    result_record,
    riemann_fbm_integral_batch,
)
from fbmdelay.noise import (
    avg_kernel_table,
    block_conv,
    fbm_values,
    generate_noise_batch,
    make_grid,
)
from oracles import one_segment_delayed, per_segment_parts, value as path_value
from test_integrands import FAMILY

GRID = make_grid(1.0, 512, warmup=2.0)
ONE_PATH = generate_noise_batch(40, GRID, 1)  # a batch of one
INCS = ONE_PATH.increments[0]  # its path
H6 = hurst_constant(0.6)
H75 = hurst_constant(0.75)
H9 = hurst_constant(0.9)
H5 = hurst_constant(0.5)
ONE = DeterministicIntegrand.constant(1.0)


def _bh(hp):
    """B_H on the lattice of [0, 1] along INCS."""
    return fbm_values(INCS, GRID, (hp,))[0]


def _integral(gamma, seg, hp):
    """(value, ito, tail, cross) of the delayed integral on INCS, as floats."""
    return tuple(float(p[0]) for p in delayed_integral_batch(gamma, seg, ONE_PATH, hp))


# ---------------------------------------------------------------------------
# exact pathwise identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("hp", [H6, H75, H9], ids=lambda h: f"h{h.h}")
@pytest.mark.parametrize("level", [0, 2, 5])
def test_telescoping_identity(hp, level):
    """Delayed integral of 1 equals the fbm increment, per path, any grid."""
    bh = _bh(hp)
    value = _integral(ONE, SegmentGrid.dyadic(1.0, level), hp)[0]
    want = bh[-1] - bh[0]
    assert abs(value - want) <= 1e-9 * max(abs(want), 1e-3)


def test_decomposition_identity_every_path():
    nb = generate_noise_batch(41, GRID, 32)
    seg = SegmentGrid.dyadic(1.0, 4)
    gamma = dyadic_projection(FbmIntegrand(0.75), 4, GRID)
    value, ito, tail, cross = delayed_integral_batch(gamma, seg, nb, H6)
    np.testing.assert_allclose(value, ito + tail + cross, atol=1e-13)
    assert np.all(np.abs(tail) > 0)  # history genuinely contributes at h > 1/2


@given(seed=st.integers(0, 2 ** 20), level=st.integers(1, 5))
@settings(max_examples=15, deadline=None)
def test_piecewise_constant_equals_riemann_sum(seed, level):
    rng = np.random.default_rng(seed)
    n_seg = 2 ** level
    vals = rng.standard_normal(n_seg)
    gamma = DeterministicIntegrand(
        fn=lambda t, v=vals, n=n_seg: v[np.minimum((np.asarray(t, dtype=float) * n).astype(int), n - 1)],
        label="pc")
    value = _integral(gamma, SegmentGrid.dyadic(1.0, level), H75)[0]
    bh = _bh(H75)
    riem = float(np.sum(vals * np.diff(bh[:: 512 // n_seg])))
    assert abs(value - riem) <= 1e-9 * max(abs(riem), 1e-3)


@st.composite
def _lattice_breakpoints(draw):
    """Lattice indices 0 = i_0 < ... < i_n = 512 of a random non-uniform segment grid of [0, 1].

    Every segment has at least MIN_CELLS_PER_SEGMENT fine cells.
    """
    n = GRID.main_steps
    gaps = draw(st.lists(st.integers(MIN_CELLS_PER_SEGMENT, n // 4), min_size=1, max_size=12))
    cuts = np.cumsum(gaps)
    return np.concatenate([[0], cuts[cuts <= n - MIN_CELLS_PER_SEGMENT], [n]])


@given(idx=_lattice_breakpoints(), h=st.floats(0.5, 0.99), seed=st.integers(0, 2 ** 16))
@settings(max_examples=20, deadline=None)
def test_identities_hold_on_random_segment_grids(idx, h, seed):
    """Telescoping and piecewise-constant/Riemann identities on non-uniform grids, for any h."""
    hp = hurst_constant(h)
    seg = SegmentGrid(idx / GRID.main_steps)
    bh = _bh(hp)
    value = _integral(ONE, seg, hp)[0]
    want = bh[-1] - bh[0]
    assert abs(value - want) <= 1e-9 * max(abs(want), 1e-3)

    vals = np.random.default_rng(seed).standard_normal(seg.n_segments)
    bps = np.asarray(seg.breakpoints)
    gamma = DeterministicIntegrand(fn=lambda t: vals[np.searchsorted(bps, t, side="right") - 1],
                                   label="pc")
    value = _integral(gamma, seg, hp)[0]
    riem = float(np.sum(vals * np.diff(bh[idx])))
    assert abs(value - riem) <= 1e-9 * max(abs(riem), 1e-3)


def test_brownian_case_is_left_point_ito_sum():
    gamma = dyadic_projection(QuadraticBrownianIntegrand(), 3, GRID)
    value, _, tail, cross = _integral(gamma, SegmentGrid.dyadic(1.0, 3), H5)
    assert tail == 0.0 and cross == 0.0
    cells = gamma.values_on_cells(GRID, ONE_PATH.increments)[0]
    ito = float(np.sum(cells * INCS[GRID.origin_index:]))
    assert value == pytest.approx(ito, abs=1e-12)


def test_linearity_per_path():
    g1 = dyadic_projection(BrownianIntegrand(), 4, GRID)
    g2 = dyadic_projection(FbmIntegrand(0.6), 4, GRID)
    seg = SegmentGrid.dyadic(1.0, 4)
    v1 = _integral(g1, seg, H75)[0]
    v2 = _integral(g2, seg, H75)[0]

    class Combo(PiecewisePredictableIntegrand):
        def values_on_cells(self, grid, incs):
            return 2.0 * g1.values_on_cells(grid, incs) - 0.5 * g2.values_on_cells(grid, incs)

    combo = Combo(BrownianIntegrand(), SegmentGrid.dyadic(1.0, 4))
    got = _integral(combo, seg, H75)[0]
    assert got == pytest.approx(2.0 * v1 - 0.5 * v2, abs=1e-11)


def test_additivity_under_grid_refinement():
    """Inserting breakpoints where gamma is already measurable leaves the value unchanged."""
    gamma = dyadic_projection(FbmIntegrand(0.75), 2, GRID)
    coarse = _integral(gamma, SegmentGrid.dyadic(1.0, 2), H75)[0]
    fine = _integral(gamma, SegmentGrid.dyadic(1.0, 6), H75)[0]
    uneven = _integral(gamma, SegmentGrid([0.0, 0.25, 0.3125, 0.5, 0.75, 1.0]), H75)[0]
    assert coarse == pytest.approx(fine, abs=1e-12)
    assert coarse == pytest.approx(uneven, abs=1e-12)


def test_measurability_is_enforced():
    fine_gamma = dyadic_projection(FbmIntegrand(0.75), 5, GRID)
    with pytest.raises(ValueError, match="not measurable"):
        _integral(fine_gamma, SegmentGrid.dyadic(1.0, 3), H75)
    raw = BrownianIntegrand()
    with pytest.raises(ValueError, match="not measurable"):
        _integral(raw, SegmentGrid.dyadic(1.0, 3), H75)


def test_degenerate_segments_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        _integral(ONE, SegmentGrid.dyadic(1.0, 9), H75)  # 1 cell per segment
    with pytest.raises(ValueError, match="origin"):
        _integral(ONE, SegmentGrid([0.25, 1.0]), H75)


def test_truncation_budget_reported():
    seg = SegmentGrid.dyadic(1.0, 0)
    parts = delayed_integral_batch(ONE, seg, ONE_PATH, H75)
    rec = result_record(parts, seg, GRID, H75, ONE_PATH.seed)
    assert rec["truncation_budget"] > 0.0
    assert rec["value"] == parts[0][0]
    assert rec["grid"]["breakpoints"] == [0.0, 1.0]


# ---------------------------------------------------------------------------
# single segment
# ---------------------------------------------------------------------------

def test_delayed_segment_examples():
    assert delayed_segment(DeterministicIntegrand.constant(0.0), 0.25, 0.75, ONE_PATH, H75)[0] == 0.0
    bh = _bh(H9)
    got = delayed_segment(ONE, 0.25, 0.75, ONE_PATH, H9)[0]
    want = bh[GRID.index_of(0.75) - GRID.origin_index] - bh[GRID.index_of(0.25) - GRID.origin_index]
    assert got == pytest.approx(want, abs=1e-10)


def test_delayed_segment_freezes_the_integrand():
    """A non-predictable integrand is integrated through its forecast at the segment start."""
    gamma = BrownianIntegrand()
    got = delayed_segment(gamma, 0.25, 0.75, ONE_PATH, H75)[0]
    frozen = PiecewisePredictableIntegrand(gamma, SegmentGrid([0.25, 1.0]))
    # reference: one-segment grid starting at 0.25 handled via the generic path on [0, T]
    b_at_start = path_value(gamma, 0.25, GRID, INCS)
    bh = _bh(H75)
    i0, i1 = GRID.index_of(0.25) - GRID.origin_index, GRID.index_of(0.75) - GRID.origin_index
    assert got == pytest.approx(b_at_start * (bh[i1] - bh[i0]), abs=1e-10)


def test_delayed_segment_brownian_case():
    got = delayed_segment(BrownianIntegrand(), 0.25, 0.75, ONE_PATH, H5)[0]
    b = np.concatenate([[0.0], np.cumsum(INCS[GRID.origin_index:])])
    i0, i1 = GRID.index_of(0.25) - GRID.origin_index, GRID.index_of(0.75) - GRID.origin_index
    want = b[i0] * (b[i1] - b[i0])
    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("hp", [H5, H6, H9], ids=lambda hp: f"h={hp.h}")
@pytest.mark.parametrize("gamma", [ONE, BrownianIntegrand(), FbmIntegrand(0.7), QuadraticBrownianIntegrand(),
                                   PiecewisePredictableIntegrand(BrownianIntegrand(), SegmentGrid.dyadic(1.0, 3))],
                         ids=lambda g: g.spec_string())
def test_delayed_segment_matches_the_one_segment_assembly(gamma, hp):
    """The value part on (0, seg_end) with zeros before seg_start equals the segment's own assembly."""
    batch = generate_noise_batch(41, GRID, 3)
    for start, end in ((0.0, 0.5), (0.25, 0.75), (0.3125, 1.0)):
        got = delayed_segment(gamma, start, end, batch, hp)
        want = one_segment_delayed(gamma, start, end, batch, hp)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_value_part_does_not_depend_on_the_segment_grid():
    """Two segment grids with the same end give the same value part, byte for byte."""
    batch = generate_noise_batch(41, GRID, 3)
    cells = np.random.default_rng(5).standard_normal((3, GRID.main_steps))
    for hp in (H5, H75):
        one = delayed_parts_for_cells(cells, SegmentGrid((0.0, 0.75)), batch, hp)[0]
        three = delayed_parts_for_cells(cells, SegmentGrid((0.0, 0.25, 0.3125, 0.75)), batch, hp)[0]
        assert one.tobytes() == three.tobytes()


def test_delayed_segment_refuses_bad_segments():
    with pytest.raises(ValueError, match="seg_start=-0.25"):
        delayed_segment(ONE, -0.25, 0.5, ONE_PATH, H75)
    with pytest.raises(ValueError, match="degenerate"):
        delayed_segment(ONE, 0.5, 0.5 + GRID.step, ONE_PATH, H75)


def test_history_fields_vanish_at_the_brownian_value():
    """Only h = 1/2 gives no fields; a list mixing it with h > 1/2 is refused."""
    end = GRID.cell_count
    assert noise_transforms(GRID, INCS, (H5, H5), end) == (None, None)
    with pytest.raises(ValueError, match="running sum"):
        noise_transforms(GRID, INCS, (H75, H5), end)


@pytest.mark.parametrize("spec", ["det:const:1.0", "pp:bm:8", "fbm:0.75"])
@pytest.mark.parametrize("horizon", [1.0, 0.7])
def test_brownian_value_is_exactly_the_ito_sum(spec, horizon):
    """At h = 1/2 the value and the Ito part are sum gamma dB to the last bit, on any step."""
    grid = make_grid(horizon, 512, warmup=2.0)
    gamma, seg = _integration_plan(parse_integrand(spec, horizon), grid, 4)
    batch = generate_noise_batch(3, grid, 16)
    value, ito, tail, cross = delayed_integral_batch(gamma, seg, batch, H5)
    want = ito_integral_batch(gamma, batch)
    assert value.tobytes() == want.tobytes() and ito.tobytes() == want.tobytes()
    assert not np.any(tail) and not np.any(cross)


# ---------------------------------------------------------------------------
# classical baselines
# ---------------------------------------------------------------------------

def test_ito_integral_constant_and_zero():
    assert ito_integral_batch(DeterministicIntegrand.constant(0.0), ONE_PATH)[0] == 0.0
    b_t = float(np.sum(INCS[GRID.origin_index:]))
    assert ito_integral_batch(DeterministicIntegrand.constant(2.0), ONE_PATH)[0] == pytest.approx(
        2 * b_t, abs=1e-12)


def test_ito_integral_brownian_discrete_identity_and_refinement():
    """2 int B dB = B(T)^2 - [B]_T exactly; [B]_T -> T under refinement."""
    for steps in (256, 4096):
        g = make_grid(1.0, steps)
        noise = generate_noise_batch(11, g, 1)
        got = ito_integral_batch(BrownianIntegrand(), noise)[0]
        b = np.concatenate([[0.0], np.cumsum(noise.increments[0])])
        qv = float(np.sum(noise.increments[0] ** 2))
        assert 2 * got == pytest.approx(b[-1] ** 2 - qv, abs=1e-10)
    # with the finer grid the quadratic variation concentrates at T
    gf = make_grid(1.0, 4096)
    qv_f = float(np.sum(generate_noise_batch(11, gf, 1).increments ** 2))
    assert abs(qv_f - 1.0) < 0.1


def test_riemann_fbm_telescoping_and_identity():
    for n in (8, 64, 512):
        got = riemann_fbm_integral_batch(ONE, n, ONE_PATH, H75)[0]
        bh = _bh(H75)
        assert got == pytest.approx(bh[-1] - bh[0], abs=1e-10)
    # left-point sums of B_H against itself: 2 sum = B_H(T)^2 - sum dBH^2, exact per path
    gamma = FbmIntegrand(0.75)
    bh = _bh(H75)
    for n in (8, 64, 512):
        got = riemann_fbm_integral_batch(gamma, n, ONE_PATH, H75)[0]
        coarse = bh[:: 512 // n]
        qv = float(np.sum(np.diff(coarse) ** 2))
        assert 2 * got == pytest.approx(bh[-1] ** 2 - qv, abs=1e-10)


def test_riemann_fbm_brownian_case_matches_ito():
    got = riemann_fbm_integral_batch(BrownianIntegrand(), 512, ONE_PATH, H5)[0]
    assert got == pytest.approx(ito_integral_batch(BrownianIntegrand(), ONE_PATH)[0], abs=1e-12)


def test_riemann_fbm_validates_steps():
    with pytest.raises(ValueError):
        riemann_fbm_integral_batch(ONE, 500, ONE_PATH, H75)


# ---------------------------------------------------------------------------
# the extension
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ensemble():
    return generate_noise_batch(21024, GRID, 200)


def test_extension_trace_for_brownian(ensemble):
    trace = extended_integral(BrownianIntegrand(), H6, ensemble, tol=1e-9, n_max=8, n_start=2)
    assert not trace.converged  # nu = 0: slow geometric decay cannot hit 1e-9
    assert np.all(trace.gaps >= 0.0)
    assert trace.target_rate == pytest.approx(0.1)
    assert 0.0 < trace.fitted_rate < 0.6
    assert trace.stopping_level == 8
    assert trace.samples.shape == (7, 200)


def test_extension_converges_with_loose_tol(ensemble):
    trace = extended_integral(BrownianIntegrand(), H6, ensemble, tol=0.5, n_max=8)
    assert trace.converged
    assert trace.gaps[-1] < 0.5
    assert trace.stopping_level < 8


def test_extension_computes_history_transforms_once(ensemble, monkeypatch):
    """One noise_transforms call per extension; the trace equals level-by-level evaluation."""
    calls = []
    real = fbmdelay.integrator.noise_transforms
    monkeypatch.setattr(fbmdelay.integrator, "noise_transforms",
                        lambda *args: calls.append(args) or real(*args))
    gamma = FbmIntegrand(0.75)
    trace = extended_integral(gamma, H6, ensemble, tol=1e-9, n_max=6)
    assert len(calls) == 1
    assert trace.levels == (1, 2, 3, 4, 5, 6)
    for n, samples in zip(trace.levels, trace.samples):
        own, _, _, _ = delayed_integral_batch(dyadic_projection(gamma, n, GRID),
                                              SegmentGrid.dyadic(1.0, n), ensemble, H6)
        assert np.array_equal(samples, own)
    assert len(calls) == 1 + len(trace.levels)  # level by level, each call pays for its own


def test_extension_computes_one_path_and_stops_the_levels(ensemble, monkeypatch):
    """One full-lattice fbm path per ensemble; levels past the stopping level are not computed."""
    m0, n = GRID.origin_index, GRID.cell_count
    paths, computed = [], []
    real_conv = fbmdelay.integrands.history_conv
    real_cells = FbmIntegrand.dyadic_cells

    def conv_spy(incs, table, cells, outputs):
        if (tuple(cells), tuple(outputs)) == ((0, n), (m0, n)):
            paths.append(cells)
        return real_conv(incs, table, cells, outputs)

    def cells_spy(self, grid, incs, levels):
        for level, cells in zip(levels, real_cells(self, grid, incs, levels)):
            computed.append(level)
            yield cells

    monkeypatch.setattr(fbmdelay.integrands, "history_conv", conv_spy)
    monkeypatch.setattr(FbmIntegrand, "dyadic_cells", cells_spy)
    trace = extended_integral(FbmIntegrand(0.75), H6, ensemble, tol=0.05, n_max=8)
    assert trace.converged and trace.stopping_level < 8
    assert computed == list(trace.levels)
    assert len(paths) == 1  # tol is given, so x_norm draws no path of its own


@pytest.mark.parametrize("hp", [H5, H6], ids=lambda h: f"h{h.h}")
@pytest.mark.parametrize("seg", [SegmentGrid.dyadic(1.0, 4),
                                 SegmentGrid([0.0, 0.125, 0.3125, 0.5, 0.875, 1.0])],
                         ids=["dyadic4", "nonuniform"])
def test_stacked_assembly_equals_single_calls(hp, seg):
    """Integrands stacked on a leading axis assemble to the bytes of one call each."""
    batch = generate_noise_batch(77, GRID, 24)
    cells = np.stack([PiecewisePredictableIntegrand(inner, seg).values_on_cells(GRID, batch.increments)
                      for inner in (FbmIntegrand(0.75), QuadraticBrownianIntegrand())])
    stacked = delayed_parts_for_cells(cells, seg, batch, hp)
    for k in range(2):
        single = delayed_parts_for_cells(cells[k], seg, batch, hp)
        for got, want in zip(stacked, single):
            assert got.shape == (2, 24) and want.shape == (24,)
            assert got[k].tobytes() == want.tobytes()


PARTS_BATCH = generate_noise_batch(5, GRID, 6)


@given(gamma=st.sampled_from(FAMILY), h=st.sampled_from([0.5, 0.51, 0.75, 0.95]),
       level=st.integers(0, 8), gaps=st.lists(st.integers(2, 120), min_size=1, max_size=8),
       uniform=st.booleans())
@example(gamma=FAMILY[-3], h=0.75, level=0, gaps=[100, 3, 250], uniform=False)  # pp:fbm, pre-origin
@settings(max_examples=120, deadline=None)
def test_parts_match_the_per_segment_assembly(gamma, h, level, gaps, uniform):
    """(value, ito, tail, cross) from the increment fields equal the per-segment assembly.

    The tolerance is 1e-12 of the integral's summands in absolute value:
    sum over cells of |gamma| times the three fields.
    """
    if uniform:
        seg = SegmentGrid.dyadic(1.0, level)
    else:
        cuts = np.cumsum(gaps)
        seg = SegmentGrid([0.0, *(cuts[cuts <= GRID.main_steps] / GRID.main_steps)])
    hp = hurst_constant(h)
    incs = PARTS_BATCH.increments
    cells = PiecewisePredictableIntegrand(gamma, seg).values_on_cells(GRID, incs)
    got = delayed_parts_for_cells(cells, seg, PARTS_BATCH, hp)
    seg_idx = _segment_lattice_indices(GRID, seg)
    want = per_segment_parts(cells, seg_idx, GRID, incs, hp)
    m0, end = GRID.origin_index, int(seg_idx[-1])
    d_table = np.diff(hp.c_h * avg_kernel_table(hp, end - m0, GRID.step))
    fields = np.abs(block_conv(incs[:, m0:end], d_table, seg_idx - m0))
    if not hp.is_brownian:
        fields += sum(np.abs(f[0]) for f in noise_transforms(GRID, incs, (hp,), end))
    size = np.sum(np.abs(cells[:, :end - m0]) * fields, axis=-1)
    for g, w in zip(got, want):
        assert np.all(np.abs(g - w) <= 1e-12 * size)


def test_extension_deterministic_collapses(ensemble):
    trace = extended_integral(ONE, H75, ensemble, n_max=6)
    assert trace.converged
    assert trace.gaps[-1] <= 1e-12
    single = _integral(ONE, SegmentGrid.dyadic(1.0, 1), H75)[0]
    # limit equals the single-segment value on a common path
    own = delayed_integral_batch(ONE, SegmentGrid.dyadic(1.0, trace.stopping_level),
                                 ensemble, H75)[0]
    assert float(np.mean(own - trace.samples[-1])) == pytest.approx(0.0, abs=1e-12)
    assert single == pytest.approx(_bh(H75)[-1], abs=1e-10)


def test_first_moment_bound_across_family(ensemble):
    """E|I_H(gamma)| / ||gamma|| stays within 3x of the family median (and the
    h-dependence of the ratio at nu = 0 is reported, not asserted)."""
    eps = 1.0 / 64
    seg = SegmentGrid.dyadic(1.0, 6)
    ratios = {}
    for gamma in [DeterministicIntegrand.constant(1.0), BrownianIntegrand(),
                  QuadraticBrownianIntegrand(), FbmIntegrand(0.75)]:
        frozen = dyadic_projection(gamma, 6, GRID)
        vals, _, _, _ = delayed_integral_batch(frozen, seg, ensemble, H75)
        norm = y_norm(gamma, 0.0, eps, GRID).value
        ratios[gamma.spec_string()] = float(np.mean(np.abs(vals))) / norm
    med = float(np.median(list(ratios.values())))
    assert max(ratios.values()) <= 3.0 * med
    for h in (0.51, 0.75, 0.9):
        frozen = dyadic_projection(BrownianIntegrand(), 6, GRID)
        vals, _, _, _ = delayed_integral_batch(frozen, seg, ensemble, hurst_constant(h))
        print(f"nu=0 operator ratio at h={h}: "
              f"{float(np.mean(np.abs(vals))) / y_norm(BrownianIntegrand(), 0.0, eps, GRID).value:.4f}")


def test_operator_bound_uniform_in_h_for_positive_nu(ensemble):
    """For nu > 0 the first-moment ratio varies by less than a factor 3 over h."""
    gamma = FbmIntegrand(0.75)
    eps = 1.0 / 64
    norm = y_norm(gamma, gamma.nu_exponent, eps, GRID).value
    seg = SegmentGrid.dyadic(1.0, 6)
    frozen = dyadic_projection(gamma, 6, GRID)
    ratios = []
    for h in (0.51, 0.6, 0.75, 0.9):
        vals, _, _, _ = delayed_integral_batch(frozen, seg, ensemble, hurst_constant(h))
        ratios.append(float(np.mean(np.abs(vals))) / norm)
    assert max(ratios) < 3.0 * min(ratios)
