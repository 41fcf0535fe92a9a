"""Acceptance suite: one test per criterion, desk scale, budget-declared tolerances.

Every Monte Carlo assertion is 3 standard errors plus the declared
truncation/quadrature budget of the discrete estimator.  Thresholds below
were frozen from pilot runs (seeds recorded here) before the suite became
the gate; nothing is fitted at test time.

Run with `pytest tests/test_acceptance.py -v -s` for one line per criterion.
Each line carries the criterion's margin: the worst |estimate - target| /
tolerance over its checks (one-sided checks: excess / tolerance), so a
margin <= 1 passes and drift shows before a criterion fails.
"""

import json
import math

import numpy as np
import pytest

from fbmdelay.kernels import gh_transform, hurst_constant
from fbmdelay.noise import fbm_values, generate_noise_batch
from fbmdelay.integrands import DeterministicIntegrand, SegmentGrid
from fbmdelay.integrator import delayed_integral_batch
from fbmdelay.experiments import (
    DESK,
    cauchy_decay_study,
    continuity_study,
    fbm_law_check,
    nonconvergence_demo,
    shiryaev_identity_check,
    verify_dr_moments,
)
from fbmdelay.cli import parse_and_dispatch
from oracles import decreasing_within_1se, riemann_gap_expectation

GRID = DESK


def _report(criterion: str, ok: bool, detail: str, margins) -> bool:
    """Print the criterion's line; margins holds |estimate - target| / tolerance per check."""
    margin = f"{max(margins):.3f}" if margins else "n/a (exact)"
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} margin {margin} ({detail})")
    return ok


def _steps_within(values, ses):
    """(v[i+1] - v[i]) / hypot(se[i], se[i+1]): a rise beyond 1 joint SE shows as a margin > 1."""
    return [(values[i + 1] - values[i]) / math.hypot(ses[i], ses[i + 1]) for i in range(len(values) - 1)]


# --- 1 -----------------------------------------------------------------------

def test_c01_normalizing_constant():
    exact_half = hurst_constant(0.5).c_h == 1.0
    # 30-digit mpmath gamma oracle, frozen before the build
    oracle = 1.0696446350319903
    got = hurst_constant(0.75).c_h
    ten_digits = abs(got - oracle) <= 1e-10 * oracle
    ok = exact_half and ten_digits
    assert _report("01 constant", ok, f"c(1/2)={hurst_constant(0.5).c_h!r}, c(0.75)={got!r} vs {oracle!r}",
                   [abs(got - oracle) / (1e-10 * oracle)])


# --- 2 -----------------------------------------------------------------------

def test_c02_kernel_transform_closed_form():
    worst = 0.0
    for h in (0.6, 0.75, 0.9):
        hp = hurst_constant(h)
        for tau in (0.0, 0.3, 0.77):
            for n_cells in (64, 4096):
                got = gh_transform(tau, 0.0, 1.0, np.ones(n_cells), hp)
                want = hp.c_h * (1.0 - tau) ** (h - 0.5)
                worst = max(worst, abs(got - want) / abs(want))
    ok = worst <= 1e-10
    assert _report("02 kernel-transform", ok, f"worst relative error {worst:.3e} <= 1e-10", [worst / 1e-10])


# --- 3 -----------------------------------------------------------------------

@pytest.mark.parametrize("h", [0.55, 0.75, 0.9])
def test_c03_dr_moment_identities(h):
    hp = hurst_constant(h)
    rep = verify_dr_moments(hp, 1.0, 10_000, seed=42)
    ok = True
    details = []
    margins = []
    for name, res, closed in [("pointwise", rep.pointwise, rep.pointwise_closed),
                              ("energy", rep.energy, rep.energy_closed)]:
        tol = 3 * res.std_error + res.truncation_budget
        good = abs(res.estimate - closed) <= tol
        ok = ok and good
        details.append(f"{name}: |{res.estimate:.5f}-{closed:.5f}| <= {tol:.5f}")
        margins.append(abs(res.estimate - closed) / tol)
    assert _report(f"03 dr-moments h={h}", ok, "; ".join(details), margins)


# --- 4 -----------------------------------------------------------------------

def test_c04_fbm_law():
    (var_res, var_closed), (cov_res, cov_closed) = fbm_law_check(hurst_constant(0.75), 10_000, seed=42)
    var_tol = 3 * var_res.std_error + var_res.truncation_budget
    cov_tol = 3 * cov_res.std_error + cov_res.truncation_budget
    ok = abs(var_res.estimate - var_closed) <= var_tol and abs(cov_res.estimate - cov_closed) <= cov_tol
    assert _report("04 fbm-law", ok,
                   f"Var(1): |{var_res.estimate:.4f}-1| <= {var_tol:.4f}; "
                   f"Cov(1,1/2): |{cov_res.estimate:.4f}-0.5| <= {cov_tol:.4f}",
                   [abs(var_res.estimate - var_closed) / var_tol,
                    abs(cov_res.estimate - cov_closed) / cov_tol])


# --- 5 -----------------------------------------------------------------------

def test_c05_telescoping_identity():
    """Delayed integral of 1 equals B_H(T) - B_H(0) per path, 1e-6 relative."""
    incs = generate_noise_batch(505, GRID, 100)
    one = DeterministicIntegrand.constant(1.0)
    worst = 0.0
    for h in (0.6, 0.9):
        hp = hurst_constant(h)
        bh = fbm_values(incs, GRID, (hp,))[0]
        want = bh[:, -1] - bh[:, 0]
        for level in (0, 3):
            value, _, _, _ = delayed_integral_batch(one, SegmentGrid.dyadic(1.0, level), GRID, incs, hp)
            rel = np.abs(value - want) / np.maximum(np.abs(want), 1e-3)
            worst = max(worst, float(rel.max()))
    ok = worst <= 1e-6
    assert _report("05 telescoping", ok, f"worst per-path relative error {worst:.3e} <= 1e-6", [worst / 1e-6])


# --- 6 -----------------------------------------------------------------------

def test_c06_piecewise_constant_consistency():
    """Delayed integral == Riemann sum for piecewise-constant integrands, per path."""
    incs = generate_noise_batch(606, GRID, 100)
    rng = np.random.default_rng(606)
    n_seg = 8
    vals = rng.standard_normal(n_seg)
    gamma = DeterministicIntegrand(
        fn=lambda t, v=vals: v[np.minimum((np.asarray(t, dtype=float) * n_seg).astype(int), n_seg - 1)],
        label="pc8")
    worst = 0.0
    for h in (0.6, 0.75):
        hp = hurst_constant(h)
        value, _, _, _ = delayed_integral_batch(gamma, SegmentGrid.dyadic(1.0, 3), GRID, incs, hp)
        bh = fbm_values(incs, GRID, (hp,))[0]
        riem = np.sum(vals * np.diff(bh[:, :: GRID.main_steps // n_seg], axis=-1), axis=-1)
        rel = np.abs(value - riem) / np.maximum(np.abs(riem), 1e-3)
        worst = max(worst, float(rel.max()))
    ok = worst <= 1e-9
    assert _report("06 pc-consistency", ok, f"worst per-path relative error {worst:.3e} <= 1e-9",
                   [worst / 1e-9])


# --- 7 -----------------------------------------------------------------------

def test_c07_quadratic_identity_refinement():
    rows = shiryaev_identity_check(hurst_constant(0.75), [2 ** 8, 2 ** 10, 2 ** 12],
                                   reps=3000, seed=5)
    defects = [r.estimate for _, r in rows]
    ses = [r.std_error for _, r in rows]
    monotone = all(defects[i + 1] <= defects[i] + math.hypot(ses[i], ses[i + 1])
                   for i in range(2))
    final_ok = defects[-1] < 0.05
    ok = monotone and final_ok
    assert _report("07 quadratic-identity", ok,
                   "defects " + " -> ".join(f"{d:.5f}" for d in defects) + " (< 0.05 at 2^12)",
                   [defects[-1] / 0.05, *_steps_within(defects, ses)])


# --- 8 -----------------------------------------------------------------------

def test_c08_nonconvergence_gap():
    rows = nonconvergence_demo([0.51, 0.6, 0.75], reps=4000, seed=9)
    ok = True
    details = []
    margins = []
    for r in rows:
        lim_tol = 3 * r.gap_limit.std_error + r.gap_limit.truncation_budget
        lim_ok = abs(r.gap_limit.estimate - 0.5) <= lim_tol
        riem_tol = 3 * r.gap_riemann.std_error + r.refinement_tol + r.gap_riemann.truncation_budget
        riem_ok = abs(r.gap_riemann.estimate - 0.5) <= riem_tol
        # the Riemann gap against its exact discrete mean: no deficit formula, no budget
        exact = riemann_gap_expectation(GRID, hurst_constant(r.h))
        exact_tol = 3 * r.gap_riemann.std_error
        exact_ok = abs(r.gap_riemann.estimate - exact) <= exact_tol
        ok = ok and lim_ok and riem_ok and exact_ok
        details.append(f"h={r.h}: limit {r.gap_limit.estimate:.4f}+-{lim_tol:.4f}, "
                       f"riemann {r.gap_riemann.estimate:.5f} vs exact {exact:.5f}+-{exact_tol:.5f}")
        margins += [abs(r.gap_limit.estimate - 0.5) / lim_tol, abs(r.gap_riemann.estimate - 0.5) / riem_tol,
                    abs(r.gap_riemann.estimate - exact) / exact_tol]
    # the gap does NOT shrink toward 0 as h drops to 1/2
    ok = ok and min(r.gap_limit.estimate for r in rows) > 0.25
    margins.append(0.25 / min(r.gap_limit.estimate for r in rows))
    assert _report("08 nonconvergence", ok, "; ".join(details), margins)


# --- 9 -----------------------------------------------------------------------

@pytest.mark.parametrize("spec", ["det:const:1.0", "fbm:0.75", "pp:bm:8"])
def test_c09_hurst_continuity(spec):
    curve = continuity_study(spec, [0.7, 0.6, 0.55, 0.51], reps=1000, seed=2024)
    decreasing = decreasing_within_1se(curve)
    final_ok = curve.final_gap < 0.05 * curve.x_norm_ref
    ok = decreasing and final_ok
    assert _report(f"09 continuity {spec}", ok,
                   "gaps " + " -> ".join(f"{g:.4f}" for g in curve.gaps) +
                   f"; final < 0.05*||gamma||_X = {0.05 * curve.x_norm_ref:.4f}",
                   [curve.final_gap / (0.05 * curve.x_norm_ref),
                    *_steps_within(curve.gaps, curve.std_errors)])


# --- 10 ----------------------------------------------------------------------

@pytest.mark.parametrize("spec,h,target,band", [("bm", 0.75, -0.25, 0.05),
                                                ("fbm:0.75", 0.6, -0.35, 0.08)])
def test_c10_cauchy_decay_slope(spec, h, target, band):
    """Fitted log2 slope of the inter-segment extension gaps against the decay target.

    The cross component carries the geometric decay of the extension; the
    full-integral gap additionally contains the faster-vanishing Ito-part
    fluctuation, which biases the fit at coarse levels (reported, not gated).
    """
    study = cauchy_decay_study(spec, hurst_constant(h), range(4, 11), reps=200, seed=77)
    got = study.cross_fitted_slope
    ok = abs(got - target) <= band
    assert _report(f"10 cauchy-decay {spec} h={h}", ok,
                   f"cross slope {got:.4f} in {target}+-{band} (full-gap slope {study.fitted_slope:.4f})",
                   [abs(got - target) / band])


# --- 11 ----------------------------------------------------------------------

def test_c11_manifest_replay_determinism(tmp_path, capsys):
    out = tmp_path / "gaps.csv"
    argv = ["nonconv", "--hurst-list", "0.6,0.51", "--reps", "200", "--seed", "11",
            "--steps", "256", "--warmup", "2.0", "--out", str(out)]
    assert parse_and_dispatch(argv) == 0
    first = out.read_bytes()
    manifest = tmp_path / "gaps.csv.manifest.json"
    first_manifest = manifest.read_bytes()
    out.unlink()
    assert parse_and_dispatch(["--manifest", str(manifest)]) == 0
    capsys.readouterr()
    ok = out.read_bytes() == first and manifest.read_bytes() == first_manifest
    assert _report("11 determinism", ok, "manifest replay reproduced output files byte-for-byte", [])
