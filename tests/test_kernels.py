"""Kernel-core: normalizing constant, power kernels, the singular transform."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from fbmdelay.kernels import (
    HurstParameter,
    gh_transform,
    hurst_constant,
    mvn_kernel,
    truncation_tail_bound,
)
from oracles import PowerKernelCell, truncation_horizon

# mpmath oracle values (30-digit gamma), frozen before implementation
ORACLE_C = {
    0.51: 1.0097831413063245,
    0.55: 1.0443324776100444,
    0.6: 1.0760051841318072,
    0.75: 1.0696446350319903,
    0.9: 0.81122064814335251,
}


def test_constant_at_half_is_exactly_one():
    hp = hurst_constant(0.5)
    assert hp.c_h == 1.0
    assert hp.is_brownian


@pytest.mark.parametrize("h,expected", sorted(ORACLE_C.items()))
def test_constant_matches_gamma_oracle(h, expected):
    hp = hurst_constant(h)
    assert hp.c_h == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("h", [0.3, -1.0, 1.0, 1.5, 0.4999999])
def test_constant_rejects_unsupported_hurst(h):
    with pytest.raises(ValueError):
        hurst_constant(h)


def test_constant_continuous_and_vanishing_near_one():
    # continuity: grid refinement shrinks the largest jump proportionally
    def max_jump(n):
        hs = np.linspace(0.5, 0.99, n)
        cs = np.array([hurst_constant(h).c_h for h in hs])
        return np.max(np.abs(np.diff(cs)))

    assert max_jump(2000) < 0.2 * max_jump(200)
    # gamma(2 - 2h) diverges, so c_h -> 0 at the right endpoint
    assert hurst_constant(0.9999).c_h < 0.05 < hurst_constant(0.5).c_h


def test_hurst_parameter_invariants_enforced():
    with pytest.raises(ValueError):
        HurstParameter(h=0.5, c_h=-1.0)


# ---------------------------------------------------------------------------
# moving-average kernel
# ---------------------------------------------------------------------------

def test_mvn_kernel_examples():
    hp = hurst_constant(0.75)
    # t = s: the two power terms coincide
    assert mvn_kernel(1.0, 1.0, 0.3, hp) == 0.0
    # h = 1/2 with r < s: both exponents zero
    assert mvn_kernel(2.0, 1.0, 0.3, hurst_constant(0.5)) == 0.0
    # direct power evaluation: 2^(1/4) - 1
    assert mvn_kernel(2.0, 1.0, 0.0, hp) == pytest.approx(0.18920711500272107, rel=1e-14)


def test_mvn_kernel_rejects_bad_times():
    hp = hurst_constant(0.75)
    with pytest.raises(ValueError):
        mvn_kernel(1.0, 0.5, 1.0, hp)  # r >= t
    with pytest.raises(ValueError):
        mvn_kernel(1.0, 2.0, 0.0, hp)  # s > t


@given(r=st.floats(-10.0, 0.99), h=st.floats(0.5, 0.95))
@settings(max_examples=60, deadline=None)
def test_mvn_kernel_vanishes_at_segment_start(r, h):
    hp = hurst_constant(h)
    assert mvn_kernel(1.0, 1.0, r, hp) == 0.0


@pytest.mark.parametrize("k", range(2, 15))
def test_mvn_kernel_keeps_precision_as_h_nears_half(k):
    """At h = 1/2 + 10^-k, f(t, r) for r <= s is within 1e-14 relative of 50-digit arithmetic.

    The plain difference of powers was 1.2e-2 off at (1, 0.5, -3.7) and k = 14,
    and lost every digit a million units back.
    """
    hp = hurst_constant(0.5 + 10.0 ** -k)
    for t, s, r in [(2.0, 1.0, 0.0), (1.0, 0.5, 0.3), (1.0, 0.5, 0.5), (1.0, 0.5, -3.7),
                    (1.0, 1.0 - 2.0 ** -12, 0.5), (1.0, 0.999, -1e6), (5.0, 1e-9, 0.0)]:
        with mpmath.workdps(50):
            p = mpmath.mpf(hp.h) - mpmath.mpf(0.5)  # exact: h - 1/2 has no rounding for h in [1/2, 1)
            want = (mpmath.mpf(t) - r) ** p - (mpmath.mpf(s) - r) ** p
        got = mvn_kernel(t, s, r, hp)
        assert abs(got - want) <= 1e-14 * abs(want), (t, s, r, got, want)


def test_mvn_kernel_continuous_in_t_for_fixed_history_point():
    hp = hurst_constant(0.7)
    r, s = 0.3, 1.0
    ts = np.linspace(1.001, 2.0, 50)
    vals = np.array([mvn_kernel(t, s, r, hp) for t in ts])
    assert np.max(np.abs(np.diff(vals))) < 0.02


# ---------------------------------------------------------------------------
# power cells
# ---------------------------------------------------------------------------

@given(p=st.floats(-0.99, 2.0), a=st.floats(0.0, 3.0), width=st.floats(0.01, 2.0))
@example(p=-0.75, a=1.6409489976369964e-23, width=1.0)  # lower edge far below the width
@settings(max_examples=60, deadline=None)
def test_power_cell_matches_quadrature(p, a, width):
    cell = PowerKernelCell(exponent=p, lower=a, upper=a + width)
    # quadrature in s = log x: the integrand e^((p+1) s) is smooth at every scale of a, where
    # x^p on [a, a + width] with 0 < a << width loses the mass near a (8e-6 on the example)
    lo = math.log(a) if a > 0 else -math.inf
    ref, err = quad(lambda s: math.exp((p + 1) * s), lo, math.log(a + width))
    assert cell.integral() == pytest.approx(ref, rel=1e-7, abs=max(err * 10, 1e-12))


def test_power_cell_validation():
    with pytest.raises(ValueError):
        PowerKernelCell(exponent=0.25, lower=1.0, upper=0.5)
    with pytest.raises(ValueError):
        PowerKernelCell(exponent=-1.25, lower=0.0, upper=1.0)


# ---------------------------------------------------------------------------
# the singular transform
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("h", [0.6, 0.75, 0.9])
@pytest.mark.parametrize("n_cells", [8, 100, 4096])
@pytest.mark.parametrize("tau", [0.0, 0.3, 0.77])
def test_gh_transform_constant_closed_form(h, n_cells, tau):
    hp = hurst_constant(h)
    g = np.ones(n_cells)
    got = gh_transform(tau, 0.0, 1.0, g, hp)
    want = hp.c_h * (1.0 - tau) ** (h - 0.5)
    assert abs(got - want) <= 1e-10 * abs(want)


def test_gh_transform_zero_and_identity_cases():
    hp = hurst_constant(0.8)
    assert gh_transform(0.4, 0.0, 1.0, np.zeros(64), hp) == 0.0
    g = np.arange(8.0)
    # h = 1/2: identity map, the cell value at tau
    got = gh_transform(0.3, 0.0, 1.0, g, hurst_constant(0.5))
    assert got == g[2]
    assert gh_transform(1.0, 0.0, 1.0, g, hurst_constant(0.5)) == g[-1]


def test_gh_transform_frozen_oracle_value():
    # adaptive-quadrature oracle (mpmath, split at the singularity) agrees with
    # the analytic per-cell value 1.4555331642236237 to 8 digits
    g = np.array([0.3, -1.2, 2.5, 0.7, -0.4, 1.1, 0.05, -2.0])
    got = gh_transform(0.3, 0.0, 1.0, g, hurst_constant(0.75))
    assert got == pytest.approx(1.4555331642236237, rel=1e-12)


@given(alpha=st.floats(-3.0, 3.0), beta=st.floats(-3.0, 3.0), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_gh_transform_linear_in_g(alpha, beta, seed):
    rng = np.random.default_rng(seed)
    g1, g2 = rng.standard_normal(32), rng.standard_normal(32)
    hp = hurst_constant(0.7)
    lhs = gh_transform(0.25, 0.0, 1.0, alpha * g1 + beta * g2, hp)
    rhs = alpha * gh_transform(0.25, 0.0, 1.0, g1, hp) + beta * gh_transform(0.25, 0.0, 1.0, g2, hp)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_gh_transform_validation():
    hp = hurst_constant(0.75)
    with pytest.raises(ValueError):
        gh_transform(1.5, 0.0, 1.0, np.ones(8), hp)
    with pytest.raises(ValueError):
        gh_transform(0.5, 0.0, 1.0, np.array([]), hp)


def test_gh_transform_l2_bounded_uniformly_in_h():
    """Discrete L2 norm of tau -> G_h(tau, ..., g) is <= c * ||g|| with one c for all h."""
    rng = np.random.default_rng(7)
    n = 256
    taus = (np.arange(n) + 0.0) / n
    for trial in range(3):
        g = rng.standard_normal(n)
        norm_g = math.sqrt(np.sum(g ** 2) / n)
        for h in [0.51, 0.6, 0.75, 0.9]:
            hp = hurst_constant(h)
            vals = np.array([gh_transform(t, 0.0, 1.0, g, hp) for t in taus])
            norm_t = math.sqrt(np.sum(vals ** 2) / n)
            assert norm_t <= 2.0 * norm_g


# ---------------------------------------------------------------------------
# truncation horizon
# ---------------------------------------------------------------------------

def test_truncation_horizon_brownian_and_monotone():
    assert truncation_horizon(1e-6, 1.0, hurst_constant(0.5)) == 0.0
    hp = hurst_constant(0.75)
    l1 = truncation_horizon(1e-2, 1.0, hp)
    l2 = truncation_horizon(5e-3, 1.0, hp)
    assert l2 > l1 > 0.0


@given(tol=st.floats(1e-4, 1e-1), h=st.floats(0.55, 0.95), span=st.floats(0.1, 4.0))
@settings(max_examples=40, deadline=None)
def test_truncation_horizon_halving_tol_grows_horizon(tol, h, span):
    hp = hurst_constant(h)
    assert truncation_horizon(tol / 2, span, hp) >= truncation_horizon(tol, span, hp)


@pytest.mark.parametrize("h,tol", [(0.75, 1e-2), (0.6, 1e-3), (0.9, 0.3)])
def test_truncation_bound_dominates_exact_tail(h, tol):
    """The returned L really keeps the discarded tail variance below tol."""
    hp = hurst_constant(h)
    span = 1.0
    L = truncation_horizon(tol, span, hp)
    p = h - 0.5

    def tail_sq(u):
        return ((span + u) ** p - u ** p) ** 2

    exact, _ = quad(tail_sq, L, np.inf)
    exact *= hp.c_h ** 2
    assert exact <= tol * (1 + 1e-9)
    assert exact <= truncation_tail_bound(hp, span, L) * (1 + 1e-9)


def test_truncation_horizon_validation():
    hp = hurst_constant(0.75)
    with pytest.raises(ValueError):
        truncation_horizon(0.0, 1.0, hp)
    with pytest.raises(ValueError):
        truncation_horizon(1e-3, -1.0, hp)
