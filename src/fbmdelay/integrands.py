"""Integrand families with batched cell values, conditional forecasts, and norms.

An integrand maps a batch of driving-noise rows to its values at the left
edges of the fine cells of [0, horizon], and to the forecasts of those
values at given lattice times (E_tau gamma(t) given the noise up to tau).
Conditioning is implemented by truncating stochastic integrals at tau, so it
is measurable by construction.  The deterministic forecast-variance profile
E Var_tau gamma(t) and, where known, E gamma(t)^2 come in closed form.

The provided family covers deterministic functions, the driving Brownian
motion, fractional Brownian motion (and its windowed Riemann-Liouville
variant), the squared Brownian path, and piecewise-predictable freezes of
any of those: processes that on each segment of a grid are measurable at
the segment's left endpoint.
"""

from __future__ import annotations

import bisect
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kernels import HALF, HurstParameter, hurst_constant, power_diff
from .noise import (
    SimulationGrid,
    block_conv,
    blockwise_conv,
    history_conv,
    history_kernel,
    past_conv,
)

__all__ = [
    "Integrand",
    "DeterministicIntegrand",
    "BrownianIntegrand",
    "FbmIntegrand",
    "RlFbmIntegrand",
    "QuadraticBrownianIntegrand",
    "PiecewisePredictableIntegrand",
    "SegmentGrid",
    "dyadic_projection",
    "second_halves",
    "closed_form_x_norm",
    "y_norm",
    "YNormResult",
]


class IntegrandCapabilityError(NotImplementedError):
    """Raised when an integrand lacks a conditional-expectation rule."""


def fine_cell_times(grid: SimulationGrid) -> np.ndarray:
    """Left edges of the cells partitioning [0, horizon)."""
    return grid.step * np.arange(grid.main_steps)


class Integrand(ABC):
    """Contract: cell values and their forecasts on noise rows, and deterministic E Var_tau gamma(t)."""

    #: known forecast-variance growth exponent nu (E Var_tau ~ (t-tau)^(1+nu))
    nu_exponent: float | None = None

    def cond_var(self, tau: float, t: float) -> float:
        raise IntegrandCapabilityError(f"{type(self).__name__} has no conditional-variance rule")

    def second_moment(self, t: float) -> float | None:
        """Closed-form E gamma(t)^2 where available."""
        return None

    # --- vectorized engine hooks (incs: (..., cell_count)) ------------------

    @abstractmethod
    def values_on_cells(self, grid: SimulationGrid, incs: np.ndarray) -> np.ndarray:
        """gamma at the left edge of every cell of [0, horizon)."""

    def frozen_values_on_cells(self, grid: SimulationGrid, incs: np.ndarray,
                               freeze_idx: np.ndarray) -> np.ndarray:
        """E at lattice time freeze_idx[l] of gamma at cell l's left edge."""
        raise IntegrandCapabilityError(f"{type(self).__name__} has no conditional-expectation rule")

    def level_steps(self, grid: SimulationGrid, incs: np.ndarray, levels: Sequence[int]):
        """Yield gamma_(m+1) - gamma_m for each pair (m, m + 1) of levels, consecutive integers, in turn.

        gamma_n is the level-n dyadic projection.  The step is 0 on the first
        half of every level-m segment, where both levels freeze at its start,
        so only the second halves are yielded, as (..., 2^m, h), h = L_m / 2.
        This default, which bm2 takes, differences the consecutive projections.
        """
        prev = None
        for n in levels:
            cells = dyadic_projection(self, n, grid).values_on_cells(grid, incs)
            if prev is not None:
                yield second_halves(cells, n - 1) - second_halves(prev, n - 1)
            prev = cells

    def segment_predictable_on(self, breakpoints: Sequence[float]) -> bool:
        """Whether gamma(t) is measurable at the active left endpoint of this grid."""
        return False

    def spec_string(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class DeterministicIntegrand(Integrand):
    """A non-random integrand; conditioning is vacuous and the variance is 0."""

    fn: Callable[[np.ndarray], np.ndarray]
    label: str = "det"

    nu_exponent = math.inf

    @staticmethod
    def constant(c: float) -> "DeterministicIntegrand":
        return DeterministicIntegrand(fn=lambda t, c=float(c): np.full_like(np.asarray(t, dtype=float), c),
                                      label=f"det:const:{c!r}")

    @staticmethod
    def polynomial(coeffs: Sequence[float]) -> "DeterministicIntegrand":
        cs = tuple(float(a) for a in coeffs)
        return DeterministicIntegrand(fn=lambda t, cs=cs: np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), cs),
                                      label="det:poly:" + ",".join(repr(a) for a in cs))

    def cond_var(self, tau, t):
        return 0.0

    def second_moment(self, t):
        return float(self.fn(np.asarray(t, dtype=float))) ** 2

    def values_on_cells(self, grid, incs):
        vals = self.fn(fine_cell_times(grid))
        return np.broadcast_to(vals, incs.shape[:-1] + vals.shape).copy()

    def frozen_values_on_cells(self, grid, incs, freeze_idx):
        return self.values_on_cells(grid, incs)

    def segment_predictable_on(self, breakpoints):
        return True

    def spec_string(self):
        return self.label


class _PowerKernelIntegrand(Integrand):
    """Shared machinery for Wiener integrals of power kernels (t - r)^(h1 - 1/2)."""

    def __init__(self, hp1: HurstParameter, include_history: bool, start: float = 0.0):
        self.hp1 = hp1
        self.include_history = include_history
        self.start = float(start)
        self.nu_exponent = 2.0 * hp1.h - 1.0

    def cond_var(self, tau, t):
        h1 = self.hp1.h
        c2 = self.hp1.c_h ** 2
        if self.include_history and tau < 0.0 and t > tau:
            # the kernel (t-r)^p - (-r)^p of cells in (tau, 0) is still unknown at tau;
            # scipy.integrate is imported here, its import alone costs ~25 MB of RSS
            from scipy.integrate import quad
            p = h1 - HALF
            near, _ = quad(lambda r: power_diff(-r, t / -r, p) ** 2, tau, min(t, 0.0))
            return c2 * (abs(t) ** (2 * h1) / (2 * h1) + near)
        lo = max(tau, self.start) if not self.include_history else tau
        span = max(t - lo, 0.0)
        return c2 * span ** (2 * h1) / (2 * h1)

    def _first_cell(self, grid: SimulationGrid) -> int:
        return 0 if self.include_history else grid.index_of(self.start)

    def _values_from(self, grid: SimulationGrid, incs: np.ndarray, j0: int) -> np.ndarray:
        """gamma at lattice points j = j0..cell_count-1; j0 precedes the origin only for the unit kernel."""
        n, m0 = grid.cell_count, grid.origin_index
        kernel = history_kernel(grid, (self.hp1,))
        if self.include_history and kernel is not None:
            x = past_conv(incs, grid, kernel, n, (m0, n))[0]
            x -= x[..., :1].copy()  # in place, as in noise.fbm_values
            return x
        # B(t) - B(0) of the unit kernel with history sums the cells from the origin
        first = m0 if self.include_history else self._first_cell(grid)
        return history_conv(incs, None if kernel is None else kernel.table[0], (first, n), (j0, n))

    def values_on_cells(self, grid, incs):
        return self._values_from(grid, incs, grid.origin_index)

    def frozen_values_on_cells(self, grid, incs, freeze_idx):
        freeze_idx = np.asarray(freeze_idx)
        j0 = grid.origin_index
        if self.hp1.is_brownian:  # E_a of a running sum is its value at a, which may precede the origin
            j0 = int(freeze_idx.min(initial=j0))
        return self._forecast(grid, incs, freeze_idx, self._values_from(grid, incs, j0), j0)

    def level_steps(self, grid, incs, levels):
        # on the second half of a level-m segment [a, a + 2h), E_(a+h) - E_a of gamma(t_j)
        # is the kernel mass of the first half's cells, sum_(a <= i < a+h) k[j - i] x_i,
        # which noise.blockwise_conv forms for every level-m segment at once
        m0 = grid.origin_index
        x = incs[..., m0:m0 + grid.main_steps]
        first = self._first_cell(grid) - m0
        if first > 0:  # the cells before a start after the origin carry no kernel mass
            x = x.copy()
            x[..., :first] = 0.0
        table = None if self.hp1.is_brownian else history_kernel(grid, (self.hp1,)).table[0]
        for m in levels[:-1]:
            h = grid.main_steps >> (m + 1)
            blocks = x.reshape(x.shape[:-1] + (2 ** m, 2 * h))
            if table is None:  # the unit kernel: the first half's sum, at every cell of the second
                yield np.repeat(np.sum(blocks[..., :h], axis=-1, keepdims=True), h, axis=-1)
            else:
                yield blockwise_conv(blocks, table, (0, h), (h, 2 * h))

    def _forecast(self, grid, incs, freeze_idx, vals, j0):
        """E at freeze_idx[l] of gamma at cell l's left edge, from vals = _values_from(grid, incs, j0).

        Returns a new C-ordered array; vals is not written.
        """
        m0 = grid.origin_index
        if self.hp1.is_brownian:
            # kernel == 1: E_tau gamma(t) is the value at min(tau, t), and with
            # history a freeze before the origin forecasts B(t) - B(0) as 0
            at = np.minimum(freeze_idx, m0 + np.arange(freeze_idx.size))
            if self.include_history:
                at = np.maximum(at, m0)
            return np.take(vals, at - j0, axis=-1)
        table = history_kernel(grid, (self.hp1,)).table[0]
        start = self._first_cell(grid)
        runs = _runs_of(freeze_idx)
        if all(a == m0 + lo and a >= start for a, lo, _ in runs):
            # each run freezes at its own start: E_a drops the kernel mass of the
            # run's cells a <= i < j, one convolution restarted at every run start
            out = block_conv(incs[..., m0:], table, [lo for _, lo, _ in runs] + [freeze_idx.size])
            return np.subtract(vals[..., m0 - j0:], out, out=out)
        out = vals[..., m0 - j0:].copy()
        for a, cell_lo, cell_hi in runs:
            # E_a drops the kernel mass of cells a <= i < j
            out[..., cell_lo:cell_hi] -= history_conv(
                incs, table, (max(a, start), m0 + cell_hi), (m0 + cell_lo, m0 + cell_hi))
            if self.include_history and a < m0:
                # ... and the value at the origin that vals subtracted is forecast too
                out[..., cell_lo:cell_hi] += history_conv(incs, table, (max(a, start), m0), (m0, m0 + 1))
        return out

    def spec_string(self):
        return f"fbm:{self.hp1.h!r}" if self.include_history else f"rl:{self.hp1.h!r}:{self.start!r}"


def _runs_of(freeze_idx: np.ndarray) -> list[tuple[int, int, int]]:
    """(freeze lattice index, first cell, one-past-last cell) per constant run."""
    freeze_idx = np.asarray(freeze_idx)
    if freeze_idx.size == 0:
        return []
    change = np.flatnonzero(np.diff(freeze_idx)) + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [freeze_idx.size]])
    return [(int(freeze_idx[s]), int(s), int(e)) for s, e in zip(starts, ends)]


class FbmIntegrand(_PowerKernelIntegrand):
    """gamma(t) = B_H1(t), the synthesized fBm over the shared driver."""

    def __init__(self, h1: float):
        super().__init__(hurst_constant(h1), include_history=True)

    def second_moment(self, t):
        return float(t) ** (2 * self.hp1.h)


class RlFbmIntegrand(_PowerKernelIntegrand):
    """Riemann-Liouville fBm: the moving average started at a fixed time.

    gamma(t) = c_h1 int_start^t (t - r)^(h1 - 1/2) dB(r); this is the
    within-segment smooth component of the fBm increment decomposition.
    """

    def __init__(self, h1: float, start: float = 0.0):
        super().__init__(hurst_constant(h1), include_history=False, start=start)

    def second_moment(self, t):
        return self.cond_var(-math.inf, t)


class BrownianIntegrand(RlFbmIntegrand):
    """The driving Brownian motion, gamma(t) = B(t): the h = 1/2 Riemann-Liouville integrand from 0, of kernel 1."""

    def __init__(self):
        super().__init__(HALF)

    def spec_string(self):
        return "bm"


class QuadraticBrownianIntegrand(Integrand):
    """gamma(t) = B(t)^2: square-integrable, non-Gaussian, forecastable at rate nu = 0."""

    nu_exponent = 0.0

    def cond_var(self, tau, t):
        tau = min(max(tau, 0.0), t)
        return 4.0 * tau * (t - tau) + 2.0 * (t - tau) ** 2

    def second_moment(self, t):
        return 3.0 * float(t) ** 2

    def values_on_cells(self, grid, incs):
        return BrownianIntegrand().values_on_cells(grid, incs) ** 2

    def frozen_values_on_cells(self, grid, incs, freeze_idx):
        # B(0) = 0 is known from the start: a freeze before the origin acts at the origin
        k = np.maximum(np.asarray(freeze_idx), grid.origin_index) - grid.origin_index
        b = BrownianIntegrand().values_on_cells(grid, incs)
        return np.take(b, k, axis=-1) ** 2 + (fine_cell_times(grid) - k * grid.step)

    def spec_string(self):
        return "bm2"


@dataclass(frozen=True)
class SegmentGrid:
    """Ordered breakpoints T_0 < ... < T_n (any sequence of numbers, kept as a tuple of floats)."""

    breakpoints: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(float(p) for p in self.breakpoints))
        if len(self.breakpoints) < 2:
            raise ValueError("need at least two breakpoints")
        if np.any(np.diff(self.breakpoints) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")

    @staticmethod
    def dyadic(horizon: float, level: int) -> "SegmentGrid":
        """T_k = k * horizon / 2^level."""
        if level < 0:
            raise ValueError("level must be >= 0")
        return SegmentGrid.uniform(horizon, 2 ** level)

    @staticmethod
    def uniform(horizon: float, n_segments: int) -> "SegmentGrid":
        if n_segments < 1:
            raise ValueError("need at least one segment")
        return SegmentGrid(tuple(horizon * k / n_segments for k in range(n_segments + 1)))

    @property
    def min_spacing(self) -> float:
        return float(np.diff(self.breakpoints).min())

    @property
    def n_segments(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def start(self) -> float:
        return self.breakpoints[0]

    @property
    def end(self) -> float:
        return self.breakpoints[-1]


class PiecewisePredictableIntegrand(Integrand):
    """inner frozen at segment starts: gamma(t) = E_{T_k} inner(t) on [T_k, T_{k+1}).

    Constant-information (not constant-value) on each segment, measurable at
    each segment's left endpoint.
    """

    def __init__(self, inner: Integrand, grid: SegmentGrid):
        self.inner = inner
        self.grid = grid
        self.nu_exponent = None

    def freeze_time(self, t: float) -> float:
        bps = self.grid.breakpoints
        k = min(max(bisect.bisect_right(bps, t) - 1, 0), len(bps) - 2)
        return bps[k]

    def cond_var(self, tau, t):
        f = self.freeze_time(t)
        if tau >= f:
            return 0.0
        return max(self.inner.cond_var(tau, t) - self.inner.cond_var(f, t), 0.0)

    def second_moment(self, t):
        base = self.inner.second_moment(t)
        if base is None:
            return None
        return base - self.inner.cond_var(self.freeze_time(t), t)

    def freeze_index_per_cell(self, grid: SimulationGrid) -> np.ndarray:
        t_cells = fine_cell_times(grid)
        bps = np.asarray(self.grid.breakpoints)
        k = np.clip(np.searchsorted(bps, t_cells, side="right") - 1, 0, len(bps) - 2)
        return grid.index_of(bps)[k]

    def values_on_cells(self, grid, incs):
        return self.inner.frozen_values_on_cells(grid, incs, self.freeze_index_per_cell(grid))

    def frozen_values_on_cells(self, grid, incs, freeze_idx):
        own = self.freeze_index_per_cell(grid)
        return self.inner.frozen_values_on_cells(grid, incs, np.minimum(own, freeze_idx))

    def segment_predictable_on(self, breakpoints):
        host = set(float(b) for b in breakpoints)
        return all(float(b) in host or b <= breakpoints[0] for b in self.grid.breakpoints[:-1]) \
            and self.grid.breakpoints[0] <= breakpoints[0] + 1e-12

    def spec_string(self):
        return f"pp:{self.inner.spec_string()}:{self.grid.n_segments}"


def second_halves(cells: np.ndarray, level: int) -> np.ndarray:
    """The second half of every level-`level` dyadic segment of the main cells (last axis), a (..., 2^level, h) view."""
    return cells.reshape(cells.shape[:-1] + (2 ** level, 2, -1))[..., 1, :]


def dyadic_projection(gamma: Integrand, n: int, grid: SimulationGrid | None) -> Integrand:
    """Project gamma onto the dyadic piecewise-predictable class at level n.

    Returns gamma_n(t) = E_{T_k} gamma(t) for t in [T_k, T_{k+1}), T_k = k T / 2^n.
    Deterministic integrands are returned unchanged.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    if isinstance(gamma, DeterministicIntegrand):
        return gamma
    if grid is None:
        raise ValueError("a simulation grid fixes the horizon of the dyadic grid")
    if grid.main_steps % (2 ** n) != 0:
        raise ValueError(f"2^{n} dyadic segments do not align with {grid.main_steps} fine steps")
    return PiecewisePredictableIntegrand(gamma, SegmentGrid.dyadic(grid.horizon, n))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def closed_form_x_norm(gamma: Integrand, grid: SimulationGrid) -> float | None:
    """(step * sum_l E gamma(t_l)^2)^(1/2) over the left cell edges t_l of [0, horizon).

    None when gamma has no closed-form second moment.
    """
    times = fine_cell_times(grid)
    if isinstance(gamma, DeterministicIntegrand):  # its function takes every time at once
        moments = (gamma.fn(times) ** 2).tolist()
    elif gamma.second_moment(grid.horizon / 2) is None:
        return None
    else:
        moments = map(gamma.second_moment, times.tolist())
    return math.sqrt(max(float(sum(moments) * grid.step), 0.0))


@dataclass(frozen=True)
class YNormResult:
    value: float
    x_part: float
    ratio_sup: float
    diverges: bool
    ratio_slope: float | None


def y_norm(gamma: Integrand, nu: float, eps: float, grid: SimulationGrid,
           resolution: int = 48) -> YNormResult:
    """Forecast-variance norm: ||gamma||_X + sup (E Var_tau gamma(t))^1/2 / (t-tau)^((1+nu)/2).

    ||gamma||_X is closed_form_x_norm; an integrand without one is refused.
    Suprema are taken over the evaluation grid only (resolution tau points,
    log-spaced offsets down to the fine step).  A negative fitted slope of
    the ratio in the offset flags that the ratio grows without bound as
    t decreases to tau: the integrand falls outside this nu class.
    """
    if nu < 0.0 or eps <= 0.0:
        raise ValueError("need nu >= 0 and eps > 0")
    t_end = grid.horizon
    if (x_part := closed_form_x_norm(gamma, grid)) is None:
        raise ValueError(f"integrand {gamma.spec_string()!r} has no closed-form ||gamma||_X for the Y norm")

    taus = np.linspace(0.0, t_end, resolution, endpoint=False)
    n_off = max(resolution // 2, 8)
    offsets = np.exp(np.linspace(math.log(grid.step), math.log(eps), n_off))
    ratio_by_offset = np.zeros(n_off)
    for i, d in enumerate(offsets):
        best = 0.0
        for tau in taus:
            t = tau + d
            if t > t_end:
                continue
            ev = gamma.cond_var(tau, t)
            best = max(best, math.sqrt(max(ev, 0.0)) / d ** ((1.0 + nu) / 2.0))
        ratio_by_offset[i] = best

    sup = float(ratio_by_offset.max(initial=0.0))
    slope = None
    diverges = False
    pos = ratio_by_offset > 0.0
    if pos.sum() >= 3:
        k = min(int(pos.sum()), max(4, n_off // 3))
        sel = np.flatnonzero(pos)[:k]
        slope = float(np.polyfit(np.log(offsets[sel]), np.log(ratio_by_offset[sel]), 1)[0])
        diverges = slope < -0.02
    return YNormResult(value=x_part + sup, x_part=x_part, ratio_sup=sup,
                       diverges=diverges, ratio_slope=slope)
