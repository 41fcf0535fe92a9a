"""The delayed stochastic integral and its dyadic extension, plus classical baselines.

Per segment [T_{k-1}, T_k] the delayed integral of a segment-predictable
integrand is an Ito integral of the kernel-transformed integrand plus a
Lebesgue integral against the history-derivative process:

    int G_H(tau, T_{k-1}, T_k, gamma) dB(tau)  +  int gamma(t) DR_H(t) dt.

On the fine lattice, with gamma at cell left edges, each part is a row-wise
dot product of gamma with an increment field of the noise, h and the grid:

* value = sum gamma dB_H, the increments of the synthesized fbm, which makes
  the telescoping identity "delayed integral of 1 == B_H increment" exact;
* ito = sum gamma dW, where dW convolves each segment's own increments with
  the cell-averaged G_H weights, restarted at every segment start
  (`block_conv`): a left-point scheme, measurable at the segment start;
* tail = sum gamma d_tail, the increments of the warmup history (cells
  before the origin), and cross = value - ito - tail, the history
  accumulated since the origin before each segment starts.

At h = 1/2 the transform is the identity and both history parts vanish,
so value is the left-point Ito sum.  Since value does not depend on the
segment grid, one segment [a, b] (`delayed_segment`) is the value part on
the grid (0, b) with the integrand set to zero before a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import HurstParameter
from .integrands import (
    Integrand,
    SegmentGrid,
    x_norm,
)
from .noise import (
    NoiseBatch,
    SimulationGrid,
    avg_kernel_table,
    block_conv,
    declared_truncation_budget,
    fbm_values,
    history_conv,
    synthesis_tables,
)

__all__ = [
    "ExtensionTrace",
    "delayed_segment",
    "delayed_integral_batch",
    "delayed_parts_for_cells",
    "noise_transforms",
    "extended_integral",
    "ito_integral_batch",
    "riemann_fbm_integral_batch",
    "result_record",
]

MIN_CELLS_PER_SEGMENT = 2


@dataclass(frozen=True)
class ExtensionTrace:
    """Per-level values of the dyadic extension with the stopping diagnostics."""

    levels: tuple[int, ...]
    samples: np.ndarray          # (n_levels, replications)
    means: np.ndarray
    gaps: np.ndarray             # L1 gap between consecutive levels
    gap_ses: np.ndarray
    stopping_level: int
    converged: bool
    tol: float
    fitted_rate: float | None    # decay exponent r in gap ~ 2^(-r n)
    target_rate: float | None    # nu/2 + h - 1/2 when nu is known


def _segment_lattice_indices(grid: SimulationGrid, seg: SegmentGrid) -> np.ndarray:
    if abs(seg.start - grid.origin) > 1e-12:
        raise ValueError("segment grids start at the origin (general starts are handled by time shift)")
    idx = np.array([grid.index_of(b) for b in seg.breakpoints])
    if idx[-1] > grid.cell_count:
        raise ValueError("segment grid extends beyond the simulation horizon")
    if np.any(np.diff(idx) < MIN_CELLS_PER_SEGMENT):
        raise ValueError(f"degenerate segment: fewer than {MIN_CELLS_PER_SEGMENT} fine cells")
    return idx


def noise_transforms(grid: SimulationGrid, incs: np.ndarray, hps, end: int):
    """(d_tail, d_bh): the history increment fields of every assembly on this noise, per h.

    For each h in hps, on the fine cells origin..end - 1, the lattice
    increments of the warmup history (cells before the origin) and of the
    whole synthesis B_H, stacked as (len(hps), ..., end - origin).  Both
    depend only on (noise, h, end).  One stacked convolution covers the
    warmup window and one the main window, so each window is transformed
    forward once for all h; field q is byte for byte that of hps[q] alone.
    The fields vanish at h = 1/2: (None, None) when every h is 1/2, and a
    list mixing h = 1/2 with h > 1/2 is refused (see synthesis_tables).
    """
    c_tables = synthesis_tables(hps, end, grid.step)
    if c_tables is None:
        return None, None
    m0 = grid.origin_index
    tail = history_conv(incs, c_tables, (0, m0), (m0, end + 1))
    bh = history_conv(incs, c_tables, (m0, end), (m0, end + 1))
    bh += tail
    d_bh = np.diff(bh, axis=-1)
    del bh  # the fields are as large as the paths; hold at most three at once
    return np.diff(tail, axis=-1), d_bh


def _dot(gamma_cells: np.ndarray, field: np.ndarray) -> np.ndarray:
    # a row-wise sum, not a BLAS dot: its rounding must not depend on strides or batch size
    return np.sum(gamma_cells * field, axis=-1)


def delayed_parts_for_cells(gamma_cells: np.ndarray, seg: SegmentGrid, batch: NoiseBatch,
                            hp: HurstParameter, transforms=None):
    """(value, ito, tail, cross) per replication, for drivers that manage cells and transforms.

    gamma_cells holds the integrand's predictable values on the fine cells
    of [0, seg.end).  Extra leading axes, in front of the replication axis,
    are integrands that share the noise: (n_integrands, reps, cells) gives
    (n_integrands, reps) parts, and the fields that depend only on the
    noise are computed once for all of them.
    """
    grid, incs = batch.grid, batch.increments
    m0 = grid.origin_index
    seg_idx = _segment_lattice_indices(grid, seg)
    end = int(seg_idx[-1])
    if gamma_cells.shape[-1] < end - m0:
        raise ValueError("gamma_cells does not cover the integration window")
    gamma_cells = gamma_cells[..., :end - m0]
    if hp.is_brownian:  # the transform is the identity: the left-point sum against dB itself
        ito = _dot(gamma_cells, incs[..., m0:end])
        return ito, ito.copy(), np.zeros(ito.shape), np.zeros(ito.shape)
    # d_table[m] = c_h * (A[m+1] - A[m]): the G_H transform's weights, restarted per segment
    d_table = np.diff(hp.c_h * avg_kernel_table(hp, end - m0, grid.step))
    ito = _dot(gamma_cells, block_conv(incs[..., m0:end], d_table, seg_idx - m0))
    if transforms is None:
        transforms = noise_transforms(grid, incs, (hp,), end)
    d_tail, d_bh = (field[0] for field in transforms)
    value = _dot(gamma_cells, d_bh)
    tail = _dot(gamma_cells, d_tail)
    return value, ito, tail, value - ito - tail


def delayed_integral_batch(gamma: Integrand, seg: SegmentGrid, batch: NoiseBatch,
                           hp: HurstParameter):
    """Per-replication delayed integral; returns (value, ito, tail, cross) arrays."""
    if not gamma.segment_predictable_on(seg.breakpoints):
        raise ValueError(
            "integrand is not measurable at the segment left endpoints; "
            "the delayed integral is undefined on this class (freeze it or refine its grid)")
    cells = gamma.values_on_cells(batch.grid, batch.increments)
    return delayed_parts_for_cells(cells, seg, batch, hp)


def delayed_segment(gamma: Integrand, seg_start: float, seg_end: float,
                    batch: NoiseBatch, hp: HurstParameter) -> np.ndarray:
    """Single-segment delayed integral per replication; gamma is frozen at seg_start via its forecast rule.

    The delayed integral is the value part sum gamma dB_H of the common
    assembly, which does not depend on the segment grid: it is read off the
    grid (0, seg_end), with the frozen cells before seg_start set to zero.
    """
    grid = batch.grid
    if seg_start < grid.origin:
        raise ValueError(f"seg_start={seg_start} lies before the origin; segments start at 0 or later")
    a, b = grid.index_of(seg_start), grid.index_of(seg_end)
    if b - a < MIN_CELLS_PER_SEGMENT:
        raise ValueError(f"degenerate segment: fewer than {MIN_CELLS_PER_SEGMENT} fine cells")
    cells = gamma.frozen_values_on_cells(grid, batch.increments, np.full(grid.main_steps, a))
    cells[..., :a - grid.origin_index] = 0.0
    value, _, _, _ = delayed_parts_for_cells(cells, SegmentGrid((grid.origin, seg_end)), batch, hp)
    return value


def ito_integral_batch(gamma: Integrand, batch: NoiseBatch) -> np.ndarray:
    """Left-point Riemann-Ito sum of gamma against the driving noise on the fine grid, per replication."""
    grid = batch.grid
    cells = gamma.values_on_cells(grid, batch.increments)
    return np.sum(cells * batch.increments[..., grid.origin_index:], axis=-1)


def riemann_fbm_integral_batch(gamma: Integrand, n_steps: int, batch: NoiseBatch,
                               hp: HurstParameter) -> np.ndarray:
    """Left-point sum of gamma against fBm increments on an n_steps uniform grid of [0, T], per replication."""
    grid = batch.grid
    if n_steps < 1 or grid.main_steps % n_steps != 0:
        raise ValueError(f"n_steps must divide the fine grid ({grid.main_steps})")
    stride = grid.main_steps // n_steps
    coarse = fbm_values(batch.increments, grid, (hp,))[0, ..., ::stride]
    cells = gamma.values_on_cells(grid, batch.increments)
    left = cells[..., ::stride]
    return np.sum(left * np.diff(coarse, axis=-1), axis=-1)


def _fit_slope(levels, gaps) -> float | None:
    """Least-squares slope of log2(gaps) against levels; None unless there are two or more gaps, all positive."""
    g = np.asarray(gaps)
    if np.any(g <= 0.0) or g.size < 2:
        return None
    return float(np.polyfit(np.asarray(levels, dtype=float), np.log2(g), 1)[0])


def extended_integral(gamma: Integrand, hp: HurstParameter, ensemble: NoiseBatch,
                      tol: float | None = None, n_max: int = 10, n_start: int = 1) -> ExtensionTrace:
    """Dyadic-projection extension I_H(gamma) = lim I_H(gamma_n), with an L1 stopping rule.

    Evaluates the delayed integral of gamma_n on shared noise for n =
    n_start..n_max, stopping once the Monte Carlo L1 gap between successive
    levels falls below tol (default 1e-3 of the integrand's X norm).  A
    non-converged trace is a reported outcome, expected whenever the
    forecast-variance exponent of gamma is not positive.
    """
    grid = ensemble.grid
    if tol is None:
        xn, _ = x_norm(gamma, ensemble)
        tol = 1e-3 * (xn if xn > 0.0 else 1.0)
    # every level's grid ends at the horizon, so the history primitives are shared
    transforms = noise_transforms(grid, ensemble.increments, (hp,), grid.cell_count)
    levels, samples = [], []
    gaps, gap_ses = [], []
    converged = False
    stopping = n_max
    ns = range(n_start, n_max + 1)
    for n, cells in zip(ns, gamma.dyadic_cells(grid, ensemble.increments, ns)):
        seg = SegmentGrid.dyadic(grid.horizon, n)
        value, _, _, _ = delayed_parts_for_cells(cells, seg, ensemble, hp, transforms)
        levels.append(n)
        samples.append(value)
        if len(samples) >= 2:
            diff = np.abs(samples[-1] - samples[-2])
            gaps.append(float(np.mean(diff)))
            gap_ses.append(float(np.std(diff, ddof=1) / math.sqrt(diff.size)))
            if gaps[-1] < tol:
                converged = True
                stopping = n
                break
    samples = np.asarray(samples)
    gaps = np.asarray(gaps)
    pos = gaps > 0.0
    slope = _fit_slope(np.asarray(levels[1:])[pos], gaps[pos])
    target = None
    if gamma.nu_exponent is not None and not hp.is_brownian and math.isfinite(gamma.nu_exponent):
        target = gamma.nu_exponent / 2.0 + hp.h - 0.5
    return ExtensionTrace(
        levels=tuple(levels), samples=samples, means=samples.mean(axis=-1),
        gaps=gaps, gap_ses=np.asarray(gap_ses), stopping_level=stopping,
        converged=converged, tol=float(tol), fitted_rate=None if slope is None else -slope,
        target_rate=target,
    )


def result_record(parts, seg: SegmentGrid, grid: SimulationGrid, hp: HurstParameter,
                  seed: int) -> dict:
    """JSON-ready export of the first replication of delayed_integral_batch's (value, ito, tail, cross)."""
    value, ito, tail, cross = (float(p[0]) for p in parts)
    return {
        "value": value,
        "ito_part": ito,
        "tail_part": tail,
        "cross_part": cross,
        "grid": {
            "breakpoints": list(seg.breakpoints),
            "min_spacing": seg.min_spacing,
        },
        "truncation_budget": declared_truncation_budget(grid, hp),
        "seed": seed,
    }
