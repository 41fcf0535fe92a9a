"""The delayed stochastic integral of segment-predictable integrands on rows of noise beside their grid.

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
  before the origin), and main = sum gamma d_main, those of the synthesis
  on the cells from the origin on: value = tail + main, and cross = main -
  ito, the history accumulated since the origin before each segment starts.

The parts are linear in gamma.  The decay study therefore reads a pair of
dyadic levels from the level step alone, which lives on the odd segments
of the finer grid: `second_half_ito` is the ito field there only.

At h = 1/2 the transform is the identity and both history parts vanish,
so value is the left-point Ito sum.  Since value does not depend on the
segment grid, one segment [a, b] (`delayed_segment`) is the value part on
the grid (0, b) with the integrand set to zero before a.
"""

from __future__ import annotations

import numpy as np

from .kernels import HurstParameter
from .integrands import Integrand, SegmentGrid, second_halves
from .noise import (
    SimulationGrid,
    block_conv,
    declared_truncation_budget,
    history_conv,
    history_kernel,
    past_conv,
)

__all__ = [
    "delayed_segment",
    "delayed_integral_batch",
    "delayed_parts_for_cells",
    "noise_transforms",
    "second_half_ito",
    "result_record",
]

MIN_CELLS_PER_SEGMENT = 2


def _segment_lattice_indices(grid: SimulationGrid, seg: SegmentGrid) -> np.ndarray:
    if abs(seg.start - grid.origin) > 1e-12:
        raise ValueError("segment grids start at the origin (general starts are handled by time shift)")
    idx = grid.index_of(seg.breakpoints)
    if np.any(np.diff(idx) < MIN_CELLS_PER_SEGMENT):
        raise ValueError(f"degenerate segment: fewer than {MIN_CELLS_PER_SEGMENT} fine cells")
    return idx


def noise_transforms(grid: SimulationGrid, incs: np.ndarray, hps, end: int):
    """(d_tail, d_main): the history increment fields of every assembly on this noise, per h.

    For each h in hps, on the fine cells origin..end - 1, the lattice
    increments of the warmup history (cells before the origin) and of the
    synthesis on the main window, stacked as (len(hps), ..., end - origin);
    their sum is dB_H.  One stacked convolution covers each window, so each
    is transformed forward once for all h; field q is byte for byte that of
    hps[q] alone, and depends only on (noise, h, end).
    The fields vanish at h = 1/2: (None, None) when every h is 1/2, and a
    list mixing h = 1/2 with h > 1/2 is refused (see noise.history_kernel).
    """
    kernel = history_kernel(grid, hps)
    if kernel is None:
        return None, None
    m0 = grid.origin_index
    d_tail = np.diff(past_conv(incs, grid, kernel, m0, (m0, end + 1)), axis=-1)
    return d_tail, np.diff(history_conv(incs, kernel.table, (m0, end), (m0, end + 1)), axis=-1)


def _ito_table(grid: SimulationGrid, hp: HurstParameter, lags: int) -> np.ndarray:
    """d_table[m] = c_h * (A[m+1] - A[m]), m < lags: the G_H transform's weights, restarted per segment."""
    return np.diff(history_kernel(grid, (hp,)).table[0, :lags + 1])


def second_half_ito(grid: SimulationGrid, incs: np.ndarray, hp: HurstParameter, level: int) -> np.ndarray:
    """dW of the level-(level + 1) dyadic grid on the second half of every level segment, (..., 2^level, h).

    Those halves are the odd segments of the finer grid, each convolved from
    its own start with the weights of delayed_parts_for_cells; the even ones
    are not computed.  hp is above 1/2.
    """
    m0 = grid.origin_index
    halves = second_halves(incs[..., m0:m0 + grid.main_steps], level)
    h = halves.shape[-1]
    x = halves.reshape(incs.shape[:-1] + (-1,))  # the odd segments, end to end
    return block_conv(x, _ito_table(grid, hp, h), range(0, x.shape[-1] + 1, h)).reshape(halves.shape)


def _dot(gamma_cells: np.ndarray, field: np.ndarray) -> np.ndarray:
    # a row-wise sum, not a BLAS dot: its rounding must not depend on strides or batch size
    return np.sum(gamma_cells * field, axis=-1)


def delayed_parts_for_cells(gamma_cells: np.ndarray, seg: SegmentGrid, grid: SimulationGrid,
                            incs: np.ndarray, hp: HurstParameter):
    """(value, ito, tail, cross) per replication, for drivers that manage the integrand's cells.

    gamma_cells holds the integrand's predictable values on the fine cells
    of [0, seg.end).  Extra leading axes, in front of the replication axis,
    are integrands that share the noise: (n_integrands, reps, cells) gives
    (n_integrands, reps) parts, and the fields that depend only on the
    noise are computed once for all of them.
    """
    m0 = grid.origin_index
    seg_idx = _segment_lattice_indices(grid, seg)
    end = int(seg_idx[-1])
    if gamma_cells.shape[-1] < end - m0:
        raise ValueError("gamma_cells does not cover the integration window")
    gamma_cells = gamma_cells[..., :end - m0]
    if hp.is_brownian:  # the transform is the identity: the left-point sum against dB itself
        ito = _dot(gamma_cells, incs[..., m0:end])
        return ito, ito.copy(), np.zeros(ito.shape), np.zeros(ito.shape)
    ito = _dot(gamma_cells, block_conv(incs[..., m0:end], _ito_table(grid, hp, end - m0), seg_idx - m0))
    transforms = noise_transforms(grid, incs, (hp,), end)
    tail, main = (_dot(gamma_cells, field[0]) for field in transforms)
    return tail + main, ito, tail, main - ito


def delayed_integral_batch(gamma: Integrand, seg: SegmentGrid, grid: SimulationGrid, incs: np.ndarray,
                           hp: HurstParameter):
    """Per-replication delayed integral; returns (value, ito, tail, cross) arrays."""
    if not gamma.segment_predictable_on(seg.breakpoints):
        raise ValueError(
            "integrand is not measurable at the segment left endpoints; "
            "the delayed integral is undefined on this class (freeze it or refine its grid)")
    return delayed_parts_for_cells(gamma.values_on_cells(grid, incs), seg, grid, incs, hp)


def delayed_segment(gamma: Integrand, seg_start: float, seg_end: float,
                    grid: SimulationGrid, incs: np.ndarray, hp: HurstParameter) -> np.ndarray:
    """Single-segment delayed integral per replication; gamma is frozen at seg_start via its forecast rule.

    The delayed integral is the value part sum gamma dB_H of the common
    assembly, which does not depend on the segment grid: it is read off the
    grid (0, seg_end), with the frozen cells before seg_start set to zero.
    """
    if seg_start < grid.origin:
        raise ValueError(f"seg_start={seg_start} lies before the origin; segments start at 0 or later")
    a, b = grid.index_of(seg_start), grid.index_of(seg_end)
    if b - a < MIN_CELLS_PER_SEGMENT:
        raise ValueError(f"degenerate segment: fewer than {MIN_CELLS_PER_SEGMENT} fine cells")
    cells = gamma.frozen_values_on_cells(grid, incs, np.full(grid.main_steps, a))
    cells[..., :a - grid.origin_index] = 0.0
    value, _, _, _ = delayed_parts_for_cells(cells, SegmentGrid((grid.origin, seg_end)), grid, incs, hp)
    return value


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
