"""The delayed stochastic integral of segment-predictable integrands on a noise batch.

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

import numpy as np

from .kernels import HurstParameter
from .integrands import Integrand, SegmentGrid
from .noise import (
    NoiseBatch,
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
    """(d_tail, d_bh): the history increment fields of every assembly on this noise, per h.

    For each h in hps, on the fine cells origin..end - 1, the lattice
    increments of the warmup history (cells before the origin) and of the
    whole synthesis B_H, stacked as (len(hps), ..., end - origin).  Both
    depend only on (noise, h, end).  One stacked convolution covers the
    warmup window and one the main window, so each window is transformed
    forward once for all h; field q is byte for byte that of hps[q] alone.
    The fields vanish at h = 1/2: (None, None) when every h is 1/2, and a
    list mixing h = 1/2 with h > 1/2 is refused (see noise.history_kernel).
    """
    kernel = history_kernel(grid, hps)
    if kernel is None:
        return None, None
    m0 = grid.origin_index
    tail = past_conv(incs, grid, kernel, m0, (m0, end + 1))
    d_tail = np.diff(tail, axis=-1)
    tail += history_conv(incs, kernel.table, (m0, end), (m0, end + 1))  # the whole synthesis B_H
    return d_tail, np.diff(tail, axis=-1)


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
    d_table = np.diff(history_kernel(grid, (hp,)).table[0, :end - m0 + 1])
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
