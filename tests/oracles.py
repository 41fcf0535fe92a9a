"""Scalar reference implementations that only the tests use.

Each evaluates one quantity on one NoisePath from explicit per-cell
weights, so the vectorized lattice paths of the package can be checked
against an independent formula.
"""

import io

import numpy as np

from fbmdelay.kernels import HALF, HurstParameter
from fbmdelay.integrands import Integrand, SegmentGrid, dyadic_projection
from fbmdelay.integrator import delayed_parts_for_cells, noise_transforms
from fbmdelay.noise import NoiseBatch, NoisePath, ProcessPath, write_path_csv


def _clipped_avg_weights(edges: np.ndarray, t: float, lo: float, p1: float, step: float) -> np.ndarray:
    """Cell averages of u^(p1-1), u = t - q, with q clipped to [lo, t] per cell."""
    a = np.clip(edges[:-1], lo, t)
    b = np.clip(edges[1:], lo, t)
    ua = t - a
    ub = t - b
    return (ua ** p1 - ub ** p1) / (p1 * step)


def synthesize_w(noise: NoisePath, hp: HurstParameter, seg_start: float, t: float) -> float:
    """W_H(t) over [seg_start, t]; uses only increments in (seg_start, t]."""
    if t < seg_start:
        raise ValueError("need t >= seg_start")
    if t == seg_start:
        return 0.0
    g = noise.grid
    w = _clipped_avg_weights(g.edges(), t, seg_start, hp.h + HALF, g.step)
    return float(hp.c_h * np.dot(w, noise.increments))


def synthesize_dr(noise: NoisePath, hp: HurstParameter, seg_start: float, t: float) -> float:
    """DR_H(t) = c_h int_(-L)^seg_start (h-1/2)(t-q)^(h-3/2) dB(q); needs t > seg_start."""
    if t <= seg_start:
        raise ValueError("DR_H is defined for t strictly after the segment start")
    if hp.is_brownian:
        return 0.0
    g = noise.grid
    edges = g.edges()
    a = np.minimum(edges[:-1], seg_start)
    b = np.minimum(edges[1:], seg_start)
    p = hp.h - HALF
    w = ((t - a) ** p - (t - b) ** p) / g.step
    return float(hp.c_h * np.dot(w, noise.increments))


def path_csv_string(path: ProcessPath) -> str:
    buf = io.StringIO()
    write_path_csv(path, buf)
    return buf.getvalue()


def decay_gaps_per_level(gamma: Integrand, hp: HurstParameter, levels, nb: NoiseBatch) -> tuple:
    """cauchy_decay_study's per-chunk gaps, from one projection and one assembly per level.

    Returns (|v1 - v0|, |c1 - c0|) per replication for each level pair
    (m, m + 1), both levels integrated on the level-(m + 1) grid.
    """
    grid = nb.grid
    pre = noise_transforms(grid, nb.increments, hp, grid.origin_index + grid.main_steps)
    cells = {n: dyadic_projection(gamma, n, grid).values_on_cells(grid, nb.increments)
             for n in levels}
    gaps = []
    for m in levels[:-1]:
        seg = SegmentGrid.dyadic(grid.horizon, m + 1)
        v0, _, _, c0 = delayed_parts_for_cells(cells[m], seg, nb, hp, pre)
        v1, _, _, c1 = delayed_parts_for_cells(cells[m + 1], seg, nb, hp, pre)
        gaps += [np.abs(v1 - v0), np.abs(c1 - c0)]
    return tuple(gaps)
