"""Seeded Brownian driver and moving-average synthesis of the derived processes.

A NoiseBatch holds the increments of independent standard Brownian paths,
one row per replication, on a uniform lattice covering [-L, T]; a single
path is a batch of one.  The rows are the only source of randomness, and
every process here (B, B_H, W_H, R_H, DR_H) is a deterministic functional of
them, computed for all rows at once.  Wiener integrals are discretized with
cell-averaged kernel weights: the exact integral of the power kernel over
each noise cell, divided by the step, applied to the increment.  On the
uniform lattice those weights are a function of the index lag only, so whole
paths come out of one causal convolution (FFT), `history_conv`; `block_conv`
restarts one at every block start, for the delayed integral's segments and
forecast runs.  The B_H and DR_H weights, differences of powers, are taken
through expm1/log1p so that they keep their relative precision as h -> 1/2.

`history_conv` also takes a stack of kernels that read the same window of
driving cells (one per Hurst value, say): each row of the window is
transformed forward once, and its spectrum serves every kernel.  Rows go
through the transforms in blocks of at most `_FFT_BLOCK_POINTS` FFT points,
so the spectrum held across the kernels stays small whatever the batch.
`fbm_values` and the delayed integral's history fields take a list of
Hurst values this way.

Everything here runs on the calling thread: the drivers run whole chunks
of replications on threads instead (`experiments._replicate`), and each
chunk's draw and transforms are serial.  Each row is drawn from its own
stream and transformed as one 1-D FFT, so the output bytes do not depend
on the row blocks or the number of kernels.

Measurability is structural: any quantity conditioned on time tau is
computed from increments in cells ending at or before tau, enforced by
slicing the window of driving cells, never by zeroing data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy import fft as _fft

from .kernels import HALF, HurstParameter, truncation_tail_bound

__all__ = [
    "SimulationGrid",
    "NoiseBatch",
    "make_grid",
    "generate_noise_batch",
    "history_conv",
    "block_conv",
    "process_values",
    "dr_pointwise_closed_form",
    "dr_energy_closed_form",
    "write_path_csv",
]

PROCESS_KINDS = ("B", "B_H", "W_H", "R_H", "DR_H")

_LATTICE_RTOL = 1e-9

#: a history convolution transforms its rows in blocks of at most this many FFT points,
#: which bounds the spectra and inverse transforms it holds at once; the budget is per
#: thread, since every chunk thread of a driver runs its own convolutions
_FFT_BLOCK_POINTS = 2 ** 20

#: block_conv takes a Toeplitz product up to this block length, an FFT beyond
_TOEPLITZ_MAX = 256


@dataclass(frozen=True)
class SimulationGrid:
    """Uniform lattice over [warmup_start, horizon] with the origin at 0."""

    warmup_start: float
    horizon: float
    step: float
    cell_count: int

    #: not a field: lattice times, integrand kernels and forecasts all count from t = 0
    origin: ClassVar[float] = 0.0

    def __post_init__(self):
        if not (self.warmup_start <= self.origin < self.horizon):
            raise ValueError("need warmup_start <= 0 < horizon")
        if self.step <= 0.0:
            raise ValueError("step must be positive")
        span = self.horizon - self.warmup_start
        if abs(self.step * self.cell_count - span) > _LATTICE_RTOL * span:
            raise ValueError("step * cell_count must equal horizon - warmup_start")

    @property
    def origin_index(self) -> int:
        return int(round((self.origin - self.warmup_start) / self.step))

    @property
    def main_steps(self) -> int:
        """Number of cells on [origin, horizon]."""
        return self.cell_count - self.origin_index

    @property
    def warmup_length(self) -> float:
        return self.origin - self.warmup_start

    def edges(self) -> np.ndarray:
        return self.warmup_start + self.step * np.arange(self.cell_count + 1)

    def index_of(self, t):
        """Lattice index of a grid point, or an array of them for an array of times; rejects off-lattice times."""
        pos = (np.asarray(t, dtype=float) - self.warmup_start) / self.step
        idx = np.rint(pos).astype(int)  # half to even, as round()
        bad = (idx < 0) | (idx > self.cell_count) | (np.abs(pos - idx) > 1e-6)
        if np.any(bad):
            raise ValueError(f"t={float(np.asarray(t)[bad][0])!r} is not on the simulation lattice")
        return int(idx) if idx.ndim == 0 else idx


def make_grid(horizon: float, steps: int, warmup: float = 0.0) -> SimulationGrid:
    """Grid with `steps` cells on [0, horizon] and >= warmup of history before 0."""
    if horizon <= 0.0 or steps < 1:
        raise ValueError("need horizon > 0 and steps >= 1")
    if warmup < 0.0:
        raise ValueError("warmup must be >= 0")
    step = horizon / steps
    warmup_cells = int(math.ceil(warmup / step - 1e-12))
    return SimulationGrid(
        warmup_start=-warmup_cells * step,
        horizon=horizon,
        step=step,
        cell_count=steps + warmup_cells,
    )


@dataclass(frozen=True)
class NoiseBatch:
    """Independent Brownian increments sharing one grid, one row per replication."""

    grid: SimulationGrid
    increments: np.ndarray  # shape (replications, cell_count)
    seed: int
    first_stream: int = 0

    def __post_init__(self):
        if self.increments.ndim != 2 or self.increments.shape[1] != self.grid.cell_count:
            raise ValueError("increments must be (replications, cell_count)")
        self.increments.setflags(write=False)

    @property
    def replications(self) -> int:
        return self.increments.shape[0]


def _rng(seed: int, stream: int) -> np.random.Generator:
    # Philox is counter-based: draw i of stream s is a pure function of (seed, s, i).
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


def generate_noise_batch(seed: int, grid: SimulationGrid, reps: int, first_stream: int = 0) -> NoiseBatch:
    """Independent replications: row r holds stream first_stream + r of seed, variance step per cell.

    Bit-for-bit reproducible, and a row does not depend on the batch it is
    drawn in: every row is drawn in place from its own stream.
    """
    out = np.empty((reps, grid.cell_count))
    root = math.sqrt(grid.step)
    for r in range(reps):
        _rng(seed, first_stream + r).standard_normal(out=out[r])
        out[r] *= root
    return NoiseBatch(grid=grid, increments=out, seed=seed, first_stream=first_stream)


# ---------------------------------------------------------------------------
# kernel weight tables and the history convolution on the lattice
# ---------------------------------------------------------------------------

def avg_kernel_table(hp: HurstParameter, n: int, step: float) -> np.ndarray:
    """A[m] = cell average of u^(h-1/2) over [(m-1)*step, m*step]; A[0] = 0.

    These are the fbm synthesis weights: at lag m the increment of cell
    [t_{j-m}, t_{j-m+1}] enters B_H(t_j) with weight c_h * A[m].  As D in
    dr_kernel_table, the difference of powers in A[m] = ((m step)^p1 -
    ((m-1) step)^p1) / (p1 step), p1 = h + 1/2, goes through expm1/log1p.
    """
    p1 = hp.h + HALF
    k = np.arange(1, n, dtype=float)  # k = m - 1 for the lags m = 2..n
    out = np.zeros(n + 1)
    out[1:2] = step ** p1 / (p1 * step)
    out[2:] = (k * step) ** p1 * np.expm1(p1 * np.log1p(1.0 / k)) / (p1 * step)
    return out


def dr_kernel_table(hp: HurstParameter, n: int, step: float) -> np.ndarray:
    """D[m] = cell average of f'_t = (h-1/2) u^(h-3/2) at lag m; D[0] = 0.

    D[m] = ((m step)^p - ((m-1) step)^p) / step with p = h - 1/2.  Lag 1 is
    step^p / step; from lag 2 on the difference is taken as
    ((m-1) step)^p expm1(p log1p(1/(m-1))) / step, which keeps full relative
    precision as p -> 0, where the plain difference of powers cancels.
    """
    if hp.is_brownian:
        return np.zeros(n + 1)
    p = hp.h - HALF
    k = np.arange(1, n, dtype=float)  # k = m - 1 for the lags m = 2..n
    out = np.zeros(n + 1)
    out[1:2] = step ** p / step
    out[2:] = (k * step) ** p * np.expm1(p * np.log1p(1.0 / k)) / step
    return out


def history_conv(incs: np.ndarray, table: np.ndarray | None,
                 cells: tuple[int, int], outputs: tuple[int, int]) -> np.ndarray:
    """y[..., j - j0] = sum_{lo <= i < min(hi, j)} table[j - i] * incs[..., i] for j0 <= j < j1.

    cells = (lo, hi) is the window of driving cells and outputs = (j0, j1)
    the lattice points wanted; incs has the cells along the last axis.  The
    cells are sliced, never masked, and the circular FFT length is the
    shortest that keeps the requested outputs alias-free.  table=None is the
    unit kernel, an exact running sum (h = 1/2); otherwise table[0] is never
    read and table must reach lag j1 - 1 - lo.

    A (k, lags) table is k kernels on the same cells: the result is
    (k, ..., j1 - j0), and each row of the window is transformed forward
    once for all of them, then inverted once per kernel.  Row q of the
    result is byte for byte the call with table[q] alone.

    Rows are transformed in blocks of at most _FFT_BLOCK_POINTS FFT points
    (one row where a single row exceeds it).  Each row is transformed as
    one 1-D FFT, so the result is bit-identical for any block size.
    """
    j0, j1 = outputs
    lo = max(cells[0], 0)
    x = incs[..., lo:max(lo, min(cells[1], j1 - 1))]  # cells from j1 - 1 on reach no output
    m = x.shape[-1]
    k0, k1 = max(j0 - lo, 1), j1 - lo  # output lags from lo; lag <= 0 sees no cell
    kernels = () if table is None else table.shape[:-1]
    out = np.zeros(kernels + incs.shape[:-1] + (max(j1 - j0, 0),))
    if m == 0 or k1 <= k0:
        return out
    if table is None:
        out[..., k0 + lo - j0:] = np.cumsum(x, axis=-1)[..., np.minimum(np.arange(k0, k1), m) - 1]
        return out
    if table.shape[-1] < k1:
        raise ValueError(f"kernel table reaches lag {table.shape[-1] - 1}, need {k1 - 1}")
    # z = x * table[1:] linearly; y[k] = z[k - 1], kept alias-free for k0 <= k < k1
    n = _fft.next_fast_len(max(k1 - 1, m + k1 - 1 - k0))
    spectra = _fft.rfft(table[..., 1:k1], n, axis=-1).reshape(-1, n // 2 + 1)
    rows = x.reshape(-1, m)
    dest = out.reshape(len(spectra), rows.shape[0], out.shape[-1])[..., k0 + lo - j0:]
    block = max(_FFT_BLOCK_POINTS // n, 1)
    for r in range(0, rows.shape[0], block):
        fx = _fft.rfft(rows[r:r + block], n, axis=-1)
        prod = fx if len(spectra) == 1 else np.empty_like(fx)
        for q, spectrum in enumerate(spectra):
            np.multiply(fx, spectrum, out=prod)
            dest[q, r:r + block] = _fft.irfft(prod, n, axis=-1)[:, k0 - 1:k1 - 1]
    return out


def block_conv(x: np.ndarray, table: np.ndarray, bounds) -> np.ndarray:
    """y[..., j] = sum_{a <= i <= j} table[j - i] * x[..., i], a the start of j's block.

    bounds are the block edges along the last axis of x: 0, every later
    block start, x.shape[-1]; table[0] is read.  Equal blocks of L cells go
    at once as (..., n_blocks, L): a product with the L x L triangular
    Toeplitz matrix of table (matmul runs one per leading index, so no
    block's rounding sees the batch size), or one batched FFT beyond
    _TOEPLITZ_MAX cells.  Unequal blocks go one by one.
    """
    edges = np.asarray(bounds)
    lengths = np.diff(edges)
    if edges[0] != 0 or edges[-1] != x.shape[-1] or np.any(lengths <= 0):
        raise ValueError(f"block edges must rise from 0 to {x.shape[-1]}")
    if np.any(lengths != lengths[0]):
        out = np.empty(x.shape)
        for a, b in zip(edges[:-1], edges[1:]):
            out[..., a:b] = block_conv(x[..., a:b], table, (0, b - a))
        return out
    size = int(lengths[0])
    blocks = x.reshape(x.shape[:-1] + (lengths.size, size))
    if size > _TOEPLITZ_MAX:
        y = history_conv(blocks, np.concatenate(([0.0], table[:size])), (0, size), (1, size + 1))
    else:
        lag = np.subtract.outer(np.arange(size), np.arange(size))  # lag[i, j] = i - j
        y = blocks @ np.where(lag <= 0, table[np.abs(lag)], 0.0)
    return y.reshape(x.shape)


def synthesis_tables(hps, n: int, step: float) -> np.ndarray | None:
    """c_h * A to lag n for every h in hps, stacked as (len(hps), n + 1).

    None (the unit kernel, an exact running sum) when every h is 1/2; a
    list that mixes h = 1/2 with h > 1/2 has no one stacked kernel and is
    refused.
    """
    brownian = [hp.is_brownian for hp in hps]
    if all(brownian):
        return None
    if any(brownian):
        raise ValueError("h = 1/2 is an exact running sum; do not stack it with h > 1/2")
    return np.stack([hp.c_h * avg_kernel_table(hp, n, step) for hp in hps])


def _synthesis_table(hp: HurstParameter, grid: SimulationGrid) -> np.ndarray | None:
    """c_h * A over the whole lattice, or None (the unit kernel) at h = 1/2."""
    tables = synthesis_tables((hp,), grid.cell_count, grid.step)
    return None if tables is None else tables[0]


def fbm_values(incs: np.ndarray, grid: SimulationGrid, hps) -> np.ndarray:
    """B_H at the lattice points of [0, horizon] for each h in hps; B_H(0) = 0.

    Stacked as (len(hps), ..., main_steps + 1) and batched over the leading
    axes of incs.  hps are all h > 1/2, which share one forward transform of
    the noise, or all h = 1/2 (see synthesis_tables).
    """
    m0, n = grid.origin_index, grid.cell_count
    tables = synthesis_tables(hps, n, grid.step)
    if tables is None:  # at h = 1/2 the history cancels exactly: only post-origin cells enter, B(0) = 0
        return np.repeat(history_conv(incs, None, (m0, n), (m0, n + 1))[None], len(hps), axis=0)
    if m0 == 0:
        raise ValueError("empty warmup window with h > 1/2: truncation error uncontrolled")
    x = history_conv(incs, tables, (0, n), (m0, n + 1))
    x -= x[..., :1]
    return x


def w_values(incs: np.ndarray, grid: SimulationGrid, hp: HurstParameter, seg_idx: int) -> np.ndarray:
    """W_H(t_j) = c_h int_seg^t (t-r)^(h-1/2) dB for lattice j = seg_idx..cell_count."""
    n = grid.cell_count
    return history_conv(incs, _synthesis_table(hp, grid), (seg_idx, n), (seg_idx, n + 1))


def r_values(incs: np.ndarray, grid: SimulationGrid, hp: HurstParameter, seg_idx: int) -> np.ndarray:
    """R_H(t_j) (history component relative to the segment start), j = seg_idx..cell_count.

    Obtained by exact integration of DR_H from the segment start: the
    primitive of the cell-averaged f-kernel synthesis, so R(seg) = 0.
    """
    y = history_conv(incs, _synthesis_table(hp, grid), (0, seg_idx), (seg_idx, grid.cell_count + 1))
    return y - y[..., :1]


def dr_values(incs: np.ndarray, grid: SimulationGrid, hp: HurstParameter, seg_idx: int) -> np.ndarray:
    """DR_H(t_j) at lattice points j = seg_idx+1..cell_count (strictly after the start)."""
    if hp.is_brownian:
        return np.zeros(incs.shape[:-1] + (grid.cell_count - seg_idx,))
    table = hp.c_h * dr_kernel_table(hp, grid.cell_count, grid.step)
    return history_conv(incs, table, (0, seg_idx), (seg_idx + 1, grid.cell_count + 1))


def process_values(incs: np.ndarray, grid: SimulationGrid, hp: HurstParameter,
                   kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(times, values) of a process kind on [0, horizon], batched over the leading axes of incs.

    B is the driving Brownian motion with B(0) = 0 (hp is not read), W_H and
    R_H are taken from the segment start 0, and DR_H starts one step after
    it.  times is broadcast to the shape of values.
    """
    m0, n = grid.origin_index, grid.cell_count
    times = grid.step * np.arange(grid.main_steps + 1)
    if kind == "B":
        values = history_conv(incs, None, (m0, n), (m0, n + 1))
    elif kind == "B_H":
        values = fbm_values(incs, grid, (hp,))[0]
    elif kind == "W_H":
        values = w_values(incs, grid, hp, m0)
    elif kind == "R_H":
        values = r_values(incs, grid, hp, m0)
    elif kind == "DR_H":
        values = dr_values(incs, grid, hp, m0)
        times = grid.step * (1 + np.arange(grid.main_steps))
    else:
        raise ValueError(f"unknown process kind {kind!r}")
    return np.broadcast_to(times, values.shape), values


def dr_pointwise_closed_form(hp: HurstParameter, span: float) -> float:
    """E DR_H(s + span)^2 = c_h^2 (h-1/2)^2 / (2-2h) * span^(2h-2)."""
    if hp.is_brownian:
        return 0.0
    h = hp.h
    return hp.c_h ** 2 * (h - HALF) ** 2 / (2 - 2 * h) * span ** (2 * h - 2)


def dr_energy_closed_form(hp: HurstParameter, span: float) -> float:
    """E int_s^(s+span) DR_H^2 = c_h^2 (h-1/2) / (2(2-2h)) * span^(2h-1)."""
    if span <= 0.0:
        raise ValueError("span must be positive")
    if hp.is_brownian:
        return 0.0
    h = hp.h
    return hp.c_h ** 2 * (h - HALF) / (2 * (2 - 2 * h)) * span ** (2 * h - 1)


# ---------------------------------------------------------------------------
# exact second moments of the discrete synthesis (declared budgets)
# ---------------------------------------------------------------------------

def fbm_weight_vector(grid: SimulationGrid, hp: HurstParameter, t_idx: int) -> np.ndarray:
    """Per-cell synthesis weights w with B_H(t_idx) = sum_i w_i dB_i."""
    table = avg_kernel_table(hp, grid.cell_count, grid.step)
    m0 = grid.origin_index
    i = np.arange(grid.cell_count)
    lag_t = np.clip(t_idx - i, 0, None)
    lag_0 = np.clip(m0 - i, 0, None)
    return hp.c_h * (table[lag_t] - table[lag_0])


def discrete_fbm_cov(grid: SimulationGrid, hp: HurstParameter, t1: float, t2: float) -> float:
    """Exact E[B_H(t1) B_H(t2)] of the synthesized (truncated, discretized) process."""
    w1 = fbm_weight_vector(grid, hp, grid.index_of(t1))
    w2 = fbm_weight_vector(grid, hp, grid.index_of(t2))
    return float(grid.step * np.dot(w1, w2))


def discrete_dr_energy(grid: SimulationGrid, hp: HurstParameter, seg_idx: int,
                       eval_idx: np.ndarray, quad_weights: np.ndarray) -> float:
    """Exact expectation of sum_l quad_weights[l] * DR_H(t_{eval_idx[l]})^2, history cut at the grid start.

    One evaluation point with weight 1 is the pointwise second moment E DR_H(t)^2.
    """
    if hp.is_brownian:
        return 0.0
    eval_idx = np.asarray(eval_idx)
    if eval_idx.min() < seg_idx:
        raise ValueError("DR_H is evaluated at lattice points from seg_idx on")
    # DR_H(t_j) weighs cell i < seg_idx with c_h D[j - i], so its second moment is step c_h^2
    # times the sum of D^2 over lags j - seg_idx + 1 .. j: a difference of tail sums, added
    # from the far lags in, so the large near lags do not swamp the small far ones
    sq = dr_kernel_table(hp, grid.cell_count, grid.step)[1:] ** 2
    tail = np.append(np.cumsum(sq[::-1])[::-1], 0.0)  # tail[l] = sum of D[m]^2 over m > l
    moments = hp.c_h ** 2 * grid.step * (tail[eval_idx - seg_idx] - tail[eval_idx])
    return float(np.dot(quad_weights, moments))


def declared_truncation_budget(grid: SimulationGrid, hp: HurstParameter) -> float:
    """Variance bound for the history lost beyond the grid's warmup window."""
    return truncation_tail_bound(hp, grid.horizon, grid.warmup_length) if not hp.is_brownian else 0.0


def write_path_csv(kind: str, h: float, seed: int, times: np.ndarray, values: np.ndarray, path) -> None:
    """CSV with (time, value) rows of one path; the header row names kind, h and seed."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# kind={kind} h={h!r} seed={seed}\n")
        fh.write("time,value\n")
        for t, v in zip(times, values):
            fh.write(f"{float(t)!r},{float(v)!r}\n")
