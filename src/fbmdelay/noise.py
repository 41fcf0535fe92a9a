"""Seeded Brownian driver and moving-average synthesis of the derived processes.

generate_noise_batch draws the increments of independent standard Brownian
paths as a read-only array, one row per replication, on a lattice covering
[-L, T] (or its first cells, where its readers stop before the rest); a
single path is a batch of one.  The rows are the only source of randomness,
and every process here (B, B_H, W_H, R_H, DR_H) is a deterministic
functional of them and their grid, computed for all rows at once.  Wiener
integrals are discretized with cell-averaged kernel weights: the exact
integral of the power kernel over each noise cell, divided by its width,
applied to the increment, whose variance is that width.  The B_H and DR_H
weights, differences of powers, go through kernels.power_diff, the one place
such a difference is taken, so that they keep their relative precision as
h -> 1/2.

The history is graded (make_grid), after the near/far split of the hybrid
scheme (Bennedsen, Lunde & Pakkanen, Finance Stoch. 2017).  Cells of one
step cover [0, T] and a near window of NEAR_WINDOW * T before the origin;
beyond it the far cells widen by FAR_RATIO each out to the reach, L =
--warmup, about 530 cells for L = 1e14 at desk scale.  On the cells of one
step the weights are a function of the index lag only, so whole paths come
out of one causal convolution (FFT), `history_conv`.  `blockwise_conv`
takes its sum within every block, a Toeplitz product for short blocks;
`block_conv` restarts one at every block start through it, for the delayed
integral's segments and forecast runs.  A far cell's weight is a smooth
function of t on [0, T]: it is interpolated at FAR_NODES Chebyshev nodes,
so the far history at every main lattice point costs two small products
per row (`past_conv`, the one reader of the cells before the origin).
`past_dot` takes an inner product with it without forming it: a row with
few nonzero weights (a step integrand's breakpoints) by one dot product of
its cells with the kernel at each, any other in the frequency domain.  Both refuse a grid with no cells before the
origin (`refuse_no_history`), where the history would be cut with no budget.
The kernels are built once per grid and list of h (`history_kernel`) and
shared by every chunk thread.

`history_conv` also takes a stack of kernels that read the same window of
driving cells (one per Hurst value, say): each row of the window is
transformed forward once, and its spectrum serves every kernel.  Rows go
through the transforms, and through past_conv's far product, in blocks of
at most `_FFT_BLOCK_POINTS` points, 0.5 MiB of float64: a block's padded
rows, spectrum and inverse stay in L2, and a stage holds its result and a
few blocks whatever the batch or the number of kernels.
`fbm_values` and the delayed integral's history fields take a list of
Hurst values this way.

Everything here runs on the calling thread: the drivers run whole chunks
of replications on threads instead (`experiments._replicate`), and each
chunk's draw and transforms are serial.  Each row is drawn from its own
stream and transformed as one 1-D FFT, and a sum over a row is a
`row_dot` or an `np.sum` along the last axis, each in an order fixed by
the row alone, so the output bytes do not depend on the row blocks, the
batch or the number of kernels.

Measurability is structural: any quantity conditioned on time tau is
computed from increments in cells ending at or before tau, enforced by
slicing the window of driving cells, never by zeroing data.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
from numbers import Integral
from typing import ClassVar

import numpy as np
from scipy import fft as _fft

from .kernels import HALF, HurstParameter, power_diff, truncation_tail_bound

__all__ = [
    "SimulationGrid",
    "make_grid",
    "generate_noise_batch",
    "history_conv",
    "blockwise_conv",
    "block_conv",
    "history_kernel",
    "past_conv",
    "past_dot",
    "row_dot",
    "process_values",
    "dr_pointwise_closed_form",
    "dr_energy_closed_form",
    "write_path_csv",
]

PROCESS_KINDS = ("B", "B_H", "W_H", "R_H", "DR_H")

#: the transforms and far products take their rows in blocks of at most this many points:
#: 0.5 MiB of float64, so a block's padded rows, spectrum and inverse stay in a 2 MiB L2
#: and a stage holds its result and a few blocks, never its whole batch's scratch; the
#: budget is per thread, since every chunk thread of a driver runs its own transforms
_FFT_BLOCK_POINTS = 2 ** 16

#: blockwise_conv takes a Toeplitz product where its window and outputs are this many cells or fewer, an FFT beyond
_TOEPLITZ_MAX = 256
_DOT_TILE = 4096  # row_dot's tile: within one 8,192-element einsum buffer

#: the history is cells of one step for this many horizons before the origin (D = T) ...
NEAR_WINDOW = 1
#: ... and beyond them cells that widen by this ratio, one to the next, out to the reach
FAR_RATIO = 1.0 + 1.0 / 16.0
#: the far cells' weights are interpolated in t over [0, T] at this many Chebyshev nodes
FAR_NODES = 20
#: Gauss-Legendre rule for a far cell's average of the B_H kernel
_FAR_GAUSS = np.polynomial.legendre.leggauss(8)
#: the numpy bit generator behind every stream: a seed's bytes are those of this generator, and a
#: manifest records it
BIT_GENERATOR = "SFC64"


@dataclass(frozen=True)
class SimulationGrid:
    """Lattice over [warmup_start, horizon] with the origin at 0, held as its counts: every time is derived.

    main_steps cells of one step cover [0, horizon], and near_cells more the near window before the origin,
    from uniform_start.  Before them, far_cells cells (or none) widen by FAR_RATIO each, out to warmup_start.
    """

    horizon: float
    main_steps: int
    near_cells: int = 0
    far_cells: int = 0

    #: not a field: lattice times, integrand kernels and forecasts all count from t = 0
    origin: ClassVar[float] = 0.0

    def __post_init__(self):
        if not 0.0 < self.horizon < math.inf or self.main_steps < 1:
            raise ValueError(f"need a finite horizon > 0 and steps >= 1 (got {self.horizon!r} and {self.main_steps})")
        if self.step == 0.0:
            raise ValueError(f"a horizon of {self.horizon!r} in {self.main_steps} steps underflows to a step of 0")
        counts = (self.main_steps, self.near_cells, self.far_cells)
        if not all(isinstance(n, Integral) and n >= 0 for n in counts) or (self.far_cells and not self.near_cells):
            raise ValueError(f"need whole counts >= 0, and near cells before any far cells (got {counts})")

    @property
    def step(self) -> float:
        return self.horizon / self.main_steps

    @property
    def cell_count(self) -> int:
        return self.far_cells + self.near_cells + self.main_steps

    @property
    def origin_index(self) -> int:
        return self.far_cells + self.near_cells

    @property
    def uniform_start(self) -> float:
        """Where the cells of one step begin: the far cells' end, warmup_start where there are none."""
        return -self.near_cells * self.step  # an int negated: no warmup starts at 0.0, not -0.0

    @property
    def warmup_start(self) -> float:
        return self.uniform_start * FAR_RATIO ** self.far_cells

    @property
    def warmup_length(self) -> float:
        return self.origin - self.warmup_start

    def far_edges(self) -> np.ndarray:
        """The far cells' edges, from warmup_start to uniform_start."""
        return self.uniform_start * FAR_RATIO ** np.arange(self.far_cells, -1, -1)

    def far_widths(self) -> np.ndarray:
        """The far cells' widths, which are the variances of their increments."""
        return np.diff(self.far_edges())

    def index_of(self, t):
        """Lattice index of a point of the uniform lattice, or an array of them for an array of times.

        Rejects off-lattice times, and times before uniform_start.
        """
        pos = (np.asarray(t, dtype=float) - self.uniform_start) / self.step
        idx = np.rint(pos).astype(int)  # half to even, as round()
        bad = (idx < 0) | (idx > self.near_cells + self.main_steps) | (np.abs(pos - idx) > 1e-6)
        if np.any(bad):
            raise ValueError(f"t={float(np.asarray(t)[bad][0])!r} is not on the simulation lattice (only its "
                             f"cells of one step, from {self.uniform_start!r}, have indices)")
        idx = idx + self.far_cells
        return int(idx) if idx.ndim == 0 else idx


def make_grid(horizon: float, steps: int, warmup: float = 0.0) -> SimulationGrid:
    """Grid with `steps` cells on [0, horizon] and >= warmup of history before 0: the counts that reach it.

    The history is cells of one step out to NEAR_WINDOW horizons before the
    origin, or to warmup if that is shorter; beyond them, far cells that
    widen by FAR_RATIO each, out to warmup or just past it (none if shorter).
    """
    step = SimulationGrid(horizon, steps).step  # the grid checks the horizon and the steps
    if not 0.0 <= warmup < math.inf:
        raise ValueError("warmup must be >= 0 and finite")
    overflow = ValueError(f"a history reaching {warmup!r} back overflows the lattice of step {step!r}")
    if warmup / step == math.inf:
        raise overflow
    warmup_cells = int(math.ceil(warmup / step - 1e-12))
    near_cells = min(warmup_cells, NEAR_WINDOW * steps)
    far = 0
    if warmup_cells > near_cells:
        far = int(math.ceil(math.log(warmup / (near_cells * step)) / math.log(FAR_RATIO) - 1e-12))
    grid = SimulationGrid(horizon, steps, near_cells, far)
    try:
        start = grid.warmup_start
    except OverflowError:
        raise overflow from None
    if start == -math.inf:
        raise overflow
    return grid


def _rng(seed: int, stream: int) -> np.random.Generator:
    # stream s of seed is a new generator on the spawn key (s,): its normals come in order, and the
    # row does not depend on the other streams drawn, or on any draw before it
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(getattr(np.random, BIT_GENERATOR)(ss))


def generate_noise_batch(seed: int, grid: SimulationGrid, reps: int, first_stream: int = 0,
                         cells: int | None = None) -> np.ndarray:
    """Independent replications, a read-only (reps, cells) array: row r is stream first_stream + r of seed.

    A cell's increment has its width as variance.  Bit-for-bit reproducible,
    and a row does not depend on the batch it is drawn in: every row is
    drawn in place from its own stream.  cells draws only the first cells of
    each row (default: all of them).  A stream's normals come in order, so
    these are the bytes of the full row's first cells, and a reader that
    stops before them need not pay for the rest.
    """
    cells = grid.cell_count if cells is None else cells
    if not 0 <= cells <= grid.cell_count:
        raise ValueError(f"need 0 <= cells <= {grid.cell_count} (got {cells})")
    out = np.empty((reps, cells))
    for r in range(reps):
        _rng(seed, first_stream + r).standard_normal(out=out[r])
    far = grid.far_cells
    out[:, :far] *= np.sqrt(grid.far_widths()[:cells])
    out[:, far:] *= math.sqrt(grid.step)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# kernel weight tables and the history convolution on the lattice
# ---------------------------------------------------------------------------

def avg_kernel_table(hp: HurstParameter, n: int, step: float) -> np.ndarray:
    """A[m] = cell average of u^(h-1/2) over [(m-1)*step, m*step]; A[0] = 0.

    These are the fbm synthesis weights: at lag m the increment of cell
    [t_{j-m}, t_{j-m+1}] enters B_H(t_j) with weight c_h * A[m] = c_h
    ((m step)^p1 - ((m-1) step)^p1) / (p1 step), p1 = h + 1/2 (power_diff).
    """
    p1 = hp.h + HALF
    k = np.arange(1, n, dtype=float)  # k = m - 1 for the lags m = 2..n
    out = np.zeros(n + 1)
    out[1:2] = step ** p1 / (p1 * step)
    out[2:] = power_diff(k * step, 1.0 / k, p1) / (p1 * step)
    return out


def dr_kernel_table(hp: HurstParameter, n: int, step: float) -> np.ndarray:
    """D[m] = cell average of f'_t = (h-1/2) u^(h-3/2) at lag m; D[0] = 0.

    D[m] = ((m step)^p - ((m-1) step)^p) / step with p = h - 1/2.  Lag 1 is
    step^p / step; from lag 2 on the difference goes through power_diff.
    """
    if hp.is_brownian:
        return np.zeros(n + 1)
    p = hp.h - HALF
    k = np.arange(1, n, dtype=float)  # k = m - 1 for the lags m = 2..n
    out = np.zeros(n + 1)
    out[1:2] = step ** p / step
    out[2:] = power_diff(k * step, 1.0 / k, p) / step
    return out


def _window(incs: np.ndarray, lo: int, hi: int, outputs: tuple[int, int]) -> tuple[int, int, int, int]:
    """(end, k0, k1, n): the cells lo..end - 1 of lo..hi - 1 that outputs = (j0, j1) read, lags and FFT length."""
    j0, j1 = outputs
    end = max(lo, min(hi, j1 - 1))  # cells from j1 - 1 on reach no output
    if end > max(lo, incs.shape[-1]):  # refused, never cut
        raise ValueError(f"the window of driving cells reaches cell {end - 1}, but only "
                         f"{incs.shape[-1]} cells a row are drawn")
    k0, k1 = max(j0 - lo, 1), j1 - lo  # the output lags from lo; a lag <= 0 sees no cell
    # the shortest circular FFT length that keeps the outputs alias-free; 0 where no output sees a cell
    n = _fft.next_fast_len(max(k1 - 1, end - lo + k1 - 1 - k0)) if end > lo and k1 > k0 else 0
    return end, k0, k1, n


def _row_blocks(rows: int, points: int):
    """Slices over rows rows of points points each, at most _FFT_BLOCK_POINTS points a slice (or one row)."""
    size = max(_FFT_BLOCK_POINTS // max(points, 1), 1)
    return (slice(r, r + size) for r in range(0, rows, size))


def row_dot(spec: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.einsum(spec, a, b), each output summed in tiles of at most _DOT_TILE terms, added in tile order.

    The one reduction over a row.  einsum sums a tile in one inner loop, never in BLAS, so an output's bytes
    depend neither on the rows, blocks or kernels beside it nor on the CPU count.  The first summed index is
    tiled, the others taken whole (entry by entry where they exceed a tile); each is in both operands.
    """
    sa, sb, out = spec.replace("->", ",").split(",")
    axis = lambda sub, op, d: sub.index(d) - (len(sub) - op.ndim) * ("..." in sub[:sub.index(d)])  # noqa: E731
    c, *others = [d for d in sa if d.isalpha() and d not in out]
    ax, bx, rest = axis(sa, a, c), axis(sb, b, c), math.prod(a.shape[axis(sa, a, d)] for d in others)
    n, tile = a.shape[ax], max(_DOT_TILE // rest, 1)
    if n <= tile:
        return np.einsum(spec, a, b)
    cut = lambda k: (a[(slice(None),) * ax + (k,)], b[(slice(None),) * bx + (k,)])  # noqa: E731
    parts = ((row_dot(spec.replace(c, ""), *cut(i)) for i in range(n)) if rest > _DOT_TILE else
             (np.einsum(spec, *cut(slice(lo, lo + tile))) for lo in range(0, n, tile)))
    return functools.reduce(np.add, parts)


def history_conv(incs: np.ndarray, table: np.ndarray | None,
                 cells: tuple[int, int], outputs: tuple[int, int]) -> np.ndarray:
    """y[..., j - j0] = sum_{lo <= i < min(hi, j)} table[j - i] * incs[..., i] for j0 <= j < j1.

    cells = (lo, hi) is the window of driving cells and outputs = (j0, j1)
    the lattice points wanted; incs has the cells along the last axis.  The
    cells are sliced, never masked, and a window that reaches past the last
    cell of incs (a batch drawn short, say) is refused, never cut (_window).
    table=None is the unit kernel, an exact running sum (h = 1/2); otherwise
    table[0] is never read and table must reach lag j1 - 1 - lo.

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
    end, k0, k1, n = _window(incs, lo, cells[1], outputs)
    x = incs[..., lo:end]
    m = end - lo
    kernels = () if table is None else table.shape[:-1]
    out = np.zeros(kernels + incs.shape[:-1] + (max(j1 - j0, 0),))
    if not n:
        return out
    if table is None:
        out[..., k0 + lo - j0:] = np.cumsum(x, axis=-1)[..., np.minimum(np.arange(k0, k1), m) - 1]
        return out
    if table.shape[-1] < k1:
        raise ValueError(f"kernel table reaches lag {table.shape[-1] - 1}, need {k1 - 1}")
    # z = x * table[1:] linearly; y[k] = z[k - 1], kept alias-free for k0 <= k < k1
    spectra = _fft.rfft(table[..., 1:k1], n, axis=-1).reshape(-1, n // 2 + 1)
    rows = x.reshape(-1, m)
    dest = out.reshape(len(spectra), rows.shape[0], out.shape[-1])[..., k0 + lo - j0:]
    for blk in _row_blocks(len(rows), n):
        fx = _fft.rfft(rows[blk], n, axis=-1)
        prod = fx if len(spectra) == 1 else np.empty_like(fx)
        for q, spectrum in enumerate(spectra):
            np.multiply(fx, spectrum, out=prod)
            dest[q, blk] = _fft.irfft(prod, n, axis=-1)[:, k0 - 1:k1 - 1]
    return out


def blockwise_conv(blocks: np.ndarray, table: np.ndarray,
                   cells: tuple[int, int], outputs: tuple[int, int]) -> np.ndarray:
    """history_conv(blocks, table, cells, outputs) within every block along the last axis, for one kernel.

    A window and outputs of at most _TOEPLITZ_MAX cells each are one product blocks[..., lo:hi] @ M, M[i, j] =
    table[j - i] where i < j, else 0, C-ordered, so that matmul runs one per leading index and no block's
    rounding sees the batch; longer ones take history_conv's batched FFT.
    """
    (lo, hi), (j0, j1) = cells, outputs
    # longer ones, and a table too short for the lags (which history_conv refuses), take the FFT
    if hi - lo > _TOEPLITZ_MAX or j1 - j0 > _TOEPLITZ_MAX or table.shape[-1] < j1 - lo:
        return history_conv(blocks, table, cells, outputs)
    lag = np.arange(j0, j1) - np.arange(lo, hi)[:, None]  # lag[i - lo, j - j0] = j - i
    # M is one gather: lag 0 reads the leading zero, and a lag < 0 one of the trailing zeros from the end
    padded = np.concatenate(([0.0], table[1:j1 - lo], np.zeros(max(hi - 1 - j0, 0))))
    return blocks[..., lo:hi] @ padded[lag]


def block_conv(x: np.ndarray, table: np.ndarray, bounds) -> np.ndarray:
    """y[..., j] = sum_{a <= i <= j} table[j - i] * x[..., i], a the start of j's block.

    bounds are the block edges along the last axis of x: 0, every later block start, x.shape[-1]; table[0]
    is read.  Equal blocks of L cells go at once as (..., n_blocks, L) through blockwise_conv, unequal ones
    one by one.
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
    y = blockwise_conv(blocks, np.concatenate(([0.0], table[:size])), (0, size), (1, size + 1))
    return y.reshape(x.shape)


@dataclass(frozen=True)
class HistoryKernel:
    """One kernel for a list of Hurst values on one grid, one row per h, read-only.

    table[q, m] is kernel q's cell-average weight at lag m on the cells of
    one step (table[q, 0] is never read).  The far cells' weights at the
    main lattice point j are sum_m basis[m, j - origin] far[q, m]: far holds
    them at the FAR_NODES Chebyshev nodes of [0, T], and basis interpolates
    (B_H's over t, and basis times t; far is (k, FAR_NODES, 0) on a grid
    with no far cells).  spectra caches the half spectra of past_dot, per window.
    """

    table: np.ndarray
    far: np.ndarray
    basis: np.ndarray
    spectra: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def spectrum(self, k0: int, k1: int, n: int) -> np.ndarray:
        """past_dot's weighted half spectrum of every kernel, for output lags k0..k1 - 1 at FFT length n.

        The kernel at lags 1..k1 - 1 is rolled so that lag k0 sits at index
        0: its circular correlation with the weights, which start at lag k0,
        is then the inner product with the convolution.  Row q holds
        c_k T_k / n as (Re, -Im) pairs, T the rfft of table[q] so rolled and
        c_k the count of bin k in the full spectrum: 1 at 0 and n/2, else 2.
        Built once per window under the kernel lock, shared by every chunk
        thread.
        """
        with _KERNEL_LOCK:
            if (k0, k1, n) not in self.spectra:
                rolled = np.zeros((len(self.table), n))
                rolled[:, :k1 - k0] = self.table[:, k0:k1]
                rolled[:, n - k0 + 1:] = self.table[:, 1:k0]
                t = _fft.rfft(rolled, n, axis=-1)
                t[:, 1:(n + 1) // 2] *= 2.0
                t /= n
                spectrum = np.stack([t.real, -t.imag], axis=-1).reshape(len(t), -1)
                spectrum.setflags(write=False)
                self.spectra[k0, k1, n] = spectrum
            return self.spectra[k0, k1, n]

    def far_weights(self, grid: SimulationGrid, j) -> np.ndarray:
        """(len(hps), ..., far_cells): the far cells' weights at main lattice point(s) j."""
        if np.any(np.asarray(j) < grid.origin_index):
            raise ValueError("far weights are taken at main lattice points, from the origin on")
        cols = self.basis[:, np.asarray(j) - grid.origin_index]
        return row_dot("qmf,m...->q...f", self.far, cols)


_KERNEL_LOCK = threading.Lock()


def history_kernel(grid: SimulationGrid, hps, kind: str = "B_H") -> HistoryKernel | None:
    """The kernel of B_H (c_h * A) or of DR_H (c_h * D) for every h in hps, stacked.

    Built once per (grid, hps, kind) and shared by every chunk thread.  For
    B_H, None is the unit kernel, an exact running sum, when every h is 1/2;
    a list that mixes h = 1/2 with h > 1/2 has no one stacked kernel and is
    refused.
    """
    with _KERNEL_LOCK:  # one build, however many chunk threads ask at once
        return _build_kernel(grid, tuple(hps), kind)


@functools.lru_cache(maxsize=8)
def _build_kernel(grid: SimulationGrid, hps: tuple, kind: str) -> HistoryKernel | None:
    n = grid.cell_count - grid.far_cells
    if kind == "DR_H":
        table = np.stack([hp.c_h * dr_kernel_table(hp, n, grid.step) for hp in hps])
    elif kind == "B_H":
        brownian = [hp.is_brownian for hp in hps]
        if all(brownian):
            return None
        if any(brownian):
            raise ValueError("h = 1/2 is an exact running sum; do not stack it with h > 1/2")
        table = np.stack([hp.c_h * avg_kernel_table(hp, n, grid.step) for hp in hps])
    else:
        raise ValueError(f"no history kernel of kind {kind!r}")
    table.setflags(write=False)
    far = _far_at_nodes(grid, hps, kind)
    far.setflags(write=False)
    return HistoryKernel(table=table, far=far, basis=_far_basis(grid, kind))


def _chebyshev_nodes() -> np.ndarray:
    """The FAR_NODES Chebyshev nodes of the first kind on [-1, 1]."""
    return np.cos(np.pi * (np.arange(FAR_NODES) + 0.5) / FAR_NODES)


def _far_at_nodes(grid: SimulationGrid, hps, kind: str) -> np.ndarray:
    """HistoryKernel.far: the far cells' weights at the Chebyshev nodes of [0, T], per h.

    A far cell covers distances [d, d + w] before the origin.  Its DR_H
    weight at t is c_h ((t + d + w)^p - (t + d)^p) / w, p = h - 1/2, one
    power_diff.  Its B_H weight, taken from the origin, is the cell average
    over u of c_h ((t + u)^p - u^p), a power_diff in u that a Gauss-Legendre
    rule averages: no difference of two large powers is ever formed.
    That weight is t times a smooth function of t, which is the one
    interpolated, so it keeps its relative precision down to t = step.
    Both weights are analytic in t on [0, T] and singular only at t = -d
    <= -NEAR_WINDOW T, so FAR_NODES nodes reach float64 precision.
    """
    edges = grid.far_edges()
    d, w = -edges[1:], np.diff(edges)  # each cell's distance before the origin, and its width
    t = 0.5 * grid.horizon * (1.0 + _chebyshev_nodes())
    far = np.empty((len(hps), FAR_NODES, grid.far_cells))
    for q, hp in enumerate(hps):
        p = hp.h - HALF
        if kind == "DR_H":
            u = t[:, None] + d
            far[q] = hp.c_h * power_diff(u, w / u, p) / w
        else:
            gx, gw = _FAR_GAUSS
            u = d[:, None] + 0.5 * w[:, None] * (1.0 + gx)  # (far cells, nodes of the rule)
            f = power_diff(u, t[:, None, None] / u, p)
            far[q] = hp.c_h * 0.5 * np.sum(f * gw, axis=-1) / t[:, None]
    return far


@functools.lru_cache(maxsize=4)
def _far_basis(grid: SimulationGrid, kind: str) -> np.ndarray:
    """HistoryKernel.basis, shared by every h: the Lagrange basis of the nodes at the main lattice points.

    Barycentric form at x_j = 2 j / N - 1, times t_j for B_H.  The x_j are
    rational and, with FAR_NODES even, no node is (cos of a rational
    multiple of pi is rational only at 0, +-1/2 and +-1), so no x_j sits on
    a node.
    """
    k, n = np.arange(FAR_NODES)[:, None], grid.main_steps
    basis = (-1.0) ** k * np.sin(np.pi * (k + 0.5) / FAR_NODES) / (2.0 * np.arange(n + 1) / n - 1.0
                                                                   - _chebyshev_nodes()[:, None])
    basis /= basis.sum(axis=0)
    if kind == "B_H":
        basis *= grid.step * np.arange(n + 1)
    basis.setflags(write=False)
    return basis


def refuse_no_history(grid: SimulationGrid) -> None:
    """Refuse a grid with no cells before the origin: its readers, and a plan at h > 1/2, would cut the history."""
    if grid.origin_index == 0:
        raise ValueError(f"--warmup {grid.warmup_length!r} leaves no history, which a run at h > 1/2 needs")


def past_conv(incs: np.ndarray, grid: SimulationGrid, kernel: HistoryKernel, cells_end: int,
              outputs: tuple[int, int]) -> np.ndarray:
    """sum over the cells i < cells_end of kernel q's weight at t_j times incs[..., i], per kernel q.

    The one reader of the cells before the origin, refusing a grid with none: B_H, the history fields of the
    delayed integral, R_H, DR_H and the fbm integrands take their history from here, and past_dot its inner
    products.  outputs = (j0, j1) are main lattice points (j0 at or after the origin) and cells_end is at or
    after the origin; the result is (len(hps), ..., j1 - j0).  The cells of one step go through history_conv;
    the far cells through their interpolated weights, two row_dots per block of rows (_row_blocks); a window
    past the cells of incs is refused, as in history_conv.  A B_H kernel's far part is taken from the origin,
    where it is 0: the far history enters B_H, R_H and the fields only through differences in t.
    """
    refuse_no_history(grid)
    m0, far = grid.origin_index, grid.far_cells
    if outputs[0] < m0 or cells_end < m0:
        raise ValueError("the history is evaluated from the origin on")
    y = history_conv(incs, kernel.table, (far, cells_end), outputs)
    if far:
        basis = kernel.basis[:, outputs[0] - m0:outputs[1] - m0]
        rows = incs[..., :far].reshape(-1, far)
        dest = y.reshape(len(y), len(rows), y.shape[-1])
        for blk in _row_blocks(len(rows), len(y) * y.shape[-1]):
            z = row_dot("qmf,rf->qrm", kernel.far, rows[blk])
            dest[:, blk] += row_dot("qrm,mj->qrj", z, basis)
    return y


def past_dot(incs: np.ndarray, grid: SimulationGrid, kernel: HistoryKernel, cells_end: int,
             outputs: tuple[int, int], weights: np.ndarray) -> np.ndarray:
    """sum_j weights[..., j] * past_conv(incs, grid, kernel, cells_end, outputs)[q, ..., j], per kernel q.

    weights has the leading axes of incs and one entry per output j0 <= j
    < j1; the result is (len(hps), ...).  Each row takes the cheaper of two
    paths for one kernel, chosen from its own nonzero weights and the sizes
    of the call, never from the batch or the kernels stacked.
    - Direct: a row whose weights are nonzero at a few outputs (a step
      integrand's breakpoints) takes, at each such j, one inner product of
      its cells with kernel q's weights at t_j, the far ones through the
      basis at that j and those of one step the table reversed from lag j,
      and sums them against its weights.
    - Parseval: any other row needs no inverse transform and no field: its
      cells of one step (one window, from the far cells to cells_end) and
      its weights are transformed forward once, and per kernel the product
      is Re sum_k c_k X_k conj(A_k) T_k / n over the half spectrum, at
      history_conv's FFT length (see HistoryKernel.spectrum).  The far
      cells enter through the basis applied to the weights, FAR_NODES
      numbers a row.  Rows go through in blocks of at most
      _FFT_BLOCK_POINTS FFT points.
    Every sum over a row is a row_dot.  A window past the cells of incs is
    refused, as in history_conv.
    """
    refuse_no_history(grid)
    m0, far = grid.origin_index, grid.far_cells
    j0, j1 = outputs
    if j0 < m0 or cells_end < m0:
        raise ValueError("the history is evaluated from the origin on")
    if weights.shape != incs.shape[:-1] + (j1 - j0,):
        raise ValueError(f"weights must be {incs.shape[:-1] + (j1 - j0,)}: one per row and output")
    end, k0, k1, n = _window(incs, far, cells_end, outputs)  # the window of history_conv, from the far cells
    m = end - far
    kernels = len(kernel.table)
    rows, a = incs.reshape(-1, incs.shape[-1]), weights.reshape(-1, j1 - j0)
    out = np.zeros((kernels, len(rows)))
    # the cells that reach output j: the far ones and those of one step before min(cells_end, j)
    reach = far + np.clip(np.arange(j0, j1) - far, 0, m)
    # flops a row with one kernel: two real FFTs of n points (2.5 n log2 n each), their product (3 n)
    # and one with the kernel's spectrum (2 n), against a multiply-add per cell reaching a nonzero weight;
    # priced for one kernel, so that the path, and so the bytes, do not depend on the kernels stacked
    transforms = n * (5.0 * math.log2(n) + 5.0) if n else 0.0
    nonzero = a != 0.0
    direct = 2.0 * np.einsum("rj,j->r", nonzero, reach) < transforms  # buffered: no (rows, outputs) scratch
    groups: dict[bytes, list[int]] = {}  # the direct rows, by where their weights are nonzero
    for r in np.flatnonzero(direct):
        groups.setdefault(nonzero[r].tobytes(), []).append(r)
    for g in groups.values():
        cols = np.flatnonzero(nonzero[g[0]])
        x = rows[g] if len(g) < len(rows) else rows  # a copy of the group's rows, or a view of all
        far_weights = kernel.far_weights(grid, j0 + cols)
        dots = np.empty((kernels, len(g), len(cols)))
        for s, col in enumerate(cols):  # kernel q's weights at t_j on the cells reaching it, table reversed
            k, cells = j0 + col - far, reach[col]
            w = np.empty((kernels, cells))
            w[:, :far] = far_weights[:, s]
            w[:, far:] = kernel.table[:, k:k - cells + far:-1]
            dots[..., s] = row_dot("qi,ri->qr", w, x[:, :cells])
        out[:, g] = row_dot("qrs,rs->qr", dots, a[np.ix_(g, cols)])
    dense = ~direct if direct.any() else slice(None)  # every row as a view, or the dense ones as a copy
    x, ax, y = rows[dense], a[dense], out[:, dense]
    if n and len(x):
        spectrum = kernel.spectrum(k0, k1, n)
        for blk in _row_blocks(len(x), n):
            fx = _fft.rfft(x[blk, far:end], n, axis=-1)
            fa = _fft.rfft(ax[blk, k0 + far - j0:], n, axis=-1)
            np.multiply(fx, np.conjugate(fa, out=fa), out=fx)
            y[:, blk] = row_dot("rk,qk->qr", fx.view(float), spectrum)
    if far:
        z = row_dot("qmf,rf->qrm", kernel.far, x[:, :far])
        b = row_dot("mj,rj->rm", kernel.basis[:, j0 - m0:j1 - m0], ax)
        y += row_dot("qrm,rm->qr", z, b)
    out[:, dense] = y
    return out.reshape((kernels,) + incs.shape[:-1])


def fbm_values(incs: np.ndarray, grid: SimulationGrid, hps) -> np.ndarray:
    """B_H at the lattice points of [0, horizon] for each h in hps; B_H(0) = 0.

    Stacked as (len(hps), ..., main_steps + 1) and batched over the leading
    axes of incs.  hps are all h > 1/2, which share one forward transform of
    the noise, or all h = 1/2 (see history_kernel).
    """
    m0, n = grid.origin_index, grid.cell_count
    kernel = history_kernel(grid, hps)
    if kernel is None:  # at h = 1/2 the history cancels exactly: only post-origin cells enter, B(0) = 0
        return np.repeat(history_conv(incs, None, (m0, n), (m0, n + 1))[None], len(hps), axis=0)
    x = past_conv(incs, grid, kernel, n, (m0, n + 1))
    x -= x[..., :1].copy()  # the column copied alone: an overlapping operand would copy all of x
    return x


def w_values(incs: np.ndarray, grid: SimulationGrid, hp: HurstParameter, seg_idx: int) -> np.ndarray:
    """W_H(t_j) = c_h int_seg^t (t-r)^(h-1/2) dB for lattice j = seg_idx..cell_count."""
    n = grid.cell_count
    kernel = history_kernel(grid, (hp,))
    return history_conv(incs, None if kernel is None else kernel.table[0], (seg_idx, n), (seg_idx, n + 1))


def r_values(incs: np.ndarray, grid: SimulationGrid, hp: HurstParameter, seg_idx: int) -> np.ndarray:
    """R_H(t_j) (history component relative to the segment start), j = seg_idx..cell_count.

    Obtained by exact integration of DR_H from the segment start: the
    primitive of the cell-averaged f-kernel synthesis, so R(seg) = 0.
    """
    kernel = history_kernel(grid, (hp,))
    if kernel is None:  # the unit kernel: the history is a constant, R_H = 0
        return np.zeros(incs.shape[:-1] + (grid.cell_count + 1 - seg_idx,))
    y = past_conv(incs, grid, kernel, seg_idx, (seg_idx, grid.cell_count + 1))[0]
    y -= y[..., :1].copy()  # in place, as in fbm_values
    return y


def dr_values(incs: np.ndarray, grid: SimulationGrid, hp: HurstParameter, seg_idx: int) -> np.ndarray:
    """DR_H(t_j) at lattice points j = seg_idx+1..cell_count (strictly after the start)."""
    if hp.is_brownian:
        return np.zeros(incs.shape[:-1] + (grid.cell_count - seg_idx,))
    kernel = history_kernel(grid, (hp,), "DR_H")
    return past_conv(incs, grid, kernel, seg_idx, (seg_idx + 1, grid.cell_count + 1))[0]


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
    if span <= 0.0:
        raise ValueError("span must be positive")
    h = hp.h
    return hp.c_h ** 2 * (h - HALF) ** 2 / (2 - 2 * h) * span ** (2 * h - 2)


def dr_energy_closed_form(hp: HurstParameter, span: float) -> float:
    """E int_s^(s+span) DR_H^2 = c_h^2 (h-1/2) / (2(2-2h)) * span^(2h-1)."""
    if span <= 0.0:
        raise ValueError("span must be positive")
    h = hp.h
    return hp.c_h ** 2 * (h - HALF) / (2 * (2 - 2 * h)) * span ** (2 * h - 1)


# ---------------------------------------------------------------------------
# exact second moments of the discrete synthesis (declared budgets)
# ---------------------------------------------------------------------------

def fbm_weight_vector(grid: SimulationGrid, hp: HurstParameter, t_idx: int) -> np.ndarray:
    """Per-cell synthesis weights w with B_H(t_idx) = sum_i w_i dB_i, for a main lattice point t_idx."""
    far, m0 = grid.far_cells, grid.origin_index
    table = avg_kernel_table(hp, grid.cell_count - far, grid.step)
    i = np.arange(far, grid.cell_count)
    lag_t = np.clip(t_idx - i, 0, None)
    lag_0 = np.clip(m0 - i, 0, None)
    uniform = hp.c_h * (table[lag_t] - table[lag_0])
    kernel = history_kernel(grid, (hp,))  # None at h = 1/2, whose far weights are 0
    return np.concatenate([np.zeros(far) if kernel is None else kernel.far_weights(grid, t_idx)[0], uniform])


def discrete_fbm_cov(grid: SimulationGrid, hp: HurstParameter, t1: float, t2: float) -> float:
    """Exact E[B_H(t1) B_H(t2)] of the synthesized (truncated, discretized) process: sum width * w1 * w2."""
    return weights_cov(grid, fbm_weight_vector(grid, hp, grid.index_of(t1)),
                       fbm_weight_vector(grid, hp, grid.index_of(t2)))


def weights_cov(grid: SimulationGrid, w1: np.ndarray, w2: np.ndarray) -> float:
    """E[(w1 . dB) (w2 . dB)] = sum width * w1 * w2 for per-cell weights w1, w2 on the grid's cells."""
    far = grid.far_cells
    return float(grid.step * np.dot(w1[far:], w2[far:]) + np.dot(grid.far_widths() * w1[:far], w2[:far]))


def discrete_dr_energy(grid: SimulationGrid, hp: HurstParameter, seg_idx: int,
                       eval_idx: np.ndarray, quad_weights: np.ndarray) -> float:
    """Exact expectation of sum_l quad_weights[l] * DR_H(t_{eval_idx[l]})^2, history cut at the grid start.

    One evaluation point with weight 1 is the pointwise second moment E DR_H(t)^2.
    """
    if hp.is_brownian:
        return 0.0
    eval_idx = np.asarray(eval_idx)
    if eval_idx.min() < seg_idx or seg_idx < grid.origin_index:
        raise ValueError("DR_H is evaluated at lattice points from seg_idx on, and seg_idx is at or after "
                         "the origin")
    # DR_H(t_j) weighs cell i < seg_idx of one step with c_h D[j - i], so that part of its second
    # moment is step c_h^2 times the sum of D^2 over lags j - seg_idx + 1 .. j - far_cells: a
    # difference of tail sums, added from the far lags in, so the large near lags do not swamp
    # the small far ones.  The far cells add sum width * w^2, with w = basis^T far at each
    # point: a quadratic form in the basis with the nodes' Gram matrix, far * width @ far^T.
    far = grid.far_cells
    sq = dr_kernel_table(hp, grid.cell_count - far, grid.step)[1:] ** 2
    tail = np.append(np.cumsum(sq[::-1])[::-1], 0.0)  # tail[l] = sum of D[m]^2 over m > l
    moments = hp.c_h ** 2 * grid.step * (tail[eval_idx - seg_idx] - tail[eval_idx - far])
    if far:
        kernel = history_kernel(grid, (hp,), "DR_H")
        gram = (kernel.far[0] * grid.far_widths()) @ kernel.far[0].T
        basis = kernel.basis.take(eval_idx - grid.origin_index, axis=1)  # C-ordered: the einsum's fast layout
        moments += np.einsum("mj,mn,nj->j", basis, gram, basis)
    return float(np.dot(quad_weights, moments))


def declared_truncation_budget(grid: SimulationGrid, hp: HurstParameter) -> float:
    """Variance bound for the history lost beyond the grid's warmup window."""
    return truncation_tail_bound(hp, grid.horizon, grid.warmup_length)


@functools.lru_cache(maxsize=4)
def _time_column(times: bytes) -> tuple[str, ...]:
    """The CSV cells "t," of the float64 times whose bytes are given: every path on a grid shares them."""
    return tuple(f"{t!r}," for t in np.frombuffer(times).tolist())


def write_path_csv(kind: str, h: float, seed: int, times: np.ndarray, values: np.ndarray, path) -> None:
    """CSV with (time, value) rows of one path; the header row names kind, h and seed.

    Floats are written as their shortest round-trip repr, so parsing a row back gives its values exactly.
    """
    column = _time_column(np.ascontiguousarray(times, dtype=float).tobytes())
    rows = [f"{t}{v!r}\n" for t, v in zip(column, np.asarray(values, dtype=float).tolist())]
    with open(path, "w", newline="") as fh:
        fh.write(f"# kind={kind} h={h!r} seed={seed}\ntime,value\n" + "".join(rows))
