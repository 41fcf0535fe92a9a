"""Reference implementations and instruments that only the tests use.

Most evaluate one quantity on one path, a single row `incs` of increments
on a grid, from explicit per-cell weights, so the batched lattice paths of
the package can be checked against an independent formula.  The per-segment
and one-segment assemblies are the package's earlier delayed-integral
assemblies, kept as independent references for the one built on increment
fields, and so are the extension's level loop, the left-point baselines and
the per-row path CSV writer.
"""

import math
import os
import tempfile
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy import fft as _fft

import fbmdelay.integrands
import fbmdelay.integrator
import fbmdelay.noise
from fbmdelay.kernels import HALF, HurstParameter, power_diff
from fbmdelay.integrands import (
    DeterministicIntegrand,
    Integrand,
    PiecewisePredictableIntegrand,
    QuadraticBrownianIntegrand,
    SegmentGrid,
    _PowerKernelIntegrand,
    dyadic_projection,
)
from fbmdelay.integrator import delayed_parts_for_cells, noise_transforms
from fbmdelay.noise import (
    SimulationGrid,
    avg_kernel_table,
    block_conv,
    discrete_fbm_cov,
    fbm_values,
    history_conv,
    history_kernel,
    write_path_csv,
)


def grid_edges(grid: SimulationGrid) -> np.ndarray:
    """Every cell edge of the grid, from warmup_start to the horizon."""
    uniform = grid.uniform_start + grid.step * np.arange(grid.near_cells + grid.main_steps + 1)
    return np.concatenate([grid.far_edges()[:-1], uniform])


def cell_widths(grid: SimulationGrid) -> np.ndarray:
    """The width of every cell of the grid, which is the variance of its increment."""
    return np.concatenate([grid.far_widths(), np.full(grid.cell_count - grid.far_cells, grid.step)])


def reference_draw(seed: int, grid: SimulationGrid, stream: int) -> np.ndarray:
    """Stream `stream` of seed drawn on its own: the package's bit generator (SFC64) keyed by (seed, stream),
    variance width per cell."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    bits = getattr(np.random, fbmdelay.noise.BIT_GENERATOR)(ss)
    normals = np.random.Generator(bits).standard_normal(grid.cell_count)
    return normals * np.sqrt(cell_widths(grid))


def _clipped_avg_weights(edges: np.ndarray, t: float, lo: float, p1: float) -> np.ndarray:
    """Cell averages of u^(p1-1), u = t - q, with q clipped to [lo, t] per cell, each over its cell's width."""
    a = np.clip(edges[:-1], lo, t)
    b = np.clip(edges[1:], lo, t)
    ua = t - a
    ub = t - b
    return (ua ** p1 - ub ** p1) / (p1 * np.diff(edges))


def kernel_cell_averages(grid: SimulationGrid, t: float, p1: float, cells_end: int) -> np.ndarray:
    """Cell averages of (t - q)^(p1 - 1) over the cells i < cells_end, which end by t, each over its width."""
    edges = grid_edges(grid)[:cells_end + 1]
    return ((t - edges[:-1]) ** p1 - (t - edges[1:]) ** p1) / (p1 * np.diff(edges))


def history_path(grid: SimulationGrid, incs: np.ndarray, hp: HurstParameter, cells_end: int,
                 outputs: tuple[int, int]) -> np.ndarray:
    """The B_H history of the cells i < cells_end at the main lattice points outputs = (j0, j1), up to a constant.

    The cells of one step go through history_conv with the avg_kernel_table
    weights; a far cell enters with its cell average of c_h ((t - q)^p -
    (-q)^p), from the closed-form differences of powers, so the far part is
    taken from the origin as the package takes it, and is 0 there.  That
    mixed difference (t+a)^p1 - (t+b)^p1 - a^p1 + b^p1 is two power_diffs
    over the shorter of t and a - b, so no two large powers cancel: taken
    as written, the field of make_grid(1.0, 512, 2.0) was off by 5e-15, and
    is off by 6e-16 or less so.
    """
    far, m0 = grid.far_cells, grid.origin_index
    c_table = hp.c_h * avg_kernel_table(hp, grid.cell_count - far, grid.step)
    y = history_conv(incs, c_table, (far, cells_end), outputs)
    if far:
        edges = grid.far_edges()
        a, b, p1 = -edges[:-1], -edges[1:], hp.h + HALF  # each far cell's distances before the origin
        t = grid.step * (np.arange(*outputs) - m0)[:, None]
        over_t = power_diff(a, t / a, p1) - power_diff(b, t / b, p1)
        over_w = power_diff(t + b, (a - b) / (t + b), p1) - power_diff(b, (a - b) / b, p1)
        w = np.where(t < a - b, over_t, over_w) / (p1 * (a - b))
        y = y + hp.c_h * (incs[..., :far] @ w.T)
    return y


def synthesize_w(g: SimulationGrid, incs: np.ndarray, hp: HurstParameter, seg_start: float, t: float) -> float:
    """W_H(t) over [seg_start, t]; uses only increments in (seg_start, t]."""
    if t < seg_start:
        raise ValueError("need t >= seg_start")
    if t == seg_start:
        return 0.0
    w = _clipped_avg_weights(grid_edges(g), t, seg_start, hp.h + HALF)
    return float(hp.c_h * np.dot(w, incs))


def synthesize_dr(g: SimulationGrid, incs: np.ndarray, hp: HurstParameter, seg_start: float, t: float) -> float:
    """DR_H(t) = c_h int_(-L)^seg_start (h-1/2)(t-q)^(h-3/2) dB(q); needs t > seg_start."""
    if t <= seg_start:
        raise ValueError("DR_H is defined for t strictly after the segment start")
    if hp.is_brownian:
        return 0.0
    edges = grid_edges(g)
    a = np.minimum(edges[:-1], seg_start)
    b = np.minimum(edges[1:], seg_start)
    p = hp.h - HALF
    w = ((t - a) ** p - (t - b) ** p) / np.diff(edges)
    return float(hp.c_h * np.dot(w, incs))


def reference_write_path_csv(kind: str, h: float, seed: int, times: np.ndarray, values: np.ndarray,
                             path) -> None:
    """The package's earlier path writer: one write per row, each float through float() and repr."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# kind={kind} h={h!r} seed={seed}\n")
        fh.write("time,value\n")
        for t, v in zip(times, values):
            fh.write(f"{float(t)!r},{float(v)!r}\n")


def path_csv_string(kind: str, h: float, seed: int, times: np.ndarray, values: np.ndarray) -> str:
    """The text write_path_csv writes, read back from a temporary file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "path.csv")
        write_path_csv(kind, h, seed, times, values, path)
        with open(path, newline="") as fh:
            return fh.read()


# ---------------------------------------------------------------------------
# pathwise values and forecasts of the integrand families, one time at a time
# ---------------------------------------------------------------------------

def _power_kernel_weights(gamma: _PowerKernelIntegrand, grid: SimulationGrid, t: float,
                          tau: float | None) -> np.ndarray:
    """Cell-averaged kernel weights for E_tau gamma(t) (tau=None: pathwise)."""
    edges = grid_edges(grid)
    widths = np.diff(edges)
    hi = t if tau is None else min(t, tau)
    lo = grid.warmup_start if gamma.include_history else max(gamma.start, grid.warmup_start)
    p1 = gamma.hp1.h + HALF
    a = np.clip(edges[:-1], lo, hi)
    b = np.clip(edges[1:], lo, hi)
    w = ((t - a) ** p1 - (t - b) ** p1) / (p1 * widths)
    if gamma.include_history:
        # subtract E_tau of the history value at the origin, not its pathwise value
        hi0 = 0.0 if tau is None else min(0.0, tau)
        a0 = np.clip(edges[:-1], grid.warmup_start, hi0)
        b0 = np.clip(edges[1:], grid.warmup_start, hi0)
        w = w - ((0.0 - a0) ** p1 - (0.0 - b0) ** p1) / (p1 * widths)
    return gamma.hp1.c_h * w


def _b_at(t: float, grid: SimulationGrid, incs: np.ndarray) -> float:
    """The driving Brownian motion at t, clamped to [0, horizon]; B(0) = 0."""
    idx = grid.index_of(min(max(t, 0.0), grid.horizon))
    return float(np.sum(incs[grid.origin_index:idx]))


def value(gamma: Integrand, t: float, grid: SimulationGrid, incs: np.ndarray) -> float:
    """gamma(t) on the path incs."""
    if isinstance(gamma, PiecewisePredictableIntegrand):
        return cond_exp(gamma.inner, gamma.freeze_time(t), t, grid, incs)
    if isinstance(gamma, DeterministicIntegrand):
        return float(gamma.fn(np.asarray(t, dtype=float)))
    if isinstance(gamma, QuadraticBrownianIntegrand):
        return _b_at(t, grid, incs) ** 2
    if isinstance(gamma, _PowerKernelIntegrand):
        return float(np.dot(_power_kernel_weights(gamma, grid, t, None), incs))
    raise TypeError(f"no oracle for {type(gamma).__name__}")


def cond_exp(gamma: Integrand, tau: float, t: float, grid: SimulationGrid, incs: np.ndarray) -> float:
    """E_tau gamma(t) on the path incs: reads only the increments of cells ending by tau."""
    if isinstance(gamma, PiecewisePredictableIntegrand):
        return cond_exp(gamma.inner, min(tau, gamma.freeze_time(t)), t, grid, incs)
    if isinstance(gamma, DeterministicIntegrand):
        return value(gamma, t, grid, incs)
    if isinstance(gamma, QuadraticBrownianIntegrand):
        tau = min(max(tau, 0.0), t)
        return _b_at(tau, grid, incs) ** 2 + (t - tau)
    if isinstance(gamma, _PowerKernelIntegrand):
        return float(np.dot(_power_kernel_weights(gamma, grid, t, tau), incs))
    raise TypeError(f"no oracle for {type(gamma).__name__}")


# ---------------------------------------------------------------------------
# kernel helpers the package itself does not need
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerKernelCell:
    """One cell [lower, upper] over which x^exponent is integrated analytically."""

    exponent: float
    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError("cell needs lower < upper")
        if self.exponent <= -1.0 and self.lower <= 0.0:
            raise ValueError("x^p with p <= -1 is not integrable through x = 0")
        if self.lower < 0.0:
            raise ValueError("cells live in the distance coordinate, need lower >= 0")

    def integral(self) -> float:
        """Exact value of int_lower^upper x^exponent dx."""
        p1 = self.exponent + 1.0
        return (self.upper ** p1 - self.lower ** p1) / p1

    def average(self) -> float:
        return self.integral() / (self.upper - self.lower)


def truncation_horizon(tol: float, span: float, hp: HurstParameter) -> float:
    """Smallest history length L with truncated-tail variance below tol.

    Solves the closed-form bound of truncation_tail_bound for L; returns 0
    at h = 1/2 where there is no history dependence.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if span <= 0.0:
        raise ValueError("span must be positive")
    if hp.is_brownian:
        return 0.0
    h = hp.h
    base = hp.c_h ** 2 * span ** 2 * (h - HALF) ** 2 / (tol * (2 - 2 * h))
    return float(base ** (1.0 / (2 - 2 * h)))


def dyadic_cells(gamma: Integrand, grid: SimulationGrid, incs: np.ndarray, levels):
    """Yield the cell values of the level-n dyadic projection for each n in levels, in turn.

    The power-kernel integrands compute their path once and subtract each
    level's forecast corrections (dyadic freezes never precede the origin);
    any other integrand is projected level by level.
    """
    if not isinstance(gamma, _PowerKernelIntegrand):
        for n in levels:
            yield dyadic_projection(gamma, n, grid).values_on_cells(grid, incs)
        return
    m0 = grid.origin_index
    path = gamma._values_from(grid, incs, m0)
    for n in levels:
        freeze_idx = dyadic_projection(gamma, n, grid).freeze_index_per_cell(grid)
        yield gamma._forecast(grid, incs, freeze_idx, path, m0)


def decay_gaps_per_level(gamma: Integrand, hp: HurstParameter, levels, grid: SimulationGrid,
                         incs: np.ndarray) -> tuple:
    """cauchy_decay_study's per-chunk gaps, from one projection and one assembly per level, with their scales.

    Returns (|v1 - v0|, |c1 - c0|) per replication for each level pair
    (m, m + 1), both levels integrated on the level-(m + 1) grid, followed
    by the same number of scales: per gap and replication, the sum of
    |terms| of the two row sums it differences (|gamma| times |d_tail| +
    |d_main| for v, times |d_main| + |dW| for c).  At h = 1/2 v's field is
    dB and cross is 0, with scale 0.
    """
    m0, end = grid.origin_index, grid.origin_index + grid.main_steps
    pre = noise_transforms(grid, incs, (hp,), end)
    if hp.is_brownian:
        d_value = np.abs(incs[..., m0:end])
    else:
        d_tail, d_main = (np.abs(field[0]) for field in pre)
        d_value = d_tail + d_main
        d_table = np.diff(history_kernel(grid, (hp,)).table[0, :grid.main_steps + 1])
    cells = {n: dyadic_projection(gamma, n, grid).values_on_cells(grid, incs) for n in levels}
    gaps, scales = [], []
    for m in levels[:-1]:
        seg = SegmentGrid.dyadic(grid.horizon, m + 1)
        v0, _, _, c0 = delayed_parts_for_cells(cells[m], seg, grid, incs, hp)
        v1, _, _, c1 = delayed_parts_for_cells(cells[m + 1], seg, grid, incs, hp)
        gaps += [np.abs(v1 - v0), np.abs(c1 - c0)]
        both = np.abs(cells[m]) + np.abs(cells[m + 1])
        if hp.is_brownian:
            scales += [np.sum(both * d_value, axis=-1), np.zeros(both.shape[:-1])]
            continue
        d_w = np.abs(block_conv(incs[..., m0:end], d_table, grid.index_of(seg.breakpoints) - m0))
        scales += [np.sum(both * d_value, axis=-1), np.sum(both * (d_main + d_w), axis=-1)]
    return (*gaps, *scales)


def extension(gamma: Integrand, hp: HurstParameter, grid: SimulationGrid, incs: np.ndarray, levels, tol: float):
    """The dyadic extension I_H(gamma) = lim I_H(gamma_n) on the rows incs, level by level in levels.

    Stops once the L1 gap mean |I_H(gamma_n) - I_H(gamma_(n-1))| falls below tol: later levels are not computed.
    """
    # the value part of delayed_parts_for_cells, as its row sums, on fields transformed once for every level
    fields = ([incs[..., grid.origin_index:]] if hp.is_brownian else
              [f[0] for f in fbmdelay.integrator.noise_transforms(grid, incs, (hp,), grid.cell_count)])
    samples, gaps = [], []
    for n, cells in zip(levels, dyadic_cells(gamma, grid, incs, levels)):
        sums = [np.sum(cells * f, axis=-1) for f in fields]  # ito, or tail and main
        samples.append(sums[0] if hp.is_brownian else sums[0] + sums[1])
        if len(samples) > 1:
            gaps.append(float(np.mean(np.abs(samples[-1] - samples[-2]))))
            if gaps[-1] < tol:
                break
    computed = tuple(levels[:len(samples)])
    return SimpleNamespace(levels=computed, samples=np.array(samples), gaps=gaps,
                           converged=bool(gaps) and gaps[-1] < tol, stopping_level=computed[-1])


def ito_sum(gamma: Integrand, grid: SimulationGrid, incs: np.ndarray) -> np.ndarray:
    """Left-point Ito sum of gamma against the driving noise on the fine grid, per replication."""
    return np.sum(gamma.values_on_cells(grid, incs) * incs[..., grid.origin_index:], axis=-1)


def riemann_fbm_sum(gamma: Integrand, n_steps: int, grid: SimulationGrid, incs: np.ndarray,
                    hp: HurstParameter) -> np.ndarray:
    """Left-point sum of gamma against B_H increments on n_steps uniform cells of [0, T], per replication."""
    if n_steps < 1 or grid.main_steps % n_steps != 0:
        raise ValueError(f"n_steps must divide the fine grid ({grid.main_steps})")
    stride = grid.main_steps // n_steps
    coarse = fbm_values(incs, grid, (hp,))[0, ..., ::stride]
    left = gamma.values_on_cells(grid, incs)[..., ::stride]
    return np.sum(left * np.diff(coarse, axis=-1), axis=-1)


def _segment_corr(gseg: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """corr[..., l] = sum_{m >= 0} gseg[..., l + m] * kernel[m]."""
    ell = gseg.shape[-1]
    n = _fft.next_fast_len(2 * ell - 1)
    fx = _fft.rfft(gseg[..., ::-1], n, axis=-1)
    fk = _fft.rfft(kernel[:ell], n)
    z = _fft.irfft(fx * fk, n, axis=-1)[..., :ell]
    return z[..., ::-1]


def per_segment_parts(gamma_cells: np.ndarray, seg_idx: np.ndarray, grid: SimulationGrid,
                      incs: np.ndarray, hp: HurstParameter):
    """(value, ito, tail, cross) assembled segment by segment, with per-segment FFTs.

    gamma_cells holds the integrand's predictable cell values on the fine
    cells of [0, end); seg_idx are lattice indices with seg_idx[0] = origin.
    """
    m0 = grid.origin_index
    end = int(seg_idx[-1])
    n_cells = end - m0
    step = grid.step
    batch = np.broadcast_shapes(gamma_cells.shape[:-1], incs.shape[:-1])

    c_table = hp.c_h * avg_kernel_table(hp, end, step)
    ito = np.zeros(batch)
    cross = np.zeros(batch)
    tail = np.zeros(batch)

    if not hp.is_brownian:
        # the warmup history's primitive and the global post-origin convolution
        tp = history_path(grid, incs, hp, m0, (m0, end + 1))
        cg = history_conv(incs, c_table, (m0, end), (m0, end + 1))
        tail = np.sum(gamma_cells[..., :n_cells] * np.diff(tp, axis=-1), axis=-1)

    d_table = np.diff(c_table)  # d_table[m] = c_h * (A[m+1] - A[m])

    for a, b in zip(seg_idx[:-1], seg_idx[1:]):
        a, b = int(a), int(b)
        gseg = gamma_cells[..., a - m0:b - m0]
        gbar = _segment_corr(gseg, d_table)
        ito = ito + np.sum(gbar * incs[..., a:b], axis=-1)
        if hp.is_brownian or a == m0:
            continue
        # cross primitive on [a, b]: global post-origin conv minus the within-segment part
        prim = cg[..., a - m0:b - m0 + 1] - history_conv(incs, c_table, (a, b), (a, b + 1))
        cross = cross + np.sum(gseg * np.diff(prim, axis=-1), axis=-1)

    return ito + tail + cross, ito, tail, cross


def one_segment_delayed(gamma: Integrand, seg_start: float, seg_end: float, grid: SimulationGrid,
                        incs: np.ndarray, hp: HurstParameter) -> np.ndarray:
    """Delayed integral over the one segment [seg_start, seg_end], gamma frozen at seg_start, per replication.

    The segment's own assembly: the G_H-transformed cells against the
    segment's increments, plus the primitive of the history before seg_start.
    """
    a, b = grid.index_of(seg_start), grid.index_of(seg_end)
    m0 = grid.origin_index
    cells = gamma.frozen_values_on_cells(grid, incs, np.full(grid.main_steps, a))
    gseg = cells[..., a - m0:b - m0]
    if hp.is_brownian:
        return np.sum(gseg * incs[..., a:b], axis=-1)
    c_table = hp.c_h * avg_kernel_table(hp, int(b), grid.step)
    ito = np.sum(gseg * block_conv(incs[..., a:b], np.diff(c_table), (0, b - a)), axis=-1)
    prim = history_path(grid, incs, hp, a, (a, b + 1))
    return ito + np.sum(gseg * np.diff(prim, axis=-1), axis=-1)


def riemann_gap_expectation(grid: SimulationGrid, hp: HurstParameter) -> float:
    """Exact mean of nonconvergence_demo's Riemann gap on the discrete synthesis.

    The left-point sum of B_H dB_H is 0.5 (B_H(T)^2 - sum_k dB_H,k^2), and
    the Ito sum of B dB it is compared with has mean 0.  The k-th increment
    weighs a cell of one step with c_h (A[m + 1] - A[m]) at lag m = m0 + k - i,
    so that part of its variance is step c_h^2 cumsum(diff(A)^2)[m0 - far + k];
    a far cell adds its width times the square of its weight's increment.
    """
    m0, far, n = grid.origin_index, grid.far_cells, grid.main_steps
    a = avg_kernel_table(hp, grid.cell_count - far, grid.step)
    inc_var = grid.step * hp.c_h ** 2 * np.cumsum(np.diff(a) ** 2)[m0 - far:m0 - far + n]
    if far:
        w = history_kernel(grid, (hp,)).far_weights(grid, np.arange(m0, m0 + n + 1))[0]
        inc_var = inc_var + np.sum(np.diff(w, axis=0) ** 2 * np.diff(grid.far_edges()), axis=-1)
    return 0.5 * (discrete_fbm_cov(grid, hp, grid.horizon, grid.horizon) - float(np.sum(inc_var)))


def x_norm(gamma: Integrand, grid: SimulationGrid, incs: np.ndarray) -> tuple[float, float]:
    """MC estimate of (E int_0^T gamma^2 dt)^(1/2) with its standard error: the Monte Carlo check of
    integrands.closed_form_x_norm."""
    if len(incs) < 2:
        raise ValueError("need an ensemble of at least 2 noise paths")
    vals = gamma.values_on_cells(grid, incs)
    per_rep = np.sum(vals ** 2, axis=-1) * grid.step
    mean = float(np.mean(per_rep))
    se_mean = float(np.std(per_rep, ddof=1) / math.sqrt(per_rep.shape[0]))
    if mean <= 0.0:
        return 0.0, se_mean
    return math.sqrt(mean), se_mean / (2.0 * math.sqrt(mean))


def decreasing_within_1se(curve) -> bool:
    """Each gap of a continuity_study curve is at most the one before plus their combined standard error."""
    g, s = curve.gaps, curve.std_errors
    return all(g[i + 1] <= g[i] + math.hypot(s[i], s[i + 1]) for i in range(len(g) - 1))


def toeplitz_block_product(blocks: np.ndarray, table: np.ndarray) -> np.ndarray:
    """y[..., j] = sum_{i <= j} table[j - i] blocks[..., i] in every block of the last axis, as block_conv took
    it on equal blocks before noise.blockwise_conv: the expression verbatim, its matrix C-ordered."""
    size = blocks.shape[-1]
    lag = np.subtract.outer(np.arange(size), np.arange(size))  # lag[i, j] = i - j
    return blocks @ np.where(lag <= 0, table[np.abs(lag)], 0.0)


def toeplitz_half_product(blocks: np.ndarray, table: np.ndarray) -> np.ndarray:
    """y[..., j] = sum_{i < h} table[h + j - i] blocks[..., i] for blocks of 2h cells, as the level step took it
    before noise.blockwise_conv: the expression verbatim, its matrix C-ordered."""
    h = blocks.shape[-1] // 2
    return blocks[..., :h] @ table[h - np.subtract.outer(np.arange(h), np.arange(h))]


def spy_convolutions(monkeypatch) -> dict:
    """Record the history_conv, block_conv and past_conv calls that integrator and integrands make.

    Returns {"<module>.<function>": [...]}, one entry per call: the
    (cells, outputs) windows of a history_conv, the block edges of a
    block_conv, the (cells_end, outputs) of a past_conv.
    """
    calls = {}
    for module in (fbmdelay.integrator, fbmdelay.integrands):
        for name in ("history_conv", "block_conv", "past_conv"):
            hits = calls[f"{module.__name__.rsplit('.', 1)[-1]}.{name}"] = []

            def spy(incs, *args, _real=getattr(module, name), _hits=hits, _name=name):
                windows = args[2:] if _name == "past_conv" else args[1:]  # past_conv: (grid, kernel, ...)
                _hits.append(windows if len(windows) > 1 else tuple(windows[0]))
                return _real(incs, *args)
            monkeypatch.setattr(module, name, spy)
    return calls


def spy_noise_ffts(monkeypatch, inverse: list | None = None) -> list:
    """Record the forward FFTs that history_conv and past_dot make of rows of their inputs.

    Returns a list with one (rows, width, FFT length) entry per call, rows
    counting every leading index, from any thread.  The kernel tables are
    transformed too; they are told apart by their memory, which the spy
    learns from the table argument of every history_conv call, and are not
    recorded.  past_dot's kernel spectra are transformed from a rolled copy
    of the table, once per kernel and window: they are recorded, as
    (kernels, n, n).  inverse, if given, gets one (rows, FFT length) entry
    per inverse FFT.
    """
    calls, tables = [], []

    def rfft(a, n, axis=-1):
        if not any(np.may_share_memory(a, table) for table in tables):
            calls.append((math.prod(a.shape[:-1]), a.shape[-1], n))
        return _fft.rfft(a, n, axis=axis)

    def irfft(a, n, axis=-1):
        if inverse is not None:
            inverse.append((math.prod(a.shape[:-1]), n))
        return _fft.irfft(a, n, axis=axis)

    for module in (fbmdelay.noise, fbmdelay.integrator, fbmdelay.integrands):
        def history_conv(incs, table, *windows, _real=module.history_conv):
            if table is not None:
                tables.append(table)
            return _real(incs, table, *windows)
        monkeypatch.setattr(module, "history_conv", history_conv)
    monkeypatch.setattr(fbmdelay.noise, "_fft", SimpleNamespace(
        rfft=rfft, irfft=irfft, next_fast_len=_fft.next_fast_len))
    return calls
