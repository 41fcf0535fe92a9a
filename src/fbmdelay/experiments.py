"""Monte Carlo experiment drivers and their CSV/JSON interfaces.

Every driver takes the grid it runs on, a noise.SimulationGrid (default
DESK, the desk-scale grid), and follows the same discipline:

* common random numbers: within a replication, every Hurst value consumes the
  identical driving noise (one seeded stream per replication, checksummed);
* one plan per run, `_plan`, made before any kernel, weight or draw, refuses an
  h > 1/2 with no history and more rows in flight than memory holds; the one
  runner, `_replicate`, takes only that plan, draws the replications chunk by
  chunk and concatenates the per-replication results in stream order; they
  are aggregated once, so output is independent of chunking and scheduling;
* that runner is the package's one level of parallelism: it runs the chunks
  on up to `WORKERS` threads (numpy, scipy's FFTs and the draws release
  the GIL), each drawing its own noise and doing its own transforms
  serially, with at most `_CHUNK_BYTES` of noise in flight;
* every tolerance is 3 standard errors plus a declared budget computed from
  exact expectations of the discrete estimators, never a fitted fudge.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .kernels import HALF, HurstParameter, hurst_constant, power_diff
from .integrands import (
    BrownianIntegrand,
    DeterministicIntegrand,
    FbmIntegrand,
    Integrand,
    PiecewisePredictableIntegrand,
    QuadraticBrownianIntegrand,
    RlFbmIntegrand,
    SegmentGrid,
    closed_form_x_norm,
    dyadic_projection,
    second_halves,
)
from .integrator import (
    MIN_CELLS_PER_SEGMENT,
    _segment_lattice_indices,
    delayed_parts_for_cells,
    noise_transforms,
    second_half_ito,
)
from .noise import (
    SimulationGrid,
    discrete_dr_energy,
    discrete_fbm_cov,
    dr_energy_closed_form,
    dr_pointwise_closed_form,
    dr_values,
    fbm_values,
    fbm_weight_vector,
    generate_noise_batch,
    history_conv,
    history_kernel,
    make_grid,
    past_dot,
    refuse_no_history,
    row_dot,
    weights_cov,
)

__all__ = [
    "MCResult",
    "DrMomentReport",
    "ContinuityCurve",
    "ContinuityNotApplicableError",
    "verify_dr_moments",
    "fbm_law_check",
    "shiryaev_identity_check",
    "nonconvergence_demo",
    "continuity_study",
    "cauchy_decay_study",
    "parse_integrand",
    "write_moments_csv",
    "write_law_csv",
    "write_continuity_csv",
    "write_decay_csv",
    "write_nonconv_csv",
    "write_shiryaev_csv",
    "write_manifest",
]


#: the drivers' default grid, desk scale: 2^12 steps on [0, 1], history reaching 1e14 back (see noise.make_grid)
DESK = make_grid(1.0, 4096, 1e14)

#: CPUs this process may run on: _replicate runs up to this many chunks at once
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)

#: the most noise, in bytes, in flight across all chunk threads (128 replications of the desk grid, 5.1 MiB)
#: and in one chunk (32, 1.3 MiB).  A chunk's fields (_FIELDS) come on top, so 64-row chunks held ~15 MB more
#: at peak; grids with rows past the cap still run on WORKERS threads.
_CHUNK_BYTES = 128 * DESK.cell_count * 8
_CHUNK_CAP_BYTES = 32 * DESK.cell_count * 8
#: what a chunk allocates beyond its noise, at most, in float fields of main_steps + 1 points a row: a desk
#: chunk takes 2.5 (DR_H moments), 3.8 (decay) and 4.3 (continuity, 4 h)
#: (test_a_desk_chunk_allocates_at_most_five_fields_a_row)
_FIELDS = 5


@dataclass(frozen=True)
class MCResult:
    estimate: float
    std_error: float
    replications: int
    seed: int
    truncation_budget: float


def _mc(values: np.ndarray, seed: int, budget: float) -> MCResult:
    values = np.asarray(values, dtype=float)
    n = values.size
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MCResult(estimate=float(values.mean()), std_error=se,
                    replications=n, seed=seed, truncation_budget=budget)


def _memory_available() -> int | None:
    """Bytes this process may still take: the least of MemAvailable, the cgroup's memory limit (v2 memory.max
    or v1 memory.limit_in_bytes) and the soft RLIMIT_AS less VmSize, each where it reads as a number; None if
    none does.
    """
    def read(path, key="", field=0, scale=1):  # the field of the first line that starts with key, as an int
        try:
            with open(path) as fh:
                return next(int(line.split()[field]) * scale for line in fh if line.startswith(key))
        except (OSError, ValueError, IndexError, StopIteration):
            return None

    limit, size = read("/proc/self/limits", "Max address space", 3), read("/proc/self/status", "VmSize:", 1, 1024)
    free = [read("/proc/meminfo", "MemAvailable:", 1, 1024), read("/sys/fs/cgroup/memory.max"),
            read("/sys/fs/cgroup/memory/memory.limit_in_bytes"), None if None in (limit, size) else limit - size]
    return min((f for f in free if f is not None), default=None)


@dataclass(frozen=True)
class _Plan:
    """A checked run for _replicate: its grid, the cells drawn of each row (None: all) and the rows in flight."""
    grid: SimulationGrid
    cells: int | None
    rows: int


def _plan(grid: SimulationGrid, hps=(), cells: int | None = None) -> _Plan:
    """The run _replicate makes on grid, drawing each row's first cells cells (None: all), checked before any draw.

    Refused first, by noise.refuse_no_history as its readers of the history refuse it: any h > 1/2 in hps on a
    grid with no history, whose integral against the whole past of the noise would be cut at the origin with no
    budget for the rest; then rows in flight that, with their fields, exceed the memory available.
    """
    if any(not hp.is_brownian for hp in hps):
        refuse_no_history(grid)
    rows = max(1, _CHUNK_BYTES // (8 * grid.cell_count))
    row = (grid.cell_count if cells is None else cells) + _FIELDS * (grid.main_steps + 1)  # floats: noise, fields
    need, free = rows * 8 * row, _memory_available()
    if free is not None and need > free:
        raise ValueError(
            f"--steps {grid.main_steps} with --warmup {grid.warmup_length:.4g} needs {need / 2 ** 30:,.2f} GiB "
            f"for {rows} row(s) of noise and their fields, but {free / 2 ** 30:,.2f} GiB are available; "
            "lower --steps or --warmup")
    return _Plan(grid, cells, rows)


def _replicate(seed: int, plan: _Plan, reps: int, per_chunk) -> tuple:
    """Run per_chunk over replications 0..reps-1 in chunks, up to WORKERS chunks at once, as plan checked.

    Replication r is noise stream r of seed.  per_chunk maps a chunk's rows,
    the read-only array of generate_noise_batch on plan.grid, to a tuple of
    arrays with one entry per replication along the first axis; the
    runner returns each array concatenated in stream order, so the result does
    not depend on the chunk size or the thread count.  The replications split
    into near-equal chunks, as many as a multiple of WORKERS, of at most
    _CHUNK_BYTES / WORKERS and _CHUNK_CAP_BYTES of noise each (at least one
    row), so every round of WORKERS chunks is as full as the next and a short
    run still keeps every CPU busy.  A chunk draws its noise in its own task,
    and no more chunks run at once than fit in _CHUNK_BYTES (one, if a row is
    larger).  One thread runs inline.  If a chunk raises, the chunks that have
    not started are cancelled and the exception reaches the caller.  A chunk
    draws only each row's first plan.cells cells, where per_chunk reads no
    further (see generate_noise_batch): the chunks are still sized from full
    rows, so they stay as they are.  Every refusal of _plan comes before any draw.
    """
    grid, cells, rows = plan.grid, plan.cells, plan.rows
    chunk = max(1, min(rows // WORKERS, _CHUNK_CAP_BYTES // (8 * grid.cell_count)))
    rounds = -(-reps // (chunk * WORKERS))
    n_chunks = min(reps, rounds * WORKERS)
    starts = [reps * k // n_chunks for k in range(n_chunks + 1)]  # sizes differ by at most one

    def run(k):
        lo = starts[k]
        return per_chunk(generate_noise_batch(seed, grid, starts[k + 1] - lo, first_stream=lo, cells=cells))

    # the largest chunk has ceil(reps / n_chunks) rows
    threads = min(WORKERS, n_chunks, rows // -(-reps // n_chunks))
    if threads <= 1:
        parts = [run(k) for k in range(n_chunks)]
    else:
        with ThreadPoolExecutor(threads) as pool:
            parts = list(pool.map(run, range(n_chunks)))  # map cancels the unstarted chunks when one raises
    return tuple(np.concatenate(col) for col in zip(*parts))


def _fit_slope(levels, gaps) -> float | None:
    """Least-squares slope of log2(gaps) against levels; None unless there are two or more gaps, all positive."""
    g = np.asarray(gaps)
    if np.any(g <= 0.0) or g.size < 2:
        return None
    return float(np.polyfit(np.asarray(levels, dtype=float), np.log2(g), 1)[0])


def _stream_crcs(incs: np.ndarray) -> np.ndarray:
    """CRC-32 of each replication's increments."""
    return np.array([zlib.crc32(row) for row in incs], dtype=np.uint32)


def _fold_crcs(crcs: np.ndarray) -> int:
    """One checksum of every replication's noise: the CRC-32 of the per-replication CRCs."""
    return zlib.crc32(crcs.astype("<u4").tobytes())


# ---------------------------------------------------------------------------
# moment identities for the history-derivative process
# ---------------------------------------------------------------------------

def _energy_quadrature(grid: SimulationGrid, hp: HurstParameter):
    """Lattice evaluation points and profile-matched weights for int_0^T DR^2.

    The weights integrate the known second-moment profile t^(2h-2) exactly,
    so the singular first cell carries its true mass.  With q = 2h - 1 the
    weight of cell k is (t_k^q - t_(k-1)^q) / (q t_k^(q-1)) = t_k (1 -
    (1 - 1/k)^q) / q, a kernels.power_diff.  The first cell's is t_1 / q.
    """
    n = grid.main_steps
    h = grid.step
    eval_idx = grid.origin_index + np.arange(1, n + 1)
    if hp.is_brownian:
        return eval_idx, np.full(n, h)
    q = 2 * hp.h - 1.0
    k = np.arange(1, n + 1, dtype=float)
    w = np.empty(n)
    w[0] = h / q
    w[1:] = -h * k[1:] * power_diff(1.0, -1.0 / k[1:], q) / q
    return eval_idx, w


@dataclass(frozen=True)
class DrMomentReport:
    h: float
    span: float
    pointwise: MCResult
    energy: MCResult
    pointwise_closed: float
    energy_closed: float


def verify_dr_moments(hp: HurstParameter, span: float, reps: int, seed: int,
                      grid: SimulationGrid = DESK) -> DrMomentReport:
    """MC check of E DR_H(span)^2 and E int_0^span DR_H^2 against the closed forms; span is grid.horizon."""
    if reps < 100:
        raise ValueError("need at least 100 replications")
    if span != grid.horizon:
        raise ValueError(f"span {span} is not the grid horizon {grid.horizon}")
    m0 = grid.origin_index
    plan = _plan(grid, (hp,), cells=m0)  # DR_H reads no cell from the origin on: draw the history only
    eval_idx, quad_w = _energy_quadrature(grid, hp)

    def per_chunk(incs):
        drv = dr_values(incs, grid, hp, m0)  # lattice j = m0+1 .. cell_count, the quadrature's points
        sq = np.square(drv, out=drv)  # in place, as is the weighting: the chunk's own array, no temporaries
        point = sq[:, -1].copy()
        sq *= quad_w
        return point, np.sum(sq, axis=-1)

    point, energy = _replicate(seed, plan, reps, per_chunk)

    p_closed = dr_pointwise_closed_form(hp, span)
    e_closed = dr_energy_closed_form(hp, span)
    p_budget = abs(p_closed - discrete_dr_energy(grid, hp, eval_idx[-1:], np.ones(1)))
    e_budget = abs(e_closed - discrete_dr_energy(grid, hp, eval_idx, quad_w))
    return DrMomentReport(
        h=hp.h, span=span,
        pointwise=_mc(point, seed, p_budget),
        energy=_mc(energy, seed, e_budget),
        pointwise_closed=p_closed, energy_closed=e_closed,
    )


def fbm_law_check(hp: HurstParameter, reps: int, seed: int, grid: SimulationGrid = DESK):
    """MC Var B_H(1) and Cov(B_H(1), B_H(1/2)) with exact discrete-expectation budgets.

    The budgets are discrete_fbm_cov's sum over the same two weight vectors the estimates read."""
    plan = _plan(grid, (hp,))
    t, s = grid.horizon, grid.horizon / 2
    weights = np.stack([fbm_weight_vector(grid, hp, grid.index_of(t)), fbm_weight_vector(grid, hp, grid.index_of(s))])

    def per_chunk(incs):
        end, mid = row_dot("ri,ki->kr", incs, weights)
        return end ** 2, end * mid

    var_s, cov_s = _replicate(seed, plan, reps, per_chunk)
    var_closed = t ** (2 * hp.h)
    cov_closed = 0.5 * (t ** (2 * hp.h) + s ** (2 * hp.h) - (t - s) ** (2 * hp.h))
    var_budget = abs(var_closed - weights_cov(grid, weights[0], weights[0]))
    cov_budget = abs(cov_closed - weights_cov(grid, weights[0], weights[1]))
    return (_mc(var_s, seed, var_budget), var_closed), (_mc(cov_s, seed, cov_budget), cov_closed)


# ---------------------------------------------------------------------------
# Riemann-sum refinement and the quadratic identity
# ---------------------------------------------------------------------------

def _left_point_sum(path: np.ndarray) -> np.ndarray:
    """sum_k path[k] (path[k+1] - path[k]) per row: the left-point Riemann sum of a path against itself."""
    return np.sum(path[:, :-1] * np.diff(path, axis=-1), axis=-1)


def shiryaev_identity_check(hp: HurstParameter, n_steps_seq, reps: int, seed: int,
                            grid: SimulationGrid = DESK):
    """Defect E|2 sum B_H(T_k) dB_H - B_H(T)^2| along a refinement sequence.

    The pathwise quadratic identity holds in the n -> infinity limit for
    h > 1/2; the defect of the left-point Riemann sum is the surviving
    discrete quadratic variation.
    """
    if hp.h <= HALF:
        raise ValueError("the quadratic identity check needs h > 1/2")
    n_fine, plan = grid.main_steps, _plan(grid, (hp,))
    seq = [int(n) for n in n_steps_seq]
    for n in seq:
        if n < 1 or n_fine % n != 0:
            raise ValueError(f"refinement level {n} does not divide the fine grid {n_fine}")

    def per_chunk(incs):
        bh = fbm_values(incs, grid, (hp,))[0]
        final_sq = bh[:, -1] ** 2
        defects = []
        for n in seq:
            defects.append(np.abs(2.0 * _left_point_sum(bh[:, ::n_fine // n]) - final_sq))
        return tuple(defects)

    defects = _replicate(seed, plan, reps, per_chunk)
    budget = 0.0  # identity is pathwise in the synthesized process; no closed-form target
    return [(n, _mc(d, seed, budget)) for n, d in zip(seq, defects)]


@dataclass(frozen=True)
class NonConvergenceRow:
    h: float
    gap_riemann: MCResult
    gap_limit: MCResult
    refinement_tol: float
    noise_checksum: int


def nonconvergence_demo(hursts, reps: int, seed: int,
                        grid: SimulationGrid = DESK) -> list[NonConvergenceRow]:
    """Gap E int B_H dB_H - E int B dB per Hurst value; it does not vanish as h drops to 1/2.

    Reported twice per h: from the left-point Riemann sum at the fine
    resolution (its exact finite-n deficit 0.5 T^(2h) n^(1-2h) is declared as
    the refinement tolerance) and from the quadratic-identity limit object
    0.5 B_H(T)^2, which is the n -> infinity value of the sums.
    """
    horizon, n, m0 = grid.horizon, grid.main_steps, grid.origin_index
    hps = [hurst_constant(h) for h in hursts]
    rough, plan = [hp for hp in hps if not hp.is_brownian], _plan(grid, hps)

    def per_chunk(incs):
        b = history_conv(incs, None, (m0, grid.cell_count), (m0, grid.cell_count + 1))
        ito_b = _left_point_sum(b)
        # every h reads the same batch, and the h > 1/2 paths one transform of it
        paths = iter(fbm_values(incs, grid, rough) if rough else ())
        gaps = []
        for hp in hps:
            bh = b if hp.is_brownian else next(paths)
            gaps += [_left_point_sum(bh) - ito_b, 0.5 * bh[:, -1] ** 2 - ito_b]
        return (*gaps, _stream_crcs(incs))

    *gaps, crcs = _replicate(seed, plan, reps, per_chunk)
    checksum = _fold_crcs(crcs)
    rows = []
    for hp, d_riem, d_lim in zip(hps, gaps[::2], gaps[1::2]):
        if hp.is_brownian:
            refinement, budget = 0.0, 0.0
        else:
            refinement = 0.5 * horizon ** (2 * hp.h) * float(n) ** (1.0 - 2.0 * hp.h)
            # the estimates ride on the truncated synthesis of B_H(T)^2
            budget = 0.5 * abs(horizon ** (2 * hp.h) - discrete_fbm_cov(grid, hp, horizon, horizon))
        rows.append(NonConvergenceRow(
            h=hp.h,
            gap_riemann=_mc(d_riem, seed, budget),
            gap_limit=_mc(d_lim, seed, budget),
            refinement_tol=refinement,
            noise_checksum=checksum,
        ))
    return rows


# ---------------------------------------------------------------------------
# Hurst-continuity of the delayed integral
# ---------------------------------------------------------------------------

class ContinuityNotApplicableError(ValueError):
    """The integrand sits in the class where Riemann-sum integrals fail to converge."""


@dataclass(frozen=True)
class ContinuityCurve:
    hurst_values: tuple[float, ...]
    gaps: tuple[float, ...]
    std_errors: tuple[float, ...]
    integrand_spec: str
    base_seed: int
    x_norm_ref: float
    noise_checksum: int

    @property
    def final_gap(self) -> float:
        return self.gaps[-1]


def _integration_plan(gamma: Integrand, grid: SimulationGrid, level: int, flag: str | None):
    """(integrand, segment grid) for one delayed-integral evaluation.

    Deterministic integrands need one segment and piecewise-predictable ones
    bring their own grid; any other integrand is projected on the dyadic
    grid of the given level, which the option flag set (None: no option).
    """
    inner = _check_start(grid, gamma)
    if isinstance(inner, FbmIntegrand) and not inner.hp1.is_brownian:  # it reads the history before the origin
        refuse_no_history(grid)
    if isinstance(gamma, DeterministicIntegrand):
        return gamma, SegmentGrid.dyadic(grid.horizon, 0)
    if isinstance(gamma, PiecewisePredictableIntegrand):
        _check_segments(grid, gamma)
        return gamma, gamma.grid
    _check_dyadic_level(grid, level, flag)
    return dyadic_projection(gamma, level, grid), SegmentGrid.dyadic(grid.horizon, level)


def _check_dyadic_level(grid: SimulationGrid, level: int, flag: str | None) -> None:
    """Refuse a level whose dyadic segments are not whole runs of MIN_CELLS_PER_SEGMENT or more cells.

    flag names the option that set the level; None when no option sets it.
    """
    if level < 0:
        raise ValueError(f"{flag or 'the projection level'} must be >= 0 (got {level})")
    n_seg = 2 ** level
    if grid.main_steps % n_seg or grid.main_steps < MIN_CELLS_PER_SEGMENT * n_seg:
        remedy = f"lower {flag} or raise --steps" if flag else "raise --steps"
        raise ValueError(
            f"projection level {level} does not split {grid.main_steps} steps into 2^{level} "
            f"segments of at least {MIN_CELLS_PER_SEGMENT} fine cells; {remedy}")


def _check_segments(grid: SimulationGrid, gamma: PiecewisePredictableIntegrand) -> None:
    """Refuse breakpoints that are not lattice points MIN_CELLS_PER_SEGMENT or more cells apart."""
    try:
        _segment_lattice_indices(grid, gamma.grid)
    except ValueError:
        raise ValueError(
            f"integrand {gamma.spec_string()!r} does not split --steps {grid.main_steps} into segments of at "
            f"least {MIN_CELLS_PER_SEGMENT} fine cells between lattice points; take a segment count that "
            f"divides {grid.main_steps // MIN_CELLS_PER_SEGMENT}") from None


def _check_start(grid: SimulationGrid, gamma: Integrand) -> Integrand:
    """Refuse an rl integrand, alone or frozen on segments, whose start is off the lattice; return the inner one."""
    inner = gamma
    while isinstance(inner, PiecewisePredictableIntegrand):
        inner = inner.inner
    if isinstance(inner, RlFbmIntegrand):
        try:
            grid.index_of(inner.start)
        except ValueError:
            raise ValueError(
                f"--integrand {gamma.spec_string()!r} starts at t={inner.start!r}, off the lattice of --steps "
                f"{grid.main_steps}; take a start that is a multiple of {grid.step!r} from "
                f"{grid.uniform_start!r} to {grid.horizon!r}") from None
    return inner


def continuity_study(gamma: Integrand | str, hursts, reps: int, seed: int,
                     grid: SimulationGrid = DESK, proj_level: int = 8) -> ContinuityCurve:
    """Pathwise L1 gaps E|I_H(gamma) - I_(1/2)(gamma)| under common noise, per Hurst value; right after _plan,
    before any kernel or draw, an integrand with no closed-form ||gamma||_X (x_norm_ref) is refused."""
    if isinstance(gamma, str):
        gamma = parse_integrand(gamma, horizon=grid.horizon)
    if not isinstance(gamma, PiecewisePredictableIntegrand) and not (gamma.nu_exponent or 0.0) > 0.0:
        raise ContinuityNotApplicableError(
            f"integrand {gamma.spec_string()!r} has forecast-variance exponent nu = 0 and is not "
            "piecewise predictable; the Hurst-continuity theorem is not applicable to this "
            "convergence (it is the non-convergent Riemann-sum regime)")
    integrand, seg = _integration_plan(gamma, grid, proj_level, None)
    hps = [hurst_constant(h) for h in hursts]
    if any(hp.is_brownian for hp in hps):
        raise ValueError("the baseline h = 1/2 is implicit; pass only h > 1/2 values")
    half, plan = hurst_constant(HALF), _plan(grid, hps)
    x_ref = closed_form_x_norm(gamma, grid)
    if x_ref is None:
        raise ValueError(f"integrand {gamma.spec_string()!r} has no closed-form ||gamma||_X for the study to report")
    m0, end = grid.origin_index, int(_segment_lattice_indices(grid, seg)[-1])
    kernel = history_kernel(grid, hps)

    def per_chunk(incs):
        cells = integrand.values_on_cells(grid, incs)
        base, _, _, _ = delayed_parts_for_cells(cells, seg, grid, incs, half)
        # the value sum_l gamma_l (B_H(t_l+1) - B_H(t_l)) is sum_j a_j B_H(t_j), a_j = gamma_j-1 - gamma_j
        # with gamma_-1 = gamma_N = 0: one inner product per h, taken without forming the path
        weights = np.diff(-cells[..., :end - m0], prepend=0.0, append=0.0)
        values = past_dot(incs, grid, kernel, end, (m0, end + 1), weights)
        return (*np.abs(values - base), _stream_crcs(incs))

    *gaps, crcs = _replicate(seed, plan, reps, per_chunk)
    results = [_mc(g, seed, 0.0) for g in gaps]
    return ContinuityCurve(
        hurst_values=tuple(hp.h for hp in hps),
        gaps=tuple(r.estimate for r in results),
        std_errors=tuple(r.std_error for r in results),
        integrand_spec=gamma.spec_string(),
        base_seed=seed,
        x_norm_ref=x_ref,
        noise_checksum=_fold_crcs(crcs),
    )


# ---------------------------------------------------------------------------
# Cauchy decay of the dyadic extension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayStudy:
    levels: tuple[int, ...]          # coarse level m of each gap (m -> m+1)
    gaps: tuple[float, ...]          # L1 gap of the full integral
    std_errors: tuple[float, ...]
    cross_gaps: tuple[float, ...]    # L1 gap of the inter-segment component
    cross_std_errors: tuple[float, ...]
    fitted_slope: float | None       # log2 slope of gaps vs m
    cross_fitted_slope: float | None
    target_slope: float | None       # -(nu/2 + h - 1/2)
    integrand_spec: str
    h: float
    seed: int


def cauchy_decay_study(gamma: Integrand | str, hp: HurstParameter, levels, reps: int,
                       seed: int, grid: SimulationGrid = DESK) -> DecayStudy:
    """Level-to-level L1 gaps of the dyadic extension, with log2 slope fits.

    For each consecutive pair (m, m+1) both projections are integrated on the
    level-(m+1) grid (the total is grid-invariant; the split into parts is
    not), so the inter-segment component matches the quantity whose geometric
    decay drives the extension.  Both parts are linear in gamma, so a gap is
    one inner product of the level step gamma_(m+1) - gamma_m
    (Integrand.level_steps) with a field of the noise: no path, no
    projection and no assembly is formed.
    """
    if isinstance(gamma, str):
        gamma = parse_integrand(gamma, horizon=grid.horizon)
    _check_start(grid, gamma)
    levels = sorted(int(n) for n in levels)
    if len(levels) < 2 or any(b - a != 1 for a, b in zip(levels[:-1], levels[1:])):
        raise ValueError(f"--levels needs two or more levels, as coarse:fine with coarse < fine (got {levels})")
    for level in (levels[0], levels[-1]):
        _check_dyadic_level(grid, level, "--levels")
    if isinstance(gamma, DeterministicIntegrand):
        # projection is vacuous; gaps sit at the quadrature-noise floor
        zeros = (0.0,) * (len(levels) - 1)
        return DecayStudy(levels=tuple(levels[:-1]), gaps=zeros, std_errors=zeros, cross_gaps=zeros,
                          cross_std_errors=zeros, fitted_slope=None, cross_fitted_slope=None, target_slope=None,
                          integrand_spec=gamma.spec_string(), h=hp.h, seed=seed)
    if gamma.nu_exponent is None:
        raise ValueError("the decay study needs an integrand with a known variance exponent")

    pair_levels, plan = levels[:-1], _plan(grid, (hp,))
    m0, end = grid.origin_index, grid.origin_index + grid.main_steps

    def per_chunk(incs):
        # dB at h = 1/2, where value is the Ito sum and cross is 0; else d_tail and d_main
        fields = [incs[..., m0:end]] if hp.is_brownian else noise_transforms(grid, incs, hp, end)
        gaps = []
        for m, step in zip(pair_levels, gamma.level_steps(grid, incs, levels)):
            # the parts are linear in gamma: each gap is one inner product with the level step,
            # which lives on the second halves of the level-m segments, the odd level-(m+1) ones
            sums = [row_dot("...kh,...kh->...", step, second_halves(f, m)) for f in fields]
            if hp.is_brownian:
                gaps += [np.abs(sums[0]), np.zeros(len(incs))]
            else:  # value = tail + main and cross = main - ito on the level-(m+1) grid
                ito = row_dot("...kh,...kh->...", step, second_half_ito(grid, incs, hp, m))
                gaps += [np.abs(sums[0] + sums[1]), np.abs(sums[1] - ito)]
        return tuple(gaps)

    gaps = _replicate(seed, plan, reps, per_chunk)
    tot = [_mc(g, seed, 0.0) for g in gaps[::2]]
    cross = [_mc(g, seed, 0.0) for g in gaps[1::2]]
    target = None
    if math.isfinite(gamma.nu_exponent) and not hp.is_brownian:
        target = -(gamma.nu_exponent / 2.0 + hp.h - 0.5)
    return DecayStudy(
        levels=tuple(pair_levels),
        gaps=tuple(r.estimate for r in tot),
        std_errors=tuple(r.std_error for r in tot),
        cross_gaps=tuple(r.estimate for r in cross),
        cross_std_errors=tuple(r.std_error for r in cross),
        fitted_slope=_fit_slope(pair_levels, [r.estimate for r in tot]),
        cross_fitted_slope=_fit_slope(pair_levels, [r.estimate for r in cross]),
        target_slope=target,
        integrand_spec=gamma.spec_string(), h=hp.h, seed=seed,
    )


# ---------------------------------------------------------------------------
# integrand spec strings
# ---------------------------------------------------------------------------

_SPEC_HELP = ("accepted integrand specs: det:const:<v> | det:poly:a0,a1,... | bm | "
              "fbm:<H> | rl:<H>[:<start>] | bm2 | pp:<inner>:<n-segments>")


def parse_integrand(spec: str, horizon: float = 1.0) -> Integrand:
    """Build an integrand from its CLI spec string; every number in it is finite."""
    try:
        return _parse_integrand(spec, horizon)
    except (IndexError, ValueError) as exc:
        detail = f" ({exc})" if str(exc) else ""
        raise ValueError(f"unknown integrand spec {spec!r}; {_SPEC_HELP}{detail}") from None


def _parse_integrand(spec: str, horizon: float) -> Integrand:
    """parse_integrand with no message of its own: a bad inner spec of pp: is refused once, as the whole spec."""
    def number(text: str) -> float:  # float() also reads nan and inf, which no integrand takes
        if not math.isfinite(x := float(text)):
            raise ValueError(f"{text} is not finite")
        return x

    parts = spec.split(":")
    if parts[0] == "det":
        if parts[1] == "const":
            return DeterministicIntegrand.constant(number(parts[2]))
        if parts[1] == "poly":
            return DeterministicIntegrand.polynomial([number(a) for a in parts[2].split(",")])
        raise ValueError
    if spec == "bm":
        return BrownianIntegrand()
    if parts[0] == "fbm":
        return FbmIntegrand(number(parts[1]))
    if parts[0] == "rl":
        return RlFbmIntegrand(number(parts[1]), number(parts[2]) if len(parts) > 2 else 0.0)
    if spec == "bm2":
        return QuadraticBrownianIntegrand()
    if parts[0] == "pp":
        inner = _parse_integrand(":".join(parts[1:-1]), horizon)
        return PiecewisePredictableIntegrand(inner, SegmentGrid.uniform(horizon, int(parts[-1])))
    raise ValueError


# ---------------------------------------------------------------------------
# CSV / manifest output (fixed field order and shortest-roundtrip floats)
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_moments_csv(path, reports: list[DrMomentReport]) -> None:
    """Two rows per report: E DR_H(span)^2 (pointwise), then E int_0^span DR_H^2 (energy)."""
    rows = [[r.h, r.span, name, res.estimate, closed, res.std_error, res.truncation_budget]
            for r in reports for name, res, closed in (("pointwise", r.pointwise, r.pointwise_closed),
                                                       ("energy", r.energy, r.energy_closed))]
    _write_csv(path, ["h", "span", "quantity", "estimate", "closed_form", "se", "budget"], rows)


def write_law_csv(path, law) -> None:
    """The two rows of fbm_law_check: Var B_H(1) and Cov(B_H(1), B_H(1/2))."""
    rows = [[name, res.estimate, closed, res.std_error, res.truncation_budget]
            for name, (res, closed) in zip(("var_1", "cov_1_half"), law)]
    _write_csv(path, ["quantity", "estimate", "closed_form", "se", "budget"], rows)


def write_continuity_csv(path, curve: ContinuityCurve) -> None:
    rows = [[h, g, s] for h, g, s in zip(curve.hurst_values, curve.gaps, curve.std_errors)]
    _write_csv(path, ["h", "gap", "se"], rows)


def write_decay_csv(path, study: DecayStudy) -> None:
    slope, cross = (math.nan if a is None else a for a in (study.fitted_slope, study.cross_fitted_slope))
    rows = [[m, g, s, slope, cg, cs, cross] for m, g, s, cg, cs in
            zip(study.levels, study.gaps, study.std_errors, study.cross_gaps, study.cross_std_errors)]
    _write_csv(path, ["level", "gap", "se", "fitted_slope",
                      "cross_gap", "cross_se", "cross_fitted_slope"], rows)


def write_nonconv_csv(path, rows: list[NonConvergenceRow]) -> None:
    out = [[r.h, r.gap_riemann.estimate, r.gap_riemann.std_error,
            r.gap_limit.estimate, r.gap_limit.std_error, r.refinement_tol]
           for r in rows]
    _write_csv(path, ["h", "gap", "se", "gap_limit", "se_limit", "refinement_tol"], out)


def write_shiryaev_csv(path, rows) -> None:
    out = [[n, r.estimate, r.std_error] for n, r in rows]
    _write_csv(path, ["n_steps", "defect", "se"], out)


def write_manifest(path, record: dict) -> None:
    """Any JSON record, a run's manifest or its result: indented by 2, keys sorted, a newline at the end."""
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
