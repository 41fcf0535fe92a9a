"""Monte Carlo experiment drivers and their CSV/JSON interfaces.

Every driver follows the same discipline:

* common random numbers: within a replication, every Hurst value consumes the
  identical driving noise (one Philox stream per replication, checksummed);
* one runner, `_replicate`, draws the replications chunk by chunk and
  concatenates the per-replication results in stream order; they are
  aggregated once, so output is independent of chunking and scheduling;
* that runner is the package's one level of parallelism: it runs the chunks
  on up to `WORKERS` threads (numpy, scipy's FFTs and the Philox draws
  release the GIL), each drawing its own noise and doing its own transforms
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

from .kernels import HALF, HurstParameter, hurst_constant
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
    x_norm,
)
from .integrator import (
    MIN_CELLS_PER_SEGMENT,
    _segment_lattice_indices,
    delayed_parts_for_cells,
    noise_transforms,
)
from .noise import (
    NoiseBatch,
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
)

__all__ = [
    "DeskConfig",
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


@dataclass(frozen=True)
class DeskConfig:
    """Desk-scale defaults: fine grid 2^12 on [0, 1], history reaching 1e14 back (see noise.make_grid)."""

    horizon: float = 1.0
    steps: int = 4096
    warmup: float = 1e14

    def grid(self) -> SimulationGrid:
        return make_grid(self.horizon, self.steps, self.warmup)


DESK = DeskConfig()

#: CPUs this process may run on: _replicate runs up to this many chunks at once
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)

#: the most noise, in bytes, in flight across all chunk threads: 128 replications of the 8,724-cell
#: desk grid.  A chunk's fields and transforms outweigh its noise, so more rows would raise peak memory.
_CHUNK_BYTES = 128 * 8_724 * 8


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


def _replicate(seed: int, grid: SimulationGrid, reps: int, per_chunk) -> tuple:
    """Run per_chunk over replications 0..reps-1 in chunks, up to WORKERS chunks at once.

    Replication r is noise stream r of seed.  per_chunk maps a NoiseBatch to
    a tuple of arrays with one entry per replication along the first axis;
    the runner returns each array concatenated in stream order, so the
    result does not depend on the chunk size or the thread count.  The
    replications split into near-equal chunks, as many as a multiple of
    WORKERS, of at most _CHUNK_BYTES / WORKERS of noise each (at least one
    row), so every round of WORKERS chunks is as full as the next and a
    short run still keeps every CPU busy.  A chunk draws its noise in its
    own task, and no more chunks run at once than fit in _CHUNK_BYTES (one,
    if a row is larger).  One thread runs inline.  If a chunk raises, the
    chunks that have not started are cancelled and the exception reaches
    the caller.
    """
    rows = max(1, _CHUNK_BYTES // (8 * grid.cell_count))  # rows in flight
    rounds = -(-reps // (max(1, rows // WORKERS) * WORKERS))
    n_chunks = min(reps, rounds * WORKERS)
    starts = [reps * k // n_chunks for k in range(n_chunks + 1)]  # sizes differ by at most one

    def run(k):
        lo = starts[k]
        return per_chunk(generate_noise_batch(seed, grid, starts[k + 1] - lo, first_stream=lo))

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


def _stream_crcs(batch: NoiseBatch) -> np.ndarray:
    """CRC-32 of each replication's increments."""
    return np.array([zlib.crc32(row) for row in batch.increments], dtype=np.uint32)


def _fold_crcs(crcs: np.ndarray) -> int:
    """One checksum of every replication's noise: the CRC-32 of the per-replication CRCs."""
    return zlib.crc32(crcs.astype("<u4").tobytes())


# ---------------------------------------------------------------------------
# moment identities for the history-derivative process
# ---------------------------------------------------------------------------

def _energy_quadrature(grid: SimulationGrid, hp: HurstParameter):
    """Lattice evaluation points and profile-matched weights for int_0^T DR^2.

    The weights integrate the known second-moment profile t^(2h-2) exactly,
    so the singular first cell carries its true mass.
    """
    n = grid.main_steps
    h = grid.step
    eval_idx = grid.origin_index + np.arange(1, n + 1)
    if hp.is_brownian:
        return eval_idx, np.full(n, h)
    t = h * np.arange(n + 1)
    e = 2 * hp.h - 2.0
    w = (t[1:] ** (e + 1) - t[:-1] ** (e + 1)) / ((e + 1) * t[1:] ** e)
    return eval_idx, w


@dataclass(frozen=True)
class DrMomentReport:
    h: float
    span: float
    pointwise: MCResult
    energy: MCResult
    pointwise_closed: float
    energy_closed: float

    def rows(self):
        for name, res, closed in (("pointwise", self.pointwise, self.pointwise_closed),
                                  ("energy", self.energy, self.energy_closed)):
            yield {"h": self.h, "span": self.span, "quantity": name,
                   "estimate": res.estimate, "closed_form": closed,
                   "se": res.std_error, "budget": res.truncation_budget}


def verify_dr_moments(hp: HurstParameter, span: float, reps: int, seed: int,
                      config: DeskConfig = DESK) -> DrMomentReport:
    """MC check of E DR_H(span)^2 and E int_0^span DR_H^2 against the closed forms; span is config.horizon."""
    if reps < 100:
        raise ValueError("need at least 100 replications")
    if span != config.horizon:
        raise ValueError(f"span {span} is not the config horizon {config.horizon}")
    grid = config.grid()
    m0 = grid.origin_index
    eval_idx, quad_w = _energy_quadrature(grid, hp)

    def per_chunk(nb):
        drv = dr_values(nb.increments, grid, hp, m0)  # lattice j = m0+1 .. cell_count = eval_idx
        # a row-wise sum, not a matrix product: BLAS rounding depends on the row count
        return drv[:, -1] ** 2, np.sum(drv ** 2 * quad_w, axis=-1)

    point, energy = _replicate(seed, grid, reps, per_chunk)

    p_closed = dr_pointwise_closed_form(hp, span)
    e_closed = dr_energy_closed_form(hp, span) if not hp.is_brownian else 0.0
    p_budget = abs(p_closed - discrete_dr_energy(grid, hp, m0, eval_idx[-1:], np.ones(1)))
    e_budget = abs(e_closed - discrete_dr_energy(grid, hp, m0, eval_idx, quad_w))
    return DrMomentReport(
        h=hp.h, span=span,
        pointwise=_mc(point, seed, p_budget),
        energy=_mc(energy, seed, e_budget),
        pointwise_closed=p_closed, energy_closed=e_closed,
    )


def fbm_law_check(hp: HurstParameter, reps: int, seed: int, config: DeskConfig = DESK):
    """MC Var B_H(1) and Cov(B_H(1), B_H(1/2)) with exact discrete-expectation budgets."""
    grid = config.grid()
    m0, n = grid.origin_index, grid.main_steps
    # B_H(t) = sum_i w_i dB_i: two row-wise sums, not a path (einsum, not BLAS, whose rounding
    # depends on the row count)
    weights = np.stack([fbm_weight_vector(grid, hp, m0 + n), fbm_weight_vector(grid, hp, m0 + n // 2)])

    def per_chunk(nb):
        end, mid = np.einsum("ri,ki->kr", nb.increments, weights)
        return end ** 2, end * mid

    var_s, cov_s = _replicate(seed, grid, reps, per_chunk)
    t, s = grid.horizon, grid.horizon / 2
    var_closed = t ** (2 * hp.h)
    cov_closed = 0.5 * (t ** (2 * hp.h) + s ** (2 * hp.h) - (t - s) ** (2 * hp.h))
    var_budget = abs(var_closed - discrete_fbm_cov(grid, hp, t, t))
    cov_budget = abs(cov_closed - discrete_fbm_cov(grid, hp, t, s))
    return (_mc(var_s, seed, var_budget), var_closed), (_mc(cov_s, seed, cov_budget), cov_closed)


# ---------------------------------------------------------------------------
# Riemann-sum refinement and the quadratic identity
# ---------------------------------------------------------------------------

def _left_point_sum(path: np.ndarray) -> np.ndarray:
    """sum_k path[k] (path[k+1] - path[k]) per row: the left-point Riemann sum of a path against itself."""
    return np.sum(path[:, :-1] * np.diff(path, axis=-1), axis=-1)


def shiryaev_identity_check(hp: HurstParameter, n_steps_seq, reps: int, seed: int,
                            config: DeskConfig = DESK):
    """Defect E|2 sum B_H(T_k) dB_H - B_H(T)^2| along a refinement sequence.

    The pathwise quadratic identity holds in the n -> infinity limit for
    h > 1/2; the defect of the left-point Riemann sum is the surviving
    discrete quadratic variation.
    """
    if hp.h <= HALF:
        raise ValueError("the quadratic identity check needs h > 1/2")
    grid = config.grid()
    n_fine = grid.main_steps
    seq = [int(n) for n in n_steps_seq]
    for n in seq:
        if n < 1 or n_fine % n != 0:
            raise ValueError(f"refinement level {n} does not divide the fine grid {n_fine}")

    def per_chunk(nb):
        bh = fbm_values(nb.increments, grid, (hp,))[0]
        final_sq = bh[:, -1] ** 2
        defects = []
        for n in seq:
            defects.append(np.abs(2.0 * _left_point_sum(bh[:, ::n_fine // n]) - final_sq))
        return tuple(defects)

    defects = _replicate(seed, grid, reps, per_chunk)
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
                        config: DeskConfig = DESK) -> list[NonConvergenceRow]:
    """Gap E int B_H dB_H - E int B dB per Hurst value; it does not vanish as h drops to 1/2.

    Reported twice per h: from the left-point Riemann sum at the fine
    resolution (its exact finite-n deficit 0.5 T^(2h) n^(1-2h) is declared as
    the refinement tolerance) and from the quadratic-identity limit object
    0.5 B_H(T)^2, which is the n -> infinity value of the sums.
    """
    grid = config.grid()
    horizon, n, m0 = grid.horizon, grid.main_steps, grid.origin_index
    hps = [hurst_constant(h) for h in hursts]
    rough = [hp for hp in hps if not hp.is_brownian]

    def per_chunk(nb):
        b = history_conv(nb.increments, None, (m0, grid.cell_count), (m0, grid.cell_count + 1))
        ito_b = _left_point_sum(b)
        # every h reads the same batch, and the h > 1/2 paths one transform of it
        paths = iter(fbm_values(nb.increments, grid, rough) if rough else ())
        gaps = []
        for hp in hps:
            bh = b if hp.is_brownian else next(paths)
            gaps += [_left_point_sum(bh) - ito_b, 0.5 * bh[:, -1] ** 2 - ito_b]
        return (*gaps, _stream_crcs(nb))

    *gaps, crcs = _replicate(seed, grid, reps, per_chunk)
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

    def decreasing_within_1se(self) -> bool:
        g, s = self.gaps, self.std_errors
        return all(g[i + 1] <= g[i] + math.hypot(s[i], s[i + 1]) for i in range(len(g) - 1))

    @property
    def final_gap(self) -> float:
        return self.gaps[-1]


def _integration_plan(gamma: Integrand, grid: SimulationGrid, level: int, flag: str | None):
    """(integrand, segment grid) for one delayed-integral evaluation.

    Deterministic integrands need one segment and piecewise-predictable ones
    bring their own grid; any other integrand is projected on the dyadic
    grid of the given level, which the option flag set (None: no option).
    """
    if isinstance(gamma, DeterministicIntegrand):
        return gamma, SegmentGrid.dyadic(grid.horizon, 0)
    if isinstance(gamma, PiecewisePredictableIntegrand):
        return gamma, gamma.grid
    _check_dyadic_level(grid, level, flag)
    return dyadic_projection(gamma, level, grid), SegmentGrid.dyadic(grid.horizon, level)


def _check_dyadic_level(grid: SimulationGrid, level: int, flag: str | None) -> None:
    """Refuse a level whose dyadic segments are not whole runs of MIN_CELLS_PER_SEGMENT or more cells.

    flag names the option that set the level; None when no option sets it.
    """
    n_seg = 2 ** level
    if grid.main_steps % n_seg or grid.main_steps < MIN_CELLS_PER_SEGMENT * n_seg:
        remedy = f"lower {flag} or raise --steps" if flag else "raise --steps"
        raise ValueError(
            f"projection level {level} does not split {grid.main_steps} steps into 2^{level} "
            f"segments of at least {MIN_CELLS_PER_SEGMENT} fine cells; {remedy}")


def _reference_x_norm(gamma: Integrand, grid: SimulationGrid, seed: int, reps: int = 256) -> float:
    closed = closed_form_x_norm(gamma, grid)
    if closed is not None:
        return closed
    return x_norm(gamma, generate_noise_batch(seed + 101, grid, reps))[0]


def continuity_study(gamma: Integrand | str, hursts, reps: int, seed: int,
                     config: DeskConfig = DESK, proj_level: int = 8) -> ContinuityCurve:
    """Pathwise L1 gaps E|I_H(gamma) - I_(1/2)(gamma)| under common noise, per Hurst value."""
    grid = config.grid()
    if isinstance(gamma, str):
        gamma = parse_integrand(gamma, horizon=grid.horizon)
    if not isinstance(gamma, PiecewisePredictableIntegrand) and not (gamma.nu_exponent or 0.0) > 0.0:
        raise ContinuityNotApplicableError(
            f"integrand {gamma.spec_string()!r} has forecast-variance exponent nu = 0 and is not "
            "piecewise predictable; the Hurst-continuity theorem is not applicable to this "
            "convergence (it is the non-convergent Riemann-sum regime)")
    integrand, seg = _integration_plan(gamma, grid, proj_level, None)
    hps = [hurst_constant(h) for h in hursts]
    for hp in hps:
        if hp.is_brownian:
            raise ValueError("the baseline h = 1/2 is implicit; pass only h > 1/2 values")
    half = hurst_constant(HALF)
    # refuse a grid the lattice cannot carry before any draw
    m0, end = grid.origin_index, int(_segment_lattice_indices(grid, seg)[-1])
    kernel = history_kernel(grid, hps)

    def per_chunk(nb):
        cells = integrand.values_on_cells(grid, nb.increments)
        base, _, _, _ = delayed_parts_for_cells(cells, seg, nb, half)
        # the value sum_l gamma_l (B_H(t_l+1) - B_H(t_l)) is sum_j a_j B_H(t_j), a_j = gamma_j-1 - gamma_j
        # with gamma_-1 = gamma_N = 0: one inner product per h, taken without forming the path
        weights = np.diff(-cells[..., :end - m0], prepend=0.0, append=0.0)
        values = past_dot(nb.increments, grid, kernel, end, (m0, end + 1), weights)
        return (*np.abs(values - base), _stream_crcs(nb))

    *gaps, crcs = _replicate(seed, grid, reps, per_chunk)
    results = [_mc(g, seed, 0.0) for g in gaps]
    x_ref = _reference_x_norm(gamma, grid, seed)
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
                       seed: int, config: DeskConfig = DESK) -> DecayStudy:
    """Level-to-level L1 gaps of the dyadic extension, with log2 slope fits.

    For each consecutive pair (m, m+1) both projections are integrated on the
    level-(m+1) grid (the total is grid-invariant; the split into parts is
    not), so the inter-segment component matches the quantity whose geometric
    decay drives the extension.
    """
    grid = config.grid()
    if isinstance(gamma, str):
        gamma = parse_integrand(gamma, horizon=grid.horizon)
    levels = sorted(int(n) for n in levels)
    if len(levels) < 2 or any(b - a != 1 for a, b in zip(levels[:-1], levels[1:])):
        raise ValueError("levels must be consecutive integers")
    _check_dyadic_level(grid, levels[-1], "--levels")
    if isinstance(gamma, DeterministicIntegrand):
        # projection is vacuous; gaps sit at the quadrature-noise floor
        zeros = (0.0,) * (len(levels) - 1)
        return DecayStudy(levels=tuple(levels[:-1]), gaps=zeros, std_errors=zeros, cross_gaps=zeros,
                          cross_std_errors=zeros, fitted_slope=None, cross_fitted_slope=None, target_slope=None,
                          integrand_spec=gamma.spec_string(), h=hp.h, seed=seed)
    if gamma.nu_exponent is None:
        raise ValueError("the decay study needs an integrand with a known variance exponent")

    pair_levels = levels[:-1]
    end = grid.origin_index + grid.main_steps

    def per_chunk(nb):
        pre = noise_transforms(grid, nb.increments, (hp,), end)
        cells = np.empty((len(levels), nb.replications, grid.main_steps))
        for i, level_cells in enumerate(gamma.dyadic_cells(grid, nb.increments, levels)):
            cells[i] = level_cells
        gaps = []
        for i, m in enumerate(pair_levels):
            # both levels of the pair in one assembly: the history parts are shared
            seg = SegmentGrid.dyadic(grid.horizon, m + 1)
            v, _, _, c = delayed_parts_for_cells(cells[i:i + 2], seg, nb, hp, pre)
            gaps += [np.abs(v[1] - v[0]), np.abs(c[1] - c[0])]
        return tuple(gaps)

    gaps = _replicate(seed, grid, reps, per_chunk)
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
              "fbm:<H> | bm2 | pp:<inner>:<n-segments>")


def parse_integrand(spec: str, horizon: float = 1.0) -> Integrand:
    """Build an integrand from its CLI spec string."""
    parts = spec.split(":")
    try:
        if parts[0] == "det":
            if parts[1] == "const":
                return DeterministicIntegrand.constant(float(parts[2]))
            if parts[1] == "poly":
                return DeterministicIntegrand.polynomial([float(a) for a in parts[2].split(",")])
            raise ValueError
        if spec == "bm":
            return BrownianIntegrand()
        if parts[0] == "fbm":
            return FbmIntegrand(float(parts[1]))
        if parts[0] == "rl":
            return RlFbmIntegrand(float(parts[1]), float(parts[2]) if len(parts) > 2 else 0.0)
        if spec == "bm2":
            return QuadraticBrownianIntegrand()
        if parts[0] == "pp":
            inner = parse_integrand(":".join(parts[1:-1]), horizon)
            n_seg = int(parts[-1])
            return PiecewisePredictableIntegrand(inner, SegmentGrid.uniform(horizon, n_seg))
        raise ValueError
    except (IndexError, ValueError) as exc:
        detail = f" ({exc})" if str(exc) else ""
        raise ValueError(f"unknown integrand spec {spec!r}; {_SPEC_HELP}{detail}") from None


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
    rows = []
    for rep in reports:
        for r in rep.rows():
            rows.append([r["h"], r["span"], r["quantity"], r["estimate"],
                         r["closed_form"], r["se"], r["budget"]])
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
    rows = [[m, g, s, study.fitted_slope, cg, cs, study.cross_fitted_slope]
            for m, g, s, cg, cs in zip(study.levels, study.gaps, study.std_errors,
                                       study.cross_gaps, study.cross_std_errors)]
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
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
