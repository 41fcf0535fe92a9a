"""Monte Carlo experiment drivers and their CSV/JSON interfaces.

Every driver follows the same discipline:

* common random numbers: within a replication, every Hurst value consumes the
  identical driving noise (one Philox stream per replication, checksummed);
* one runner, `_replicate`, draws the replications chunk by chunk and
  concatenates the per-replication results in stream order; they are
  aggregated once, so output is independent of chunking and scheduling;
* every tolerance is 3 standard errors plus a declared budget computed from
  exact expectations of the discrete estimators, never a fitted fudge.
"""

from __future__ import annotations

import json
import math
import zlib
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
    _dot,
    _fit_slope,
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
    generate_noise_batch,
    history_conv,
    make_grid,
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
    """Desk-scale defaults: fine grid 2^12 on [0, 1], warmup length 8."""

    horizon: float = 1.0
    steps: int = 4096
    warmup: float = 8.0
    chunk: int = 256

    def grid(self) -> SimulationGrid:
        return make_grid(self.horizon, self.steps, self.warmup)


DESK = DeskConfig()


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


def _replicate(seed: int, grid: SimulationGrid, reps: int, chunk: int, per_chunk) -> tuple:
    """Run per_chunk over replications 0..reps-1, at most chunk at a time.

    Replication r is noise stream r of seed.  per_chunk maps a NoiseBatch to
    a tuple of arrays with one entry per replication along the first axis;
    the runner returns each array concatenated in stream order, so the
    result does not depend on chunk.
    """
    parts = [per_chunk(generate_noise_batch(seed, grid, min(chunk, reps - lo), first_stream=lo))
             for lo in range(0, reps, chunk)]
    return tuple(np.concatenate(col) for col in zip(*parts))


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
    """MC check of E DR_H(span)^2 and E int_0^span DR_H^2 against the closed forms."""
    if reps < 100:
        raise ValueError("need at least 100 replications")
    grid = make_grid(span, config.steps, config.warmup)
    m0 = grid.origin_index
    eval_idx, quad_w = _energy_quadrature(grid, hp)

    def per_chunk(nb):
        drv = dr_values(nb.increments, grid, hp, m0)  # lattice j = m0+1 .. cell_count = eval_idx
        # a row-wise sum, not a matrix product: BLAS rounding depends on the row count
        return drv[:, -1] ** 2, np.sum(drv ** 2 * quad_w, axis=-1)

    point, energy = _replicate(seed, grid, reps, config.chunk, per_chunk)

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
    n = grid.main_steps

    def per_chunk(nb):
        bh = fbm_values(nb.increments, grid, (hp,))[0]
        return bh[:, n] ** 2, bh[:, n] * bh[:, n // 2]

    var_s, cov_s = _replicate(seed, grid, reps, config.chunk, per_chunk)
    t, s = grid.horizon, grid.horizon / 2
    var_closed = t ** (2 * hp.h)
    cov_closed = 0.5 * (t ** (2 * hp.h) + s ** (2 * hp.h) - (t - s) ** (2 * hp.h))
    var_budget = abs(var_closed - discrete_fbm_cov(grid, hp, t, t))
    cov_budget = abs(cov_closed - discrete_fbm_cov(grid, hp, t, s))
    return (_mc(var_s, seed, var_budget), var_closed), (_mc(cov_s, seed, cov_budget), cov_closed)


# ---------------------------------------------------------------------------
# Riemann-sum refinement and the quadratic identity
# ---------------------------------------------------------------------------

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
            coarse = bh[:, ::n_fine // n]
            riem = np.sum(coarse[:, :-1] * np.diff(coarse, axis=-1), axis=-1)
            defects.append(np.abs(2.0 * riem - final_sq))
        return tuple(defects)

    defects = _replicate(seed, grid, reps, config.chunk, per_chunk)
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
        ito_b = np.sum(b[:, :-1] * np.diff(b, axis=-1), axis=-1)
        # every h reads the same batch, and the h > 1/2 paths one transform of it
        paths = iter(fbm_values(nb.increments, grid, rough) if rough else ())
        gaps = []
        for hp in hps:
            bh = b if hp.is_brownian else next(paths)
            riem = np.sum(bh[:, :-1] * np.diff(bh, axis=-1), axis=-1)
            gaps += [riem - ito_b, 0.5 * bh[:, -1] ** 2 - ito_b]
        return (*gaps, _stream_crcs(nb))

    *gaps, crcs = _replicate(seed, grid, reps, config.chunk, per_chunk)
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
    tol: float

    def decreasing_within_1se(self) -> bool:
        g, s = self.gaps, self.std_errors
        return all(g[i + 1] <= g[i] + math.hypot(s[i], s[i + 1]) for i in range(len(g) - 1))

    @property
    def final_gap(self) -> float:
        return self.gaps[-1]


def _integration_plan(gamma: Integrand, grid: SimulationGrid, level: int):
    """(integrand, segment grid) for one delayed-integral evaluation.

    Deterministic integrands need one segment and piecewise-predictable ones
    bring their own grid; any other integrand is projected on the dyadic
    grid of the given level.
    """
    if isinstance(gamma, DeterministicIntegrand):
        return gamma, SegmentGrid.dyadic(grid.horizon, 0)
    if isinstance(gamma, PiecewisePredictableIntegrand):
        return gamma, gamma.grid
    _check_dyadic_level(grid, level, "--level")
    return dyadic_projection(gamma, level, grid), SegmentGrid.dyadic(grid.horizon, level)


def _check_dyadic_level(grid: SimulationGrid, level: int, flag: str) -> None:
    """Refuse a level whose dyadic segments are not whole runs of MIN_CELLS_PER_SEGMENT or more cells.

    flag names the option that set the level.
    """
    n_seg = 2 ** level
    if grid.main_steps % n_seg or grid.main_steps < MIN_CELLS_PER_SEGMENT * n_seg:
        raise ValueError(
            f"projection level {level} does not split {grid.main_steps} steps into 2^{level} "
            f"segments of at least {MIN_CELLS_PER_SEGMENT} fine cells; lower {flag} or raise --steps")


def _reference_x_norm(gamma: Integrand, grid: SimulationGrid, seed: int, reps: int = 256) -> float:
    closed = closed_form_x_norm(gamma, grid)
    if closed is not None:
        return closed
    return x_norm(gamma, generate_noise_batch(seed + 101, grid, reps))[0]


def continuity_study(gamma: Integrand | str, hursts, reps: int, seed: int,
                     tol: float | None = None, config: DeskConfig = DESK,
                     proj_level: int = 8) -> ContinuityCurve:
    """Pathwise L1 gaps E|I_H(gamma) - I_(1/2)(gamma)| under common noise, per Hurst value.

    tol is the acceptance level for the final gap (default: 5% of the
    integrand's X norm); the curve records it alongside the estimates.
    """
    grid = config.grid()
    if isinstance(gamma, str):
        gamma = parse_integrand(gamma, horizon=grid.horizon)
    if not isinstance(gamma, PiecewisePredictableIntegrand) and not (gamma.nu_exponent or 0.0) > 0.0:
        raise ContinuityNotApplicableError(
            f"integrand {gamma.spec_string()!r} has forecast-variance exponent nu = 0 and is not "
            "piecewise predictable; the Hurst-continuity theorem is not applicable to this "
            "convergence (it is the non-convergent Riemann-sum regime)")
    integrand, seg = _integration_plan(gamma, grid, proj_level)
    hps = [hurst_constant(h) for h in hursts]
    for hp in hps:
        if hp.is_brownian:
            raise ValueError("the baseline h = 1/2 is implicit; pass only h > 1/2 values")
    half = hurst_constant(HALF)
    # refuse a grid the lattice cannot carry before any draw
    end = int(_segment_lattice_indices(grid, seg)[-1])

    def per_chunk(nb):
        cells = integrand.values_on_cells(grid, nb.increments)
        base, _, _, _ = delayed_parts_for_cells(cells, seg, nb, half)
        # every h reads one transform of the noise; its value is sum gamma dB_H, as in the assembly
        _, d_bh = noise_transforms(grid, nb.increments, hps, end)
        cells = cells[..., :end - grid.origin_index]
        gaps = [np.abs(_dot(cells, field) - base) for field in d_bh]
        return (*gaps, _stream_crcs(nb))

    *gaps, crcs = _replicate(seed, grid, reps, config.chunk, per_chunk)
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
        tol=tol if tol is not None else 0.05 * x_ref,
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
        return DecayStudy(levels=tuple(levels[:-1]), gaps=(0.0,) * (len(levels) - 1),
                          std_errors=(0.0,) * (len(levels) - 1),
                          cross_gaps=(0.0,) * (len(levels) - 1),
                          cross_std_errors=(0.0,) * (len(levels) - 1),
                          fitted_slope=None, cross_fitted_slope=None, target_slope=None,
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

    gaps = _replicate(seed, grid, reps, config.chunk, per_chunk)
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
