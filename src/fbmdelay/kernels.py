"""Power-law kernels of the moving-average representation of fBm.

The driving objects are the normalizing constant

    c_H = sqrt( 2H * Gamma(3/2 - H) / (Gamma(1/2 + H) * Gamma(2 - 2H)) ),

the increment kernel

    f(t, r) = (t - r)^(H-1/2) - (s - r)^(H-1/2)      (r <= s < t),

and the transform

    G_H(tau, s, T, g) = c_H (H - 1/2) * int_tau^T (t - tau)^(H-3/2) g(t) dt,

which reduces to the identity map g -> g(tau) at H = 1/2.  Everything here
is deterministic; all power kernels are integrated analytically cell by
cell (product integration) so the integrable singularity at t = tau never
meets a pointwise quadrature rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma

__all__ = [
    "HurstParameter",
    "hurst_constant",
    "mvn_kernel",
    "gh_transform",
    "power_diff",
    "truncation_tail_bound",
]

HALF = 0.5


@dataclass(frozen=True)
class HurstParameter:
    """Validated Hurst index with its derived constants.

    h lies in [1/2, 1); c_h is the moving-average normalizing constant
    (exactly 1 at h = 1/2).
    """

    h: float
    c_h: float

    def __post_init__(self):
        if not (HALF <= self.h < 1.0):
            raise ValueError(f"Hurst index must lie in [1/2, 1), got {self.h}")
        if not self.c_h > 0.0:
            raise ValueError("c_h must be positive")

    @property
    def is_brownian(self) -> bool:
        return self.h == HALF


def hurst_constant(h: float) -> HurstParameter:
    """Build a HurstParameter, computing c_h from the gamma-function formula.

    Rejects h outside [1/2, 1).  At h = 1/2 every gamma argument is 1 and
    c_h = 1 exactly (enforced, not left to round-off).
    """
    h = float(h)
    if not (HALF <= h < 1.0):
        raise ValueError(f"Hurst index must lie in [1/2, 1), got {h}")
    if h == HALF:
        return HurstParameter(h=h, c_h=1.0)
    c = float(np.sqrt(2.0 * h * _gamma(1.5 - h) / (_gamma(0.5 + h) * _gamma(2.0 - 2.0 * h))))
    return HurstParameter(h=h, c_h=c)


def power_diff(y, r, p):
    """(y (1 + r))^p - y^p for y > 0, r > -1: the one difference of powers of every kernel weight.

    Taken as y^p expm1(p log1p(r)), which keeps its relative precision as p -> 0 or r -> 0.
    """
    return y ** p * np.expm1(p * np.log1p(r))


def mvn_kernel(t: float, s: float, r: float, hp: HurstParameter) -> float:
    """Moving-average kernel of the fBm increment over [s, t], evaluated at r.

    (t-r)^(h-1/2) for r in (s, t]; f(t, r) = (t-r)^(h-1/2) - (s-r)^(h-1/2)
    for r <= s.  Undefined at r >= t.
    """
    if r >= t:
        raise ValueError(f"kernel undefined at r >= t (r={r}, t={t})")
    if s > t:
        raise ValueError(f"need s <= t (s={s}, t={t})")
    p = hp.h - HALF
    if r < s:
        return float(power_diff(s - r, (t - s) / (s - r), p))
    return float((t - r) ** p) if r > s or p else 0.0  # at r = s: (t - s)^p - 0^p, and 0 at h = 1/2


def _cell_edges(s: float, t_end: float, n_cells: int) -> np.ndarray:
    return s + (t_end - s) * np.arange(n_cells + 1) / n_cells


def gh_transform(tau: float, s: float, t_end: float, g: np.ndarray, hp: HurstParameter) -> float:
    """Riemann-Liouville-type transform of a piecewise-constant g on [s, t_end].

    g holds cell values on a uniform grid of [s, t_end].  The power kernel
    (t - tau)^(h-3/2) is integrated analytically against each cell, so the
    value for g == 1 telescopes to c_h (t_end - tau)^(h-1/2) exactly.  At
    h = 1/2 the transform is the identity and the cell value at tau is
    returned.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("g must be a non-empty 1-d array of cell values")
    if not (s <= tau <= t_end):
        raise ValueError(f"tau={tau} outside [{s}, {t_end}]")
    n = g.size
    if hp.is_brownian:
        # identity map: value of the cell containing tau (last cell at tau = t_end)
        idx = min(int((tau - s) / (t_end - s) * n), n - 1)
        return float(g[idx])
    edges = _cell_edges(s, t_end, n)
    j = int(np.count_nonzero(edges[1:] <= tau))  # the cell that holds tau; n at tau = t_end
    lo = edges[j + 1:-1] - tau  # the later cells' distances from tau
    p = hp.h - HALF
    # int_a^b (t-tau)^(h-3/2) dt = [ (b-tau)^(h-1/2) - (a-tau)^(h-1/2) ] / (h-1/2), where a = tau in tau's cell
    pieces = np.concatenate([(edges[j + 1:j + 2] - tau) ** p, power_diff(lo, np.diff(edges[j + 1:]) / lo, p)])
    return float(hp.c_h * np.dot(g[j:], pieces))


def truncation_tail_bound(hp: HurstParameter, span: float, horizon: float) -> float:
    """Upper bound on the variance lost by truncating the history at -horizon.

    Uses f(t, r) <= span * (h - 1/2) * (-r)^(h-3/2) for the increment kernel
    (origin at s = 0, t - s <= span), which integrates to
    c_h^2 span^2 (h-1/2)^2 horizon^(2h-2) / (2 - 2h).
    """
    if hp.is_brownian:
        return 0.0
    h = hp.h
    return hp.c_h ** 2 * span ** 2 * (h - HALF) ** 2 * horizon ** (2 * h - 2) / (2 - 2 * h)
