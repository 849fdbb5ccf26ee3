"""Non-Markovian amplitude damping of two independent qubits.

Each qubit couples to its own lossy cavity; the excited-state survival
probability is

    P_t = exp(-lambda*t) * [cos(d*t/2) + (lambda/d) * sin(d*t/2)]^2,
    d   = sqrt(2*gamma0*lambda - lambda^2),

where ``gamma0`` is the Markovian spontaneous-emission rate and ``lambda``
the spectral width of the coupling; P_t depends on tau = gamma0*t and
lambda/gamma0 alone.  The map preserves the X structure, so trajectories
stay in the closed-form regime of the quantifiers and can wander between
the two spectral cases k1 <= k3 and k1 > k3.

:func:`trajectory` computes a whole trajectory as three arrays: the time
grid, the (n, 8) evolved parameters, validated once as an array by
:func:`xqcorr.states.check_x_rows`, and their (n, 13) report array from one
:func:`xqcorr.closest.x_report_rows` solve; :func:`evolve` is its per-point
view.  ``xqcorr evolve`` (:func:`write_trajectory_csv`) checks, solves and
writes one ``row_chunks`` slice of the time grid at a time instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .closest import x_report_rows
from .quantifiers import (CorrelationReport, csv_text, quantifiers_x,
                          write_text)
from .states import XStateParams, check_x_rows

TRAJECTORY_CSV_HEADER = (
    "t,rho11,rho22,rho33,rho44,rho14,rho23,k1,k3,tg,dg,cg,lg,case"
)
# A CSV row's report columns, after t and rho11 .. rho23 and before the case.
_REPORT_COLUMNS = [_kernels.COL_K1, _kernels.COL_K3, _kernels.COL_TG,
                   _kernels.COL_DG, _kernels.COL_CG, _kernels.COL_LG]
# Width (units 1/gamma0) to which case_crossings bisects each crossing.
CROSSING_TOL = 1e-6


@dataclass(frozen=True)
class DynamicsConfig:
    """Evolution parameters; times are tau = gamma0*t (units of 1/gamma0)."""

    gamma0: float
    lam: float
    t_max: float
    steps: int
    initial: XStateParams

    def __post_init__(self):
        for name in ("gamma0", "lam", "t_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite" % name)
        if not self.gamma0 > 0.0:
            raise ValueError("gamma0 must be positive")
        if not self.lam > 0.0:
            raise ValueError("lam must be positive")
        if self.t_max < 0.0:
            raise ValueError("t_max must be nonnegative")
        if self.steps < 2:
            raise ValueError("steps must be at least 2")


@dataclass(frozen=True)
class TrajectoryPoint:
    t: float
    state: XStateParams
    k1: float
    k3: float
    report: CorrelationReport


def p_t(t, gamma0: float, lam: float):
    """Survival probability P_t; accepts a scalar or an array of times."""
    arr = np.asarray(t, dtype=np.float64)
    p = _kernels.pt_values(arr.ravel(), gamma0, lam).reshape(arr.shape)
    return float(p) if arr.ndim == 0 else p


def _propagate(initial: XStateParams, p: np.ndarray) -> np.ndarray:
    """The damping map at survival probabilities ``p`` -> (n, 8); p = 1
    gives the input's bits, and every p keeps the input's trace."""
    r11, r22, r33 = initial.rho11, initial.rho22, initial.rho33
    out = np.empty((p.size, 8))
    q = 1.0 - p
    feed = r11 * p * q
    out[:, 0] = r11 * p * p
    out[:, 1] = r22 * p + feed
    out[:, 2] = r33 * p + feed
    out[:, 3] = initial.rho44 + (r22 + r33) * q + r11 * q * q
    out[:, 4] = initial.rho14 * p
    out[:, 5] = initial.rho23 * p
    out[:, 6] = initial.gamma14
    out[:, 7] = initial.gamma23
    return out


def _params_at(cfg: DynamicsConfig, taus: np.ndarray) -> np.ndarray:
    """Evolved (n, 8) parameters at taus, P_t taking rates (1, lam/gamma0)."""
    return _propagate(cfg.initial, p_t(taus, 1.0, cfg.lam / cfg.gamma0))


def _time_grid(cfg: DynamicsConfig, rows=slice(None)) -> np.ndarray:
    """Slice ``rows`` of np.linspace(0.0, cfg.t_max, cfg.steps), by its
    operations and so bit for bit, without building the whole grid."""
    lo, hi, _ = rows.indices(cfg.steps)
    taus, div = np.arange(lo, hi, dtype=np.float64), cfg.steps - 1
    step = cfg.t_max / div  # 0 when t_max is 0 or the quotient underflows
    taus = (taus / div * cfg.t_max if step == 0.0 else taus * step) + 0.0
    if hi == cfg.steps:
        taus[-1] = cfg.t_max
    return taus


def trajectory(cfg: DynamicsConfig):
    """Trajectory on a uniform grid of ``cfg.steps`` times in [0, t_max].

    Returns arrays (taus, params, reports): the times, the (n, 8) evolved
    X-state parameters and their (n, 13) report array (columns as in
    :func:`xqcorr._kernels.batch_reports`).  The parameters are validated
    before the solve, so an invalid evolved state raises
    :class:`InvalidStateError` ahead of any solver failure.
    """
    taus = _time_grid(cfg)
    params = _params_at(cfg, taus)
    check_x_rows(params)
    return taus, params, x_report_rows(params)


def evolve(cfg: DynamicsConfig):
    """:func:`trajectory` as a list of :class:`TrajectoryPoint`.

    Every point carries the evolved state, the two competing K eigenvalues
    and the full correlation report.
    """
    taus, params, reports = trajectory(cfg)
    points = []
    for tau, vals, row in zip(taus.tolist(), params.tolist(),
                              reports.tolist()):
        report = quantifiers_x(XStateParams(*vals), row=row)
        points.append(TrajectoryPoint(tau, report.state, row[_kernels.COL_K1],
                                      row[_kernels.COL_K3], report))
    return points


def case_crossings(cfg: DynamicsConfig):
    """Times (units 1/gamma0) where k1 - k3 changes sign, to CROSSING_TOL.

    Returns, sorted, the grid times where k1 - k3 is exactly 0 and the
    midpoint of each grid interval across which it changes sign, after
    bisecting all such intervals together to width CROSSING_TOL or until
    the midpoint rounds to an end.  A bisection point where it is exactly
    0 closes its interval there.
    """

    def gaps_at(taus):
        k1, _, k3, _ = _kernels.k_eigenvalues(_params_at(cfg, taus))
        return k1 - k3

    taus = _time_grid(cfg)
    gaps = gaps_at(taus)
    left = np.flatnonzero(gaps[:-1] * gaps[1:] < 0.0)
    lo, hi, glo = taus[left], taus[left + 1], gaps[left]
    active = np.flatnonzero(hi - lo > CROSSING_TOL)
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        stuck = (mid == lo[active]) | (mid == hi[active])
        gm = gaps_at(mid)
        below = glo[active] * gm < 0.0
        hi[active] = np.where(below | (gm == 0.0), mid, hi[active])
        lo[active] = np.where(below, lo[active], mid)
        glo[active] = np.where(below, glo[active], gm)
        active = active[~stuck & (hi[active] - lo[active] > CROSSING_TOL)]
    return np.sort(np.concatenate(
        [taus[gaps == 0.0], 0.5 * (lo + hi)])).tolist()


def _trajectory_lines(cfg: DynamicsConfig):
    """The trajectory CSV as texts: its header line, then one csv_text per
    row_chunks slice of the time grid, once the slice is checked and solved."""
    yield TRAJECTORY_CSV_HEADER + "\n"
    for rows in _kernels.row_chunks(cfg.steps):
        taus = _time_grid(cfg, rows)
        params = _params_at(cfg, taus)
        check_x_rows(params)
        reports = x_report_rows(params)
        yield csv_text([taus, *params[:, :6].T, *reports[:, _REPORT_COLUMNS].T,
                        reports[:, _kernels.COL_CASE].astype(np.int64)])


def trajectory_csv(cfg: DynamicsConfig) -> str:
    """CSV text of the :func:`trajectory` of ``cfg``, one row per time."""
    return "".join(_trajectory_lines(cfg))


def write_trajectory_csv(cfg: DynamicsConfig, path) -> None:
    """Write :func:`trajectory_csv` to ``path`` one chunk at a time."""
    write_text(path, _trajectory_lines(cfg))
