"""Non-Markovian amplitude damping of two independent qubits.

Each qubit couples to its own lossy cavity; the excited-state survival
probability is

    P_t = exp(-lambda*t) * [cos(d*t/2) + (lambda/d) * sin(d*t/2)]^2,
    d   = sqrt(2*gamma0*lambda - lambda^2),

where ``gamma0`` is the Markovian spontaneous-emission rate and ``lambda``
the spectral width of the coupling.  For lambda >= 2*gamma0 the bracket
continues analytically to hyperbolic functions; the d -> 0 boundary uses a
series branch.  The map preserves the X structure, so trajectories stay in
the closed-form regime of the correlation quantifiers and can wander
between the two spectral cases k1 <= k3 and k1 > k3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .quantifiers import CorrelationReport, quantifiers_x
from .states import XStateParams

TRAJECTORY_CSV_HEADER = (
    "t,rho11,rho22,rho33,rho44,rho14,rho23,k1,k3,tg,dg,cg,lg,case"
)


@dataclass(frozen=True)
class DynamicsConfig:
    """Evolution parameters; times are dimensionless (units of 1/gamma0)."""

    gamma0: float
    lam: float
    t_max: float
    steps: int
    initial: XStateParams

    def __post_init__(self):
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
    if arr.ndim == 0:
        return float(_kernels.pt_scalar(float(arr), gamma0, lam))
    return _kernels.pt_values(np.ascontiguousarray(arr.ravel()), gamma0,
                              lam).reshape(arr.shape)


def _propagate(initial: XStateParams, p: np.ndarray) -> np.ndarray:
    """Apply the damping map at survival probabilities ``p`` -> (n, 8)."""
    r11, r22, r33 = initial.rho11, initial.rho22, initial.rho33
    out = np.empty((p.size, 8))
    feed = r11 * p * (1.0 - p)
    out[:, 0] = r11 * p * p
    out[:, 1] = r22 * p + feed
    out[:, 2] = r33 * p + feed
    out[:, 3] = 1.0 - (out[:, 0] + out[:, 1] + out[:, 2])
    out[:, 4] = initial.rho14 * p
    out[:, 5] = initial.rho23 * p
    out[:, 6] = initial.gamma14
    out[:, 7] = initial.gamma23
    return out


def evolve(cfg: DynamicsConfig):
    """Trajectory on a uniform grid of ``cfg.steps`` times in [0, t_max].

    Every point carries the evolved state (validated), the two competing
    K eigenvalues and the full correlation report.
    """
    taus = np.linspace(0.0, cfg.t_max, cfg.steps)
    p = p_t(taus / cfg.gamma0, cfg.gamma0, cfg.lam)
    params = _propagate(cfg.initial, p)
    points = []
    for tau, row in zip(taus, params):
        state = XStateParams(*row)
        report = quantifiers_x(state)
        points.append(TrajectoryPoint(
            t=float(tau), state=state,
            k1=report.case.k1, k3=report.case.k3, report=report,
        ))
    return points


def case_crossings(cfg: DynamicsConfig, refine_tol: float = 1e-6):
    """Times (units 1/gamma0) where k1 - k3 changes sign, bisected to tol."""

    def gap(tau):
        params = _propagate(cfg.initial, p_t(np.array([tau / cfg.gamma0]),
                                             cfg.gamma0, cfg.lam))
        k1, _, k3, _ = _kernels.k_eigenvalues(params)
        return k1[0] - k3[0]

    taus = np.linspace(0.0, cfg.t_max, cfg.steps)
    gaps = np.array([gap(t) for t in taus])
    crossings = []
    for i in range(taus.size - 1):
        g0, g1 = gaps[i], gaps[i + 1]
        if g0 == 0.0:
            crossings.append(float(taus[i]))
            continue
        if g0 * g1 < 0.0:
            lo, hi = taus[i], taus[i + 1]
            glo = g0
            while hi - lo > refine_tol:
                mid = 0.5 * (lo + hi)
                gm = gap(mid)
                if gm == 0.0:
                    lo = hi = mid
                    break
                if glo * gm < 0.0:
                    hi = mid
                else:
                    lo, glo = mid, gm
            crossings.append(0.5 * (lo + hi))
    if gaps[-1] == 0.0:
        crossings.append(float(taus[-1]))
    return crossings


def trajectory_csv(points) -> str:
    def fmt(v):
        return format(float(v), ".17g")

    lines = [TRAJECTORY_CSV_HEADER]
    for pt in points:
        s = pt.state
        r = pt.report
        lines.append(",".join([
            fmt(pt.t), fmt(s.rho11), fmt(s.rho22), fmt(s.rho33),
            fmt(s.rho44), fmt(s.rho14), fmt(s.rho23),
            fmt(pt.k1), fmt(pt.k3),
            fmt(r.t_g), fmt(r.d_g), fmt(r.c_g), fmt(r.l_g),
            str(int(r.case.case_id)),
        ]))
    return "\n".join(lines) + "\n"


def write_trajectory_csv(points, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(trajectory_csv(points))
