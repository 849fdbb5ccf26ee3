"""Geometric correlation quantifiers in the squared Hilbert-Schmidt norm.

For a two-qubit X state the four quantifiers have closed forms:

* total correlations  t_g = ||rho - pi_rho||^2,
* quantum discord     d_g = ||rho - chi_rho||^2,
* classical part      c_g = ||chi_rho - pi_chi||^2,
* closure defect      l_g = ||pi_rho - pi_chi||^2,

where pi_* are closest product states and chi_rho the closest classical
state.  Case 1 (k1 <= k3) satisfies t_g = d_g + c_g with l_g = 0; case 2
does not close: t_g - d_g - c_g <= 0 with equality iff x3 + y3*T33 = 0,
and t_g + l_g - d_g - c_g = a3^2 (T33 - a3 b3)^2 / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from . import _kernels
from .closest import (
    CaseId,
    CaseLabel,
    ProductPair,
    closest_classical_x,
    closest_product_of_classical_x,
    k_eigenvalues_x,
    x_report_row,
)
from .errors import InvalidStateError, UnphysicalParametersError
from .states import ID2, PAULI, BlochForm, DensityMatrix4, XStateParams
from .tolerances import CASE_BOUNDARY, CLAMP, PSD_FLOOR

REPORT_CSV_HEADER = "case,k1,k2,k3,tg,dg,cg,lg,res,res_l,a3,b3,boundary"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class CorrelationReport:
    """All quantifiers of one state plus the closest states realizing them."""

    t_g: float
    d_g: float
    c_g: float
    l_g: float
    case: CaseLabel
    residual_closure: float
    residual_with_l: float
    product_pair: ProductPair
    classical_state: XStateParams
    classical_product_pair: ProductPair
    boundary_flag: bool
    clamped: tuple = field(default=())

    def to_csv_row(self) -> str:
        cols = [str(int(self.case.case_id))]
        cols += [_fmt(v) for v in (self.case.k1, self.case.k2, self.case.k3,
                                   self.t_g, self.d_g, self.c_g, self.l_g,
                                   self.residual_closure, self.residual_with_l,
                                   self.product_pair.a[2],
                                   self.product_pair.b[2])]
        cols.append("1" if self.boundary_flag else "0")
        return ",".join(cols)

    def to_json_dict(self) -> dict:
        return {
            "case": int(self.case.case_id),
            "boundary": self.boundary_flag,
            "k": {"k1": self.case.k1, "k2": self.case.k2, "k3": self.case.k3},
            "quantifiers": {"tg": self.t_g, "dg": self.d_g,
                            "cg": self.c_g, "lg": self.l_g},
            "residuals": {"closure": self.residual_closure,
                          "with_l": self.residual_with_l},
            "closest_product": {"a": self.product_pair.a.tolist(),
                                "b": self.product_pair.b.tolist()},
            "closest_classical": {
                "rho11": self.classical_state.rho11,
                "rho22": self.classical_state.rho22,
                "rho33": self.classical_state.rho33,
                "rho44": self.classical_state.rho44,
                "rho14": self.classical_state.rho14,
                "rho23": self.classical_state.rho23,
                "gamma14": self.classical_state.gamma14,
                "gamma23": self.classical_state.gamma23,
            },
            "classical_closest_product": {
                "a": self.classical_product_pair.a.tolist(),
                "b": self.classical_product_pair.b.tolist(),
            },
            "clamped": list(self.clamped),
        }


def _clamp(value: float, name: str, clamped: list) -> float:
    if -CLAMP <= value < 0.0:
        clamped.append(name)
        return 0.0
    return value


def geometric_discord_general(b: BlochForm) -> float:
    """Closed-form geometric discord of an arbitrary two-qubit state.

    One quarter of ||x||^2 + ||T||_F^2 minus the largest eigenvalue of
    K = x x^T + T T^T; tiny negative floating-point results are clamped.
    """
    K = np.outer(b.x, b.x) + b.T @ b.T.T
    kmax = float(np.linalg.eigvalsh(K)[-1])
    val = 0.25 * (float(b.x @ b.x) + float(np.sum(b.T * b.T)) - kmax)
    return _clamp(val, "dg", [])


def quantifiers_x(p: XStateParams) -> CorrelationReport:
    """Full correlation report of an X state from the closed forms."""
    row = x_report_row(p)
    case = CaseLabel(
        CaseId(int(row[_kernels.COL_CASE])),
        float(row[_kernels.COL_K1]),
        float(row[_kernels.COL_K2]),
        float(row[_kernels.COL_K3]),
    )
    a3 = float(row[_kernels.COL_A3])
    b3 = float(row[_kernels.COL_B3])
    product_pair = ProductPair((0.0, 0.0, a3), (0.0, 0.0, b3))
    # In case 1 the closest classical state shares the diagonal, and with it
    # the closest product state: reuse the pair instead of solving again.
    classical_product_pair = (product_pair if case.case_id is CaseId.CASE1
                              else closest_product_of_classical_x(p))
    clamped: list = []
    return CorrelationReport(
        t_g=_clamp(float(row[_kernels.COL_TG]), "tg", clamped),
        d_g=_clamp(float(row[_kernels.COL_DG]), "dg", clamped),
        c_g=_clamp(float(row[_kernels.COL_CG]), "cg", clamped),
        l_g=_clamp(float(row[_kernels.COL_LG]), "lg", clamped),
        case=case,
        residual_closure=float(row[_kernels.COL_RES]),
        residual_with_l=float(row[_kernels.COL_RESL]),
        product_pair=product_pair,
        classical_state=closest_classical_x(p),
        classical_product_pair=classical_product_pair,
        boundary_flag=bool(row[_kernels.COL_BOUNDARY]),
        clamped=tuple(clamped),
    )


def bell_diagonal_quantifiers(t11: float, t22: float,
                              t33: float) -> CorrelationReport:
    """Quantifiers of a Bell-diagonal state from its tensor diagonal.

    t_g = (T11^2+T22^2+T33^2)/4, c_g = T^2/4 and d_g their difference,
    where T = max |Tii|; the closure defect vanishes and additivity is
    exact.  Raises :class:`UnphysicalParametersError` when the triple does
    not describe a positive state.
    """
    diag = np.array([t11, t22, t33], dtype=np.float64)
    if not np.all(np.isfinite(diag)):
        raise UnphysicalParametersError("non-finite tensor diagonal")
    # Eigenvalues of the composed matrix in the Bell basis.
    eigs = np.array([
        1.0 - t11 - t22 - t33,
        1.0 - t11 + t22 + t33,
        1.0 + t11 - t22 + t33,
        1.0 + t11 + t22 - t33,
    ]) / 4.0
    if eigs.min() < -PSD_FLOOR:
        raise UnphysicalParametersError(
            "tensor diagonal (%g, %g, %g) gives eigenvalue %.3e"
            % (t11, t22, t33, eigs.min())
        )
    sq = diag * diag
    tmax_sq = float(sq.max())
    total = float(sq.sum())

    r14 = abs(t11 - t22) / 4.0
    r23 = abs(t11 + t22) / 4.0
    g14 = 0.0 if t11 - t22 >= 0.0 else math.pi
    g23 = 0.0 if t11 + t22 >= 0.0 else math.pi
    hi = (1.0 + t33) / 4.0
    lo = (1.0 - t33) / 4.0
    try:
        p = XStateParams(hi, lo, lo, hi, r14, r23, g14, g23)
    except InvalidStateError as exc:
        raise UnphysicalParametersError(
            "tensor diagonal (%g, %g, %g) is marginally unphysical: %s"
            % (t11, t22, t33, exc)
        ) from exc
    case = k_eigenvalues_x(p)

    t_g = total / 4.0
    c_g = tmax_sq / 4.0
    d_g = (total - tmax_sq) / 4.0
    zero = ProductPair((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    return CorrelationReport(
        t_g=t_g, d_g=d_g, c_g=c_g, l_g=0.0,
        case=case,
        residual_closure=t_g - d_g - c_g,
        residual_with_l=t_g - d_g - c_g,
        product_pair=zero,
        classical_state=closest_classical_x(p),
        classical_product_pair=zero,
        boundary_flag=abs(case.k1 - case.k3) <= CASE_BOUNDARY,
        clamped=(),
    )


def discord_measurement_oracle(rho, grid_density: int = 64) -> float:
    """Geometric discord by direct minimization over projective measurements.

    Scans measurement directions on a ``grid_density`` x ``grid_density``
    (theta, phi) grid, computing ||rho - Pi^A(rho)||^2 by explicit matrix
    pinching, then refines the best grid point with a local simplex search.
    Validation oracle: independent of the K-matrix closed form.
    """
    if grid_density < 64:
        raise ValueError("grid_density must be at least 64")
    if not isinstance(rho, DensityMatrix4):
        rho = DensityMatrix4(rho)
    rho.validate()
    m = np.ascontiguousarray(rho.matrix)

    thetas = math.pi * (np.arange(grid_density) + 0.5) / grid_density
    phis = 2.0 * math.pi * np.arange(grid_density) / grid_density
    best, it, ip = _kernels.measurement_scan(
        m, np.cos(thetas), np.sin(thetas), np.cos(phis), np.sin(phis)
    )

    def objective(angles):
        th, ph = angles
        val, _, _ = _kernels.measurement_scan(
            m,
            np.array([math.cos(th)]), np.array([math.sin(th)]),
            np.array([math.cos(ph)]), np.array([math.sin(ph)]),
        )
        return val

    res = scipy.optimize.minimize(
        objective, np.array([thetas[it], phis[ip]]), method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-14, "maxfev": 600},
    )
    return float(min(best, res.fun))


def pinched_state(rho, theta: float, phi: float) -> DensityMatrix4:
    """State after a forgotten projective measurement on qubit A."""
    if not isinstance(rho, DensityMatrix4):
        rho = DensityMatrix4(rho)
    n = np.array([math.sin(theta) * math.cos(phi),
                  math.sin(theta) * math.sin(phi),
                  math.cos(theta)])
    proj = 0.5 * (ID2 + sum(n[i] * PAULI[i] for i in range(3)))
    k_plus = np.kron(proj, ID2)
    k_minus = np.kron(ID2 - proj, ID2)
    m = k_plus @ rho.matrix @ k_plus + k_minus @ rho.matrix @ k_minus
    return DensityMatrix4(m)
