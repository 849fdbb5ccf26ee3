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

from . import _kernels
from .closest import (
    CaseId,
    CaseLabel,
    ProductPair,
    _classical_product_pair,
    _closest_classical,
    k_eigenvalues_x,
    k_matrix_general,
    x_report_row,
)
from .errors import InvalidStateError, UnphysicalParametersError
from .states import ID2, PAULI, BlochForm, DensityMatrix4, XStateParams
from .tolerances import CASE_BOUNDARY, CLAMP, PSD_FLOOR

REPORT_CSV_HEADER = "case,k1,k2,k3,tg,dg,cg,lg,res,res_l,a3,b3,boundary"

# The %-format of a float in every CSV output: 17 significant digits, which
# round-trip any float64.
CSV_FLOAT = "%.17g"


def csv_float(x: float) -> str:
    """A float as it appears in every CSV output, by :data:`CSV_FLOAT`."""
    return CSV_FLOAT % float(x)


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
    # Names of clamped quantifiers.  Always empty: the kernel's t_g, d_g,
    # c_g and l_g are sums of squares.  The JSON report still lists it.
    clamped: tuple = field(default=())

    def to_csv_row(self) -> str:
        cols = [str(int(self.case.case_id))]
        cols += [csv_float(v) for v in (
            self.case.k1, self.case.k2, self.case.k3,
            self.t_g, self.d_g, self.c_g, self.l_g,
            self.residual_closure, self.residual_with_l,
            self.product_pair.a[2], self.product_pair.b[2])]
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


def geometric_discord_general(b: BlochForm) -> float:
    """Closed-form geometric discord of an arbitrary two-qubit state.

    One quarter of ||x||^2 + ||T||_F^2 minus the largest eigenvalue of
    K = x x^T + T T^T (:func:`xqcorr.closest.k_matrix_general`).  The
    difference can round to a tiny negative number; values down to
    ``-CLAMP`` are returned as 0.
    """
    _, eigs = k_matrix_general(b)
    kmax = float(eigs[0])
    val = 0.25 * (float(b.x @ b.x) + float(np.sum(b.T * b.T)) - kmax)
    return 0.0 if -CLAMP <= val < 0.0 else val


def quantifiers_x(p: XStateParams, *, row=None) -> CorrelationReport:
    """Full correlation report of an X state from the closed forms.

    ``row`` is the state's row of an :func:`xqcorr.closest.x_report_rows`
    batch, for callers that solve many states at once; without it the
    state is solved as a batch of one.  The report is the same either way.
    """
    if row is None:
        row = x_report_row(p)
    vals = row.tolist()
    case = CaseLabel(
        CaseId(int(vals[_kernels.COL_CASE])),
        vals[_kernels.COL_K1], vals[_kernels.COL_K2], vals[_kernels.COL_K3],
    )
    product_pair = ProductPair((0.0, 0.0, vals[_kernels.COL_A3]),
                               (0.0, 0.0, vals[_kernels.COL_B3]))
    return CorrelationReport(
        t_g=vals[_kernels.COL_TG],
        d_g=vals[_kernels.COL_DG],
        c_g=vals[_kernels.COL_CG],
        l_g=vals[_kernels.COL_LG],
        case=case,
        residual_closure=vals[_kernels.COL_RES],
        residual_with_l=vals[_kernels.COL_RESL],
        product_pair=product_pair,
        classical_state=_closest_classical(p, case.case_id),
        classical_product_pair=_classical_product_pair(p, case.case_id,
                                                       product_pair),
        boundary_flag=bool(vals[_kernels.COL_BOUNDARY]),
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
        classical_state=_closest_classical(p, case.case_id),
        classical_product_pair=zero,
        boundary_flag=abs(case.k1 - case.k3) <= CASE_BOUNDARY,
    )


# 3x3 finite-difference stencil in tangent coordinates, and the step
# scales tried by the backtracking line search (1 down to 2^-39).
_STENCIL = np.array([(i, j) for i in (-1.0, 0.0, 1.0)
                     for j in (-1.0, 0.0, 1.0)])
_STEP_SCALES = 0.5 ** np.arange(40)
# Stencil spacing: the Hessian's truncation error (~h^2) and rounding
# error (~1e-16/h^2) both stay near 1e-8, far below the 1e-6 bound.
_FD_STEP = 1e-4


def _on_sphere(n, w):
    d = n + w
    return d / np.linalg.norm(d, axis=-1, keepdims=True)


def _descend_on_sphere(m, n):
    # Saddle-free Newton on the pinched distance over unit vectors n:
    # gradient and Hessian by central differences in a tangent chart at n,
    # step -V |L|^-1 V^T g from the Hessian's eigenpairs (so negative
    # curvature pushes away from a saddle instead of toward it), at most
    # 0.5 long, then the best of its halvings if that lowers the distance.
    # Returns the smallest distance evaluated.
    h = _FD_STEP
    best = math.inf
    for _ in range(100):
        e1 = np.cross(n, np.eye(3)[np.argmin(np.abs(n))])
        e1 /= np.linalg.norm(e1)
        tangent = np.stack([e1, np.cross(n, e1)])
        f = _kernels.pinched_distances(
            m, _on_sphere(n, h * _STENCIL @ tangent)).reshape(3, 3)
        best = min(best, float(f.min()))
        grad = np.array([f[2, 1] - f[0, 1], f[1, 2] - f[1, 0]]) / (2.0 * h)
        h01 = (f[2, 2] - f[2, 0] - f[0, 2] + f[0, 0]) / 4.0
        hess = np.array([[f[2, 1] - 2.0 * f[1, 1] + f[0, 1], h01],
                         [h01, f[1, 2] - 2.0 * f[1, 1] + f[1, 0]]]) / (h * h)
        w, v = np.linalg.eigh(hess)
        step = -v @ ((v.T @ grad) / np.maximum(np.abs(w), 1e-12))
        length = float(np.linalg.norm(step))
        if length > 0.5:
            step *= 0.5 / length
        trial = _on_sphere(n, _STEP_SCALES[:, None] * (step @ tangent))
        vals = _kernels.pinched_distances(m, trial)
        k = int(np.argmin(vals))
        if vals[k] >= f[1, 1]:
            break
        n = trial[k]
        best = min(best, float(vals[k]))
    return best


def discord_measurement_oracle(rho, grid_density: int = 64) -> float:
    """Geometric discord by direct minimization over projective measurements.

    Scans measurement directions on a ``grid_density`` x ``grid_density``
    (theta, phi) grid, computing ||rho - Pi^A(rho)||^2 by explicit matrix
    pinching, then refines the best grid point by a deterministic
    saddle-free Newton descent over unit vectors, with derivatives taken
    by finite differences of the pinched distance.  A saddle of the
    distance can lie within the grid's resolution of the minimum, up to
    ~2e-4 above it; the descent leaves such a saddle along its negative
    curvature.  Returns the smallest distance evaluated.  Validation
    oracle: independent of the K-matrix closed form.
    """
    if grid_density < 64:
        raise ValueError("grid_density must be at least 64")
    if not isinstance(rho, DensityMatrix4):
        rho = DensityMatrix4(rho)
    rho.validate()

    thetas = math.pi * (np.arange(grid_density) + 0.5) / grid_density
    phis = 2.0 * math.pi * np.arange(grid_density) / grid_density
    ct, cp = np.meshgrid(np.cos(thetas), np.cos(phis), indexing="ij")
    st, sp = np.meshgrid(np.sin(thetas), np.sin(phis), indexing="ij")
    grid = np.stack([(st * cp).ravel(), (st * sp).ravel(), ct.ravel()], axis=1)
    best, n = _kernels.measurement_scan(rho.matrix, grid)
    return min(best, _descend_on_sphere(rho.matrix, n))


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
