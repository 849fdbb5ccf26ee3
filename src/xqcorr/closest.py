"""Closest product and closest classical states of two-qubit X states.

The closest product state of an X state is diagonal along sigma_3 on both
sides; its (a3, b3) parameters solve a coupled fixed-point system that
reduces to a monic quintic, solved globally in :mod:`xqcorr._kernels`.
The closest classical state comes in two closed forms selected by the
spectrum of K = x x^T + T T^T.  A derivative-free 6-parameter minimizer
over arbitrary product states doubles as an independent numerical oracle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from . import _kernels
from .errors import (
    ConvergenceFailureError,
    InvalidStateError,
    SolverFailureError,
)
from .states import (
    BlochForm,
    DensityMatrix4,
    ID2,
    PAULI,
    XStateParams,
    bloch_decompose,
)
from .tolerances import BLOCH_BOUND, ORACLE_RESIDUAL


class CaseId(enum.IntEnum):
    """Spectral regime of K: CASE1 when k1 <= k3, CASE2 when k1 > k3."""

    CASE1 = 1
    CASE2 = 2


@dataclass(frozen=True)
class CaseLabel:
    case_id: CaseId
    k1: float
    k2: float
    k3: float

    def __post_init__(self):
        if self.k1 < self.k2:
            raise InvalidStateError("k1 < k2 cannot occur for an X state")
        expected = CaseId.CASE1 if self.k1 <= self.k3 else CaseId.CASE2
        if self.case_id != expected:
            raise InvalidStateError(
                "case label inconsistent with eigenvalues (k1=%g, k3=%g)"
                % (self.k1, self.k3)
            )


@dataclass(frozen=True)
class ProductPair:
    """Bloch vectors (a, b) of a product state rho_A (x) rho_B."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name in ("a", "b"):
            arr = np.array(getattr(self, name), dtype=np.float64).reshape(3)
            if not np.all(np.isfinite(arr)):
                raise InvalidStateError("non-finite Bloch vector")
            if np.linalg.norm(arr) > 1.0 + BLOCH_BOUND:
                raise InvalidStateError(
                    "Bloch vector %s has norm %.12f > 1" % (name, np.linalg.norm(arr))
                )
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def to_matrix(self) -> DensityMatrix4:
        rho_a = 0.5 * (ID2 + sum(self.a[i] * PAULI[i] for i in range(3)))
        rho_b = 0.5 * (ID2 + sum(self.b[i] * PAULI[i] for i in range(3)))
        return DensityMatrix4(np.kron(rho_a, rho_b))


def k_eigenvalues_x(p: XStateParams) -> CaseLabel:
    """Closed-form eigenvalues of K for an X state, with case assignment.

    One-row view of :func:`xqcorr._kernels.k_eigenvalues`; the boundary
    k1 == k3 belongs to case 1.
    """
    k1, k2, k3, case = _kernels.k_eigenvalues(p.as_array()[None, :])
    return CaseLabel(CaseId(int(case[0])), float(k1[0]), float(k2[0]),
                     float(k3[0]))


def k_matrix_general(b: BlochForm):
    """K = x x^T + T T^T and its eigenvalues sorted descending."""
    K = np.outer(b.x, b.x) + b.T @ b.T.T
    eigs = np.linalg.eigvalsh(K)[::-1]
    return K, eigs


def product_distance(b: BlochForm, pair: ProductPair) -> float:
    """Squared HS distance between a state and a product state, in Bloch form."""
    return 0.25 * (
        float(np.sum((b.x - pair.a) ** 2))
        + float(np.sum((b.y - pair.b) ** 2))
        + float(np.sum((b.T - np.outer(pair.a, pair.b)) ** 2))
    )


def stationarity_residual(b: BlochForm, pair: ProductPair) -> float:
    """Max-norm residual of the product-state fixed-point system."""
    a, bb = pair.a, pair.b
    ra = a - (b.x + b.T @ bb) / (1.0 + float(bb @ bb))
    rb = bb - (b.y + b.T.T @ a) / (1.0 + float(a @ a))
    return float(max(np.max(np.abs(ra)), np.max(np.abs(rb))))


def x_report_row(p: XStateParams) -> np.ndarray:
    """One-row :func:`xqcorr._kernels.batch_reports` of an X state.

    Raises :class:`SolverFailureError` when the closest-product solve
    failed on the row.
    """
    row = _kernels.batch_reports(p.as_array()[None, :])[0]
    if row[_kernels.COL_CASE] == 0.0:
        raise SolverFailureError(
            "closest-product solver failed for %r" % (p,)
        )
    return row


def closest_product_x(p: XStateParams) -> ProductPair:
    """Product state closest to an X state in squared HS distance.

    Both Bloch vectors point along the z axis; (a3, b3) is the global
    minimizer among all real solutions of the stationarity system.
    """
    row = x_report_row(p)
    return ProductPair((0.0, 0.0, row[_kernels.COL_A3]),
                       (0.0, 0.0, row[_kernels.COL_B3]))


def closest_classical_x(p: XStateParams) -> XStateParams:
    """Closest classical (zero-discord) state; an X state in both cases."""
    label = k_eigenvalues_x(p)
    if label.case_id is CaseId.CASE1:
        return XStateParams(p.rho11, p.rho22, p.rho33, p.rho44,
                            0.0, 0.0, 0.0, 0.0)
    y3 = p.rho11 - p.rho22 + p.rho33 - p.rho44
    coh = 0.5 * (p.rho14 + p.rho23)
    hi = 0.25 * (1.0 + y3)
    lo = 0.25 * (1.0 - y3)
    return XStateParams(hi, lo, hi, lo, coh, coh, p.gamma14, p.gamma23)


def closest_product_of_classical_x(p: XStateParams) -> ProductPair:
    """Product state closest to the closest classical state.

    Case 1 reuses the pair of the original state (the classical state shares
    its diagonal, and only x3, y3, T33 enter the solver); case 2 has the
    closed form a = 0, b = (0, 0, y3).
    """
    label = k_eigenvalues_x(p)
    if label.case_id is CaseId.CASE1:
        return closest_product_x(p)
    y3 = p.rho11 - p.rho22 + p.rho33 - p.rho44
    return ProductPair((0.0, 0.0, 0.0), (0.0, 0.0, y3))


# ---------------------------------------------------------------------------
# 6-parameter numerical oracle
# ---------------------------------------------------------------------------


def _objective(x, y, T):
    x1, x2, x3 = x
    y1, y2, y3 = y
    t11, t12, t13 = T[0]
    t21, t22, t23 = T[1]
    t31, t32, t33 = T[2]

    def f(v):
        a1, a2, a3, b1, b2, b3 = v
        s = (x1 - a1) ** 2 + (x2 - a2) ** 2 + (x3 - a3) ** 2
        s += (y1 - b1) ** 2 + (y2 - b2) ** 2 + (y3 - b3) ** 2
        s += (t11 - a1 * b1) ** 2 + (t12 - a1 * b2) ** 2 + (t13 - a1 * b3) ** 2
        s += (t21 - a2 * b1) ** 2 + (t22 - a2 * b2) ** 2 + (t23 - a2 * b3) ** 2
        s += (t31 - a3 * b1) ** 2 + (t32 - a3 * b2) ** 2 + (t33 - a3 * b3) ** 2
        return 0.25 * s

    return f


def _fixed_point_residual(x, y, T, a, b):
    ra = a - (x + T @ b) / (1.0 + float(b @ b))
    rb = b - (y + T.T @ a) / (1.0 + float(a @ a))
    return float(max(np.max(np.abs(ra)), np.max(np.abs(rb))))


def _newton_polish(x, y, T, a, b, iters=60):
    # Solves the 6-variable stationarity system; quadratic near a
    # nondegenerate minimum, reverts to the caller's point on failure.
    a = a.copy()
    b = b.copy()
    eye3 = np.eye(3)
    for _ in range(iters):
        ga = 0.5 * (a * (1.0 + b @ b) - x - T @ b)
        gb = 0.5 * (b * (1.0 + a @ a) - y - T.T @ a)
        g = np.concatenate([ga, gb])
        if np.max(np.abs(g)) < 1e-15:
            break
        H = np.empty((6, 6))
        H[:3, :3] = 0.5 * (1.0 + b @ b) * eye3
        H[3:, 3:] = 0.5 * (1.0 + a @ a) * eye3
        H[:3, 3:] = 0.5 * (2.0 * np.outer(a, b) - T)
        H[3:, :3] = H[:3, 3:].T
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)) or np.max(np.abs(step)) > 1.0:
            return None
        a -= step[:3]
        b -= step[3:]
    return a, b


def _alternating_polish(x, y, T, a, b, iters=5000):
    # Exact block-coordinate minimization; monotone in the objective.
    for _ in range(iters):
        a_new = (x + T @ b) / (1.0 + float(b @ b))
        b_new = (y + T.T @ a_new) / (1.0 + float(a_new @ a_new))
        delta = max(np.max(np.abs(a_new - a)), np.max(np.abs(b_new - b)))
        a, b = a_new, b_new
        if delta < 1e-16:
            break
    return a, b


def closest_product_general(rho, seed: int = 0,
                            n_starts: int = 32) -> ProductPair:
    """Numerically minimize the product-state distance over all (a, b).

    Multi-start Nelder-Mead seeded with the marginals' Bloch vectors plus
    ``n_starts`` pseudorandom points in [-1, 1]^6, followed by fixed-point
    refinement of the stationarity system.  Raises
    :class:`ConvergenceFailureError` (with the best pair attached) when the
    fixed-point residual stays above ``ORACLE_RESIDUAL``.
    """
    b = bloch_decompose(rho)
    x, y, T = b.x.copy(), b.y.copy(), b.T.copy()
    fun = _objective(x, y, T)

    rng = np.random.default_rng(seed)
    starts = [np.concatenate([x, y])]
    starts.extend(rng.uniform(-1.0, 1.0, size=(n_starts, 6)))

    best_v = None
    best_f = math.inf
    for s in starts:
        # Coarse simplex descent per start settles the basin; the
        # fixed-point polish below supplies the final accuracy.
        res = scipy.optimize.minimize(
            fun, s, method="Nelder-Mead",
            options={"xatol": 1e-5, "fatol": 1e-10,
                     "maxiter": 600, "maxfev": 600},
        )
        a_cand, b_cand = res.x[:3], res.x[3:]
        polished = _newton_polish(x, y, T, a_cand, b_cand)
        if polished is None or fun(np.concatenate(polished)) > res.fun + 1e-12:
            polished = _alternating_polish(x, y, T, a_cand, b_cand)
        f = fun(np.concatenate(polished))
        if f < best_f:
            best_f = f
            best_v = polished

    a_best, b_best = best_v
    residual = _fixed_point_residual(x, y, T, a_best, b_best)
    np.clip(a_best, -1.0, 1.0, out=a_best)
    np.clip(b_best, -1.0, 1.0, out=b_best)
    pair = ProductPair(a_best, b_best)
    if residual > ORACLE_RESIDUAL:
        raise ConvergenceFailureError(
            "fixed-point residual %.3e exceeds %.1e" % (residual, ORACLE_RESIDUAL),
            best=pair,
        )
    return pair
