"""Closest product and closest classical states of two-qubit X states.

The closest product state of an X state is diagonal along sigma_3 on both
sides; its (a3, b3) parameters solve a coupled fixed-point system that
reduces to a monic quintic, solved globally in :mod:`xqcorr._kernels`.
The closest classical state comes in two closed forms selected by the
spectrum of K = x x^T + T T^T.  Multi-start alternating minimization over
all six Bloch components of an arbitrary product state, finished by a
Newton polish, doubles as an independent numerical oracle; it shares no
code with the quintic solver.
"""

from __future__ import annotations

import enum
import math
from dataclasses import astuple, dataclass

import numpy as np

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
    check_x_rows,
)
from .tolerances import BLOCH_BOUND, BLOCK_POSITIVITY, ORACLE_RESIDUAL


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
            vals = arr.tolist()
            if not all(map(math.isfinite, vals)):
                raise InvalidStateError("non-finite Bloch vector")
            norm = math.hypot(*vals)
            if norm > 1.0 + BLOCH_BOUND:
                raise InvalidStateError(
                    "Bloch vector %s has norm %.12f > 1" % (name, norm))
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
    return float(_objective(b.x, b.y, b.T, pair.a, pair.b))


def stationarity_residual(b: BlochForm, pair: ProductPair) -> float:
    """Max-norm residual of the product-state fixed-point system."""
    return _fixed_point_residual(b.x, b.y, b.T, pair.a, pair.b)


def x_report_rows(params: np.ndarray) -> np.ndarray:
    """:func:`xqcorr._kernels.batch_reports` of an (n, 8) X-parameter array.

    Raises :class:`SolverFailureError` when the closest-product solve
    failed on any row.
    """
    rows = _kernels.batch_reports(params)
    failed = np.flatnonzero(rows[:, _kernels.COL_CASE] == 0.0)
    if failed.size:
        raise SolverFailureError(
            "closest-product solver failed on %d of %d states, first %r"
            % (failed.size, rows.shape[0], params[failed[0]].tolist())
        )
    return rows


def x_report_row(p: XStateParams) -> list:
    """One-row :func:`x_report_rows` of an X state, as a list."""
    return x_report_rows(p.as_array()[None, :])[0].tolist()


def closest_product_x(p: XStateParams) -> ProductPair:
    """Product state closest to an X state in squared HS distance.

    Both Bloch vectors point along the z axis; (a3, b3) is the global
    minimizer among all real solutions of the stationarity system.
    """
    row = x_report_row(p)
    return ProductPair((0.0, 0.0, row[_kernels.COL_A3]),
                       (0.0, 0.0, row[_kernels.COL_B3]))


def closest_classical_rows(params: np.ndarray, case) -> np.ndarray:
    """Closest classical states of an (n, 8) X-parameter array, as (n, 8).

    ``case`` holds each row's :class:`CaseId`.  Case 1 keeps the diagonal
    and drops the coherences; case 2 is the state with diagonal
    ((1 + y3)/4, (1 - y3)/4, (1 + y3)/4, (1 - y3)/4), both coherences
    (rho14 + rho23)/2 and the original phases.  Each coherence of a valid
    state may pass its block bound by the ``BLOCK_POSITIVITY`` slack, and
    then their mean can pass the bound sqrt(rho11 rho44) = sqrt(rho22 rho33)
    of the classical state by more than the slack; only such a coherence is
    replaced by the bound.  The rows are not validated.  The arithmetic is
    elementwise, so an array of Python numbers (dtype object) gives the
    bits of float64 and keeps each number's type.
    """
    r11, r22, r33, r44, r14, r23, g14, g23 = params.T
    y3 = _kernels.z_bloch(r11, r22, r33, r44)[1]
    coh = 0.5 * (r14 + r23)
    hi = 0.25 * (1.0 + y3)
    lo = 0.25 * (1.0 - y3)
    past = coh * coh > hi * lo + BLOCK_POSITIVITY
    if past.any():
        bound = np.sqrt(np.maximum(hi * lo, 0.0).astype(np.float64))
        coh = np.where(past, bound.astype(coh.dtype), coh)
    zero = np.full_like(r11, 0.0)
    return np.where((np.asarray(case) == CaseId.CASE1)[:, None],
                    np.stack([r11, r22, r33, r44, zero, zero, zero, zero], 1),
                    np.stack([hi, lo, hi, lo, coh, coh, g14, g23], 1))


def _closest_classical(p: XStateParams, case_id: CaseId) -> XStateParams:
    # One-row view of closest_classical_rows on the state's own numbers
    # (dtype object), so an integer diagonal entry stays an integer.
    row = closest_classical_rows(np.array([astuple(p)], dtype=object),
                                 [case_id])[0]
    return XStateParams(*row.tolist())


def closest_classical_x(p: XStateParams) -> XStateParams:
    """Closest classical (zero-discord) state; an X state in both cases."""
    return _closest_classical(p, k_eigenvalues_x(p).case_id)


def _classical_product_pair(p: XStateParams, case_id: CaseId,
                            product_pair) -> ProductPair:
    if case_id is CaseId.CASE1:
        return product_pair
    y3 = _kernels.z_bloch(p.rho11, p.rho22, p.rho33, p.rho44)[1]
    return ProductPair((0.0, 0.0, 0.0), (0.0, 0.0, y3))


def closest_product_of_classical_x(p: XStateParams) -> ProductPair:
    """Product state closest to the closest classical state.

    Case 1 reuses the pair of the original state (the classical state shares
    its diagonal, and only x3, y3, T33 enter the solver); case 2 has the
    closed form a = 0, b = (0, 0, y3).
    """
    case_id = k_eigenvalues_x(p).case_id
    pair = closest_product_x(p) if case_id is CaseId.CASE1 else None
    return _classical_product_pair(p, case_id, pair)


def check_report_rows(params: np.ndarray, reports: np.ndarray) -> None:
    """Run the checks of each row's closest states, over whole arrays.

    ``reports`` is :func:`x_report_rows` of the (n, 8) array ``params``.
    Each row's closest product (a3, b3), its closest classical state and,
    in case 2, that state's closest product (0, y3) must be what
    :class:`ProductPair` and :class:`XStateParams` accept.  The first row
    that fails has those objects built, in that order, and the first to
    fail raises its :class:`InvalidStateError`.
    """
    case = reports[:, _kernels.COL_CASE]
    y3 = np.where(case == CaseId.CASE2, _kernels.z_bloch(*params[:, :4].T)[1],
                  0.0)
    bound = 1.0 + BLOCH_BOUND
    a3, b3 = reports[:, _kernels.COL_A3], reports[:, _kernels.COL_B3]
    bad = np.flatnonzero(~(np.abs(a3) <= bound) | ~(np.abs(b3) <= bound)
                         | ~(np.abs(y3) <= bound))
    # A row before the first bad pair can fail only its classical state.
    first = bad[0] if bad.size else case.size
    classical = closest_classical_rows(params, case)
    check_x_rows(classical[:first])
    if bad.size:
        ProductPair((0.0, 0.0, a3[first]), (0.0, 0.0, b3[first]))
        XStateParams(*classical[first].tolist())
        ProductPair((0.0, 0.0, 0.0), (0.0, 0.0, y3[first]))


# ---------------------------------------------------------------------------
# 6-parameter numerical oracle
# ---------------------------------------------------------------------------


def _objective(x, y, T, a, b):
    # Product-state distance for Bloch vectors stacked on the last axis.
    dt = T - a[..., :, None] * b[..., None, :]
    return 0.25 * (np.sum((x - a) ** 2, axis=-1)
                   + np.sum((y - b) ** 2, axis=-1)
                   + np.sum(dt * dt, axis=(-2, -1)))


def _fixed_point_residual(x, y, T, a, b):
    ra = a - (x + T @ b) / (1.0 + float(b @ b))
    rb = b - (y + T.T @ a) / (1.0 + float(a @ a))
    return float(max(np.max(np.abs(ra)), np.max(np.abs(rb))))


def _newton_polish(x, y, T, a, b):
    # Solves the 6-variable stationarity system; quadratic near a
    # nondegenerate minimum, reverts to the caller's point on failure.
    a = a.copy()
    b = b.copy()
    eye3 = np.eye(3)
    for _ in range(_NEWTON_STEPS):
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


def _alternating_minimization(x, y, T, a, b):
    # Exact block-coordinate descent on every start of every state at once:
    # x, y are (S, 3), T is (S, 3, 3) and the starts a, b are (S, R, 3).
    # Monotone in the objective.  ``live`` indexes the flattened (S * R)
    # starts still moving and ``live // R`` their states; a start stops
    # once no component moves by more than 1e-15, and starts still moving
    # after ``_SWEEPS`` sweeps are left to the caller's Newton polish and
    # residual check.  Products are written as sums over the last axis, so
    # no start's bits depend on the starts or states it is stacked with.
    starts = a.shape[1]
    a = a.reshape(-1, 3).copy()
    b = b.reshape(-1, 3).copy()
    live = np.arange(b.shape[0])
    for _ in range(_SWEEPS):
        s = live // starts
        ts = T[s]
        bl = b[live]
        a_new = ((x[s] + np.sum(ts * bl[:, None, :], axis=2))
                 / (1.0 + np.sum(bl * bl, axis=1))[:, None])
        b_new = ((y[s] + np.sum(ts * a_new[:, :, None], axis=1))
                 / (1.0 + np.sum(a_new * a_new, axis=1))[:, None])
        delta = np.maximum(np.max(np.abs(a_new - a[live]), axis=1),
                           np.max(np.abs(b_new - bl), axis=1))
        a[live] = a_new
        b[live] = b_new
        live = live[delta > 1e-15]
        if live.size == 0:
            break
    return a.reshape(-1, starts, 3), b.reshape(-1, starts, 3)


# Random starts per state, sweeps of alternating minimization per start,
# Newton steps of the polish, and states per batch of the product oracle: a
# batch's stacked starts stay within about CHUNK_ROWS.
_RANDOM_STARTS = 32
_SWEEPS = 5000
_NEWTON_STEPS = 60
_PRODUCT_STATES = _kernels.CHUNK_ROWS // (_RANDOM_STARTS + 1)


def closest_products_general(states, seeds) -> list:
    """Numerically minimize the product-state distance over all (a, b).

    ``states`` is a sequence of ``DensityMatrix4`` and ``seeds`` one integer
    per state.  Alternating minimization (a <- (x + T b)/(1 + |b|^2), then
    b <- (y + T^T a)/(1 + |a|^2), each the exact minimizer with the other
    vector fixed) runs on 33 starts per state, for all states at once in
    batches of a fixed size: the marginals' Bloch vectors plus 32
    pseudorandom points in [-1, 1]^6 drawn from ``default_rng(seed)``.
    Newton's method on the stationarity system then polishes each state's
    best start, and is kept only if it does not raise the distance; near a
    maximally entangled state alternating minimization alone stalls with a
    residual near 1e-6.  The oracle works on all six Bloch components of an
    arbitrary state and shares no code with the X-state quintic.  Returns
    one :class:`ProductPair` per state; no state's pair depends on the
    states batched with it.  Raises :class:`ConvergenceFailureError` (with
    that state's best pair attached) for the first state whose fixed-point
    residual stays above ``ORACLE_RESIDUAL``.
    """
    blochs = [bloch_decompose(rho) for rho in states]
    seeds = list(seeds)
    if len(seeds) != len(blochs):
        raise ValueError("one seed per state is required")
    pairs = []
    for lo in range(0, len(blochs), _PRODUCT_STATES):
        pairs += _closest_products(blochs[lo:lo + _PRODUCT_STATES],
                                   seeds[lo:lo + _PRODUCT_STATES])
    return pairs


def _closest_products(blochs, seeds):
    x = np.array([b.x for b in blochs])
    y = np.array([b.y for b in blochs])
    T = np.array([b.T for b in blochs])
    starts = np.empty((len(blochs), _RANDOM_STARTS + 1, 6))
    starts[:, 0, :3] = x
    starts[:, 0, 3:] = y
    for i, seed in enumerate(seeds):
        starts[i, 1:] = np.random.default_rng(seed).uniform(
            -1.0, 1.0, size=(_RANDOM_STARTS, 6))
    a_all, b_all = _alternating_minimization(x, y, T, starts[..., :3],
                                             starts[..., 3:])
    f_all = _objective(x[:, None], y[:, None], T[:, None], a_all, b_all)
    best = np.argmin(f_all, axis=1)

    pairs = []
    for i, k in enumerate(best.tolist()):
        xi, yi, ti = x[i], y[i], T[i]
        a_best, b_best = a_all[i, k], b_all[i, k]
        polished = _newton_polish(xi, yi, ti, a_best, b_best)
        if (polished is not None
                and _objective(xi, yi, ti, *polished) <= f_all[i, k]):
            a_best, b_best = polished
        residual = _fixed_point_residual(xi, yi, ti, a_best, b_best)
        pair = ProductPair(np.clip(a_best, -1.0, 1.0),
                           np.clip(b_best, -1.0, 1.0))
        if residual > ORACLE_RESIDUAL:
            raise ConvergenceFailureError(
                "fixed-point residual %.3e exceeds %.1e"
                % (residual, ORACLE_RESIDUAL),
                best=pair,
            )
        pairs.append(pair)
    return pairs


def closest_product_general(rho, seed: int = 0) -> ProductPair:
    """One-state view of :func:`closest_products_general`."""
    return closest_products_general([rho], [seed])[0]
