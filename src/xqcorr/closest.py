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
from dataclasses import dataclass

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
    block_least_eigenvalue,
    bloch_components,
    check_x_rows,
    product_least_eigenvalue,
)
from .tolerances import ORACLE_RESIDUAL, PSD_FLOOR


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

    @classmethod
    def of_row(cls, row) -> CaseLabel:
        """The label of a row of :func:`xqcorr._kernels.batch_reports`."""
        return cls(CaseId(int(row[_kernels.COL_CASE])), row[_kernels.COL_K1],
                   row[_kernels.COL_K2], row[_kernels.COL_K3])


@dataclass(frozen=True)
class ProductPair:
    """Bloch vectors (a, b) of rho_A (x) rho_B, valid as its matrix is:
    :func:`xqcorr.states.product_least_eigenvalue` of the norms, each
    sqrt(x^2 + y^2 + z^2) summed as ``np.sum`` does, is >= -``PSD_FLOOR``."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        norms = []
        for name in ("a", "b"):
            arr = np.array(getattr(self, name), dtype=np.float64).reshape(3)
            x, y, z = arr.tolist()
            if not all(map(math.isfinite, (x, y, z))):
                raise InvalidStateError("non-finite Bloch vector")
            norms.append(math.sqrt(x * x + y * y + z * z))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        least = product_least_eigenvalue(*norms)
        if not least >= -PSD_FLOOR:
            raise InvalidStateError(
                "product state not positive: least eigenvalue %.3e" % least)

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


def k_matrices(x, T):
    """K = x x^T + T T^T of (S, 3) ``x`` and (S, 3, 3) ``T``, and its
    eigenvalues as (S, 3), sorted descending."""
    K = x[:, :, None] * x[:, None, :] + T @ T.swapaxes(-2, -1)
    return K, np.linalg.eigvalsh(K)[:, ::-1]


def k_matrix_general(b: BlochForm):
    """One-state view of :func:`k_matrices`."""
    K, eigs = k_matrices(b.x[None], b.T[None])
    return K[0], eigs[0]


def product_distance(b: BlochForm, pair: ProductPair) -> float:
    """Squared HS distance between a state and a product state, in Bloch form."""
    return float(_objective(b.x, b.y, b.T, pair.a, pair.b))


def stationarity_residual(b: BlochForm, pair: ProductPair) -> float:
    """Max-norm residual of the product-state fixed-point system."""
    return _fixed_point_residual(b.x, b.y, b.T, pair.a, pair.b)


def x_report_rows(params: np.ndarray) -> np.ndarray:
    """:func:`xqcorr._kernels.batch_reports` of an (n, 8) X-parameter array.

    Raises :class:`SolverFailureError` when the closest-product solve
    failed on any row.  Then checks every row's label as :class:`CaseLabel`
    would, over the whole array: the first row with k1 < k2, or with case 1
    other than exactly when k1 <= k3, is built as a ``CaseLabel``, which
    raises its :class:`InvalidStateError`.
    """
    rows = _kernels.batch_reports(params)
    k1, k2, k3, case = rows[:, _kernels.COL_K1:_kernels.COL_CASE + 1].T
    failed = np.flatnonzero(case == 0.0)
    if failed.size:
        raise SolverFailureError(
            "closest-product solver failed on %d of %d states, first %r"
            % (failed.size, rows.shape[0], params[failed[0]].tolist())
        )
    bad = np.flatnonzero((k1 < k2) | (case != np.where(k1 <= k3, 1.0, 2.0)))
    if bad.size:
        CaseLabel.of_row(rows[bad[0]].tolist())
    return rows


def closest_product_x(p: XStateParams) -> ProductPair:
    """Product state closest to an X state in squared HS distance.

    Both Bloch vectors point along the z axis; (a3, b3) is the global
    minimizer among all real solutions of the stationarity system.
    """
    row = x_report_rows(p.as_array()[None, :])[0]
    return ProductPair((0.0, 0.0, row[_kernels.COL_A3]),
                       (0.0, 0.0, row[_kernels.COL_B3]))


def closest_classical_rows(params: np.ndarray, case) -> np.ndarray:
    """Closest classical states of an (n, 8) X-parameter array, as (n, 8).

    ``case`` is the array of each row's :class:`CaseId`.  Case 1 keeps the
    diagonal and drops the coherences; case 2 is the state with diagonal
    ((1 + y3)/4, (1 - y3)/4, (1 + y3)/4, (1 - y3)/4), both coherences
    (rho14 + rho23)/2 and the original phases.  Where that mean coherence
    takes the classical state's block below -``PSD_FLOOR``, the floor a
    valid state's blocks meet, it is replaced by the block bound
    sqrt(rho11 rho44) = sqrt(rho22 rho33).  The rows are not validated.
    """
    r11, r22, r33, r44, r14, r23, g14, g23 = params.T
    y3 = _kernels.z_bloch(r11, r22, r33, r44)[1]
    hi, lo = 0.25 * (1.0 + y3), 0.25 * (1.0 - y3)
    coh = 0.5 * (r14 + r23)
    coh = np.where(block_least_eigenvalue(hi, lo, coh) < -PSD_FLOOR,
                   np.sqrt(np.maximum(hi * lo, 0.0)), coh)
    zero = np.zeros_like(r11)
    return np.where((case == CaseId.CASE1)[:, None],
                    np.stack([r11, r22, r33, r44, zero, zero, zero, zero], 1),
                    np.stack([hi, lo, hi, lo, coh, coh, g14, g23], 1))


def classical_product_rows(params: np.ndarray, case, a3, b3):
    """Closest products of the closest classical states of an (n, 8)
    X-parameter array with cases ``case`` and closest products (a3, b3),
    as the z components (a, b) of their Bloch vectors: (a3, b3) in case 1,
    whose classical state keeps x3, y3 and T33, and (0, y3) in case 2."""
    two = case == CaseId.CASE2
    y3 = _kernels.z_bloch(*params[:, :4].T)[1]
    return np.where(two, 0.0, a3), np.where(two, y3, b3)


def closest_classical_x(p: XStateParams) -> XStateParams:
    """Closest classical (zero-discord) state; an X state in both cases.
    One-row view of :func:`closest_classical_rows`."""
    params = p.as_array()[None, :]
    row = closest_classical_rows(params, _kernels.k_eigenvalues(params)[3])
    return XStateParams(*row[0].tolist())


def closest_product_of_classical_x(p: XStateParams) -> ProductPair:
    """Product state closest to the closest classical state: a one-row
    view of :func:`classical_product_rows`.  Only a case-1 state needs the
    closest-product solve; a case-2 state's pair is (0, y3)."""
    params = p.as_array()[None, :]
    case = _kernels.k_eigenvalues(params)[3]
    a3 = b3 = np.zeros(1)
    if case[0] == CaseId.CASE1:
        row = x_report_rows(params)
        a3, b3 = row[:, _kernels.COL_A3], row[:, _kernels.COL_B3]
    a, b = classical_product_rows(params, case, a3, b3)
    return ProductPair((0.0, 0.0, a[0]), (0.0, 0.0, b[0]))


def check_report_rows(params: np.ndarray, reports: np.ndarray) -> None:
    """Run the checks of each row's closest states, over whole arrays.

    ``reports`` is :func:`x_report_rows` of the (n, 8) array ``params``.
    Each row's closest product (a3, b3), its closest classical state and
    that state's closest product must be what :class:`ProductPair` and
    :class:`XStateParams` accept.  The first row that fails has those
    objects built, in that order, and the first to fail raises its
    :class:`InvalidStateError`.  The temporaries are a few times the size
    of the arguments: ``sample`` passes one chunk of rows at a time.
    """
    case = reports[:, _kernels.COL_CASE]
    a3, b3 = reports[:, _kernels.COL_A3], reports[:, _kernels.COL_B3]
    a, b = classical_product_rows(params, case, a3, b3)
    least = np.minimum(product_least_eigenvalue(np.abs(a3), np.abs(b3)),
                       product_least_eigenvalue(np.abs(a), np.abs(b)))
    bad = np.flatnonzero(~(least >= -PSD_FLOOR))
    # A row before the first bad pair can fail only its classical state.
    first = bad[0] if bad.size else case.size
    classical = closest_classical_rows(params, case)
    check_x_rows(classical[:first])
    if bad.size:
        ProductPair((0.0, 0.0, a3[first]), (0.0, 0.0, b3[first]))
        XStateParams(*classical[first].tolist())
        ProductPair((0.0, 0.0, a[first]), (0.0, 0.0, b[first]))


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
    ra = a - (x + np.sum(T * b, axis=1)) / (1.0 + np.sum(b * b))
    rb = b - (y + np.sum(T.T * a, axis=1)) / (1.0 + np.sum(a * a))
    return float(max(np.max(np.abs(ra)), np.max(np.abs(rb))))


def _newton_polish(x, y, T, a, b):
    # Solves the 6-variable stationarity system; quadratic near a
    # nondegenerate minimum, reverts to the caller's point on failure.
    a = a.copy()
    b = b.copy()
    eye3 = np.eye(3)
    for _ in range(_NEWTON_STEPS):
        ga = 0.5 * (a * (1.0 + np.sum(b * b)) - x - np.sum(T * b, axis=1))
        gb = 0.5 * (b * (1.0 + np.sum(a * a)) - y - np.sum(T.T * a, axis=1))
        g = np.concatenate([ga, gb])
        if np.max(np.abs(g)) < 1e-15:
            break
        H = np.empty((6, 6))
        H[:3, :3] = 0.5 * (1.0 + np.sum(b * b)) * eye3
        H[3:, 3:] = 0.5 * (1.0 + np.sum(a * a)) * eye3
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
    # Compaction pays here, unlike in the quintic kernel: on 200 sampled
    # states, 126 of 6600 starts still move at sweep 100 of 222.
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


def closest_products_general(states, seeds):
    """Numerically minimize the product-state distance over all (a, b).

    ``states`` is an (S, 4, 4) array of valid density matrices, ``seeds``
    one integer per state.  Alternating minimization (a <- (x + T b) /
    (1 + |b|^2), then b <- (y + T^T a)/(1 + |a|^2), each the exact
    minimizer with the other vector fixed) runs on 33 starts per state,
    for all states at once in batches of a fixed size: the marginals'
    Bloch vectors plus 32 pseudorandom points in [-1, 1]^6 drawn from
    ``default_rng(seed)``.  Newton's method on the stationarity system then
    polishes each state's best start, kept only if it does not raise the
    distance; near a maximally entangled state alternating minimization
    alone stalls with a residual near 1e-6.  Its products are sums over a
    last axis, not BLAS calls; the polish's 6x6 ``np.linalg.solve``
    (LAPACK) stays.  The oracle works on all six
    Bloch components of an arbitrary state and shares no code with the
    X-state quintic.  Returns the Bloch vectors (a, b) as (S, 3) arrays
    clipped to [-1, 1]; no state's pair depends on the states batched with
    it.  The first state whose pair :class:`ProductPair` rejects, or whose
    fixed-point residual stays above ``ORACLE_RESIDUAL``, raises that
    error or :class:`ConvergenceFailureError` with the pair attached.
    """
    x, y, T = bloch_components(states)
    seeds = list(seeds)
    if len(seeds) != len(x):
        raise ValueError("one seed per state is required")
    a, b = np.empty_like(x), np.empty_like(x)
    for lo in range(0, len(x), _PRODUCT_STATES):
        s = slice(lo, lo + _PRODUCT_STATES)
        a[s], b[s] = _closest_products(x[s], y[s], T[s], seeds[s])
    return a, b


def _closest_products(x, y, T, seeds):
    starts = np.empty((len(x), _RANDOM_STARTS + 1, 6))
    starts[:, 0, :3] = x
    starts[:, 0, 3:] = y
    for i, seed in enumerate(seeds):
        starts[i, 1:] = np.random.default_rng(seed).uniform(
            -1.0, 1.0, size=(_RANDOM_STARTS, 6))
    a_all, b_all = _alternating_minimization(x, y, T, starts[..., :3],
                                             starts[..., 3:])
    f_all = _objective(x[:, None], y[:, None], T[:, None], a_all, b_all)
    best = np.argmin(f_all, axis=1)
    a, b = a_all[range(len(x)), best], b_all[range(len(x)), best]
    residual = np.empty(len(x))
    for i, k in enumerate(best.tolist()):
        polished = _newton_polish(x[i], y[i], T[i], a[i], b[i])
        if (polished is not None
                and _objective(x[i], y[i], T[i], *polished) <= f_all[i, k]):
            a[i], b[i] = polished
        residual[i] = _fixed_point_residual(x[i], y[i], T[i], a[i], b[i])
    a, b = np.clip(a, -1.0, 1.0), np.clip(b, -1.0, 1.0)
    # Only a pair that is no state or is off the residual bound is built.
    na, nb = (np.sqrt(np.sum(v * v, axis=1)) for v in (a, b))
    far = ~(product_least_eigenvalue(na, nb) >= -PSD_FLOOR)
    for i in np.flatnonzero(far | (residual > ORACLE_RESIDUAL)):
        pair = ProductPair(a[i], b[i])
        if residual[i] > ORACLE_RESIDUAL:
            raise ConvergenceFailureError(
                "fixed-point residual %.3e exceeds %.1e"
                % (residual[i], ORACLE_RESIDUAL), best=pair)
    return a, b


def closest_product_general(rho, seed: int = 0) -> ProductPair:
    """Validated one-state view of :func:`closest_products_general`."""
    a, b = closest_products_general(rho.validate().matrix[None], [seed])
    return ProductPair(a[0], b[0])
