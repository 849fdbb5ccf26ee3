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
import os
import stat
import sys
from dataclasses import asdict, dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np

from . import _kernels
from .closest import (
    CaseLabel,
    ProductPair,
    _objective,
    classical_product_rows,
    closest_classical_rows,
    closest_products_general,
    k_eigenvalues_x,
    k_matrices,
    x_report_rows,
)
from .errors import InvalidStateError, UnphysicalParametersError
from .states import (ID2, PAULI, BlochForm, DensityMatrix4, XStateParams,
                     check_densities, check_x_rows, x_bloch_components,
                     x_matrices)
from .tolerances import CASE_BOUNDARY, CLAMP

REPORT_CSV_HEADER = "case,k1,k2,k3,tg,dg,cg,lg,res,res_l,a3,b3,boundary"

# The %-format of a float in every CSV output: 17 significant digits, which
# round-trip any float64.
CSV_FLOAT = "%.17g"
# One to_csv_row: the case, eleven floats, the boundary flag.
_REPORT_CSV_ROW = ",".join(["%d"] + [CSV_FLOAT] * 11 + ["%d"])
# Its values, in REPORT_CSV_HEADER's order, from a kernel row.
_REPORT_CSV_COLUMNS = itemgetter(
    _kernels.COL_CASE, _kernels.COL_K1, _kernels.COL_K2, _kernels.COL_K3,
    _kernels.COL_TG, _kernels.COL_DG, _kernels.COL_CG, _kernels.COL_LG,
    _kernels.COL_RES, _kernels.COL_RESL, _kernels.COL_A3, _kernels.COL_B3,
    _kernels.COL_BOUNDARY)


def write_text(path, text) -> None:
    """Write ``text``, a string or an iterable of strings, as it yields, to
    the file ``path`` as UTF-8, or to stdout if None.  A new or regular
    file, or a symlink's target, is replaced by ``<file>.<pid>.tmp`` once
    that holds the whole text, so an error leaves the file as it was; a
    replaced file keeps its mode.  A FIFO or a terminal is written in
    place."""
    if isinstance(text, str):
        text = (text,)
    if path is None:
        sys.stdout.writelines(text)
        return
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(text)
        return
    path = os.path.realpath(path) if os.path.islink(path) else path
    tmp = "%s.%d.tmp" % (path, os.getpid())
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            if os.path.exists(path):
                os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
            fh.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# csv_text's bytes per field, the separator last, and fields per block.
_SLOT, _BLOCK = 32, 8192
_tables = None


def _csv_tables():
    """csv_text's tables, built on first use: the 4 ASCII digits of 0..9999
    as uint32, in full at [0, 1e4) and trailing zeros NUL at [1e4, 2e4);
    and by row E + 128, a float field's bytes 0-7 ("0." and zeros for
    -4 <= E < 0) and 24-31 (the exponent form's "e+XX") as uint64."""
    global _tables
    if _tables is None:
        chars = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")
        zero = chars[:, ::-1] == ord("0")
        trailing = np.logical_and.accumulate(zero, 1)[:, ::-1]
        digits = np.concatenate([chars, chars * ~trailing])
        ends = [(b"\0" + b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"",
                 b"" if -4 <= e < 17 else b"e%+03d" % e)
                for e in range(-128, 128)]
        _tables = [np.ascontiguousarray(digits).view(np.uint32).ravel()] + [
            np.frombuffer(b"".join(s.ljust(8, b"\0") for s in part), np.uint64)
            for part in zip(*ends)]
    return _tables


def _float_slots(x, out):
    """Fill the (m, _SLOT) uint8 ``out`` with the floats x: bytes 0-7 the
    sign, "0." and zeros, first digit and exponent form's point, 8-23 the
    other 16 digits (trailing zeros NUL), 24-30 the "e+XX"."""
    digits, head, tail = _csv_tables()
    ax = np.abs(x)
    inside = (ax >= _kernels.DIGITS_MIN) & (ax < _kernels.DIGITS_MAX)
    d, e, undecided = _kernels.decimal_digits(np.where(inside, ax, 1.0))
    top, low = np.divmod(d, 10 ** 16)
    hi, lo = np.divmod(low, 10 ** 8)
    groups = (top, *np.divmod(hi, 10 ** 4), *np.divmod(lo, 10 ** 4))
    words, bare = out.view(np.uint32), True
    for col in (5, 4, 3, 2):
        words[:, col] = digits[groups[col - 1] + 10000 * bare]
        bare = bare & (groups[col - 1] == 0)
    out.view(np.uint64)[:, ::3] = np.column_stack([head[e + 128],
                                                   tail[e + 128]])
    out[:, 0] = ord("-") * np.signbit(x)
    out[:, 6] = groups[0] + ord("0")
    out[:, 7] = ord(".") * (((e < -4) | (e >= 17)) & ~bare)
    # The fixed form, 0 <= E < 17: digits 0..E with their zeros, a point if
    # a digit follows, then the other digits, stripped, one byte right.
    f = np.flatnonzero((e >= 0) & (e < 17))
    strip = np.zeros((f.size, 19), np.uint8)
    strip[:, 0], strip[:, 1:17] = out[f, 6], out[f, 8:24]
    ef, at = e[f, None], np.arange(18)
    point = ord(".") * (np.take_along_axis(strip, ef + 1, 1) != 0)
    out[f, 6:24] = np.where(at <= ef, np.maximum(strip[:, :18], ord("0")),
                            np.where(at > ef + 1, strip[:, at - 1], point))
    out[ax == 0.0, 6] = ord("0")
    rest = np.flatnonzero(~inside & (ax != 0.0) | undecided)
    text = np.array([CSV_FLOAT % v for v in x[rest].tolist()],
                    (np.bytes_, _SLOT - 1))
    out[rest, :-1] = text.view(np.uint8).reshape(-1, _SLOT - 1)


def csv_text(columns) -> str:
    """The CSV text of the rows of ``columns``, equal-length 1-d arrays: a
    float column prints v as CSV_FLOAT % v, an integer column as "%d" % v,
    byte for byte, fields joined by "," and each row ended by "\\n".

    Each field is a slot of _SLOT bytes, about _BLOCK fields at a time; the
    unused bytes are NUL and dropped.  A float's digits come from
    :func:`xqcorr._kernels.decimal_digits`, laid out in one of %g's forms:
    fixed for 0 <= E < 17, "0." and -E - 1 zeros first for -4 <= E < 0,
    else the exponent form; a zero too.  The one fallback: a value whose
    rounding is undecided, or outside [DIGITS_MIN, DIGITS_MAX), inf or nan,
    is printed by CSV_FLOAT % v.
    """
    isfloat = np.array([c.dtype.kind == "f" for c in columns])
    step, pieces = max(1, _BLOCK // len(columns)), []
    for start in range(0, len(columns[0]), step):
        cols = [c[start:start + step] for c in columns]
        buf = np.empty((len(cols[0]), len(cols), _SLOT), np.uint8)
        if isfloat.any():
            floats = np.column_stack([c for c, f in zip(cols, isfloat) if f])
            slots = np.empty((floats.size, _SLOT), np.uint8)
            _float_slots(floats.ravel(), slots)
            buf[:, isfloat] = slots.reshape(floats.shape + (_SLOT,))
        for j in np.flatnonzero(~isfloat):  # numpy casts ints as str does
            buf[:, j, :-1] = cols[j].astype((np.bytes_, _SLOT - 1)).view(
                np.uint8).reshape(-1, _SLOT - 1)
        buf[:, :, -1] = ord(",")
        buf[:, -1, -1] = ord("\n")
        pieces.append(buf.tobytes().translate(None, b"\0"))
    return b"".join(pieces).decode("ascii")


@dataclass(frozen=True)
class CorrelationReport:
    """All quantifiers of one state plus the closest states realizing them.

    A view of ``row``, the state's 13-value kernel row (columns as in
    :func:`xqcorr._kernels.batch_reports`), and of ``state``; each
    quantifier property reads its column.  The case label and the closest
    states are built, and validated, the first time each is read, so a
    report that is only printed as CSV builds none of them.
    """

    row: list
    state: XStateParams

    t_g = property(lambda self: self.row[_kernels.COL_TG])
    d_g = property(lambda self: self.row[_kernels.COL_DG])
    c_g = property(lambda self: self.row[_kernels.COL_CG])
    l_g = property(lambda self: self.row[_kernels.COL_LG])
    residual_closure = property(lambda self: self.row[_kernels.COL_RES])
    residual_with_l = property(lambda self: self.row[_kernels.COL_RESL])
    a3 = property(lambda self: self.row[_kernels.COL_A3])
    b3 = property(lambda self: self.row[_kernels.COL_B3])
    boundary_flag = property(
        lambda self: bool(self.row[_kernels.COL_BOUNDARY]))

    # Names of clamped quantifiers.  Always empty: the kernel's t_g, d_g,
    # c_g and l_g are sums of squares.  The JSON report still lists it.
    clamped = ()

    @cached_property
    def case(self) -> CaseLabel:
        return CaseLabel.of_row(self.row)

    @cached_property
    def product_pair(self) -> ProductPair:
        return ProductPair((0.0, 0.0, self.a3), (0.0, 0.0, self.b3))

    @cached_property
    def classical_state(self) -> XStateParams:
        row = closest_classical_rows(self.state.as_array()[None],
                                     np.array([self.case.case_id]))
        return XStateParams(*row[0].tolist())

    @cached_property
    def classical_product_pair(self) -> ProductPair:
        a, b = classical_product_rows(self.state.as_array()[None],
                                      np.array([self.case.case_id]),
                                      self.a3, self.b3)
        return ProductPair((0.0, 0.0, a[0]), (0.0, 0.0, b[0]))

    def to_csv_row(self) -> str:
        return _REPORT_CSV_ROW % _REPORT_CSV_COLUMNS(self.row)

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
            "closest_classical": asdict(self.classical_state),
            "classical_closest_product": {
                "a": self.classical_product_pair.a.tolist(),
                "b": self.classical_product_pair.b.tolist(),
            },
            "clamped": list(self.clamped),
        }


def geometric_discords(x, T) -> np.ndarray:
    """Closed-form geometric discord of (S, 3) ``x`` and (S, 3, 3) ``T``:
    (||x||^2 + ||T||_F^2 - k_max)/4, k_max the largest eigenvalue of K
    (:func:`xqcorr.closest.k_matrices`).  The sums of squares are not BLAS
    calls, so their bits do not depend on the CPU.  A value that rounds to
    within ``CLAMP`` below 0 is returned as 0."""
    _, eigs = k_matrices(x, T)
    val = 0.25 * (np.sum(x * x, axis=1) + np.sum(T * T, axis=(1, 2))
                  - eigs[:, 0])
    return np.where((-CLAMP <= val) & (val < 0.0), 0.0, val)


def geometric_discord_general(b: BlochForm) -> float:
    """One-state view of :func:`geometric_discords`."""
    return float(geometric_discords(b.x[None], b.T[None])[0])


def quantifiers_x(p: XStateParams, *, row=None) -> CorrelationReport:
    """Full correlation report of an X state from the closed forms.

    ``row`` is the state's row of an :func:`xqcorr.closest.x_report_rows`
    batch, as a list or an array, for callers that solve many states at
    once; without it the state is solved as a batch of one.  Either way
    the report is a :class:`CorrelationReport` view of the row as a list
    of Python floats, whose case label ``x_report_rows`` has checked.  Its
    closest states are lazy: callers that print many reports without them
    validate them for all rows at once with
    :func:`xqcorr.closest.check_report_rows`.
    """
    if row is None:
        row = x_report_rows(p.as_array()[None, :])[0]
    return CorrelationReport(row if isinstance(row, list) else row.tolist(), p)


def bell_diagonal_quantifiers(t11: float, t22: float,
                              t33: float) -> CorrelationReport:
    """Quantifiers of a Bell-diagonal state from its tensor diagonal.

    t_g = (T11^2+T22^2+T33^2)/4, c_g = T^2/4 and d_g their difference,
    where T = max |Tii|; the closure defect vanishes and additivity is
    exact.  Raises :class:`UnphysicalParametersError` when the state's
    :class:`XStateParams` is not valid; its blocks' eigenvalues are the
    Bell-basis ones, (1 + s1 t11 + s2 t22 + s3 t33)/4 with s1 s2 s3 = -1.
    """
    diag = np.array([t11, t22, t33], dtype=np.float64)
    if not np.all(np.isfinite(diag)):
        raise UnphysicalParametersError("non-finite tensor diagonal")
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
            "tensor diagonal (%g, %g, %g) is not a state: %s"
            % (t11, t22, t33, exc)) from exc
    case = k_eigenvalues_x(p)
    sq = diag * diag
    tmax_sq = float(sq.max())
    total = float(sq.sum())
    t_g, c_g, d_g = total / 4.0, tmax_sq / 4.0, (total - tmax_sq) / 4.0
    res = t_g - d_g - c_g
    report = CorrelationReport(
        [case.k1, case.k2, case.k3, float(case.case_id), 0.0, 0.0,
         t_g, d_g, c_g, 0.0, res, res,
         abs(case.k1 - case.k3) <= CASE_BOUNDARY], p)
    # a3 = b3 = 0.0 make the closest product the zero pair; the classical
    # one is the zero pair too, whatever y3 the rounded diagonal of p gives.
    report.__dict__["classical_product_pair"] = ProductPair(
        (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    return report


# 3x3 finite-difference stencil in tangent coordinates, and the step
# scales tried by the backtracking line search (1 down to 2^-39).
_STENCIL = np.array([(i, j) for i in (-1.0, 0.0, 1.0)
                     for j in (-1.0, 0.0, 1.0)])
_STEP_SCALES = 0.5 ** np.arange(40)
# Stencil spacing: the Hessian's truncation error (~h^2) and rounding
# error (~1e-16/h^2) both stay near 1e-8, far below the 1e-6 bound.
_FD_STEP = 1e-4
_EYE3 = np.eye(3)
# States per descent batch: bounds its stacked trial directions (the
# line search's 40 per state) to about CHUNK_ROWS.
_DESCENT_STATES = _kernels.CHUNK_ROWS // _STEP_SCALES.size


def _on_sphere(n, w):
    d = n + w
    return d / np.linalg.norm(d, axis=-1, keepdims=True)


def _descend_on_sphere(m, n):
    # Saddle-free Newton on the pinched distance over unit vectors, for
    # the (S, 4, 4) states m from their (S, 3) start directions n at once:
    # gradient and Hessian by central differences in a tangent chart at
    # n, step -V |L|^-1 V^T g from the Hessian's eigenpairs (so negative
    # curvature pushes away from a saddle instead of toward it), at most
    # 0.5 long, then the best of its halvings if that lowers the distance.
    # ``live`` indexes the states still descending; a state stops when no
    # halving improves on its center point, or after 100 steps.  Returns
    # the smallest distance evaluated per state.  Compaction pays here: on
    # 200 sampled states a batch of ~100 is down to 16-27 after 3 steps.
    h = _FD_STEP
    n = n.copy()
    best = np.full(n.shape[0], np.inf)
    live = np.arange(n.shape[0])
    for _ in range(100):
        if live.size == 0:
            break
        ml, nl = m[live], n[live]
        e1 = np.cross(nl, _EYE3[np.argmin(np.abs(nl), axis=1)])
        e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
        e2 = np.cross(nl, e1)
        w = h * (_STENCIL[:, :1] * e1[:, None] + _STENCIL[:, 1:] * e2[:, None])
        f = _kernels.pinched_distances(ml, _on_sphere(nl[:, None], w))
        best[live] = np.minimum(best[live], f.min(axis=1))
        f = f.reshape(-1, 3, 3)
        grad = np.stack([f[:, 2, 1] - f[:, 0, 1],
                         f[:, 1, 2] - f[:, 1, 0]], axis=1) / (2.0 * h)
        hess = np.empty((live.size, 2, 2))
        hess[:, 0, 0] = f[:, 2, 1] - 2.0 * f[:, 1, 1] + f[:, 0, 1]
        hess[:, 1, 1] = f[:, 1, 2] - 2.0 * f[:, 1, 1] + f[:, 1, 0]
        hess[:, 0, 1] = hess[:, 1, 0] = (
            f[:, 2, 2] - f[:, 2, 0] - f[:, 0, 2] + f[:, 0, 0]) / 4.0
        hess /= h * h
        ev, v = np.linalg.eigh(hess)
        along = np.sum(v * grad[:, :, None], axis=1)  # V^T g
        along /= np.maximum(np.abs(ev), 1e-12)
        step = -np.sum(v * along[:, None, :], axis=2)
        step *= 0.5 / np.maximum(np.linalg.norm(step, axis=1), 0.5)[:, None]
        move = step[:, :1] * e1 + step[:, 1:] * e2
        trial = _on_sphere(nl[:, None], _STEP_SCALES[:, None] * move[:, None])
        vals = _kernels.pinched_distances(ml, trial)
        k = np.argmin(vals, axis=1)
        rows = np.arange(live.size)
        low = vals[rows, k]
        better = ~(low >= f[:, 1, 1])
        live, rows, low = live[better], rows[better], low[better]
        n[live] = trial[rows, k[better]]
        best[live] = np.minimum(best[live], low)
    return best


def _measurement_grid():
    # Rows i < 32 of the 64 x 64 (theta, phi) grid, flattened row by row.
    # Row (i, j) and row (63-i, j+32) are antipodes, n and -n, whose
    # measurements pinch alike; the first of each pair is in the rows kept.
    thetas = math.pi * (np.arange(32) + 0.5) / 64
    phis = 2.0 * math.pi * np.arange(64) / 64
    ct, cp = np.meshgrid(np.cos(thetas), np.cos(phis), indexing="ij")
    st, sp = np.meshgrid(np.sin(thetas), np.sin(phis), indexing="ij")
    return np.stack([(st * cp).ravel(), (st * sp).ravel(), ct.ravel()],
                    axis=1)


def discord_measurement_oracles(states) -> np.ndarray:
    """Geometric discord of each state by minimization over measurements.

    ``states`` is an (S, 4, 4) array of valid density matrices.  Each
    state's measurement directions are scanned on the theta < pi/2 half of
    a 64 x 64 (theta, phi) grid (n and -n measure alike), computing
    ||rho - Pi^A(rho)||^2 by explicit matrix pinching
    (:func:`xqcorr._kernels.pinched_distances`, through
    :func:`xqcorr._kernels.measurement_scan`).  The best grid point of
    each state is then refined by a deterministic saddle-free Newton descent
    over unit vectors, with derivatives taken by finite differences of the
    pinched distance; the descent runs on all states at once, in batches
    of a fixed size.  A saddle of the distance can lie within the grid's
    resolution of the minimum, up to ~2e-4 above it; the descent leaves
    such a saddle along its negative curvature.  Returns the smallest
    distance evaluated for each state, as a float array; no state's value
    depends on the states batched with it.  Validation oracle: independent
    of the K-matrix closed form.
    """
    grid = _measurement_grid()
    best = np.empty(len(states))
    starts = np.empty((len(states), 3))
    for i, m in enumerate(states):
        best[i], starts[i] = _kernels.measurement_scan(m, grid)
    for lo in range(0, len(states), _DESCENT_STATES):
        batch = slice(lo, lo + _DESCENT_STATES)
        best[batch] = np.minimum(
            best[batch], _descend_on_sphere(states[batch], starts[batch]))
    return best


def discord_measurement_oracle(rho) -> float:
    """Validated one-state view of :func:`discord_measurement_oracles`."""
    return float(discord_measurement_oracles(rho.validate().matrix[None])[0])


def oracle_errors(params: np.ndarray, seed: int) -> np.ndarray:
    """The oracle-check comparisons for an (n, 8) X-parameter array.

    Array code throughout: the rows and their matrices are validated
    once, the closed forms are solved in one batch, and each oracle runs
    once on all n matrices, the product oracle with seed ``seed + i`` for
    state i.  Returns an (n, 3) array: per state |F_num - F_closed|, the
    largest transverse component of the numerical closest product (zero
    for an X state), and |D_meas - D_closed| (geometric discord).
    """
    check_x_rows(params)
    rhos = check_densities(x_matrices(params))
    reports = x_report_rows(params)
    num_a, num_b = closest_products_general(
        rhos, range(seed, seed + len(params)))
    d_meas = discord_measurement_oracles(rhos)
    x, y, T = x_bloch_components(params)
    closed = np.zeros((2,) + x.shape)  # the z-axis pairs (a3, b3)
    closed[:, :, 2] = reports[:, [_kernels.COL_A3, _kernels.COL_B3]].T
    f_diff = _objective(x, y, T, num_a, num_b) - _objective(x, y, T, *closed)
    transverse = np.abs(np.hstack([num_a[:, :2], num_b[:, :2]])).max(axis=1)
    return np.column_stack([np.abs(f_diff), transverse,
                            np.abs(d_meas - geometric_discords(x, T))])


def pinched_state(rho, theta: float, phi: float) -> DensityMatrix4:
    """State after a forgotten projective measurement on qubit A."""
    n = np.array([math.sin(theta) * math.cos(phi),
                  math.sin(theta) * math.sin(phi),
                  math.cos(theta)])
    proj = 0.5 * (ID2 + sum(n[i] * PAULI[i] for i in range(3)))
    k_plus = np.kron(proj, ID2)
    k_minus = np.kron(ID2 - proj, ID2)
    m = k_plus @ rho.matrix @ k_plus + k_minus @ rho.matrix @ k_minus
    return DensityMatrix4(m)
