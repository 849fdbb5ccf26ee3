"""Numerical core: K eigenvalues, the closest-product solve, P_t, grid scan.

Everything here is plain numpy.  :func:`batch_reports` is the one place
where the X-state quantifiers are computed: it takes an (n, 8) parameter
array and returns an (n, 13) report array, and the scalar APIs in
:mod:`xqcorr.closest` and :mod:`xqcorr.quantifiers` are one-row views of
it.  Within each chunk of ``CHUNK_ROWS`` rows every step is an array
operation: one stacked complex companion ``eigvals`` for the quintic,
Newton on all roots under a per-root convergence mask, the tie-broken
argmin, and the report columns.
Per-layer timings of these kernels inside the CLI commands come from
``python3 perfbench/run.py --workload <name> --seed N --trace 1``.
"""

import math

import numpy as np

from .tolerances import CASE_BOUNDARY, STATIONARITY

# Columns of the per-state report array produced by batch_reports.
COL_K1, COL_K2, COL_K3, COL_CASE, COL_A3, COL_B3 = 0, 1, 2, 3, 4, 5
COL_TG, COL_DG, COL_CG, COL_LG, COL_RES, COL_RESL, COL_BOUNDARY = (
    6, 7, 8, 9, 10, 11, 12,
)
REPORT_COLS = 13

# Rows per chunk of batch_reports: bounds the (n, 5, 5) companion stack and
# the (n, 5) temporaries of the solve, and so the peak memory of a batch.
CHUNK_ROWS = 4096


def k_eigenvalues(params):
    """Closed-form eigenvalues of K for an (n, 8) X-parameter array.

    Returns length-n arrays (k1, k2, k3, case) where ``case`` is 1.0 when
    k1 <= k3 (the boundary belongs to case 1) and 2.0 when k1 > k3.
    """
    r11, r22, r33, r44, r14, r23 = params[:, :6].T
    k1 = 4.0 * (r14 + r23) ** 2
    k2 = 4.0 * (r14 - r23) ** 2
    k3 = 2.0 * ((r11 - r33) ** 2 + (r22 - r44) ** 2)
    return k1, k2, k3, np.where(k1 <= k3, 1.0, 2.0)


def _quintic_eval(c4, c3, c2, c1, c0, a):
    q = ((((a + c4) * a + c3) * a + c2) * a + c1) * a + c0
    dq = (((5.0 * a + 4.0 * c4) * a + 3.0 * c3) * a + 2.0 * c2) * a + c1
    return q, dq


def solve_a3b3(x3, y3, t33):
    """Global minimizers of the z-axis product-distance profile.

    Takes length-n float arrays.  Eliminates b3 exactly (the distance is
    strictly convex in b3 for fixed a3) and finds the stationary a3 values
    as the real roots of the resulting monic quintic: the eigenvalues of
    all n companion matrices, stacked as one (n, 5, 5) complex array, seed
    Newton on all (n, 5) roots, each root stopping when its derivative
    vanishes or its step falls to 1e-16 * max(1, |a|), after at most 60
    steps.  Only roots with a quintic residual |q| <= 1e-10 are kept (a NaN
    residual is dropped, so every kept root has a finite distance), and the
    kept root of least distance wins, ties broken by smaller |a3| then
    smaller a3, then root order.

    The companion is complex because its eigenvalues are the seeds every
    earlier result of this package came from: a real float64 companion is
    about twice as fast in ``eigvals``, but moves a3 in the last bits on
    about 9% of case-2 states, which would change the CSV output.

    Returns arrays (a3, b3, ok); ok=False marks a row where no real
    stationary point was identified (cannot happen for a degree-5 real
    polynomial unless the eigensolver misbehaves).  The origin
    x3 = y3 = t33 = 0 is (0, 0, True).
    """
    n = x3.shape[0]
    c4 = -x3
    c3 = 2.0
    c2 = y3 * t33 - 2.0 * x3
    c1 = 1.0 + y3 * y3 - t33 * t33
    c0 = -(x3 + y3 * t33)

    comp = np.zeros((n, 5, 5), dtype=np.complex128)
    comp[:, (1, 2, 3, 4), (0, 1, 2, 3)] = 1.0
    comp[:, 0, 0] = -c4
    comp[:, 0, 1] = -c3
    comp[:, 0, 2] = -c2
    comp[:, 0, 3] = -c1
    comp[:, 0, 4] = -c0
    a = np.linalg.eigvals(comp).real.flatten()

    # Newton refinement, linear-rate safe even at multiple roots; ``live``
    # indexes the flattened (n, 5) roots still iterating.
    c4r, c2r, c1r, c0r = (np.repeat(c, 5) for c in (c4, c2, c1, c0))
    live = np.arange(a.size)
    for _ in range(60):
        if live.size == 0:
            break
        q, dq = _quintic_eval(c4r[live], c3, c2r[live], c1r[live],
                              c0r[live], a[live])
        moving = dq != 0.0
        live = live[moving]
        step = q[moving] / dq[moving]
        polished = a[live] - step
        a[live] = polished
        live = live[~(np.abs(step) <= 1e-16 * np.fmax(1.0, np.abs(polished)))]

    q, _ = _quintic_eval(c4r, c3, c2r, c1r, c0r, a)
    kept = (np.abs(q) <= 1e-10).reshape(n, 5)
    a = a.reshape(n, 5)
    x3c, y3c, t33c = x3[:, None], y3[:, None], t33[:, None]
    b = (y3c + t33c * a) / (1.0 + a * a)
    da = x3c - a
    db = y3c - b
    dt = t33c - a * b
    f = 0.25 * (da * da + db * db + dt * dt)

    # Argmin of (f, |a3|, a3) over the kept roots, the first in root order
    # on a full tie: the root a scan in root order would end on if it moved
    # only to a strictly better root.
    found = kept.any(axis=1)
    cand = kept
    for key in (f, np.abs(a), a):
        low = np.min(np.where(cand, key, np.inf), axis=1, keepdims=True)
        cand = cand & (key == low)
    pick = np.argmax(cand, axis=1)
    rows = np.arange(n)
    best_a = np.where(found, a[rows, pick], 0.0)
    best_b = np.where(found, b[rows, pick], 0.0)

    origin = (x3 == 0.0) & (y3 == 0.0) & (t33 == 0.0)
    best_a[origin] = 0.0
    best_b[origin] = 0.0
    return best_a, best_b, found | origin


def batch_reports(params):
    """Per-state correlation quantities for an (n, 8) X-parameter array.

    Row layout of ``params``: rho11, rho22, rho33, rho44, rho14, rho23,
    gamma14, gamma23.  All emitted quantities are phase-independent, so the
    last two columns are accepted but unused.

    Returns an (n, 13) array with columns k1, k2, k3, case, a3, b3, tg, dg,
    cg, lg, res, res_l, boundary; ``case`` is 1.0/2.0, and a row of zeros
    (case 0.0) marks a solver failure on that row (callers raise): either
    no real stationary point, or an (a3, b3) whose z-axis stationarity
    residual exceeds ``STATIONARITY``.

    Works in chunks of ``CHUNK_ROWS`` rows, one :func:`solve_a3b3` call
    each; no row's result depends on the rows batched with it.
    """
    out = np.empty((params.shape[0], REPORT_COLS), dtype=np.float64)
    for start in range(0, params.shape[0], CHUNK_ROWS):
        stop = start + CHUNK_ROWS
        _fill_reports(params[start:stop], out[start:stop])
    return out


def _fill_reports(params, out):
    k1, k2, k3, case = k_eigenvalues(params)
    r11, r22, r33, r44, r14, r23 = params[:, :6].T
    x3 = r11 + r22 - r33 - r44
    y3 = r11 - r22 + r33 - r44
    t33 = r11 - r22 - r33 + r44

    a3, b3, ok = solve_a3b3(x3, y3, t33)
    stationarity = np.maximum(
        np.abs(a3 - (x3 + t33 * b3) / (1.0 + b3 * b3)),
        np.abs(b3 - (y3 + t33 * a3) / (1.0 + a3 * a3)))

    splus = r14 + r23
    sminus = r14 - r23
    u = r11 - r33
    v = r22 - r44
    da = x3 - a3
    db = y3 - b3
    dt = t33 - a3 * b3
    fpart = 0.25 * (da * da + db * db + dt * dt)
    block = 2.0 * (r14 * r14 + r23 * r23)

    tg = fpart + block
    case2 = case == 2.0
    dg = np.where(case2, sminus * sminus + 0.5 * (u * u + v * v), block)
    cg = np.where(case2, splus * splus, fpart)
    lg = np.where(case2, a3 * a3 * (dt * dt + 1.0 + b3 * b3) * 0.25, 0.0)

    out[:] = np.stack([k1, k2, k3, case, a3, b3, tg, dg, cg, lg,
                       tg - dg - cg, tg + lg - dg - cg,
                       np.abs(k1 - k3) <= CASE_BOUNDARY], axis=1)
    out[~(ok & (stationarity <= STATIONARITY))] = 0.0


def pt_scalar(t, gamma0, lam):
    """Excited-state survival probability of the damped qubit at time t."""
    d2 = 2.0 * gamma0 * lam - lam * lam
    ad = math.sqrt(abs(d2))
    if ad * t < 1e-6:
        # Series in d^2; also covers the d -> 0 boundary exactly.
        bracket = 1.0 + 0.5 * lam * t - d2 * t * t / 8.0 - lam * d2 * t**3 / 48.0
        return math.exp(-lam * t) * bracket * bracket
    half = 0.5 * ad * t
    if d2 > 0.0:
        bracket = math.cos(half) + (lam / ad) * math.sin(half)
        return math.exp(-lam * t) * bracket * bracket
    # Overdamped regime: evaluate through logs to avoid cosh overflow.
    r = lam / ad
    xi = (1.0 - r) / (1.0 + r)
    logp = (
        -lam * t
        + ad * t
        + 2.0 * math.log(0.5 * (1.0 + r))
        + 2.0 * math.log1p(xi * math.exp(-2.0 * half))
    )
    return math.exp(logp)


def pt_values(ts, gamma0, lam):
    """:func:`pt_scalar` at each time of the 1-d array ``ts``."""
    return np.array([pt_scalar(t, gamma0, lam) for t in ts], dtype=np.float64)


_ID2 = np.eye(2, dtype=np.complex128)


def pinched_distances(rho, n):
    """Pinched Hilbert-Schmidt distances ||rho - Pi_n(rho)||^2.

    ``rho`` is the 4x4 complex density matrix and ``n`` an (m, 3) array of
    unit measurement directions on qubit A.  Each distance is computed by
    explicit pinching with the projectors (I +- n.sigma)/2 (x) I; returns
    the m distances.
    """
    proj = np.empty((n.shape[0], 2, 2), dtype=np.complex128)
    proj[:, 0, 0] = 0.5 * (1.0 + n[:, 2])
    proj[:, 0, 1] = 0.5 * (n[:, 0] - 1j * n[:, 1])
    proj[:, 1, 0] = 0.5 * (n[:, 0] + 1j * n[:, 1])
    proj[:, 1, 1] = 0.5 * (1.0 - n[:, 2])

    pinched = np.zeros((n.shape[0], 4, 4), dtype=np.complex128)
    for p in (proj, _ID2[None, :, :] - proj):
        k4 = np.einsum("gab,cd->gacbd", p, _ID2).reshape(-1, 4, 4)
        pinched += k4 @ rho[None, :, :] @ k4
    diff = rho[None, :, :] - pinched
    return np.sum(diff.real**2 + diff.imag**2, axis=(1, 2))


def measurement_scan(rho, n):
    """Minimum pinched Hilbert-Schmidt distance over measurement directions.

    ``rho`` is the 4x4 complex density matrix and ``n`` an (m, 3) array of
    unit directions on qubit A, all scanned at once by
    :func:`pinched_distances`.  Returns (best value, best direction), the
    first direction in ``n`` on a tie.
    """
    vals = pinched_distances(rho, n)
    k = int(np.argmin(vals))
    return float(vals[k]), n[k]


# Former name of the scan, kept because the benchmark's span tracer
# (perfbench/spans.py) wraps every name it lists and fails on a missing one.
measurement_scan_np = measurement_scan
