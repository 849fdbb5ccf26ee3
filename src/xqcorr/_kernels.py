"""Numerical core: K eigenvalues, the closest-product solve, P_t, grid scan.

Everything here is plain numpy.  :func:`batch_reports` is the one place
where the X-state quantifiers are computed: it takes an (n, 8) parameter
array and returns an (n, 13) report array, and the scalar APIs in
:mod:`xqcorr.closest` and :mod:`xqcorr.quantifiers` are one-row views of
it.  Within each chunk of ``CHUNK_ROWS`` rows every step is an array
operation: one stacked real companion ``eigvals`` seeds the quintic's
roots, Newton polishes them all under a per-root convergence mask, an ulp
walk on the compensated-Horner sign of the quintic moves each root to its
canonical float (so a root is defined by the polynomial, not by its
seed), then the tie-broken argmin and the report columns.
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


# Dekker's splitting constant 2^27 + 1.  numpy has no fused multiply-add, so
# exact products go through halves of 26 bits whose products are exact.
_SPLIT = 134217729.0


def _two_sum(x, y):
    """fl(x + y) and its rounding error: x + y == s + e exactly (Knuth)."""
    s = x + y
    z = s - x
    return s, (x - (s - z)) + (y - z)


def _split(x):
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def _two_product(x, y, yh, yl):
    """fl(x * y) and its rounding error, with y split as yh + yl (Dekker)."""
    p = x * y
    xh, xl = _split(x)
    return p, xl * yl - (((p - xh * yh) - xl * yh) - xh * yl)


def _quintic_eval(c4, c2, c1, c0, a):
    """The monic quintic and its derivative at a, by Horner."""
    q = ((((a + c4) * a + 2.0) * a + c2) * a + c1) * a + c0
    dq = (((5.0 * a + 4.0 * c4) * a + 6.0) * a + 2.0 * c2) * a + c1
    return q, dq


def _quintic_compensated(c4, c2, c1, c0, a):
    """The monic quintic at a by compensated Horner.

    Each Horner step's product and sum errors are captured exactly (Dekker's
    TwoProduct and Knuth's TwoSum) and summed in a second Horner pass, so the
    value is as accurate as Horner in twice the working precision, rounded
    once (Ogita, Rump & Oishi 2005; Graillat, Langlois & Louvet 2009).
    """
    ah, al = _split(a)
    s, err = _two_sum(a, c4)
    for c in (2.0, c2, c1, c0):
        p, perr = _two_product(s, a, ah, al)
        s, serr = _two_sum(p, c)
        err = err * a + (perr + serr)
    return s + err


def _canonicalize(c4, c2, c1, c0, a, dq, kept):
    """Move each ``kept`` root of ``a``, in place, to its canonical float.

    ``a``, ``dq`` and ``kept`` are (n, 5) and the coefficients length n.
    The canonical root is the one of two adjacent floats, between which the
    compensated q changes sign (or reaches zero), with the smaller |q|; on
    an exact tie the smaller |a|, so the rule commutes with negation.  From
    each root the walk goes by ulps towards the sign change (the Newton
    direction, from the sign of q * dq), at most 64 steps, with ``rows``
    and ``cols`` indexing the roots still walking.  A root with q = 0 or
    dq = 0, or with no sign change in reach, keeps its value.
    """
    # The first step is taken by every root, on the full arrays; later ones
    # only by the roots still walking, gathered.
    cc = (c4[:, None], c2[:, None], c1[:, None], c0[:, None])
    q = _quintic_compensated(*cc, a)
    down = (q > 0.0) == (dq > 0.0)
    nxt = np.nextafter(a, np.where(down, -np.inf, np.inf))
    qnxt = _quintic_compensated(*cc, nxt)
    rows, cols = np.nonzero(kept & (q != 0.0) & (dq != 0.0))
    cur, qcur, nxt, qnxt, down = (
        v[rows, cols] for v in (a, q, nxt, qnxt, down))
    for step in range(64):
        if step:
            nxt = np.nextafter(cur, np.where(down, -np.inf, np.inf))
            qnxt = _quintic_compensated(c4[rows], c2[rows], c1[rows],
                                        c0[rows], nxt)
        change = (qnxt == 0.0) | ((qnxt > 0.0) != (qcur > 0.0))
        qc, qn = np.abs(qcur[change]), np.abs(qnxt[change])
        ac, an = cur[change], nxt[change]
        take = (qn < qc) | ((qn == qc) & (np.abs(an) < np.abs(ac)))
        a[rows[change], cols[change]] = np.where(take, an, ac)
        walking = ~change
        rows, cols, cur, qcur, down = (
            v[walking] for v in (rows, cols, nxt, qnxt, down))
        if rows.size == 0:
            break


def quintic_roots(x3, y3, t33):
    """Canonical real stationary a3 values of the z-axis profile.

    Takes length-n float arrays.  Eliminates b3 exactly (the distance is
    strictly convex in b3 for fixed a3); the stationary a3 values are the
    real roots of the resulting monic quintic.  Its seeds are the
    eigenvalues of all n companion matrices, stacked as one (n, 5, 5)
    float64 array.  Newton refines all (n, 5) seeds, each stopping when its
    derivative vanishes or its step falls to 1e-16 * max(1, |a|), after at
    most 60 steps.  A root is kept when its quintic residual is
    |q| <= 1e-10 (a NaN residual is dropped, so every kept root has a finite
    distance), and each kept root is then replaced by its canonical float
    (:func:`_canonicalize`).  A canonical root depends on the polynomial
    alone, not on the seed or the iteration that reached it.

    Returns (a, kept), both (n, 5).
    """
    n = x3.shape[0]
    c4 = -x3
    c2 = y3 * t33 - 2.0 * x3
    c1 = 1.0 + y3 * y3 - t33 * t33
    c0 = -(x3 + y3 * t33)

    comp = np.zeros((n, 5, 5))
    comp[:, (1, 2, 3, 4), (0, 1, 2, 3)] = 1.0
    comp[:, 0, 0] = -c4
    comp[:, 0, 1] = -2.0
    comp[:, 0, 2] = -c2
    comp[:, 0, 3] = -c1
    comp[:, 0, 4] = -c0
    a = np.linalg.eigvals(comp).real.flatten()
    del comp  # not needed past the seeds; lowers the chunk's peak memory

    # Newton refinement, linear-rate safe even at multiple roots; ``live``
    # indexes the flattened (n, 5) roots still iterating, ``live // 5``
    # their rows.
    live = np.arange(a.size)
    for _ in range(60):
        if live.size == 0:
            break
        r = live // 5
        q, dq = _quintic_eval(c4[r], c2[r], c1[r], c0[r], a[live])
        moving = dq != 0.0
        live = live[moving]
        step = q[moving] / dq[moving]
        polished = a[live] - step
        a[live] = polished
        live = live[~(np.abs(step) <= 1e-16 * np.fmax(1.0, np.abs(polished)))]

    a = a.reshape(n, 5)
    q, dq = _quintic_eval(c4[:, None], c2[:, None], c1[:, None], c0[:, None],
                          a)
    kept = np.abs(q) <= 1e-10
    _canonicalize(c4, c2, c1, c0, a, dq, kept)
    return a, kept


def solve_a3b3(x3, y3, t33):
    """Global minimizers of the z-axis product-distance profile.

    Takes length-n float arrays.  Of the kept canonical roots of
    :func:`quintic_roots`, the one of least distance wins, ties broken by
    smaller |a3| then smaller a3, then root order.  b3 is the exact
    minimizer for that a3.

    Returns arrays (a3, b3, ok); ok=False marks a row where no real
    stationary point was identified (cannot happen for a degree-5 real
    polynomial unless the eigensolver misbehaves).  The origin
    x3 = y3 = t33 = 0 is (0, 0, True).
    """
    n = x3.shape[0]
    a, kept = quintic_roots(x3, y3, t33)
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
    overdamped = lam > 2.0 * gamma0
    if overdamped:
        # |d| = lam*s without forming lam^2, which overflows from lam ~ 1e154.
        s = math.sqrt(1.0 - 2.0 * gamma0 / lam)
        ad = lam * s
    else:
        d2 = 2.0 * gamma0 * lam - lam * lam
        # 2*gamma0*lam overflows from ~1e308 (to inf, or to inf - inf); the
        # factored form does not, and where d2 is finite the bits stay as
        # they are.  Underdamped means gamma0/lam >= 1/2.
        ad = (math.sqrt(d2) if math.isfinite(d2)
              else lam * math.sqrt(2.0 * (gamma0 / lam) - 1.0))
    x = ad * t
    if x < 1e-6:
        # Series in d^2 t^2 (x^2, or -x^2 when overdamped); also covers the
        # d -> 0 boundary exactly.
        d2t2 = -x * x if overdamped else x * x
        bracket = 1.0 + 0.5 * lam * t - d2t2 / 8.0 - lam * t * d2t2 / 48.0
        return math.exp(-lam * t) * bracket * bracket
    if not overdamped:
        bracket = math.cos(0.5 * x) + (lam / ad) * math.sin(0.5 * x)
        return math.exp(-lam * t) * bracket * bracket
    # Overdamped, through logs to avoid cosh overflow.  -lam*t + ad*t is
    # written as -2*gamma0*t/(1 + s), which does not cancel as lam grows.
    r = 1.0 / s
    xi = (1.0 - r) / (1.0 + r)
    logp = (
        -2.0 * gamma0 * t / (1.0 + s)
        + 2.0 * math.log(0.5 * (1.0 + r))
        + 2.0 * math.log1p(xi * math.exp(-x))
    )
    return math.exp(logp)


def pt_values(ts, gamma0, lam):
    """:func:`pt_scalar` at each time of the 1-d array ``ts``."""
    return np.array([pt_scalar(t, gamma0, lam) for t in ts.tolist()],
                    dtype=np.float64)


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
