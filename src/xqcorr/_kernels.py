"""Numerical core: K eigenvalues, the closest-product solve, P_t, grid scan.

Everything here is plain numpy.  :func:`batch_reports` is the one place
where the X-state quantifiers are computed: it takes an (n, 8) parameter
array and returns an (n, 13) report array, and the scalar APIs in
:mod:`xqcorr.closest` and :mod:`xqcorr.quantifiers` are one-row views of
it.  Per-layer timings of these kernels inside the CLI commands come from
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


def _polish_root(c4, c3, c2, c1, c0, a):
    # Newton refinement; linear-rate safe even at multiple roots.
    for _ in range(60):
        q, dq = _quintic_eval(c4, c3, c2, c1, c0, a)
        if dq == 0.0:
            break
        step = q / dq
        a -= step
        if abs(step) <= 1e-16 * max(1.0, abs(a)):
            break
    return a


def solve_a3b3(x3, y3, t33):
    """Global minimizer of the z-axis product-distance profile.

    Eliminates b3 exactly (the distance is strictly convex in b3 for fixed
    a3), enumerates the stationary a3 values as real roots of the resulting
    monic quintic via its companion matrix, and returns the argmin with
    ties broken by smaller |a3| then smaller a3.

    Returns (a3, b3, ok) where ok=False means no real stationary point was
    identified (cannot happen for a degree-5 real polynomial unless the
    eigensolver misbehaves).
    """
    if x3 == 0.0 and y3 == 0.0 and t33 == 0.0:
        return 0.0, 0.0, True

    c4 = -x3
    c3 = 2.0
    c2 = y3 * t33 - 2.0 * x3
    c1 = 1.0 + y3 * y3 - t33 * t33
    c0 = -(x3 + y3 * t33)

    comp = np.zeros((5, 5), dtype=np.complex128)
    for i in range(4):
        comp[i + 1, i] = 1.0
    comp[0, 0] = -c4
    comp[0, 1] = -c3
    comp[0, 2] = -c2
    comp[0, 3] = -c1
    comp[0, 4] = -c0
    roots = np.linalg.eigvals(comp)

    best_f = np.inf
    best_a = 0.0
    best_b = 0.0
    found = False
    for k in range(5):
        a = _polish_root(c4, c3, c2, c1, c0, roots[k].real)
        q, _ = _quintic_eval(c4, c3, c2, c1, c0, a)
        if abs(q) > 1e-10:
            continue
        b = (y3 + t33 * a) / (1.0 + a * a)
        da = x3 - a
        db = y3 - b
        dt = t33 - a * b
        f = 0.25 * (da * da + db * db + dt * dt)
        if not found:
            take = True
        elif f < best_f:
            take = True
        elif f == best_f and (
            abs(a) < abs(best_a) or (abs(a) == abs(best_a) and a < best_a)
        ):
            take = True
        else:
            take = False
        if take:
            best_f = f
            best_a = a
            best_b = b
            found = True
    return best_a, best_b, found


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
    """
    k1, k2, k3, case = k_eigenvalues(params)
    out = np.empty((params.shape[0], REPORT_COLS), dtype=np.float64)
    out[:, COL_K1] = k1
    out[:, COL_K2] = k2
    out[:, COL_K3] = k3
    out[:, COL_CASE] = case
    out[:, COL_BOUNDARY] = np.abs(k1 - k3) <= CASE_BOUNDARY
    case2 = (case == 2.0).tolist()
    for i, (r11, r22, r33, r44, r14, r23) in enumerate(
            params[:, :6].tolist()):
        x3 = r11 + r22 - r33 - r44
        y3 = r11 - r22 + r33 - r44
        t33 = r11 - r22 - r33 + r44

        a3, b3, ok = solve_a3b3(x3, y3, t33)
        stationarity = max(abs(a3 - (x3 + t33 * b3) / (1.0 + b3 * b3)),
                           abs(b3 - (y3 + t33 * a3) / (1.0 + a3 * a3)))
        if not (ok and stationarity <= STATIONARITY):
            out[i, :] = 0.0
            continue

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
        if case2[i]:
            dg = sminus * sminus + 0.5 * (u * u + v * v)
            cg = splus * splus
            lg = a3 * a3 * (dt * dt + 1.0 + b3 * b3) * 0.25
        else:
            dg = block
            cg = fpart
            lg = 0.0
        out[i, COL_A3:COL_BOUNDARY] = (a3, b3, tg, dg, cg, lg,
                                       tg - dg - cg, tg + lg - dg - cg)
    return out


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
    out = np.empty(ts.shape[0], dtype=np.float64)
    for i in range(ts.shape[0]):
        out[i] = pt_scalar(ts[i], gamma0, lam)
    return out


_ID2 = np.eye(2, dtype=np.complex128)


def measurement_scan(rho, cos_t, sin_t, cos_p, sin_p):
    """Minimum pinched Hilbert-Schmidt distance over a measurement grid.

    ``rho`` is the 4x4 complex density matrix; the four angle arrays hold
    cos/sin of the polar and azimuthal grids.  Scans all (theta, phi)
    pairs at once; returns (best value, theta index, phi index).
    """
    ct, cp = np.meshgrid(cos_t, cos_p, indexing="ij")
    st, sp = np.meshgrid(sin_t, sin_p, indexing="ij")
    n1 = (st * cp).ravel()
    n2 = (st * sp).ravel()
    n3 = ct.ravel()

    proj = np.empty((n1.size, 2, 2), dtype=np.complex128)
    proj[:, 0, 0] = 0.5 * (1.0 + n3)
    proj[:, 0, 1] = 0.5 * (n1 - 1j * n2)
    proj[:, 1, 0] = 0.5 * (n1 + 1j * n2)
    proj[:, 1, 1] = 0.5 * (1.0 - n3)

    pinched = np.zeros((n1.size, 4, 4), dtype=np.complex128)
    for p in (proj, _ID2[None, :, :] - proj):
        k4 = np.einsum("gab,cd->gacbd", p, _ID2).reshape(-1, 4, 4)
        pinched += k4 @ rho[None, :, :] @ k4
    diff = rho[None, :, :] - pinched
    vals = np.sum(diff.real**2 + diff.imag**2, axis=(1, 2))
    flat = int(np.argmin(vals))
    return float(vals[flat]), flat // cos_p.size, flat % cos_p.size


# Former name of the scan, kept because the benchmark's span tracer
# (perfbench/spans.py) wraps every name it lists and fails on a missing one.
measurement_scan_np = measurement_scan
