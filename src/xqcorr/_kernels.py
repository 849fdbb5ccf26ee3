"""Numerical core: K eigenvalues, the closest-product solve, P_t, grid scan.

Everything here is plain numpy.  :func:`batch_reports` is the one place
where the X-state quantifiers are computed: it takes an (n, 8) parameter
array and returns an (n, 13) report array, and the scalar APIs in
:mod:`xqcorr.closest` and :mod:`xqcorr.quantifiers` are one-row views of
it.  Within each chunk of ``CHUNK_ROWS`` rows every step is an array
operation.  Where a proof shows the quintic increasing (every sampled row
so far), the row has one real root, solved as one float per row: a
safeguarded Newton on a known bracket, then an ulp walk on the
compensated-Horner sign of the quintic to the root's canonical float, so
a root is defined by the polynomial, not by the iteration that reached
it.  Both loops drop the rows that have stopped (Newton once fewer than
half of its rows move, the walk at every step), so the last sweeps cost
only the rows still moving: about 6.4 plain and 2.0 compensated quintic
evaluations a sampled row, where stepping the whole chunk until its last
row stops cost 8.6-9.0 and 3.0.  No row's arithmetic depends on the rows
beside it, so dropping rows moves no bit.  Only the other rows (such as
the Bell states) fall back to every real root of the row: one stacked
real companion ``eigvals``, Newton on each seed, the same walk, and the
kept root of least distance, picked by one sort of the flat list of kept
roots.  Then the report columns, on one contiguous copy of the six
parameter columns.
Per-layer timings of these kernels inside the CLI commands come from
``python3 perfbench/run.py --workload <name> --seed N --trace 1``.
"""

import math
import sys

import numpy as np

from .tolerances import CASE_BOUNDARY, ROOT_RESIDUAL, STATIONARITY

# Columns of the per-state report array produced by batch_reports.
COL_K1, COL_K2, COL_K3, COL_CASE, COL_A3, COL_B3 = 0, 1, 2, 3, 4, 5
COL_TG, COL_DG, COL_CG, COL_LG, COL_RES, COL_RESL, COL_BOUNDARY = (
    6, 7, 8, 9, 10, 11, 12,
)
REPORT_COLS = 13

# Rows per chunk of batch_reports, and of every command that streams its
# states: bounds the temporaries of the solve, the companion stack among
# them, and so the peak memory of a batch.
CHUNK_ROWS = 4096


def row_chunks(n: int):
    """The slices of ``CHUNK_ROWS`` consecutive rows that cover n rows, in
    order; only the last may be shorter."""
    return (slice(start, start + CHUNK_ROWS)
            for start in range(0, n, CHUNK_ROWS))


# The one Pauli table, in the basis {|1>, |0>}: sigma_3 = diag(1, -1).
# _PAULI_PRODUCTS[i, j] = s_i (x) s_j with s_0 = ID2 and s_1..3 = PAULI: the
# entrywise products np.kron forms, without its 16 calls at import.
_ID_AND_PAULI = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                          [[1, 0], [0, -1]]], dtype=np.complex128)
_ID_AND_PAULI.setflags(write=False)
ID2, SIGMA1, SIGMA2, SIGMA3 = _ID_AND_PAULI
PAULI = (SIGMA1, SIGMA2, SIGMA3)
_PAULI_PRODUCTS = (
    _ID_AND_PAULI[:, None, :, None, :, None]
    * _ID_AND_PAULI[None, :, None, :, None, :]).reshape(4, 4, 4, 4)
_PAULI_PRODUCTS.setflags(write=False)


def k_eigenvalues(r11, r22, r33, r44, r14, r23):
    """Closed-form eigenvalues of K from the six X-parameter columns
    rho11, rho22, rho33, rho44, rho14, rho23 (``*params.T[:6]`` of an (n, 8)
    array), each of length n.

    Returns length-n arrays (k1, k2, k3, case) where ``case`` is 1.0 when
    k1 <= k3 (the boundary belongs to case 1) and 2.0 when k1 > k3.
    """
    k1 = 4.0 * (r14 + r23) ** 2
    k2 = 4.0 * (r14 - r23) ** 2
    k3 = 2.0 * ((r11 - r33) ** 2 + (r22 - r44) ** 2)
    return k1, k2, k3, np.where(k1 <= k3, 1.0, 2.0)


def z_bloch(r11, r22, r33, r44):
    """The z-axis Bloch components (x3, y3, T33); floats or arrays alike."""
    return (r11 + r22 - r33 - r44, r11 - r22 + r33 - r44,
            r11 - r22 - r33 + r44)


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


# decimal_digits' domain, and its window of undecided fractions around 1/2.
DIGITS_MIN, DIGITS_MAX, DIGITS_WINDOW = 1e-100, 1e100, 2.0 ** -20
_pow10 = None


def _pow10_table():
    """(H, Hh, Hl, L) by row E + 102, E in [-102, 102): H + L = 10^(16 - E),
    H split for :func:`_two_product`, each rounded once from exact ints (as
    CPython's int / int is), so |H + L - 10^n| <= 2^-106 10^n.  Built on
    first use."""
    global _pow10
    if _pow10 is None:
        rows = []
        for n in range(118, -86, -1):
            num, den = 10 ** max(n, 0), 10 ** max(-n, 0)
            a, b = (num / den).as_integer_ratio()
            rows.append((a / b, (num * b - a * den) / (den * b)))
        h, low = np.array(rows).T
        _pow10 = (h, *_split(h), low)
    return _pow10


def decimal_digits(x, e=None):
    """The 17 significant digits of each float x, as %.17g prints them, for
    1-d x in [DIGITS_MIN, DIGITS_MAX): int64 d in [10^16, 10^17), e with
    x ~ d 10^(e - 16), and ``undecided``.

    d rounds y = x 10^(16 - e) = p + err + x L, with Dekker's exact
    p + err = x H and the table's H + L = 10^(16 - e): that sum is within
    5e-15 of y < 1.1e17 (2^-106 y from the table, 2^-53 11 from x L, 2^-53
    19 from the sum).  So floor(y) can be off by one only next to an
    integer, where both neighbours round alike, and a rounding is decided
    unless the fraction is within DIGITS_WINDOW of 1/2, as on every exact
    tie: ``undecided``.  The guess ``e`` (floor(log10(x)) by default) only
    picks the row: e moves down while floor(y) < 10^16 and up while the
    rounded y > 10^17, so no digit depends on the bits of log10.
    """
    e = np.clip(np.floor(np.log10(x)) if e is None else e, -101, 100)
    e, (h, hh, hl, low) = e.astype(np.int64), _pow10_table()
    n, frac = np.empty(x.shape, np.int64), np.empty(x.shape)
    redo = slice(None)  # first the whole arrays, as views: no gathers
    while x[redo].size:
        xs, row = x[redo], e[redo] + 102
        p, err = _two_product(xs, h[row], hh[row], hl[row])
        lo = err + xs * low[row]
        whole = np.floor(lo)
        # p is an integer wherever y >= 2^53; clipped, it stays in int64.
        m = np.minimum(p, 2e17).astype(np.int64) + whole.astype(np.int64)
        n[redo], frac[redo] = m, lo - whole
        up, down = m + (lo - whole > 0.5) > 10 ** 17, m < 10 ** 16
        move = up.view(np.int8) - down.view(np.int8)
        e[redo] += move
        redo = np.arange(x.size)[redo][move != 0]
    d = n + (frac > 0.5)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    return d, e + carry, np.abs(frac - 0.5) <= DIGITS_WINDOW


def _quintic_eval(c4, c2, c1, c0, a):
    """The monic quintic and its derivative at a, by Horner.

    Each is accumulated in place in one buffer: the operations and their
    order are those of ((((a + c4) a + 2) a + c2) a + c1) a + c0 and
    (((5 a + 4 c4) a + 6) a + 2 c2) a + c1, without the temporaries.
    """
    q = a + c4
    for c in (2.0, c2, c1, c0):
        q *= a
        q += c
    dq = 5.0 * a
    dq += 4.0 * c4
    for c in (6.0, 2.0 * c2, c1):
        dq *= a
        dq += c
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


def _canonicalize(c4, c2, c1, c0, a, dq):
    """The canonical float of each root ``a``, updated in place.

    Every argument is length m: one root per entry, with its quintic's
    coefficients and the derivative dq at the root.  The canonical root is
    the one of two adjacent floats, between which the compensated q changes
    sign (or reaches zero), with the smaller |q|; on an exact tie the
    smaller |a|, so the rule commutes with negation.  From each root the
    walk goes by ulps towards the sign change (the Newton direction, from
    the sign of q * dq), at most 64 steps.  ``w`` indexes the roots still
    walking, and each step evaluates only those: a root leaves it at its
    sign change, most after one step.  A root with q = 0 or dq = 0, or
    with no sign change in reach, keeps its value.  Returns ``a``.
    """
    q = _quintic_compensated(c4, c2, c1, c0, a)
    w = ((q != 0.0) & (dq != 0.0)).nonzero()[0]
    toward = np.where((q > 0.0) == (dq > 0.0), -np.inf, np.inf)[w]
    coeffs, cur, qcur = [c[w] for c in (c4, c2, c1, c0)], a[w], q[w]
    for _ in range(64):
        if not w.size:
            break
        nxt = np.nextafter(cur, toward)
        qnxt = _quintic_compensated(*coeffs, nxt)
        change = (qnxt == 0.0) | ((qnxt > 0.0) != (qcur > 0.0))
        qc, qn = np.abs(qcur), np.abs(qnxt)
        take = (qn < qc) | ((qn == qc) & (np.abs(nxt) < np.abs(cur)))
        a[w[change]] = np.where(take, nxt, cur)[change]
        rest = (~change).nonzero()[0]
        if not rest.size:
            break
        w, toward, cur, qcur = w[rest], toward[rest], nxt[rest], qnxt[rest]
        coeffs = [c[rest] for c in coeffs]
    return a


def _kept_canonical(c4, c2, c1, c0, a):
    """The |q| <= ROOT_RESIDUAL test of roots ``a``; kept ones made canonical.

    Every argument is length m, one root per entry with its quintic's
    coefficients.  Returns (a, kept), ``a`` updated in place with the
    canonical float of each kept root (:func:`_canonicalize`, which sees
    the kept roots alone).  A NaN residual is dropped, so every kept root
    has a finite distance.
    """
    q, dq = _quintic_eval(c4, c2, c1, c0, a)
    kept = np.abs(q) <= ROOT_RESIDUAL
    k = kept.nonzero()[0]
    a[k] = _canonicalize(c4[k], c2[k], c1[k], c0[k], a[k], dq[k])
    return a, kept


def _one_simple_root(x3, c2, c1):
    """Where the quintic of :func:`solve_a3b3` has one real root, simple.

    Its derivative is q' = 5 (a^2 - 0.4 x3 a)^2 + g a^2 + 2 c2 a + c1 with
    g = 6 - 0.8 x3^2, so q' > 0 everywhere where the quadratic is positive
    definite: c1 > 0 and c2^2 < g c1, here with a relative margin of 1e-12
    for rounding.  Then q increases, and its one real root is simple.
    """
    return (c1 > 0.0) & (c2 * c2 < (1.0 - 1e-12) * (6.0 - 0.8 * x3 * x3) * c1)


def _bracketed_roots(c4, c2, c1, c0, lo, hi):
    """The canonical real root of each increasing quintic, with its kept flag.

    Takes length-m arrays, each row's one real root inside [lo, hi].  A
    row with c0 = q(0) = 0 has its root at exactly 0.0: Newton from the
    bracket could stop at a tiny nonzero float, from which the ulp walk
    cannot reach 0.  Every other row runs a safeguarded Newton from the
    midpoint.  Each value of q moves the bracket end on its side to the
    iterate, and a Newton step that leaves the bracket becomes a bisection.
    A row stops when its step falls to 1e-15 * max(1, |a|), at least 4.5
    ulps of a, or after 100 steps.  The loop's arrays hold the rows
    ``live`` of the m, with ``moving`` marking those still iterating; each
    time fewer than half of them move, the stopped ones are written out and
    dropped, so the last sweeps cost only the few slow rows.  Then
    :func:`_kept_canonical`.

    Returns (a, kept), both length m.
    """
    root = np.where(c0 == 0.0, 0.0, 0.5 * (lo + hi))
    live, a, coeffs = np.arange(root.size), root, (c4, c2, c1, c0)
    moving = c0 != 0.0
    for _ in range(100):
        still = np.count_nonzero(moving)
        if not still:
            break
        if 2 * still < moving.size:
            root[live] = a
            keep = moving.nonzero()[0]
            live, a, lo, hi = live[keep], a[keep], lo[keep], hi[keep]
            coeffs, moving = [c[keep] for c in coeffs], moving[keep]
        q, dq = _quintic_eval(*coeffs, a)
        lo = np.where(q < 0.0, a, lo)
        hi = np.where(q > 0.0, a, hi)
        nxt = a - q / dq
        nxt = np.where((nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
        # np.maximum, not fmax: |nxt - a| is NaN wherever |nxt| is.
        small = np.abs(nxt - a) <= 1e-15 * np.maximum(1.0, np.abs(nxt))
        a = np.where(moving, nxt, a)
        moving &= ~small
    root[live] = a
    return _kept_canonical(c4, c2, c1, c0, root)


def _companion_roots(c4, c2, c1, c0):
    """Every canonical real root of each quintic, as a flat (rows, a).

    The seeds are the real parts of the eigenvalues of each row's 5x5
    companion matrix, all rows stacked as one float64 array, and ``rows``
    names each seed's row; where c0 = 0 the seed of least |a| is replaced
    by exactly 0.0 (a tiny nonzero eigenvalue there would stay as a kept
    root).  Newton refines every seed, linear-rate safe even at multiple
    roots, each stopping when its derivative vanishes or its step falls to
    1e-15 * max(1, |a|), or after 60 steps; ``moving`` masks the seeds
    still iterating.  Then :func:`_kept_canonical`, of which only the kept
    roots are returned, in row order, then seed order.  A seed still
    moving after the 60th step is not kept: it can sit 1e-11 from a root
    with |q| inside the filter and no sign change in the walk's reach.
    """
    m = c4.size
    comp = np.zeros((m, 5, 5))
    comp[:, (1, 2, 3, 4), (0, 1, 2, 3)] = 1.0
    comp[:, 0, 0] = -c4
    comp[:, 0, 1] = -2.0
    comp[:, 0, 2] = -c2
    comp[:, 0, 3] = -c1
    comp[:, 0, 4] = -c0
    a = np.linalg.eigvals(comp).real.ravel()
    rows = np.repeat(np.arange(m), 5)
    coeffs = [c[rows] for c in (c4, c2, c1, c0)]
    # Sorted by row, then |a|: every fifth seed is its row's least |a|.
    z = np.flatnonzero(coeffs[3] == 0.0)
    a[z[np.lexsort((np.abs(a[z]), rows[z]))[::5]]] = 0.0
    moving = np.ones(a.size, dtype=bool)
    for _ in range(60):
        if not moving.any():
            break
        q, dq = _quintic_eval(*coeffs, a)
        moving &= dq != 0.0
        step = np.divide(q, dq, out=np.zeros_like(q), where=moving)
        a = np.where(moving, a - step, a)
        moving &= ~(np.abs(step) <= 1e-15 * np.fmax(1.0, np.abs(a)))
    a, kept = _kept_canonical(*coeffs, a)
    kept &= ~moving
    return rows[kept], a[kept]


def _least_distance(x3, y3, t33, rows, a):
    """Each row's kept root of least distance, of a flat list of roots.

    ``rows`` names the row of each root ``a``, in row order.  One stable
    sort by (row, f, |a3|, a3) puts first in each row its least (f, |a3|,
    a3), the first in root order on a full tie: the root a scan in root
    order would end on if it moved only to a strictly better root.
    Returns (a3, found), a3 = 0.0 where a row has no root.
    """
    x3r, y3r, t33r = x3[rows], y3[rows], t33[rows]
    b = (y3r + t33r * a) / (1.0 + a * a)
    da = x3r - a
    db = y3r - b
    dt = t33r - a * b
    f = 0.25 * (da * da + db * db + dt * dt)
    order = np.lexsort((a, np.abs(a), f, rows))
    first = order[np.diff(rows[order], prepend=-1) != 0]
    a3 = np.zeros(x3.shape[0])
    a3[rows[first]] = a[first]
    return a3, np.bincount(rows, minlength=x3.shape[0]) > 0


def solve_a3b3(x3, y3, t33):
    """Global minimizers of the z-axis product-distance profile.

    Takes length-n float arrays.  Eliminates b3 exactly (the distance is
    strictly convex in b3 for fixed a3); the stationary a3 values are the
    real roots of the monic quintic

        q(a) = (a - x3)(1 + a^2)^2 + (y3 + T33 a)(y3 a - T33).

    Each row's roots come from one of two paths, chosen by a proof.  Where
    :func:`_one_simple_root` holds, the one real root lies in
    [x3 - R^2/2, x3 + R^2/2] with R^2 = y3^2 + T33^2: with y3 = R cos(phi),
    T33 = R sin(phi) and a = tan(theta),

        q / (1 + a^2) = (a - x3)(1 + a^2) + (R^2 / 2) sin 2(theta - phi).

    :func:`_bracketed_roots` solves it on that bracket, and a3 is that
    root, taken as it is: no companion or sort touches it.  Every other row
    goes to :func:`_companion_roots`, which seeds every root from the
    companion matrix, and its kept root of least distance wins
    (:func:`_least_distance`): the Bell states (0, 0, +-1), where
    q = a^3 (a^2 + 2) has a triple root at 0, valid states just past the
    validity tetrahedron next to them, such as (0.5 + 5e-13, -5e-13,
    -5e-13, 0.5 + 5e-13, 0.5, 0) with c1 = -4e-12, and rows outside it.
    None of the 35,596 valid rows of 2x10^5 ``threshold_rows`` of the
    tests (seed 1) does, 2,827 with a negative diagonal entry in each
    block among them.  A root is kept when its quintic residual is
    |q| <= ``ROOT_RESIDUAL``, and each kept root is its canonical float
    (:func:`_canonicalize`), which depends on the polynomial alone, not on
    the seed or the iteration that reached it.  b3 is the exact minimizer
    for that a3.

    Returns arrays (a3, b3, ok); ok=False marks a row where no real
    stationary point was identified: every root of a degree-5 real
    polynomial is seeded, from a bracket or from the companion's
    eigenvalues, so only a root that Newton cannot polish to ``ROOT_RESIDUAL``
    gives it, as with inputs so large that q overflows, and a row with a
    NaN or an inf coefficient, which neither path takes, is (0, 0, False).
    The origin x3 = y3 = t33 = 0 is certified, with c0 = 0, so its root is
    exactly 0.0 and it is (0, 0, True).
    """
    c4 = -x3
    c2 = y3 * t33 - 2.0 * x3
    c1 = 1.0 + y3 * y3 - t33 * t33
    c0 = -(x3 + y3 * t33)
    one = _one_simple_root(x3, c2, c1)
    finite = (np.isfinite(c4) & np.isfinite(c2) & np.isfinite(c1)
              & np.isfinite(c0))
    a3 = np.zeros(x3.shape[0])
    found = np.zeros(x3.shape[0], dtype=bool)

    i = np.flatnonzero(one & finite)
    half = 0.5 * (y3[i] * y3[i] + t33[i] * t33[i])
    a, kept = _bracketed_roots(c4[i], c2[i], c1[i], c0[i],
                               x3[i] - half, x3[i] + half)
    a3[i], found[i] = np.where(kept, a, 0.0), kept

    j = np.flatnonzero(~one & finite)
    if j.size:
        rows, roots = _companion_roots(c4[j], c2[j], c1[j], c0[j])
        a3[j], found[j] = _least_distance(x3[j], y3[j], t33[j], rows, roots)
    b3 = np.where(found, (y3 + t33 * a3) / (1.0 + a3 * a3), 0.0)
    return a3, b3, found


def batch_reports(params):
    """Per-state correlation quantities for an (n, 8) X-parameter array.

    Row layout of ``params``: rho11, rho22, rho33, rho44, rho14, rho23,
    gamma14, gamma23.  All emitted quantities are phase-independent, so the
    last two columns are accepted but unused.

    Returns an (n, 13) array with columns k1, k2, k3, case, a3, b3, tg, dg,
    cg, lg, res, res_l, boundary; ``case`` is 1.0/2.0, and a row of zeros
    (case 0.0) marks a failure on that row (callers raise): a NaN or an
    inf among its first six parameters, no real stationary point, or an
    (a3, b3) whose z-axis stationarity residual exceeds ``STATIONARITY``.

    Works in chunks of ``CHUNK_ROWS`` rows, one :func:`solve_a3b3` call
    each; no row's result depends on the rows batched with it.
    """
    out = np.empty((params.shape[0], REPORT_COLS), dtype=np.float64)
    # A non-finite row would warn as it is computed; it is then zeroed.
    with np.errstate(invalid="ignore", over="ignore"):
        for rows in row_chunks(params.shape[0]):
            _fill_reports(params[rows], out[rows])
    return out


def _fill_reports(params, out):
    # The six columns, copied once into contiguous rows: every array
    # operation below then reads memory in order, not with an 8-float stride.
    cols = params[:, :6].T.copy()
    r11, r22, r33, r44, r14, r23 = cols
    k1, k2, k3, case = k_eigenvalues(*cols)
    x3, y3, t33 = z_bloch(r11, r22, r33, r44)

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

    out[:, COL_K1], out[:, COL_K2], out[:, COL_K3] = k1, k2, k3
    out[:, COL_CASE], out[:, COL_A3], out[:, COL_B3] = case, a3, b3
    out[:, COL_TG], out[:, COL_DG], out[:, COL_CG], out[:, COL_LG] = (
        tg, dg, cg, lg)
    out[:, COL_RES] = tg - dg - cg
    out[:, COL_RESL] = tg + lg - dg - cg
    out[:, COL_BOUNDARY] = np.abs(k1 - k3) <= CASE_BOUNDARY
    finite = np.isfinite(cols).all(axis=0)
    out[~(finite & ok & (stationarity <= STATIONARITY))] = 0.0


def _mapped(f, x):
    """The one-float math function f at each float of the array x."""
    return np.fromiter(map(f, x.tolist()), np.float64, x.size)


def pt_values(ts, gamma0, lam):
    """Excited-state survival probability of the damped qubit at each time
    of the 1-d array ``ts``: the rate-only terms once, then math.exp,
    math.cos, math.sin and math.log1p mapped over the times, with numpy's +
    and * between them in the one-time formula's order, bit for bit.

    lam/gamma0 may be 0 (P = 1 at finite t) or inf (P = exp(-gamma0*t)).
    Against 200-bit mpmath the error is within 3 eps (1 + kappa) relative,
    kappa P's condition number in the rates; near the bracket's zeros it
    reaches 2.5e5 ulps of P, but within eps (1 + kappa): conditioning alone."""
    overdamped = lam > 2.0 * gamma0
    if overdamped:
        # |d| = lam*s without forming lam^2, which overflows from lam ~ 1e154.
        s = math.sqrt(1.0 - 2.0 * gamma0 / lam)
        ad = lam * s
    else:
        # Factored where 2*gamma0*lam overflows or is subnormal; where q does
        # too (lam/gamma0 < ~1e-308, or 0), d^2 = 2*gamma0*lam to the bit.
        g2 = 2.0 * gamma0 * lam
        d2 = g2 - lam * lam
        q = 2.0 * (gamma0 / lam) if lam else math.inf
        ad = (math.sqrt(d2) if math.isfinite(d2) and g2 >= sys.float_info.min
              else lam * math.sqrt(q - 1.0) if q < math.inf
              else math.sqrt(2.0 * lam) * math.sqrt(gamma0))
    out = np.where(ts == 0.0, 1.0, 0.0)  # P(0) = 1 and P(inf) = 0, exactly
    with np.errstate(all="ignore"):
        x = ad * ts  # NaN at t = 0 where lam = inf
        done = (ts == 0.0) | (ts == math.inf)
        if not overdamped:  # exp(-lam*t) is 0.0, or d*t is past the range
            done |= (lam * ts == math.inf) | (x == math.inf)
        # Series in d^2 t^2: exact at d = 0, and NaN times, where d may be 0.
        series = ~done & ~(x >= 1e-6)
        rest = ~done & (x >= 1e-6)
        t, d2t2 = ts[series], (-x if overdamped else x)[series] * x[series]
        bracket = 1.0 + 0.5 * lam * t - d2t2 / 8.0 - lam * t * d2t2 / 48.0
        out[series] = _mapped(math.exp, -lam * t) * bracket * bracket
        t, x = ts[rest], x[rest]
        if t.size and not overdamped:
            bracket = (_mapped(math.cos, 0.5 * x)
                       + (lam / ad) * _mapped(math.sin, 0.5 * x))
            out[rest] = _mapped(math.exp, -lam * t) * bracket * bracket
        elif t.size:
            # Overdamped, through logs against cosh overflow; -lam*t + ad*t
            # is -2*gamma0*t/(1 + s), which does not cancel as lam grows.
            r = 1.0 / s
            xi = (1.0 - r) / (1.0 + r)
            logp = (-2.0 * gamma0 * t / (1.0 + s)
                    + 2.0 * math.log(0.5 * (1.0 + r))
                    + 2.0 * _mapped(math.log1p, xi * _mapped(math.exp, -x)))
            out[rest] = _mapped(math.exp, logp)
    return np.minimum(out, 1.0, out=out)  # rounding gave up to 1 + 2^-52


# sigma_i (x) I for i = 1, 2, 3: the Pauli matrices acting on qubit A.
_SIGMA_A = _PAULI_PRODUCTS[1:, 0]


def pinched_distances(rho, n):
    """Pinched Hilbert-Schmidt distances ||rho - Pi_n(rho)||^2.

    ``rho`` is a (..., 4, 4) stack of complex density matrices and ``n`` a
    (..., m, 3) stack of unit measurement directions on qubit A; the
    leading axes broadcast, so one state (4, 4) with (m, 3) directions
    gives (m,) and S states (S, 4, 4) with (S, m, 3) give (S, m).

    The pinching is explicit, on the matrix.  With N = (n.sigma) (x) I the
    projectors are (I +- N)/2, so Pi_n(rho) = (rho + N rho N)/2 and the
    distance is ||rho - N rho N||^2 / 4: one sandwich per direction.  The
    sandwich is bilinear in n, N rho N = sum_ij n_i n_j (sigma_i (x) I) rho
    (sigma_j (x) I), so each state's nine Pauli sandwiches are formed once
    and every direction's N rho N is one row of an (m, 9) @ (9, 16) product
    (real and imaginary parts side by side).  That product is a BLAS
    matrix product per state, so a direction's value can move in its last
    bit with the number m of directions in the call, though not with the
    states stacked beside it.
    """
    sandwiches = (_SIGMA_A[:, None] @ rho[..., None, None, :, :]
                  @ _SIGMA_A).reshape(rho.shape[:-2] + (9, 16))
    sandwiches = np.concatenate([sandwiches.real, sandwiches.imag], axis=-1)
    flat = rho.reshape(rho.shape[:-2] + (1, 16))
    flat = np.concatenate([flat.real, flat.imag], axis=-1)
    nn = (n[..., :, None] * n[..., None, :]).reshape(n.shape[:-1] + (9,))
    diff = nn @ sandwiches
    np.subtract(flat, diff, out=diff)  # in place: (m, 32) per state
    diff *= diff
    return 0.25 * np.sum(diff, axis=-1)


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
