"""Shared helpers: deterministic state samples and independent oracles."""

import math
import os
import subprocess
import sys

import numpy as np
import scipy.optimize

import xqcorr
from xqcorr import _kernels
from xqcorr.closest import CaseId
from xqcorr.ensemble import PhaseMode, SamplerConfig, sample_x_states
from xqcorr.states import DensityMatrix4, XStateParams
from xqcorr.tolerances import PSD_FLOOR, TRACE

# Two states in which the z axis is a saddle of the pinched distance,
# 2.1e-4 and 1.3e-5 above the minimum: the 64 x 64 measurement grid puts
# its best point next to the saddle.
SADDLE_STATES = (
    XStateParams(0.46794650238846736, 0.33519685472497596,
                 0.14541937518264225, 0.051437267703914435,
                 0.14248770040959977, 0.16161966994245688,
                 2.2939789175993077, 0.945384903078164),
    XStateParams(0.30691932690353463, 0.010894390690133982,
                 0.2855878433067298, 0.3965984390996016,
                 0.21976937265579902, 0.053405573108069246,
                 1.630553198567886, 2.4158583503654336),
)


def sample_states(seed, count, case=None, phase_mode=PhaseMode.FREE):
    cfg = SamplerConfig(seed=seed, count=count, case_filter=case,
                        phase_mode=phase_mode)
    return sample_x_states(cfg)


def dense_state(seed):
    """A full-rank two-qubit state with no zero entry: G G^+ / Tr, for a
    complex Gaussian 4x4 matrix G drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return DensityMatrix4(m / m.trace().real)


def threshold_rows(seed, count):
    """(count, 8) X-parameter rows that straddle the validation thresholds.

    Each block's least eigenvalue is drawn uniformly in
    [-2 PSD_FLOOR, 0], or at its smaller diagonal entry if that is lower,
    by setting the coherence to sqrt((a - lam)(b - lam)).  A quarter of the
    rows have one block of trace 1e-4, a quarter one diagonal entry drawn
    in [-2 PSD_FLOOR, 0], a quarter one such entry in each block, and every
    trace is off by up to TRACE.  With two negative entries |x3| or |y3|
    reaches 1 + 4 PSD_FLOOR.  Rows are not filtered: most of them fail a
    block.
    """
    rng = np.random.default_rng(seed)
    d = rng.dirichlet(np.ones(4), size=count)
    rows = np.arange(count)
    small = rows[rng.random(count) < 0.25]
    pair = rng.integers(2, size=small.size)
    blocks = np.array([[0, 3], [1, 2]])
    for cols, total in ((blocks[pair], 1e-4), (blocks[1 - pair], 1.0 - 1e-4)):
        d[small[:, None], cols] *= (
            total / d[small[:, None], cols].sum(axis=1, keepdims=True))
    low = rows[rng.random(count) < 0.25]
    d[low, rng.integers(4, size=low.size)] = rng.uniform(
        -2.0 * PSD_FLOOR, 0.0, low.size)
    both = rows[rng.random(count) < 0.25]
    for block in blocks:
        d[both, block[rng.integers(2, size=both.size)]] = rng.uniform(
            -2.0 * PSD_FLOOR, 0.0, both.size)
    top = np.argmax(d, axis=1)
    d[rows, top] += 1.0 - d.sum(axis=1) + rng.uniform(-TRACE, TRACE, count)
    a, b = d[:, [0, 1]], d[:, [3, 2]]
    lam = np.minimum(rng.uniform(-2.0 * PSD_FLOOR, 0.0, (count, 2)),
                     np.minimum(a, b))
    return np.column_stack([d, np.sqrt((a - lam) * (b - lam)),
                            rng.uniform(0.0, 2.0 * math.pi, (count, 2))])


def f2_profile(x3, y3, t33, a3, b3):
    """Squared HS distance restricted to z-axis product states."""
    return 0.25 * ((x3 - a3) ** 2 + (y3 - b3) ** 2 + (t33 - a3 * b3) ** 2)


def grid_a3b3_oracle(x3, y3, t33, n=2001):
    """Brute-force global minimizer of f2_profile on [-1, 1]^2.

    Dense grid scan followed by simplex refinement; independent of the
    quintic-based solver it validates.
    """
    axis = np.linspace(-1.0, 1.0, n)
    a, b = np.meshgrid(axis, axis, indexing="ij")
    f = 0.25 * ((x3 - a) ** 2 + (y3 - b) ** 2 + (t33 - a * b) ** 2)
    i, j = np.unravel_index(np.argmin(f), f.shape)
    res = scipy.optimize.minimize(
        lambda v: f2_profile(x3, y3, t33, v[0], v[1]),
        np.array([axis[i], axis[j]]),
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-16, "maxfev": 2000},
    )
    return float(res.x[0]), float(res.x[1]), float(res.fun)


def quintic_roots_reference(x3, y3, t33):
    """Real stationary a3 values via numpy.roots (reference path)."""
    coeffs = [1.0, -x3, 2.0, y3 * t33 - 2.0 * x3,
              1.0 + y3 * y3 - t33 * t33, -(x3 + y3 * t33)]
    roots = np.roots(coeffs)
    return np.sort(roots[np.abs(roots.imag) < 1e-7].real)


def _scalar_two_sum(x, y):
    s = x + y
    z = s - x
    return s, (x - (s - z)) + (y - z)


def _scalar_split(x):
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


def _scalar_quintic_compensated(c4, c2, c1, c0, a):
    """Compensated Horner value of the monic quintic at one float."""
    ah, al = _scalar_split(a)
    s, err = _scalar_two_sum(a, c4)
    for c in (2.0, c2, c1, c0):
        p = s * a
        sh, sl = _scalar_split(s)
        perr = sl * al - (((p - sh * ah) - sl * ah) - sh * al)
        s, serr = _scalar_two_sum(p, c)
        err = err * a + (perr + serr)
    return s + err


def _scalar_canonical_root(c4, c2, c1, c0, a, dq):
    """The canonical float of one Newton root.

    Of the two adjacent floats where the compensated quintic changes sign,
    the one of smaller |q|, then of smaller |a|, walked to by at most 64
    ulps in the Newton direction; ``a`` itself without a sign change.
    """
    start = a
    qa = _scalar_quintic_compensated(c4, c2, c1, c0, a)
    if qa == 0.0 or dq == 0.0:
        return a
    toward = -math.inf if (qa > 0.0) == (dq > 0.0) else math.inf
    for _ in range(64):
        nxt = math.nextafter(a, toward)
        qn = _scalar_quintic_compensated(c4, c2, c1, c0, nxt)
        if qn == 0.0 or (qn > 0.0) != (qa > 0.0):
            if abs(qn) < abs(qa) or (abs(qn) == abs(qa)
                                     and abs(nxt) < abs(a)):
                return nxt
            return a
        a, qa = nxt, qn
    return start


def scalar_solve_a3b3(x3, y3, t33):
    """Closest-product (a3, b3, ok) of one (x3, y3, t33), one root at a time.

    Reference for the array solver in xqcorr._kernels: the same Newton stop
    rule, |q| filter, canonical root and tie-break, written as a scalar loop
    over the five roots.  Its seeds are the eigenvalues of the complex
    companion, not the bracket or the real companion the array solver
    uses, so agreement bit for bit shows that the canonical roots do not
    depend on the seeds.
    """
    if x3 == 0.0 and y3 == 0.0 and t33 == 0.0:
        return 0.0, 0.0, True
    c4, c3, c2 = -x3, 2.0, y3 * t33 - 2.0 * x3
    c1, c0 = 1.0 + y3 * y3 - t33 * t33, -(x3 + y3 * t33)

    def quintic(a):
        q = ((((a + c4) * a + c3) * a + c2) * a + c1) * a + c0
        dq = (((5.0 * a + 4.0 * c4) * a + 3.0 * c3) * a + 2.0 * c2) * a + c1
        return q, dq

    comp = np.zeros((5, 5), dtype=np.complex128)
    for i in range(4):
        comp[i + 1, i] = 1.0
    comp[0, :] = [-c4, -c3, -c2, -c1, -c0]
    best = None
    for root in np.linalg.eigvals(comp):
        a = float(root.real)
        for _ in range(60):
            q, dq = quintic(a)
            if dq == 0.0:
                break
            step = q / dq
            a -= step
            if abs(step) <= 1e-16 * max(1.0, abs(a)):
                break
        q, dq = quintic(a)
        if not abs(q) <= 1e-10:
            continue
        a = _scalar_canonical_root(c4, c2, c1, c0, a, dq)
        b = (y3 + t33 * a) / (1.0 + a * a)
        da, db, dt = x3 - a, y3 - b, t33 - a * b
        f = 0.25 * (da * da + db * db + dt * dt)
        if best is None or f < best[0] or (f == best[0] and (
                abs(a) < abs(best[1])
                or (abs(a) == abs(best[1]) and a < best[1]))):
            best = (f, a, b)
    if best is None:
        return 0.0, 0.0, False
    return best[1], best[2], True


def case_of(p):
    k1 = 4.0 * (p.rho14 + p.rho23) ** 2
    k3 = 2.0 * ((p.rho11 - p.rho33) ** 2 + (p.rho22 - p.rho44) ** 2)
    return CaseId.CASE1 if k1 <= k3 else CaseId.CASE2


def perturb_a3(monkeypatch):
    """Make the closest-product solver return a3 + 1e-6 on every row.

    The perturbed pair fails the stationarity check in batch_reports, so
    every row comes back as a solver failure.
    """
    solve = _kernels.solve_a3b3

    def perturbed(x3, y3, t33):
        a3, b3, ok = solve(x3, y3, t33)
        return a3 + 1e-6, b3, ok

    monkeypatch.setattr(_kernels, "solve_a3b3", perturbed)


def forbid(monkeypatch, module, *names):
    """Make each named function of ``module`` raise when called.

    Used to show that an oracle reaches none of the closed-form code it
    validates.
    """
    for name in names:
        def refuse(*args, _name=name, **kwargs):
            raise AssertionError("oracle called %s.%s"
                                 % (module.__name__, _name))

        monkeypatch.setattr(module, name, refuse)


# Runs one command in a process forked from a small interpreter and prints
# its ru_maxrss.  A process spawned straight from the test runner would not
# do: on Linux its ru_maxrss starts at the runner's own peak, which hides
# the command's.
_PEAK_CHILD = """
import os, resource, sys
pid = os.fork()
if pid == 0:
    from xqcorr import cli
    code = cli.main(sys.argv[1:])
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)
    os._exit(code)
sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


def peak_rss_kb(argv):
    """The peak RSS, in kilobytes (ru_maxrss on Linux), of the process that
    runs ``xqcorr`` with the arguments ``argv``; the command must exit 0."""
    src = os.path.dirname(os.path.dirname(xqcorr.__file__))
    done = subprocess.run([sys.executable, "-c", _PEAK_CHILD, *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return int(done.stdout)
