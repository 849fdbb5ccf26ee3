import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    f2_profile,
    perturb_a3,
    quintic_roots_reference,
    sample_states,
    scalar_solve_a3b3,
)
from xqcorr import _kernels
from xqcorr.closest import CaseId
from xqcorr.ensemble import HistogramSpec, SamplerConfig, run_histogram
from xqcorr.errors import SolverFailureError
from xqcorr.quantifiers import quantifiers_x


def _one(v):
    return np.array([v], dtype=np.float64)


class TestQuinticSolver:
    def test_degenerate_origin(self):
        a3, b3, ok = _kernels.solve_a3b3(_one(0.0), _one(0.0), _one(0.0))
        assert (a3[0], b3[0], ok[0]) == (0.0, 0.0, True)

    def test_matches_numpy_roots_reference(self):
        rng = np.random.default_rng(139)
        x3s, y3s, t33s = rng.uniform(-1.0, 1.0, (500, 3)).T
        stacked = _kernels.solve_a3b3(x3s, y3s, t33s)
        for i, (x3, y3, t33) in enumerate(zip(x3s, y3s, t33s)):
            a3, b3, ok = (v[i] for v in stacked)
            single = _kernels.solve_a3b3(_one(x3), _one(y3), _one(t33))
            assert (a3, b3, ok) == tuple(v[0] for v in single)
            assert ok
            roots = quintic_roots_reference(x3, y3, t33)
            best_ref = min(
                f2_profile(x3, y3, t33, r, (y3 + t33 * r) / (1 + r * r))
                for r in roots
            )
            f = f2_profile(x3, y3, t33, a3, b3)
            assert f <= best_ref + 1e-12
            # fixed-point residuals
            assert abs(a3 - (x3 + t33 * b3) / (1 + b3 * b3)) < 1e-10
            assert abs(b3 - (y3 + t33 * a3) / (1 + a3 * a3)) < 1e-12

    def test_matches_scalar_reference_bit_for_bit(self):
        # The reference seeds Newton from the complex companion, the solver
        # from the real one: equal bits mean the canonical roots do not
        # depend on the seeds.
        rng = np.random.default_rng(191)
        x3, y3, t33 = rng.uniform(-1.0, 1.0, (3, 2000))
        # x3 = y3 = 0 makes the profile even in a3: exact ties in f
        x3[:200] = y3[:200] = 0.0
        t33[:200] *= 2.0
        x3[200], y3[200], t33[200] = 0.0, 0.0, 0.0
        got = zip(*_kernels.solve_a3b3(x3, y3, t33))
        for i, (a3, b3, ok) in enumerate(got):
            assert (a3, b3, ok) == scalar_solve_a3b3(x3[i], y3[i], t33[i])

    def test_canonical_roots_bracket_the_exact_sign_change(self):
        # Exact rational arithmetic on the float coefficients: each kept root
        # and one of its two neighbouring floats bracket a sign change of q,
        # and the kept root has the smaller |q| of that pair.
        states = [p for case in (None, CaseId.CASE2)
                  for p in sample_states(seed=5, count=150, case=case)]
        r11, r22, r33, r44 = np.array([p.as_array() for p in states])[:, :4].T
        x3s, y3s, t33s = (r11 + r22 - r33 - r44, r11 - r22 + r33 - r44,
                          r11 - r22 - r33 + r44)
        roots, kept = _kernels.quintic_roots(x3s, y3s, t33s)
        assert kept.sum() >= 1000
        for i, j in zip(*np.nonzero(kept)):
            x3, y3, t33 = float(x3s[i]), float(y3s[i]), float(t33s[i])
            coeffs = [Fraction(c) for c in (
                1.0, -x3, 2.0, y3 * t33 - 2.0 * x3,
                1.0 + y3 * y3 - t33 * t33, -(x3 + y3 * t33))]

            def q(v):
                s = Fraction(0)
                for c in coeffs:
                    s = s * Fraction(v) + c
                return s

            a = float(roots[i, j])
            qa = q(a)
            pair = [abs(qn) for qn in (q(math.nextafter(a, -math.inf)),
                                       q(math.nextafter(a, math.inf)))
                    if qa * qn <= 0]
            assert pair and abs(qa) <= min(pair), (x3, y3, t33, a)

    def test_pure_state_corner(self):
        a3, b3, ok = _kernels.solve_a3b3(_one(1.0), _one(1.0), _one(1.0))
        assert ok[0] and abs(a3[0] - 1.0) < 1e-12 and abs(b3[0] - 1.0) < 1e-12


class TestBatchReports:
    def test_matches_scalar_recomputation(self):
        states = sample_states(seed=149, count=100)
        arr = np.array([p.as_array() for p in states])
        rep = _kernels.batch_reports(arr)
        for i, p in enumerate(states):
            x3 = p.rho11 + p.rho22 - p.rho33 - p.rho44
            y3 = p.rho11 - p.rho22 + p.rho33 - p.rho44
            t33 = p.rho11 - p.rho22 - p.rho33 + p.rho44
            k1 = 4 * (p.rho14 + p.rho23) ** 2
            k3 = 2 * ((p.rho11 - p.rho33) ** 2 + (p.rho22 - p.rho44) ** 2)
            assert rep[i, _kernels.COL_K1] == k1
            assert rep[i, _kernels.COL_K3] == k3
            a3 = rep[i, _kernels.COL_A3]
            b3 = rep[i, _kernels.COL_B3]
            tg_expected = (f2_profile(x3, y3, t33, a3, b3)
                           + 2 * (p.rho14 ** 2 + p.rho23 ** 2))
            assert abs(rep[i, _kernels.COL_TG] - tg_expected) < 1e-14
            case = rep[i, _kernels.COL_CASE]
            assert case == (2.0 if k1 > k3 else 1.0)

    def test_boundary_column(self):
        arr = np.array([[0.375, 0.125, 0.125, 0.375, 0.25, 0.0, 0.0, 0.0]])
        rep = _kernels.batch_reports(arr)
        assert rep[0, _kernels.COL_BOUNDARY] == 1.0

    def test_batching_changes_no_bit(self):
        n = 2 * _kernels.CHUNK_ROWS + 3
        arr = np.array([p.as_array() for p in sample_states(seed=181,
                                                            count=n)])
        arr[5] = [0.25, 0.25, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0]
        arr[_kernels.CHUNK_ROWS] = [0.375, 0.125, 0.125, 0.375,
                                    0.25, 0.0, 0.0, 0.0]
        stacked = _kernels.batch_reports(arr)
        cases = set(stacked[:, _kernels.COL_CASE].tolist())
        assert cases == {1.0, 2.0}
        assert stacked[5, _kernels.COL_TG] == 0.0
        assert stacked[_kernels.CHUNK_ROWS, _kernels.COL_BOUNDARY] == 1.0
        singles = np.concatenate(
            [_kernels.batch_reports(arr[i:i + 1]) for i in range(n)])
        assert np.array_equal(stacked, singles)

    def test_quantifier_columns_are_nonnegative(self):
        # Why quantifiers_x does not clamp: t_g, d_g, c_g and l_g are sums
        # of squares, so no row gives a negative value or -0.0.
        rows = [p.as_array() for case in (CaseId.CASE1, CaseId.CASE2)
                for p in sample_states(seed=193, count=2000, case=case)]
        rows += [[0.25, 0.25, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0],  # origin
                 [0.5, 0.0, 0.0, 0.5, 0.5, 0.0, 0.0, 0.0],  # pure (Bell)
                 [0.375, 0.125, 0.125, 0.375, 0.25, 0.0, 0.0, 0.0]]  # k1=k3
        rep = _kernels.batch_reports(np.array(rows))
        assert set(rep[:, _kernels.COL_CASE].tolist()) == {1.0, 2.0}
        quantifiers = rep[:, [_kernels.COL_TG, _kernels.COL_DG,
                              _kernels.COL_CG, _kernels.COL_LG]]
        assert np.all(quantifiers >= 0.0)
        assert not np.any(np.signbit(quantifiers))

    def test_empty_batch(self):
        rep = _kernels.batch_reports(np.empty((0, 8)))
        assert rep.shape == (0, _kernels.REPORT_COLS)

    def test_stationarity_failure_marks_row_failed(self, monkeypatch):
        perturb_a3(monkeypatch)
        for case in (CaseId.CASE1, CaseId.CASE2):
            states = sample_states(seed=167, count=20, case=case)
            rep = _kernels.batch_reports(
                np.array([p.as_array() for p in states]))
            assert np.all(rep == 0.0)
            with pytest.raises(SolverFailureError):
                quantifiers_x(states[0])
        cfg = SamplerConfig(seed=3, count=50, case_filter=CaseId.CASE2)
        with pytest.raises(SolverFailureError):
            run_histogram(cfg, HistogramSpec.default_for("rel_residual"))


class TestSurvivalKernel:
    def test_vector_matches_scalar(self):
        ts = np.linspace(0.0, 60.0, 500)
        for lam in (0.01, 1.0, 2.0, 5.0):
            vec = _kernels.pt_values(ts, 1.0, lam)
            scal = np.array([_kernels.pt_scalar(t, 1.0, lam) for t in ts])
            assert np.array_equal(vec, scal)

    def test_against_direct_formula(self):
        # underdamped closed form evaluated independently
        gamma0, lam = 1.0, 0.3
        d = math.sqrt(2 * gamma0 * lam - lam * lam)
        ts = np.linspace(0.01, 40.0, 200)
        direct = np.exp(-lam * ts) * (np.cos(d * ts / 2)
                                      + (lam / d) * np.sin(d * ts / 2)) ** 2
        assert np.allclose(_kernels.pt_values(ts, gamma0, lam), direct,
                           rtol=1e-12, atol=1e-15)

    def test_overdamped_against_cosh_formula(self):
        gamma0, lam = 1.0, 5.0
        dd = math.sqrt(lam * lam - 2 * gamma0 * lam)
        ts = np.linspace(0.01, 50.0, 200)
        direct = np.exp(-lam * ts) * (np.cosh(dd * ts / 2)
                                      + (lam / dd) * np.sinh(dd * ts / 2)) ** 2
        assert np.allclose(_kernels.pt_values(ts, gamma0, lam), direct,
                           rtol=1e-10, atol=1e-300)


class TestMeasurementScanBackends:
    def test_scan_value_is_pinched_distance(self):
        from xqcorr.quantifiers import pinched_state
        from xqcorr.states import hs_norm_sq

        p = sample_states(seed=163, count=1)[0]
        m = p.to_matrix().matrix
        theta, phi = 1.1, 2.3
        n = np.array([[math.sin(theta) * math.cos(phi),
                       math.sin(theta) * math.sin(phi), math.cos(theta)]])
        val, _ = _kernels.measurement_scan(m, n)
        direct = hs_norm_sq(m - pinched_state(p.to_matrix(), theta, phi).matrix)
        assert abs(val - direct) < 1e-14
