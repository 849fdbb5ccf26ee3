import math

import numpy as np
import pytest

from conftest import f2_profile, quintic_roots_reference, sample_states
from xqcorr import _kernels
from xqcorr.closest import CaseId
from xqcorr.ensemble import HistogramSpec, SamplerConfig, run_histogram
from xqcorr.errors import SolverFailureError
from xqcorr.quantifiers import quantifiers_x


class TestQuinticSolver:
    def test_degenerate_origin(self):
        assert _kernels.solve_a3b3(0.0, 0.0, 0.0) == (0.0, 0.0, True)

    def test_matches_numpy_roots_reference(self):
        rng = np.random.default_rng(139)
        for _ in range(500):
            x3, y3, t33 = rng.uniform(-1.0, 1.0, 3)
            a3, b3, ok = _kernels.solve_a3b3(x3, y3, t33)
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

    def test_pure_state_corner(self):
        a3, b3, ok = _kernels.solve_a3b3(1.0, 1.0, 1.0)
        assert ok and abs(a3 - 1.0) < 1e-12 and abs(b3 - 1.0) < 1e-12


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

    def test_stationarity_failure_marks_row_failed(self, monkeypatch):
        solve = _kernels.solve_a3b3

        def perturbed(x3, y3, t33):
            a3, b3, ok = solve(x3, y3, t33)
            return a3 + 1e-6, b3, ok

        monkeypatch.setattr(_kernels, "solve_a3b3", perturbed)
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
        val, _, _ = _kernels.measurement_scan(
            m, np.array([math.cos(theta)]), np.array([math.sin(theta)]),
            np.array([math.cos(phi)]), np.array([math.sin(phi)]))
        direct = hs_norm_sq(m - pinched_state(p.to_matrix(), theta, phi).matrix)
        assert abs(val - direct) < 1e-14
