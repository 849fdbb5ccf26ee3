import json
import math

import numpy as np
import pytest

from conftest import sample_states
from xqcorr import _kernels
from xqcorr.cli import main
from xqcorr.dynamics import (
    TRAJECTORY_CSV_HEADER,
    DynamicsConfig,
    case_crossings,
    evolve,
    p_t,
    trajectory,
    trajectory_csv,
)
from xqcorr.quantifiers import csv_float
from xqcorr.states import XStateParams, state_to_json_dict

FIG3_INITIAL = XStateParams(2.0 / 3.0, 0.0, 0.0, 1.0 / 3.0,
                            math.sqrt(2.0) / 3.0, 0.0)


class TestSurvivalProbability:
    def test_at_zero(self):
        assert p_t(0.0, 1.0, 0.01) == 1.0
        assert p_t(0.0, 2.0, 5.0) == 1.0

    def test_critical_damping_matches_limit(self):
        # lambda = 2*gamma0 makes d = 0 and P_t = exp(-lam t)(1 + lam t/2)^2.
        lam = 2.0
        for t in (0.0, 0.1, 0.5, 1.0, 3.0, 10.0):
            exact = math.exp(-lam * t) * (1.0 + 0.5 * lam * t) ** 2
            assert abs(p_t(t, 1.0, lam) - exact) < 1e-12

    def test_series_branch_matches_trig_formula(self):
        # Inside the series window the expansion must agree with the exact
        # bracket evaluated in extended precision terms.
        gamma0, lam = 1.0, 1.99999
        d = math.sqrt(2 * gamma0 * lam - lam * lam)
        t_edge = 1e-6 / d
        for f in (0.2, 0.9, 0.999):
            t = t_edge * f
            exact = math.exp(-lam * t) * (
                math.cos(d * t / 2) + (lam / d) * math.sin(d * t / 2)) ** 2
            assert abs(p_t(t, gamma0, lam) - exact) < 1e-13

    def test_strong_coupling_touches_zero(self):
        gamma0, lam = 1.0, 0.01
        d = math.sqrt(2 * gamma0 * lam - lam * lam)
        # bracket vanishes where tan(d t / 2) = -d / lambda
        t_zero = 2.0 * (math.pi - math.atan2(d, lam)) / d
        assert p_t(t_zero, gamma0, lam) < 1e-15

    def test_range_both_regimes(self):
        ts = np.linspace(0.0, 200.0, 4001)
        for lam in (0.01, 0.5, 1.9, 2.0, 2.1, 8.0):
            vals = p_t(ts, 1.0, lam)
            assert np.all(vals >= 0.0)
            assert np.all(vals <= 1.0 + 1e-12)
            assert np.all(np.isfinite(vals))

    def test_overdamped_no_overflow(self):
        assert p_t(500.0, 1.0, 50.0) >= 0.0

    def test_overdamped_tends_to_markov_limit(self):
        # P_t -> exp(-gamma0 t) as lambda grows, with an O(gamma0/lambda)
        # error; lambda^2 overflows from about 1e154.
        for lam in 10.0 ** np.arange(3, 301, 3):
            p = _kernels.pt_scalar(0.5, 1.0, lam)
            assert abs(p - math.exp(-0.5)) <= 1.0 / lam + 1e-16
            assert _kernels.pt_scalar(0.0, 1.0, lam) == 1.0

    def test_array_shape(self):
        ts = np.linspace(0, 5, 7).reshape(7, 1)
        assert p_t(ts, 1.0, 0.5).shape == (7, 1)


class TestEvolve:
    def test_initial_point_exact(self):
        cfg = DynamicsConfig(1.0, 0.5, 10.0, 50, FIG3_INITIAL)
        first = evolve(cfg)[0]
        s = first.state
        assert s.rho11 == FIG3_INITIAL.rho11
        assert s.rho22 == FIG3_INITIAL.rho22
        assert s.rho33 == FIG3_INITIAL.rho33
        assert s.rho14 == FIG3_INITIAL.rho14
        assert s.rho23 == FIG3_INITIAL.rho23
        assert abs(s.rho44 - FIG3_INITIAL.rho44) <= 2e-16

    def test_trace_preserved(self):
        cfg = DynamicsConfig(1.0, 0.7, 30.0, 200, FIG3_INITIAL)
        for pt in evolve(cfg):
            s = pt.state
            total = s.rho11 + s.rho22 + s.rho33 + s.rho44
            assert abs(total - 1.0) <= 1e-15

    def test_positivity_blocks(self):
        initials = sample_states(seed=137, count=20)
        for lam in (1.2, 2.0, 4.0):
            for init in initials[:10]:
                cfg = DynamicsConfig(1.0, lam, 40.0, 50, init)
                for pt in evolve(cfg):
                    s = pt.state
                    assert s.rho14 ** 2 <= s.rho11 * s.rho44 + 1e-10
                    assert s.rho23 ** 2 <= s.rho22 * s.rho33 + 1e-10
                    assert min(s.rho11, s.rho22, s.rho33, s.rho44) >= -1e-10

    def test_long_time_ground_state(self):
        cfg = DynamicsConfig(1.0, 4.0, 5000.0, 3, FIG3_INITIAL)
        final = evolve(cfg)[-1].state
        assert final.rho44 >= 1.0 - 1e-8
        assert final.rho14 <= 1e-8

    def test_phases_unchanged(self):
        init = XStateParams(0.4, 0.2, 0.2, 0.2, 0.1, 0.05, 1.0, 2.5)
        cfg = DynamicsConfig(1.0, 0.5, 10.0, 20, init)
        for pt in evolve(cfg):
            assert pt.state.gamma14 == 1.0
            assert pt.state.gamma23 == 2.5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DynamicsConfig(0.0, 1.0, 1.0, 10, FIG3_INITIAL)
        with pytest.raises(ValueError):
            DynamicsConfig(1.0, -1.0, 1.0, 10, FIG3_INITIAL)
        with pytest.raises(ValueError):
            DynamicsConfig(1.0, 1.0, 1.0, 1, FIG3_INITIAL)

    def test_config_rejects_non_finite(self):
        for bad in (math.inf, -math.inf, math.nan):
            for args in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
                with pytest.raises(ValueError, match="must be finite"):
                    DynamicsConfig(*args, 10, FIG3_INITIAL)


    @pytest.mark.filterwarnings("error")
    def test_underdamped_past_the_product_overflow(self, tmp_path):
        # 2*gamma0*lambda overflows to inf (first run) or gives inf - inf
        # (second).  At times in units of 1/gamma0, P depends only on
        # lambda/gamma0: 1e-290 keeps the state frozen, and 1 reproduces the
        # gamma0 = lambda = 1 run.
        psi = tmp_path / "psi.json"
        psi.write_text(json.dumps(state_to_json_dict(FIG3_INITIAL)))

        def run(gamma0, lam):
            out = tmp_path / ("%s-%s.csv" % (gamma0, lam))
            assert main(["evolve", str(psi), "--gamma0", gamma0,
                         "--lambda", lam, "--t-max", "1", "--steps", "5",
                         "--out", str(out)]) == 0
            return np.loadtxt(out, delimiter=",", skiprows=1)

        frozen = run("1e300", "1e10")
        assert np.all(frozen[:, 1:] == frozen[0, 1:])
        unit = run("1", "1")
        assert not np.array_equal(unit[0, 1:], unit[-1, 1:])
        assert np.allclose(run("1e200", "1e200"), unit, rtol=1e-13,
                           atol=1e-16)


class TestCaseCrossings:
    def test_fig3_crossings(self):
        cfg = DynamicsConfig(1.0, 0.01, 50.0, 500, FIG3_INITIAL)
        points = evolve(cfg)
        gaps = np.array([pt.k1 - pt.k3 for pt in points])
        changes = int(np.sum(np.sign(gaps[:-1]) * np.sign(gaps[1:]) < 0))
        assert changes >= 2

    def test_refined_crossings_bracket_sign_change(self):
        from xqcorr.dynamics import _propagate

        cfg = DynamicsConfig(1.0, 0.01, 50.0, 500, FIG3_INITIAL)
        crossings = case_crossings(cfg, refine_tol=1e-6)
        assert len(crossings) >= 2

        def gap(tau):
            row = _propagate(FIG3_INITIAL, p_t(np.array([tau]), 1.0, 0.01))[0]
            k1 = 4.0 * (row[4] + row[5]) ** 2
            k3 = 2.0 * ((row[0] - row[2]) ** 2 + (row[1] - row[3]) ** 2)
            return k1 - k3

        for tau in crossings:
            assert gap(tau - 5e-6) * gap(tau + 5e-6) < 0.0


class TestTrajectoryCsv:
    def test_schema_and_parse(self):
        cfg = DynamicsConfig(1.0, 0.5, 5.0, 10, FIG3_INITIAL)
        text = trajectory_csv(*trajectory(cfg))
        lines = text.strip().split("\n")
        assert lines[0] == TRAJECTORY_CSV_HEADER
        assert len(lines) == 11
        row = lines[1].split(",")
        assert len(row) == 14
        assert float(row[0]) == 0.0
        assert row[13] in ("1", "2")

    def test_arrays_match_the_per_point_view(self):
        # Per-point formatting of evolve(), as the CSV was once written.
        cfg = DynamicsConfig(1.0, 0.01, 50.0, 500, FIG3_INITIAL)
        points = evolve(cfg)
        assert {int(pt.report.case.case_id) for pt in points} == {1, 2}
        lines = [TRAJECTORY_CSV_HEADER]
        for pt in points:
            s, r = pt.state, pt.report
            lines.append(",".join(
                [csv_float(v) for v in (pt.t, s.rho11, s.rho22, s.rho33,
                                        s.rho44, s.rho14, s.rho23, pt.k1,
                                        pt.k3, r.t_g, r.d_g, r.c_g, r.l_g)]
                + [str(int(r.case.case_id))]))
        assert trajectory_csv(*trajectory(cfg)) == "\n".join(lines) + "\n"
