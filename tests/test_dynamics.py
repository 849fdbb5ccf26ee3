import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import sample_states, threshold_rows
import xqcorr
from xqcorr import _kernels, dynamics
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
from xqcorr.quantifiers import CSV_FLOAT
from xqcorr.states import XStateParams, state_to_json_dict, x_state_violations

FIG3_INITIAL = XStateParams(2.0 / 3.0, 0.0, 0.0, 1.0 / 3.0,
                            math.sqrt(2.0) / 3.0, 0.0)
# k1 = k3 = 1/4 exactly.
ON_THE_BOUNDARY = XStateParams(0.375, 0.375, 0.125, 0.125, 0.125, 0.125)


def crossings_reference(cfg):
    """case_crossings as a loop over grid intervals, bisecting each sign
    change with one-time gap evaluations."""

    def gaps_at(taus):
        k1, _, k3, _ = _kernels.k_eigenvalues(dynamics._params_at(cfg, taus))
        return k1 - k3

    taus = np.linspace(0.0, cfg.t_max, cfg.steps)
    gaps = gaps_at(taus)
    crossings = []
    for i in range(taus.size - 1):
        g0, g1 = gaps[i], gaps[i + 1]
        if g0 == 0.0:
            crossings.append(float(taus[i]))
            continue
        if g0 * g1 < 0.0:
            lo, hi = taus[i], taus[i + 1]
            glo = g0
            while hi - lo > dynamics.CROSSING_TOL:
                mid = 0.5 * (lo + hi)
                gm = gaps_at(np.array([mid]))[0]
                if gm == 0.0:
                    lo = hi = mid
                    break
                if glo * gm < 0.0:
                    hi = mid
                else:
                    lo, glo = mid, gm
            crossings.append(float(0.5 * (lo + hi)))
    if gaps[-1] == 0.0:
        crossings.append(float(taus[-1]))
    return crossings


def assert_same_crossings(got, want):
    assert all(type(t) is float for t in got)
    assert (np.array(got).view(np.uint64).tolist()
            == np.array(want).view(np.uint64).tolist())


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
            p = p_t(0.5, 1.0, lam)
            assert abs(p - math.exp(-0.5)) <= 1.0 / lam + 1e-16
            assert p_t(0.0, 1.0, lam) == 1.0

    def test_tiny_rates_keep_the_time_scaling(self):
        # P_t depends only on gamma0*t and lambda*t.  2*gamma0*lambda
        # underflows at these rates, and lambda = 1e-308 is subnormal.
        for g in (1e-100, 1e-200, 1e-300, 1e-307):
            for r in (0.1, 1.0, 1.9, 2.0):
                for tau in (0.5, 7.0, 50.0):
                    got = p_t(tau / g, g, r * g)
                    if math.isinf(tau / g):  # 50 / 1e-307: P_t's limit
                        assert got == 0.0
                        continue
                    want = p_t(tau, 1.0, r)
                    assert abs(got - want) <= 1e-12 * want, (g, r, tau)

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
        assert s.rho44 == FIG3_INITIAL.rho44

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


def _slack_rows(seed, count):
    # The rows of threshold_rows that validation accepts: blocks with least
    # eigenvalues down to -PSD_FLOOR, some of trace 1e-4, diagonal entries
    # down to -PSD_FLOOR and traces off by up to TRACE.
    rows = threshold_rows(seed, count)
    flags, _ = x_state_violations(*rows[:, :6].T)
    return rows[~np.any(flags, axis=0)]


class TestValidationSlack:
    def test_trajectory_accepts_what_validation_accepts(self):
        # rho44 once closed the trace as 1 - (rho11 + rho22 + rho33), which
        # moved an accepted trace offset into rho44 and could then fail
        # block positivity, even at t = 0.
        rows = _slack_rows(seed=11, count=3600)
        assert len(rows) >= 700
        for row in rows.tolist():
            initial = XStateParams(*row)
            _, params, _ = trajectory(DynamicsConfig(1.0, 0.1, 5.0, 3,
                                                     initial))
            assert params[0].tobytes() == initial.as_array().tobytes()


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
        crossings = case_crossings(cfg)
        assert len(crossings) >= 2

        def gap(tau):
            row = _propagate(FIG3_INITIAL, p_t(np.array([tau]), 1.0, 0.01))[0]
            k1 = 4.0 * (row[4] + row[5]) ** 2
            k3 = 2.0 * ((row[0] - row[2]) ** 2 + (row[1] - row[3]) ** 2)
            return k1 - k3

        for tau in crossings:
            assert gap(tau - 5e-6) * gap(tau + 5e-6) < 0.0


    # (gamma0, lambda, t_max, steps): slow and fast damping, t_max = 0.
    SETTINGS = ((1.0, 0.01, 50.0, 500), (1.0, 5.0, 10.0, 300),
                (2.0, 0.1, 30.0, 1000), (1.0, 0.01, 0.0, 3))

    def test_matches_the_loop_bit_for_bit(self):
        states = sample_states(seed=3, count=40)
        states += [FIG3_INITIAL, ON_THE_BOUNDARY]
        found = 0
        for p in states:
            for setting in self.SETTINGS:
                cfg = DynamicsConfig(*setting, p)
                want = crossings_reference(cfg)
                assert_same_crossings(case_crossings(cfg), want)
                found += len(want)
        assert found >= 100

    def test_a_grid_time_on_the_boundary_is_a_crossing(self):
        cfg = DynamicsConfig(1.0, 0.01, 50.0, 500, ON_THE_BOUNDARY)
        crossings = case_crossings(cfg)
        assert crossings[0] == 0.0
        assert_same_crossings(crossings, crossings_reference(cfg))
        # At t_max = 0 every grid time is on the boundary.
        cfg = DynamicsConfig(1.0, 0.01, 0.0, 3, ON_THE_BOUNDARY)
        assert_same_crossings(case_crossings(cfg), [0.0, 0.0, 0.0])

    def test_a_bisection_point_on_the_boundary_closes_its_interval(
            self, monkeypatch):
        # On the grid 0, 0.5, 1 the gap (t - 0.25)(t - 0.5 - 2^-10) is
        # exactly 0 at the first bisection point of one interval and at the
        # ninth of the other.
        roots = np.array([0.25, 0.5 + 2.0 ** -10])
        monkeypatch.setattr(
            dynamics, "_params_at",
            lambda cfg, taus: np.prod(taus[:, None] - roots, axis=1)[:, None])
        monkeypatch.setattr(_kernels, "k_eigenvalues",
                            lambda rows: (rows[:, 0], None, 0.0, None))
        cfg = DynamicsConfig(1.0, 0.01, 1.0, 3, FIG3_INITIAL)
        assert_same_crossings(crossings_reference(cfg), roots.tolist())
        assert_same_crossings(case_crossings(cfg), roots.tolist())

    def test_returns_where_the_time_spacing_exceeds_the_tolerance(self):
        # Near t ~ 1e10 the float spacing of t (1.9e-6) is wider than
        # CROSSING_TOL, so bisection reaches midpoints equal to an end.  A
        # child process, so a bisection that never stops fails by timeout.
        code = ("import json, math\n"
                "from xqcorr.dynamics import DynamicsConfig, case_crossings\n"
                "from xqcorr.states import XStateParams\n"
                "p = XStateParams(2 / 3, 0, 0, 1 / 3, math.sqrt(2) / 3, 0)\n"
                "cfg = DynamicsConfig(1.0, 1e-12, 2e10, 2000, p)\n"
                "print(json.dumps(case_crossings(cfg)))\n")
        src = os.path.dirname(os.path.dirname(xqcorr.__file__))
        done = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        crossings = json.loads(done.stdout)
        assert len(crossings) >= 2
        assert all(isinstance(t, float) for t in crossings)
        assert crossings == sorted(crossings)
        assert 0.0 <= crossings[0] and crossings[-1] <= 2e10


class TestTimeGrid:
    @pytest.mark.parametrize("t_max", (0.0, -0.0, 5e-324, 1e-300, 1.0, 7.0,
                                       50.0, 123.456, 1e300))
    def test_slices_are_the_bits_of_linspace(self, t_max):
        # Whole, and in row_chunks slices as evolve writes it, the grid is
        # np.linspace's, subnormal and zero steps included.
        for steps in (2, 3, 4095, 4096, 4097, 12305):
            cfg = DynamicsConfig(1.0, 0.1, t_max, steps, FIG3_INITIAL)
            want = np.linspace(0.0, t_max, steps).view(np.uint64)
            chunks = [dynamics._time_grid(cfg, rows)
                      for rows in _kernels.row_chunks(steps)]
            assert np.array_equal(
                np.concatenate(chunks).view(np.uint64), want)
            assert np.array_equal(
                dynamics._time_grid(cfg).view(np.uint64), want)


class TestTrajectoryCsv:
    def test_schema_and_parse(self):
        cfg = DynamicsConfig(1.0, 0.5, 5.0, 10, FIG3_INITIAL)
        text = trajectory_csv(cfg)
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
                [CSV_FLOAT % v for v in (pt.t, s.rho11, s.rho22, s.rho33,
                                        s.rho44, s.rho14, s.rho23, pt.k1,
                                        pt.k3, r.t_g, r.d_g, r.c_g, r.l_g)]
                + [str(int(r.case.case_id))]))
        assert trajectory_csv(cfg) == "\n".join(lines) + "\n"
