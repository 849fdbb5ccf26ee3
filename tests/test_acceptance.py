"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines.
Criterion 3 contains a per-state biconditional whose stated thresholds are
mutually inconsistent with the quadratic scaling of the closure residual
near its equality manifold; it is asserted verbatim anyway and its failure
message carries the measured numbers (see the assertion text).
"""

import contextlib
import math
import time

import numpy as np
import pytest

from xqcorr.closest import (
    CaseId,
    closest_classical_rows,
    closest_product_general,
    closest_product_x,
    product_distance,
    x_report_rows,
)
from xqcorr.dynamics import DynamicsConfig, evolve, trajectory
from xqcorr.ensemble import (
    HistogramSpec,
    Quantity,
    SamplerConfig,
    run_histogram,
    sample_x_states,
)
from xqcorr.quantifiers import (
    discord_measurement_oracle,
    geometric_discord_general,
    quantifiers_x,
)
from xqcorr.states import (XStateParams, check_x_rows, x_matrices,
                           x_params_to_bloch)

BELL = XStateParams(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)
WERNER_HALF = XStateParams(0.375, 0.125, 0.125, 0.375, 0.25, 0.0)
FIG3_INITIAL = XStateParams(2.0 / 3.0, 0.0, 0.0, 1.0 / 3.0,
                            math.sqrt(2.0) / 3.0, 0.0)

CASE2_SEED = 7
CASE1_SEED = 11


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print("criterion %2d: FAIL  %s" % (number, description), flush=True)
        raise
    print("criterion %2d: PASS  %s" % (number, description), flush=True)


def _ensemble(seed, count, case):
    t0 = time.perf_counter()
    states = sample_x_states(
        SamplerConfig(seed=seed, count=count, case_filter=case))
    rows = x_report_rows(np.array([p.as_array() for p in states]))
    reports = [quantifiers_x(p, row=row)
               for p, row in zip(states, rows.tolist())]
    return states, reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def case2_ensemble():
    return _ensemble(CASE2_SEED, 10_000, CaseId.CASE2)


@pytest.fixture(scope="module")
def case1_ensemble():
    return _ensemble(CASE1_SEED, 1_000, CaseId.CASE1)


def test_criterion_1_closed_form_fixtures():
    with criterion(1, "Bell and Werner closed-form fixtures at 1e-12"):
        for p, expected in ((BELL, (0.75, 0.5, 0.25, 0.0)),
                            (WERNER_HALF, (0.1875, 0.125, 0.0625, 0.0))):
            r = quantifiers_x(p)
            for got, want in zip((r.t_g, r.d_g, r.c_g, r.l_g), expected):
                assert abs(got - want) <= 1e-12
        # warm timing, median of 100 calls per fixture
        quantifiers_x(BELL)
        times = []
        for _ in range(100):
            t0 = time.perf_counter()
            quantifiers_x(BELL)
            quantifiers_x(WERNER_HALF)
            times.append((time.perf_counter() - t0) / 2.0)
        assert float(np.median(times)) < 1e-3


def test_criterion_2_case1_additivity(case1_ensemble):
    states, reports, elapsed = case1_ensemble
    with criterion(2, "case-1 additivity over 10^3 states"):
        assert len(states) == 1000
        for r in reports:
            assert abs(r.t_g - r.d_g - r.c_g) <= 1e-10
            assert r.l_g <= 1e-12
        assert elapsed < 5.0


def test_criterion_3_appendix_b_sign_law(case2_ensemble):
    states, reports, elapsed = case2_ensemble
    with criterion(3, "appendix-B sign law over 10^4 case-2 states"):
        assert len(states) == 10_000
        assert elapsed < 60.0
        deltas = []
        for p, r in zip(states, reports):
            assert r.residual_closure <= 1e-10
            a3, b3 = r.product_pair.a[2], r.product_pair.b[2]
            t33 = p.rho11 - p.rho22 - p.rho33 + p.rho44
            assert abs(t33 - a3 * b3) <= 1.0 + 1e-10
            x3 = p.rho11 + p.rho22 - p.rho33 - p.rho44
            y3 = p.rho11 - p.rho22 + p.rho33 - p.rho44
            deltas.append(abs(x3 + y3 * t33))
        # equality biconditional, verbatim thresholds
        mismatched = [
            (i, deltas[i], reports[i].residual_closure)
            for i in range(len(states))
            if (abs(reports[i].residual_closure) <= 1e-8) != (deltas[i] <= 1e-6)
        ]
        assert not mismatched, (
            "equality-iff check failed for %d of 10^4 states: %s. The "
            "closure residual scales as -(x3+y3*T33)^2/4 near the equality "
            "manifold, so |residual| <= 1e-8 already holds for "
            "|x3+y3*T33| up to ~2e-4, far beyond the stated 1e-6; the two "
            "thresholds cannot both be met by states in that band."
            % (len(mismatched),
               [(i, "delta=%.3e" % d, "res=%.3e" % r)
                for i, d, r in mismatched])
        )


def test_criterion_4_residual_identity(case2_ensemble):
    states, reports, _ = case2_ensemble
    with criterion(4, "closure-with-defect identity on 10^4 case-2 states"):
        for p, r in zip(states, reports):
            a3, b3 = r.product_pair.a[2], r.product_pair.b[2]
            t33 = p.rho11 - p.rho22 - p.rho33 + p.rho44
            q = t33 - a3 * b3
            lhs = r.t_g + r.l_g - r.d_g - r.c_g
            assert abs(lhs - a3 * a3 * q * q / 2.0) <= 1e-10


def test_criterion_5_product_state_oracle():
    with criterion(5, "6-parameter minimizer vs analytic closest product, "
                      "200 states"):
        t0 = time.perf_counter()
        states = sample_x_states(SamplerConfig(seed=99, count=200))
        for i, p in enumerate(states):
            bloch = x_params_to_bloch(p)
            f_analytic = product_distance(bloch, closest_product_x(p))
            pair = closest_product_general(p.to_matrix(), seed=i)
            f_num = product_distance(bloch, pair)
            assert abs(f_num - f_analytic) <= 1e-8
            assert abs(pair.a[0]) <= 1e-6 and abs(pair.a[1]) <= 1e-6
            assert abs(pair.b[0]) <= 1e-6 and abs(pair.b[1]) <= 1e-6
        assert time.perf_counter() - t0 < 120.0


def test_criterion_6_measurement_oracle():
    with criterion(6, "measurement-minimization discord vs closed form, "
                      "50 states"):
        states = sample_x_states(SamplerConfig(seed=13, count=50))
        for p in states:
            closed = geometric_discord_general(x_params_to_bloch(p))
            # The oracle scans a fixed 64 x 64 measurement grid.
            measured = discord_measurement_oracle(p.to_matrix())
            assert abs(measured - closed) <= 1e-6


def test_criterion_7_nonadditivity_histograms(case2_ensemble):
    states, reports, _ = case2_ensemble
    with criterion(7, "qualitative non-additivity statistics, 10^4 case-2 "
                      "states"):
        tg = np.array([r.t_g for r in reports])
        res = np.array([r.residual_closure for r in reports])
        resl = np.array([r.residual_with_l for r in reports])
        keep = tg > 1e-12
        rel = res[keep] / tg[keep]
        rel_l = resl[keep] / tg[keep]
        # (i) no positive relative residual
        assert np.count_nonzero(rel > 0.0) == 0
        # (ii) a nonnegligible tail
        assert np.count_nonzero(rel < -0.01) / rel.size > 0.01
        # (iii) defect-corrected values nonnegative, some meaningfully so
        assert np.all(rel_l >= -1e-10)
        assert np.count_nonzero(rel_l > 0.01) > 0
        # histogram plot data via the public pipeline
        cfg = SamplerConfig(seed=CASE2_SEED, count=10_000,
                            case_filter=CaseId.CASE2)
        hist = run_histogram(
            cfg, HistogramSpec.default_for(Quantity.REL_RESIDUAL))
        assert hist.overflow == 0
        hist_l = run_histogram(
            cfg, HistogramSpec.default_for(Quantity.REL_RESIDUAL_WITH_L))
        assert hist_l.underflow == 0


def test_criterion_8_dynamics_case_crossing():
    with criterion(8, "k1/k3 crossing for the damped superposition state"):
        t0 = time.perf_counter()
        cfg = DynamicsConfig(gamma0=1.0, lam=0.01, t_max=50.0, steps=2000,
                             initial=FIG3_INITIAL)
        points = evolve(cfg)
        gaps = np.array([pt.k1 - pt.k3 for pt in points])
        signs = np.sign(gaps)
        changes = int(np.sum(signs[:-1] * signs[1:] < 0))
        assert changes >= 2
        assert time.perf_counter() - t0 < 5.0


def test_criterion_9_dynamics_physicality():
    with criterion(9, "map preserves valid X states in both damping "
                      "regimes"):
        initials = sample_x_states(SamplerConfig(seed=17, count=100))
        for lam in (1.2, 4.0):
            for init in initials:
                cfg = DynamicsConfig(gamma0=1.0, lam=lam, t_max=30.0,
                                     steps=200, initial=init)
                _, params, _ = trajectory(cfg)
                r11, r22, r33, r44, r14, r23 = params[:, :6].T
                assert np.all(params[:, :4] >= -1e-10)
                assert np.all(np.abs(r11 + r22 + r33 + r44 - 1.0) <= 1e-10)
                assert np.all(r14 ** 2 <= r11 * r44 + 1e-10)
                assert np.all(r23 ** 2 <= r22 * r33 + 1e-10)


def _purities(params):
    m = x_matrices(params)
    return np.sum(m.real ** 2 + m.imag ** 2, axis=(1, 2))


def test_criterion_10_purity_identity_asymmetry(case1_ensemble,
                                                case2_ensemble):
    with criterion(10, "discord is a purity difference, total is not"):
        for states, reports, _ in (case1_ensemble, case2_ensemble):
            params = np.array([p.as_array() for p in states])
            case = np.array([r.case.case_id for r in reports])
            classical = closest_classical_rows(params, case)
            check_x_rows(classical)
            diff = _purities(params) - _purities(classical)
            d_g = np.array([r.d_g for r in reports])
            assert np.all(np.abs(d_g - diff) <= 1e-10)
        witness = XStateParams(0.5, 0.1, 0.1, 0.3, 0.35, 0.05)
        r = quantifiers_x(witness)
        purity_diff = (witness.to_matrix().purity()
                       - r.product_pair.to_matrix().purity())
        assert abs(r.t_g - purity_diff) > 1e-6
