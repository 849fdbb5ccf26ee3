import math
from dataclasses import astuple

import numpy as np
import pytest

from conftest import (
    SADDLE_STATES,
    dense_state,
    f2_profile,
    forbid,
    grid_a3b3_oracle,
    quintic_roots_reference,
    sample_states,
)
from xqcorr.closest import (
    CaseId,
    CaseLabel,
    ProductPair,
    closest_classical_x,
    closest_product_general,
    closest_product_of_classical_x,
    closest_products_general,
    closest_product_x,
    k_eigenvalues_x,
    k_matrix_general,
    product_distance,
    stationarity_residual,
)
from xqcorr import _kernels, closest
from xqcorr.ensemble import SamplerConfig, sample_x_arrays
from xqcorr.errors import ConvergenceFailureError, InvalidStateError
from xqcorr.quantifiers import geometric_discord_general
from xqcorr.states import (
    XStateParams,
    bloch_decompose,
    hs_norm_sq,
    x_params_to_bloch,
)
from xqcorr.tolerances import BLOCH_BOUND

BELL = XStateParams(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)
WITNESS = XStateParams(0.5, 0.1, 0.1, 0.3, 0.35, 0.05)
# A case-2 state whose coherences are each 9e-13 past their block bound.
PAST_MEAN_STATE = (0.01, 0.49, 0.49, 0.01, math.sqrt(1e-4 + 9e-13),
                   math.sqrt(0.2401 + 9e-13))


class TestKEigenvalues:
    def test_bell(self):
        label = k_eigenvalues_x(BELL)
        assert label.k1 == 1.0 and label.k2 == 1.0 and label.k3 == 1.0
        assert label.case_id is CaseId.CASE1

    def test_case2_example(self):
        label = k_eigenvalues_x(XStateParams(0.25, 0.25, 0.25, 0.25, 0.2, 0.2))
        assert abs(label.k1 - 0.64) < 1e-15
        assert label.k2 == 0.0 and label.k3 == 0.0
        assert label.case_id is CaseId.CASE2

    def test_maximally_mixed(self):
        label = k_eigenvalues_x(XStateParams(0.25, 0.25, 0.25, 0.25, 0.0, 0.0))
        assert label.k1 == label.k2 == label.k3 == 0.0
        assert label.case_id is CaseId.CASE1

    def test_k1_never_below_k2(self):
        for p in sample_states(seed=31, count=500):
            label = k_eigenvalues_x(p)
            assert label.k1 >= label.k2

    def test_label_consistency_enforced(self):
        with pytest.raises(InvalidStateError):
            CaseLabel(CaseId.CASE2, 0.1, 0.0, 0.5)


class TestKMatrixGeneral:
    def test_zero(self):
        from xqcorr.states import BlochForm

        K, eigs = k_matrix_general(
            BlochForm(np.zeros(3), np.zeros(3), np.zeros((3, 3))))
        assert np.all(K == 0.0) and np.all(eigs == 0.0)

    def test_bell(self):
        _, eigs = k_matrix_general(bloch_decompose(BELL.to_matrix()))
        assert np.allclose(eigs, [1.0, 1.0, 1.0], atol=1e-14)

    def test_matches_closed_forms(self):
        for p in sample_states(seed=37, count=200):
            label = k_eigenvalues_x(p)
            _, eigs = k_matrix_general(x_params_to_bloch(p))
            closed = np.sort([label.k1, label.k2, label.k3])[::-1]
            assert np.allclose(eigs, closed, atol=1e-10)


class TestClosestProductX:
    def test_bell_diagonal_origin(self):
        # x3 = y3 = 0 forces the a3 = b3 = 0 solution (dyadic t keeps the
        # marginals exactly zero in floating point).
        for t in (0.25, -0.5, 0.875):
            p = XStateParams((1 + t) / 4, (1 - t) / 4, (1 - t) / 4, (1 + t) / 4,
                             (1 - abs(t)) / 8, 0.0)
            pair = closest_product_x(p)
            assert pair.a[2] == 0.0 and pair.b[2] == 0.0
        # non-dyadic diagonals leave only representation noise
        p = XStateParams(0.4, 0.1, 0.1, 0.4, 0.05, 0.0)
        pair = closest_product_x(p)
        assert abs(pair.a[2]) < 1e-15 and abs(pair.b[2]) < 1e-15

    def test_pure_product_is_its_own_closest(self):
        p = XStateParams(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        pair = closest_product_x(p)
        assert abs(pair.a[2] - 1.0) < 1e-12
        assert abs(pair.b[2] - 1.0) < 1e-12
        assert product_distance(x_params_to_bloch(p), pair) < 1e-24

    def test_witness_against_grid_oracle(self):
        a_o, b_o, f_o = grid_a3b3_oracle(0.2, 0.2, 0.6)
        pair = closest_product_x(WITNESS)
        assert abs(pair.a[2] - a_o) < 1e-6
        assert abs(pair.b[2] - b_o) < 1e-6
        assert abs(pair.a[2] - pair.b[2]) < 1e-12  # x3 = y3 symmetry
        f = f2_profile(0.2, 0.2, 0.6, pair.a[2], pair.b[2])
        assert abs(f - f_o) < 1e-10
        # full product distance adds the transverse tensor block
        full = product_distance(x_params_to_bloch(WITNESS), pair)
        assert abs(full - (f + 0.25)) < 1e-14
        # Frozen oracle value for the stationary point.
        assert abs(pair.a[2] - 0.3716577587051) < 1e-6

    def test_oracle_agreement_random(self):
        for p in sample_states(seed=41, count=60):
            b = x_params_to_bloch(p)
            a_o, b_o, f_o = grid_a3b3_oracle(b.x[2], b.y[2], b.T[2, 2], n=801)
            pair = closest_product_x(p)
            f = f2_profile(b.x[2], b.y[2], b.T[2, 2], pair.a[2], pair.b[2])
            assert f <= f_o + 1e-9

    def test_stationarity_residual(self):
        for p in sample_states(seed=43, count=300):
            pair = closest_product_x(p)
            assert stationarity_residual(x_params_to_bloch(p), pair) <= 1e-10

    def test_all_real_roots_considered(self):
        for p in sample_states(seed=47, count=100):
            b = x_params_to_bloch(p)
            roots = quintic_roots_reference(b.x[2], b.y[2], b.T[2, 2])
            pair = closest_product_x(p)
            best = min(
                f2_profile(b.x[2], b.y[2], b.T[2, 2], r,
                           (b.y[2] + b.T[2, 2] * r) / (1 + r * r))
                for r in roots
            )
            f = f2_profile(b.x[2], b.y[2], b.T[2, 2], pair.a[2], pair.b[2])
            assert f <= best + 1e-12


class TestClosestProductGeneral:
    def test_recovers_product_state(self):
        a = np.array([0.3, -0.2, 0.4])
        b = np.array([-0.1, 0.5, 0.2])
        rho = ProductPair(a, b).to_matrix()
        pair = closest_product_general(rho, seed=1)
        assert np.allclose(pair.a, a, atol=1e-7)
        assert np.allclose(pair.b, b, atol=1e-7)
        assert product_distance(bloch_decompose(rho), pair) < 1e-8

    def test_bell_minimum(self):
        pair = closest_product_general(BELL.to_matrix(), seed=2)
        f = product_distance(bloch_decompose(BELL.to_matrix()), pair)
        assert abs(f - 0.75) < 1e-8
        assert abs(pair.a[2]) < 1e-6 and abs(pair.b[2]) < 1e-6

    def test_x_states_reduce_to_axis(self):
        for i, p in enumerate(sample_states(seed=53, count=10)):
            bloch = x_params_to_bloch(p)
            num = closest_product_general(p.to_matrix(), seed=i)
            ana = closest_product_x(p)
            assert max(abs(num.a[0]), abs(num.a[1]),
                       abs(num.b[0]), abs(num.b[1])) <= 1e-6
            f_num = product_distance(bloch, num)
            f_ana = product_distance(bloch, ana)
            assert abs(f_num - f_ana) <= 1e-8

    def test_near_maximally_entangled_needs_the_newton_polish(self):
        # cos(t)|11> + sin(t)|00> just off t = pi/4.  Alternating
        # minimization alone stops at a fixed-point residual of up to
        # 8.7e-7 here (seeds 0-2), above ORACLE_RESIDUAL, so the oracle
        # passes only with its Newton polish.
        t = math.pi / 4 + 5.15067807627112e-07
        c, s = math.cos(t), math.sin(t)
        p = XStateParams(c * c, 0.0, 0.0, s * s, c * s, 0.0)
        bloch = x_params_to_bloch(p)
        f_ana = product_distance(bloch, closest_product_x(p))
        for seed in range(3):
            num = closest_product_general(p.to_matrix(), seed=seed)
            assert abs(product_distance(bloch, num) - f_ana) <= 1e-8

    def test_independent_of_the_quintic(self, monkeypatch):
        states = sample_states(seed=59, count=5)
        analytic = [closest_product_x(p) for p in states]
        forbid(monkeypatch, _kernels, "solve_a3b3", "batch_reports",
               "k_eigenvalues")
        numeric = closest_products_general([p.to_matrix() for p in states],
                                           range(len(states)))
        for p, ana, num in zip(states, analytic, numeric):
            bloch = x_params_to_bloch(p)
            assert abs(product_distance(bloch, num)
                       - product_distance(bloch, ana)) <= 1e-8

    def test_batching_changes_no_bit(self):
        states = [p.to_matrix() for p in sample_states(seed=61, count=20)]
        states += [BELL.to_matrix(), *(p.to_matrix() for p in SADDLE_STATES),
                   dense_state(149)]
        seeds = [7 * i for i in range(len(states))]
        single = [closest_product_general(rho, seed=seed)
                  for rho, seed in zip(states, seeds)]
        batched = closest_products_general(states, seeds)
        assert len(batched) == len(states)
        for one, many in zip(single, batched):
            assert one.a.tobytes() == many.a.tobytes()
            assert one.b.tobytes() == many.b.tobytes()

    def test_residual_above_bound_raises_with_best_pair(self, monkeypatch):
        monkeypatch.setattr(closest, "ORACLE_RESIDUAL", -1.0)
        with pytest.raises(ConvergenceFailureError) as exc:
            closest_product_general(BELL.to_matrix(), seed=2)
        assert isinstance(exc.value.best, ProductPair)
        f = product_distance(bloch_decompose(BELL.to_matrix()), exc.value.best)
        assert abs(f - 0.75) < 1e-8


def _chi_case1(p):
    return XStateParams(p.rho11, p.rho22, p.rho33, p.rho44, 0.0, 0.0)


def _chi_case2(p):
    y3 = p.rho11 - p.rho22 + p.rho33 - p.rho44
    coh = 0.5 * (p.rho14 + p.rho23)
    hi, lo = 0.25 * (1 + y3), 0.25 * (1 - y3)
    return XStateParams(hi, lo, hi, lo, coh, coh, p.gamma14, p.gamma23)


class TestClosestClassical:
    def test_case1_bell_diagonal(self):
        p = XStateParams(0.45, 0.05, 0.05, 0.45, 0.05, 0.05)  # T33 = 0.8 wins
        assert k_eigenvalues_x(p).case_id is CaseId.CASE1
        chi = closest_classical_x(p)
        expected = 0.25 * (np.eye(4) + 0.8 * np.diag([1.0, -1.0, -1.0, 1.0]))
        assert np.allclose(chi.to_matrix().matrix, expected, atol=1e-15)

    def test_case2_zero_phases(self):
        p = XStateParams(0.25, 0.25, 0.25, 0.25, 0.2, 0.2)
        chi = closest_classical_x(p)
        # 1/4 [I + y3 I(x)sigma3 + 2(rho14+rho23) sigma1(x)sigma1], y3 = 0
        expected = np.eye(4, dtype=complex) / 4.0
        expected += 0.2 * np.fliplr(np.eye(4))
        assert np.allclose(chi.to_matrix().matrix, expected, atol=1e-15)

    def test_maximally_mixed_fixed_point(self):
        p = XStateParams(0.25, 0.25, 0.25, 0.25, 0.0, 0.0)
        chi = closest_classical_x(p)
        assert np.allclose(chi.to_matrix().matrix, np.eye(4) / 4.0)

    def test_classical_state_has_zero_discord(self):
        for p in sample_states(seed=59, count=200):
            chi = closest_classical_x(p)
            dg = geometric_discord_general(x_params_to_bloch(chi))
            assert dg <= 1e-10

    def test_minimizing_branch_wins(self):
        for p in sample_states(seed=61, count=200):
            label = k_eigenvalues_x(p)
            rho = p.to_matrix().matrix
            chosen = closest_classical_x(p).to_matrix().matrix
            other = (_chi_case2(p) if label.case_id is CaseId.CASE1
                     else _chi_case1(p)).to_matrix().matrix
            d_sel = hs_norm_sq(rho - chosen)
            d_alt = hs_norm_sq(rho - other)
            assert d_sel <= d_alt + 1e-12

    def test_mean_coherence_past_the_block_bound_takes_the_bound(self):
        # Each coherence is within the BLOCK_POSITIVITY slack of its block,
        # but their mean lands about 1.2e-11 past the classical state's.
        p = XStateParams(*PAST_MEAN_STATE)
        assert k_eigenvalues_x(p).case_id is CaseId.CASE2
        mean = 0.5 * (p.rho14 + p.rho23)
        assert mean * mean > 0.0625 + 1e-11
        chi = closest_classical_x(p)
        assert (chi.rho11, chi.rho22, chi.rho14, chi.rho23) == (
            0.25, 0.25, 0.25, 0.25)

    def test_check_report_rows_accepts_the_bound(self):
        # The array checks of sample agree with closest_classical_x on such
        # a row, and the bound moves no bit of a row within it, such as a
        # row on the bound whose mean rounds 2.8e-17 above sqrt(hi * lo).
        arr, _ = sample_x_arrays(SamplerConfig(seed=71, count=500,
                                               case_filter=CaseId.CASE2))
        on_bound = (0.06289911503127163, 0.5294669859033172,
                    0.294582273667113, 0.11305162539829822,
                    0.08432583939931929, 0.3949323847686746, 0.0, 0.0)
        arr = np.vstack([arr, np.array([on_bound,
                                         PAST_MEAN_STATE + (0.0, 0.0)])])
        y3 = arr[-2, 0] - arr[-2, 1] + arr[-2, 2] - arr[-2, 3]
        mean = 0.5 * (arr[-2, 4] + arr[-2, 5])
        assert mean > math.sqrt((0.25 * (1.0 + y3)) * (0.25 * (1.0 - y3)))
        reports = closest.x_report_rows(arr)
        closest.check_report_rows(arr, reports)
        rows = closest.closest_classical_rows(
            arr, reports[:, _kernels.COL_CASE])
        chi = closest_classical_x(XStateParams(*arr[-1]))
        assert rows[-1].tolist() == list(astuple(chi))
        y3 = arr[:-1, 0] - arr[:-1, 1] + arr[:-1, 2] - arr[:-1, 3]
        hi, lo = 0.25 * (1.0 + y3), 0.25 * (1.0 - y3)
        coh = 0.5 * (arr[:-1, 4] + arr[:-1, 5])
        mean_form = np.stack([hi, lo, hi, lo, coh, coh, arr[:-1, 6],
                              arr[:-1, 7]], 1)
        assert np.array_equal(rows[:-1].view(np.uint64),
                              mean_form.view(np.uint64))

    def test_case2_unreachable_without_coherence(self):
        # rho14 + rho23 = 0 forces k1 = 0 <= k3, i.e. always case 1.
        rng = np.random.default_rng(67)
        for _ in range(200):
            d = rng.dirichlet(np.ones(4))
            p = XStateParams(d[0], d[1], d[2], d[3], 0.0, 0.0)
            assert k_eigenvalues_x(p).case_id is CaseId.CASE1


class TestClosestProductOfClassical:
    def test_case1_identical_to_state_pair(self):
        for p in sample_states(seed=71, count=100, case=CaseId.CASE1):
            pair_rho = closest_product_x(p)
            pair_chi = closest_product_of_classical_x(p)
            assert pair_rho.a[2] == pair_chi.a[2]
            assert pair_rho.b[2] == pair_chi.b[2]

    def test_case2_closed_form(self):
        p = XStateParams(0.35, 0.15, 0.25, 0.25, 0.25, 0.15)
        assert k_eigenvalues_x(p).case_id is CaseId.CASE2
        pair = closest_product_of_classical_x(p)
        y3 = 0.35 - 0.15 + 0.25 - 0.25
        assert np.all(pair.a == 0.0)
        assert pair.b[2] == y3 and pair.b[0] == 0.0 and pair.b[1] == 0.0

    def test_case2_pair_solves_chi_system(self):
        for p in sample_states(seed=73, count=100, case=CaseId.CASE2):
            chi = closest_classical_x(p)
            pair = closest_product_of_classical_x(p)
            assert stationarity_residual(x_params_to_bloch(chi), pair) <= 1e-10

    def test_case2_zero_marginal(self):
        p = XStateParams(0.25, 0.25, 0.25, 0.25, 0.2, 0.2)
        pair = closest_product_of_classical_x(p)
        assert np.all(pair.a == 0.0) and np.all(pair.b == 0.0)


class TestProductPair:
    def test_norm_bound_enforced(self):
        with pytest.raises(InvalidStateError):
            ProductPair((1.0, 1.0, 0.0), (0.0, 0.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        for a, b in (((0.0, bad, 0.0), (0.0, 0.0, 0.0)),
                     ((0.0, 0.0, 0.0), (0.0, 0.0, bad))):
            with pytest.raises(InvalidStateError,
                               match="^non-finite Bloch vector$"):
                ProductPair(a, b)

    def test_norm_bound_is_one_plus_bloch_bound(self):
        edge = 1.0 + BLOCH_BOUND
        pair = ProductPair((0.0, 0.0, edge), (0.0, -edge, 0.0))
        assert pair.a.tolist() == [0.0, 0.0, edge]
        assert pair.b.dtype == np.float64 and not pair.b.flags.writeable
        over = edge
        for _ in range(3):
            over = math.nextafter(over, math.inf)
        for a, b, name in (((0.0, 0.0, over), (0.0, 0.0, 0.0), "a"),
                           ((0.0, 0.0, 0.0), (-over, 0.0, 0.0), "b")):
            with pytest.raises(InvalidStateError) as exc:
                ProductPair(a, b)
            assert str(exc.value) == (
                "Bloch vector %s has norm 1.000000000100 > 1" % name)

    def test_to_matrix_is_product(self):
        pair = ProductPair((0.0, 0.0, 0.5), (0.0, 0.0, -0.25))
        m = pair.to_matrix()
        m.validate()
        assert abs(np.trace(m.matrix) - 1.0) < 1e-15
