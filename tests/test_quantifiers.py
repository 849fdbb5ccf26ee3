import numpy as np
import pytest

from conftest import sample_states
from xqcorr.closest import CaseId, closest_product_of_classical_x
from xqcorr.errors import UnphysicalParametersError
from xqcorr.quantifiers import (
    REPORT_CSV_HEADER,
    bell_diagonal_quantifiers,
    discord_measurement_oracle,
    geometric_discord_general,
    pinched_state,
    quantifiers_x,
)
from xqcorr.states import (
    XStateParams,
    bloch_decompose,
    hs_norm_sq,
    matrix_to_x_params,
    x_params_to_bloch,
)

BELL = XStateParams(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)
WERNER_HALF = XStateParams(0.375, 0.125, 0.125, 0.375, 0.25, 0.0)
WITNESS = XStateParams(0.5, 0.1, 0.1, 0.3, 0.35, 0.05)


class TestClosedFormFixtures:
    def test_bell(self):
        r = quantifiers_x(BELL)
        assert abs(r.t_g - 0.75) < 1e-12
        assert abs(r.d_g - 0.5) < 1e-12
        assert abs(r.c_g - 0.25) < 1e-12
        assert r.l_g == 0.0
        assert abs(r.residual_closure) < 1e-12
        assert r.case.case_id is CaseId.CASE1
        assert r.boundary_flag  # k1 = k3 = 1 exactly

    def test_werner_half(self):
        r = quantifiers_x(WERNER_HALF)
        assert abs(r.t_g - 0.1875) < 1e-12
        assert abs(r.d_g - 0.125) < 1e-12
        assert abs(r.c_g - 0.0625) < 1e-12
        assert r.l_g == 0.0

    def test_case2_equality_state(self):
        r = quantifiers_x(XStateParams(0.25, 0.25, 0.25, 0.25, 0.2, 0.2))
        assert r.case.case_id is CaseId.CASE2
        assert abs(r.t_g - 0.16) < 1e-12
        assert r.d_g == 0.0
        assert abs(r.c_g - 0.16) < 1e-12
        assert r.l_g == 0.0
        assert abs(r.residual_closure) < 1e-12

    def test_case2_witness(self):
        r = quantifiers_x(WITNESS)
        assert r.case.case_id is CaseId.CASE2
        assert abs(r.d_g - 0.19) < 1e-12
        assert abs(r.c_g - 0.16) < 1e-12
        assert r.residual_closure < -1e-6
        a3, b3 = r.product_pair.a[2], r.product_pair.b[2]
        q = 0.6 - a3 * b3
        assert abs(r.residual_with_l - a3 * a3 * q * q / 2.0) < 1e-10
        assert r.residual_with_l > 0.0

    def test_maximally_mixed(self):
        r = quantifiers_x(XStateParams(0.25, 0.25, 0.25, 0.25, 0.0, 0.0))
        assert r.t_g == r.d_g == r.c_g == r.l_g == 0.0


class TestGeometricDiscordGeneral:
    def test_pure_product(self):
        rho = XStateParams(0.0, 0.0, 0.0, 1.0, 0.0, 0.0).to_matrix()
        assert geometric_discord_general(bloch_decompose(rho)) == 0.0

    def test_bell(self):
        val = geometric_discord_general(bloch_decompose(BELL.to_matrix()))
        assert abs(val - 0.5) < 1e-14

    def test_werner(self):
        val = geometric_discord_general(bloch_decompose(WERNER_HALF.to_matrix()))
        assert abs(val - 0.125) < 1e-14

    def test_matches_x_closed_form(self):
        for p in sample_states(seed=83, count=300):
            r = quantifiers_x(p)
            val = geometric_discord_general(x_params_to_bloch(p))
            assert abs(val - r.d_g) < 1e-12

    def test_never_negative(self):
        for p in sample_states(seed=89, count=300):
            assert geometric_discord_general(x_params_to_bloch(p)) >= 0.0


class TestDirectDistanceConsistency:
    def test_closed_forms_equal_matrix_arithmetic(self):
        for p in sample_states(seed=97, count=300):
            r = quantifiers_x(p)
            rho = p.to_matrix().matrix
            pi = r.product_pair.to_matrix().matrix
            chi = r.classical_state.to_matrix().matrix
            pi_chi = r.classical_product_pair.to_matrix().matrix
            assert abs(r.t_g - hs_norm_sq(rho - pi)) < 1e-10
            assert abs(r.d_g - hs_norm_sq(rho - chi)) < 1e-10
            assert abs(r.c_g - hs_norm_sq(chi - pi_chi)) < 1e-10
            assert abs(r.l_g - hs_norm_sq(pi - pi_chi)) < 1e-10

    def test_purity_identity_for_discord(self):
        for p in sample_states(seed=101, count=300):
            r = quantifiers_x(p)
            diff = p.to_matrix().purity() - r.classical_state.to_matrix().purity()
            assert abs(r.d_g - diff) < 1e-10

    def test_total_is_not_a_purity_difference(self):
        r = quantifiers_x(WITNESS)
        diff = (WITNESS.to_matrix().purity()
                - r.product_pair.to_matrix().purity())
        assert abs(r.t_g - diff) > 1e-6


class TestCaseLaws:
    def test_case1_additivity(self):
        for p in sample_states(seed=103, count=300, case=CaseId.CASE1):
            r = quantifiers_x(p)
            assert abs(r.residual_closure) <= 1e-10
            assert r.l_g <= 1e-12

    def test_case2_sign_and_identity(self):
        for p in sample_states(seed=107, count=300, case=CaseId.CASE2):
            r = quantifiers_x(p)
            assert r.residual_closure <= 1e-10
            assert r.residual_with_l >= -1e-10
            a3, b3 = r.product_pair.a[2], r.product_pair.b[2]
            t33 = p.rho11 - p.rho22 - p.rho33 + p.rho44
            q = t33 - a3 * b3
            assert abs(q) <= 1.0 + 1e-10
            assert abs(r.residual_with_l - a3 * a3 * q * q / 2.0) <= 1e-10

    def test_equality_condition_forward(self):
        # x3 + y3 T33 = 0 exactly: closure must hold to high accuracy.
        for t in (0.5, -0.2, 0.3):
            p_bd = XStateParams((1 + t) / 4, (1 - t) / 4, (1 - t) / 4,
                                (1 + t) / 4, (1 - abs(t)) / 8,
                                (1 - abs(t)) / 16)
            r = quantifiers_x(p_bd)
            assert abs(r.residual_closure) <= 1e-12

    def test_classical_product_pair_matches_closest(self):
        for case in (CaseId.CASE1, CaseId.CASE2):
            for p in sample_states(seed=173, count=100, case=case):
                got = quantifiers_x(p).classical_product_pair
                want = closest_product_of_classical_x(p)
                assert np.array_equal(got.a, want.a)
                assert np.array_equal(got.b, want.b)


def _bell_diag_tensor(rng):
    # Convex mixture of the four Bell projectors; PSD by construction.
    w = rng.dirichlet(np.ones(4))
    basis = np.array([
        [1.0, -1.0, 1.0],   # Phi+
        [-1.0, 1.0, 1.0],   # Phi-
        [1.0, 1.0, -1.0],   # Psi+
        [-1.0, -1.0, -1.0], # Psi-
    ])
    return w @ basis


class TestBellDiagonal:
    def test_bell_state_triple(self):
        r = bell_diagonal_quantifiers(1.0, -1.0, 1.0)
        assert abs(r.t_g - 0.75) < 1e-15
        assert abs(r.d_g - 0.5) < 1e-15
        assert abs(r.c_g - 0.25) < 1e-15
        assert r.l_g == 0.0

    def test_zero_triple(self):
        r = bell_diagonal_quantifiers(0.0, 0.0, 0.0)
        assert r.t_g == r.d_g == r.c_g == r.l_g == 0.0

    def test_werner_triple(self):
        r = bell_diagonal_quantifiers(0.5, -0.5, 0.5)
        assert abs(r.t_g - 0.1875) < 1e-15
        assert abs(r.d_g - 0.125) < 1e-15
        assert abs(r.c_g - 0.0625) < 1e-15

    def test_unphysical_rejected(self):
        with pytest.raises(UnphysicalParametersError):
            bell_diagonal_quantifiers(1.0, 1.0, 1.0)

    def test_exact_closure_both_cases(self):
        rng = np.random.default_rng(109)
        seen = {CaseId.CASE1: 0, CaseId.CASE2: 0}
        for _ in range(1000):
            t11, t22, t33 = _bell_diag_tensor(rng)
            r = bell_diagonal_quantifiers(t11, t22, t33)
            assert abs(r.t_g - r.d_g - r.c_g) <= 1e-12
            assert r.l_g == 0.0
            seen[r.case.case_id] += 1
        assert seen[CaseId.CASE1] > 0 and seen[CaseId.CASE2] > 0

    def test_agrees_with_general_x_machinery(self):
        rng = np.random.default_rng(113)
        for _ in range(200):
            t11, t22, t33 = _bell_diag_tensor(rng)
            r_bd = bell_diagonal_quantifiers(t11, t22, t33)
            from xqcorr.states import BlochForm, bloch_compose

            rho = bloch_compose(
                BlochForm(np.zeros(3), np.zeros(3), np.diag([t11, t22, t33])))
            r_x = quantifiers_x(matrix_to_x_params(rho))
            assert abs(r_bd.t_g - r_x.t_g) < 1e-12
            assert abs(r_bd.d_g - r_x.d_g) < 1e-12
            assert abs(r_bd.c_g - r_x.c_g) < 1e-12
            assert r_x.l_g <= 1e-12

    def test_case_selected_by_largest_component(self):
        assert (bell_diagonal_quantifiers(0.3, -0.2, 0.6).case.case_id
                is CaseId.CASE1)
        assert (bell_diagonal_quantifiers(0.8, -0.2, 0.1).case.case_id
                is CaseId.CASE2)


class TestMeasurementOracle:
    def test_classical_state_invariant(self):
        for p in sample_states(seed=127, count=5):
            from xqcorr.closest import closest_classical_x

            chi = closest_classical_x(p)
            assert discord_measurement_oracle(chi.to_matrix()) <= 1e-8

    def test_bell(self):
        val = discord_measurement_oracle(BELL.to_matrix())
        assert abs(val - 0.5) <= 1e-6

    def test_random_states_match_closed_form(self):
        for p in sample_states(seed=131, count=10):
            val = discord_measurement_oracle(p.to_matrix())
            closed = geometric_discord_general(x_params_to_bloch(p))
            assert abs(val - closed) <= 1e-6

    def test_grid_density_floor(self):
        with pytest.raises(ValueError):
            discord_measurement_oracle(BELL.to_matrix(), grid_density=32)

    def test_pinched_state_is_classical(self):
        rho = WITNESS.to_matrix()
        pinched = pinched_state(rho, 0.7, 1.3)
        pinched.validate(require_psd=True)
        dg = geometric_discord_general(bloch_decompose(pinched))
        assert dg <= 1e-12


class TestReportSerialization:
    def test_csv_row_shape(self):
        r = quantifiers_x(WITNESS)
        row = r.to_csv_row()
        fields = row.split(",")
        assert len(fields) == len(REPORT_CSV_HEADER.split(","))
        assert fields[0] == "2"
        assert fields[-1] in ("0", "1")
        assert float(fields[4]) == pytest.approx(r.t_g, abs=0)

    def test_json_dict_keys(self):
        doc = quantifiers_x(BELL).to_json_dict()
        assert set(doc) >= {"case", "boundary", "k", "quantifiers",
                            "residuals", "closest_product",
                            "closest_classical", "classical_closest_product"}
        assert doc["quantifiers"]["tg"] == pytest.approx(0.75, abs=1e-12)
