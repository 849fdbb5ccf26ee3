import dataclasses

import numpy as np
import pytest

from conftest import SADDLE_STATES, dense_state, forbid, sample_states
from xqcorr import _kernels, closest, quantifiers
from xqcorr.closest import CaseId, closest_product_of_classical_x
from xqcorr.ensemble import SamplerConfig, sample_x_arrays
from xqcorr.errors import InvalidStateError, UnphysicalParametersError
from xqcorr.quantifiers import (
    CSV_FLOAT,
    REPORT_CSV_HEADER,
    bell_diagonal_quantifiers,
    discord_measurement_oracle,
    discord_measurement_oracles,
    geometric_discord_general,
    geometric_discords,
    oracle_errors,
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

    def test_clamp_is_a_fixed_width(self, monkeypatch):
        # With x = 0 and T = 0 the value is -k_max / 4: -3e-13 is clamped
        # to 0, -3e-12 stays.  Literal widths, not CLAMP, so that a tenfold
        # change of it fails here.
        eigs = np.array([[1.2e-12, 0.0, 0.0], [1.2e-11, 0.0, 0.0]])
        monkeypatch.setattr(quantifiers, "k_matrices",
                            lambda x, T: (None, eigs))
        vals = geometric_discords(np.zeros((2, 3)), np.zeros((2, 3, 3)))
        assert vals.tolist() == [0.0, -3e-12]


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

    def test_saddle_near_the_minimum(self):
        # In both states the z axis is a saddle of the pinched distance
        # next to the grid's best point, and descent must leave it along
        # a narrow band of negative curvature.
        for p in SADDLE_STATES:
            closed = geometric_discord_general(x_params_to_bloch(p))
            assert abs(discord_measurement_oracle(p.to_matrix())
                       - closed) <= 1e-6

    def test_dense_state_matches_closed_form(self):
        rho = dense_state(149)
        closed = geometric_discord_general(bloch_decompose(rho))
        assert abs(discord_measurement_oracle(rho) - closed) <= 1e-6

    def test_batching_changes_no_bit(self):
        states = [p.to_matrix() for p in sample_states(seed=139, count=20)]
        states += [BELL.to_matrix(), *(p.to_matrix() for p in SADDLE_STATES),
                   dense_state(149)]
        single = [discord_measurement_oracle(rho) for rho in states]
        batched = discord_measurement_oracles(
            np.array([rho.matrix for rho in states]))
        assert batched.tobytes() == np.array(single).tobytes()

    def test_independent_of_the_k_matrix(self, monkeypatch):
        states = sample_states(seed=137, count=5)
        closed = [geometric_discord_general(x_params_to_bloch(p))
                  for p in states]
        forbid(monkeypatch, quantifiers, "geometric_discord_general")
        forbid(monkeypatch, closest, "k_matrix_general")
        forbid(monkeypatch, _kernels, "k_eigenvalues")
        measured = discord_measurement_oracles(
            np.array([p.to_matrix().matrix for p in states]))
        assert np.all(np.abs(measured - closed) <= 1e-6)

    def test_pinched_state_is_classical(self):
        rho = WITNESS.to_matrix()
        pinched = pinched_state(rho, 0.7, 1.3)
        pinched.validate()
        dg = geometric_discord_general(bloch_decompose(pinched))
        assert dg <= 1e-12


def _k1_equal_to_k3_states(count, seed):
    # Entries are multiples of 2^-12 with |rho11 - rho33| = |rho22 - rho44|
    # = rho14 + rho23 = s, so k1 = 4 (rho14 + rho23)^2 and k3 = 2 ((rho11 -
    # rho33)^2 + (rho22 - rho44)^2) are both 4 s^2, each computed exactly.
    rng = np.random.default_rng(seed)
    n = 4096
    rows = []
    while len(rows) < count:
        s = int(rng.integers(0, n // 4 + 1))
        r33 = int(rng.integers(0, n // 2 + 1))
        sg1, sg2 = rng.choice((-1, 1), size=2).tolist()
        r11 = r33 + sg1 * s
        r44 = (n - 2 * r33 - (sg1 + sg2) * s) // 2
        r22 = r44 + sg2 * s
        t = int(rng.integers(0, s + 1))
        if (min(r11, r22, r33, r44) < 0 or t * t > r11 * r44
                or (s - t) ** 2 > r22 * r33):
            continue
        rows.append([r11 / n, r22 / n, r33 / n, r44 / n, t / n, (s - t) / n,
                     *rng.uniform(0.0, 2.0 * np.pi, size=2)])
    return np.array(rows)


class TestDegenerateFamilies:
    """The oracle-check comparisons, with its bounds, on 300 states from
    each family where the closed forms are least generic."""

    COUNT = 300

    def assert_oracles_agree(self, params):
        assert params.shape == (self.COUNT, 8)
        df, transverse, dd = oracle_errors(params, 0).max(axis=0)
        assert df <= 1e-8
        assert transverse <= 1e-6
        assert dd <= 1e-6

    def test_k1_equal_to_k3(self):
        params = _k1_equal_to_k3_states(self.COUNT, seed=151)
        k1, _, k3, _ = _kernels.k_eigenvalues(*params[:, :6].T)
        assert np.array_equal(k1, k3)
        self.assert_oracles_agree(params)

    def test_case2_nearest_the_equality_manifold(self):
        # Least |x3 + y3 T33| among 4x10^4 case-2 states.
        pool, _ = sample_x_arrays(SamplerConfig(seed=157, count=40000,
                                                case_filter=2))
        x3, y3, t33 = _kernels.z_bloch(*pool[:, :4].T)
        order = np.argsort(np.abs(x3 + y3 * t33), kind="stable")
        self.assert_oracles_agree(pool[order[:self.COUNT]])

    def test_most_nearly_pure(self):
        # Largest purity Tr(rho^2) among 4x10^4 states.
        pool, _ = sample_x_arrays(SamplerConfig(seed=163, count=40000))
        purity = (np.sum(pool[:, :4] ** 2, axis=1)
                  + 2.0 * np.sum(pool[:, 4:6] ** 2, axis=1))
        order = np.argsort(-purity, kind="stable")
        self.assert_oracles_agree(pool[order[:self.COUNT]])


class TestOracleErrors:
    def test_invalid_row_raises_the_xstateparams_error(self):
        params, _ = sample_x_arrays(SamplerConfig(seed=167, count=4))
        params[2, 4] = 1.0
        with pytest.raises(InvalidStateError) as want:
            XStateParams(*params[2])
        with pytest.raises(InvalidStateError) as got:
            oracle_errors(params, 0)
        assert str(got.value) == str(want.value)

    def test_phases_are_normalized_first(self):
        params, _ = sample_x_arrays(SamplerConfig(seed=173, count=6))
        shifted = params.copy()
        shifted[:, 6:] += np.array([-50.0, -2.0, 0.0, 2.0, 7.0, 300.0]
                                   )[:, None] * np.pi
        normalized = np.fmod(shifted[:, 6:], 2.0 * np.pi)
        normalized[normalized < 0.0] += 2.0 * np.pi
        assert not np.array_equal(normalized, shifted[:, 6:])
        expected = shifted.copy()
        expected[:, 6:] = normalized
        assert (oracle_errors(shifted, 0).tobytes()
                == oracle_errors(expected, 0).tobytes())


class TestReportSerialization:
    def test_csv_row_shape(self):
        r = quantifiers_x(WITNESS)
        row = r.to_csv_row()
        fields = row.split(",")
        assert len(fields) == len(REPORT_CSV_HEADER.split(","))
        assert fields[0] == "2"
        assert fields[-1] in ("0", "1")
        assert float(fields[4]) == pytest.approx(r.t_g, abs=0)

    def test_csv_row_is_the_field_by_field_join(self):
        # One % format over the row gives the bytes of formatting each
        # field on its own, and a list row gives the report of its array.
        def joined(r):
            cols = [str(int(r.case.case_id))]
            cols += [CSV_FLOAT % v for v in (
                r.case.k1, r.case.k2, r.case.k3, r.t_g, r.d_g, r.c_g, r.l_g,
                r.residual_closure, r.residual_with_l,
                r.product_pair.a[2], r.product_pair.b[2])]
            cols.append("1" if r.boundary_flag else "0")
            return ",".join(cols)

        params, _ = sample_x_arrays(SamplerConfig(seed=13, count=200))
        rows = closest.x_report_rows(params)
        reports = []
        for vals, row in zip(params.tolist(), rows):
            p = XStateParams(*vals)
            report = quantifiers_x(p, row=row.tolist())
            assert report.to_json_dict() == quantifiers_x(
                p, row=row).to_json_dict()
            reports.append(report)
        assert {r.case.case_id for r in reports} == {CaseId.CASE1,
                                                     CaseId.CASE2}
        bell = quantifiers_x(BELL)
        assert bell.boundary_flag
        signed = {_kernels.COL_TG, _kernels.COL_RES, _kernels.COL_RESL,
                  _kernels.COL_A3, _kernels.COL_B3}
        negative_zero = dataclasses.replace(bell, row=[
            -0.0 if col in signed else v for col, v in enumerate(bell.row)])
        reports += [bell, negative_zero,
                    bell_diagonal_quantifiers(0.5, -0.5, 0.25)]
        for r in reports:
            assert r.to_csv_row() == joined(r)
        assert negative_zero.to_csv_row().split(",").count("-0") == 5

    def test_json_dict_keys(self):
        doc = quantifiers_x(BELL).to_json_dict()
        assert set(doc) >= {"case", "boundary", "k", "quantifiers",
                            "residuals", "closest_product",
                            "closest_classical", "classical_closest_product"}
        assert doc["quantifiers"]["tg"] == pytest.approx(0.75, abs=1e-12)


def _bits(obj):
    # The float64 bit patterns of a ProductPair or an XStateParams.
    if isinstance(obj, closest.ProductPair):
        vals = [*obj.a, *obj.b]
    else:
        vals = dataclasses.astuple(obj)
    return np.array(vals, dtype=np.float64).view(np.uint64).tolist()


class TestLazyClosestStates:
    def test_built_on_first_read_as_the_closest_state_functions(self):
        for case in (CaseId.CASE1, CaseId.CASE2):
            params, _ = sample_x_arrays(
                SamplerConfig(seed=181, count=200, case_filter=case))
            rows = closest.x_report_rows(params).tolist()
            for vals, row in zip(params.tolist(), rows):
                p = XStateParams(*vals)
                r = quantifiers_x(p, row=row)
                assert r.case.case_id is case
                assert not {"product_pair", "classical_state",
                            "classical_product_pair"} & set(vars(r))
                assert _bits(r.product_pair) == _bits(
                    closest.closest_product_x(p))
                assert _bits(r.classical_state) == _bits(
                    closest.closest_classical_x(p))
                assert _bits(r.classical_product_pair) == _bits(
                    closest_product_of_classical_x(p))
                assert r.product_pair is r.product_pair

    def test_bell_diagonal_pairs_are_positive_zeros(self):
        # t33 = -0.9 rounds the diagonal so that y3 = 2.8e-17, not 0.
        for diag, case in (((0.1, 0.05, -0.9), CaseId.CASE1),
                           ((0.95, 0.9, -0.9), CaseId.CASE2)):
            r = bell_diagonal_quantifiers(*diag)
            assert r.case.case_id is case
            assert _bits(r.product_pair) == [0] * 6
            assert _bits(r.classical_product_pair) == [0] * 6


# Each quantifier property of CorrelationReport and its kernel row column.
_PROPERTY_COLUMNS = {
    "t_g": _kernels.COL_TG, "d_g": _kernels.COL_DG, "c_g": _kernels.COL_CG,
    "l_g": _kernels.COL_LG, "residual_closure": _kernels.COL_RES,
    "residual_with_l": _kernels.COL_RESL, "a3": _kernels.COL_A3,
    "b3": _kernels.COL_B3,
}


class TestRowView:
    """A report is a view of its kernel row: every property reads the row,
    and the closest states are those of the array functions."""

    def assert_views(self, params, rows, reports):
        case = rows[:, _kernels.COL_CASE]
        a3, b3 = rows[:, _kernels.COL_A3], rows[:, _kernels.COL_B3]
        classical = closest.closest_classical_rows(params, case)
        a, b = closest.classical_product_rows(params, case, a3, b3)
        for i, r in enumerate(reports):
            row = rows[i]
            for name, col in _PROPERTY_COLUMNS.items():
                value = getattr(r, name)
                assert type(value) is float
                assert _bits_of(value) == _bits_of(row[col])
            assert r.boundary_flag is bool(row[_kernels.COL_BOUNDARY])
            assert r.case == closest.CaseLabel(
                CaseId(int(row[_kernels.COL_CASE])), row[_kernels.COL_K1],
                row[_kernels.COL_K2], row[_kernels.COL_K3])
            assert _bits(r.product_pair) == _bits(closest.ProductPair(
                (0.0, 0.0, a3[i]), (0.0, 0.0, b3[i])))
            assert _bits(r.classical_state) == _bits(
                XStateParams(*classical[i].tolist()))
            assert _bits(r.classical_product_pair) == _bits(
                closest.ProductPair((0.0, 0.0, a[i]), (0.0, 0.0, b[i])))

    @pytest.mark.parametrize("seed,phase_mode", ((1, "free"), (7, "free"),
                                                 (7, "zero")))
    def test_sampled_rows(self, seed, phase_mode):
        params, _ = sample_x_arrays(SamplerConfig(seed=seed, count=300,
                                                  phase_mode=phase_mode))
        rows = closest.x_report_rows(params)
        reports = [quantifiers_x(XStateParams(*vals), row=row)
                   for vals, row in zip(params.tolist(), rows)]
        assert {r.case.case_id for r in reports} == {CaseId.CASE1,
                                                     CaseId.CASE2}
        self.assert_views(params, rows, reports)

    def test_bell_and_bell_diagonal(self):
        for r in (quantifiers_x(BELL),
                  bell_diagonal_quantifiers(0.5, -0.5, 0.25)):
            params = r.state.as_array()[None]
            self.assert_views(params, np.array([r.row], dtype=np.float64),
                              [r])


def _bits_of(value):
    return np.float64(value).view(np.uint64).item()
