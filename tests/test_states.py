import json
import math

import numpy as np
import pytest

from conftest import sample_states
from xqcorr.errors import InvalidStateError, NotAnXStateError
from xqcorr.states import (
    ID2,
    PAULI,
    BlochForm,
    DensityMatrix4,
    XStateParams,
    bloch_compose,
    bloch_decompose,
    check_x_rows,
    matrix_to_x_params,
    parse_state_json,
    state_to_json_dict,
    x_params_to_bloch,
)

BELL_PHI_PLUS = XStateParams(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)
MIXED = XStateParams(0.25, 0.25, 0.25, 0.25, 0.0, 0.0)


def pauli_trace_oracle(m):
    """Direct trace evaluation against Pauli tensor products."""
    x = np.array([np.trace(m @ np.kron(s, ID2)).real for s in PAULI])
    y = np.array([np.trace(m @ np.kron(ID2, s)).real for s in PAULI])
    T = np.array([[np.trace(m @ np.kron(si, sj)).real for sj in PAULI]
                  for si in PAULI])
    return x, y, T


class TestBlochDecompose:
    def test_maximally_mixed(self):
        b = bloch_decompose(DensityMatrix4(np.eye(4) / 4.0))
        assert np.all(b.x == 0.0) and np.all(b.y == 0.0) and np.all(b.T == 0.0)

    def test_bell_state(self):
        b = bloch_decompose(BELL_PHI_PLUS.to_matrix())
        assert np.allclose(b.x, 0.0, atol=1e-15)
        assert np.allclose(b.y, 0.0, atol=1e-15)
        assert np.allclose(b.T, np.diag([1.0, -1.0, 1.0]), atol=1e-15)

    def test_x_state_example(self):
        p = XStateParams(0.5, 0.1, 0.1, 0.3, 0.35, 0.05)
        b = bloch_decompose(p.to_matrix())
        assert abs(b.x[2] - 0.2) < 1e-14
        assert abs(b.y[2] - 0.2) < 1e-14
        assert abs(b.T[2, 2] - 0.6) < 1e-14
        assert abs(b.T[0, 0] - 0.8) < 1e-14
        assert abs(b.T[1, 1] + 0.6) < 1e-14
        zero_mask = np.ones((3, 3), dtype=bool)
        zero_mask[:2, :2] = False
        zero_mask[2, 2] = False
        assert np.all(np.abs(b.T[zero_mask]) < 1e-14)
        assert abs(b.x[0]) < 1e-14 and abs(b.x[1]) < 1e-14

    def test_matches_pauli_trace_oracle(self):
        for p in sample_states(seed=3, count=25):
            m = p.to_matrix().matrix
            x, y, T = pauli_trace_oracle(m)
            b = bloch_decompose(DensityMatrix4(m))
            assert np.allclose(b.x, x, atol=1e-14)
            assert np.allclose(b.y, y, atol=1e-14)
            assert np.allclose(b.T, T, atol=1e-14)

    def test_rejects_invalid(self):
        with pytest.raises(InvalidStateError):
            bloch_decompose(DensityMatrix4(np.eye(4)))  # trace 4
        bad = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        with pytest.raises(InvalidStateError):
            bloch_decompose(DensityMatrix4(bad))


class TestBlochCompose:
    def test_zero_gives_maximally_mixed(self):
        b = BlochForm(np.zeros(3), np.zeros(3), np.zeros((3, 3)))
        assert np.allclose(bloch_compose(b).matrix, np.eye(4) / 4.0)

    def test_bell_tensor(self):
        b = BlochForm(np.zeros(3), np.zeros(3), np.diag([1.0, -1.0, 1.0]))
        expected = BELL_PHI_PLUS.to_matrix().matrix
        assert np.allclose(bloch_compose(b).matrix, expected, atol=1e-15)

    def test_pure_product_11(self):
        b = BlochForm((0, 0, 1.0), (0, 0, 1.0), np.diag([0.0, 0.0, 1.0]))
        assert np.allclose(bloch_compose(b).matrix,
                           np.diag([1.0, 0, 0, 0]), atol=1e-15)

    def test_unphysical_tensor_reports_via_validation(self):
        b = BlochForm(np.zeros(3), np.zeros(3), np.diag([1.0, 1.0, 1.0]))
        rho = bloch_compose(b)
        with pytest.raises(InvalidStateError):
            rho.validate()


class TestXParamsToBloch:
    def test_uniform_diagonal(self):
        b = x_params_to_bloch(MIXED)
        assert np.all(b.x == 0) and np.all(b.y == 0) and np.all(b.T == 0)

    def test_werner_half(self):
        p = XStateParams(0.375, 0.125, 0.125, 0.375, 0.25, 0.0)
        b = x_params_to_bloch(p)
        assert np.allclose(np.diag(b.T), [0.5, -0.5, 0.5], atol=1e-15)
        assert b.x[2] == 0.0 and b.y[2] == 0.0

    def test_quarter_phase(self):
        p = XStateParams(0.25, 0.25, 0.25, 0.25, 0.1, 0.1,
                         gamma14=math.pi / 2.0, gamma23=0.0)
        b = x_params_to_bloch(p)
        assert abs(b.T[0, 0] - 0.2) < 1e-15
        assert abs(b.T[0, 1] + 0.2) < 1e-15
        assert abs(b.T[1, 0] + 0.2) < 1e-15
        assert abs(b.T[1, 1] - 0.2) < 1e-15

    def test_transverse_components_vanish(self):
        for p in sample_states(seed=5, count=50):
            b = x_params_to_bloch(p)
            assert b.x[0] == 0.0 and b.x[1] == 0.0
            assert b.y[0] == 0.0 and b.y[1] == 0.0
            assert np.all(b.T[0:2, 2] == 0.0) and np.all(b.T[2, 0:2] == 0.0)


class TestMatrixToXParams:
    def test_maximally_mixed(self):
        p = matrix_to_x_params(DensityMatrix4(np.eye(4) / 4.0))
        assert p == MIXED

    def test_bell(self):
        p = matrix_to_x_params(BELL_PHI_PLUS.to_matrix())
        assert p.rho11 == 0.5 and p.rho44 == 0.5
        assert p.rho14 == 0.5 and p.gamma14 == 0.0

    def test_non_x_entry_rejected(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = 0.1
        m[1, 0] = 0.1
        with pytest.raises(NotAnXStateError) as err:
            matrix_to_x_params(DensityMatrix4(m))
        assert (0, 1) in err.value.entries and (1, 0) in err.value.entries

    def test_phase_extraction(self):
        p = XStateParams(0.4, 0.1, 0.2, 0.3, 0.2, 0.05, 1.25, 5.5)
        q = matrix_to_x_params(p.to_matrix())
        assert abs(q.gamma14 - 1.25) < 1e-12
        assert abs(q.gamma23 - 5.5) < 1e-12
        assert abs(q.rho14 - 0.2) < 1e-15

    def test_zero_coherence_phase_is_zero(self):
        p = XStateParams(0.4, 0.1, 0.2, 0.3, 0.0, 0.0, 1.0, 2.0)
        q = matrix_to_x_params(p.to_matrix())
        assert q.gamma14 == 0.0 and q.gamma23 == 0.0


class TestRoundTrips:
    def test_x_params_compose_is_physical(self):
        for p in sample_states(seed=11, count=1000):
            rho = bloch_compose(x_params_to_bloch(p))
            rho.validate()

    def test_bloch_roundtrip(self):
        for p in sample_states(seed=13, count=200):
            b = x_params_to_bloch(p)
            b2 = bloch_decompose(bloch_compose(b))
            assert np.allclose(b.x, b2.x, atol=1e-12)
            assert np.allclose(b.y, b2.y, atol=1e-12)
            assert np.allclose(b.T, b2.T, atol=1e-12)

    def test_matrix_roundtrip(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = g @ g.conj().T
            m /= m.trace().real
            rho = DensityMatrix4(m)
            back = bloch_compose(bloch_decompose(rho))
            assert np.max(np.abs(back.matrix - m)) < 1e-12

    def test_params_roundtrip(self):
        for p in sample_states(seed=19, count=200):
            q = matrix_to_x_params(p.to_matrix())
            assert np.allclose(p.as_array(), q.as_array(), atol=1e-12)

    def test_tensor_entries_bounded(self):
        for p in sample_states(seed=23, count=1000):
            b = x_params_to_bloch(p)
            assert np.max(np.abs(b.T)) <= 1.0 + 1e-10


class TestXStateParamsInvariants:
    def test_phase_normalization(self):
        p = XStateParams(0.25, 0.25, 0.25, 0.25, 0.1, 0.0,
                         gamma14=-math.pi / 2.0, gamma23=2.0 * math.pi)
        assert abs(p.gamma14 - 1.5 * math.pi) < 1e-15
        assert p.gamma23 == 0.0

    def test_trace_violation(self):
        with pytest.raises(InvalidStateError):
            XStateParams(0.5, 0.5, 0.5, 0.5, 0.0, 0.0)

    def test_negative_diagonal(self):
        with pytest.raises(InvalidStateError):
            XStateParams(1.1, -0.1, 0.0, 0.0, 0.0, 0.0)

    def test_block_positivity(self):
        with pytest.raises(InvalidStateError):
            XStateParams(0.25, 0.25, 0.25, 0.25, 0.3, 0.0)

    def test_negative_coherence_magnitude(self):
        with pytest.raises(InvalidStateError):
            XStateParams(0.5, 0.0, 0.0, 0.5, -0.2, 0.0)

    def test_non_finite(self):
        with pytest.raises(InvalidStateError):
            XStateParams(float("nan"), 0.25, 0.25, 0.25, 0.0, 0.0)


def _accepted(row):
    try:
        XStateParams(*row)
    except InvalidStateError:
        return False
    return True


def _threshold_rows(make, ok, bad):
    """Rows make(ok), make(bad) with ok, bad adjacent floats.

    Bisects between a value XStateParams accepts and one it rejects, so
    the two rows sit on either side of the threshold to the last bit.
    """
    while np.nextafter(ok, bad) != bad:
        mid = 0.5 * (ok + bad)
        if _accepted(make(mid)):
            ok = mid
        else:
            bad = mid
    return make(ok), make(bad)


def _scalar_message(row):
    with pytest.raises(InvalidStateError) as exc:
        XStateParams(*row)
    return str(exc.value)


class TestCheckXRows:
    # For each threshold of XStateParams: (row family, accepted value,
    # rejected value, expected message part).
    THRESHOLDS = (
        (lambda x: [0.6, x, 0.2, 0.2 - x, 0.0, 0.0, 0.0, 0.0],
         0.0, -1e-11, "negative diagonal entry"),
        (lambda x: [0.4, 0.2, 0.2, 0.2 + x, 0.1, 0.05, 1.0, 2.5],
         0.0, 1e-11, "diagonal sums to 1"),
        (lambda x: [0.4, 0.2, 0.2, 0.2 + x, 0.1, 0.05, 1.0, 2.5],
         0.0, -1e-11, "diagonal sums to 1"),
        (lambda x: [0.4, 0.2, 0.2, 0.2, x, 0.05, 0.0, 0.0],
         0.0, -1e-300, "coherence magnitudes must be nonnegative"),
        (lambda x: [0.4, 0.2, 0.2, 0.2, 0.1, x, 0.0, 0.0],
         0.0, -1e-300, "coherence magnitudes must be nonnegative"),
        (lambda x: [0.4, 0.2, 0.2, 0.2, x, 0.05, 0.0, 0.0],
         0.0, 1.0, "outer block not positive"),
        (lambda x: [0.4, 0.2, 0.2, 0.2, 0.1, x, 0.0, 0.0],
         0.0, 1.0, "inner block not positive"),
    )

    def test_thresholds_match_xstateparams(self):
        for make, ok, bad, message in self.THRESHOLDS:
            inside, outside = _threshold_rows(make, ok, bad)
            XStateParams(*inside)
            expected = _scalar_message(outside)
            assert message in expected
            check_x_rows(np.array([inside]))
            with pytest.raises(InvalidStateError) as exc:
                check_x_rows(np.array([outside]))
            assert str(exc.value) == expected

    def test_non_finite_entries(self):
        base = [0.4, 0.2, 0.2, 0.2, 0.1, 0.05, 1.0, 2.5]
        for col in range(8):
            for value in (math.nan, math.inf, -math.inf):
                row = list(base)
                row[col] = value
                with pytest.raises(InvalidStateError,
                                   match="non-finite X-state parameter"):
                    check_x_rows(np.array([base, row]))

    def test_reports_the_first_bad_row(self):
        good = [make(ok) for make, ok, _, _ in self.THRESHOLDS]
        bad = [_threshold_rows(make, ok, bad)[1]
               for make, ok, bad, _ in self.THRESHOLDS]
        check_x_rows(np.array(good))
        for i, row in enumerate(bad):
            rows = np.array(good + bad[i:] + good)
            with pytest.raises(InvalidStateError) as exc:
                check_x_rows(rows)
            assert str(exc.value) == _scalar_message(row)

class TestStateJson:
    def test_x_roundtrip(self):
        p = XStateParams(0.4, 0.1, 0.2, 0.3, 0.2, 0.05, 1.25, 5.5)
        q = parse_state_json(json.dumps(state_to_json_dict(p)))
        assert np.allclose(p.as_array(), q.as_array(), atol=0)

    def test_dense_roundtrip(self):
        rho = BELL_PHI_PLUS.to_matrix()
        q = parse_state_json(json.dumps(state_to_json_dict(rho)))
        assert isinstance(q, DensityMatrix4)
        assert np.array_equal(q.matrix, rho.matrix)

    def test_gamma_defaults(self):
        q = parse_state_json(
            '{"kind": "x", "rho11": 0.5, "rho22": 0.0, "rho33": 0.0,'
            ' "rho44": 0.5, "rho14": 0.5, "rho23": 0.0}'
        )
        assert q.gamma14 == 0.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            parse_state_json('{"kind": "x", "rho11": NaN, "rho22": 0.5,'
                             ' "rho33": 0, "rho44": 0.5, "rho14": 0,'
                             ' "rho23": 0}')

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            parse_state_json('{"kind": "x", "rho11": 0.25, "rho22": 0.25,'
                             ' "rho33": 0.25, "rho44": 0.25, "rho14": 0,'
                             ' "rho23": 0, "gamma_14": 0}')

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            parse_state_json('{"kind": "bloch"}')

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            parse_state_json('{"kind": "dense", "re": [[1.0]], "im": [[0.0]]}')

    def test_rejects_integers_too_large_for_a_float(self):
        # 10^400 is a valid JSON integer, but no float holds it.
        big = "1" + "0" * 400
        x_doc = ('{"kind": "x", "rho11": %s, "rho22": 0, "rho33": 0,'
                 ' "rho44": 0, "rho14": 0, "rho23": 0}' % big)
        with pytest.raises(ValueError, match="'rho11' is too large"):
            parse_state_json(x_doc)
        zero = "[%s]" % ", ".join(["[0, 0, 0, 0]"] * 4)
        huge = zero.replace("[0, 0, 0, 0]]", "[0, -%s, 0, 0]]" % big)
        for re, im in ((huge, zero), (zero, huge)):
            text = '{"kind": "dense", "re": %s, "im": %s}' % (re, im)
            with pytest.raises(ValueError, match="int too large"):
                parse_state_json(text)
