import itertools
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import dense_state, sample_states, threshold_rows
from xqcorr import _kernels
from xqcorr.closest import (CaseId, ProductPair, check_report_rows,
                            classical_product_rows, closest_classical_rows,
                            k_matrices, x_report_rows)
from xqcorr.dynamics import DynamicsConfig, trajectory
from xqcorr.ensemble import SamplerConfig, sample_x_arrays
from xqcorr.errors import InvalidStateError, NotAnXStateError
from xqcorr.quantifiers import geometric_discords, oracle_errors, quantifiers_x
from xqcorr.states import (
    ID2,
    PAULI,
    TWO_PI,
    BlochForm,
    DensityMatrix4,
    XStateParams,
    bloch_components,
    bloch_compose,
    bloch_decompose,
    block_least_eigenvalue,
    check_densities,
    check_x_rows,
    matrix_to_x_params,
    parse_state_json,
    product_least_eigenvalue,
    state_to_json_dict,
    x_bloch_components,
    x_matrices,
    x_params_to_bloch,
    x_state_violations,
    wrap_phase,
)
from xqcorr.tolerances import (ORACLE_DISCORD, ORACLE_DISTANCE,
                               ORACLE_TRANSVERSE)

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


def _scalar_x_matrix(p):
    # The per-state arithmetic x_matrices replaced, as the reference.
    m = np.zeros((4, 4), dtype=np.complex128)
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = p.rho11, p.rho22, p.rho33, p.rho44
    c14 = p.rho14 * np.exp(1j * p.gamma14)
    c23 = p.rho23 * np.exp(1j * p.gamma23)
    m[0, 3], m[3, 0], m[1, 2], m[2, 1] = (c14, c14.conjugate(),
                                          c23, c23.conjugate())
    return m


def _scalar_x_bloch(p):
    # The per-state arithmetic x_bloch_components replaced, with math.cos.
    c14, s14 = math.cos(p.gamma14), math.sin(p.gamma14)
    c23, s23 = math.cos(p.gamma23), math.sin(p.gamma23)
    T = np.zeros((3, 3))
    T[0, 0] = 2.0 * c14 * p.rho14 + 2.0 * c23 * p.rho23
    T[0, 1] = -2.0 * s14 * p.rho14 + 2.0 * s23 * p.rho23
    T[1, 0] = -2.0 * s14 * p.rho14 - 2.0 * s23 * p.rho23
    T[1, 1] = -2.0 * c14 * p.rho14 + 2.0 * c23 * p.rho23
    T[2, 2] = p.rho11 - p.rho22 - p.rho33 + p.rho44
    return (np.array([0.0, 0.0, p.rho11 + p.rho22 - p.rho33 - p.rho44]),
            np.array([0.0, 0.0, p.rho11 - p.rho22 + p.rho33 - p.rho44]), T)


class TestStackedForms:
    """Each stacked form gives, row by row, the bits of the per-state
    arithmetic it replaced; the one-state views are its rows."""

    PARAMS = np.concatenate([
        sample_x_arrays(SamplerConfig(seed=seed, count=400))[0]
        for seed in (0, 1, 3, 5)])

    def test_x_matrices(self):
        states = [XStateParams(*row) for row in self.PARAMS.tolist()]
        stacked = x_matrices(self.PARAMS)
        assert stacked.tobytes() == np.array(
            [_scalar_x_matrix(p) for p in states]).tobytes()
        assert stacked[7].tobytes() == states[7].to_matrix().matrix.tobytes()

    def test_bloch_components(self):
        m = np.concatenate([x_matrices(self.PARAMS[::4]),
                            dense_state(149).matrix[None]])
        stacked = bloch_components(m)
        reference = zip(*(pauli_trace_oracle(mi) for mi in m))
        for got, want in zip(stacked, reference):
            assert got.tobytes() == np.array(want).tobytes()
        b = bloch_decompose(DensityMatrix4(m[-1]))
        assert b.T.tobytes() == stacked[2][-1].tobytes()

    def test_x_bloch_components(self):
        states = [XStateParams(*row) for row in self.PARAMS.tolist()]
        stacked = x_bloch_components(self.PARAMS)
        reference = zip(*(_scalar_x_bloch(p) for p in states))
        for got, want in zip(stacked, reference):
            assert got.tobytes() == np.array(want).tobytes()
        b = x_params_to_bloch(states[7])
        assert b.T.tobytes() == stacked[2][7].tobytes()

    def test_k_matrices_and_discords(self):
        m = np.concatenate([x_matrices(self.PARAMS),
                            dense_state(149).matrix[None]])
        x, _, T = bloch_components(m)
        K, eigs = k_matrices(x, T)
        discords = geometric_discords(x, T)
        for i in range(len(m)):
            k = np.outer(x[i], x[i]) + T[i] @ T[i].T
            kmax = np.linalg.eigvalsh(k)[-1]
            assert K[i].tobytes() == k.tobytes()
            assert eigs[i, 0] == kmax
            assert discords[i] == 0.25 * (float(np.sum(x[i] * x[i]))
                                          + float(np.sum(T[i] * T[i]))
                                          - kmax)


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


def _plain_wrap(g):
    # fmod, plus 2*pi below zero: wrap_phase without its +0.0 rule.
    g = math.fmod(g, TWO_PI)
    return g + TWO_PI if g < 0.0 else g


class TestWrapPhase:
    EDGES = [0.0, -0.0, 1e-17, -1e-17, 3e-16, -3e-16, -4.4e-16, 1e300,
             -1e300, 5e-324, -5e-324, math.pi, -math.pi]
    EDGES += [s * v for v in (TWO_PI, np.nextafter(TWO_PI, 0.0),
                              np.nextafter(TWO_PI, 7.0), 2.0 * TWO_PI,
                              3.0 * TWO_PI) for s in (1.0, -1.0)]
    PHASES = np.concatenate([
        EDGES, sample_x_arrays(SamplerConfig(seed=7, count=2000))[0][:, 6:]
        .ravel(), np.random.default_rng(5).normal(scale=50.0, size=4000),
        np.random.default_rng(6).uniform(-1e-15, 1e-15, size=1000)])

    def test_floats_and_arrays_give_the_same_bits(self):
        floats = np.array([wrap_phase(g) for g in self.PHASES.tolist()])
        assert (floats.view(np.uint64)
                == wrap_phase(self.PHASES).view(np.uint64)).all()

    def test_results_lie_in_the_half_open_range_without_a_sign_bit(self):
        got = wrap_phase(self.PHASES)
        assert np.all((got >= 0.0) & (got < TWO_PI))
        assert not np.signbit(got).any()

    def test_only_a_zero_or_two_pi_wrap_differs_from_the_plain_rule(self):
        plain = np.array([_plain_wrap(g) for g in self.PHASES.tolist()])
        edge = (plain == 0.0) | (plain == TWO_PI)
        got = wrap_phase(self.PHASES)
        assert (got[~edge].view(np.uint64)
                == plain[~edge].view(np.uint64)).all()
        assert np.all(got[edge] == 0.0)
        # -0.0, -2*pi and tiny negative phases are the inputs that change.
        changed = plain.view(np.uint64) != got.view(np.uint64)
        assert changed.sum() >= 4 and np.all(self.PHASES[changed] <= 0.0)

    def test_every_phase_user_wraps_a_tiny_negative_to_plus_zero(self):
        p = XStateParams(0.4, 0.1, 0.1, 0.4, 0.1, 0.05, -1e-17, -3e-16)
        q = XStateParams(0.4, 0.1, 0.1, 0.4, 0.1, 0.05, -0.0, -TWO_PI)
        for r in (p, q):
            assert math.copysign(1.0, r.gamma14) == 1.0 and r.gamma14 == 0.0
            assert math.copysign(1.0, r.gamma23) == 1.0 and r.gamma23 == 0.0
        zero = XStateParams(0.4, 0.1, 0.1, 0.4, 0.1, 0.05).as_array()[None]
        rows = np.array([zero[0], p.as_array(), q.as_array()])
        rows[1:, 6:] = [[-1e-17, -3e-16], [-0.0, -TWO_PI]]
        for form in (x_matrices, lambda a: x_bloch_components(a)[2]):
            got = form(rows)
            assert got[1].tobytes() == got[0].tobytes()
            assert got[2].tobytes() == got[0].tobytes()
        m = x_matrices(zero)[0]
        m[0, 3], m[3, 0] = complex(0.1, -0.0), complex(0.1, 0.0)
        back = matrix_to_x_params(DensityMatrix4(m))
        assert math.copysign(1.0, back.gamma14) == 1.0


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
        # A zero-coherence block's least eigenvalue is its smaller diagonal
        # entry, so a diagonal entry fails just below -PSD_FLOOR.
        (lambda x: [0.6, x, 0.2, 0.2 - x, 0.0, 0.0, 0.0, 0.0],
         0.0, -1e-9, "inner block not positive: least eigenvalue -1.000e-10"),
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

class TestDensityMatrix4:
    @pytest.mark.parametrize("shape", [(3, 3), (4,), (2, 4, 4), (4, 5)])
    def test_rejects_a_shape_other_than_4x4(self, shape):
        with pytest.raises(InvalidStateError, match="expected a 4x4 matrix"):
            DensityMatrix4(np.zeros(shape))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     complex(0.0, math.nan),
                                     complex(0.0, math.inf)])
    def test_rejects_non_finite_entries(self, bad):
        m = np.eye(4, dtype=np.complex128) / 4.0
        m[1, 2] = bad
        with pytest.raises(InvalidStateError,
                           match="^non-finite matrix entries$"):
            DensityMatrix4(m)


class TestCheckDensities:
    MIXED_MATRIX = np.eye(4, dtype=np.complex128) / 4.0
    NON_HERMITIAN = MIXED_MATRIX + np.diag([2e-9, 0, 0], 1)
    WRONG_TRACE = MIXED_MATRIX * (1.0 + 4e-9)
    NOT_POSITIVE = np.diag([0.5, 0.5, 0.25, -0.25]).astype(np.complex128)
    MESSAGES = {
        "not Hermitian (max deviation 2.000e-09)": NON_HERMITIAN,
        "trace differs from 1 by 4.000e-09": WRONG_TRACE,
        "negative eigenvalue -2.500e-01": NOT_POSITIVE,
    }

    def test_messages(self):
        for problem, m in self.MESSAGES.items():
            with pytest.raises(InvalidStateError) as exc:
                check_densities(m[None])
            assert str(exc.value) == "invalid density matrix: " + problem
            assert exc.value.violations == (problem,)

    def test_first_bad_matrix_raises_its_validate_error(self):
        for bad in itertools.permutations(self.MESSAGES.values()):
            stack = np.array([self.MIXED_MATRIX, bad[0], self.MIXED_MATRIX,
                              bad[1], bad[2]])
            with pytest.raises(InvalidStateError) as want:
                DensityMatrix4(bad[0]).validate()
            with pytest.raises(InvalidStateError) as got:
                check_densities(stack)
            assert str(got.value) == str(want.value)
            assert got.value.violations == want.value.violations

    def test_both_shape_problems_in_one_message(self):
        with pytest.raises(InvalidStateError) as exc:
            check_densities((self.NON_HERMITIAN * (1.0 + 4e-9))[None])
        assert len(exc.value.violations) == 2

    def test_valid_stack_is_returned(self):
        stack = np.array([p.to_matrix().matrix
                          for p in sample_states(seed=5, count=10)])
        assert check_densities(stack) is stack


def _passes(check, *args):
    # Whether check(*args) returns without an InvalidStateError.
    try:
        check(*args)
    except InvalidStateError:
        return False
    return True


def _matrix_accepts(matrices):
    # Whether check_densities accepts each matrix, one at a time.
    return np.array([_passes(check_densities, m[None]) for m in matrices])


def _pair_matrices(a3, b3):
    # The matrices of the z-axis product pairs (a3, b3), unvalidated.
    return [ProductPair.to_matrix(SimpleNamespace(
        a=np.array([0.0, 0.0, a]), b=np.array([0.0, 0.0, b]))).matrix
        for a, b in zip(a3, b3)]


class TestValidAsItsMatrix:
    """An X state is valid exactly when its dense matrix is, and its report
    exactly when the matrices of the closest states it reports are too."""

    def test_x_validation_agrees_with_the_matrix(self):
        rows = threshold_rows(seed=23, count=20_000)
        flags, _ = x_state_violations(*rows[:, :6].T)
        accepted = ~np.any(flags, axis=0)
        assert 0.1 < accepted.mean() < 0.9
        scalar = []
        for row in rows.tolist():
            try:
                XStateParams(*row)
            except InvalidStateError:
                scalar.append(False)
            else:
                scalar.append(True)
        assert np.array_equal(scalar, accepted)
        disagree = np.flatnonzero(_matrix_accepts(x_matrices(rows))
                                  != accepted)
        assert disagree.size == 0, rows[disagree[:5]].tolist()

    def test_every_path_accepts_what_the_matrix_accepts(self):
        # Paths that check the state alone; reports are checked below.
        rows = threshold_rows(seed=29, count=5000)
        rows = rows[_matrix_accepts(x_matrices(rows))]
        assert len(rows) >= 800
        for row in rows[:150].tolist():
            initial = XStateParams(*row)
            for lam in (0.1, 5.0):  # under- and overdamped
                _, params, _ = trajectory(DynamicsConfig(1.0, lam, 5.0, 3,
                                                         initial))
                assert params[0].tobytes() == initial.as_array().tobytes()
        errors = oracle_errors(rows[:60], seed=0)
        assert np.all(errors <= [ORACLE_DISTANCE, ORACLE_TRANSVERSE,
                                 ORACLE_DISCORD])

    def test_reports_fail_exactly_when_a_reported_matrix_fails(self):
        # Every valid row of 3000, and the first 300 rows whatever they are.
        rows = threshold_rows(seed=31, count=3000)
        own = _matrix_accepts(x_matrices(rows))
        kept = own | (np.arange(len(rows)) < 300)
        rows, own = rows[kept], own[kept]
        reports = x_report_rows(rows)
        case = reports[:, _kernels.COL_CASE]
        a3, b3 = reports[:, _kernels.COL_A3], reports[:, _kernels.COL_B3]
        y3 = np.where(case == CaseId.CASE2,
                      _kernels.z_bloch(*rows[:, :4].T)[1], 0.0)
        pair = _matrix_accepts(_pair_matrices(a3, b3))
        expected = (own & pair
                    & _matrix_accepts(_pair_matrices(0.0 * y3, y3))
                    & _matrix_accepts(x_matrices(
                        closest_classical_rows(rows, case))))
        report_ok = np.array([
            _passes(lambda r: quantifiers_x(XStateParams(*r)).to_json_dict(),
                    row) for row in rows.tolist()])
        disagree = np.flatnonzero(report_ok != expected)
        assert disagree.size == 0, rows[disagree[:5]].tolist()
        # check_report_rows checks the closest states of valid rows.
        rows_ok = [_passes(check_report_rows, rows[i:i + 1], reports[i:i + 1])
                   for i in np.flatnonzero(own)]
        assert np.array_equal(rows_ok, expected[own])
        # The fuzz reaches states that a bound of 1 + 1e-10 on |a3|, |b3|
        # and |y3| rejected, and closest products that are not states.
        old_bound = np.maximum(np.maximum(abs(a3), abs(b3)), abs(y3))
        assert np.sum(expected & (old_bound > 1.0 + 1e-10)) >= 20
        assert np.sum(own & ~pair) >= 5


    def test_classical_pair_fails_only_with_its_classical_state(self):
        # In case 2 the classical state's closest product (0, y3) has least
        # eigenvalue (1 - |y3|)/4: bit for bit the smaller diagonal entry
        # min(hi, lo) of the classical state, hi, lo = (1 +- y3)/4, which
        # bounds its blocks' least eigenvalues up to rounding.  So the pair
        # fails only where that state fails too, and check_report_rows
        # raises for the state, which it builds first: no fuzz share makes
        # the pair the first closest state to fail.
        sampled, _ = sample_x_arrays(SamplerConfig(seed=43, count=10**4,
                                                   case_filter=CaseId.CASE2))
        for rows in (threshold_rows(seed=31, count=3000), sampled):
            case = _kernels.k_eigenvalues(*rows[:, :6].T)[3]
            two = case == CaseId.CASE2
            zeros = np.zeros_like(case)
            a, b = classical_product_rows(rows, case, zeros, zeros)
            least = product_least_eigenvalue(np.abs(a), np.abs(b))[two]
            hi, lo, _, _, coh = closest_classical_rows(rows, case)[two, :5].T
            hi_lo = np.minimum(hi, lo)
            assert two.sum() >= 900
            assert np.array_equal(least.view(np.uint64),
                                  hi_lo.view(np.uint64))
            assert np.all(block_least_eigenvalue(hi, lo, coh)
                          <= hi_lo + 1e-16)


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

    def test_rejects_a_document_that_is_not_an_object(self):
        for text in ("[]", "0.5", '"x"', "null"):
            with pytest.raises(ValueError, match="must contain a JSON object"):
                parse_state_json(text)

    def test_rejects_missing_x_keys(self):
        with pytest.raises(ValueError,
                           match=r"missing keys in x-state file: \['rho23'\]"):
            parse_state_json('{"kind": "x", "rho11": 0.25, "rho22": 0.25,'
                             ' "rho33": 0.25, "rho44": 0.25, "rho14": 0}')

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
