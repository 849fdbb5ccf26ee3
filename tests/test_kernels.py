import hashlib
import itertools
import json
import math
import os
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    f2_profile,
    forbid,
    perturb_a3,
    quintic_roots_reference,
    sample_states,
    scalar_solve_a3b3,
)
from xqcorr import _kernels
from xqcorr.closest import CaseId, x_report_rows
from xqcorr import dynamics
from xqcorr.dynamics import DynamicsConfig, p_t, trajectory
from xqcorr.ensemble import (
    HistogramSpec,
    SamplerConfig,
    run_histogram,
    sample_x_arrays,
)
from xqcorr.errors import SolverFailureError
from xqcorr.quantifiers import quantifiers_x
from xqcorr.states import XStateParams, parse_state_json

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# sha256 of batch_reports(...).tobytes() on 2x10^4 sampled rows per
# (seed, case filter, phase mode).  Every such row is certified, so the
# digests pin the one-root bracketed path: its a3 is the one canonical root
# of the row.  They come from numpy 2.4.6 on x86-64 Linux; the last bits of
# the floats may differ under another numpy build.  A change that does not
# mean to move a solver bit leaves them alone.
REPORT_SHA256 = {
    (1, None, "free"):
        "bae6d3b80e0c8ba3ab284666529b9c9bd2c860e379acd50a348be6f36777bede",
    (1, None, "zero"):
        "2634e2a1b706b85f0058eef1b1f00f7abb2fe70a35c29e2e2cf7da9b96da2efa",
    (1, 1, "free"):
        "b810e2b75db333278aad25d0bef73b9f8cd2ca24f1ac06905514e9731be1b91b",
    (1, 1, "zero"):
        "a8e5aa79d18f7700a0b7230afeab947b4793203b2ff7a005caee58816f9060e2",
    (1, 2, "free"):
        "666c674880a8065e59afdf438c2f6cb7078cc102a6f612a009282792428dd9e2",
    (1, 2, "zero"):
        "868d2c725590d0936b7a885b69bc553f8b5cc4e6a5691a5fd60fd5b44af158b4",
    (2, None, "free"):
        "ed7b91f2ea5062f94bcaa56176ceead9dd3332bf37d73c25c74094567befa711",
    (2, None, "zero"):
        "2076967fb4d456d943031595838263640f47c76ca744144de3ef38a99f8927c9",
    (2, 1, "free"):
        "decbf374ffc1d1489f93213959c8dfde180308bd60506dbb2d6045002cd09abd",
    (2, 1, "zero"):
        "7826d89bb69d247b417cb29d682b506471823acb4fd4c8a2eb6b09f72f34b946",
    (2, 2, "free"):
        "0246e8f0eff164d64a78d5b58a195dbd961d0d034393d369b92e858066474864",
    (2, 2, "zero"):
        "d0d90fbdd38869b34e66818797de58373ccaeab70f1ad454d5d405d4e3d6005e",
    (3, None, "free"):
        "ff8ce6328163bbd2d8548ecde578142fd97ba63fef168b69eebb51940ce152f7",
    (3, None, "zero"):
        "fbb6a4d17252200dea3c08910b7c7c455648019705dad4adfdeb3f06ce031c15",
    (3, 1, "free"):
        "74cb60696565e761613bc70316e3ffe6c4a1203cc3c6d0514cac2d633dd70e83",
    (3, 1, "zero"):
        "72881dc138e4ababfc109bb98a9d1656c92f149d370e2334b569d45a082a35da",
    (3, 2, "free"):
        "bb82e59c2316ad0448e966a139093f3ef5a79aace4ba22601e16024e658feb53",
    (3, 2, "zero"):
        "efd6c801661f2590460aad94ef354f5b0a5ada9431985a21f94f5a02ceddd197",
}

# sha256 of solve_a3b3's (a3, b3, ok) bytes, in that order, on inputs
# where many rows miss the one-root certificate and take the companion
# fallback: 2x10^4 uniform rows of [-1.5, 1.5]^3 (7641 uncertified) and
# the 33^3 dyadic grid of [-1, 1]^3 (3362).  The grid digest is that of
# the solver that held each fallback row's roots in five slots.  The cube
# digest was recomputed when the fallback stopped keeping Newton seeds
# still moving after their last step: on cube rows 7262, 12122 and 18065
# such a seed, off the root, had been the least-distance a3.  Same
# numpy-build caveat as REPORT_SHA256.
FALLBACK_SHA256 = {
    "cube": "7e51f0e6049e560ab996ab2ed9e979a619b74e0b819dd84d57db3040c4891960",
    "grid": "25cdf4554c03eb5f8d660fd5559e7204d1c85423d39928f599ebf4e281573ae5",
}


def _one(v):
    return np.array([v], dtype=np.float64)


def _fallback_inputs():
    """The inputs of FALLBACK_SHA256, as (x3, y3, t33) arrays by name."""
    axis = np.linspace(-1.0, 1.0, 33)
    return {
        "cube": np.random.default_rng(5).uniform(-1.5, 1.5, (20000, 3)).T,
        "grid": [g.ravel() for g in np.meshgrid(axis, axis, axis,
                                                indexing="ij")],
    }


def _scan_least_distance(x3, y3, t33, rows, a):
    """Each row's root of least (f, |a|, a), by a scan in root order that
    moves only to a strictly smaller key."""
    best = {}
    for r, v in zip(rows.tolist(), a.tolist()):
        b = (y3[r] + t33[r] * v) / (1.0 + v * v)
        key = (f2_profile(x3[r], y3[r], t33[r], v, b), abs(v), v)
        if r not in best or key < best[r][0]:
            best[r] = (key, v)
    a3 = np.array([best[r][1] if r in best else 0.0
                   for r in range(len(x3))])
    return a3, np.array([r in best for r in range(len(x3))])


def _exact_quintic(x3, y3, t33):
    """The quintic's coefficients, highest first, in exact arithmetic."""
    x3, y3, t33 = Fraction(x3), Fraction(y3), Fraction(t33)
    return [Fraction(1), -x3, Fraction(2), y3 * t33 - 2 * x3,
            1 + y3 * y3 - t33 * t33, -(x3 + y3 * t33)]


def _horner(coeffs, v):
    s = Fraction(0)
    for c in coeffs:
        s = s * v + c
    return s


def _brackets_sign_change(x3, y3, t33, a):
    """Whether a and one of its two neighbouring floats bracket a sign
    change of q, with a of the smaller |q|, in exact rational arithmetic
    on the float coefficients."""
    coeffs = [Fraction(c) for c in (
        1.0, -x3, 2.0, y3 * t33 - 2.0 * x3,
        1.0 + y3 * y3 - t33 * t33, -(x3 + y3 * t33))]
    qa = _horner(coeffs, Fraction(a))
    pair = [abs(qn) for qn in (
        _horner(coeffs, Fraction(math.nextafter(a, -math.inf))),
        _horner(coeffs, Fraction(math.nextafter(a, math.inf))))
            if qa * qn <= 0]
    return bool(pair) and abs(qa) <= min(pair)


class TestQuinticSolver:
    def test_degenerate_origin(self):
        a3, b3, ok = _kernels.solve_a3b3(_one(0.0), _one(0.0), _one(0.0))
        assert (a3[0], b3[0], ok[0]) == (0.0, 0.0, True)
        # With y3 = T33 = -0.0, b3 = (y3 + T33 a3) / (1 + a3^2) is -0.0.
        a3, b3, ok = _kernels.solve_a3b3(
            np.array([0.0, -0.0]), np.array([-0.0, -0.0]),
            np.array([-0.0, -0.0]))
        assert a3.tolist() == [0.0, 0.0] and not np.signbit(a3).any()
        assert b3.tolist() == [0.0, 0.0] and np.signbit(b3).all()
        assert ok.all()

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
        # from a bracket or the real companion: equal bits mean the
        # canonical roots do not depend on the seeds.
        rng = np.random.default_rng(191)
        x3, y3, t33 = rng.uniform(-1.0, 1.0, (3, 2000))
        # x3 = y3 = 0 makes the profile even in a3: exact ties in f
        x3[:200] = y3[:200] = 0.0
        t33[:200] *= 2.0
        x3[200], y3[200], t33[200] = 0.0, 0.0, 0.0
        # Rows at the edges of the bracket seeds: c0 = q(0) = 0 with
        # x3 != 0 (seeded as exactly 0), rows within 1e-12 of
        # x3 + y3 T33 = 0, the validity tetrahedron's vertices, edges and
        # faces, and the Bell points (0, 0, +-1), which the companion seeds.
        yc, tc = rng.uniform(-1.0, 1.0, (2, 300))
        zero_c0 = np.stack([-(yc * tc), yc, tc])
        delta = (rng.choice([-1.0, 1.0], 300)
                 * 10.0 ** rng.uniform(-18.0, -12.0, 300))
        near = np.stack([delta - yc * tc, yc, tc])
        diag = [np.eye(4)]
        for k, l in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
            w = rng.uniform(0.0, 1.0, 50)
            edge = np.zeros((50, 4))
            edge[:, k], edge[:, l] = w, 1.0 - w
            diag.append(edge)
        for drop in range(4):
            face = np.zeros((50, 4))
            face[:, [c for c in range(4) if c != drop]] = rng.dirichlet(
                np.ones(3), 50)
            diag.append(face)
        corners = np.stack(_kernels.z_bloch(*np.concatenate(diag).T))
        bell = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, -1.0]])
        x3, y3, t33 = np.concatenate(
            [(x3, y3, t33), zero_c0, near, corners, bell], axis=1)
        c0 = -(x3 + y3 * t33)
        assert np.all(c0[2000:2300] == 0.0) and np.all(x3[2000:2300] != 0.0)
        assert np.all(np.abs(c0[2300:2600]) <= 1e-12)
        one = _kernels._one_simple_root(x3, y3 * t33 - 2.0 * x3,
                                        1.0 + y3 * y3 - t33 * t33)
        assert one[2000:2300].any() and one[2300:2600].any()
        assert not one[-2:].any()
        got = zip(*_kernels.solve_a3b3(x3, y3, t33))
        for i, (a3, b3, ok) in enumerate(got):
            assert (a3, b3, ok) == scalar_solve_a3b3(x3[i], y3[i], t33[i])

    def test_canonical_roots_bracket_the_exact_sign_change(self):
        # Exact rational arithmetic on the float coefficients: each kept root
        # and one of its two neighbouring floats bracket a sign change of q,
        # and the kept root has the smaller |q| of that pair.  Every sampled
        # row is certified, so its a3 is its one kept root.
        states = [p for case in (None, CaseId.CASE2)
                  for p in sample_states(seed=5, count=500, case=case)]
        r11, r22, r33, r44 = np.array([p.as_array() for p in states])[:, :4].T
        x3s, y3s, t33s = (r11 + r22 - r33 - r44, r11 - r22 + r33 - r44,
                          r11 - r22 - r33 + r44)
        a3, _, ok = _kernels.solve_a3b3(x3s, y3s, t33s)
        roots = a3[ok]
        assert roots.size >= 1000
        for x3, y3, t33, a in zip(x3s[ok].tolist(), y3s[ok].tolist(),
                                  t33s[ok].tolist(), roots.tolist()):
            assert _brackets_sign_change(x3, y3, t33, a), (x3, y3, t33, a)

    def test_root_residual_is_a_fixed_width(self):
        # With c4 = c2 = 0, c1 = 1 and a = 0 the quintic is q = c0: roots
        # with |q| = 3e-11 are kept, with |q| = 3e-10 dropped.  Literal
        # widths, not ROOT_RESIDUAL, so that a tenfold change of it fails
        # here.
        c0 = np.array([3e-11, -3e-11, 3e-10, -3e-10])
        zero = np.zeros(4)
        _, kept = _kernels._kept_canonical(zero, zero, np.ones(4), c0,
                                           np.zeros(4))
        assert kept.tolist() == [True, True, False, False]

    def test_fallback_roots_bracket_the_exact_sign_change(self):
        # Every fallback row of the pinned cube input: a Newton seed that is
        # still moving after its last step can pass the |q| filter off the
        # root, and must not be kept.  The grid is left out: some of its
        # rows have an exact double root, where q has no sign change.
        x3s, y3s, t33s = _fallback_inputs()["cube"]
        j = np.flatnonzero(~_kernels._one_simple_root(
            x3s, y3s * t33s - 2.0 * x3s, 1.0 + y3s * y3s - t33s * t33s))
        a3, _, ok = _kernels.solve_a3b3(x3s, y3s, t33s)
        assert ok[j].all()
        bad = [i for i, x3, y3, t33, a in zip(
                   j.tolist(), x3s[j].tolist(), y3s[j].tolist(),
                   t33s[j].tolist(), a3[j].tolist())
               if not _brackets_sign_change(x3, y3, t33, a)]
        assert bad == []

    def test_bracket_ends_have_the_signs_of_the_root(self):
        # Exact arithmetic: every real root lies in [x3 - R^2/2,
        # x3 + R^2/2], with q <= 0 at its low end and q >= 0 at its high end.
        states = [p for case in (None, CaseId.CASE2)
                  for p in sample_states(seed=199, count=150, case=case)]
        rng = np.random.default_rng(199)
        bloch = [_kernels.z_bloch(p.rho11, p.rho22, p.rho33, p.rho44)
                 for p in states]
        bloch += [tuple(v) for v in rng.uniform(-1.0, 1.0, (100, 3))]
        bloch += [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 1.0, 1.0)]
        for x3, y3, t33 in bloch:
            coeffs = _exact_quintic(x3, y3, t33)
            half = (Fraction(y3) ** 2 + Fraction(t33) ** 2) / 2
            assert _horner(coeffs, Fraction(x3) - half) <= 0
            assert _horner(coeffs, Fraction(x3) + half) >= 0

    def test_derivative_is_the_completed_square(self):
        # q' = 5 (a^2 - 0.4 x3 a)^2 + (6 - 0.8 x3^2) a^2 + 2 c2 a + c1.
        rng = np.random.default_rng(211)
        for _ in range(8):
            a, x3, y3, t33 = (Fraction(int(v), 97)
                              for v in rng.integers(-200, 200, 4))
            c = _exact_quintic(x3, y3, t33)
            derivative = _horner([5 * c[0], 4 * c[1], 3 * c[2], 2 * c[3],
                                  c[4]], a)
            square = (5 * (a * a - Fraction(2, 5) * x3 * a) ** 2
                      + (6 - Fraction(4, 5) * x3 * x3) * a * a
                      + 2 * c[3] * a + c[4])
            assert derivative == square

    def test_faces_and_edges_are_certified(self):
        # Every point of a 1/128 grid on the four faces and six edges of
        # the validity tetrahedron (diagonals with one or two zero entries)
        # but the two Bell points, where c1 = 1 + y3^2 - T33^2 = 0, has the
        # proof of one simple root.  The largest c2^2/(g c1) is 10/13, at
        # the edge midpoint (1/2, 1/2, 0, 0): (x3, y3, T33) = (1, 0, 0).
        n = 128
        i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
        keep = i + j <= n
        face = np.stack([i[keep], j[keep], n - i[keep] - j[keep]], 1) / n
        diag = []
        for drop in range(4):
            d = np.zeros((len(face), 4))
            d[:, [c for c in range(4) if c != drop]] = face
            diag.append(d)
        for k, l in itertools.combinations(range(4), 2):
            d = np.zeros((n + 1, 4))
            d[:, k] = np.arange(n + 1) / n
            d[:, l] = 1.0 - d[:, k]
            diag.append(d)
        x3, y3, t33 = _kernels.z_bloch(*np.concatenate(diag).T)
        c1 = 1.0 + y3 * y3 - t33 * t33
        bell = c1 == 0.0
        assert x3.size == 34314 and np.count_nonzero(bell) == 6
        assert np.all((x3[bell] == 0.0) & (y3[bell] == 0.0)
                      & (np.abs(t33[bell]) == 1.0))
        x3, c2, c1 = x3[~bell], (y3 * t33 - 2.0 * x3)[~bell], c1[~bell]
        assert _kernels._one_simple_root(x3, c2, c1).all()
        ratio = c2 * c2 / ((6.0 - 0.8 * x3 * x3) * c1)
        assert ratio.max() == pytest.approx(10.0 / 13.0, rel=1e-15)

    def test_certificate_rejects_the_bell_points(self):
        # (0, 0, +-1): q = a^3 (a^2 + 2) has a triple root at 0, where
        # q' = c1 = 0, so no proof of one simple root can hold.
        for t33 in (1.0, -1.0):
            c = _exact_quintic(0.0, 0.0, t33)
            assert c == [1, 0, 2, 0, 0, 0]
            x3, y3, t33 = _one(0.0), _one(0.0), _one(t33)
            assert not _kernels._one_simple_root(
                x3, y3 * t33 - 2.0 * x3, 1.0 + y3 * y3 - t33 * t33)[0]

    def test_sampled_rows_skip_the_eigensolver(self, monkeypatch):
        # The benchmarked inputs are all seeded from the bracket, and every
        # chunk of them stops within a few steps, which the kernel's loops
        # over whole-chunk masks rely on; a Bell state still reaches the
        # companion.
        monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
        import workloads

        chunks = []

        def count_calls(name):
            original = getattr(_kernels, name)

            def counted(*args):
                chunks[-1][name] += 1
                return original(*args)

            monkeypatch.setattr(_kernels, name, counted)

        fill = _kernels._fill_reports

        def per_chunk(params, out):
            chunks.append({"_quintic_eval": 0, "_quintic_compensated": 0})
            fill(params, out)

        monkeypatch.setattr(_kernels, "_fill_reports", per_chunk)
        count_calls("_quintic_eval")
        count_calls("_quintic_compensated")

        initial = parse_state_json(json.dumps(workloads.case2_state(1)))
        forbid(monkeypatch, np.linalg, "eigvals")
        for case in (None, CaseId.CASE2):
            arr, _ = sample_x_arrays(SamplerConfig(seed=1, count=20000,
                                                   case_filter=case))
            rep = _kernels.batch_reports(arr)
            assert np.all(rep[:, _kernels.COL_CASE] != 0.0)
        _, _, rep = trajectory(DynamicsConfig(
            gamma0=1.0, lam=0.01, t_max=50.0, steps=workloads.TRAJ_STEPS,
            initial=initial))
        assert np.all(rep[:, _kernels.COL_CASE] != 0.0)
        assert len(chunks) == 13  # 5 + 5 sampled, 3 of the trajectory
        assert max(c["_quintic_eval"] for c in chunks) <= 12
        assert max(c["_quintic_compensated"] for c in chunks) <= 6
        bell = np.array([[0.5, 0.0, 0.0, 0.5, 0.5, 0.0, 0.0, 0.0]])
        with pytest.raises(AssertionError, match="eigvals"):
            _kernels.batch_reports(bell)

    def test_exact_zero_root_without_the_certificate(self, monkeypatch):
        # At the Bell points (0, 0, +-1) the companion seeds the triple
        # root of q = a^3 (a^2 + 2) at 0.  A seed 1e-17 off would be kept
        # as it is (Newton's step is below its stop rule, and the ulp walk
        # cannot reach 0), so the seed nearest 0 is replaced by exactly 0.
        eigvals = np.linalg.eigvals
        calls = []

        def off_by_1e_17(m):
            calls.append(m.shape[0])
            return eigvals(m) + 1e-17

        monkeypatch.setattr(np.linalg, "eigvals", off_by_1e_17)
        zeros = np.zeros(2)
        a3, b3, ok = _kernels.solve_a3b3(zeros, zeros, np.array([1.0, -1.0]))
        assert calls == [2]
        assert a3.tolist() == [0.0, 0.0] and not np.signbit(a3).any()
        assert b3.tolist() == [0.0, 0.0] and ok.all()

    def test_only_uncertified_rows_reach_the_companion(self, monkeypatch):
        # One chunk of sampled rows with both Bell points (0, 0, +-1) and
        # an accepted state just past the Bell point, where c1 = -4e-12.
        arr, _ = sample_x_arrays(SamplerConfig(seed=13, count=300))
        near = XStateParams(0.5 + 5e-13, -5e-13, -5e-13, 0.5 + 5e-13,
                            0.5, 0.0)
        arr[[17, 151, 298]] = [
            [0.5, 0.0, 0.0, 0.5, 0.5, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.5, 0.0, 0.0, 0.5, 0.0, 0.0],
            near.as_array()]
        x3, y3, t33 = _kernels.z_bloch(*arr[:, :4].T)
        c2 = y3 * t33 - 2.0 * x3
        c1 = 1.0 + y3 * y3 - t33 * t33
        assert c1[298] < 0.0
        uncertified = np.flatnonzero(
            ~_kernels._one_simple_root(x3, c2, c1))
        assert uncertified.tolist() == [17, 151, 298]

        eigvals = np.linalg.eigvals
        companions, many_rows = [], []

        def spy_eigvals(m):
            companions.append(m.copy())
            return eigvals(m)

        def spy(name):
            original = getattr(_kernels, name)

            def wrapped(*args):
                many_rows.append((name, args[0].copy()))
                return original(*args)

            monkeypatch.setattr(_kernels, name, wrapped)

        monkeypatch.setattr(np.linalg, "eigvals", spy_eigvals)
        spy("_companion_roots")
        spy("_least_distance")
        stacked = _kernels.batch_reports(arr)

        assert len(companions) == 1
        coeffs = -companions[0][:, 0, :]
        assert np.array_equal(coeffs, np.stack(
            [-x3, np.full(len(arr), 2.0), c2, c1, -(x3 + y3 * t33)],
            axis=1)[uncertified])
        # Each (n, 5) stage sees the uncertified rows alone: the companion
        # by their c4 = -x3, the argmin by their x3.
        assert [name for name, _ in many_rows] == ["_companion_roots",
                                                   "_least_distance"]
        assert np.array_equal(many_rows[0][1], -x3[uncertified])
        assert np.array_equal(many_rows[1][1], x3[uncertified])

        assert np.all(stacked[:, _kernels.COL_CASE] != 0.0)
        singles = np.concatenate(
            [_kernels.batch_reports(arr[i:i + 1]) for i in range(len(arr))])
        assert np.array_equal(stacked.view(np.uint64),
                              singles.view(np.uint64))

    def test_fallback_rows_match_pinned_digests(self):
        got = {}
        for name, (x3, y3, t33) in _fallback_inputs().items():
            uncertified = ~_kernels._one_simple_root(
                x3, y3 * t33 - 2.0 * x3, 1.0 + y3 * y3 - t33 * t33)
            assert np.count_nonzero(uncertified) > 3000
            h = hashlib.sha256()
            for v in _kernels.solve_a3b3(x3, y3, t33):
                h.update(v.tobytes())
            got[name] = h.hexdigest()
        assert got == FALLBACK_SHA256

    def test_least_distance_of_hand_made_roots(self):
        # Row 0: a +-r pair at x3 = y3 = 0, equal in f and |a|, so the
        # negative root wins though it comes second.  Row 1: -0.0 and 0.0,
        # a full tie, so the first in root order.  Row 2: no root.  Rows
        # 3 and 5: one root.  Row 4: a duplicated root around another.
        x3 = np.array([0.0, 0.1, 0.2, -0.4, 0.6, 0.3])
        y3 = np.array([0.0, 0.2, -0.1, 0.5, 0.1, -0.7])
        t33 = np.array([0.5, 0.3, 0.9, -0.2, 0.4, 0.8])
        rows = np.array([0, 0, 1, 1, 3, 4, 4, 4, 5])
        a = np.array([0.3, -0.3, -0.0, 0.0, 0.7, 0.25, 0.8, 0.25, -1.2])
        a3, found = _kernels._least_distance(x3, y3, t33, rows, a)
        want_a3, want_found = _scan_least_distance(x3, y3, t33, rows, a)
        assert np.array_equal(a3.view(np.uint64), want_a3.view(np.uint64))
        assert found.tolist() == want_found.tolist()
        assert found.tolist() == [True, True, False, True, True, True]
        assert a3[0] == -0.3 and np.signbit(a3[1]) and a3[2] == 0.0

    def test_least_distance_of_fallback_roots(self):
        # The first 3000 fallback rows of each pinned input, with all
        # their kept roots.
        for x3, y3, t33 in _fallback_inputs().values():
            j = np.flatnonzero(~_kernels._one_simple_root(
                x3, y3 * t33 - 2.0 * x3, 1.0 + y3 * y3 - t33 * t33))[:3000]
            c4, c2 = -x3[j], y3[j] * t33[j] - 2.0 * x3[j]
            c1 = 1.0 + y3[j] * y3[j] - t33[j] * t33[j]
            c0 = -(x3[j] + y3[j] * t33[j])
            rows, a = _kernels._companion_roots(c4, c2, c1, c0)
            assert np.all(np.diff(rows) >= 0)
            assert np.count_nonzero(np.bincount(rows) > 1) > 100
            got = _kernels._least_distance(x3[j], y3[j], t33[j], rows, a)
            want = _scan_least_distance(x3[j], y3[j], t33[j], rows, a)
            assert np.array_equal(got[0].view(np.uint64),
                                  want[0].view(np.uint64))
            assert np.array_equal(got[1], want[1])

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

    def test_boundary_flag_is_a_fixed_width(self):
        # Diagonal (0.4, 0.1, 0.1, 0.4) gives k3 = 0.36, and rho14 =
        # sqrt((0.36 + d)/4) gives k1 - k3 = d to within 2e-16.  Literal
        # widths, not CASE_BOUNDARY, so that a tenfold change of it fails.
        deltas = np.array([3e-11, -3e-11, 3e-10, -3e-10])
        arr = np.zeros((4, 8))
        arr[:, :4] = [0.4, 0.1, 0.1, 0.4]
        arr[:, 4] = np.sqrt((0.36 + deltas) / 4.0)
        rep = x_report_rows(arr)
        gap = rep[:, _kernels.COL_K1] - rep[:, _kernels.COL_K3]
        assert np.all(np.abs(gap - deltas) <= 2e-16)
        assert rep[:, _kernels.COL_BOUNDARY].tolist() == [1.0, 1.0, 0.0, 0.0]

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

    def test_sampled_reports_match_pinned_digests(self):
        got = {}
        for seed, case, mode in REPORT_SHA256:
            arr, _ = sample_x_arrays(SamplerConfig(
                seed=seed, count=20000, case_filter=case, phase_mode=mode))
            got[seed, case, mode] = hashlib.sha256(
                _kernels.batch_reports(arr).tobytes()).hexdigest()
        assert got == REPORT_SHA256

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

    def test_non_finite_rows_fail_alone(self, monkeypatch):
        # Neither solver path takes a row with a NaN or an inf, so the
        # companion never sees one and the row alone fails.  A NaN or an
        # inf in a coherence, which the solver never sees, fails too.
        forbid(monkeypatch, np.linalg, "eigvals")
        a3, b3, ok = _kernels.solve_a3b3(_one(np.inf), _one(0.0), _one(0.0))
        assert (a3[0], b3[0], ok[0]) == (0.0, 0.0, False)
        arr, _ = sample_x_arrays(SamplerConfig(seed=13, count=40))
        bad = [5, 6, 9, 12, 17, 31]
        arr[5, 0] = np.nan
        arr[6, 1] = np.inf
        arr[9, 4] = np.nan
        arr[12, 5] = np.inf
        arr[17, 2] = -np.inf
        arr[31, :4] = [np.inf, -np.inf, np.nan, 0.25]
        stacked = _kernels.batch_reports(arr)
        assert np.all(stacked[bad] == 0.0)
        good = np.setdiff1d(np.arange(len(arr)), bad)
        assert np.all(stacked[good, _kernels.COL_CASE] != 0.0)
        singles = np.concatenate(
            [_kernels.batch_reports(arr[i:i + 1]) for i in range(len(arr))])
        assert np.array_equal(stacked.view(np.uint64),
                              singles.view(np.uint64))
        with pytest.raises(SolverFailureError,
                           match=r"failed on 6 of 40 states, first \[nan, "):
            x_report_rows(arr)

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


# sha256 of P_t's float64 bytes, p_t(tau / gamma0, gamma0, ratio * gamma0)
# over PT_GAMMA0 x PT_RATIOS x PT_TAUS: every branch of the formula, its
# series region, the critical ratio 2, rates whose products overflow or
# underflow, and times that overflow to inf.  Taken from the one-time
# formula, capped at 1 (85 of these rounded to 1 + 2^-52); the same
# numpy-build caveat as REPORT_SHA256.
PT_SHA256 = "d77fbdbf712adb2ee4abede2f2d38839bc4df12909e34679312b0dca1db957c4"
PT_GAMMA0 = (1e-300, 0.3, 1.0, 7.0, 1e200)
PT_RATIOS = (0.01, 1.0, 1.9, 2.0, 2.1, 5.0, 1e10)
PT_TAUS = np.concatenate([[0.0, 5e-324], np.geomspace(1e-20, 1e-4, 33),
                          np.linspace(0.0, 60.0, 241), [1e300, np.inf]])


def pt_one_time(t, gamma0, lam):
    """P_t at one time by the scalar formula, with math.* alone: the
    reference whose bits pt_values keeps at every time of its array."""
    if t == 0.0:
        return 1.0
    if t == math.inf:
        return 0.0
    overdamped = lam > 2.0 * gamma0
    if overdamped:
        s = math.sqrt(1.0 - 2.0 * gamma0 / lam)
        ad = lam * s
    else:
        g2 = 2.0 * gamma0 * lam
        d2 = g2 - lam * lam
        q = 2.0 * (gamma0 / lam) if lam else math.inf
        if math.isfinite(d2) and g2 >= sys.float_info.min:
            ad = math.sqrt(d2)
        elif q < math.inf:
            ad = lam * math.sqrt(q - 1.0)
        else:
            ad = math.sqrt(2.0 * lam) * math.sqrt(gamma0)
    x = ad * t
    if not overdamped and math.inf in (lam * t, x):
        return 0.0
    if not x >= 1e-6:
        d2t2 = -x * x if overdamped else x * x
        bracket = 1.0 + 0.5 * lam * t - d2t2 / 8.0 - lam * t * d2t2 / 48.0
        return min(math.exp(-lam * t) * bracket * bracket, 1.0)
    if not overdamped:
        bracket = math.cos(0.5 * x) + (lam / ad) * math.sin(0.5 * x)
        return min(math.exp(-lam * t) * bracket * bracket, 1.0)
    r = 1.0 / s
    xi = (1.0 - r) / (1.0 + r)
    return min(math.exp(-2.0 * gamma0 * t / (1.0 + s)
                        + 2.0 * math.log(0.5 * (1.0 + r))
                        + 2.0 * math.log1p(xi * math.exp(-x))), 1.0)


class TestSurvivalKernel:
    def test_bits_of_the_one_time_formula(self):
        # Random rates over the float range, ratios on both sides of the
        # critical 2 and at it, times from 0 through the series region.
        rng = np.random.default_rng(35)
        for _ in range(300):
            gamma0 = float(10.0 ** rng.uniform(-300, 300))
            ratio = float(rng.choice([10.0 ** rng.uniform(-3, 3), 2.0,
                                      rng.uniform(1.9, 2.1)]))
            taus = np.concatenate([[0.0, 5e-324, np.inf],
                                   10.0 ** rng.uniform(-12, 2.5, 30)])
            with np.errstate(over="ignore", under="ignore"):
                ts = taus / gamma0
            got = _kernels.pt_values(ts, gamma0, ratio * gamma0)
            want = [pt_one_time(t, gamma0, ratio * gamma0)
                    for t in ts.tolist()]
            assert got.view(np.uint64).tolist() == np.array(
                want).view(np.uint64).tolist(), (gamma0, ratio)

    def test_values_match_digest(self):
        values = []
        for gamma0 in PT_GAMMA0:
            with np.errstate(over="ignore"):
                ts = PT_TAUS / gamma0
            for ratio in PT_RATIOS:
                values.append(p_t(ts, gamma0, ratio * gamma0))
        values = np.concatenate(values)
        assert hashlib.sha256(values.tobytes()).hexdigest() == PT_SHA256

    def test_vector_matches_scalar(self):
        ts = np.linspace(0.0, 60.0, 500)
        for lam in (0.01, 1.0, 2.0, 5.0):
            vec = _kernels.pt_values(ts, 1.0, lam)
            scal = np.array([pt_one_time(t, 1.0, lam) for t in ts.tolist()])
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


def _pt_mpf(t, gamma0, lam):
    """P_t of mpf inputs at mpmath's working precision."""
    d2 = 2 * gamma0 * lam - lam * lam
    d = mpmath.sqrt(abs(d2))
    if d2 > 0:
        bracket = mpmath.cos(d * t / 2) + lam / d * mpmath.sin(d * t / 2)
    elif d2 < 0:
        bracket = mpmath.cosh(d * t / 2) + lam / d * mpmath.sinh(d * t / 2)
    else:
        bracket = 1 + lam * t / 2
    return mpmath.exp(-lam * t) * bracket * bracket


def pt_reference(t, gamma0, lam):
    """P_t at the exact inputs (floats or mpf) in 200-bit mpmath."""
    with mpmath.workprec(200):
        return _pt_mpf(*(mpmath.mpf(v) for v in (t, gamma0, lam)))


def pt_condition(t, gamma0, lam):
    """|d ln P / d ln gamma0| + |d ln P / d ln lambda| at one time: the
    relative error in P that a relative error of one in each rate, or in
    gamma0*t and lambda*t, makes."""
    with mpmath.workprec(200):
        t, gamma0, lam = (mpmath.mpf(v) for v in (t, gamma0, lam))
        dg = mpmath.diff(lambda g: _pt_mpf(t, g, lam), gamma0)
        dl = mpmath.diff(lambda v: _pt_mpf(t, gamma0, v), lam)
        return float((abs(gamma0 * dg) + abs(lam * dl))
                     / _pt_mpf(t, gamma0, lam))


def ulps_off(values, refs):
    """Distance of each float of ``values`` from its mpf reference, in
    units in the last place of the reference."""
    return np.array([float(abs(mpmath.mpf(v) - r) / math.ulp(float(r)))
                     for v, r in zip(values.tolist(), refs)])


class TestSurvivalReference:
    """pt_values against P_t in 200-bit arithmetic at the same floats."""

    @pytest.mark.parametrize("gamma0, lam", (
        pytest.param(1.0, 0.01, id="underdamped-0.01"),
        pytest.param(1.0, 0.3, id="underdamped-0.3"),
        pytest.param(1.0, 1.9, id="underdamped-1.9"),
        pytest.param(3.0, 1.0, id="underdamped-gamma3"),
        pytest.param(1.0, 2.0, id="critical"),
        pytest.param(0.5, 1.0, id="critical-0.5"),
        pytest.param(1.0, 2.1, id="overdamped-2.1"),
        pytest.param(1.0, 5.0, id="overdamped-5")))
    def test_error_against_the_reference(self, gamma0, lam):
        # The absolute error is at most 2 eps on this grid (3 eps on 501
        # times).  The error in ulps of P is large near the bracket's
        # zeros, but within 3 eps (1 + kappa) relative, kappa being P's
        # conditioning in the rates: 1.6 eps here, 3.0 on 501 times.
        eps = sys.float_info.epsilon
        ts = np.linspace(0.0, 50.0, 101)
        got = _kernels.pt_values(ts, gamma0, lam)
        refs = [pt_reference(t, gamma0, lam) for t in ts.tolist()]
        assert max(abs(p - float(r)) for p, r in zip(got.tolist(), refs)
                   ) <= 3.0 * eps
        for t, p, r in zip(ts.tolist(), got.tolist(), refs):
            bound = 3.0 * eps * (1.0 + pt_condition(t, gamma0, lam))
            assert float(abs(p - r) / r) <= bound, (t, p)

    def test_evolve_gamma3_no_further_than_the_divided_times(self):
        # evolve-gamma3.csv's P, at tau with the ratio 1/3 rounded, against
        # the former form at the times tau/3 rounded with the rates (3, 1).
        cfg = DynamicsConfig(3.0, 1.0, 20.0, 200,
                             XStateParams(0.5, 0.0, 0.0, 0.5, 0.5, 0.0))
        taus = dynamics._time_grid(cfg)
        got = 2.0 * dynamics._params_at(cfg, taus)[:, 4]  # rho14 = P / 2
        divided = p_t(taus / 3.0, 3.0, 1.0)
        with mpmath.workprec(200):
            refs = [pt_reference(mpmath.mpf(tau) / 3, 3.0, 1.0)
                    for tau in taus.tolist()]
        assert ulps_off(got, refs).max() <= ulps_off(divided, refs).max()


RATES = st.floats(min_value=5e-324, max_value=sys.float_info.max)


@st.composite
def rate_pairs(draw):
    """(gamma0, lambda), finite and positive, with the ratios 1/2, 1, 2
    (d = 0) and 5/2 drawn as often as the rest."""
    gamma0 = draw(RATES)
    lam = draw(st.one_of(RATES, st.sampled_from((0.5, 1.0, 2.0, 2.5)).map(
        lambda ratio: ratio * gamma0)))
    assume(lam < math.inf)
    return gamma0, lam


class TestSurvivalContract:
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(rates=rate_pairs(), times=st.lists(
        st.floats(min_value=0.0, max_value=sys.float_info.max),
        min_size=1, max_size=8))
    def test_probability_and_one_time_bits(self, rates, times):
        # For finite positive rates and finite times: P in [0, 1], each
        # time's bits the same alone as in the array, and 0 at t = inf.
        p = _kernels.pt_values(np.array(times + [math.inf]), *rates)
        assert p[-1] == 0.0
        assert np.all((p >= 0.0) & (p <= 1.0)), p
        for t, bits in zip(times, p.view(np.uint64).tolist()):
            one = _kernels.pt_values(np.array([t]), *rates)
            assert one.view(np.uint64).tolist() == [bits]

    # Examples that the contract caught, each a failure of the former
    # pt_values, and the overflow at d = 0 in its series.
    def test_phase_past_the_float_range_is_zero(self):
        # d*t overflows: math.cos(inf) raised; exp(-lambda*t) is 0.0.
        assert p_t(3.489206737069164e+145, 6.6361733754354445e+307,
                   1.9999999999999994e+17) == 0.0

    def test_rounding_stays_at_most_one(self):
        # Was 1 + 2^-52.
        assert p_t(1.99999, 1.1569673365333581e-09,
                   1.1569673365333581e-09) == 1.0

    def test_critical_series_past_the_float_range_is_zero(self):
        # lambda*t overflows where d = 0: inf * 0 in the series made nan.
        assert p_t(1e308, 1.0, 2.0) == 0.0
        assert p_t(1e308, 0.5, 1.0) == 0.0

    @pytest.mark.parametrize("gamma0, lam", (
        (1.0, 0.5), (0.5, 1.0), (1.0, 5.0)),
        ids=("underdamped", "critical", "overdamped"))
    def test_nan_time_is_nan(self, gamma0, lam):
        # At d = 0 a NaN time raised ZeroDivisionError from lambda/d.
        assert math.isnan(p_t(math.nan, gamma0, lam))
        p = p_t(np.array([0.0, math.nan, 1.0, math.inf]), gamma0, lam)
        assert p[0] == 1.0 and math.isnan(p[1]) and 0.0 < p[2] < 1.0
        assert p[3] == 0.0


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

    def test_stacked_states_match_two_projector_pinching(self):
        # (S, 4, 4) states with (S, m, 3) directions give (S, m) distances,
        # each the distance to the state pinched by both projectors.
        from xqcorr.quantifiers import pinched_state
        from xqcorr.states import hs_norm_sq

        states = sample_states(seed=167, count=3)
        rng = np.random.default_rng(167)
        theta = rng.uniform(0.0, math.pi, size=(3, 5))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=(3, 5))
        n = np.stack([np.sin(theta) * np.cos(phi),
                      np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1)
        vals = _kernels.pinched_distances(
            np.stack([p.to_matrix().matrix for p in states]), n)
        assert vals.shape == (3, 5)
        for s, p in enumerate(states):
            rho = p.to_matrix()
            for k in range(5):
                pinched = pinched_state(rho, theta[s, k], phi[s, k]).matrix
                direct = hs_norm_sq(rho.matrix - pinched)
                assert abs(vals[s, k] - direct) < 1e-14
