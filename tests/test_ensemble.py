import json
import math
import warnings

import numpy as np
import pytest

from xqcorr import ensemble
from xqcorr.closest import CaseId, k_eigenvalues_x
from xqcorr.ensemble import (
    HistogramSpec,
    PhaseMode,
    Quantity,
    SamplerConfig,
    run_histogram,
    sample_x_arrays,
    sample_x_states,
    write_histogram,
)
from xqcorr.errors import RejectionExhaustionError
from xqcorr.states import XStateParams


class TestSampler:
    def test_deterministic(self):
        cfg = SamplerConfig(seed=1, count=3)
        a, _ = sample_x_arrays(cfg)
        b, _ = sample_x_arrays(cfg)
        assert np.array_equal(a, b)
        states = sample_x_states(cfg)
        assert len(states) == 3
        assert all(isinstance(s, XStateParams) for s in states)

    def test_case2_filter(self):
        cfg = SamplerConfig(seed=2, count=100, case_filter=CaseId.CASE2)
        for p in sample_x_states(cfg):
            label = k_eigenvalues_x(p)
            assert label.k1 > label.k3

    def test_case1_filter_zero_phases(self):
        cfg = SamplerConfig(seed=3, count=100, case_filter=CaseId.CASE1,
                            phase_mode=PhaseMode.ZERO)
        for p in sample_x_states(cfg):
            label = k_eigenvalues_x(p)
            assert label.k1 <= label.k3
            assert p.gamma14 == 0.0 and p.gamma23 == 0.0

    def test_free_phases_spread(self):
        states = sample_x_states(SamplerConfig(seed=4, count=50))
        gammas = np.array([s.gamma14 for s in states])
        assert gammas.max() > math.pi and gammas.min() < math.pi
        assert np.all((gammas >= 0.0) & (gammas < 2.0 * math.pi))

    def test_states_revalidate(self):
        for p in sample_x_states(SamplerConfig(seed=5, count=500)):
            assert p.rho14 ** 2 <= p.rho11 * p.rho44 + 1e-15
            assert p.rho23 ** 2 <= p.rho22 * p.rho33 + 1e-15
            assert abs(p.rho11 + p.rho22 + p.rho33 + p.rho44 - 1.0) <= 1e-12

    def test_acceptance_rate_reported(self):
        _, rate = sample_x_arrays(
            SamplerConfig(seed=6, count=100, case_filter=CaseId.CASE2))
        assert 0.0 < rate <= 1.0

    def test_exhaustion_error(self, monkeypatch):
        monkeypatch.setattr(ensemble, "_case_mask",
                            lambda batch, case: np.zeros(batch.shape[0],
                                                         dtype=bool))
        with pytest.raises(RejectionExhaustionError):
            sample_x_arrays(SamplerConfig(seed=7, count=10,
                                          case_filter=CaseId.CASE2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(seed=0, count=0)


def _sort_diff_batch(rng, size, phase_mode):
    """The sampler's draw as an np.sort of the cuts and an np.diff."""
    cuts = np.sort(rng.random((size, 3)), axis=1)
    diag = np.diff(np.concatenate(
        [np.zeros((size, 1)), cuts, np.ones((size, 1))], axis=1), axis=1)
    fracs = rng.random((size, 2))
    if phase_mode is PhaseMode.FREE:
        phases = rng.random((size, 2)) * (2.0 * math.pi)
    else:
        phases = np.zeros((size, 2))
    batch = np.empty((size, 8))
    batch[:, 0:4] = diag
    batch[:, 4] = fracs[:, 0] * np.sqrt(diag[:, 0] * diag[:, 3])
    batch[:, 5] = fracs[:, 1] * np.sqrt(diag[:, 1] * diag[:, 2])
    batch[:, 6:8] = phases
    return batch


class TestDrawBatch:
    @pytest.mark.parametrize("phase_mode", list(PhaseMode))
    def test_matches_sort_and_diff_bit_for_bit(self, phase_mode):
        for seed in (1, 2, 7, 11):
            got_rng = np.random.default_rng(seed)
            ref_rng = np.random.default_rng(seed)
            for size in (4096, 5, 1):
                got = ensemble._draw_batch(got_rng, size, phase_mode)
                ref = _sort_diff_batch(ref_rng, size, phase_mode)
                assert np.array_equal(got.view(np.uint64),
                                      ref.view(np.uint64))
            # Both consumed the same draws from the generator.
            assert got_rng.random() == ref_rng.random()

    def test_sorting_network_on_ties_and_zeros(self):
        a, b, c = 0.1, 0.5, 0.9
        triples = [(a, a, b), (b, a, a), (a, b, a), (b, b, a), (0.0, 0.0, 0.0),
                   (0.0, a, 0.0), (a, 0.0, a)]
        triples += [(x, y, z) for x in (a, b, c) for y in (a, b, c)
                    for z in (a, b, c) if len({x, y, z}) == 3]
        u = np.array(triples)
        got = np.stack(ensemble._sort3(*u.T), axis=1)
        assert np.array_equal(got.view(np.uint64),
                              np.sort(u, axis=1).view(np.uint64))


class TestHistogram:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            HistogramSpec(1, 0.0, 1.0, Quantity.REL_RESIDUAL)
        with pytest.raises(ValueError):
            HistogramSpec(10, 1.0, 0.0, Quantity.REL_RESIDUAL)

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0),
                                        (-1e308, 1e308)])
    def test_spec_rejects_what_numpy_cannot_bin(self, lo, hi):
        # Once numpy's "supplied range of [0.0, inf] is not finite", or its
        # "Too many bins" after overflow warnings, from run_histogram.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^histogram range must "
                               "have a finite width$"):
                HistogramSpec(4, lo, hi, Quantity.REL_RESIDUAL)
        HistogramSpec(4, -1e307, 1e307, Quantity.REL_RESIDUAL)

    def test_default_ranges(self):
        spec = HistogramSpec.default_for(Quantity.REL_RESIDUAL)
        assert (spec.lo, spec.hi) == (-1.0, 0.0)
        spec = HistogramSpec.default_for(Quantity.REL_RESIDUAL_WITH_L)
        assert (spec.lo, spec.hi) == (0.0, 0.5)

    def test_case2_residual_mass_nonpositive(self):
        cfg = SamplerConfig(seed=8, count=2000, case_filter=CaseId.CASE2)
        res = run_histogram(cfg, HistogramSpec.default_for(Quantity.REL_RESIDUAL))
        assert res.overflow == 0  # nothing above 0
        assert res.total + res.dropped + res.underflow == 2000
        assert res.counts.sum() == res.total

    def test_case2_inset_mass_nonnegative(self):
        cfg = SamplerConfig(seed=8, count=2000, case_filter=CaseId.CASE2)
        res = run_histogram(
            cfg, HistogramSpec.default_for(Quantity.REL_RESIDUAL_WITH_L))
        assert res.underflow == 0  # nothing below 0

    def test_case1_mass_at_zero(self):
        cfg = SamplerConfig(seed=9, count=100, case_filter=CaseId.CASE1)
        res = run_histogram(cfg, HistogramSpec.default_for(Quantity.REL_RESIDUAL))
        # additivity: every case-1 value sits in the bin touching zero
        assert res.counts[-1] == res.total
        assert np.all(res.counts[:-1] == 0)
        assert res.underflow == 0 and res.overflow == 0

    def test_edge_slack_is_a_fixed_width(self, monkeypatch):
        # Values 3e-11 past an edge fold into the edge bin; values 3e-10
        # past it are under- or overflow.  Literal widths, not
        # HISTOGRAM_EDGE, so that a tenfold change of it fails here.
        spec = HistogramSpec(4, -1.0, 0.0, Quantity.REL_RESIDUAL)
        values = np.array([spec.hi + 3e-11, spec.hi + 3e-10,
                           spec.lo - 3e-11, spec.lo - 3e-10])
        monkeypatch.setattr(ensemble, "relative_quantities",
                            lambda reports, quantity: (values, 0))
        res = run_histogram(SamplerConfig(seed=1, count=1), spec)
        assert res.counts.tolist() == [1, 0, 0, 1]
        assert (res.total, res.underflow, res.overflow) == (2, 1, 1)

    def test_csv_deterministic(self):
        cfg = SamplerConfig(seed=10, count=500, case_filter=CaseId.CASE2)
        spec = HistogramSpec.default_for(Quantity.REL_RESIDUAL)
        csv1 = run_histogram(cfg, spec).to_csv()
        csv2 = run_histogram(cfg, spec).to_csv()
        assert csv1 == csv2
        lines = csv1.strip().split("\n")
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == spec.bin_count + 1

    def test_write_with_sidecar(self, tmp_path):
        cfg = SamplerConfig(seed=10, count=200, case_filter=CaseId.CASE2)
        spec = HistogramSpec.default_for(Quantity.REL_RESIDUAL)
        out = tmp_path / "hist.csv"
        write_histogram(run_histogram(cfg, spec), out)
        assert out.exists()
        meta = json.loads((tmp_path / "hist.csv.meta.json").read_text())
        assert meta["seed"] == 10
        assert meta["count"] == 200
        assert meta["case_filter"] == 2
        assert meta["quantity"] == "rel_residual"
        assert 0.0 < meta["acceptance_rate"] <= 1.0
        assert meta["dropped_zero_tg"] + meta["total_binned"] \
            + meta["underflow"] + meta["overflow"] == 200
