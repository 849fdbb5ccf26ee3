"""Chunked sampling, solving and writing: the bits, the errors and the memory.

`sample` and `evolve` work through their states in chunks of
``_kernels.CHUNK_ROWS`` rows, and every CSV is written in chunks of as many
rows.  The tests here use counts of 3 chunks plus 17 rows, and histograms
with bin counts at a chunk's edge, so a chunk that drops or repeats a row
at its edge moves a byte.  The references are built and formatted in one
pass over all rows, as the commands were before they were chunked.
"""

import json

import numpy as np
import pytest

import xqcorr
from conftest import peak_rss_kb
from xqcorr import _kernels, cli, closest, ensemble
from xqcorr.cli import main
from xqcorr.closest import x_report_rows
from xqcorr.dynamics import (TRAJECTORY_CSV_HEADER, DynamicsConfig,
                             trajectory)
from xqcorr.ensemble import (HistogramResult, HistogramSpec, SamplerConfig,
                             relative_quantities, sample_x_arrays,
                             sample_x_chunks)
from xqcorr.quantifiers import CSV_FLOAT, REPORT_CSV_HEADER, quantifiers_x
from xqcorr.states import XStateParams
from xqcorr.tolerances import HISTOGRAM_EDGE

COUNT = 3 * _kernels.CHUNK_ROWS + 17

# The sample runs: their CLI options and the matching sampler settings.
SAMPLES = {
    "unfiltered": ([], {}),
    "case2": (["--case", "2"], {"case_filter": 2}),
    "phase-zero": (["--phase-mode", "zero"], {"phase_mode": "zero"}),
}

PSI = {"kind": "x", "rho11": 2.0 / 3.0, "rho22": 0.0, "rho33": 0.0,
       "rho44": 1.0 / 3.0, "rho14": 2.0 ** 0.5 / 3.0, "rho23": 0.0}


def sampler_config(seed, name):
    return SamplerConfig(seed=seed, count=COUNT, **SAMPLES[name][1])


def one_pass_arrays(cfg):
    """The sampler as one loop over its 4096-row batches, joined at the end."""
    rng = np.random.default_rng(cfg.seed)
    kept, accepted, drawn = [], 0, 0
    while accepted < cfg.count:
        batch = ensemble._draw_batch(rng, ensemble._BATCH, cfg.phase_mode)
        drawn += ensemble._BATCH
        if cfg.case_filter is not None:
            batch = batch[ensemble._case_mask(batch, cfg.case_filter)]
        accepted += batch.shape[0]
        kept.append(batch)
    return np.concatenate(kept)[:cfg.count], accepted / drawn


def one_pass_sample_csv(params, reports):
    lines = ["index,rho11,rho22,rho33,rho44,rho14,rho23,gamma14,gamma23,"
             + REPORT_CSV_HEADER]
    for i, (vals, row) in enumerate(zip(params.tolist(), reports.tolist())):
        p = XStateParams(*vals)
        lines.append("%d," % i + ",".join(CSV_FLOAT % v for v in (
            p.rho11, p.rho22, p.rho33, p.rho44, p.rho14, p.rho23,
            p.gamma14, p.gamma23)) + "," + quantifiers_x(p, row=row)
            .to_csv_row())
    return "\n".join(lines) + "\n"


def one_pass_histogram(cfg, spec):
    params, acceptance = one_pass_arrays(cfg)
    values, dropped = relative_quantities(x_report_rows(params),
                                          spec.quantity)
    near_lo = (values < spec.lo) & (values >= spec.lo - HISTOGRAM_EDGE)
    near_hi = (values > spec.hi) & (values <= spec.hi + HISTOGRAM_EDGE)
    values = np.where(near_lo, spec.lo, np.where(near_hi, spec.hi, values))
    counts, edges = np.histogram(
        values[(values >= spec.lo) & (values <= spec.hi)],
        bins=spec.bin_count, range=(spec.lo, spec.hi))
    return HistogramResult(
        spec=spec, edges=edges, counts=counts, total=int(counts.sum()),
        dropped=dropped, underflow=int(np.count_nonzero(values < spec.lo)),
        overflow=int(np.count_nonzero(values > spec.hi)),
        acceptance_rate=acceptance, config=cfg)


def one_pass_histogram_csv(result):
    edges = result.edges.tolist()
    lines = ["bin_lo,bin_hi,count"]
    for lo, hi, count in zip(edges[:-1], edges[1:], result.counts.tolist()):
        lines.append("%s,%s,%d" % (CSV_FLOAT % lo, CSV_FLOAT % hi, count))
    return "\n".join(lines) + "\n"


def sidecar_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestChunkEdgesMoveNoBit:
    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_sampler_chunks_join_to_one_pass(self, name):
        cfg = sampler_config(11, name)
        chunks = list(sample_x_chunks(cfg))
        sizes = [chunk.shape[0] for chunk, _, _ in chunks]
        assert sizes == [_kernels.CHUNK_ROWS] * 3 + [17]
        params, rate = one_pass_arrays(cfg)
        _, accepted, drawn = chunks[-1]
        assert accepted / drawn == rate
        joined, joined_rate = sample_x_arrays(cfg)
        assert joined_rate == rate
        assert joined.tobytes() == params.tobytes()
        assert np.concatenate([c for c, _, _ in chunks]).tobytes() \
            == params.tobytes()

    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_sample_csv(self, name, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sample", "--seed", "11", "--count", str(COUNT),
                     *SAMPLES[name][0], "--out", str(out)]) == 0
        cfg = sampler_config(11, name)
        params, _ = one_pass_arrays(cfg)
        expected = one_pass_sample_csv(params, x_report_rows(params))
        assert out.read_bytes() == expected.encode()
        assert (tmp_path / "s.csv.meta.json").read_text() \
            == sidecar_text(cfg.to_json_dict())

    # Binning waits for _BIN_VALUES values.  About 1250 values a chunk fall
    # in this range, so 2000 bins the first two chunks together.
    @pytest.mark.parametrize("bin_values", (ensemble._BIN_VALUES, 2000))
    def test_histogram_with_underflow_and_overflow(self, bin_values,
                                                   tmp_path, monkeypatch):
        monkeypatch.setattr(ensemble, "_BIN_VALUES", bin_values)
        out = tmp_path / "h.csv"
        assert main(["sample", "--seed", "12", "--count", str(COUNT),
                     "--case", "2", "--histogram", "rel_residual",
                     "--bins", "50", "--range", "-0.5", "-0.1",
                     "--out", str(out)]) == 0
        cfg = sampler_config(12, "case2")
        spec = HistogramSpec(50, -0.5, -0.1, "rel_residual")
        expected = one_pass_histogram(cfg, spec)
        assert expected.underflow > 0 and expected.overflow > 0
        assert out.read_text() == one_pass_histogram_csv(expected)
        sidecar = (tmp_path / "h.csv.meta.json").read_text()
        assert sidecar == sidecar_text(expected.sidecar_dict())
        assert json.loads(sidecar)["acceptance_rate"] \
            == expected.acceptance_rate

    @pytest.mark.parametrize("bins", (_kernels.CHUNK_ROWS - 1,
                                      _kernels.CHUNK_ROWS,
                                      _kernels.CHUNK_ROWS + 1, COUNT))
    def test_histogram_rows(self, bins, tmp_path):
        out = tmp_path / "h.csv"
        assert main(["sample", "--seed", "12", "--count", "1000",
                     "--case", "2", "--histogram", "rel_residual",
                     "--bins", str(bins), "--range", "-0.5", "-0.1",
                     "--out", str(out)]) == 0
        cfg = SamplerConfig(seed=12, count=1000, case_filter=2)
        expected = one_pass_histogram(
            cfg, HistogramSpec(bins, -0.5, -0.1, "rel_residual"))
        assert expected.underflow > 0 and expected.overflow > 0
        csv = one_pass_histogram_csv(expected)
        assert expected.to_csv() == csv
        assert out.read_bytes() == csv.encode()
        assert (tmp_path / "h.csv.meta.json").read_bytes() \
            == sidecar_text(expected.sidecar_dict()).encode()

    def test_evolve(self, tmp_path):
        psi = tmp_path / "psi.json"
        psi.write_text(json.dumps(PSI))
        out = tmp_path / "t.csv"
        assert main(["evolve", str(psi), "--gamma0", "1", "--lambda",
                     "0.01", "--t-max", "50", "--steps", str(COUNT),
                     "--out", str(out)]) == 0
        cfg = DynamicsConfig(1.0, 0.01, 50.0, COUNT,
                             XStateParams(**{k: v for k, v in PSI.items()
                                             if k != "kind"}))
        taus, params, reports = trajectory(cfg)
        cols = [_kernels.COL_K1, _kernels.COL_K3, _kernels.COL_TG,
                _kernels.COL_DG, _kernels.COL_CG, _kernels.COL_LG]
        lines = [TRAJECTORY_CSV_HEADER]
        for t, p, r in zip(taus.tolist(), params.tolist(), reports.tolist()):
            lines.append(",".join(CSV_FLOAT % v for v in
                                  [t, *p[:6], *(r[c] for c in cols)])
                         + ",%d" % r[_kernels.COL_CASE])
        assert out.read_text() == "\n".join(lines) + "\n"


class TestErrorInALaterChunk:
    """An error found past the first chunk still leaves no output file."""

    BAD_ROW = _kernels.CHUNK_ROWS + 5

    def test_sample_csv(self, tmp_path, monkeypatch, capsys):
        solve = cli.x_report_rows
        bad = []

        def solve_one_bad_row(params):
            rows = solve(params)
            rows[self.BAD_ROW, _kernels.COL_A3] = 1.0 + 1e-9
            bad.append(rows[self.BAD_ROW, _kernels.COL_B3])
            return rows

        monkeypatch.setattr(cli, "x_report_rows", solve_one_bad_row)
        out = tmp_path / "s.csv"
        assert main(["sample", "--seed", "7", "--count", str(COUNT),
                     "--out", str(out)]) == 3
        assert not out.exists()
        assert not (tmp_path / "s.csv.meta.json").exists()
        with pytest.raises(xqcorr.InvalidStateError) as exc:
            closest.ProductPair((0.0, 0.0, 1.0 + 1e-9), (0.0, 0.0, bad[0]))
        assert capsys.readouterr().err == "invalid state: %s\n" % exc.value

    def test_histogram(self, tmp_path, monkeypatch, capsys):
        # The second chunk's solve fails on its sixth row.  The message
        # counts the states of that chunk's solve.
        batch_reports = _kernels.batch_reports
        calls, bad = [], []

        def fail_one_row(params):
            rows = batch_reports(params)
            calls.append(params.shape[0])
            if len(calls) == 2:
                rows[5] = 0.0
                bad.append(params[5].tolist())
            return rows

        monkeypatch.setattr(_kernels, "batch_reports", fail_one_row)
        out = tmp_path / "h.csv"
        assert main(["sample", "--seed", "7", "--count", str(COUNT),
                     "--case", "2", "--histogram", "rel_residual",
                     "--out", str(out)]) == 4
        assert calls == [_kernels.CHUNK_ROWS] * 2
        assert not out.exists()
        assert not (tmp_path / "h.csv.meta.json").exists()
        assert capsys.readouterr().err == (
            "numerical failure: closest-product solver failed on 1 of %d "
            "states, first %r\n" % (_kernels.CHUNK_ROWS, bad[0]))


def test_histogram_peak_memory_does_not_grow_with_the_count(tmp_path):
    peaks = [peak_rss_kb(["sample", "--seed", "1", "--count", count,
                          "--case", "2", "--histogram", "rel_residual",
                          "--out", str(tmp_path / "h.csv")])
             for count in ("2000", "200000")]
    assert peaks[1] - peaks[0] <= 8 * 1024, peaks


def test_histogram_peak_memory_does_not_grow_with_the_bins(tmp_path):
    # The CSV is formatted one chunk of bins at a time.  Built whole, its
    # 100000 rows once lifted the peak by 21 MB.
    peaks = [peak_rss_kb(["sample", "--seed", "1", "--count", "4000",
                          "--case", "2", "--histogram", "rel_residual",
                          "--bins", bins, "--out", str(tmp_path / "h.csv")])
             for bins in ("200", "100000")]
    assert peaks[1] - peaks[0] <= 4 * 1024, peaks
