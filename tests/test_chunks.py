"""Chunked sampling, solving and writing: the bits, the errors and the memory.

`sample` and `evolve` work through their states in chunks of
``_kernels.CHUNK_ROWS`` rows, and every CSV is written in chunks of as many
rows.  The tests here use counts of 3 chunks plus 17 rows, and histograms
with bin counts at a chunk's edge, so a chunk that drops or repeats a row
at its edge moves a byte.  The references are built and formatted in one
pass over all rows, as the commands were before they were chunked.
"""

import json
import os
import stat
import threading

import numpy as np
import pytest

import xqcorr
from conftest import corrupt_row, peak_rss_kb
from xqcorr import _kernels, cli, closest, dynamics, ensemble
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


def write_psi(tmp_path):
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps(PSI))
    return str(psi)


def evolve_argv(psi, steps, out):
    return ["evolve", psi, "--gamma0", "1", "--lambda", "0.01",
            "--t-max", "50", "--steps", str(steps), "--out", str(out)]


def temp_files(directory):
    return sorted(p.name for p in directory.iterdir() if p.suffix == ".tmp")


def fail_one_solve(monkeypatch, row):
    """Make the solve of global row ``row`` fail, as batch_reports marks a
    failed row; returns the conftest.corrupt_row record."""
    return corrupt_row(monkeypatch, _kernels, "batch_reports", row, 0.0)


def solver_failure(record):
    # The message of a solve that failed on the one corrupted row: it
    # counts the states of that row's chunk.
    (params, _), = record.hits
    return ("numerical failure: closest-product solver failed on 1 of %d "
            "states, first %r\n" % (_kernels.CHUNK_ROWS, params))


class TestErrorInALaterChunk:
    """An error found past the first chunk still leaves no output file."""

    BAD_ROW = _kernels.CHUNK_ROWS + 5

    def test_sample_csv(self, tmp_path, monkeypatch, capsys):
        record = corrupt_row(monkeypatch, cli, "x_report_rows", self.BAD_ROW,
                             1.0 + 1e-9, column=_kernels.COL_A3)
        out = tmp_path / "s.csv"
        assert main(["sample", "--seed", "7", "--count", str(COUNT),
                     "--out", str(out)]) == 3
        assert not out.exists()
        assert not (tmp_path / "s.csv.meta.json").exists()
        assert temp_files(tmp_path) == []
        (_, row), = record.hits
        with pytest.raises(xqcorr.InvalidStateError) as exc:
            closest.ProductPair((0.0, 0.0, 1.0 + 1e-9),
                                (0.0, 0.0, row[_kernels.COL_B3]))
        assert capsys.readouterr().err == "invalid state: %s\n" % exc.value

    def test_sample_csv_solver_failure(self, tmp_path, monkeypatch, capsys):
        record = fail_one_solve(monkeypatch, self.BAD_ROW)
        out = tmp_path / "s.csv"
        assert main(["sample", "--seed", "7", "--count", str(COUNT),
                     "--out", str(out)]) == 4
        assert record.calls == [_kernels.CHUNK_ROWS] * 2
        assert not out.exists()
        assert not (tmp_path / "s.csv.meta.json").exists()
        assert temp_files(tmp_path) == []
        assert capsys.readouterr().err == solver_failure(record)

    def test_histogram(self, tmp_path, monkeypatch, capsys):
        # The second chunk's solve fails on its sixth row.  The message
        # counts the states of that chunk's solve.
        record = fail_one_solve(monkeypatch, self.BAD_ROW)
        out = tmp_path / "h.csv"
        assert main(["sample", "--seed", "7", "--count", str(COUNT),
                     "--case", "2", "--histogram", "rel_residual",
                     "--out", str(out)]) == 4
        assert record.calls == [_kernels.CHUNK_ROWS] * 2
        assert not out.exists()
        assert not (tmp_path / "h.csv.meta.json").exists()
        assert temp_files(tmp_path) == []
        assert capsys.readouterr().err == solver_failure(record)

    def test_evolve(self, tmp_path, monkeypatch, capsys):
        record = fail_one_solve(monkeypatch, self.BAD_ROW)
        out = tmp_path / "t.csv"
        assert main(evolve_argv(write_psi(tmp_path), COUNT, out)) == 4
        assert record.calls == [_kernels.CHUNK_ROWS] * 2
        assert not out.exists()
        assert temp_files(tmp_path) == []
        assert capsys.readouterr().err == solver_failure(record)

    def test_evolve_invalid_state(self, tmp_path, monkeypatch, capsys):
        # P_t = 1.5 at one time of the second chunk makes rho22 negative
        # there: exit 3, and that chunk is never solved.
        corrupt_row(monkeypatch, _kernels, "pt_values", self.BAD_ROW, 1.5)
        solve, solves = _kernels.batch_reports, []
        monkeypatch.setattr(_kernels, "batch_reports",
                            lambda p: solves.append(len(p)) or solve(p))
        out = tmp_path / "t.csv"
        assert main(evolve_argv(write_psi(tmp_path), COUNT, out)) == 3
        assert solves == [_kernels.CHUNK_ROWS]
        assert not out.exists()
        assert temp_files(tmp_path) == []
        initial = XStateParams(**{k: v for k, v in PSI.items()
                                  if k != "kind"})
        bad = dynamics._propagate(initial, np.array([1.5]))[0]
        with pytest.raises(xqcorr.InvalidStateError) as exc:
            XStateParams(*bad.tolist())
        assert capsys.readouterr().err == "invalid state: %s\n" % exc.value

    def run(self, command, tmp_path):
        # Runs ``command`` (sample, histogram or evolve) over COUNT rows;
        # returns its exit code and its --out path.
        out = tmp_path / "out.csv"
        if command == "evolve":
            return main(evolve_argv(write_psi(tmp_path), COUNT, out)), out
        extra = (["--case", "2", "--histogram", "rel_residual"]
                 if command == "histogram" else [])
        return main(["sample", "--seed", "7", "--count", str(COUNT), *extra,
                     "--out", str(out)]), out

    @pytest.mark.parametrize("command", ("sample", "histogram", "evolve"))
    def test_k1_below_k2(self, command, tmp_path, monkeypatch, capsys):
        # x_report_rows checks each chunk's case labels as arrays, so every
        # command that solves rows stops with the CaseLabel error.
        record = corrupt_row(monkeypatch, _kernels, "batch_reports",
                             self.BAD_ROW, 10.0, column=_kernels.COL_K2)
        code, out = self.run(command, tmp_path)
        assert code == 3
        assert len(record.hits) == 1
        assert not out.exists()
        assert not (tmp_path / "out.csv.meta.json").exists()
        assert temp_files(tmp_path) == []
        assert capsys.readouterr().err == (
            "invalid state: k1 < k2 cannot occur for an X state\n")

    def test_flipped_case(self, tmp_path, monkeypatch, capsys):
        # The row's case, 1.0 or 2.0, is set to the other one.
        params, _ = sample_x_arrays(SamplerConfig(seed=7, count=COUNT))
        case = _kernels.k_eigenvalues(params[self.BAD_ROW:])[3][0]
        record = corrupt_row(monkeypatch, _kernels, "batch_reports",
                             self.BAD_ROW, 3.0 - case,
                             column=_kernels.COL_CASE)
        code, out = self.run("sample", tmp_path)
        assert code == 3
        assert not out.exists()
        assert not (tmp_path / "out.csv.meta.json").exists()
        assert temp_files(tmp_path) == []
        (_, row), = record.hits
        with pytest.raises(xqcorr.InvalidStateError) as exc:
            closest.CaseLabel(closest.CaseId(int(3.0 - case)),
                              row[_kernels.COL_K1], row[_kernels.COL_K2],
                              row[_kernels.COL_K3])
        assert str(exc.value).startswith("case label inconsistent")
        assert capsys.readouterr().err == "invalid state: %s\n" % exc.value

    @pytest.mark.parametrize("command", ("sample", "evolve"))
    def test_a_file_at_out_keeps_its_bytes(self, command, tmp_path,
                                           monkeypatch):
        out = tmp_path / "old.csv"
        out.write_bytes(b"old bytes\n")
        out.chmod(0o640)
        fail_one_solve(monkeypatch, self.BAD_ROW)
        argv = (["sample", "--seed", "7", "--count", str(COUNT),
                 "--out", str(out)] if command == "sample"
                else evolve_argv(write_psi(tmp_path), COUNT, out))
        assert main(argv) == 4
        assert out.read_bytes() == b"old bytes\n"
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert not (tmp_path / "old.csv.meta.json").exists()
        assert temp_files(tmp_path) == []


class TestOutputTargets:
    """``--out`` through a symlink, into a FIFO, and a new file's mode."""

    def reference(self, tmp_path, psi):
        plain = tmp_path / "plain.csv"
        assert main(evolve_argv(psi, 5, plain)) == 0
        return plain.read_bytes()

    def test_symlink_keeps_the_link_and_its_target_gets_the_bytes(
            self, tmp_path):
        psi = write_psi(tmp_path)
        target = tmp_path / "target.csv"
        target.write_bytes(b"old bytes\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target.name)
        assert main(evolve_argv(psi, 5, link)) == 0
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_bytes() == self.reference(tmp_path, psi)
        assert temp_files(tmp_path) == []

    def test_fifo_is_written_in_place(self, tmp_path):
        psi = write_psi(tmp_path)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(
            target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(evolve_argv(psi, 5, fifo)) == 0
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert got == [self.reference(tmp_path, psi)]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert temp_files(tmp_path) == []

    def test_a_new_file_has_the_mode_open_gives(self, tmp_path):
        psi = write_psi(tmp_path)
        old = os.umask(0o027)
        try:
            with open(tmp_path / "by-open.csv", "w"):
                pass
            assert main(evolve_argv(psi, 5, tmp_path / "new.csv")) == 0
        finally:
            os.umask(old)
        mode = stat.S_IMODE((tmp_path / "by-open.csv").stat().st_mode)
        assert mode == 0o640
        assert stat.S_IMODE((tmp_path / "new.csv").stat().st_mode) == mode

    def test_a_replaced_file_keeps_its_mode(self, tmp_path):
        psi = write_psi(tmp_path)
        out = tmp_path / "t.csv"
        out.write_bytes(b"old bytes\n")
        out.chmod(0o600)
        assert main(evolve_argv(psi, 5, out)) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert out.read_bytes() == self.reference(tmp_path, psi)


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


@pytest.mark.parametrize("command", ("sample", "evolve"))
def test_csv_peak_memory_does_not_grow_with_the_rows(command, tmp_path):
    # Each chunk is solved, checked and written before the next.  Solved
    # whole first, 10^5 rows lifted the peak by 15-17 MB over 10^4.
    psi, out = write_psi(tmp_path), tmp_path / "out.csv"
    peaks = [peak_rss_kb(["sample", "--seed", "1", "--count", str(rows),
                          "--out", str(out)] if command == "sample"
                         else evolve_argv(psi, rows, out))
             for rows in (10 ** 4, 10 ** 5)]
    assert peaks[1] - peaks[0] <= 8 * 1024, peaks
