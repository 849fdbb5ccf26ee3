"""Tests of the benchmark's own code: spans, rebinding and output checks.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import sys

import pytest

import checks
import run
import spans
import workloads

import xqcorr
from xqcorr import cli, dynamics, quantifiers

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# --- span arithmetic -------------------------------------------------------

def test_self_time_subtracts_merged_clipped_children():
    trace = [
        [0, -1, 0.0, 10.0],   # root
        [1, 0, 1.0, 3.0],     # child, overlaps the next one
        [1, 0, 2.0, 5.0],
        [2, 1, 1.5, 2.5],     # grandchild of the first child
        [1, 0, 9.0, 12.0],    # runs past the root's end: clipped
    ]
    own = spans.self_times(trace)
    assert own[0] == pytest.approx(10.0 - (4.0 + 1.0))
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)


def test_aggregate_sums_calls_total_and_self_per_name():
    trace = {"names": ["outer", "inner"], "counts": {"outer.rows": 7},
             "spans": [[0, -1, 0.0, 4.0], [1, 0, 1.0, 2.0],
                       [1, 0, 2.5, 3.0], [0, -1, 5.0, 6.0]]}
    agg = spans.aggregate(trace)
    assert agg["outer.calls"] == 2 and agg["inner.calls"] == 2
    assert agg["outer.total_s"] == pytest.approx(5.0)
    assert agg["outer.self_s"] == pytest.approx(3.5)
    assert agg["inner.self_s"] == pytest.approx(1.5)
    assert agg["outer.rows"] == 7


# --- rebinding -------------------------------------------------------------

def _xqcorr_modules():
    return [m for n, m in sys.modules.items()
            if m is not None and (n == "xqcorr" or n.startswith("xqcorr."))]


def test_install_rebinds_every_module_binding_and_restores():
    original = quantifiers.quantifiers_x
    originals = {id(spans._resolve(sys.modules[mod], path)[2])
                 for mod, path, _, _ in spans.TARGETS
                 if mod in sys.modules}
    with spans.Tracer():
        wrapped = quantifiers.quantifiers_x
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert cli.quantifiers_x is wrapped
        assert dynamics.quantifiers_x is wrapped
        assert xqcorr.quantifiers_x is wrapped
        for module in _xqcorr_modules():
            for key, value in vars(module).items():
                assert id(value) not in originals, (module.__name__, key)
        post_init = xqcorr.XStateParams.__dict__["__post_init__"]
        assert hasattr(post_init, "__wrapped__")
    assert quantifiers.quantifiers_x is original
    assert cli.quantifiers_x is original and dynamics.quantifiers_x is original
    assert not hasattr(xqcorr.XStateParams.__dict__["__post_init__"],
                       "__wrapped__")


def test_traced_counts_repeat_and_outputs_match_untraced(tmp_path):
    argv = ["sample", "--seed", "5", "--count", "60"]
    plain = tmp_path / "plain.csv"
    assert cli.main(argv + ["--out", str(plain)]) == 0
    runs = []
    for i in range(2):
        out = tmp_path / ("traced%d.csv" % i)
        with spans.Tracer() as tracer:
            assert cli.main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == plain.read_bytes()
        runs.append(spans.layer_metrics(tracer.dump()))
    counts = [{k: v for k, v in m.items() if not k.endswith("_s")}
              for m in runs]
    assert counts[0] == counts[1]
    assert counts[0]["quantifiers.quantifiers_x.calls"] == 60
    assert counts[0]["kernels.batch_reports.rows"] == 60
    assert runs[0]["cli.main.self_s"] > 0.0


# --- output checkers -------------------------------------------------------

def _edit_row(text, column, pick, new_value, header):
    """Replace ``column`` of the first data row where pick(row) holds."""
    lines = text.split("\n")
    names = header.split(",")
    col = names.index(column)
    for i in range(1, len(lines)):
        fields = lines[i].split(",")
        if len(fields) == len(names) and pick(dict(zip(names, fields))):
            fields[col] = new_value(fields[col])
            lines[i] = ",".join(fields)
            return "\n".join(lines)
    raise AssertionError("no row matched")


@pytest.fixture(scope="module")
def sample_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("sample") / "s.csv"
    assert cli.main(["sample", "--seed", "9", "--count", "200",
                     "--out", str(out)]) == 0
    return out.read_text()


def test_sample_checker_accepts_real_output(sample_csv):
    assert checks.check_sample_csv(sample_csv, 200) == []


def test_sample_checker_rejects_flipped_case2_residual(sample_csv):
    bad = _edit_row(sample_csv, "res", lambda r: r["case"] == "2",
                    lambda v: v.lstrip("-"), checks.SAMPLE_HEADER)
    assert any("res > 0" in p for p in checks.check_sample_csv(bad, 200))


def test_sample_checker_rejects_wrong_discord(sample_csv):
    bad = _edit_row(sample_csv, "dg", lambda r: True,
                    lambda v: repr(float(v) + 1e-6), checks.SAMPLE_HEADER)
    assert any("dg differs" in p for p in checks.check_sample_csv(bad, 200))


def test_sample_checker_rejects_case1_closure_defect(sample_csv):
    bad = _edit_row(sample_csv, "lg", lambda r: r["case"] == "1",
                    lambda v: "1e-3", checks.SAMPLE_HEADER)
    assert any("case 1" in p for p in checks.check_sample_csv(bad, 200))


def test_sample_checker_rejects_missing_row(sample_csv):
    bad = sample_csv.rstrip("\n").rsplit("\n", 1)[0] + "\n"
    assert any("rows" in p for p in checks.check_sample_csv(bad, 200))


@pytest.fixture(scope="module")
def histogram(tmp_path_factory):
    out = tmp_path_factory.mktemp("hist") / "h.csv"
    assert cli.main(["sample", "--seed", "4", "--count", "300", "--case", "2",
                     "--histogram", "rel_residual", "--out", str(out)]) == 0
    return out.read_text(), (out.parent / "h.csv.meta.json").read_text()


def test_histogram_checker_accepts_real_output(histogram):
    assert checks.check_histogram(*histogram, 300) == []


def test_histogram_checker_rejects_lost_count(histogram):
    csv_text, meta_text = histogram
    bad = _edit_row(csv_text, "count", lambda r: int(r["count"]) > 0,
                    lambda v: str(int(v) - 1), "bin_lo,bin_hi,count")
    assert checks.check_histogram(bad, meta_text, 300)
    meta = json.loads(meta_text)
    meta["total_binned"] -= 1
    assert checks.check_histogram(csv_text, json.dumps(meta), 300)


def test_histogram_checker_rejects_overflow(histogram):
    csv_text, meta_text = histogram
    meta = json.loads(meta_text)
    meta["total_binned"] -= 1
    meta["overflow"] += 1
    problems = checks.check_histogram(csv_text, json.dumps(meta), 300)
    assert any("overflow" in p for p in problems)


@pytest.fixture(scope="module")
def trajectory(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("traj"))
    argv = workloads._traj_argv(work, 11)
    argv[argv.index("--steps") + 1] = "400"
    assert cli.main(argv) == 0
    with open(os.path.join(work, "trajectory.csv")) as fh:
        return fh.read()


def test_trajectory_checker_accepts_real_output(trajectory):
    assert checks.check_trajectory(trajectory, 400) == []


def test_trajectory_checker_rejects_bad_trace_and_missing_rows(trajectory):
    bad = _edit_row(trajectory, "rho11", lambda r: True,
                    lambda v: repr(float(v) + 1e-9), checks.TRAJECTORY_HEADER)
    assert any("diagonal" in p for p in checks.check_trajectory(bad, 400))
    assert any("rows" in p for p in checks.check_trajectory(trajectory, 401))


def test_trajectory_checker_rejects_single_case(trajectory):
    lines = trajectory.split("\n")
    case1 = [ln for ln in lines[1:] if ln.endswith(",1")]
    only = "\n".join([lines[0]] + case1) + "\n"
    assert any("both cases" in p
               for p in checks.check_trajectory(only, len(case1)))


def test_oracle_checker():
    good = ("oracle check over 1 states (seed 0)\n"
            "  a   1.0e-18 (<= 1e-08) ok\n"
            "  b   1.0e-16 (<= 1e-06) ok\n"
            "  c   1.0e-17 (<= 1e-06) ok\n")
    assert checks.check_oracle(good, 0) == []
    assert checks.check_oracle(good, 4)
    assert checks.check_oracle(good.replace("-17 (<= 1e-06) ok",
                                            "-03 (<= 1e-06) FAIL"), 0)


# --- the rest of the harness ----------------------------------------------

def test_parse_importtime_sums_self_time_per_package():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       100 |        100 |   numpy.core\n"
            "import time:        50 |        150 | numpy\n"
            "import time:       200 |        200 |     scipy.optimize\n"
            "import time:        30 |        380 | xqcorr\n")
    got = run.parse_importtime(text)
    assert got["setup.numpy_s"] == pytest.approx(150e-6)
    assert got["setup.scipy_s"] == pytest.approx(200e-6)
    assert got["setup.xqcorr_s"] == pytest.approx(30e-6)
    assert got["setup.scipy_loaded"] == 1


def test_derived_seeds_are_stable_and_distinct():
    assert workloads.derive_seed(3, 0) == workloads.derive_seed(3, 0)
    assert len({workloads.derive_seed(3, i) for i in range(50)}) == 50


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)
