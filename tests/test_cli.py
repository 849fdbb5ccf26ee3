import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import xqcorr
from conftest import dense_state, forbid, perturb_a3
from xqcorr import _kernels, cli, closest, dynamics, ensemble, quantifiers
from xqcorr.cli import main
from xqcorr.states import XStateParams, parse_state_json, state_to_json_dict

BELL_JSON = json.dumps({
    "kind": "x", "rho11": 0.5, "rho22": 0.0, "rho33": 0.0, "rho44": 0.5,
    "rho14": 0.5, "rho23": 0.0, "gamma14": 0.0, "gamma23": 0.0,
})


CASE2_JSON = json.dumps({
    "kind": "x", "rho11": 0.3, "rho22": 0.2, "rho33": 0.2, "rho44": 0.3,
    "rho14": 0.25, "rho23": 0.15, "gamma14": 0.3, "gamma23": 1.1,
})
FIG3_JSON = json.dumps({
    "kind": "x", "rho11": 2.0 / 3.0, "rho22": 0.0, "rho33": 0.0,
    "rho44": 1.0 / 3.0, "rho14": math.sqrt(2.0) / 3.0, "rho23": 0.0,
})


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestAnalyze:
    def test_bell_report(self, tmp_path, capsys):
        f = write(tmp_path, "bell.json", BELL_JSON)
        assert main(["analyze", f]) == 0
        doc = json.loads(capsys.readouterr().out)
        q = doc["quantifiers"]
        assert abs(q["tg"] - 0.75) < 1e-12
        assert abs(q["dg"] - 0.5) < 1e-12
        assert abs(q["cg"] - 0.25) < 1e-12
        assert q["lg"] == 0.0
        assert doc["case"] == 1

    def test_maximally_mixed(self, tmp_path, capsys):
        f = write(tmp_path, "mixed.json", json.dumps({
            "kind": "x", "rho11": 0.25, "rho22": 0.25, "rho33": 0.25,
            "rho44": 0.25, "rho14": 0.0, "rho23": 0.0,
        }))
        assert main(["analyze", f]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(v == 0.0 for v in doc["quantifiers"].values())

    def test_dense_x_input(self, tmp_path, capsys):
        rho = XStateParams(0.5, 0.0, 0.0, 0.5, 0.5, 0.0).to_matrix()
        f = write(tmp_path, "dense.json", json.dumps(state_to_json_dict(rho)))
        assert main(["analyze", f]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["quantifiers"]["tg"] - 0.75) < 1e-12

    def test_dense_non_x(self, tmp_path, capsys):
        m = np.full((4, 4), 0.25)
        f = write(tmp_path, "nonx.json", json.dumps(
            {"kind": "dense", "re": m.tolist(), "im": np.zeros((4, 4)).tolist()}))
        assert main(["analyze", f]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "dg" in doc and "note" in doc
        assert "quantifiers" not in doc

    def test_malformed_json(self, tmp_path, capsys):
        f = write(tmp_path, "bad.json", "{not json")
        assert main(["analyze", f]) == 2

    def test_nan_rejected(self, tmp_path):
        f = write(tmp_path, "nan.json",
                  BELL_JSON.replace("0.5", "NaN", 1))
        assert main(["analyze", f]) == 2

    def test_integer_too_large_for_a_float(self, tmp_path, capsys):
        # A parse error (exit 2), not an OverflowError traceback.
        big = "1" + "0" * 400
        dense = json.dumps({"kind": "dense",
                            "re": [[7, 0, 0, 0]] + [[0] * 4] * 3,
                            "im": [[0] * 4] * 4}).replace("7", big)
        for name, text in (("x.json", BELL_JSON.replace("0.5", big, 1)),
                           ("dense.json", dense)):
            f = write(tmp_path, name, text)
            assert main(["analyze", f]) == 2
            assert main(["evolve", f, "--gamma0", "1", "--lambda", "1",
                         "--t-max", "1", "--steps", "20",
                         "--out", str(tmp_path / "t.csv")]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 2 and err[0] == err[1]
            assert err[0].startswith("parse error: ")
            assert "too large" in err[0]

    def test_invalid_state(self, tmp_path):
        f = write(tmp_path, "invalid.json", json.dumps({
            "kind": "x", "rho11": 0.25, "rho22": 0.25, "rho33": 0.25,
            "rho44": 0.25, "rho14": 0.4, "rho23": 0.0,
        }))
        assert main(["analyze", f]) == 3

    def test_classical_mean_past_the_block_bound(self, tmp_path, capsys):
        # Each coherence is 9e-13 past its block bound, which XStateParams
        # accepts; their mean, the closest classical state's coherence,
        # would land about 1.2e-11 past the classical state's bound.
        values = (0.01, 0.49, 0.49, 0.01, math.sqrt(1e-4 + 9e-13),
                  math.sqrt(0.2401 + 9e-13))
        state = dict(zip(("rho11", "rho22", "rho33", "rho44", "rho14",
                          "rho23"), values), kind="x")
        XStateParams(*values)
        f = write(tmp_path, "past.json", json.dumps(state))
        assert main(["analyze", f]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        doc = json.loads(out)
        assert doc["case"] == 2
        chi = XStateParams(**doc["closest_classical"])
        assert chi.rho14 == chi.rho23 == math.sqrt(chi.rho11 * chi.rho44)

    def test_missing_file(self):
        assert main(["analyze", "/nonexistent/state.json"]) == 2

    def test_unreadable_or_unwritable_path(self, tmp_path, capsys):
        # A directory where a file is read or written: an error message
        # and exit 2, as for a missing file, not an uncaught OSError.
        d = str(tmp_path)
        f = write(tmp_path, "bell.json", BELL_JSON)
        sample = ["sample", "--seed", "1", "--count", "5"]
        for argv in (sample + ["--out", d],
                     sample + ["--histogram", "rel_residual", "--out", d],
                     ["evolve", f, "--gamma0", "1", "--lambda", "1",
                      "--t-max", "1", "--steps", "20", "--out", d],
                     ["analyze", f, "--out", d],
                     ["oracle-check", "--trials", "1", "--out", d],
                     ["analyze", d]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, argv

    def test_out_file(self, tmp_path):
        f = write(tmp_path, "bell.json", BELL_JSON)
        out = tmp_path / "report.json"
        assert main(["analyze", f, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["case"] == 1


class TestSample:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main(["sample", "--seed", "7", "--count", "50",
                         "--case", "2", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert meta["seed"] == 7 and meta["case_filter"] == 2

    def test_states_csv_shape(self, tmp_path):
        out = tmp_path / "states.csv"
        assert main(["sample", "--seed", "1", "--count", "10",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 11
        header = lines[0].split(",")
        assert header[0] == "index" and header[1] == "rho11"
        assert "tg" in header and "boundary" in header

    def test_turns_no_state_back_into_an_array(self, tmp_path, monkeypatch):
        # The CSV takes each state's columns from its object, with the
        # phases it normalized, and never round-trips it through an array.
        out = tmp_path / "sample.csv"
        forbid(monkeypatch, XStateParams, "as_array")
        assert main(["sample", "--seed", "7", "--count", "50",
                     "--out", str(out)]) == 0
        assert (hashlib.sha256(out.read_bytes()).hexdigest()
                == GOLDEN_SHA256["sample.csv"])

    def test_builds_no_closest_state_objects(self, tmp_path, monkeypatch):
        # The CSV prints a3 and b3 but none of the closest states, so no
        # report builds them; check_report_rows checks them as arrays.
        argv = ["sample", "--seed", "7", "--count", "300", "--out"]
        assert main(argv + [str(tmp_path / "plain.csv")]) == 0
        for module in (quantifiers, closest):
            forbid(monkeypatch, module, "ProductPair", "_closest_classical",
                   "_classical_product_pair")
        assert main(argv + [str(tmp_path / "lazy.csv")]) == 0
        assert ((tmp_path / "lazy.csv").read_bytes()
                == (tmp_path / "plain.csv").read_bytes())

    def test_a3_past_the_bloch_bound_exits_invalid(self, tmp_path,
                                                   monkeypatch, capsys):
        solve = cli.x_report_rows
        bad = []

        def solve_one_bad_row(params):
            rows = solve(params)
            rows[5, _kernels.COL_A3] = 1.0 + 1e-9
            bad.append(rows[5, _kernels.COL_B3])
            return rows

        monkeypatch.setattr(cli, "x_report_rows", solve_one_bad_row)
        assert main(["sample", "--seed", "7", "--count", "20",
                     "--out", str(tmp_path / "s.csv")]) == 3
        with pytest.raises(xqcorr.InvalidStateError) as exc:
            closest.ProductPair((0.0, 0.0, 1.0 + 1e-9), (0.0, 0.0, bad[0]))
        assert capsys.readouterr().err == "invalid state: %s\n" % exc.value

    def test_classical_state_past_block_positivity_exits_invalid(
            self, tmp_path, monkeypatch, capsys):
        classical_rows = closest.closest_classical_rows
        bad = []

        def break_one_case2_row(params, case):
            rows = classical_rows(params, case)
            i = np.flatnonzero(case == 2)[1]
            rows[i, 4] = math.sqrt(rows[i, 0] * rows[i, 3]) + 1e-6
            bad.append(rows[i].tolist())
            return rows

        monkeypatch.setattr(closest, "closest_classical_rows",
                            break_one_case2_row)
        assert main(["sample", "--seed", "7", "--count", "20",
                     "--out", str(tmp_path / "s.csv")]) == 3
        with pytest.raises(xqcorr.InvalidStateError) as exc:
            XStateParams(*bad[0])
        assert "outer block not positive" in str(exc.value)
        assert capsys.readouterr().err == "invalid state: %s\n" % exc.value

    def test_histogram_mode(self, tmp_path):
        out = tmp_path / "hist.csv"
        assert main(["sample", "--seed", "3", "--count", "500", "--case", "2",
                     "--histogram", "rel_residual", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == 201
        total = sum(int(l.split(",")[2]) for l in lines[1:])
        meta = json.loads((tmp_path / "hist.csv.meta.json").read_text())
        assert total == meta["total_binned"] <= 500

    def test_custom_range(self, tmp_path):
        out = tmp_path / "hist.csv"
        assert main(["sample", "--seed", "3", "--count", "200", "--case", "2",
                     "--histogram", "rel_residual", "--bins", "50",
                     "--range", "-0.5", "0", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 51


class TestEvolve:
    def test_fig3_trajectory(self, tmp_path):
        psi = write(tmp_path, "psi.json", FIG3_JSON)
        out = tmp_path / "traj.csv"
        assert main(["evolve", psi, "--gamma0", "1.0", "--lambda", "0.01",
                     "--t-max", "50", "--steps", "400",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 401
        k1 = np.array([float(l.split(",")[7]) for l in lines[1:]])
        k3 = np.array([float(l.split(",")[8]) for l in lines[1:]])
        gaps = np.sign(k1 - k3)
        assert int(np.sum(gaps[:-1] * gaps[1:] < 0)) >= 2

    def test_bad_steps(self, tmp_path, capsys):
        psi = write(tmp_path, "psi.json", BELL_JSON)
        assert main(["evolve", psi, "--gamma0", "1", "--lambda", "1",
                     "--t-max", "1", "--steps", "1",
                     "--out", str(tmp_path / "t.csv")]) == 2

    def test_builds_no_per_point_objects(self, tmp_path, monkeypatch):
        psi = write(tmp_path, "psi.json", FIG3_JSON)
        argv = ["evolve", psi, "--gamma0", "1.0", "--lambda", "0.01",
                "--t-max", "50", "--steps", "400", "--out"]
        assert main(argv + [str(tmp_path / "plain.csv")]) == 0
        forbid(monkeypatch, dynamics, "evolve", "quantifiers_x",
               "TrajectoryPoint", "XStateParams")
        forbid(monkeypatch, quantifiers, "quantifiers_x", "CorrelationReport")
        assert main(argv + [str(tmp_path / "rows.csv")]) == 0
        assert ((tmp_path / "rows.csv").read_bytes()
                == (tmp_path / "plain.csv").read_bytes())

    def test_invalid_evolved_state_exits_before_the_solve(
            self, tmp_path, monkeypatch, capsys):
        # The solver would fail too (exit 4); the invalid row is seen first.
        propagate = dynamics._propagate
        bad = []

        def propagate_one_bad_row(initial, p):
            rows = propagate(initial, p)
            rows[7, 1] = -1e-6
            bad.append(rows[7].tolist())
            return rows

        monkeypatch.setattr(dynamics, "_propagate", propagate_one_bad_row)
        perturb_a3(monkeypatch)
        psi = write(tmp_path, "psi.json", CASE2_JSON)
        assert main(["evolve", psi, "--gamma0", "1", "--lambda", "1",
                     "--t-max", "1", "--steps", "20",
                     "--out", str(tmp_path / "t.csv")]) == 3
        with pytest.raises(xqcorr.InvalidStateError) as exc:
            XStateParams(*bad[0])
        assert capsys.readouterr().err == "invalid state: %s\n" % exc.value

    @pytest.mark.filterwarnings("error")
    def test_lambda_past_the_square_overflow(self, tmp_path):
        # lambda^2 overflows; P_t must still reach the Markov limit exp(-t).
        out = tmp_path / "t.csv"
        assert main(["evolve", write(tmp_path, "psi.json", FIG3_JSON),
                     "--gamma0", "1", "--lambda", "1e300", "--t-max", "1",
                     "--steps", "50", "--out", str(out)]) == 0
        last = [float(v) for v in out.read_text().split("\n")[-2].split(",")]
        assert last[0] == 1.0
        assert abs(last[1] - (2.0 / 3.0) * math.exp(-2.0)) <= 1e-15

    def test_non_finite_parameters(self, tmp_path, capsys):
        psi = write(tmp_path, "psi.json", BELL_JSON)
        for flag, value in (("--gamma0", "inf"), ("--lambda", "inf"),
                            ("--t-max", "nan"), ("--t-max", "inf")):
            argv = ["evolve", psi, "--gamma0", "1", "--lambda", "1",
                    "--t-max", "1", "--steps", "20",
                    "--out", str(tmp_path / "t.csv")]
            argv[argv.index(flag) + 1] = value
            assert main(argv) == 2
            assert "must be finite" in capsys.readouterr().err


class TestSolverFailure:
    def test_sample_and_evolve_exit_numeric(self, tmp_path, monkeypatch):
        perturb_a3(monkeypatch)
        assert main(["sample", "--seed", "1", "--count", "20",
                     "--out", str(tmp_path / "s.csv")]) == 4
        psi = write(tmp_path, "psi.json", BELL_JSON)
        assert main(["evolve", psi, "--gamma0", "1", "--lambda", "1",
                     "--t-max", "1", "--steps", "20",
                     "--out", str(tmp_path / "t.csv")]) == 4


class TestOracleCheck:
    def test_small_run(self, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        assert main(["oracle-check", "--seed", "0", "--trials", "3",
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "ok" in stdout
        doc = json.loads(out.read_text())
        assert doc["ok"] is True
        assert doc["trials"] == 3
        names = sorted(k for k, v in doc.items() if isinstance(v, float))
        assert len(names) == 3
        assert sorted(doc["worst_state"]) == names
        assert all(doc["worst_state"][n] in range(3) for n in names)
        assert main(["oracle-check", "--seed", "0", "--trials", "3"]) == 0
        assert capsys.readouterr().out == stdout

    def test_solves_the_sampled_array_once(self, monkeypatch, capsys):
        # One matrix per state, for the oracles only; no state objects are
        # sampled and none is turned back into an array.
        argv = ["oracle-check", "--seed", "0", "--trials", "3"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        forbid(monkeypatch, ensemble, "sample_x_states")
        forbid(monkeypatch, XStateParams, "as_array")
        to_matrix = XStateParams.to_matrix
        matrices = []

        def counted(p):
            matrices.append(p)
            return to_matrix(p)

        monkeypatch.setattr(XStateParams, "to_matrix", counted)
        assert main(argv) == 0
        assert capsys.readouterr().out == plain
        assert len(matrices) == 3


class TestImports:
    def test_no_scipy_at_import(self):
        # The package runs on numpy alone; scipy is a test dependency.
        code = ("import sys, xqcorr, xqcorr.cli; "
                "sys.exit('scipy' in sys.modules)")
        src = os.path.dirname(os.path.dirname(xqcorr.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              timeout=60)
        assert done.returncode == 0


class TestHelp:
    def test_help_documents_basis_and_schema(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "|11>" in text and "|00>" in text
        assert '"kind"' in text
        assert "exit codes" in text


GOLDEN_SHA256 = {
    "analyze-bell":
        "c1c14e53a5ae17bdcce237ac422be059e6bf62dde6d9844f3f931d9a9c1ca9da",
    "analyze-case2":
        "2707e18d5647095bf325ee5f46f78a137e4e0b4563ead0aba1f2b26f64e7a63f",
    "sample.csv":
        "34dcf8e2def8b58503ae7d09232a397b891e64f0f0a97327afbed7d9318ba7e9",
    "sample-case1-zero.csv":
        "14ae2b83ae86deda6cdd7dca64d1809420c09cef098e7ee261be768643fa9684",
    "sample-case2.csv":
        "5e92729c5539b607dcf7e6f49c44f3e73179c272057036f6e406b7627d733878",
    "sample.csv.meta.json":
        "bc3309ce06200ba4a933d12549d065b18e7d03602b3773091ba96f4ec308b4b2",
    "hist.csv":
        "7eb36f38626d3d9ed5de3f840dbe32fd44d32cd91d571bed385c0d9761e81ad6",
    "hist.csv.meta.json":
        "6b2833d2194455ec566ecfefd8218becbf27614e977239897bced2d6eb5b62db",
    "evolve.csv":
        "6e4e76255935eaf984c925934f6e815c07fdc006fcebbe7aa244d802b2b4b649",
    "evolve-overdamped.csv":
        "56219963406aaeca624d9cb1087fb4201f7774416266da5ba2066c78232f7545",
    "oracle-check":
        "5bbdf60d1b254fa58bd278bf234437cc04ed98e7e09cd9edc76d15d17f8ac4c2",
    "oracle.json":
        "a5e930921bdb4848e18863abca057802d1ad9f69d1b6934d53c9e2fa3e335be6",
    # The dense X state is CASE2_JSON's, so it prints the same bytes.
    "analyze-dense-x":
        "2707e18d5647095bf325ee5f46f78a137e4e0b4563ead0aba1f2b26f64e7a63f",
    "analyze-dense-nonx":
        "24088e2729bb12d7322086727d03809d651107f2ab558c2a3c319b51c99e0a84",
    "analyze-bell.json":
        "c1c14e53a5ae17bdcce237ac422be059e6bf62dde6d9844f3f931d9a9c1ca9da",
    "hist-l.csv":
        "1f1bb6eac8a079e674a4e560c97509260489fd0fdaf59fb6fd5756f1351a632f",
    "hist-l.csv.meta.json":
        "d0d1454b414510b48052867f17562c10029340c8e2ddd07dcc5c7d68baff5c8c",
}


class TestGoldenBytes:
    """Every command's output, byte for byte, against ``GOLDEN_SHA256``.

    The digests come from numpy 2.4.6 on x86-64 Linux; the last bits of
    the floats may differ under another numpy build.  A change that does
    not mean to change output bits leaves them alone.  A change that does
    regenerates them and says so in CHANGES.md.
    """

    def test_outputs_match_digests(self, tmp_path, capsys):
        def stdout_of(argv):
            assert main(argv) == 0
            return capsys.readouterr().out.encode()

        def files(*names):
            return {n: (tmp_path / n).read_bytes() for n in names}

        out = {
            "analyze-bell": stdout_of(
                ["analyze", write(tmp_path, "bell.json", BELL_JSON)]),
            "analyze-case2": stdout_of(
                ["analyze", write(tmp_path, "case2.json", CASE2_JSON)]),
            # Dense inputs: an X state through matrix_to_x_params, and a
            # full-rank state through bloch_decompose and the dg note.
            "analyze-dense-x": stdout_of(
                ["analyze", write(tmp_path, "dense-x.json", json.dumps(
                    state_to_json_dict(
                        parse_state_json(CASE2_JSON).to_matrix())))]),
            "analyze-dense-nonx": stdout_of(
                ["analyze", write(tmp_path, "dense-nonx.json", json.dumps(
                    state_to_json_dict(dense_state(149))))]),
        }
        stdout_of(["analyze", str(tmp_path / "bell.json"),
                   "--out", str(tmp_path / "analyze-bell.json")])
        stdout_of(["sample", "--seed", "7", "--count", "50",
                   "--out", str(tmp_path / "sample.csv")])
        stdout_of(["sample", "--seed", "7", "--count", "2000", "--case", "1",
                   "--phase-mode", "zero",
                   "--out", str(tmp_path / "sample-case1-zero.csv")])
        stdout_of(["sample", "--seed", "7", "--count", "2000", "--case", "2",
                   "--out", str(tmp_path / "sample-case2.csv")])
        stdout_of(["sample", "--seed", "3", "--count", "2000", "--case", "2",
                   "--histogram", "rel_residual",
                   "--out", str(tmp_path / "hist.csv")])
        stdout_of(["sample", "--seed", "3", "--count", "2000",
                   "--histogram", "rel_residual_with_l", "--bins", "50",
                   "--range", "0", "0.5",
                   "--out", str(tmp_path / "hist-l.csv")])
        psi = write(tmp_path, "psi.json", FIG3_JSON)
        stdout_of(["evolve", psi, "--gamma0", "1.0", "--lambda", "0.01",
                   "--t-max", "50", "--steps", "200",
                   "--out", str(tmp_path / "evolve.csv")])
        # lambda > 2*gamma0: the overdamped branch of P_t.
        stdout_of(["evolve", psi, "--gamma0", "1.0", "--lambda", "5",
                   "--t-max", "20", "--steps", "200",
                   "--out", str(tmp_path / "evolve-overdamped.csv")])
        out["oracle-check"] = stdout_of(
            ["oracle-check", "--seed", "0", "--trials", "3",
             "--out", str(tmp_path / "oracle.json")])
        out.update(files("sample.csv", "sample.csv.meta.json",
                         "sample-case1-zero.csv", "sample-case2.csv",
                         "hist.csv", "hist.csv.meta.json", "hist-l.csv",
                         "hist-l.csv.meta.json", "analyze-bell.json",
                         "evolve.csv",
                         "evolve-overdamped.csv", "oracle.json"))
        cases = {line.rsplit(",", 1)[1] for line in
                 out["evolve.csv"].decode().split("\n")[1:-1]}
        assert cases == {"1", "2"}
        digests = {k: hashlib.sha256(v).hexdigest() for k, v in out.items()}
        assert digests == GOLDEN_SHA256
