import argparse
import ast
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import xqcorr
from conftest import dense_state, forbid, perturb_a3
from xqcorr import (_kernels, cli, closest, dynamics, ensemble, quantifiers,
                    states)
from xqcorr.cli import main
from xqcorr.states import (BlochForm, DensityMatrix4, XStateParams,
                           parse_state_json, state_to_json_dict, x_matrices)

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


# Valid states, each with a reported closest state that has a Bloch vector
# of norm past 1 + 1e-10 and a valid matrix: the closest product
# (a3 = 1 + 1.3e-10) of the first, the classical closest product
# (y3 = 1 + 1.2e-10) of the second.
PAST_NORM_ONE = (
    (1.0000000001, 0.0, -5e-11, -5e-11, 0.0, 0.0),
    (0.50000000003, -3e-11, 0.50000000003, -3e-11,
     5.4772255757089284e-06, 5.4772255757089284e-06),
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def x_and_dense_docs(values):
    """An X state's file in X form and as its dense matrix."""
    x_doc = dict(zip(("rho11", "rho22", "rho33", "rho44", "rho14", "rho23",
                      "gamma14", "gamma23"), values), kind="x")
    m = x_matrices(np.array([list(values) + [0.0] * (8 - len(values))]))[0]
    return x_doc, {"kind": "dense", "re": m.real.tolist(),
                   "im": m.imag.tolist()}


def evolve_exit(path, tmp_path):
    return main(["evolve", path, "--gamma0", "1", "--lambda", "0.1",
                 "--t-max", "1", "--steps", "3",
                 "--out", str(tmp_path / "t.csv")])


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

    @pytest.mark.parametrize("token", [
        '"0.5"', "true", "false", "null", "[0.5]", "NaN", "Infinity",
        "-Infinity", "1e400", "1" + "0" * 400], ids=[
        "string", "true", "false", "null", "list", "nan", "inf", "-inf",
        "1e400", "10^400"])
    def test_every_entry_is_a_finite_number(self, tmp_path, capsys, token):
        # Dense entries once went through numpy's float coercion, which
        # read "0.5" as 0.5 and true as 1.0.
        mark = 0.123456789
        x_doc, dense = x_and_dense_docs([0.5, 0.0, 0.0, 0.5, 0.5, 0.0])
        x_doc["rho11"] = mark
        docs = {"'rho11'": x_doc}
        for key, (i, j) in (("re", (0, 0)), ("im", (1, 2))):
            doc = json.loads(json.dumps(dense))
            doc[key][i][j] = mark
            docs["%r[%d][%d]" % (key, i, j)] = doc
        for where, doc in docs.items():
            f = write(tmp_path, "s.json",
                      json.dumps(doc).replace(repr(mark), token))
            assert main(["analyze", f]) == 2
            err = capsys.readouterr().err
            assert err.startswith("parse error: ") and where in err

    def test_invalid_state(self, tmp_path):
        f = write(tmp_path, "invalid.json", json.dumps({
            "kind": "x", "rho11": 0.25, "rho22": 0.25, "rho33": 0.25,
            "rho44": 0.25, "rho14": 0.4, "rho23": 0.0,
        }))
        assert main(["analyze", f]) == 3

    def test_classical_mean_past_the_block_bound(self, tmp_path, capsys):
        # Both blocks' least eigenvalues sit at -PSD_FLOOR, which
        # XStateParams accepts; their mean coherence, the closest classical
        # state's, would take its block to -1.0025e-10, past the floor.
        values = (0.3, 0.20000000000049947, 0.20000000000049947, 0.3,
                  0.3000000000999999, 0.20000000010049937)
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

    def test_integer_spelled_entries_print_as_floats(self, tmp_path, capsys):
        # A case-1 state's closest classical state once printed "rho22": 0
        # for an entry spelled 0; every number of the report is a float.
        floats = {"kind": "x", "rho11": 0.5, "rho22": 0.0, "rho33": 0.0,
                  "rho44": 0.5, "rho14": 0.1, "rho23": 0.0, "gamma14": 0.0,
                  "gamma23": 0.0}
        ints = {k: int(v) if v == 0.0 else v for k, v in floats.items()}
        outs = []
        for name, doc in (("f.json", floats), ("i.json", ints)):
            f = write(tmp_path, name, json.dumps(doc))
            assert main(["analyze", f]) == 0
            outs.append(capsys.readouterr().out)
        assert '"rho22": 0,' in json.dumps(ints)
        assert json.loads(outs[0])["case"] == 1
        assert outs[1] == outs[0]

    def test_x_and_dense_forms_exit_alike(self, tmp_path):
        # rho33 = -1e-12 and rho23^2 > rho22 rho33: the inner block's least
        # eigenvalue is -1.05e-9.  The X form once exited 0, and its own
        # dense matrix 3 ("negative eigenvalue -1.050e-09").
        values = [0.40298448999485303, 0.0002266008471624208, -1e-12,
                  0.5967889091597588, 0.49040460253989065,
                  4.876352510675811e-07, 5.455702749704525,
                  5.143443821535083]
        codes = set()
        for i, doc in enumerate(x_and_dense_docs(values)):
            f = write(tmp_path, "%d.json" % i, json.dumps(doc))
            codes.add(main(["analyze", f, "--out", str(tmp_path / "a")]))
            codes.add(evolve_exit(f, tmp_path))
        assert codes == {3}

    @pytest.mark.parametrize("values", PAST_NORM_ONE)
    def test_closest_states_past_norm_one(self, tmp_path, values):
        # Both once exited 3 ("Bloch vector ... has norm ... > 1").
        for i, doc in enumerate(x_and_dense_docs(values)):
            f = write(tmp_path, "%d.json" % i, json.dumps(doc))
            assert main(["analyze", f, "--out", str(tmp_path / "a")]) == 0
            assert evolve_exit(f, tmp_path) == 0

    def test_dense_non_x_past_norm_one(self, tmp_path, capsys):
        # x3 = 1 + 2e-10; once exited 3 ("Bloch vector norm exceeds 1").
        _, doc = x_and_dense_docs(PAST_NORM_ONE[0])
        doc["re"][0][1] = doc["re"][1][0] = 2e-10
        f = write(tmp_path, "d.json", json.dumps(doc))
        assert main(["analyze", f]) == 0
        assert "only the geometric discord" in capsys.readouterr().out

    def test_closest_product_past_the_floor_exits_invalid(self, tmp_path,
                                                          capsys):
        # A valid case-2 state with x3 = 0 and y3 = 1 + 4.005e-10: its
        # closest product, the first closest state built, is (0, y3), whose
        # least eigenvalue (1 - y3)/4 = -1.0013e-10 is also its classical
        # state's smaller diagonal entry.
        values = (0.50000000010035, -9.99e-11, 0.50000000010035, -9.99e-11,
                  2.2137072981683614e-07, 2.2137072981683614e-07)
        for i, doc in enumerate(x_and_dense_docs(values)):
            f = write(tmp_path, "%d.json" % i, json.dumps(doc))
            assert evolve_exit(f, tmp_path) == 0
            assert main(["analyze", f]) == 3
            assert capsys.readouterr().err == (
                "invalid state: product state not positive: least "
                "eigenvalue -1.001e-10\n")

    def test_dense_state_is_validated_once(self, tmp_path, monkeypatch,
                                           capsys):
        calls = []
        check = states.check_densities

        def counted(m):
            calls.append(len(m))
            return check(m)

        monkeypatch.setattr(states, "check_densities", counted)
        f = write(tmp_path, "dense.json",
                  json.dumps(state_to_json_dict(dense_state(149))))
        assert main(["analyze", f]) == 0
        assert calls == [1]
        assert "only the geometric discord" in capsys.readouterr().out

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
        forbid(monkeypatch, quantifiers, "ProductPair",
               "closest_classical_rows", "classical_product_rows")
        forbid(monkeypatch, closest, "ProductPair")
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

    def test_binning_without_histogram_exits_parse(self, tmp_path, capsys):
        # The state CSV has no bins: --bins or --range without --histogram
        # is refused, not ignored.
        out = tmp_path / "s.csv"
        for extra in (["--bins", "5"], ["--range", "0", "1"],
                      ["--bins", "5", "--range", "0", "1"]):
            assert main(["sample", "--seed", "1", "--count", "3", *extra,
                         "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                "parse error: --bins and --range apply only with "
                "--histogram\n")
            assert not os.path.exists(out)

    def test_negative_exponent_range(self, tmp_path):
        # argparse's own pattern took -1e-3 for an option ("expected 2
        # arguments").
        out = tmp_path / "hist.csv"
        assert main(["sample", "--seed", "3", "--count", "200", "--case", "2",
                     "--histogram", "rel_residual", "--range", "-1e-3", "0",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 201
        assert float(lines[1].split(",")[0]) == -0.001

    def test_non_finite_range_exits_parse(self, tmp_path, capsys):
        for lo, hi in (("0", "inf"), ("-1e308", "1e308")):
            assert main(["sample", "--seed", "3", "--count", "20",
                         "--histogram", "rel_residual", "--range", lo, hi,
                         "--out", str(tmp_path / "h.csv")]) == 2
            assert capsys.readouterr().err == (
                "parse error: histogram range must have a finite width\n")

    @pytest.mark.parametrize("token", [
        "-1", "-1.", "-.5", "-1e-3", "-1E+3", "-1.e5", "-1_000", "-.5_5",
        "-1.5e-3_0", "-1 ", "-1__0", "-1_", "-.e5", "-.", "-1e", "-1e-",
        "-1.5e-3_", "-1x", "-0x10", "-1.2.3", "-_1", "-1._5", "-1_.5",
        "-1e_5", "-5j", "-h", "--out", "-inf", "-nan"])
    def test_negative_numbers_are_what_float_parses(self, token):
        # Each parser reads a token as a value exactly when float() parses
        # it and a digit or "." follows its "-".
        try:
            float(token)
            value = token[1] in "0123456789."
        except ValueError:
            value = False
        parser = cli.build_parser()
        sub, = (a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
        parsers = [parser, *sub.choices.values()]
        assert len(parsers) == 5
        for p in parsers:
            assert bool(p._negative_number_matcher.match(token)) is value

    def test_argparse_has_the_negative_number_hook(self):
        # build_parser sets this private attribute; a Python whose argparse
        # dropped or renamed it would ignore the setting without an error.
        parser = argparse.ArgumentParser()
        assert hasattr(parser, "_negative_number_matcher"), (
            "argparse.ArgumentParser has no _negative_number_matcher on "
            "Python %s: cli.build_parser can no longer make -1e-3 a value"
            % sys.version.split()[0])


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

    def test_state_within_the_slack_evolves(self, tmp_path):
        # Its trace is 1e-12 off and rho14 sits at its block bound.  The
        # identity map (t_max = 0) once moved the trace offset into rho44
        # and exited 3: "outer block not positive".
        psi = write(tmp_path, "slack.json", json.dumps(dict(
            kind="x", rho11=0.14094998635382114, rho22=0.1729495252848196,
            rho33=0.20320283659973007, rho44=0.4828976517626283,
            rho14=0.260891581748499, rho23=0.1874668880828054)))
        assert main(["analyze", psi, "--out", str(tmp_path / "a.json")]) == 0
        assert main(["evolve", psi, "--gamma0", "1", "--lambda", "0.1",
                     "--t-max", "0", "--steps", "2",
                     "--out", str(tmp_path / "t.csv")]) == 0

    def test_bad_steps(self, tmp_path, capsys):
        psi = write(tmp_path, "psi.json", BELL_JSON)
        with pytest.raises(SystemExit) as exc:
            main(["evolve", psi, "--gamma0", "1", "--lambda", "1",
                  "--t-max", "1", "--steps", "1",
                  "--out", str(tmp_path / "t.csv")])
        assert exc.value.code == 2

    def test_negative_exponent_is_a_value(self, tmp_path, capsys):
        # Once "expected one argument" from argparse.
        psi = write(tmp_path, "psi.json", BELL_JSON)
        assert main(["evolve", psi, "--gamma0", "1", "--lambda", "-1e-3",
                     "--t-max", "1", "--steps", "20",
                     "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err == "parse error: lam must be positive\n"

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma0, lam, t_max, ratio", (
        pytest.param("1e-307", "1e-308", "50", "0.1", id="1e-307-1e-308-50"),
        pytest.param("1e-10", "1", "1e300", "1e10", id="1e-10-1-1e300")))
    def test_times_past_the_float_range(self, gamma0, lam, t_max, ratio,
                                        tmp_path, capsys):
        # The last times, t_max / gamma0, overflow to inf.  P_t depends on
        # gamma0*t and lambda*t alone, so each run reads as the run with the
        # rates (1, lambda/gamma0).  In the first 2*gamma0*lambda underflows.
        psi = write(tmp_path, "psi.json", json.dumps(
            {"kind": "x", "rho11": 0.35, "rho22": 0.1, "rho33": 0.1,
             "rho44": 0.45, "rho14": 0.33, "rho23": 0.085}))
        rows = []
        for rates in ((gamma0, lam), ("1", ratio)):
            out = tmp_path / "t.csv"
            assert main(["evolve", psi, "--gamma0", rates[0], "--lambda",
                         rates[1], "--t-max", t_max, "--steps", "11",
                         "--out", str(out)]) == 0
            assert capsys.readouterr().err == ""
            rows.append(np.loadtxt(out, delimiter=",", skiprows=1))
        assert np.allclose(rows[0], rows[1], rtol=1e-12, atol=0.0)
        if ratio == "1e10":  # P_t = exp(-1e300) = 0 at the last time
            assert rows[0][-1, 4] == 1.0

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

    @pytest.mark.parametrize("column,passes,fails", [
        (0, 3e-9, 3e-8), (1, 3e-7, 3e-6), (2, 3e-7, 3e-6)])
    def test_bounds_are_fixed_widths(self, column, passes, fails,
                                     monkeypatch, capsys):
        # One error column at a time, the others 0: the distance passes at
        # 3e-9 and fails at 3e-8, the transverse components and the
        # discord pass at 3e-7 and fail at 3e-6.  Literal widths, not
        # ORACLE_*, so that a tenfold change of a bound fails here.
        for value, code in ((passes, 0), (fails, 4)):
            errors = np.zeros((2, 3))
            errors[1, column] = value
            monkeypatch.setattr(cli, "oracle_errors",
                                lambda params, seed: errors)
            assert main(["oracle-check", "--trials", "2"]) == code
            rows = capsys.readouterr().out.splitlines()[1:]
            assert [r.endswith(" FAIL") for r in rows] == [
                code == 4 and j == column for j in range(3)]

    def test_builds_no_per_state_object(self, monkeypatch, capsys):
        # The oracle path is array code from the sampled (n, 8) parameters
        # to the (n, 3) errors: it builds no state, matrix, Bloch or pair
        # object and calls none of their one-state views.
        argv = ["oracle-check", "--seed", "0", "--trials", "3"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        forbid(monkeypatch, ensemble, "sample_x_states")
        for cls in (XStateParams, DensityMatrix4, BlochForm,
                    closest.ProductPair):
            forbid(monkeypatch, cls, "__post_init__")
        forbid(monkeypatch, XStateParams, "to_matrix", "as_array")
        views = ("bloch_decompose", "x_params_to_bloch", "product_distance",
                 "geometric_discord_general")
        for module in (xqcorr, states, closest, quantifiers, cli):
            forbid(monkeypatch, module,
                   *(name for name in views if hasattr(module, name)))
        assert main(argv) == 0
        assert capsys.readouterr().out == plain


class TestCountAndSeedFlags:
    """--count, --trials, --seed, --steps and --bins are checked as they
    are parsed: exit 2, with a message that names the flag, before any file
    is written."""

    @staticmethod
    def parse_error(argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        return capsys.readouterr().err.splitlines()[-1]

    def test_count(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        for value, message in (("0", "must be >= 1, got 0"),
                               ("2.5", "invalid int value: '2.5'")):
            assert self.parse_error(
                ["sample", "--seed", "1", "--count", value, "--out",
                 str(out)], capsys) \
                == "xqcorr sample: error: argument --count: " + message
        assert not out.exists()

    def test_trials(self, capsys):
        assert self.parse_error(["oracle-check", "--trials", "0"], capsys) \
            == ("xqcorr oracle-check: error: argument --trials: "
                "must be >= 1, got 0")

    @pytest.mark.parametrize("argv", (["sample", "--count", "5", "--out"],
                                      ["oracle-check", "--trials", "2",
                                       "--out"]))
    def test_seed(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.parse_error(argv + [str(out), "--seed", "-1"], capsys) \
            == "xqcorr %s: error: argument --seed: must be >= 0, got -1" \
            % argv[0]
        assert not out.exists()


    def test_steps(self, tmp_path, capsys):
        psi = write(tmp_path, "psi.json", BELL_JSON)
        out = tmp_path / "t.csv"
        assert self.parse_error(
            ["evolve", psi, "--gamma0", "1", "--lambda", "1", "--t-max", "1",
             "--steps", "1", "--out", str(out)], capsys) \
            == "xqcorr evolve: error: argument --steps: must be >= 2, got 1"
        assert not out.exists()

    @pytest.mark.parametrize("histogram", (["--histogram", "rel_residual"],
                                           []))
    def test_bins(self, histogram, tmp_path, capsys):
        out = tmp_path / "h.csv"
        assert self.parse_error(
            ["sample", "--seed", "1", "--count", "5", *histogram,
             "--bins", "1", "--out", str(out)], capsys) \
            == "xqcorr sample: error: argument --bins: must be >= 2, got 1"
        assert not out.exists()


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

    def test_readme_plural_singular_table_names_the_package(self):
        # Every backticked name of the README's table of plural (array) and
        # singular (object) functions, less its argument list, is an
        # attribute path from the package or from one of its modules.
        readme = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                              "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        table = text.split("| stacked (arrays) | one state (objects) |\n"
                           "|---|---|\n", 1)[1].split("\n\n", 1)[0]
        rows = [line.split("|")[1:3] for line in table.splitlines()]
        names = [cell.strip().strip("`").split("(")[0]
                 for row in rows for cell in row]
        assert len(rows) >= 11 and all(names)
        pkg = os.path.dirname(xqcorr.__file__)
        roots = [xqcorr] + [importlib.import_module("xqcorr." + f[:-3])
                            for f in sorted(os.listdir(pkg))
                            if f.endswith(".py") and f != "__init__.py"]

        def resolves(name):
            for obj in roots:
                for part in name.split("."):
                    obj = getattr(obj, part, None)
                if callable(obj):
                    return True
            return False

        assert [n for n in names if not resolves(n)] == []

    def test_every_tolerance_is_imported(self):
        # A rule deleted from the package leaves no threshold behind.
        pkg = os.path.dirname(xqcorr.__file__)

        def tree(name):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                return ast.parse(fh.read())

        defined = {target.id for node in tree("tolerances.py").body
                   if isinstance(node, ast.Assign) for target in node.targets}
        imported = set()
        for name in os.listdir(pkg):
            if name.endswith(".py") and name != "tolerances.py":
                imported.update(
                    alias.name for node in ast.walk(tree(name))
                    if isinstance(node, ast.ImportFrom)
                    and node.module in ("tolerances", "xqcorr.tolerances")
                    for alias in node.names)
        assert defined and not defined - imported, defined - imported


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
        "1800a2860a6a928f9b3ea397ce14f24f85f80c6a7d12230b01c8b0cc91379537",
    "evolve-overdamped.csv":
        "6b4c0f8c53a6a6104d45706e1ea9c0cf43d777ae836001f0728b414851306a73",
    "evolve-critical.csv":
        "2c6c56cced2b446fb514b26381cecec29532e33796e49acfea95149f276e4587",
    "evolve-gamma3.csv":
        "832cd3cd949fd0dde1f911bf6a9b8e883b49912141e1b159d4946839a393f223",
    "oracle-check":
        "5bbdf60d1b254fa58bd278bf234437cc04ed98e7e09cd9edc76d15d17f8ac4c2",
    "oracle.json":
        "a5e930921bdb4848e18863abca057802d1ad9f69d1b6934d53c9e2fa3e335be6",
    # The dense X state is CASE2_JSON's, so it prints the same bytes.
    "analyze-dense-x":
        "2707e18d5647095bf325ee5f46f78a137e4e0b4563ead0aba1f2b26f64e7a63f",
    "analyze-dense-nonx":
        "dc4c142c9885d26a9d45d2a8feae1012d13c6b428729931863fea8c3dcb8d17c",
    "analyze-bell.json":
        "c1c14e53a5ae17bdcce237ac422be059e6bf62dde6d9844f3f931d9a9c1ca9da",
    "hist-l.csv":
        "1f1bb6eac8a079e674a4e560c97509260489fd0fdaf59fb6fd5756f1351a632f",
    "hist-l.csv.meta.json":
        "d0d1454b414510b48052867f17562c10029340c8e2ddd07dcc5c7d68baff5c8c",
}


# Reruns golden commands and reports their stdout digests and the OpenBLAS
# kernel in use, if this numpy build exposes its name.
_KERNEL_CHILD = """
import contextlib, ctypes, glob, hashlib, io, json, os, sys
import numpy
from xqcorr.cli import main
digests = {}
for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    digests[name] = hashlib.sha256(out.getvalue().encode()).hexdigest()
core = None
for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas64_*")):
    get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
    if get is not None:
        get.argtypes, get.restype = [], ctypes.c_char_p
        core = get().decode()
print(json.dumps({"digests": digests, "core": core}))
"""


class TestCpuIndependence:
    """Golden outputs do not depend on the CPU's BLAS kernel or on numpy's
    SIMD loops.  Each setting acts on a child process alone."""

    SETTINGS = (
        {"OPENBLAS_CORETYPE": "Haswell"},
        {"OPENBLAS_CORETYPE": "Nehalem",
         "NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"},
    )

    def test_golden_digests_under_other_kernels(self, tmp_path):
        dense = write(tmp_path, "dense-nonx.json",
                      json.dumps(state_to_json_dict(dense_state(149))))
        psi = write(tmp_path, "psi.json", FIG3_JSON)
        # Commands checked by their stdout, then by the file they write.
        printed = {
            "analyze-dense-nonx": ["analyze", dense],
            "oracle-check": ["oracle-check", "--seed", "0", "--trials", "3",
                             "--out", str(tmp_path / "oracle.json")],
        }
        written = {name: argv + ["--out", str(tmp_path / name)]
                   for name, argv in {
            "sample.csv": ["sample", "--seed", "7", "--count", "50"],
            "sample-case2.csv": ["sample", "--seed", "7", "--count", "2000",
                                 "--case", "2"],
            "evolve.csv": ["evolve", psi, "--gamma0", "1.0", "--lambda",
                           "0.01", "--t-max", "50", "--steps", "200"],
            "evolve-overdamped.csv": ["evolve", psi, "--gamma0", "1.0",
                                      "--lambda", "5", "--t-max", "20",
                                      "--steps", "200"],
        }.items()}
        files = ["oracle.json", *written]
        src = os.path.dirname(os.path.dirname(xqcorr.__file__))
        for setting in self.SETTINGS:
            for name in files:
                (tmp_path / name).unlink(missing_ok=True)
            done = subprocess.run(
                [sys.executable, "-c", _KERNEL_CHILD,
                 json.dumps({**printed, **written})],
                env=dict(os.environ, PYTHONPATH=src, **setting),
                capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            child = json.loads(done.stdout)
            assert child["core"] in (None, setting["OPENBLAS_CORETYPE"])
            digests = {name: child["digests"][name] for name in printed}
            digests.update({name: hashlib.sha256(
                (tmp_path / name).read_bytes()).hexdigest() for name in files})
            assert digests == {k: GOLDEN_SHA256[k] for k in digests}


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
        # lambda = 2*gamma0: d = 0, so P_t takes its series at every time.
        stdout_of(["evolve", psi, "--gamma0", "0.5", "--lambda", "1",
                   "--t-max", "20", "--steps", "200",
                   "--out", str(tmp_path / "evolve-critical.csv")])
        # gamma0 != 1: the grid times are divided by gamma0 before P_t.
        stdout_of(["evolve", psi, "--gamma0", "3", "--lambda", "1",
                   "--t-max", "20", "--steps", "200",
                   "--out", str(tmp_path / "evolve-gamma3.csv")])
        out["oracle-check"] = stdout_of(
            ["oracle-check", "--seed", "0", "--trials", "3",
             "--out", str(tmp_path / "oracle.json")])
        out.update(files("sample.csv", "sample.csv.meta.json",
                         "sample-case1-zero.csv", "sample-case2.csv",
                         "hist.csv", "hist.csv.meta.json", "hist-l.csv",
                         "hist-l.csv.meta.json", "analyze-bell.json",
                         "evolve.csv", "evolve-overdamped.csv",
                         "evolve-critical.csv", "evolve-gamma3.csv",
                         "oracle.json"))
        cases = {line.rsplit(",", 1)[1] for line in
                 out["evolve.csv"].decode().split("\n")[1:-1]}
        assert cases == {"1", "2"}
        digests = {k: hashlib.sha256(v).hexdigest() for k, v in out.items()}
        assert digests == GOLDEN_SHA256
