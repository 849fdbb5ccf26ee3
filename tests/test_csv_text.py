"""The array formatter of the CSV outputs against Python's % format.

``quantifiers.csv_text`` prints every float field as ``CSV_FLOAT % v`` from
17 digits that ``_kernels.decimal_digits`` forms by array arithmetic; these
tests compare it with the % format byte for byte on families of values
chosen for the ways such digits go wrong: random bit patterns, powers of
ten and their neighbours, exact rounding ties, integers and dyadic values.
"""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

import xqcorr
from xqcorr import _kernels
from xqcorr.quantifiers import CSV_FLOAT, csv_text

POWERS = 10.0 ** np.arange(-300, 300)


def exact_ties(rng, count):
    """Floats whose 17-digit rounding is an exact tie: x = m / 2^(17 - E)
    with odd m and x in [10^E, 10^(E+1)), so x 10^(16 - E) = m 5^(16 - E)
    / 2.  First odd m / 4 with m in [4e15, 8e15] (E = 15), then the same
    for E = -4 .. 14."""
    m = 2 * rng.integers(2 * 10 ** 15, 4 * 10 ** 15, count // 2) + 1
    ties = [m / 4.0]
    per_e = count // 2 // 19 + 1
    for e in range(-4, 15):
        scale = 2.0 ** (17 - e)
        lo, hi = 10.0 ** e * scale, min(10.0 ** (e + 1) * scale, 2.0 ** 53)
        m = 2 * rng.integers(int(lo) // 2 + 1, int(hi) // 2, per_e) + 1
        ties.append(m / scale)
    return np.concatenate(ties)[:count]


def families():
    rng = np.random.default_rng(33)
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                        150000, dtype=np.int64, endpoint=True)
    return {
        "bits": bits.view(np.float64),
        "powers": np.concatenate([POWERS, np.nextafter(POWERS, 0.0),
                                  np.nextafter(POWERS, np.inf)]),
        "ties": exact_ties(rng, 200000),
        "integers": np.concatenate([
            rng.integers(-10 ** 17, 10 ** 17, 100000, endpoint=True),
            np.arange(-50000, 50000)]).astype(np.float64),
        "dyadic": np.arange(0, 2 ** 20, 7) / 2.0 ** 20,
        "uniform": rng.random(100000) * rng.choice([-1.0, 1.0, 1e-3, 1e5],
                                                   100000),
        "log-uniform": 10.0 ** rng.uniform(-101.0, 101.0, 200000),
        "special": np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                             -5e-324, np.finfo(np.float64).max,
                             -np.finfo(np.float64).max,
                             np.finfo(np.float64).tiny]),
    }


def percent_text(columns):
    """The rows of ``columns`` by the % format, as csv_text should print
    them: floats by CSV_FLOAT, integers by %d."""
    fmt = ",".join(CSV_FLOAT if c.dtype.kind == "f" else "%d"
                   for c in columns)
    rows = zip(*(c.tolist() for c in columns))
    return "".join(fmt % row + "\n" for row in rows)


def test_families_match_the_percent_format():
    values = np.concatenate(list(families().values()))
    assert values.size >= 10 ** 6
    columns = list(values[:values.size // 8 * 8].reshape(-1, 8).T)
    assert csv_text(columns).encode() == percent_text(columns).encode()
    tail = values[values.size // 8 * 8:]
    assert csv_text([tail]) == percent_text([tail])


def test_exact_ties_are_undecided():
    ties = exact_ties(np.random.default_rng(34), 200000)
    _, _, undecided = _kernels.decimal_digits(ties)
    assert undecided.all()


def test_exponent_guess_only_picks_the_table_row():
    # Next to each power of ten a guess one off either way gives the same
    # digits and exponent, so no printed digit rests on log10's last bit.
    x = np.concatenate([POWERS, np.nextafter(POWERS, 0.0),
                        np.nextafter(POWERS, np.inf)])
    x = x[(x >= _kernels.DIGITS_MIN) & (x < _kernels.DIGITS_MAX)]
    d, e, undecided = _kernels.decimal_digits(x)
    guess = np.floor(np.log10(x))
    for shift in (-1, 1):
        moved = _kernels.decimal_digits(x, guess + shift)
        assert np.array_equal(moved[0], d) and np.array_equal(moved[1], e)
    assert (d >= 10 ** 16).all() and (d < 10 ** 17).all()
    # The one undecided value, 999999999999999.875, is an exact tie.
    assert x[undecided].tolist() == [999999999999999.875]
    assert np.array_equal(d[~undecided], [
        int(("%.16e" % v).split("e")[0].replace(".", ""))
        for v in x[~undecided]])


def test_integer_columns():
    ints = np.array([0, 1, 9, 10, 4096, 12305, 2 ** 53,
                     np.iinfo(np.int64).max])
    floats = np.linspace(-1.0, 1.0, ints.size)
    columns = [ints, floats, ints[::-1].copy()]
    assert csv_text(columns) == percent_text(columns)
    assert csv_text([ints]) == "".join("%d\n" % v for v in ints.tolist())


@pytest.mark.parametrize("rows", [1, 4095, 4096, 4097])
def test_chunks_mix_decided_undecided_and_zero_fields(rows):
    rng = np.random.default_rng(rows)
    ties = exact_ties(rng, rows)
    zeros = np.where(rng.random(rows) < 0.5, 0.0, -0.0)
    mixed = rng.choice(np.concatenate([ties, zeros, rng.random(rows)]),
                       rows)
    columns = [np.arange(rows), rng.random(rows), ties, zeros, mixed,
               rng.integers(1, 3, rows)]
    assert _kernels.decimal_digits(ties)[2].all()
    assert csv_text(columns) == percent_text(columns)


def test_tables_are_built_on_first_use():
    # Importing the CLI builds neither table; a first csv_text builds both.
    src = os.path.dirname(os.path.dirname(xqcorr.__file__))
    code = ("import numpy as np, xqcorr.cli\n"
            "from xqcorr import _kernels, quantifiers as q\n"
            "print(_kernels._pow10 is None, q._tables is None)\n"
            "q.csv_text([np.array([0.5])])\n"
            "print(_kernels._pow10 is None, q._tables is None)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=60)
    assert done.stdout == "True True\nFalse False\n", done.stderr


def test_first_calls_import_nothing():
    # A module that numpy imports on first use (np.unique's numpy.ma takes
    # about 10 ms) would be paid by every run that formats once, as the
    # histogram does, and by every evolve run through P_t.
    src = os.path.dirname(os.path.dirname(xqcorr.__file__))
    code = ("import sys, numpy as np, xqcorr.cli\n"
            "from xqcorr import _kernels, quantifiers as q\n"
            "before = set(sys.modules)\n"
            "q.csv_text([np.array([0.5, 12.5, 1e300, 0.0]), np.arange(4),\n"
            "            np.arange(4) < 2])\n"
            "for lam in (0.01, 1.0, 2.0, 5.0):\n"
            "    _kernels.pt_values(np.linspace(0.0, 5.0, 9), 0.5, lam)\n"
            "print(sorted(set(sys.modules) - before))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=60)
    assert done.stdout == "[]\n", done.stderr


def test_other_dtypes_print_as_the_percent_format():
    # A bool column prints 1 and 0 as "%d" does, not True and False; a
    # float32 or float16 column prints its values as floats, with no
    # overflow warning at the DIGITS_MAX compare.
    rng = np.random.default_rng(35)
    rows = 5000
    columns = [rng.random(rows) < 0.5,
               (10.0 ** rng.uniform(-40, 38, rows)).astype(np.float32),
               (rng.standard_normal(rows) * 1e4).astype(np.float16),
               rng.integers(0, 2 ** 64, rows, dtype=np.uint64),
               rng.integers(-128, 128, rows, dtype=np.int8),
               np.array([True, False] * (rows // 2))[::-1],
               # Integers at 2^53 and past it, where float64 rounds.
               np.array([-2 ** 53, 2 ** 53, 0, -7] * (rows // 4)),
               np.array([2 ** 53 + 1, -2 ** 53 - 1] * (rows // 2))]
    assert csv_text(columns) == percent_text(columns)
    assert csv_text([np.array([True, False])]) == "1\n0\n"


@pytest.mark.parametrize("column", [
    np.zeros(3, np.complex128), np.array(["a", "b", "c"]),
    np.array([1.5, None, 2.0], object), np.zeros(3, "datetime64[s]"),
    # A long double wider than float64, where the platform has one.
    *([np.zeros(3, np.longdouble)]
      if np.finfo(np.longdouble).nmant > 52 else [])],
    ids=lambda c: str(c.dtype))
def test_columns_it_cannot_print_are_a_type_error(column):
    with pytest.raises(TypeError, match=re.escape(str(column.dtype))):
        csv_text([np.ones(3), column])
