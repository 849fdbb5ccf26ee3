"""Correctness checks on the outputs of one xqcorr CLI invocation.

Each checker returns a list of problems; an empty list means the output
passed.  The checks recompute what they can with their own numpy code and
never import xqcorr.
"""

from __future__ import annotations

import io
import json

import numpy as np

# Slack on identities that hold exactly in real arithmetic.
SIGN_SLACK = 1e-12
DG_SLACK = 1e-10
TRACE_SLACK = 1e-12

SAMPLE_HEADER = ("index,rho11,rho22,rho33,rho44,rho14,rho23,gamma14,gamma23,"
                 "case,k1,k2,k3,tg,dg,cg,lg,res,res_l,a3,b3,boundary")
TRAJECTORY_HEADER = "t,rho11,rho22,rho33,rho44,rho14,rho23,k1,k3,tg,dg,cg,lg,case"

_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_ID2 = np.eye(2)


def _table(text, header):
    """Parse a CSV with a known header into {column: array}, or raise."""
    first, _, body = text.partition("\n")
    if first != header:
        raise ValueError("unexpected header %r" % first)
    names = header.split(",")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if data.size and data.shape[1] != len(names):
        raise ValueError("rows have %d columns, header %d"
                         % (data.shape[1], len(names)))
    data = data.reshape(-1, len(names))
    return {name: data[:, i] for i, name in enumerate(names)}


def discord_from_params(cols):
    """Geometric discord 1/4 (|x|^2 + |T|^2 - k_max) of X-state rows.

    Builds each density matrix in the basis {|11>, |10>, |01>, |00>} and
    takes its Pauli traces, independently of xqcorr's closed forms.
    """
    n = cols["rho11"].size
    rho = np.zeros((n, 4, 4), dtype=complex)
    for i, key in enumerate(("rho11", "rho22", "rho33", "rho44")):
        rho[:, i, i] = cols[key]
    c14 = cols["rho14"] * np.exp(1j * cols["gamma14"])
    c23 = cols["rho23"] * np.exp(1j * cols["gamma23"])
    rho[:, 0, 3], rho[:, 3, 0] = c14, c14.conj()
    rho[:, 1, 2], rho[:, 2, 1] = c23, c23.conj()
    local = np.array([np.kron(p, _ID2) for p in _PAULI])
    corr = np.array([[np.kron(p, q) for q in _PAULI] for p in _PAULI])
    x = np.einsum("nab,iba->ni", rho, local).real
    T = np.einsum("nab,ijba->nij", rho, corr).real
    K = np.einsum("ni,nj->nij", x, x) + T @ np.transpose(T, (0, 2, 1))
    kmax = np.linalg.eigvalsh(K)[:, -1]
    return 0.25 * (np.sum(x * x, axis=1) + np.sum(T * T, axis=(1, 2)) - kmax)


def check_sample_csv(text, count):
    """`xqcorr sample` state rows: size, discord, signs, closure law."""
    try:
        c = _table(text, SAMPLE_HEADER)
    except ValueError as exc:
        return ["sample csv: %s" % exc]
    problems = []
    n = c["index"].size
    if n != count:
        problems.append("sample csv: %d rows, expected %d" % (n, count))
    if n == 0:
        return problems
    err = np.abs(discord_from_params(c) - c["dg"])
    if err.max() > DG_SLACK:
        problems.append("sample csv: dg differs from recomputed discord by "
                        "%.3e at row %d" % (err.max(), int(err.argmax())))
    for key in ("tg", "dg", "cg", "lg"):
        if c[key].min() < 0.0:
            problems.append("sample csv: negative %s %.3e"
                            % (key, c[key].min()))
    case1 = c["case"] == 1
    case2 = c["case"] == 2
    if not np.all(case1 | case2):
        problems.append("sample csv: case column outside {1, 2}")
    if np.any(c["lg"][case1] != 0.0) or np.any(
            np.abs(c["res"][case1]) > SIGN_SLACK):
        problems.append("sample csv: case 1 row with nonzero res or lg")
    if np.any(c["res"][case2] > SIGN_SLACK):
        problems.append("sample csv: case 2 row with res > 0")
    if np.any(c["res_l"][case2] < -SIGN_SLACK):
        problems.append("sample csv: case 2 row with res_l < 0")
    return problems


def check_histogram(csv_text, meta_text, count):
    """`xqcorr sample --histogram` output: every state accounted for."""
    try:
        meta = json.loads(meta_text)
        bins = np.loadtxt(io.StringIO(csv_text.partition("\n")[2]),
                          delimiter=",", ndmin=2)
        accounted = (meta["total_binned"] + meta["dropped_zero_tg"]
                     + meta["underflow"] + meta["overflow"])
        overflow = meta["overflow"]
        total = meta["total_binned"]
    except (ValueError, KeyError, TypeError) as exc:
        return ["histogram: unreadable output (%s)" % exc]
    problems = []
    if accounted != count:
        problems.append("histogram: %d states accounted for, expected %d"
                        % (accounted, count))
    if overflow != 0:
        problems.append("histogram: overflow %d" % overflow)
    if bins.shape[0] == 0 or int(bins[:, 2].sum()) != total:
        problems.append("histogram: bin counts do not sum to total_binned")
    return problems


def check_trajectory(text, steps):
    """`xqcorr evolve` output: one row per step, unit trace, both cases."""
    try:
        c = _table(text, TRAJECTORY_HEADER)
    except ValueError as exc:
        return ["trajectory: %s" % exc]
    problems = []
    if c["t"].size != steps:
        problems.append("trajectory: %d rows, expected %d"
                        % (c["t"].size, steps))
    trace = c["rho11"] + c["rho22"] + c["rho33"] + c["rho44"]
    if c["t"].size and np.abs(trace - 1.0).max() > TRACE_SLACK:
        problems.append("trajectory: diagonal sum off 1 by %.3e"
                        % np.abs(trace - 1.0).max())
    if not (np.any(c["case"] == 1) and np.any(c["case"] == 2)):
        problems.append("trajectory: does not visit both cases")
    return problems


def check_oracle(stdout_text, returncode):
    """`xqcorr oracle-check`: exit 0 and all three comparisons ok."""
    problems = []
    if returncode != 0:
        problems.append("oracle-check: exit code %d" % returncode)
    rows = stdout_text.splitlines()[1:]
    if len(rows) != 3 or not all(r.rstrip().endswith(" ok") for r in rows):
        problems.append("oracle-check: not all three rows ok")
    return problems
