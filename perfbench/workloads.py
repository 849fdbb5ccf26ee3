"""The four benchmark workloads: one xqcorr CLI command each.

A workload turns a derived seed into the command's arguments (writing any
input file it needs), states how many work items one invocation finishes,
and checks the invocation's outputs with :mod:`checks`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks


@dataclass(frozen=True)
class Workload:
    name: str
    items: int                 # work items one invocation finishes
    outputs: tuple             # files whose bytes must repeat for equal args
    make_argv: Callable        # (work dir, derived seed) -> CLI argv
    check: Callable            # (work dir, stdout text, exit code) -> problems


def derive_seed(seed, index):
    """The program seed of the index-th distinct invocation of a run."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


CSV_COUNT = 10000
HIST_COUNT = 40000
TRAJ_STEPS = 10000
ORACLE_TRIALS = 10


def _csv_argv(work, seed):
    return ["sample", "--seed", str(seed), "--count", str(CSV_COUNT),
            "--out", os.path.join(work, "states.csv")]


def _csv_check(work, stdout, rc):
    if rc != 0:
        return ["sample: exit code %d" % rc]
    return checks.check_sample_csv(_read(os.path.join(work, "states.csv")),
                                   CSV_COUNT)


def _hist_argv(work, seed):
    return ["sample", "--seed", str(seed), "--count", str(HIST_COUNT),
            "--case", "2", "--histogram", "rel_residual",
            "--out", os.path.join(work, "hist.csv")]


def _hist_check(work, stdout, rc):
    if rc != 0:
        return ["sample --histogram: exit code %d" % rc]
    path = os.path.join(work, "hist.csv")
    return checks.check_histogram(_read(path), _read(path + ".meta.json"),
                                  HIST_COUNT)


# The trajectory starts near this case-2 diagonal; a narrow family keeps
# the share of case-1 points, and so the work per point, alike across seeds.
TRAJ_DIAGONAL = np.array([0.35, 0.1, 0.1, 0.45])
TRAJ_CONCENTRATION = 2000.0


def case2_state(seed):
    """A case-2 X state (k1 > k3) near a fixed one, as a state-file document.

    Damping drives every state towards |00>, which is case 1, so the
    trajectory of a case-2 start crosses the k1 = k3 boundary.
    """
    rng = np.random.default_rng(seed)
    while True:
        diag = rng.dirichlet(TRAJ_CONCENTRATION * TRAJ_DIAGONAL)
        frac = rng.uniform(0.85, 0.95, 2)
        r14 = frac[0] * np.sqrt(diag[0] * diag[3])
        r23 = frac[1] * np.sqrt(diag[1] * diag[2])
        k1 = 4.0 * (r14 + r23) ** 2
        k3 = 2.0 * ((diag[0] - diag[2]) ** 2 + (diag[1] - diag[3]) ** 2)
        if k1 > k3:
            break
    gamma = rng.uniform(0.0, 2.0 * np.pi, 2)
    values = (*diag, r14, r23, *gamma)
    keys = ("rho11", "rho22", "rho33", "rho44", "rho14", "rho23",
            "gamma14", "gamma23")
    return {"kind": "x", **{k: float(v) for k, v in zip(keys, values)}}


def _traj_argv(work, seed):
    state = os.path.join(work, "state.json")
    with open(state, "w", encoding="utf-8") as fh:
        json.dump(case2_state(seed), fh)
    return ["evolve", state, "--gamma0", "1", "--lambda", "0.01",
            "--t-max", "50", "--steps", str(TRAJ_STEPS),
            "--out", os.path.join(work, "trajectory.csv")]


def _traj_check(work, stdout, rc):
    if rc != 0:
        return ["evolve: exit code %d" % rc]
    return checks.check_trajectory(
        _read(os.path.join(work, "trajectory.csv")), TRAJ_STEPS)


def _oracle_argv(work, seed):
    return ["oracle-check", "--trials", str(ORACLE_TRIALS),
            "--seed", str(seed)]


def _oracle_check(work, stdout, rc):
    return checks.check_oracle(stdout, rc)


# Why each workload is in the benchmark: see "workloads" in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("ensemble-csv", CSV_COUNT,
             ("states.csv", "states.csv.meta.json"), _csv_argv, _csv_check),
    Workload("ensemble-hist", HIST_COUNT,
             ("hist.csv", "hist.csv.meta.json"), _hist_argv, _hist_check),
    Workload("trajectory", TRAJ_STEPS,
             ("trajectory.csv",), _traj_argv, _traj_check),
    Workload("oracle-check", ORACLE_TRIALS,
             (), _oracle_argv, _oracle_check),
)}
