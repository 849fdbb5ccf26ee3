"""End-to-end benchmark of the xqcorr command line, one workload per command.

    python3 perfbench/run.py --workload ensemble-csv --seed 1 --seconds 20
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 20 --trace 1

Run from the root of a source checkout; the package is imported from
``src/`` (it need not be installed).  Each invocation is one CLI command in
a fresh child interpreter (:mod:`child`), one at a time: a closed loop with
a single client, as a batch tool is used.  Each invocation gets a program
seed derived from ``--seed``, except that the second repeats the first's
arguments and must reproduce its outputs byte for byte.  Every
invocation's outputs are checked (:mod:`checks`); a nonzero exit or a
failed check counts as failed.

With ``--trace 0`` the end-to-end metrics are reported, each the median
over the run's invocations.  With ``--trace 1`` invocations come in pairs
of a traced one, under the span tracer of :mod:`spans`, and an untraced
twin with the same arguments and outputs; the per-layer metrics are
reported instead: counts from the first pair, times as medians, the
import-time breakdown from ``python -X importtime`` and the tracing
overhead against the untraced twins.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric with its unit and sample count, ``failed_frac`` and the run's
provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata

import numpy as np

import spans
from workloads import WORKLOADS, derive_seed

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
INVOCATION_LIMIT_S = 150.0   # a hung child is killed after this long
SETUP_PROBES = 3             # import-only children per run
MIN_INVOCATIONS = 2

END_TO_END = (("items_per_s", "1/s"), ("wall_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
SETUP_METRICS = (("setup.numpy_s", "s"), ("setup.scipy_s", "s"),
                 ("setup.xqcorr_s", "s"), ("setup.scipy_loaded", "count"))
PROCESS_METRICS = (("process.cpu_s", "s"), ("trace.overhead_frac", "ratio"),
                   ("cli.bytes_out", "bytes"))
PER_LAYER = spans.TRACE_METRICS + SETUP_METRICS + PROCESS_METRICS


class BenchError(Exception):
    """The program could not be run at all; no result is printed."""


@dataclass
class Invocation:
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    traced: bool = False
    setup_s: float | None = None
    run_s: float | None = None
    trace: dict | None = None
    bytes_out: int = 0
    digest: str = ""
    problems: list = field(default_factory=list)


class Bench:
    """One benchmark run in a checkout rooted at ``root``."""

    def __init__(self, root, work):
        self.root = root
        self.work = work
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def spawn(self, args, stdout_path, stderr_path):
        """Run ``python3 ARGS`` to completion; time it with wait4."""
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.root,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(INVOCATION_LIMIT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Invocation(rc=proc.returncode, wall_s=wall,
                          cpu_s=usage.ru_utime + usage.ru_stime,
                          peak_rss_mb=usage.ru_maxrss / 1024.0)

    def _paths(self, *names):
        return [os.path.join(self.work, n) for n in names]

    def check_importable(self):
        """Import the package once (warming bytecode); return its backend."""
        out, err = self._paths("import.out", "import.err")
        code = ("import json, xqcorr, xqcorr.cli; "
                "print(json.dumps(getattr(xqcorr, 'BACKEND', None)))")
        inv = self.spawn(["-c", code], out, err)
        if inv.rc != 0:
            raise BenchError("cannot import xqcorr.cli from src/: "
                             + _tail(err))
        with open(out, encoding="utf-8") as fh:
            return json.loads(fh.read())

    def setup_probe(self):
        result, out, err = self._paths("probe.json", "probe.out", "probe.err")
        inv = self.spawn([CHILD, result, "0"], out, err)
        if inv.rc != 0:
            raise BenchError("import probe failed: " + _tail(err))
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)["setup_s"]

    def importtime_probe(self):
        """Self import time per top-level package, from -X importtime."""
        out, err = self._paths("importtime.out", "importtime.err")
        inv = self.spawn(["-X", "importtime", "-c", "import xqcorr.cli"],
                         out, err)
        if inv.rc != 0:
            raise BenchError("import probe failed: " + _tail(err))
        with open(err, encoding="utf-8") as fh:
            return parse_importtime(fh.read())

    def invoke(self, workload, seed, traced):
        """One CLI invocation in a fresh child, with its outputs checked."""
        inv_dir = os.path.join(self.work, "inv")
        shutil.rmtree(inv_dir, ignore_errors=True)
        os.makedirs(inv_dir)
        argv = workload.make_argv(inv_dir, seed)
        result_path, err = self._paths("result.json", "child.err")
        out = os.path.join(inv_dir, "stdout.txt")
        if os.path.exists(result_path):
            os.remove(result_path)
        inv = self.spawn([CHILD, result_path, "1" if traced else "0", *argv],
                         out, err)
        inv.traced = traced
        try:
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
        except (OSError, ValueError):
            inv.problems.append("child exited %d without a result: %s"
                                % (inv.rc, _tail(err)))
            return inv
        inv.setup_s, inv.run_s = result["setup_s"], result["run_s"]
        inv.trace = result.get("trace")
        with open(out, encoding="utf-8") as fh:
            stdout = fh.read()
        inv.problems.extend(workload.check(inv_dir, stdout, inv.rc))
        digest = hashlib.sha256()
        for name in ("stdout.txt",) + workload.outputs:
            path = os.path.join(inv_dir, name)
            if not os.path.exists(path):
                inv.problems.append("missing output " + name)
                continue
            with open(path, "rb") as fh:
                data = fh.read()
            digest.update(data)
            inv.bytes_out += len(data)
        inv.digest = digest.hexdigest()
        return inv

    def run(self, workload, seed, seconds, trace):
        """Invocations one after another until ``seconds`` have passed.

        Invocation 1 repeats the arguments of invocation 0 and must give
        byte-identical outputs; later ones each get a new derived seed.
        When tracing, every pair is a traced invocation followed by its
        untraced twin.
        """
        invocations = []
        start = time.perf_counter()
        while (len(invocations) < MIN_INVOCATIONS
               or (trace and len(invocations) % 2)
               or time.perf_counter() - start < seconds):
            index = len(invocations)
            if trace:
                seed_index, twin = index // 2, index % 2 == 1
            else:
                seed_index, twin = max(index - 1, 0), index == 1
            program_seed = derive_seed(seed, seed_index)
            inv = self.invoke(workload, program_seed,
                              traced=trace and not twin)
            if twin and inv.digest != invocations[-1].digest:
                inv.problems.append(
                    "outputs differ from the previous invocation with the "
                    "same arguments")
            invocations.append(inv)
            print("%s #%d seed=%d traced=%d rc=%d run_s=%s wall_s=%.4f "
                  "cpu_s=%.4f rss_mb=%.1f" % (
                      workload.name, index, program_seed, inv.traced,
                      inv.rc, inv.run_s, inv.wall_s, inv.cpu_s,
                      inv.peak_rss_mb), file=sys.stderr)
        return invocations


def _tail(path, lines=5):
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return " | ".join(fh.read().strip().splitlines()[-lines:])
    except OSError:
        return ""


def parse_importtime(text):
    """setup.* metrics from ``python -X importtime`` output on stderr."""
    self_us = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        own, _, name = line[len("import time:"):].split("|")
        if not own.strip().isdigit():
            continue  # the column header line
        package = name.strip().split(".")[0]
        self_us[package] = self_us.get(package, 0) + int(own)
    return {"setup.numpy_s": self_us.get("numpy", 0) / 1e6,
            "setup.scipy_s": self_us.get("scipy", 0) / 1e6,
            "setup.xqcorr_s": self_us.get("xqcorr", 0) / 1e6,
            "setup.scipy_loaded": int("scipy" in self_us)}


def end_to_end_metrics(workload, invocations, setups):
    ran = [inv for inv in invocations if inv.run_s is not None]
    samples = {
        "items_per_s": [workload.items / inv.run_s for inv in ran],
        "wall_s": [inv.wall_s for inv in ran],
        "setup_s": setups + [inv.setup_s for inv in ran],
        "peak_rss_mb": [inv.peak_rss_mb for inv in ran],
    }
    return {name: (statistics.median(samples[name]), unit, len(samples[name]))
            for name, unit in END_TO_END}


def per_layer_metrics(invocations, importtimes):
    ran = [inv for inv in invocations if inv.run_s is not None]
    traced = [inv for inv in ran if inv.trace is not None]
    plain = [inv for inv in ran if not inv.traced]
    if not traced or not plain:
        raise BenchError("no traced and untraced invocation finished")
    layers = [spans.layer_metrics(inv.trace) for inv in traced]
    out = {}
    for name, unit in spans.TRACE_METRICS:
        if unit == "s":
            out[name] = (statistics.median(m[name] for m in layers), unit,
                         len(layers))
        else:  # a count of the first pair, which the seed fixes
            out[name] = (layers[0][name], unit, 1)
    for name, unit in SETUP_METRICS:
        out[name] = (statistics.median(t[name] for t in importtimes), unit,
                     len(importtimes))
    traced_run = statistics.median(inv.run_s for inv in traced)
    plain_run = statistics.median(inv.run_s for inv in plain)
    out["process.cpu_s"] = (statistics.median(inv.cpu_s for inv in plain),
                            "s", len(plain))
    out["trace.overhead_frac"] = (traced_run / plain_run - 1.0, "ratio",
                                  len(traced))
    out["cli.bytes_out"] = (ran[0].bytes_out, "bytes", 1)
    return out


def calibration_s(repeats=5):
    """Median time of a fixed pure-Python loop: how fast the machine is now.

    Recorded with the provenance so that a drift of a shared machine's
    speed can be told apart from a change of the program.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def provenance(root, seed, backend):
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "xqcorr_backend": backend,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "calibration_s_start": calibration_s(),
        "git_commit": commit,
        "seed": seed,
    }


def run_workload(bench, workload, seed, seconds, trace):
    """Run one workload; print its metrics and return them."""
    setups, importtimes = [], []
    for _ in range(SETUP_PROBES):
        if trace:
            importtimes.append(bench.importtime_probe())
        else:
            setups.append(bench.setup_probe())
    invocations = bench.run(workload, seed, seconds, trace)
    if all(inv.run_s is None for inv in invocations):
        raise BenchError("no invocation of %s finished: %s"
                         % (workload.name, invocations[0].problems))
    failed = sum(1 for inv in invocations if inv.problems)
    for inv in invocations:
        for problem in inv.problems:
            print("FAILED %s: %s" % (workload.name, problem), file=sys.stderr)
    metrics = (per_layer_metrics(invocations, importtimes) if trace
               else end_to_end_metrics(workload, invocations, setups))
    for name, (value, unit, n) in metrics.items():
        print("%-14s %-48s %14.6g %-6s n=%d"
              % (workload.name, name, value, unit, n))
    print("%-14s %-48s %14.6g %-6s n=%d"
          % (workload.name, "failed_frac", failed / len(invocations),
             "ratio", len(invocations)))
    return len(invocations), failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "xqcorr", "cli.py")):
        print("error: run from the root of an xqcorr checkout "
              "(src/xqcorr/cli.py not found)", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    scratch = os.path.join(root, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(dir=scratch)
    try:
        bench = Bench(root, work)
        prov = provenance(root, args.seed, bench.check_importable())
        attempted = failed = 0
        metrics = {}
        for name in names:
            n, bad, found = run_workload(bench, WORKLOADS[name], args.seed,
                                         args.seconds, bool(args.trace))
            attempted += n
            failed += bad
            prefix = "" if len(names) == 1 else name + "."
            metrics.update({prefix + k: {"value": v, "unit": u}
                            for k, (v, u, _) in found.items()})
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    prov["loadavg_end"] = list(os.getloadavg())
    prov["calibration_s_end"] = calibration_s()
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
