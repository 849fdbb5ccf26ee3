"""In-memory span tracing of xqcorr's public functions, from outside.

A :class:`Tracer` wraps each function in :data:`TARGETS` and rebinds every
module attribute that refers to it, so that ``cli.quantifiers_x``,
``dynamics.quantifiers_x`` and ``quantifiers.quantifiers_x`` all reach the
same wrapper.  Each call appends one span ``(name, parent, start, end)`` to
a list kept in memory; a target may also add counters taken from its
arguments and result.  :func:`layer_metrics` turns the spans into the
per-layer ``<module>.<function>.<stat>`` figures.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

def _batch_reports(args, kwargs, result):
    case = result[:, sys.modules["xqcorr._kernels"].COL_CASE]
    return {"rows": args[0].shape[0],
            "failed_rows": int(np.count_nonzero(case == 0.0))}  # 0: failed


def _pt_values(args, kwargs, result):
    return {"points": args[0].shape[0]}


def _quantifiers_x(args, kwargs, result):
    return {"clamped": int(bool(result.clamped)),
            "boundary": int(result.boundary_flag)}


def _minimize(args, kwargs, result):
    return {"nfev": int(result.nfev), "nit": int(result.nit)}


def _sample_x_arrays(args, kwargs, result):
    arr, acceptance = result
    return {"rows": arr.shape[0], "acceptance_sum": float(acceptance)}


# (owning module, attribute path within it, metric prefix, counter hook).
TARGETS = (
    ("xqcorr._kernels", "batch_reports", "kernels.batch_reports",
     _batch_reports),
    ("xqcorr._kernels", "pt_values", "kernels.pt_values", _pt_values),
    ("xqcorr._kernels", "measurement_scan", "kernels.measurement_scan", None),
    ("xqcorr._kernels", "measurement_scan_np", "kernels.measurement_scan_np",
     None),
    ("xqcorr.quantifiers", "quantifiers_x", "quantifiers.quantifiers_x",
     _quantifiers_x),
    ("xqcorr.quantifiers", "CorrelationReport.to_csv_row",
     "quantifiers.CorrelationReport.to_csv_row", None),
    ("xqcorr.quantifiers", "discord_measurement_oracle",
     "quantifiers.discord_measurement_oracle", None),
    ("xqcorr.quantifiers", "geometric_discord_general",
     "quantifiers.geometric_discord_general", None),
    ("xqcorr.closest", "closest_product_x", "closest.closest_product_x", None),
    ("xqcorr.closest", "closest_classical_x", "closest.closest_classical_x",
     None),
    ("xqcorr.closest", "closest_product_of_classical_x",
     "closest.closest_product_of_classical_x", None),
    ("xqcorr.closest", "closest_product_general",
     "closest.closest_product_general", None),
    ("xqcorr.closest", "product_distance", "closest.product_distance", None),
    ("xqcorr.states", "XStateParams.__post_init__", "states.XStateParams",
     None),
    ("xqcorr.ensemble", "sample_x_arrays", "ensemble.sample_x_arrays",
     _sample_x_arrays),
    ("xqcorr.ensemble", "sample_x_states", "ensemble.sample_x_states", None),
    ("xqcorr.ensemble", "run_histogram", "ensemble.run_histogram", None),
    ("xqcorr.ensemble", "write_histogram", "ensemble.write_histogram", None),
    ("xqcorr.dynamics", "evolve", "dynamics.evolve", None),
    ("xqcorr.dynamics", "p_t", "dynamics.p_t", None),
    ("xqcorr.dynamics", "write_trajectory_csv",
     "dynamics.write_trajectory_csv", None),
    ("xqcorr.cli", "main", "cli.main", None),
    ("scipy.optimize", "minimize", "scipy.optimize.minimize", _minimize),
)

# The per-layer metrics read from a trace, as (metric name, unit).
TRACE_METRICS = (
    ("kernels.batch_reports.calls", "count"),
    ("kernels.batch_reports.rows", "count"),
    ("kernels.batch_reports.total_s", "s"),
    ("kernels.batch_reports.failed_rows", "count"),
    ("kernels.pt_values.total_s", "s"),
    ("kernels.pt_values.points", "count"),
    ("kernels.measurement_scan.calls", "count"),
    ("kernels.measurement_scan.total_s", "s"),
    ("kernels.measurement_scan_np.calls", "count"),
    ("kernels.measurement_scan_np.total_s", "s"),
    ("quantifiers.quantifiers_x.calls", "count"),
    ("quantifiers.quantifiers_x.total_s", "s"),
    ("quantifiers.quantifiers_x.self_s", "s"),
    ("quantifiers.quantifiers_x.clamped", "count"),
    ("quantifiers.quantifiers_x.boundary", "count"),
    ("quantifiers.CorrelationReport.to_csv_row.total_s", "s"),
    ("closest.closest_product_x.calls", "count"),
    ("closest.closest_product_x.total_s", "s"),
    ("closest.closest_classical_x.total_s", "s"),
    ("closest.closest_product_of_classical_x.self_s", "s"),
    ("states.XStateParams.calls", "count"),
    ("states.XStateParams.total_s", "s"),
    ("cli.main.total_s", "s"),
    ("cli.main.self_s", "s"),
    ("closest.closest_product_general.calls", "count"),
    ("closest.closest_product_general.total_s", "s"),
    ("closest.closest_product_general.self_s", "s"),
    ("scipy.optimize.minimize.calls", "count"),
    ("scipy.optimize.minimize.total_s", "s"),
    ("scipy.optimize.minimize.nfev", "count"),
    ("scipy.optimize.minimize.nit", "count"),
    ("quantifiers.discord_measurement_oracle.total_s", "s"),
    ("quantifiers.discord_measurement_oracle.self_s", "s"),
    ("quantifiers.geometric_discord_general.total_s", "s"),
    ("closest.product_distance.total_s", "s"),
    ("ensemble.sample_x_arrays.total_s", "s"),
    ("ensemble.sample_x_arrays.rows", "count"),
    ("ensemble.sample_x_arrays.acceptance_rate", "ratio"),
    ("ensemble.sample_x_states.self_s", "s"),
    ("ensemble.run_histogram.self_s", "s"),
    ("ensemble.write_histogram.total_s", "s"),
    ("dynamics.evolve.self_s", "s"),
    ("dynamics.p_t.total_s", "s"),
    ("dynamics.write_trajectory_csv.total_s", "s"),
)


def _resolve(owner, path):
    """Return (object holding the attribute, attribute name, original)."""
    *outer, attr = path.split(".")
    holder = owner
    for part in outer:
        holder = getattr(holder, part)
    return holder, attr, holder.__dict__[attr]


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names = [prefix for _, _, prefix, _ in targets]
        self.spans = []          # [name index, parent span, start, end]
        self.counts = {}         # "<prefix>.<counter>" -> summed value
        self._stack = []
        self._restore = []

    def _wrap(self, fn, name_index, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        prefix = self.names[name_index]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span] = [name_index, parent, start, end]
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    key = prefix + "." + key
                    counts[key] = counts.get(key, 0) + value
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        """Wrap every target and rebind every module attribute naming it."""
        for index, (module_name, path, _, hook) in enumerate(self.targets):
            owner = importlib.import_module(module_name)
            holder, attr, original = _resolve(owner, path)
            wrapper = self._wrap(original, index, hook)
            bindings = [(holder, attr)]
            if holder is owner:
                for name, module in list(sys.modules.items()):
                    if module is None or module is owner:
                        continue
                    if name != "xqcorr" and not name.startswith("xqcorr."):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            bindings.append((module, key))
            for obj, key in bindings:
                setattr(obj, key, wrapper)
                self._restore.append((obj, key, original))
        return self

    def uninstall(self):
        while self._restore:
            obj, key, original = self._restore.pop()
            setattr(obj, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self):
        """The trace as plain JSON-ready data."""
        return {"names": self.names, "spans": self.spans,
                "counts": self.counts}


def self_times(spans):
    """Per span: its duration minus the part its child spans cover.

    ``spans`` is a list of ``[name, parent, start, end]`` with parents
    indexed into the same list (-1 for a root).  Child intervals are
    clipped to the parent and merged, so overlapping children are not
    counted twice.
    """
    children = {}
    for s in spans:
        if s[1] >= 0:
            children.setdefault(s[1], []).append((s[2], s[3]))
    out = []
    for index, (_, _, start, end) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def aggregate(trace):
    """Sum calls, total_s and self_s per name, plus the hook counters."""
    names = trace["names"]
    spans = trace["spans"]
    calls = [0] * len(names)
    total = [0.0] * len(names)
    self_ = [0.0] * len(names)
    for s, own in zip(spans, self_times(spans)):
        calls[s[0]] += 1
        total[s[0]] += s[3] - s[2]
        self_[s[0]] += own
    out = dict(trace["counts"])
    for i, name in enumerate(names):
        out[name + ".calls"] = calls[i]
        out[name + ".total_s"] = total[i]
        out[name + ".self_s"] = self_[i]
    return out


def layer_metrics(trace):
    """The :data:`TRACE_METRICS` of one traced invocation (0 if unused)."""
    agg = aggregate(trace)
    calls = agg.get("ensemble.sample_x_arrays.calls", 0)
    agg["ensemble.sample_x_arrays.acceptance_rate"] = (
        agg.get("ensemble.sample_x_arrays.acceptance_sum", 0.0) / calls
        if calls else 0.0)
    return {name: agg.get(name, 0) for name, _ in TRACE_METRICS}
