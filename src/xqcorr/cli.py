"""Command-line interface: analyze / sample / evolve / oracle-check.

Exit codes: 0 success, 2 parse or argument error, 3 invalid state,
4 numerical failure (solver breakdown or oracle mismatch).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from . import __version__
from .closest import check_report_rows, x_report_rows
from .dynamics import DynamicsConfig, write_trajectory_csv
from .ensemble import (
    HistogramSpec,
    PhaseMode,
    Quantity,
    SamplerConfig,
    run_histogram,
    sample_x_arrays,
    sample_x_chunks,
    write_histogram,
    write_sidecar,
)
from .errors import (
    ConvergenceFailureError,
    InvalidStateError,
    NotAnXStateError,
    RejectionExhaustionError,
    SolverFailureError,
    XqcorrError,
)
from .quantifiers import (
    CSV_FLOAT,
    REPORT_CSV_HEADER,
    geometric_discords,
    oracle_errors,
    quantifiers_x,
    write_text,
)
from .states import (
    DensityMatrix4,
    XStateParams,
    bloch_components,
    load_state_file,
    matrix_to_x_params,
)
from .tolerances import ORACLE_DISCORD, ORACLE_DISTANCE, ORACLE_TRANSVERSE

# The index and the eight parameters that start each row of a sample CSV.
_SAMPLE_CSV_PREFIX = ",".join(["%d"] + [CSV_FLOAT] * 8 + [""])

# The tokens that start with "-" and that float() parses, where a digit or
# "." follows the "-": values, not options.  argparse's own pattern takes an
# exponent, as in -1e-3, for an option.
_NEGATIVE_NUMBER = re.compile(
    r"-(\d(_?\d)*(\.(\d(_?\d)*)?)?|\.\d(_?\d)*)([eE][-+]?\d(_?\d)*)?\s*$")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID_STATE = 3
EXIT_NUMERIC = 4

_EPILOG = """\
conventions:
  Basis ordering is {|11>, |10>, |01>, |00>} (excited state first); most
  libraries order |00> first, so reverse both axes of external matrices.

state file schema (JSON):
  {"kind": "x", "rho11": .., "rho22": .., "rho33": .., "rho44": ..,
   "rho14": .., "rho23": .., "gamma14": .., "gamma23": ..}
  {"kind": "dense", "re": [[4x4]], "im": [[4x4]]}
  Every entry, in both kinds of file, is a JSON number that is finite as
  a float: strings, booleans, null, NaN/Infinity and 1e400 are rejected.
  gamma fields default to 0.

exit codes:
  0 ok, 2 parse error, 3 invalid state, 4 numerical failure.
"""


def _int_at_least(low: int):
    """An argparse type: an int of at least ``low``, so that a bad value
    is a parse error that names its flag."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "invalid int value: %r" % text) from None
        if value < low:
            raise argparse.ArgumentTypeError(
                "must be >= %d, got %d" % (low, value))
        return value
    return parse


def _cmd_analyze(args) -> int:
    state = load_state_file(args.state_file)
    try:
        if isinstance(state, DensityMatrix4):
            state = matrix_to_x_params(state)
    except NotAnXStateError:
        x, _, T = bloch_components(state.matrix[None])
        doc = {"dg": float(geometric_discords(x, T)[0]),
               "note": "input is not an X state; only the geometric "
                       "discord closed form applies"}
    else:
        doc = quantifiers_x(state).to_json_dict()
    write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def _cmd_sample(args) -> int:
    binning = {key: getattr(args, key) for key in ("bin_count", "span")
               if getattr(args, key) is not None}
    if binning and args.histogram is None:
        raise ValueError("--bins and --range apply only with --histogram")
    cfg = SamplerConfig(seed=args.seed, count=args.count,
                        case_filter=args.case, phase_mode=args.phase_mode)
    if args.histogram is not None:
        spec = HistogramSpec.default_for(args.histogram, **binning)
        result = run_histogram(cfg, spec)
        write_histogram(result, args.out)
        return EXIT_OK

    write_text(args.out, _sample_lines(cfg))
    write_sidecar(args.out, cfg.to_json_dict())
    return EXIT_OK


def _sample_lines(cfg):
    """The sample CSV as texts: its header line, then each sampler chunk's
    row lines, newline-joined, once the chunk is solved and checked."""
    yield ("index,rho11,rho22,rho33,rho44,rho14,rho23,gamma14,gamma23,"
           + REPORT_CSV_HEADER + "\n")
    start = 0
    for params, _, _ in sample_x_chunks(cfg):
        reports = x_report_rows(params)
        check_report_rows(params, reports)
        lines = []
        for i, (vals, row) in enumerate(zip(params.tolist(),
                                            reports.tolist()), start):
            p = XStateParams(*vals)
            lines.append(_SAMPLE_CSV_PREFIX % (
                i, p.rho11, p.rho22, p.rho33, p.rho44, p.rho14, p.rho23,
                p.gamma14, p.gamma23) + quantifiers_x(p, row=row).to_csv_row())
        start += len(lines)
        yield "\n".join(lines) + "\n"


def _cmd_evolve(args) -> int:
    state = load_state_file(args.state_file)
    if isinstance(state, DensityMatrix4):
        state = matrix_to_x_params(state)
    cfg = DynamicsConfig(gamma0=args.gamma0, lam=args.lam,
                         t_max=args.t_max, steps=args.steps, initial=state)
    write_trajectory_csv(cfg, args.out)
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    params, _ = sample_x_arrays(SamplerConfig(seed=args.seed,
                                              count=args.trials))
    errors = oracle_errors(params, args.seed)
    max_df, max_transverse, max_dd = np.max(errors, axis=0).tolist()
    worst = np.argmax(errors, axis=0).tolist()

    rows = [
        ("closest-product distance |F_num - F_closed|", max_df,
         ORACLE_DISTANCE),
        ("closest-product transverse components", max_transverse,
         ORACLE_TRANSVERSE),
        ("measurement discord |D_meas - D_closed|", max_dd, ORACLE_DISCORD),
    ]
    ok = all(value <= bound for _, value, bound in rows)
    lines = ["oracle check over %d states (seed %d)" % (args.trials, args.seed)]
    for name, value, bound in rows:
        lines.append("  %-45s %.3e (<= %.0e) %s"
                     % (name, value, bound, "ok" if value <= bound else "FAIL"))
    write_text(None, "\n".join(lines) + "\n")
    if args.out:
        doc = {name: value for name, value, _ in rows}
        # Index (in sampling order) of the state behind each maximum.
        doc["worst_state"] = {row[0]: i for row, i in zip(rows, worst)}
        doc["trials"] = args.trials
        doc["seed"] = args.seed
        doc["ok"] = ok
        write_text(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if ok else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xqcorr",
        description="Geometric (squared Hilbert-Schmidt) correlation "
                    "quantifiers for two-qubit X states.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full correlation report of a state")
    p.add_argument("state_file")
    p.add_argument("--out", default=None, help="write JSON here (default stdout)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sample", help="random X states or residual histograms")
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--count", type=_int_at_least(1), required=True)
    p.add_argument("--case", type=int, choices=(1, 2), default=None)
    p.add_argument("--phase-mode", choices=[m.value for m in PhaseMode],
                   default=PhaseMode.FREE.value)
    p.add_argument("--histogram", choices=[q.value for q in Quantity],
                   default=None,
                   help="emit a histogram of this quantity instead of states")
    p.add_argument("--bins", dest="bin_count", type=_int_at_least(2),
                   metavar="N", default=None,
                   help="number of histogram bins; needs --histogram")
    p.add_argument("--range", dest="span", type=float, nargs=2,
                   metavar=("LO", "HI"), default=None,
                   help="histogram range, if not the quantity's default; "
                        "needs --histogram")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("evolve", help="amplitude-damping trajectory CSV")
    p.add_argument("state_file")
    p.add_argument("--gamma0", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True,
                   help="end time in units of 1/gamma0")
    p.add_argument("--steps", type=_int_at_least(2), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("oracle-check",
                       help="cross-validate closed forms against the "
                            "numerical oracles")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--trials", type=_int_at_least(1), required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_oracle_check)
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_PARSE
    except ValueError as exc:
        sys.stderr.write("parse error: %s\n" % exc)
        return EXIT_PARSE
    except InvalidStateError as exc:
        sys.stderr.write("invalid state: %s\n" % exc)
        return EXIT_INVALID_STATE
    except (SolverFailureError, ConvergenceFailureError,
            RejectionExhaustionError) as exc:
        sys.stderr.write("numerical failure: %s\n" % exc)
        return EXIT_NUMERIC
    except XqcorrError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
