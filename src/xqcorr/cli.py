"""Command-line interface: analyze / sample / evolve / oracle-check.

Exit codes: 0 success, 2 parse or argument error, 3 invalid state,
4 numerical failure (solver breakdown or oracle mismatch).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .closest import check_report_rows, x_report_rows
from .dynamics import DynamicsConfig, trajectory, write_trajectory_csv
from .ensemble import (
    HistogramSpec,
    PhaseMode,
    Quantity,
    SamplerConfig,
    run_histogram,
    sample_x_arrays,
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
    geometric_discord_general,
    oracle_errors,
    quantifiers_x,
    write_text,
)
from .states import (
    DensityMatrix4,
    XStateParams,
    bloch_decompose,
    load_state_file,
    matrix_to_x_params,
)
from .tolerances import ORACLE_DISCORD, ORACLE_DISTANCE, ORACLE_TRANSVERSE

# The index and the eight parameters that start each row of a sample CSV.
_SAMPLE_CSV_PREFIX = ",".join(["%d"] + [CSV_FLOAT] * 8 + [""])

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
  gamma fields default to 0; NaN/Infinity are rejected.

exit codes:
  0 ok, 2 parse error, 3 invalid state, 4 numerical failure.
"""


def _cmd_analyze(args) -> int:
    state = load_state_file(args.state_file)
    if isinstance(state, DensityMatrix4):
        try:
            state = matrix_to_x_params(state)
        except NotAnXStateError:
            bloch = bloch_decompose(state)
            doc = {
                "dg": geometric_discord_general(bloch),
                "note": "input is not an X state; only the geometric "
                        "discord closed form applies",
            }
            write_text(args.out, json.dumps(doc, indent=2) + "\n")
            return EXIT_OK
    doc = quantifiers_x(state).to_json_dict()
    write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def _cmd_sample(args) -> int:
    cfg = SamplerConfig(seed=args.seed, count=args.count,
                        case_filter=args.case, phase_mode=args.phase_mode)
    if args.histogram is not None:
        quantity = Quantity(args.histogram)
        if args.range is not None:
            lo, hi = args.range
            spec = HistogramSpec(args.bins, lo, hi, quantity)
        else:
            spec = HistogramSpec.default_for(quantity, args.bins)
        result = run_histogram(cfg, spec)
        write_histogram(result, args.out)
        return EXIT_OK

    params, _ = sample_x_arrays(cfg)
    reports = x_report_rows(params)
    check_report_rows(params, reports)
    lines = ["index,rho11,rho22,rho33,rho44,rho14,rho23,gamma14,gamma23,"
             + REPORT_CSV_HEADER]
    for i, (vals, row) in enumerate(zip(params.tolist(), reports.tolist())):
        p = XStateParams(*vals)
        lines.append(_SAMPLE_CSV_PREFIX % (
            i, p.rho11, p.rho22, p.rho33, p.rho44, p.rho14, p.rho23,
            p.gamma14, p.gamma23) + quantifiers_x(p, row=row).to_csv_row())
    write_text(args.out, "\n".join(lines) + "\n")
    write_sidecar(args.out, cfg.to_json_dict())
    return EXIT_OK


def _cmd_evolve(args) -> int:
    state = load_state_file(args.state_file)
    if isinstance(state, DensityMatrix4):
        state = matrix_to_x_params(state)
    cfg = DynamicsConfig(gamma0=args.gamma0, lam=args.lam,
                         t_max=args.t_max, steps=args.steps, initial=state)
    write_trajectory_csv(*trajectory(cfg), args.out)
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
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--case", type=int, choices=(1, 2), default=None)
    p.add_argument("--phase-mode", choices=[m.value for m in PhaseMode],
                   default=PhaseMode.FREE.value)
    p.add_argument("--histogram", choices=[q.value for q in Quantity],
                   default=None,
                   help="emit a histogram of this quantity instead of states")
    p.add_argument("--bins", type=int, default=200)
    p.add_argument("--range", type=float, nargs=2, metavar=("LO", "HI"),
                   default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("evolve", help="amplitude-damping trajectory CSV")
    p.add_argument("state_file")
    p.add_argument("--gamma0", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True,
                   help="end time in units of 1/gamma0")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("oracle-check",
                       help="cross-validate closed forms against the "
                            "numerical oracles")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_oracle_check)
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
