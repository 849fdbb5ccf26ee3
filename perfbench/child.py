"""One benchmark invocation, run in a fresh interpreter.

    python3 perfbench/child.py RESULT.json TRACE [CLI ARGS...]

Times ``import xqcorr.cli`` (setup_s), then ``cli.main(CLI ARGS)``
(run_s), writes both to RESULT.json and exits with the command's exit
code.  With TRACE=1 the spans of :mod:`spans` are recorded in memory
during the call and written to RESULT.json at exit.  With no CLI args
only the import is timed.
"""

import json
import sys
import time


def main():
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    start = time.perf_counter()
    from xqcorr import cli
    setup_s = time.perf_counter() - start

    result = {"setup_s": setup_s, "run_s": 0.0, "rc": 0}
    if argv:
        tracer = None
        if trace:
            import spans
            tracer = spans.Tracer().install()
        start = time.perf_counter()
        rc = cli.main(argv)
        result["run_s"] = time.perf_counter() - start
        result["rc"] = rc
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.dump()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main())
