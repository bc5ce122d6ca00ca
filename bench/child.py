"""One workload pass in a fresh interpreter.

Usage: python3 bench/child.py SPEC.json RESULT.json

SPEC holds ``{"calls": [[argv...], ...], "trace": bool}``.  The pass times
``import twrelay.cli`` (set-up), optionally installs the tracer, runs every
call through ``twrelay.cli.main`` in order, and writes the timings, exit
codes, peak RSS and trace to RESULT.  Nothing heavier than the standard
library is imported before the timed import.

Around each timed region the pass also times a fixed pure-Python loop
(``reference_s``), so run.py can scale the region to a fixed CPU speed.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def reference_s() -> float:
    """Fastest of three runs of a fixed loop: the CPU's speed right now."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    ref_before_import = reference_s()
    start = time.perf_counter()
    import twrelay.cli as cli

    setup_s = time.perf_counter() - start
    ref_before_calls = reference_s()

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    calls = []
    sink = io.StringIO()
    pass_start = time.perf_counter()
    for argv in spec["calls"]:
        call_start = time.perf_counter()
        error = None
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed call; keep the pass going
            rc = -1
            error = traceback.format_exc()
        calls.append({
            "argv": argv, "rc": rc, "wall_s": time.perf_counter() - call_start,
            "error": error,
        })
    wall_s = time.perf_counter() - pass_start
    ref_after_calls = reference_s()

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ref_s": [ref_before_import, ref_before_calls, ref_after_calls],
        "calls": calls,
        # ru_maxrss is in KiB on Linux; children are the MC pool workers.
        "maxrss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "maxrss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "trace": tracer.report() if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
