"""Run one CLI operation in a fresh interpreter and report how it went.

Usage: python3 worker.py SRC_DIR TRACE

The worker imports `polyillum.cli` from SRC_DIR (installing the tracer
first when TRACE is 1), writes "ready" on a line of its own, then reads
one JSON line holding the operation's argv.  It times
`polyillum.cli.run_command(argv)` from the call until the JSON payload has
been written (to a buffer) and prints one JSON line with the exit code,
the payload text, the time, the calibration time, its own peak resident
set size and, when tracing, the per-layer aggregates.  A fresh
interpreter per operation means no cache of an earlier operation can
serve this one, as for a user of the CLI.
"""

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction


def calibrate() -> float:
    """Seconds taken by a fixed loop of Fraction additions, the kind of
    work the program does most.  The garbage collector is off meanwhile,
    so no setting the program makes can change the loop's cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(4):
            total = Fraction(0)
            for i in range(1, 1500):
                total += Fraction(1, i)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def main() -> int:
    src, trace = sys.argv[1], sys.argv[2] == "1"
    sys.path.insert(0, src)
    import polyillum.cli as cli
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    line = sys.stdin.readline()
    if not line:
        return 0  # started only to warm the bytecode cache
    argv = json.loads(line)
    before = calibrate()
    buffer = io.StringIO()
    code, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.run_command(argv)
    except Exception:  # a traceback is a failed operation, reported as such
        error = traceback.format_exc()
    seconds = time.perf_counter() - start
    calibration = (before + calibrate()) / 2
    result = {
        "code": code,
        "payload": buffer.getvalue(),
        "traceback": error,
        "seconds": seconds,
        "calibration_s": calibration,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.snapshot() if tracer else None,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
