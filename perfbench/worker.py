"""The measured process: runs CLI invocations in-process, one at a time.

Started by run.py with one BLAS/OpenMP thread.  It imports the package
from the checkout's src/, makes one small warm-up call so the program's
lazy first-call set-up is done, and writes {"ready": true}.  Then it
reads one JSON request per line on stdin:

    {"argv": [...], "traced": false}   run friedrichs3d.cli.main(argv)
    {"exit": true}                     report peak RSS and exit

and answers each with one JSON line on its original stdout.  The
program's own report and messages are captured, not printed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

WARM_UP = ["spectrum", "--gamma", "-2", "--mu", "0.6", "--v", "1", "--k", "0.5,0.1,-0.8"]


def _call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught program error fails this op, not the run
            traceback.print_exc()
            code = -1
    seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def serve(channel_in, channel_out):
    import friedrichs3d.cli as cli  # importing the package is part of set-up

    _call(cli.main, WARM_UP)
    channel_out.write(json.dumps({"ready": True}) + "\n")
    channel_out.flush()

    tracer = None
    for line in channel_in:
        request = json.loads(line)
        if request.get("exit"):
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            channel_out.write(json.dumps({"peak_rss_mb": peak_kb / 1024.0}) + "\n")
            channel_out.flush()
            return
        traced = bool(request.get("traced"))
        if traced:
            if tracer is None:
                from spans import Tracer

                tracer = Tracer()
            tracer.reset()
            tracer.install()
        try:
            code, out, err, seconds = _call(cli.main, request["argv"])
        finally:
            if traced:
                tracer.uninstall()
        reply = {"code": code, "out": out, "err": err[-2000:], "seconds": seconds}
        if traced:
            reply["trace"] = tracer.summary()
        channel_out.write(json.dumps(reply) + "\n")
        channel_out.flush()


if __name__ == "__main__":
    # keep the protocol on a private copy of stdout; the program's prints go
    # to the captured sys.stdout
    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    serve(sys.stdin, proto)
