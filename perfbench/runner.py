"""Serve antiatom CLI calls in one process, one call at a time.

Started by the benchmark with PYTHONPATH pointing at the checkout's src/.
The first line it writes names the antiatom package it imported.  Then, for
each JSON argv list read from stdin, it runs ``antiatom.cli.main`` with
stdout captured and writes one JSON line: exit code, the call's CPU time in
milliseconds, its start and end on the monotonic clock, and the captured
output.  At end of input it writes its own peak resident set in KiB and
exits.
"""

import contextlib
import io
import json
import resource
import sys
import time


def main() -> None:
    from antiatom import cli

    out = sys.stdout

    def reply(doc: dict) -> None:
        out.write(json.dumps(doc) + "\n")
        out.flush()

    reply({"antiatom": cli.__file__})
    for line in sys.stdin:
        argv = json.loads(line)
        buf = io.StringIO()
        start, cpu = time.monotonic(), time.thread_time()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                rc = exc.code if isinstance(exc.code, int) else 1
        cpu, end = time.thread_time() - cpu, time.monotonic()
        reply({"rc": rc, "cpu_ms": cpu * 1e3, "start": start, "end": end,
               "out": buf.getvalue()})
    reply({"peak_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})


if __name__ == "__main__":
    main()
