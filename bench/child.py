"""One apsieve process of the benchmark.

    python3 bench/child.py once '<job json>'   run one op, print one JSON line
    python3 bench/child.py serve               run ops read from stdin, one
                                               JSON line in, one line out
    python3 bench/child.py import              only time the import

A job is ``{"op": i, "trace": bool, "commands": [[arg, ...], ...]}``. Each
command goes to ``apsieve.cli.main`` in this process; the op's time starts
after ``import apsieve.cli`` and stops when the last ``main`` returns. The
report each command prints is captured and sent back for checking.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

from tracer import Tracer

SRC = os.path.join(os.getcwd(), "src")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# One buffer per process: click caches a wrapper per output stream and keeps
# every stream it has seen alive, so a fresh buffer per op would leak.
_BUFFER = io.StringIO()


def _run_command(main, argv, tracer):
    buf = _BUFFER
    buf.seek(0)
    buf.truncate()
    error = None
    rc = None
    with contextlib.redirect_stdout(buf):
        try:
            if tracer is None:
                rc = main(list(argv), standalone_mode=False, prog_name="apsieve")
            else:
                rc = tracer.root(main, list(argv), standalone_mode=False, prog_name="apsieve")
        except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
            error = f"{type(exc).__name__}: {exc}"
    return {"argv": list(argv), "rc": 0 if rc is None else rc, "error": error, "report": buf.getvalue()}


def run_job(main, job: dict, tracer: Tracer) -> dict:
    traced = job["trace"]
    if traced:
        tracer.install()
        tracer.begin(job["op"])
    results = []
    start = time.perf_counter()
    for argv in job["commands"]:
        results.append(_run_command(main, argv, tracer if traced else None))
    seconds = time.perf_counter() - start
    layers = folded = None
    if traced:
        layers = tracer.end()
        if job.get("folded"):
            folded = tracer.folded()
        tracer.uninstall()
    return {
        "op": job["op"], "seconds": seconds, "results": results, "layers": layers,
        "folded": folded, "rss_mb": _peak_rss_mb(),
    }


def main() -> int:
    mode = sys.argv[1]
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import apsieve.cli

    import_s = time.perf_counter() - start
    if not os.path.abspath(apsieve.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"apsieve imported from {apsieve.cli.__file__}, not from {SRC}")
    cli_main = apsieve.cli.main
    tracer = Tracer()
    out = sys.stdout
    if mode == "once":
        job = json.loads(sys.argv[2])
        reply = run_job(cli_main, job, tracer)
        reply["import_s"] = import_s
        out.write(json.dumps(reply) + "\n")
        return 0
    if mode == "serve":
        out.write(json.dumps({"import_s": import_s}) + "\n")
        out.flush()
        for line in sys.stdin:
            out.write(json.dumps(run_job(cli_main, json.loads(line), tracer)) + "\n")
            out.flush()
        return 0
    if mode == "import":
        out.write(json.dumps({"import_s": import_s}) + "\n")
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
