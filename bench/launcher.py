"""Traced stand-in for `python -m twostate.cli`, used by cli-cold with --trace 1.

    python3 bench/launcher.py RECORD.json <twostate arguments...>

Times the import of twostate.cli, wraps the library's public functions, runs
the CLI under a span and writes the spans and their summary to RECORD.json on
exit. Stdout, stderr and the exit code are those of the CLI, traceback
included.
"""

import json
import sys
import time

import tracer

record_path, argv = sys.argv[1], sys.argv[2:]
trace = tracer.Tracer()
start = time.perf_counter()
import twostate.cli  # noqa: E402  (the import is what cli.import_s times)

trace.import_times.append(time.perf_counter() - start)
trace.install()
try:
    sys.exit(twostate.cli.main(argv))
finally:
    trace.uninstall()
    with open(record_path, "w") as handle:
        json.dump({"summary": trace.raw_summary(), "spans": trace.spans_tsv()}, handle)
