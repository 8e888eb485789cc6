"""Traced stand-in for ``python -m lievessiot.cli``.

Usage: python3 perfbench/child.py <cli arguments...>

Imports the CLI (timing the import), installs the tracer, runs the
command and writes one line ``perfbench-trace <json>`` to stderr with
the import and command times and the tracer's totals.  The command's
stdout and exit code are the CLI's own.
"""

import json
import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import lievessiot.cli

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin_case()
    start = time.perf_counter()
    try:
        code = lievessiot.cli.main(sys.argv[1:])
    finally:
        command_s = time.perf_counter() - start
        tracer.end_case(0, command_s)
        tracer.uninstall()
        sys.stdout.flush()
        summary = tracer.summary()
        summary.update(import_s=import_s, command_s=command_s)
        print("perfbench-trace " + json.dumps(summary), file=sys.stderr)
    sys.exit(code)
