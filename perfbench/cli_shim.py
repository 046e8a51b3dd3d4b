"""Run the ghostgraph command line with the tracer installed.

Used by traced cli_cold runs in place of ``python -m ghostgraph.cli``:

    PERFBENCH_TRACE_OUT=trace.json python3 -X importtime perfbench/cli_shim.py analyze g.json --json

The command behaves as the real one (same output and exit code); the
trace summary, its spans and the command's own time go to the JSON file.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import import_library


def main() -> int:
    out_path = Path(os.environ["PERFBENCH_TRACE_OUT"])
    import_library()
    from ghostgraph import cli

    tracer = Tracer()
    tracer.install()
    code = 0
    start = time.perf_counter()
    try:
        tracer.request(0, cli.main.main, sys.argv[1:], "ghostgraph")
    except SystemExit as exc:
        code = exc.code or 0
    finally:
        command_s = time.perf_counter() - start
        tracer.uninstall()
        record = tracer.summary()
        record["command_s"] = command_s
        record["origin"] = start
        record["spans"] = tracer.spans
        out_path.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
