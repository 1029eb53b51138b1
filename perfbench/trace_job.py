"""Run one gfibdiv CLI job in-process with the layer tracer installed.

    PYTHONPATH=src python3 perfbench/trace_job.py SPANS_JSON OUTER_NS INNER_NS -- CLI_ARGS...

OUTER_NS and INNER_NS are the calibrated per-call wrapper costs
(Tracer.calibrate).  The spans and aggregates are kept in memory and written
to SPANS_JSON when the job ends; the exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    spans_path, outer_ns, inner_ns, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_job.py SPANS_JSON OUTER_NS INNER_NS -- CLI_ARGS...")
    from gfibdiv import claims, cli, reporting, verify

    tracer = Tracer()
    tracer.outer_ns, tracer.inner_ns = int(outer_ns), int(inner_ns)
    tracer.install({"cli": cli, "verify": verify, "claims": claims, "reporting": reporting})
    code = tracer.span("cli.main", cli.main)(argv)
    Path(spans_path).write_text(json.dumps(tracer.dump(claims)), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
