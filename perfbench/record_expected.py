"""Write perfbench/expected.json: each job's exit code and semantic result.

Run it only when the benchmark's job lists change, never to make a failing
program pass:

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import sys

from jobs import EXPECTED, OUT, WORKERS, WORKLOADS, run_cli, semantic


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    expected: dict = {}
    for workload, jobs in WORKLOADS.items():
        expected[workload] = {}
        for job in jobs:
            output = OUT / f"record-{job.name}.json"
            result = run_cli(job, WORKERS.get(workload, 1), output)
            doc = json.loads(output.read_text(encoding="utf-8"))
            expected[workload][job.name] = {"exit_code": result.exit_code, "result": semantic(doc)}
            print(f"{workload} {job.name}: exit {result.exit_code} {result.wall_s:.2f}s", file=sys.stderr)
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
