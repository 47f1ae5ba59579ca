"""Record the stdout digest and exit code of every workload step into digests.json.

    python3 perfbench/capture_digests.py

Run it at the commit whose output is the reference. Byte-identical CLI output
is the spec, so a later commit re-records digests only when it adds a step.
"""

import json
import sys

from child import run_step
import workloads


def main() -> int:
    record = {}
    for name, steps in workloads.WORKLOADS.items():
        for argv in steps:
            code, out = run_step(argv)
            record[workloads.step_key(argv)] = {"exit": code, "sha256": workloads.digest(out)}
            print(f"{code} {workloads.digest(out)[:12]} {workloads.step_key(argv)}", file=sys.stderr)
    workloads.DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
