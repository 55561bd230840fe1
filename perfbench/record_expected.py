"""Regenerate expected.json: the exact outputs every benchmark run checks.

Run it only at a commit whose outputs are trusted (the stored values come
from the seed library code), and review the diff of expected.json:

    python3 perfbench/record_expected.py
"""

import json
import sys

from worker import import_library


def main() -> int:
    pkg = import_library()
    import workloads

    expected = {}
    for workload in workloads.WORKLOADS:
        expected[workload] = {}
        for seed, key in enumerate(workloads.all_variant_keys(workload)):
            stored = {}
            for op in workloads.build_operations(pkg, workload, seed, None):
                result = op.run()
                problem = op.check(result)
                if problem:
                    raise RuntimeError(problem)
                if workload == "exact-limits":
                    if op.label.startswith("oracle "):
                        stored[op.label] = result[0]
                else:
                    stored[op.label] = workloads.summarize(result)
            expected[workload][key] = stored
            print(f"recorded {workload} {key}", file=sys.stderr, flush=True)
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
