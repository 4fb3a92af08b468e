"""Record the reference outcome of every pool op into ``reference.json``.

    python3 perfbench/make_reference.py

The reference is what the output checks compare against: exit codes,
termination classes, event times, arrow and line counts.  It is recorded
once, at the commit that defines the benchmark; regenerating it is a change
to the benchmark.  Every workload's pool is recorded afresh and the file is
rewritten whole.  The boundary pool takes a few minutes (each crawl runs to
the overlay's step cap).
"""

from __future__ import annotations

import json
import sys
from collections import Counter

from tracing import Hooks
from workloads import REFERENCE, WORKLOADS, execute, pool, reference_entry, remove_work_dir


def main() -> int:
    reference = {}
    for workload in WORKLOADS:
        outcomes = Counter()
        with Hooks() as hooks:
            for op in pool(workload):
                result, text, stdout = execute(op, hooks)
                if result.status == "raised":
                    print(f"{op.key}: raised {result.detail}", file=sys.stderr)
                    return 1
                entry = reference_entry(result, text, stdout)
                reference[op.key] = entry
                outcomes[(op.kind, entry["exit"], entry.get("termination"))] += 1
        for (kind, rc, term), count in sorted(outcomes.items(), key=str):
            print(f"{workload:10s} {kind:10s} exit={rc} {term}: {count}")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        remove_work_dir()
