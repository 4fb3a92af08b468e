"""Fingerprint every benchmark pool op's output, for golden-output comparisons.

    python3 tools/golden_outputs.py CHECKOUT > golden.txt

Runs each op of the ``perfbench`` pools (``experiment``, ``boundary`` and
``cli-mix``) of the checkout at ``CHECKOUT`` through that checkout's own
``perfbench/workloads.py``, which imports the ``gwflow`` sources under its
``src/``.  Prints one line per op: the workload, the op's key, its exit code
and the sha256 of its output file followed by its standard output.  Two
checkouts produce byte-identical outputs when ``diff`` finds no difference
between their listings.

Exits 1 if any op raises, and removes the ops' work directory either way.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path
from types import SimpleNamespace


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", type=Path, help="root of the checkout to run")
    args = p.parse_args(argv)

    perfbench = args.checkout.resolve() / "perfbench"
    if not (perfbench / "workloads.py").is_file():
        p.error(f"no perfbench/workloads.py under {args.checkout}")
    sys.path.insert(0, str(perfbench))
    import workloads

    hooks = SimpleNamespace(trajectories=[])  # execute() clears and reads it
    raised = 0
    try:
        for workload in workloads.WORKLOADS:
            for op in workloads.pool(workload):
                result, text, stdout = workloads.execute(op, hooks)
                raised += result.status == "raised"
                digest = hashlib.sha256((text + stdout).encode()).hexdigest()
                print(f"{workload}\t{op.key}\t{result.exit_code}\t{digest}")
    finally:
        workloads.remove_work_dir()
        try:
            workloads.OUT_DIR.rmdir()  # only if no other run still uses it
        except OSError:
            pass
    if raised:
        print(f"golden_outputs: {raised} op(s) raised", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
