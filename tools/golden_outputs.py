"""Fingerprint every benchmark pool op's output, for golden-output comparisons.

    python3 tools/golden_outputs.py CHECKOUT > golden.txt

Runs each op of the ``perfbench`` pools (``experiment``, ``boundary`` and
``cli-mix``) of the checkout at ``CHECKOUT`` through that checkout's own
``gwflow.cli.main``, imported by its ``perfbench/workloads.py`` from the
sources under its ``src/``.  Prints one line per op: the workload, the op's
key, its exit code, the sha256 of its output file followed by its standard
output, and the sha256 of its standard error (so a changed refusal reason
shows too).  Two checkouts produce byte-identical outputs when ``diff`` finds
no difference between their listings.

Exits 1 if any op raises, and removes the ops' work directory either way.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import traceback
from pathlib import Path


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(workloads, op) -> tuple[int | None, str, str, str]:
    """One op through ``gwflow.cli.main``: its exit code (``None`` if it
    raised), output file text, standard output and standard error."""
    workloads.WORK_DIR.mkdir(parents=True, exist_ok=True)
    out_path = op.output
    if out_path is not None and out_path.exists():
        out_path.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    rc = raised = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = workloads.cli.main(list(op.argv))
        except Exception:
            raised = traceback.format_exc()
    if raised is not None:
        print(f"op {op.key} raised:\n{raised}", file=sys.stderr)
    text = out_path.read_text() if out_path is not None and out_path.exists() else ""
    return rc, text, stdout.getvalue(), stderr.getvalue()


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", type=Path, help="root of the checkout to run")
    args = p.parse_args(argv)

    perfbench = args.checkout.resolve() / "perfbench"
    if not (perfbench / "workloads.py").is_file():
        p.error(f"no perfbench/workloads.py under {args.checkout}")
    sys.path.insert(0, str(perfbench))
    import workloads

    raised = 0
    try:
        for workload in workloads.WORKLOADS:
            for op in workloads.pool(workload):
                rc, text, stdout, stderr = _run(workloads, op)
                raised += rc is None
                print(f"{workload}\t{op.key}\t{rc}\t{_sha256(text + stdout)}\t{_sha256(stderr)}")
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
