"""Record the expected output of every pool call into expected.json.

Usage (from the root of a checkout): python3 perfbench/record.py

Runs each call of every workload's pool once through the CLI, holds it
to the same independent checks a benchmark run applies, and stores the
sha256 of its stdout. A call that fails its checks is not recorded and
makes the script exit 1. Re-record only when the program's output is
meant to change; a benchmark run treats any other difference as a
failed call.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json
import os
import shutil
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    root = os.getcwd()
    os.makedirs(os.path.join(root, run.WORKDIR), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="record-", dir=os.path.join(root, run.WORKDIR))
    runner = run.Runner(root, scratch, None)
    expected, failed = {}, 0
    try:
        for wl in workloads.WORKLOADS.values():
            for item in wl.pool():
                for call in workloads.materialize(item, scratch):
                    wall, code, stdout, stderr = runner.run(runner.plain(call.argv))
                    problem = run.check_call(call, code, stdout, stderr)
                    print(f"{call.key} {wall:.3f}s {problem or 'ok'}", flush=True)
                    if problem:
                        failed += 1
                    else:
                        expected[call.key] = workloads.digest(stdout)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(workloads.EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
