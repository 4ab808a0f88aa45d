"""Every benchmark pool call, run in-process, prints its recorded output.

perfbench/expected.json holds the sha256 of the stdout of each call in
the benchmark's input pools. The pools, the file materialisation and the
digest are read from perfbench/ and nothing there is written.
"""

import os
import sys

import pytest

from wmorse.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _import_workloads():
    """perfbench/workloads.py, imported without leaving bytecode beside it."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
        sys.dont_write_bytecode = saved
    return workloads


workloads = _import_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pool_outputs_match_recorded_digests(tmp_path, capsys, monkeypatch, name):
    # the benchmark clears the cap for its calls, so the records hold every dimension
    monkeypatch.delenv("WMORSE_MAX_DIM", raising=False)
    expected = workloads.load_expected()
    ran, differing = [], []
    for item in workloads.WORKLOADS[name].pool():
        for call in workloads.materialize(item, str(tmp_path)):
            code = main(call.argv)
            out, err = capsys.readouterr()
            ran.append(call.key)
            if code != 0 or err or workloads.digest(out) != expected.get(call.key):
                differing.append(call.key)
    assert differing == []
    assert sorted(ran) == sorted(key for key in expected if key.startswith(f"{name}/"))
