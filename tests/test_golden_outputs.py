"""Every benchmark pool call, run in-process, prints its recorded output.

perfbench/expected.json holds the sha256 of the stdout of each call in
the benchmark's input pools. The pools, the file materialisation and the
digest are read from perfbench/ and nothing there is written. A few
calls also run through perfbench/trace_child.py, which wraps the
package's functions and reads some of their results by name.
"""

import json
import os
import subprocess
import sys

import pytest

import wmorse
from wmorse.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
SRC = os.path.dirname(os.path.dirname(wmorse.__file__))


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


# one pool item per kind of call: a FASTA fingerprint with a repeated
# record, a greedy collapse, and the five certify calls (morse --classify,
# --collapse and --window, collapse --steps --verify, homology)
TRACED = [("fingerprint", "multi"), ("collapse", "simplex5"), ("certify", "constant")]


@pytest.mark.parametrize("name,stratum", TRACED)
def test_traced_calls_print_recorded_outputs(tmp_path, name, stratum):
    expected = workloads.load_expected()
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("WMORSE_MAX_DIM", None)
    out = str(tmp_path / "trace.json")
    for call in workloads.materialize(workloads.WORKLOADS[name].item(stratum, 0), str(tmp_path)):
        proc = subprocess.run(
            [sys.executable, os.path.join(PERFBENCH, "trace_child.py"), out, "0", "--", *call.argv],
            capture_output=True, text=True, env=env, timeout=120)
        assert (call.key, proc.returncode, proc.stderr) == (call.key, 0, "")
        assert workloads.digest(proc.stdout) == expected[call.key], call.key
        with open(out) as fh:
            assert json.load(fh)["counts"], call.key
