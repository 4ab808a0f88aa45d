"""What a command line call loads, and the package root's lazy names.

Each call runs in a fresh interpreter through wmorse.cli.entrypoint,
the console script's entry, and reports sys.modules when entrypoint
ends the process.
"""

import json
import os
import subprocess
import sys

import pytest

import wmorse
from wmorse.documents import dump_complex_document

from conftest import weighted_disk

SRC = os.path.dirname(os.path.dirname(wmorse.__file__))
MODULES = ("complexes", "documents", "errors", "homology", "snf", "collapse", "morse",
           "sequence")
# no subcommand needs them: the result records are NamedTuples
NEVER = {"dataclasses", "inspect"}

# entrypoint ends the process with os._exit; the probe's stand-in reports the
# exit code and the loaded modules first, so a call that returns or raises
# instead leaves no report and fails
PROBE = (
    "import os, sys\n"
    "from wmorse.cli import entrypoint\n"
    "def report(code, _exit=os._exit):\n"
    "    print('os._exit', code, *sorted(sys.modules), file=sys.stderr, flush=True)\n"
    "    _exit(code)\n"
    "os._exit = report\n"
    "entrypoint()\n"
)


def _run(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("WMORSE_MAX_DIM", None)
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.stderr.startswith("os._exit "), proc.stderr
    _, code, *modules = proc.stderr.split()
    assert proc.returncode == int(code)
    return int(code), proc.stdout, set(modules)


def _docs(tmp_path):
    doc = tmp_path / "disk.json"
    dump_complex_document(str(doc), weighted_disk(2))
    values = [((0,), 0), ((1,), 0), ((2,), 0), ((0, 1), 1), ((0, 2), 1), ((1, 2), 1), ((0, 1, 2), 2)]
    mdoc = tmp_path / "morse.json"
    mdoc.write_text(json.dumps({"values": [{"vertices": list(s), "value": v} for s, v in values]}))
    return str(doc), str(mdoc)


# name -> (argv with {doc} and {mdoc}, modules it loads, modules it must not load)
CALLS = {
    "version": (["--version"], ["cli"], [f"wmorse.{m}" for m in MODULES]),
    "collapse-greedy": (["collapse", "{doc}", "--auto-greedy"], ["collapse"],
                        ["wmorse.homology", "wmorse.snf", "wmorse.morse", "wmorse.sequence"]),
    "homology": (["homology", "{doc}"], ["homology"], ["wmorse.collapse", "wmorse.morse", "wmorse.snf"]),
    "sequence": (["sequence", "CTC", "--weights", "A=1,C=2,G=3,T=4", "--woc-type", "2"],
                 ["sequence"], ["wmorse.collapse", "wmorse.morse", "wmorse.snf"]),
    "morse-classify": (["morse", "{doc}", "{mdoc}", "--classify"], ["morse"],
                       ["wmorse.sequence", "wmorse.snf", "wmorse.homology", "wmorse.collapse"]),
    "morse-window": (["morse", "{doc}", "{mdoc}", "--window", "3/2", "2", "--cell", "0,1,2"],
                     ["morse"], ["wmorse.sequence", "wmorse.snf"]),
}


@pytest.mark.parametrize("call", sorted(CALLS))
def test_each_subcommand_loads_only_its_layers(tmp_path, call):
    doc, mdoc = _docs(tmp_path)
    argv, used, unused = CALLS[call]
    code, out, modules = _run(*(a.format(doc=doc, mdoc=mdoc) for a in argv))
    assert code == 0
    assert out
    assert {f"wmorse.{m}" for m in used} <= modules
    assert modules.isdisjoint(unused), sorted(modules & set(unused))
    assert modules.isdisjoint(NEVER), sorted(modules & NEVER)


def test_package_root_names_resolve_lazily():
    script = (
        "import importlib, sys, types\n"
        "import wmorse\n"
        "assert not any(m in sys.modules for m in ('wmorse.homology', 'wmorse.morse'))\n"
        "import wmorse.sequence\n"
        "assert callable(wmorse.homology) and not isinstance(wmorse.homology, types.ModuleType)\n"
        "module = importlib.import_module('wmorse.homology')\n"
        "assert wmorse.homology is module.homology\n"
        "missing = [n for n in wmorse.__all__ if getattr(wmorse, n, None) is None]\n"
        "assert not missing, missing\n"
        "scope = {}\n"
        "exec('from wmorse import *', scope)\n"
        "assert all(scope[n] is getattr(wmorse, n) for n in wmorse.__all__)\n"
        "assert len(set(wmorse.__all__)) == len(wmorse.__all__)\n"
        "try:\n"
        "    wmorse.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('an unknown name resolved')\n"
        "print(len(wmorse.__all__))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 62
