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
           "sequence", "removal")
COMMANDS = ("homology", "collapse", "morse", "sequence")
HANDLERS = [f"wmorse._cli_{c}" for c in COMMANDS]
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
    # shaped like the benchmark's fingerprint inputs: a few records of length 5 to 7
    fasta = tmp_path / "reads.fa"
    fasta.write_text(">r1\nACGTAC\n>r2\nCTCGT\n>r3\nGGATCAA\n")
    return {"doc": str(doc), "mdoc": str(mdoc), "fasta": str(fasta), "out": str(tmp_path / "out.json")}


def _others(command):
    """Every subcommand's handler module but command's own."""
    return [h for h in HANDLERS if h != f"wmorse._cli_{command}"]


SEQUENCE = ["sequence", "--weights", "A=1,C=2,G=3,T=4", "--woc-type", "2"]
# a sequence call reads FASTA without the JSON documents module, and only a window removes a cell
NOT_SEQUENCE = ["wmorse.collapse", "wmorse.morse", "wmorse.snf", "wmorse.documents", "wmorse.removal",
                *_others("sequence")]

# name -> (argv with {doc}, {mdoc}, {fasta} and {out}, modules it loads, modules it must not load)
CALLS = {
    "version": (["--version"], ["cli"], [f"wmorse.{m}" for m in MODULES] + HANDLERS),
    "collapse-greedy": (["collapse", "{doc}", "--auto-greedy"], ["collapse", "_cli_collapse"],
                        ["wmorse.homology", "wmorse.snf", "wmorse.morse", "wmorse.sequence",
                         "wmorse.removal", *_others("collapse")]),
    "collapse-verify": (["collapse", "{doc}", "--auto-greedy", "--verify"], ["collapse", "homology"],
                        ["wmorse.morse", "wmorse.sequence", "wmorse.removal", *_others("collapse")]),
    "homology": (["homology", "{doc}"], ["homology", "_cli_homology"],
                 ["wmorse.collapse", "wmorse.morse", "wmorse.snf", "wmorse.removal", *_others("homology")]),
    "sequence": ([*SEQUENCE, "CTC"], ["sequence", "_cli_sequence"], NOT_SEQUENCE),
    "sequence-fasta": ([*SEQUENCE, "{fasta}", "--json"], ["sequence", "_cli_sequence"], NOT_SEQUENCE),
    "sequence-emit-complex": ([*SEQUENCE, "CTC", "--emit-complex", "{out}"], ["sequence", "documents"],
                              [m for m in NOT_SEQUENCE if m != "wmorse.documents"]),
    "morse-classify": (["morse", "{doc}", "{mdoc}", "--classify"], ["morse", "_cli_morse"],
                       ["wmorse.sequence", "wmorse.snf", "wmorse.homology", "wmorse.collapse",
                        "wmorse.removal", *_others("morse")]),
    "morse-collapse": (["morse", "{doc}", "{mdoc}", "--collapse", "3", "4"], ["morse", "collapse", "homology"],
                       ["wmorse.sequence", "wmorse.snf", "wmorse.removal", *_others("morse")]),
    "morse-window": (["morse", "{doc}", "{mdoc}", "--window", "3/2", "2", "--cell", "0,1,2"],
                     ["morse", "removal"], ["wmorse.sequence", "wmorse.snf", *_others("morse")]),
}


@pytest.mark.parametrize("call", sorted(CALLS))
def test_each_subcommand_loads_only_its_layers(tmp_path, call):
    paths = _docs(tmp_path)
    argv, used, unused = CALLS[call]
    code, out, modules = _run(*(a.format(**paths) for a in argv))
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
