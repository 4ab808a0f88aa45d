"""End-to-end tests for the command line.

Every test drives main(argv) in process and checks exit codes, exact
text output, or JSON payloads. The golden outputs are frozen from
verified values of the underlying library, so these tests pin both the
numbers and the report format.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import wmorse
import wmorse._cli_collapse
import wmorse._cli_morse
import wmorse.cli
import wmorse.complexes
import wmorse.documents
import wmorse.morse
import wmorse.sequence
from wmorse import __version__, validate_complex
from wmorse.cli import main
from wmorse.complexes import simplex
from wmorse.documents import dump_complex_document, load_complex_document, parse_rational
from wmorse.errors import DocumentError

from conftest import (
    BROKEN_REMOVAL,
    filled_triangle,
    hollow_triangle_w2,
    unlimited_int_digits,
    weighted_disk,
    xyyy_setup,
)

DNA = "A=1,C=2,G=3,T=4"


@pytest.fixture(autouse=True)
def _no_dim_cap(monkeypatch):
    monkeypatch.delenv("WMORSE_MAX_DIM", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_raw(path, obj):
    path.write_text(json.dumps(obj) + "\n")
    return str(path)


def write_complex(path, K, names=None):
    dump_complex_document(str(path), K, names)
    return str(path)


def write_morse(path, entries):
    records = [{"vertices": list(s), "value": v} for s, v in entries]
    return write_raw(path, {"values": records})


def morse_entries(f):
    return [
        (s, int(v) if v.denominator == 1 else str(v)) for s, v in f.items()
    ]


@pytest.fixture
def triangle_doc(tmp_path):
    return write_complex(tmp_path / "triangle.json", filled_triangle())


@pytest.fixture
def xyyy_docs(tmp_path):
    K, names, f, cell = xyyy_setup()
    cdoc = write_complex(
        tmp_path / "xyyy.json", K, {i: n for i, n in enumerate(names)}
    )
    mdoc = write_morse(tmp_path / "xyyy_morse.json", morse_entries(f))
    return cdoc, mdoc, cell


# --- homology ----------------------------------------------------------------

def test_homology_text_output(triangle_doc, capsys):
    code, out, err = run_cli(capsys, "homology", triangle_doc)
    assert code == 0
    assert err == ""
    assert out == "H0 = Z^1 (+) Z/2\nH1 = 0\nH2 = 0\n"


def test_homology_json_output_is_canonical(triangle_doc, capsys):
    code, out, _ = run_cli(capsys, "homology", triangle_doc, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "homology": [
            {"dim": 0, "free_rank": 1, "torsion": [2]},
            {"dim": 1, "free_rank": 0, "torsion": []},
            {"dim": 2, "free_rank": 0, "torsion": []},
        ]
    }
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_homology_constant_weight_takes_the_closure(tmp_path, capsys):
    doc = write_raw(
        tmp_path / "circle.json",
        {"simplices": [{"vertices": [0, 1]}, {"vertices": [1, 2]}, {"vertices": [0, 2]}]},
    )
    code, out, _ = run_cli(capsys, "homology", doc, "--constant-weight", "3")
    assert code == 0
    assert out == "H0 = Z^1\nH1 = Z^1\n"


def test_homology_respects_dimension_cap(triangle_doc, capsys, monkeypatch):
    monkeypatch.setenv("WMORSE_MAX_DIM", "0")
    code, out, _ = run_cli(capsys, "homology", triangle_doc)
    assert code == 0
    assert out == "H0 = Z^1 (+) Z/2\n"


@pytest.mark.parametrize("cap", ["abc", "-1"])
def test_homology_bad_dimension_cap(triangle_doc, capsys, monkeypatch, cap):
    monkeypatch.setenv("WMORSE_MAX_DIM", cap)
    code, out, err = run_cli(capsys, "homology", triangle_doc)
    assert code == 2
    assert "WMORSE_MAX_DIM" in err


def test_homology_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "homology", str(tmp_path / "absent.json"))
    assert code == 2
    assert err.startswith("error: DocumentError")
    assert "cannot read" in err


def test_homology_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ not json\n")
    code, _, err = run_cli(capsys, "homology", str(path))
    assert code == 2
    assert "line 1" in err


def test_homology_schema_errors(tmp_path, capsys):
    no_key = write_raw(tmp_path / "a.json", {"cells": []})
    code, _, err = run_cli(capsys, "homology", no_key)
    assert code == 2
    assert "'simplices'" in err

    empty = write_raw(tmp_path / "b.json", {"simplices": []})
    code, _, err = run_cli(capsys, "homology", empty)
    assert code == 2
    assert "empty complex" in err


def test_homology_divisibility_violation_exits_2(tmp_path, capsys):
    doc = write_raw(
        tmp_path / "bad.json",
        {
            "simplices": [
                {"vertices": [0], "weight": 2},
                {"vertices": [1], "weight": 1},
                {"vertices": [0, 1], "weight": 3},
            ]
        },
    )
    code, _, err = run_cli(capsys, "homology", doc)
    assert code == 2
    assert err.startswith("error: DivisibilityViolation")


# --- collapse ----------------------------------------------------------------

def test_collapse_steps_golden(triangle_doc, tmp_path, capsys):
    steps = write_raw(tmp_path / "steps.json", [[1, 2], [1], [0]])
    code, out, _ = run_cli(capsys, "collapse", triangle_doc, "--steps", steps)
    assert code == 0
    assert out == (
        "step 1: sigma=[1,2] tau=[0,1,2] verdict=same-weight w(sigma)=4 w(tau)=4\n"
        "step 2: sigma=[1] tau=[0,1] verdict=not-guaranteed w(sigma)=1 w(tau)=2\n"
        "step 3: sigma=[0] tau=[0,2] verdict=not-guaranteed w(sigma)=1 w(tau)=2\n"
        "steps: 3\n"
        "remaining: 1 simplices\n"
        "guaranteed: no\n"
    )


def test_collapse_verify_golden(triangle_doc, tmp_path, capsys):
    steps = write_raw(tmp_path / "steps.json", [[1, 2]])
    code, out, _ = run_cli(
        capsys, "collapse", triangle_doc, "--steps", steps, "--verify"
    )
    assert code == 0
    assert out == (
        "step 1: sigma=[1,2] tau=[0,1,2] verdict=same-weight w(sigma)=4 w(tau)=4\n"
        "steps: 1\n"
        "remaining: 5 simplices\n"
        "guaranteed: yes\n"
        "verify H0: before=Z^1 (+) Z/2 after=Z^1 (+) Z/2 agree=yes\n"
        "verify H1: before=0 after=0 agree=yes\n"
        "verify H2: before=0 after=0 agree=yes\n"
        "verify-agree: yes\n"
    )


def test_collapse_verify_reports_disagreement(triangle_doc, tmp_path, capsys):
    steps = write_raw(tmp_path / "steps.json", [[1, 2], [1]])
    code, out, _ = run_cli(
        capsys, "collapse", triangle_doc, "--steps", steps, "--verify"
    )
    assert code == 0
    assert out.splitlines()[-4:] == [
        "verify H0: before=Z^1 (+) Z/2 after=Z^1 agree=no",
        "verify H1: before=0 after=0 agree=yes",
        "verify H2: before=0 after=0 agree=yes",
        "verify-agree: no",
    ]


def test_collapse_auto_greedy_collapses_a_solid_simplex(tmp_path, capsys):
    doc = write_raw(tmp_path / "solid.json", {"simplices": [{"vertices": [0, 1, 2, 3]}]})
    code, out, _ = run_cli(
        capsys, "collapse", doc, "--constant-weight", "1", "--auto-greedy"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-3:] == ["steps: 7", "remaining: 1 simplices", "guaranteed: yes"]
    again = run_cli(capsys, "collapse", doc, "--constant-weight", "1", "--auto-greedy")
    assert again == (code, out, "")


def test_collapse_json_payload(triangle_doc, tmp_path, capsys):
    steps = write_raw(tmp_path / "steps.json", [[1, 2]])
    code, out, _ = run_cli(
        capsys, "collapse", triangle_doc, "--steps", steps, "--verify", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["steps"] == [
        {
            "sigma": [1, 2],
            "tau": [0, 1, 2],
            "verdict": "same-weight",
            "w_sigma": 4,
            "w_tau": 4,
        }
    ]
    assert payload["remaining_simplices"] == 5
    assert payload["guaranteed"] is True
    assert payload["verify"]["agree"] is True


def test_collapse_non_free_face_exits_3(triangle_doc, tmp_path, capsys):
    steps = write_raw(tmp_path / "steps.json", [[0]])
    code, _, err = run_cli(capsys, "collapse", triangle_doc, "--steps", steps)
    assert code == 3
    assert err.startswith("error: NotFreeFace")


def test_collapse_names_the_step_that_is_not_free(tmp_path, capsys):
    edge = write_raw(tmp_path / "edge.json", {"simplices": [
        {"vertices": [0], "weight": 1}, {"vertices": [1], "weight": 1}, {"vertices": [0, 1], "weight": 1}]})
    # the first [0] removes the edge with it, so the second finds no coface
    steps = write_raw(tmp_path / "steps.json", [[0], [0]])
    code, out, err = run_cli(capsys, "collapse", edge, "--steps", steps)
    assert (code, out) == (3, "")
    assert err == "error: NotFreeFace: [0] is not a free face (entry 1 of the steps)\n"


def test_collapse_steps_must_be_an_array(triangle_doc, tmp_path, capsys):
    steps = write_raw(tmp_path / "steps.json", {"steps": []})
    code, _, err = run_cli(capsys, "collapse", triangle_doc, "--steps", steps)
    assert code == 2
    assert "expected a JSON array" in err


@pytest.mark.parametrize("entry", [5, None, True], ids=["int", "null", "bool"])
def test_collapse_steps_entries_must_be_lists(triangle_doc, tmp_path, capsys, entry):
    steps = write_raw(tmp_path / "steps.json", [[1, 2], entry])
    code, _, err = run_cli(capsys, "collapse", triangle_doc, "--steps", steps)
    assert code == 2
    assert err == f"error: DocumentError: {steps}: entry 1 is not a list of vertex ids\n"


@pytest.mark.parametrize("entry, message", [
    ([], "a simplex needs at least one vertex"),
    ([0, -1], "vertex ids must be non-negative integers, got -1"),
    ([True], "vertex ids must be non-negative integers, got True"),
    ([0.5], "vertex ids must be non-negative integers, got 0.5"),
], ids=["empty", "negative", "bool", "float"])
def test_collapse_steps_name_the_entry_with_a_bad_vertex_list(triangle_doc, tmp_path, capsys, entry, message):
    steps = write_raw(tmp_path / "steps.json", [[1, 2], entry])
    code, out, err = run_cli(capsys, "collapse", triangle_doc, "--steps", steps)
    assert (code, out) == (2, "")
    assert err == f"error: DocumentError: {steps}: entry 1: {message}\n"


def test_collapse_malformed_steps_file(triangle_doc, tmp_path, capsys):
    steps = tmp_path / "steps.json"
    steps.write_text("[[1, 2],\n [1 2]]\n")
    code, out, err = run_cli(capsys, "collapse", triangle_doc, "--steps", str(steps))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: DocumentError: {steps}: ")
    assert err.endswith(" (line 2)\n")


def test_collapse_missing_steps_file(triangle_doc, tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "collapse", triangle_doc, "--steps", str(tmp_path / "none.json")
    )
    assert code == 2
    assert "cannot read" in err


# --- morse: classify ----------------------------------------------------------

def test_morse_classify_dimension_function(tmp_path, capsys):
    doc = write_raw(tmp_path / "solid.json", {"simplices": [{"vertices": [0, 1, 2]}]})
    mdoc = write_morse(
        tmp_path / "dim.json",
        [
            ((0,), 0), ((1,), 0), ((2,), 0),
            ((0, 1), 1), ((0, 2), 1), ((1, 2), 1),
            ((0, 1, 2), 2),
        ],
    )
    code, out, _ = run_cli(
        capsys, "morse", doc, mdoc, "--constant-weight", "1", "--classify"
    )
    assert code == 0
    assert out == (
        "morse function valid on 7 simplices\n"
        "critical cells: 7\n"
        "critical: [0] f=0\n"
        "critical: [1] f=0\n"
        "critical: [2] f=0\n"
        "critical: [0,1] f=1\n"
        "critical: [0,2] f=1\n"
        "critical: [1,2] f=1\n"
        "critical: [0,1,2] f=2\n"
        "non-w-simple cells: 0\n"
    )


def test_morse_classify_reports_pairs_and_rough_cells(tmp_path, capsys):
    K = validate_complex([([0], 1), ([1], 1), ([0, 1], 2)])
    doc = write_complex(tmp_path / "edge.json", K)
    mdoc = write_morse(tmp_path / "f.json", [((0,), 0), ((1,), 2), ((0, 1), 1)])
    code, out, _ = run_cli(capsys, "morse", doc, mdoc, "--classify")
    assert code == 0
    assert out == (
        "morse function valid on 3 simplices\n"
        "critical cells: 1\n"
        "critical: [0] f=0\n"
        "non-w-simple cells: 1\n"
        "non-w-simple: [0,1] f=1\n"
    )


def test_morse_classify_parses_decimals_exactly(tmp_path, capsys):
    K = validate_complex([([0], 1), ([1], 1)])
    doc = write_complex(tmp_path / "pts.json", K)
    mdoc = write_raw(
        tmp_path / "f.json",
        {
            "values": [
                {"vertices": [0], "value": 0.1},
                {"vertices": [1], "value": "3/4"},
            ]
        },
    )
    code, out, _ = run_cli(capsys, "morse", doc, mdoc, "--classify")
    assert code == 0
    assert out == (
        "morse function valid on 2 simplices\n"
        "critical cells: 2\n"
        "critical: [0] f=1/10\n"
        "critical: [1] f=3/4\n"
        "non-w-simple cells: 0\n"
    )


def test_morse_classify_json(tmp_path, capsys):
    K = validate_complex([([0], 1), ([1], 1), ([0, 1], 2)])
    doc = write_complex(tmp_path / "edge.json", K)
    mdoc = write_morse(tmp_path / "f.json", [((0,), 0), ((1,), 2), ((0, 1), 1)])
    code, out, _ = run_cli(capsys, "morse", doc, mdoc, "--classify", "--json")
    assert code == 0
    assert json.loads(out) == {
        "simplices": 3,
        "critical": [{"vertices": [0], "value": "0"}],
        "non_w_simple": [{"vertices": [0, 1], "value": "1"}],
    }


def test_morse_document_must_cover_the_complex(tmp_path, capsys):
    K = validate_complex([([0], 1), ([1], 1), ([0, 1], 2)])
    doc = write_complex(tmp_path / "edge.json", K)
    mdoc = write_morse(tmp_path / "f.json", [((0,), 0), ((1,), 2)])
    code, _, err = run_cli(capsys, "morse", doc, mdoc, "--classify")
    assert code == 2
    assert err == "error: no Morse value for [0, 1]\n"
    mdoc = write_morse(tmp_path / "f.json", [((0,), 0)])
    assert run_cli(capsys, "morse", doc, mdoc, "--classify") == (2, "", "error: no Morse value for [1], [0, 1]\n")


def test_morse_document_rejects_duplicates(tmp_path, capsys):
    K = validate_complex([([0], 1)])
    doc = write_complex(tmp_path / "pt.json", K)
    mdoc = write_morse(tmp_path / "f.json", [((0,), 0), ((0,), 1)])
    code, _, err = run_cli(capsys, "morse", doc, mdoc, "--classify")
    assert code == 2
    assert err == "error: DuplicateSimplex: simplex [0] listed twice\n"


def test_documents_load_with_no_simplex_call_per_record(tmp_path, monkeypatch):
    # each record is sorted once; its vertex ids are checked in one pass over all cells
    K = weighted_disk(2)
    doc = write_raw(tmp_path / "disk.json", {"simplices": [{"vertices": list(s[::-1]), "weight": w}
                                                           for s, w in reversed(K.items())]})
    mdoc = write_morse(tmp_path / "f.json", [(s[::-1], len(s) - 1) for s in reversed(list(K))])
    calls = []

    def counted(vertices):
        calls.append(vertices)
        return simplex(vertices)

    for module in (wmorse.complexes, wmorse.documents):
        monkeypatch.setattr(module, "simplex", counted)
    loaded, _ = load_complex_document(doc)
    f = wmorse.documents.load_morse_document(mdoc, loaded)
    assert calls == []
    assert loaded == K
    assert [f(s) for s in K] == [len(s) - 1 for s in K]


def test_a_valid_document_runs_the_vertex_id_pass_once(tmp_path, monkeypatch):
    # the loaders check the records' shape and leave the ids to the builder's one pass
    K = weighted_disk(2)
    doc = write_complex(tmp_path / "disk.json", K)
    mdoc = write_morse(tmp_path / "f.json", [(s, len(s) - 1) for s in K])
    real, passes = wmorse.complexes._exact_ids, []

    def counted(cells):
        passes.append(cells)
        return real(cells)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "wmorse" and getattr(module, "_exact_ids", None) is real:
            monkeypatch.setattr(module, "_exact_ids", counted)
    loaded, _ = load_complex_document(doc)
    assert len(passes) == 1
    wmorse.documents.load_morse_document(mdoc, loaded)
    assert len(passes) == 2


def test_morse_violation_exits_2(tmp_path, capsys):
    K = validate_complex([([0], 1), ([1], 1), ([0, 1], 1)])
    doc = write_complex(tmp_path / "edge.json", K)
    mdoc = write_morse(tmp_path / "f.json", [((0,), 1), ((1,), 1), ((0, 1), 0)])
    code, _, err = run_cli(capsys, "morse", doc, mdoc, "--classify")
    assert code == 2
    assert err.startswith("error: MorseViolation")


# --- morse: level collapse ------------------------------------------------------

def test_morse_collapse_golden(xyyy_docs, capsys):
    cdoc, mdoc, _ = xyyy_docs
    code, out, _ = run_cli(capsys, "morse", cdoc, mdoc, "--collapse", "2", "5")
    assert code == 0
    assert out == (
        "window: (2, 5]\n"
        "step 1: sigma=[0,2] tau=[0,1,2] verdict=same-weight w(sigma)=600 w(tau)=600\n"
        "step 2: sigma=[2,4] tau=[2,3,4] verdict=same-weight w(sigma)=600 w(tau)=600\n"
        "step 3: sigma=[3,5] tau=[3,4,5] verdict=same-weight w(sigma)=1000 w(tau)=1000\n"
        "step 4: sigma=[2,3] tau=[1,2,3] verdict=same-weight w(sigma)=600 w(tau)=600\n"
        "step 5: sigma=[5] tau=[4,5] verdict=same-weight w(sigma)=1000 w(tau)=1000\n"
        "step 6: sigma=[2] tau=[1,2] verdict=same-weight w(sigma)=600 w(tau)=600\n"
        "step 7: sigma=[4] tau=[3,4] verdict=same-weight w(sigma)=100 w(tau)=100\n"
        "steps: 7\n"
        "start: 19 simplices\n"
        "end: 5 simplices\n"
        "H0: start=Z^1 (+) Z/2 end=Z^1 (+) Z/2 agree=yes\n"
        "H1: start=0 end=0 agree=yes\n"
        "H2: start=0 end=0 agree=yes\n"
        "agree: yes\n"
    )


def test_morse_collapse_json(xyyy_docs, capsys):
    cdoc, mdoc, _ = xyyy_docs
    code, out, _ = run_cli(
        capsys, "morse", cdoc, mdoc, "--collapse", "2", "5", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["window"] == ["2", "5"]
    assert len(payload["steps"]) == 7
    assert payload["steps"][0] == {
        "sigma": [0, 2],
        "tau": [0, 1, 2],
        "verdict": "same-weight",
        "w_sigma": 600,
        "w_tau": 600,
    }
    assert payload["agree"] is True


def test_morse_collapse_blocked_by_critical_cell(xyyy_docs, capsys):
    cdoc, mdoc, _ = xyyy_docs
    code, _, err = run_cli(capsys, "morse", cdoc, mdoc, "--collapse", "1", "5")
    assert code == 3
    assert err.startswith("error: HypothesisFailed")
    assert "critical" in err


def test_morse_collapse_rejects_bad_rational(xyyy_docs, capsys):
    cdoc, mdoc, _ = xyyy_docs
    code, _, err = run_cli(capsys, "morse", cdoc, mdoc, "--collapse", "x", "5")
    assert code == 2
    assert "cannot parse 'x'" in err


@pytest.mark.parametrize("source", ["argument", "string", "bare-decimal"])
def test_huge_decimal_exponents_are_refused_quickly(tmp_path, capsys, source):
    doc = write_complex(tmp_path / "edge.json", validate_complex([([0], 1), ([1], 1), ([0, 1], 1)]))
    value = {"argument": "1", "string": '"1e10000000"', "bare-decimal": "1e10000000"}[source]
    mdoc = tmp_path / "f.json"
    mdoc.write_text(
        '{"values": [{"vertices": [0], "value": 0}, {"vertices": [1], "value": %s},'
        ' {"vertices": [0, 1], "value": 1}]}' % value
    )
    mode = ["--collapse", "0", "1e10000000"] if source == "argument" else ["--classify"]
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "morse", doc, str(mdoc), *mode)
    # building and comparing 10**10000000 took 8 to 19 s
    assert time.perf_counter() - started < 5
    assert code == 2
    assert out == ""
    where = "" if source == "argument" else f"{mdoc}: values[1]: "
    assert err == (
        f"error: DocumentError: {where}'1e10000000' has a decimal exponent"
        " larger than 4300 in magnitude\n"
    )


def test_parse_rational_exponent_bound():
    with pytest.raises(DocumentError, match="longer than 4300 digits"):
        parse_rational("1e4300")
    assert parse_rational("1e4299") == 10 ** 4299
    assert parse_rational("25E-4300") == Fraction(25, 10 ** 4300)
    assert parse_rational(" 7/2 ") == Fraction(7, 2)
    for text in ("1e4301", "1.5e-4301", "1e+99999999999999999999"):
        with pytest.raises(DocumentError, match="larger than 4300 in magnitude"):
            parse_rational(text)
    with pytest.raises(DocumentError, match="has more than 4300 digits"):
        parse_rational("1e" + "9" * 5000)


@pytest.mark.parametrize("text", ["1e4300", "1e-4300", "99e4299"])
def test_unprintable_values_are_refused(tmp_path, capsys, text):
    with pytest.raises(DocumentError, match=f"'{text}' has a numerator or denominator longer than 4300 digits"):
        parse_rational(text)
    doc = write_complex(tmp_path / "edge.json", validate_complex([([0], 1), ([1], 1), ([0, 1], 1)]))
    mdoc = write_morse(tmp_path / "f.json", [((0,), 0), ((1,), text), ((0, 1), text)])
    code, out, err = run_cli(capsys, "morse", doc, mdoc, "--classify")
    assert code == 2
    assert out == ""
    assert err == (
        f"error: DocumentError: {mdoc}: values[1]: '{text}' has a numerator"
        " or denominator longer than 4300 digits\n"
    )


# --- morse: window certificate ---------------------------------------------------

def disk_docs(tmp_path):
    doc = write_complex(tmp_path / "disk.json", weighted_disk(2))
    mdoc = write_morse(
        tmp_path / "dim.json",
        [
            ((0,), 0), ((1,), 0), ((2,), 0),
            ((0, 1), 1), ((0, 2), 1), ((1, 2), 1),
            ((0, 1, 2), 2),
        ],
    )
    return doc, mdoc


def test_morse_window_torsion_quotient_golden(tmp_path, capsys):
    doc, mdoc = disk_docs(tmp_path)
    code, out, _ = run_cli(
        capsys, "morse", doc, mdoc, "--window", "3/2", "2", "--cell", "0,1,2"
    )
    assert code == 0
    assert out == (
        "cell: [0,1,2] f=2\n"
        "window: (3/2, 2]\n"
        "a-prime: 3/2\n"
        "K(a') == K(f(alpha)) minus alpha: yes\n"
        "alpha maximal in K(f(alpha)): yes\n"
        "collapse above: 0 steps, all same-weight\n"
        "collapse below: 0 steps, all same-weight\n"
        "removal: dim=2 class-order=infinite\n"
        "H2: H2(K(f(alpha))) = H2(K(a'))\n"
        "H1: H1(K(f(alpha))) = H1(K(a')) / <[boundary]> = Z/2\n"
        "unchanged: H_k for k not in {1, 2}\n"
    )


def test_morse_window_json(tmp_path, capsys):
    doc, mdoc = disk_docs(tmp_path)
    code, out, _ = run_cli(
        capsys, "morse", doc, mdoc, "--window", "3/2", "2", "--cell", "0,1,2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["a_prime"] == "3/2"
    assert payload["set_identity"] is True
    assert payload["alpha_maximal"] is True
    assert payload["removal"] == {
        "dimension": 2,
        "class_order": "infinite",
        "k": None,
        "gains_free_summand": False,
        "quotient_below": {"free_rank": 0, "torsion": [2]},
    }


def test_morse_window_free_gain_golden(tmp_path, capsys):
    doc = write_complex(tmp_path / "hollow.json", hollow_triangle_w2())
    mdoc = write_morse(
        tmp_path / "f.json",
        [
            ((0,), 1), ((1,), 0), ((2,), 2),
            ((0, 1), 1), ((0, 2), 2), ((1, 2), 3),
        ],
    )
    code, out, _ = run_cli(
        capsys, "morse", doc, mdoc, "--window", "2", "3", "--cell", "1,2"
    )
    assert code == 0
    assert out == (
        "cell: [1,2] f=3\n"
        "window: (2, 3]\n"
        "a-prime: 2\n"
        "K(a') == K(f(alpha)) minus alpha: yes\n"
        "alpha maximal in K(f(alpha)): yes\n"
        "collapse above: 0 steps, all same-weight\n"
        "collapse below: 0 steps, all same-weight\n"
        "removal: dim=1 class-order=zero\n"
        "H1: H1(K(f(alpha))) = H1(K(a')) (+) Z\n"
        "H0: H0(K(f(alpha))) = H0(K(a')) / <[boundary]> = Z^1 (+) Z/2 (+) Z/2\n"
        "unchanged: H_k for k not in {0, 1}\n"
    )


def test_morse_window_skips_removal_for_zero_weight(tmp_path, capsys):
    K = validate_complex([([0], 1), ([1], 1), ([0, 1], 0)])
    doc = write_complex(tmp_path / "edge.json", K)
    mdoc = write_morse(tmp_path / "f.json", [((0,), 0), ((1,), 0), ((0, 1), 1)])
    code, out, _ = run_cli(
        capsys, "morse", doc, mdoc, "--window", "1/2", "1", "--cell", "0,1"
    )
    assert code == 0
    assert out == (
        "cell: [0,1] f=1\n"
        "window: (1/2, 1]\n"
        "a-prime: 1/2\n"
        "K(a') == K(f(alpha)) minus alpha: yes\n"
        "alpha maximal in K(f(alpha)): yes\n"
        "collapse above: 0 steps, all same-weight\n"
        "collapse below: 0 steps, all same-weight\n"
        "removal: skipped (alpha has weight 0)\n"
    )


# Each patch breaks one identity behind the certificate's "yes" lines;
# the second item is the start of the message the check must give.
BROKEN_WINDOW = {
    "set-identity": (
        "real = m.level_subcomplex\n"
        "m.level_subcomplex = lambda K, f, c: real(K, f, 0 if c == Fraction(3, 2) else c)\n",
        "K(3/2) is not K(2) minus",
    ),
    # while the window is certified, every complex reports alpha as
    # not maximal, K(2) among them
    "maximality": (
        "real_window, real_maximal = m.critical_window, WeightedComplex.is_maximal\n"
        "def window(K, f, alpha, a, b):\n"
        "    WeightedComplex.is_maximal = lambda self, s: real_maximal(self, s) and s != alpha\n"
        "    return real_window(K, f, alpha, a, b)\n"
        "m.critical_window = window\n",
        "[0, 1, 2] is not maximal in K(2)",
    ),
    # one sign of d_1 flipped, so d_1 d_2 is no longer zero
    "removal": (
        "import importlib\n"
        "h = importlib.import_module('wmorse.homology')\n"
        "real = h._boundary_columns\n"
        "def flipped(K, n, cells):\n"
        "    columns = real(K, n, cells)\n"
        "    if n == 1:\n"
        "        first = columns[0]\n"
        "        first[min(first)] *= -1\n"
        "    return columns\n"
        "h._boundary_columns = flipped\n",
        "the boundary of [0, 1, 2] is not a cycle",
    ),
}
# each removal-theorem identity, broken on the two levels of the window:
# K(2) holds the triangle and K(3/2) does not
BROKEN_WINDOW.update(
    (f"theorem-{name}", (
        "import importlib\n"
        "h = importlib.import_module('wmorse.homology')\n"
        "from wmorse.homology import HomologyGroup\n"
        "real = h.homology\n"
        f"edits = {edits!r}\n"
        "def edited(K, max_dim):\n"
        "    side = 'K' if (0, 1, 2) in K else 'L'\n"
        "    groups = [h.group_at(real(K, max_dim), n) for n in range(max_dim + 1)]\n"
        "    return [edits.get((side, n), g) for n, g in enumerate(groups)]\n"
        "h.homology = edited\n",
        f"removing [0, 1, 2] {message}",
    ))
    for name, (edits, message) in BROKEN_REMOVAL.items()
)


@pytest.mark.parametrize("broken", sorted(BROKEN_WINDOW))
def test_morse_window_checks_survive_python_O(tmp_path, broken):
    doc, mdoc = disk_docs(tmp_path)
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "import wmorse.morse as m\n"
        "from wmorse.complexes import WeightedComplex\n"
        + BROKEN_WINDOW[broken][0]
        + "from wmorse.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = os.path.dirname(os.path.dirname(wmorse.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script,
         "morse", doc, mdoc, "--window", "3/2", "2", "--cell", "0,1,2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert f"InternalInvariantError: {BROKEN_WINDOW[broken][1]}" in proc.stderr
    assert proc.stdout == ""


def test_no_assert_in_the_package():
    # python -O strips asserts, so no printed check may rest on one
    package = pathlib.Path(wmorse.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


@pytest.mark.parametrize("flags", [
    ("--classify",),
    ("--window", "3/2", "2", "--cell", "0,1,2"),
])
def test_morse_reports_without_homology_ignore_the_dimension_cap(tmp_path, capsys, monkeypatch, flags):
    doc, mdoc = disk_docs(tmp_path)
    unset = run_cli(capsys, "morse", doc, mdoc, *flags)
    assert unset[0] == 0
    monkeypatch.setenv("WMORSE_MAX_DIM", "x")
    assert run_cli(capsys, "morse", doc, mdoc, *flags) == unset


def test_morse_collapse_bad_dimension_cap(xyyy_docs, capsys, monkeypatch):
    cdoc, mdoc, _ = xyyy_docs
    monkeypatch.setenv("WMORSE_MAX_DIM", "x")
    code, out, err = run_cli(capsys, "morse", cdoc, mdoc, "--collapse", "2", "5")
    assert code == 2
    assert out == ""
    assert "WMORSE_MAX_DIM must be an integer, got 'x'" in err


def test_morse_window_requires_cell(tmp_path, capsys):
    doc, mdoc = disk_docs(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["morse", doc, mdoc, "--window", "3/2", "2"])
    assert excinfo.value.code == 2
    assert "--cell" in capsys.readouterr().err


def test_morse_window_not_critical_exits_3(tmp_path, capsys):
    K = validate_complex([([0], 1), ([1], 1), ([0, 1], 2)])
    doc = write_complex(tmp_path / "edge.json", K)
    mdoc = write_morse(tmp_path / "f.json", [((0,), 0), ((1,), 2), ((0, 1), 1)])
    code, _, err = run_cli(
        capsys, "morse", doc, mdoc, "--window", "1/2", "1", "--cell", "0,1"
    )
    assert code == 3
    assert err.startswith("error: NotCritical")


def test_morse_window_extra_critical_exits_3(xyyy_docs, capsys):
    cdoc, mdoc, cell = xyyy_docs
    code, _, err = run_cli(
        capsys, "morse", cdoc, mdoc, "--window", "1", "5", "--cell", "0,1"
    )
    assert code == 3
    assert err.startswith("error: ExtraCritical")
    assert "[1, 3]" in err


def test_morse_window_no_admissible_threshold_exits_3(tmp_path, capsys):
    K = validate_complex([([0], 1), ([1], 1), ([2], 1), ([1, 2], 1)])
    doc = write_complex(tmp_path / "k.json", K)
    mdoc = write_morse(
        tmp_path / "f.json",
        [((0,), 1), ((1,), 0), ((2,), 1), ((1, 2), 1)],
    )
    code, _, err = run_cli(
        capsys, "morse", doc, mdoc, "--window", "1/2", "1", "--cell", "0"
    )
    assert code == 3
    assert err.startswith("error: NoValidAPrime")
    assert "shares the value 1" in err


def test_morse_window_value_outside_window_exits_2(tmp_path, capsys):
    doc, mdoc = disk_docs(tmp_path)
    code, _, err = run_cli(
        capsys, "morse", doc, mdoc, "--window", "0", "1", "--cell", "0,1,2"
    )
    assert code == 2
    assert err.startswith("error: ")


# --- sequence ----------------------------------------------------------------

def test_sequence_literal_golden(capsys):
    code, out, _ = run_cli(
        capsys, "sequence", "CTC", "--weights", DNA, "--woc-type", "2"
    )
    assert code == 0
    assert out == "H0 = Z^1 (+) Z/2 (+) Z/2 (+) Z/4\nH1 = Z^1\n"


def test_sequence_literal_json(capsys):
    code, out, _ = run_cli(
        capsys, "sequence", "CTC", "--weights", DNA, "--woc-type", "2", "--json"
    )
    assert code == 0
    assert json.loads(out) == {
        "sequence": "CTC",
        "homology": [
            {"dim": 0, "free_rank": 1, "torsion": [2, 2, 4]},
            {"dim": 1, "free_rank": 1, "torsion": []},
        ],
    }


def test_sequence_too_short_for_a_complex(capsys):
    code, out, _ = run_cli(capsys, "sequence", "A", "--weights", DNA)
    assert code == 0
    assert out == "(empty complex)\n"


def test_sequence_fasta_golden(tmp_path, capsys):
    fasta = tmp_path / "two.fa"
    fasta.write_text(">seq1 sample run\nCT\nC\n\n>seq2\nGTG\n")
    code, out, _ = run_cli(
        capsys, "sequence", str(fasta), "--weights", DNA, "--woc-type", "2"
    )
    assert code == 0
    assert out == (
        "# seq1 CTC\n"
        "H0 = Z^1 (+) Z/2 (+) Z/2 (+) Z/4\n"
        "H1 = Z^1\n"
        "\n"
        "# seq2 GTG\n"
        "H0 = Z^1 (+) Z/12\n"
        "H1 = Z^1\n"
    )


def test_sequence_fasta_json(tmp_path, capsys):
    fasta = tmp_path / "two.fa"
    fasta.write_text(">a\nCTC\n>b\nGTG\n")
    code, out, _ = run_cli(
        capsys, "sequence", str(fasta), "--weights", DNA, "--woc-type", "2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [r["id"] for r in payload["records"]] == ["a", "b"]
    assert payload["records"][1]["homology"][0] == {
        "dim": 0,
        "free_rank": 1,
        "torsion": [12],
    }


def test_sequence_custom_alphabet(capsys):
    code, out, _ = run_cli(
        capsys,
        "sequence", "xyyy",
        "--alphabet", "xy",
        "--weights", "x=6,y=10",
        "--woc-type", "3",
    )
    assert code == 0
    assert out == "H0 = Z^1 (+) Z/2\nH1 = 0\nH2 = 0\n"


def test_sequence_emit_complex_round_trip(tmp_path, capsys):
    emitted = tmp_path / "ctc.json"
    code, out, _ = run_cli(
        capsys,
        "sequence", "CTC",
        "--weights", DNA,
        "--woc-type", "2",
        "--emit-complex", str(emitted),
    )
    assert code == 0

    K, names = load_complex_document(str(emitted))
    assert names == {0: "C", 1: "CT", 2: "T", 3: "TC"}
    assert sorted(K.of_dim(1)) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert K.weight((0,)) == 2
    assert K.weight((0, 1)) == 8

    again = tmp_path / "ctc2.json"
    dump_complex_document(str(again), K, names)
    assert again.read_text() == emitted.read_text()

    code2, out2, _ = run_cli(capsys, "homology", str(emitted))
    assert code2 == 0
    assert out2 == out


def test_sequence_builds_each_record_once(tmp_path, capsys, monkeypatch):
    built = []
    real = wmorse.sequence.build_woc

    def build(seq, *args, **kwargs):
        built.append(seq)
        return real(seq, *args, **kwargs)

    monkeypatch.setattr(wmorse.sequence, "build_woc", build)
    fasta = tmp_path / "three.fa"
    fasta.write_text(">a\nCTC\n>b\nGTG\n>c\nCTC\n")
    code, out, _ = run_cli(capsys, "sequence", str(fasta), "--weights", DNA)
    assert code == 0
    assert built == ["CTC", "GTG"]
    blocks = out.split("\n\n")
    assert [b.splitlines()[0] for b in blocks] == ["# a CTC", "# b GTG", "# c CTC"]
    assert blocks[0].splitlines()[1:] == blocks[2].splitlines()[1:]

    emitted = tmp_path / "ctc.json"
    built.clear()
    assert run_cli(capsys, "sequence", "CTC", "--weights", DNA, "--woc-type", "2",
                   "--emit-complex", str(emitted))[0] == 0
    assert built == ["CTC"]
    K, names = real("CTC", {"A": 1, "C": 2, "G": 3, "T": 4}, 2)
    library = tmp_path / "library.json"
    dump_complex_document(str(library), K, dict(enumerate(names)))
    assert emitted.read_text() == library.read_text()


def test_sequence_has_no_constant_weight(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sequence", "CTC", "--weights", DNA, "--constant-weight", "7"])
    assert excinfo.value.code == 2
    assert "--constant-weight" in capsys.readouterr().err


def test_sequence_emit_complex_needs_single_record(tmp_path, capsys):
    fasta = tmp_path / "two.fa"
    fasta.write_text(">a\nCTC\n>b\nGTG\n")
    code, _, err = run_cli(
        capsys,
        "sequence", str(fasta),
        "--weights", DNA,
        "--emit-complex", str(tmp_path / "out.json"),
    )
    assert code == 2
    assert "single-sequence" in err


def test_sequence_rejects_unknown_symbols(capsys):
    code, _, err = run_cli(capsys, "sequence", "CTX", "--weights", DNA)
    assert code == 2
    assert "['X'] not in the alphabet" in err


@pytest.mark.parametrize("spec", ["A=x", "A1", " , "])
def test_sequence_rejects_bad_weight_specs(capsys, spec):
    code, _, err = run_cli(capsys, "sequence", "CTC", "--weights", spec)
    assert code == 2
    assert err.startswith("error: DocumentError")


def test_sequence_rejects_nonpositive_letter_weight(capsys):
    code, _, err = run_cli(
        capsys, "sequence", "CTC", "--weights", "A=1,C=0,G=3,T=4"
    )
    assert code == 2
    assert err.startswith("error: ZeroLetterWeight")


def test_sequence_respects_dimension_cap(capsys, monkeypatch):
    monkeypatch.setenv("WMORSE_MAX_DIM", "0")
    code, out, _ = run_cli(
        capsys, "sequence", "CTC", "--weights", DNA, "--woc-type", "2"
    )
    assert code == 0
    assert out == "H0 = Z^1 (+) Z/2 (+) Z/2 (+) Z/4\n"


# 3,000 digits: each weight is within the interpreter's digit limit, and
# products of coprime ones in the torsion are not
NINES = 10 ** 3000 - 1


@pytest.mark.parametrize("flags", [(), ("--json",)])
@pytest.mark.parametrize("command", ["sequence", "homology"])
def test_torsion_past_the_digit_limit_is_printed_in_full(tmp_path, capsys, command, flags):
    if command == "sequence":
        argv = ["sequence", "CTCC", "--weights", f"A=1,C={NINES},G=3,T={NINES}", "--woc-type", "4"]
        expected = wmorse.homology(wmorse.build_woc("CTCC", {"A": 1, "C": NINES, "G": 3, "T": NINES}, 4)[0])
    else:
        # two edges of coprime weights on unit vertices: H0 = Z (+) Z/(w(01) w(12))
        doc = {"simplices": [{"vertices": [v], "weight": 1} for v in range(3)]
               + [{"vertices": [0, 1], "weight": NINES}, {"vertices": [1, 2], "weight": NINES + 1}]}
        argv = ["homology", write_raw(tmp_path / "edges.json", doc)]
        expected = [wmorse.HomologyGroup(1, (NINES * (NINES + 1),)), wmorse.HomologyGroup(0)]
    assert max(max(g.torsion, default=0) for g in expected) > 10 ** 4300
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, *argv, *flags)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit  # lifted only while the report is written
    with unlimited_int_digits():
        if flags:
            assert json.loads(out)["homology"] == [
                {"dim": n, "free_rank": g.free_rank, "torsion": list(g.torsion)} for n, g in enumerate(expected)
            ]
        else:
            assert out == "".join(f"H{n} = {g}\n" for n, g in enumerate(expected))


def test_sequence_refuses_a_letter_weight_past_the_digit_limit(capsys):
    code, out, err = run_cli(capsys, "sequence", "CTC", "--weights", "A=1,C=" + "9" * 4301 + ",G=3,T=4")
    assert (code, out) == (2, "")
    assert err.startswith("error: DocumentError: bad weight for 'C': ")


def test_sequence_fasta_errors(tmp_path, capsys):
    blank = tmp_path / "blank.fa"
    blank.write_text("\n\n")
    code, _, err = run_cli(capsys, "sequence", str(blank), "--weights", DNA)
    assert code == 2
    assert "no FASTA records" in err

    headerless = tmp_path / "bare.fa"
    headerless.write_text("CTC\n")
    code, _, err = run_cli(capsys, "sequence", str(headerless), "--weights", DNA)
    assert code == 2
    assert "before any '>' header" in err


# --- one report per call -----------------------------------------------------------

def _calls_with_steps(tmp_path):
    """A greedy and a verified step-list collapse, a level collapse, and a window with a collapse on both sides."""
    triangle = write_complex(tmp_path / "triangle.json", filled_triangle())
    steps = write_raw(tmp_path / "steps.json", [[1, 2], [1]])
    K, names, f, _ = xyyy_setup()
    xyyy = write_complex(tmp_path / "xyyy.json", K, dict(enumerate(names)))
    xyyy_f = write_morse(tmp_path / "xyyy_morse.json", morse_entries(f))
    # tests/test_morse.py::circle_with_tails: the edge [1,2] is critical at 5
    tails = write_raw(tmp_path / "tails.json", {"simplices": [
        {"vertices": vs, "weight": 1} for vs in ([0], [1], [2], [3], [4], [0, 1], [0, 2], [1, 2], [2, 3], [0, 4])]})
    tails_f = write_morse(tmp_path / "tails_morse.json", [
        ((0,), 0), ((1,), 1), ((0, 1), 1), ((2,), 2), ((0, 2), 2), ((4,), 3), ((0, 4), 3),
        ((1, 2), 5), ((3,), 7), ((2, 3), 7)])
    return [
        ["collapse", triangle, "--auto-greedy"],
        ["collapse", triangle, "--steps", steps, "--verify"],
        ["morse", xyyy, xyyy_f, "--collapse", "2", "5"],
        ["morse", tails, tails_f, "--window", "1/2", "8", "--cell", "1,2"],
    ]


@pytest.mark.parametrize("unused, mode", [("_step_json", ()), ("_step_line", ("--json",))])
def test_each_call_builds_only_the_report_it_prints(tmp_path, capsys, monkeypatch, unused, mode):
    calls = [[*argv, *mode] for argv in _calls_with_steps(tmp_path)]
    printed = [run_cli(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in printed] == [0, 0, 0, 0]

    def unprinted(*args):
        raise AssertionError(f"{unused} built a report that is not printed")

    for module in (wmorse.cli, wmorse._cli_collapse, wmorse._cli_morse):
        monkeypatch.setattr(module, unused, unprinted)
    assert [run_cli(capsys, *argv) for argv in calls] == printed


# --- malformed input -------------------------------------------------------------

EDGE = {"simplices": [
    {"vertices": [0], "weight": 1}, {"vertices": [1], "weight": 1},
    {"vertices": [0, 1], "weight": 1},
]}
EDGE_VALUES = {"values": [
    {"vertices": [0], "value": 0}, {"vertices": [1], "value": 1},
    {"vertices": [0, 1], "value": 1},
]}


def _with_record(doc, key, i, **change):
    records = [dict(r) for r in doc[key]]
    records[i].update(change)
    return {**doc, key: records}


def _without(doc, key, i, field):
    records = [dict(r) for r in doc[key]]
    del records[i][field]
    return {**doc, key: records}


def _bad_complex(doc, message, *options, error="DocumentError"):
    def build(tmp_path):
        c = write_raw(tmp_path / "complex.json", doc)
        return ["homology", c, *options], message.format(c=c), error
    return build


def _bad_complex_text(text, message):
    def build(tmp_path):
        c = tmp_path / "complex.json"
        c.write_text(text)
        return ["homology", str(c)], message.format(c=c)
    return build


def _bad_morse(values, message, mode=("--classify",)):
    def build(tmp_path):  # values: a document, or its JSON text
        c = write_raw(tmp_path / "complex.json", EDGE)
        m = tmp_path / "morse.json"
        m.write_text(values if isinstance(values, str) else json.dumps(values))
        return ["morse", c, str(m), *mode], message.format(m=m)
    return build


def _listing(key, field, *vertex_lists):
    # records of the given vertex lists; the field (weight or value) of each is 1
    return {key: [{"vertices": vs, field: 1} for vs in vertex_lists]}


# a vertex id of more digits than the interpreter converts to an int by default
LONG_ID = "1" + "0" * 4400


# name -> a builder of (argv, error message[, error class if not DocumentError]) in a temporary directory
REJECTED = {
    "record-not-object": _bad_complex(
        {"simplices": [5]},
        "{c}: simplices[0]: expected an object with a 'vertices' list"),
    "vertices-empty": _bad_complex(
        _with_record(EDGE, "simplices", 0, vertices=[]),
        "{c}: simplices[0]: 'vertices' must be a nonempty list"),
    "vertices-not-list": _bad_complex(
        _with_record(EDGE, "simplices", 1, vertices=1),
        "{c}: simplices[1]: 'vertices' must be a nonempty list"),
    "negative-vertex": _bad_complex(
        _with_record(EDGE, "simplices", 0, vertices=[-1]),
        "{c}: simplices[0]: vertex ids must be non-negative integers"),
    "simplices-not-array": _bad_complex(
        {"simplices": {"vertices": [0]}},
        "{c}: 'simplices' must be an array"),
    "vertex-names-not-object": _bad_complex(
        {**EDGE, "vertex_names": ["x", "y"]},
        "{c}: 'vertex_names' must be an object"),
    "vertex-names-keys": _bad_complex(
        {**EDGE, "vertex_names": {"zero": "x"}},
        "{c}: 'vertex_names' keys must be integers"),
    "vertex-names-leading-zero": _bad_complex(
        {**EDGE, "vertex_names": {"0": "a", "00": "b"}},
        "{c}: 'vertex_names' key '00' is not written as a plain integer"),
    "vertex-names-underscore": _bad_complex(
        {**EDGE, "vertex_names": {"1_0": "x"}},
        "{c}: 'vertex_names' key '1_0' is not written as a plain integer"),
    "key-repeated-in-record": _bad_complex_text(
        '{"simplices": [{"vertices": [0], "weight": 1, "weight": 2}]}',
        "{c}: key 'weight' given twice in one object"),
    "key-repeated-at-top": _bad_complex_text(
        '{"simplices": [{"vertices": [0], "weight": 1}], "simplices": []}',
        "{c}: key 'simplices' given twice in one object"),
    "weight-missing": _bad_complex(
        _without(EDGE, "simplices", 2, "weight"),
        "{c}: simplices[2]: missing 'weight'"),
    "weight-not-integer": _bad_complex(
        _with_record(EDGE, "simplices", 2, weight="1"),
        "{c}: simplices[2]: 'weight' must be an integer"),
    # the builder refuses each of these; read again record by record, the bad id is named
    # before a repeated record, and a bool before or after the int it equals
    "repeat-before-negative-id": _bad_complex(
        _listing("simplices", "weight", [0], [0], [-1]),
        "{c}: simplices[2]: vertex ids must be non-negative integers"),
    "bool-id-after-its-int": _bad_complex(
        _listing("simplices", "weight", [1], [True]),
        "{c}: simplices[1]: vertex ids must be non-negative integers"),
    "bool-id-before-its-int": _bad_complex(
        _listing("simplices", "weight", [True], [1]),
        "{c}: simplices[0]: vertex ids must be non-negative integers"),
    "float-id": _bad_complex(
        _listing("simplices", "weight", [0], [0, 1.5]),
        "{c}: simplices[1]: vertex ids must be non-negative integers"),
    "long-literal-id": _bad_complex_text(
        json.dumps(_listing("simplices", "weight", [0], [-1, "BIG"], [1])).replace('"BIG"', LONG_ID),
        "{c}: simplices[1]: vertex ids must be non-negative integers"),
    "long-literal-id-first": _bad_complex_text(
        json.dumps(_listing("simplices", "weight", [0], ["BIG", -1])).replace('"BIG"', LONG_ID),
        "{c}: simplices[1]: integer literal with more than 4300 digits"),
    # each generator is canonicalized before the next is read: its repeated vertex comes first
    "constant-weight-repeat-before-negative-id": _bad_complex(
        {"simplices": [{"vertices": [0, 0]}, {"vertices": [1, -1]}]},
        "repeated vertex in [0, 0]", "--constant-weight", "2", error="DuplicateVertex"),
    "constant-weight-bool-id": _bad_complex(
        {"simplices": [{"vertices": [0, 1]}, {"vertices": [True]}]},
        "{c}: simplices[1]: vertex ids must be non-negative integers", "--constant-weight", "2"),
    "value-repeat-before-negative-id": _bad_morse(
        _listing("values", "value", [0], [0], [-1]),
        "{m}: values[2]: vertex ids must be non-negative integers"),
    "value-bool-id-after-its-int": _bad_morse(
        _listing("values", "value", [0], [1], [0, 1], [True]),
        "{m}: values[3]: vertex ids must be non-negative integers"),
    "value-bool-id-before-its-int": _bad_morse(
        _listing("values", "value", [True], [0], [1], [0, 1]),
        "{m}: values[0]: vertex ids must be non-negative integers"),
    "value-float-id": _bad_morse(
        _listing("values", "value", [0], [1], [0, 1.5]),
        "{m}: values[2]: vertex ids must be non-negative integers"),
    "value-long-literal-id": _bad_morse(
        json.dumps(_listing("values", "value", [0], ["BIG"], [1])).replace('"BIG"', LONG_ID),
        "{m}: values[1]: integer literal with more than 4300 digits"),
    "values-missing": _bad_morse(
        {"value": []},
        "{m}: expected an object with a 'values' array"),
    "values-not-array": _bad_morse(
        {"values": {}},
        "{m}: 'values' must be an array"),
    "value-missing": _bad_morse(
        _without(EDGE_VALUES, "values", 1, "value"),
        "{m}: values[1]: missing 'value'"),
    "value-not-number-or-string": _bad_morse(
        _with_record(EDGE_VALUES, "values", 1, value=[1]),
        "{m}: values[1]: 'value' must be an integer or a string"),
    "bad-cell": _bad_morse(
        EDGE_VALUES,
        "cannot parse cell '0,x'; expected comma-separated vertex ids",
        ("--window", "0", "1", "--cell", "0,x")),
    # a directory passes the existence check and then fails to open
    "unreadable-fasta": lambda tmp_path: (
        ["sequence", str(tmp_path), "--weights", DNA],
        f"cannot read {tmp_path}: Is a directory"),
    "weights-empty-symbol": lambda tmp_path: (
        ["sequence", "ACG", "--weights", "=3,A=1,C=2,G=3,T=4"],
        "bad weight entry '=3', expected a one-character symbol"),
    "weights-long-symbol": lambda tmp_path: (
        ["sequence", "ACG", "--weights", "AC=9,A=1,C=2,G=3,T=4"],
        "bad weight entry 'AC=9', expected a one-character symbol"),
    "weights-repeated": lambda tmp_path: (
        ["sequence", "ACG", "--weights", "A=1,C=2,G=3,C=5"],
        "weight for 'C' given twice"),
    "emit-one-letter": lambda tmp_path: (
        ["sequence", "A", "--weights", DNA, "--emit-complex", str(tmp_path / "out.json")],
        "nothing to emit: the substring complex is empty"),
    "emit-to-directory": lambda tmp_path: (
        ["sequence", "CTC", "--weights", DNA, "--emit-complex", str(tmp_path)],
        f"cannot write {tmp_path}: Is a directory"),
    "emit-under-missing-directory": lambda tmp_path: (
        ["sequence", "CTC", "--weights", DNA, "--emit-complex", str(tmp_path / "missing" / "out.json")],
        f"cannot write {tmp_path / 'missing' / 'out.json'}: No such file or directory"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_malformed_input_exits_2(tmp_path, capsys, case):
    argv, message, *error = REJECTED[case](tmp_path)  # a DocumentError unless the row names another
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {error[0] if error else 'DocumentError'}: {message}\n"


# case -> the entry its error names
LONG_LITERAL_ENTRY = {
    "weight": "complex.json: simplices[2]",
    "value": "morse.json: values[1]",
    "string-value": "morse.json: values[1]",
    "step": "steps.json: entry 0",
}


@pytest.mark.parametrize("case", sorted(LONG_LITERAL_ENTRY))
def test_long_integer_literals_name_their_entry(tmp_path, capsys, case):
    # more digits than the interpreter converts to an int by default
    digits = "1" + "0" * 4400

    def write(name, doc, literal=digits):
        path = tmp_path / name
        path.write_text(json.dumps(doc).replace('"BIG"', literal))
        return str(path)

    if case == "weight":
        argv = ["homology", write("complex.json", _with_record(EDGE, "simplices", 2, weight="BIG"))]
    elif case == "step":
        argv = ["collapse", write("complex.json", EDGE), "--steps", write("steps.json", [["BIG"]])]
    else:
        values = _with_record(EDGE_VALUES, "values", 1, value="BIG")
        literal = f'"{digits}"' if case == "string-value" else digits
        argv = ["morse", write("complex.json", EDGE), write("morse.json", values, literal), "--classify"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: DocumentError: {tmp_path / LONG_LITERAL_ENTRY[case]}: ")
    assert "more than 4300 digits" in err
    assert len(err) < 300


# case -> a call that gets several thousand characters of text it cannot parse
LONG_TEXT = {
    "rational": lambda: parse_rational("x" * 10000, "f.json: values[1]"),
    "weights": lambda: main(["sequence", "ACG", "--weights", "A=" + "x" * 5000]),
    "cell": lambda: wmorse._cli_morse._parse_cell("x" * 5000),
    "max-dim": lambda: main(["sequence", "ACG", "--weights", DNA]),
}


@pytest.mark.parametrize("case", sorted(LONG_TEXT))
def test_long_unparsable_text_is_not_echoed(capsys, monkeypatch, case):
    if case == "max-dim":
        monkeypatch.setenv("WMORSE_MAX_DIM", "x" * 3000)
    try:
        assert LONG_TEXT[case]() == 2
        message = capsys.readouterr().err
    except DocumentError as e:
        message = str(e)
    assert "characters)" in message
    assert len(message) < 300


# --- wiring -------------------------------------------------------------------

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == f"wmorse {__version__}"


def test_subcommand_is_required(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_repeated_runs_are_identical(xyyy_docs, tmp_path, capsys):
    cdoc, mdoc, _ = xyyy_docs
    first = run_cli(capsys, "morse", cdoc, mdoc, "--collapse", "2", "5")
    second = run_cli(capsys, "morse", cdoc, mdoc, "--collapse", "2", "5")
    assert first == second

    fasta = tmp_path / "two.fa"
    fasta.write_text(">a\nCTC\n>b\nGTG\n")
    runs = {
        run_cli(capsys, "sequence", str(fasta), "--weights", DNA, "--woc-type", "2")
        for _ in range(2)
    }
    assert len(runs) == 1


# --- the console entry point, run as a child process ---------------------------

ENTRY = "from wmorse.cli import entrypoint; entrypoint()"
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def run_entrypoint(*argv, stdout=subprocess.PIPE, entry=ENTRY, preexec_fn=None, **env):
    src = os.path.dirname(os.path.dirname(wmorse.__file__))
    return subprocess.run([sys.executable, "-c", entry, *argv], stdout=stdout, stderr=subprocess.PIPE,
                          env=dict(os.environ, PYTHONPATH=src, **env), preexec_fn=preexec_fn, timeout=60)


@pytest.mark.parametrize("unbuffered, argv", [
    ("1", ["sequence", "ACGTACG", "--weights", DNA, "--woc-type", "2"]),
    ("", ["sequence", "ACGTACG", "--weights", DNA, "--woc-type", "2"]),
    ("", ["--version"]),
], ids=["unbuffered", "buffered", "buffered-version"])
def test_closed_stdout_exits_141_with_nothing_on_stderr(unbuffered, argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = run_entrypoint(*argv, stdout=write_end, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_no_stdout_at_start_still_runs():
    # started with descriptor 1 closed, the interpreter sets sys.stdout to None
    proc = run_entrypoint("sequence", "CTC", "--weights", DNA, entry="import sys; sys.stdout = None; " + ENTRY)
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize("argv", [["bogus"], ["sequence", "CTC", "--weights", "A=0"]],
                         ids=["usage-error", "validation-error"])
def test_no_stderr_at_start_still_refuses_with_exit_2(argv):
    # started with descriptor 2 closed, the interpreter sets sys.stderr to None
    proc = run_entrypoint(*argv, entry="import sys; sys.stderr = None; " + ENTRY)
    assert (proc.returncode, proc.stderr) == (2, b"")


@pytest.mark.parametrize("argv, code", [
    (["sequence", "CTC", "--weights", "A=0"], 2),
    (["collapse", "{doc}", "--steps", "{steps}"], 3),
], ids=["validation-error", "non-free-step"])
def test_closed_descriptor_2_keeps_the_refusal_off_stdout(tmp_path, argv, code):
    # descriptor 2 is closed in the child itself, so the interpreter starts with sys.stderr None;
    # print(file=None) would write the refusal into the report stream
    paths = {"doc": write_complex(tmp_path / "triangle.json", filled_triangle()),
             "steps": write_raw(tmp_path / "steps.json", [[0]])}
    proc = run_entrypoint(*(a.format(**paths) for a in argv), preexec_fn=lambda: os.close(2))
    assert (proc.returncode, proc.stdout) == (code, b"")


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["--help"], 0),
    (["bogus"], 2),
    (["homology", "{missing}"], 2),
    (["collapse", "{doc}", "--steps", "{steps}"], 3),
], ids=["version", "help", "usage-error", "validation-error", "non-free-step"])
def test_console_entry_exits_with_the_code_and_text_of_main(tmp_path, capsys, monkeypatch, argv, code):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to this width on both sides
    paths = {"missing": str(tmp_path / "missing.json"),
             "doc": write_complex(tmp_path / "triangle.json", filled_triangle()),
             "steps": write_raw(tmp_path / "steps.json", [[0]])}
    argv = [a.format(**paths) for a in argv]
    proc = run_entrypoint(*argv)
    try:
        returned = main(argv)
    except SystemExit as e:
        returned = e.code
    captured = capsys.readouterr()
    assert returned == code
    assert (captured.out if code == 0 else captured.err).strip()
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (code, captured.out, captured.err)


def test_console_entry_writes_the_whole_report_and_document(tmp_path, capsys):
    # 15,060 cells: the emitted document is about 1.8 MB, all of it on disk when the child is gone
    argv = ["sequence", "ACGTACGTA", "--weights", DNA, "--woc-type", "3", "--json", "--emit-complex"]
    proc = run_entrypoint(*argv, str(tmp_path / "child.json"))
    code, out, err = run_cli(capsys, *argv, str(tmp_path / "main.json"))
    assert (code, err) == (0, "")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out.encode(), b"")
    assert (tmp_path / "child.json").read_bytes() == (tmp_path / "main.json").read_bytes()


def test_ascii_locale_reads_and_writes_utf8(tmp_path):
    doc = tmp_path / "named.json"
    doc.write_bytes(b'{"simplices": [{"vertices": [0], "weight": 1}], "vertex_names": {"0": "\xc3\xa9"}}')
    proc = run_entrypoint("homology", str(doc), **ASCII_LOCALE)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"H0 = Z^1\n", b"")

    fasta = tmp_path / "reads.fa"
    fasta.write_bytes(b">r\xc3\xa9 first\nCTC\n")
    proc = run_entrypoint("sequence", str(fasta), "--weights", DNA, "--woc-type", "2", **ASCII_LOCALE)
    assert proc.stderr == b""
    assert proc.stdout == "# ré CTC\nH0 = Z^1 (+) Z/2 (+) Z/2 (+) Z/4\nH1 = Z^1\n".encode()


@pytest.mark.parametrize("name, data", [
    ("named.json", b'{"simplices": [{"vertices": [0], "weight": 1}], "vertex_names": {"0": "\xe9"}}'),
    ("reads.fa", b">r\xe9\nCTC\n"),
], ids=["json", "fasta"])
def test_bytes_that_are_not_utf8_are_refused_by_path(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    argv = ["homology", str(path)] if name.endswith(".json") else ["sequence", str(path), "--weights", DNA]
    proc = run_entrypoint(*argv, **ASCII_LOCALE)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode().startswith(f"error: DocumentError: {path}: not UTF-8 text: byte ")


BOM = b"\xef\xbb\xbf"


def test_leading_byte_order_mark_is_dropped(tmp_path, capsys):
    doc = tmp_path / "edge.json"
    doc.write_bytes(BOM + b'{"simplices": [{"vertices": [0], "weight": 1}]}\n')
    assert run_cli(capsys, "homology", str(doc)) == (0, "H0 = Z^1\n", "")

    fasta = tmp_path / "reads.fa"
    fasta.write_bytes(BOM + b">r1\nCTC\n")
    code, out, err = run_cli(capsys, "sequence", str(fasta), "--weights", DNA, "--woc-type", "2")
    assert (code, err) == (0, "")
    assert out == "# r1 CTC\nH0 = Z^1 (+) Z/2 (+) Z/2 (+) Z/4\nH1 = Z^1\n"


def test_bytes_after_a_byte_order_mark_are_counted_from_the_start(tmp_path, capsys):
    fasta = tmp_path / "reads.fa"
    fasta.write_bytes(BOM + b">r\xe9\nCTC\n")
    code, out, err = run_cli(capsys, "sequence", str(fasta), "--weights", DNA)
    assert (code, out) == (2, "")
    assert err == f"error: DocumentError: {fasta}: not UTF-8 text: byte 5 is b'\\xe9'\n"
