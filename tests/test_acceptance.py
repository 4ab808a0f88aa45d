"""Acceptance gate for the whole package.

Ten criteria, one test each. Run

    pytest -v tests/test_acceptance.py

to get exactly one PASSED or FAILED line per criterion. The criteria
cover the golden homology tables, the removal and collapse theorems as
randomized property suites, the Morse certificate pipeline, and the
command line contract.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from wmorse import (
    HomologyGroup,
    IntMatrix,
    WeightedComplex,
    boundary_matrix,
    elementary_collapse,
    elementary_removal,
    faces,
    group_at,
    homology,
    level_subcomplex,
    morse_collapse,
    sequence_fingerprint,
    smith_normal_form,
    validate_complex,
)
from wmorse.cli import main
from wmorse.complexes import closure
from wmorse.documents import dump_complex_document

from conftest import (
    filled_triangle,
    full_simplex,
    groups_equal_padded,
    hollow_triangle_w2,
    minor_gcd_factors,
    mul,
    sphere,
    xyyy_setup,
)

Z = HomologyGroup(1)
Z_MOD_2 = HomologyGroup(0, (2,))
TRIVIAL = HomologyGroup(0)

DNA = {"A": 1, "C": 2, "G": 3, "T": 4}
DNA_ALT = {"A": 1, "C": 2, "G": 1, "T": 3}


@pytest.fixture(autouse=True)
def _no_dim_cap(monkeypatch):
    monkeypatch.delenv("WMORSE_MAX_DIM", raising=False)


def random_wsc(rng) -> WeightedComplex:
    """A small random weighted complex with mixed-sign weights.

    Weights are assigned upward from the vertices, each simplex getting
    a multiple of the least common multiple of its facet weights, so
    divisibility holds by construction while equal-weight, associate,
    and strictly-growing free pairs all occur.
    """
    n = rng.randint(2, 6)
    generators = []
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(1, min(4, n))
        generators.append(tuple(sorted(rng.sample(range(n), k))))
    sims = sorted(closure(generators), key=lambda s: (len(s), s))
    weights = {}
    for s in sims:
        if len(s) == 1:
            w = rng.choice((1, 1, 1, 2, 3, 4, 6))
        else:
            base = 1
            for g in faces(s):
                base = math.lcm(base, abs(weights[g]))
            w = base * rng.choice((1, 1, 1, 2, 3))
        if rng.random() < 0.25:
            w = -w
        weights[s] = w
    return validate_complex(weights.items())


def test_criterion_01_collapse_chain_homology_table():
    started = time.perf_counter()
    K0 = filled_triangle()
    K1 = K0.without([(1, 2), (0, 1, 2)])
    K2 = K1.without([(1,), (0, 1)])
    K3 = K2.without([(0,), (0, 2)])
    chain = [K0, K1, K2, K3]

    expected_h0 = [
        HomologyGroup(1, (2,)),
        HomologyGroup(1, (2,)),
        Z,
        Z,
    ]
    for K, want in zip(chain, expected_h0):
        groups = homology(K)
        assert groups[0] == want
        assert all(g == TRIVIAL for g in groups[1:])
    assert time.perf_counter() - started < 1.0


def test_criterion_02_triangle_boundary_removal():
    K = hollow_triangle_w2()
    assert homology(K) == [HomologyGroup(1, (2, 2)), Z]

    L, report = elementary_removal(K, (1, 2))
    assert report.class_order.kind == "zero"
    assert report.gains_free_summand
    assert report.quotient_below == HomologyGroup(1, (2, 2))

    groups = homology(L)
    assert group_at(groups, 1) == TRIVIAL
    assert group_at(groups, 0) == HomologyGroup(1, (2, 2))
    predicted_h1 = HomologyGroup(
        group_at(groups, 1).free_rank + 1, group_at(groups, 1).torsion
    )
    assert predicted_h1 == group_at(homology(K), 1)


def test_criterion_03_dna_fingerprints():
    ctc = sequence_fingerprint("CTC", DNA, 2)
    assert ctc == [HomologyGroup(1, (2, 2, 4)), Z]

    gtg = sequence_fingerprint("GTG", DNA, 2)
    assert gtg == [HomologyGroup(1, (12,)), Z]

    aaa = sequence_fingerprint("AAA", DNA, 2)
    assert group_at(aaa, 0) == Z
    assert all(g == TRIVIAL for g in aaa[1:])

    assert sequence_fingerprint("CTC", DNA_ALT, 2)[0] == HomologyGroup(1, (6,))
    assert sequence_fingerprint("CCT", DNA_ALT, 2)[0] == HomologyGroup(1, (2, 6))


def test_criterion_04_xyyy_fingerprint_formula():
    started = time.perf_counter()
    rng = random.Random(53101)
    for _ in range(100):
        a, b = rng.randint(1, 50), rng.randint(1, 50)
        g = math.gcd(a, b)
        expected_h0 = HomologyGroup(1, (g,) if g > 1 else ())
        fp = sequence_fingerprint("xyyy", {"x": a, "y": b}, 3)
        assert fp == [expected_h0, TRIVIAL, TRIVIAL], (a, b)
    assert time.perf_counter() - started < 10.0


def test_criterion_05_single_letter_runs_are_acyclic():
    for n in range(2, 9):
        for a in (1, 2, 7):
            fp = sequence_fingerprint("x" * n, {"x": a}, 3)
            assert len(fp) == n - 1, (n, a)
            assert fp[0] == Z, (n, a)
            assert all(g == TRIVIAL for g in fp[1:]), (n, a)


def test_criterion_06_guaranteed_collapses_preserve_homology():
    rng = random.Random(62341)
    complexes = 0
    qualifying = 0
    while complexes < 500:
        K = random_wsc(rng)
        complexes += 1
        before = None
        for sigma in K:
            tau = K.free_coface(sigma)
            if tau is None:
                continue
            ws, wt = K.weight(sigma), K.weight(tau)
            if ws == 0 or abs(ws) != abs(wt):
                continue
            if before is None:
                before = homology(K)
            L, _ = elementary_collapse(K, sigma)
            qualifying += 1
            assert groups_equal_padded(before, homology(L)), (
                dict(K.items()),
                sigma,
            )
    assert complexes >= 500
    assert qualifying >= 200


def test_criterion_07_removal_reports_match_recomputation():
    rng = random.Random(73517)
    removals = 0
    while removals < 500:
        K = random_wsc(rng)
        before = None
        for sigma in list(K):
            if not K.is_maximal(sigma) or K.weight(sigma) == 0:
                continue
            if before is None:
                before = homology(K)
            L, report = elementary_removal(K, sigma)
            after = homology(L)
            removals += 1
            n = len(sigma) - 1
            witness = (dict(K.items()), sigma)

            for k in range(max(len(before), len(after)) + 1):
                if k not in (n - 1, n):
                    assert group_at(before, k) == group_at(after, k), witness

            if n >= 1:
                assert report.quotient_below == group_at(before, n - 1), witness

            assert report.gains_free_summand == report.class_order.is_torsion
            got, left = group_at(before, n), group_at(after, n)
            if report.gains_free_summand:
                assert got.free_rank == left.free_rank + 1, witness
                assert got.torsion == left.torsion, witness
            else:
                assert got == left, witness
    assert removals >= 500


def test_criterion_08_level_collapse_certificate():
    K, names, f, cell = xyyy_setup()
    cert = morse_collapse(K, f, 2, 5)

    assert cert.all_same_weight
    assert len(cert.steps) == 7
    assert groups_equal_padded(homology(cert.start), homology(cert.end))

    expected_level = {
        cell("x"), cell("xy"), cell("y"),
        cell("x", "xy"), cell("xy", "y"),
    }
    assert set(level_subcomplex(K, f, 2)) == expected_level
    assert set(cert.end) == expected_level


def test_criterion_09_structural_invariants():
    rng = random.Random(91103)

    for _ in range(100):
        K = random_wsc(rng)
        for n in range(1, K.dimension + 1):
            product = mul(boundary_matrix(K, n), boundary_matrix(K, n + 1))
            assert all(entry == 0 for entry in product.entries)

    for weight in (1, 5):
        for n in range(1, 5):
            groups = homology(full_simplex(n, weight))
            assert groups[0] == Z
            assert all(g == TRIVIAL for g in groups[1:]), (n, weight)
        assert homology(sphere(0, weight)) == [HomologyGroup(2)]
        for n in range(1, 4):
            groups = homology(sphere(n, weight))
            expected = [Z] + [TRIVIAL] * (n - 1) + [Z]
            assert groups == expected, (n, weight)

    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        entries = [
            [rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)
        ]
        factors = smith_normal_form(IntMatrix.from_rows(entries)).factors
        for d, e in zip(factors, factors[1:]):
            assert e % d == 0
        assert factors == minor_gcd_factors(entries, cols)


def test_criterion_10_cli_contract(tmp_path, capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return captured.out

    def run_twice(*argv):
        first = run(*argv)
        assert run(*argv) == first
        return first

    triangle = tmp_path / "triangle.json"
    dump_complex_document(str(triangle), filled_triangle())
    assert run_twice("homology", str(triangle)) == (
        "H0 = Z^1 (+) Z/2\nH1 = 0\nH2 = 0\n"
    )

    steps = tmp_path / "steps.json"
    steps.write_text(json.dumps([[1, 2], [1], [0]]))
    assert run_twice("collapse", str(triangle), "--steps", str(steps)) == (
        "step 1: sigma=[1,2] tau=[0,1,2] verdict=same-weight w(sigma)=4 w(tau)=4\n"
        "step 2: sigma=[1] tau=[0,1] verdict=not-guaranteed w(sigma)=1 w(tau)=2\n"
        "step 3: sigma=[0] tau=[0,2] verdict=not-guaranteed w(sigma)=1 w(tau)=2\n"
        "steps: 3\n"
        "remaining: 1 simplices\n"
        "guaranteed: no\n"
    )

    K, names, f, cell = xyyy_setup()
    xyyy = tmp_path / "xyyy.json"
    dump_complex_document(str(xyyy), K, {i: s for i, s in enumerate(names)})
    morse_doc = tmp_path / "xyyy_morse.json"
    morse_doc.write_text(
        json.dumps(
            {
                "values": [
                    {"vertices": list(s), "value": int(v)} for s, v in f.items()
                ]
            }
        )
    )
    collapse_out = run_twice(
        "morse", str(xyyy), str(morse_doc), "--collapse", "2", "5"
    )
    assert collapse_out.startswith("window: (2, 5]\n")
    assert "steps: 7\n" in collapse_out
    assert collapse_out.endswith(
        "H0: start=Z^1 (+) Z/2 end=Z^1 (+) Z/2 agree=yes\n"
        "H1: start=0 end=0 agree=yes\n"
        "H2: start=0 end=0 agree=yes\n"
        "agree: yes\n"
    )

    weights = "A=1,C=2,G=3,T=4"
    sequence_out = run_twice(
        "sequence", "CTC", "--weights", weights, "--woc-type", "2"
    )
    assert sequence_out == "H0 = Z^1 (+) Z/2 (+) Z/2 (+) Z/4\nH1 = Z^1\n"
    assert run_twice("sequence", "GTG", "--weights", weights, "--woc-type", "2") == (
        "H0 = Z^1 (+) Z/12\nH1 = Z^1\n"
    )
    assert run_twice("sequence", "AAA", "--weights", weights, "--woc-type", "2") == (
        "H0 = Z^1\nH1 = 0\n"
    )

    emitted = tmp_path / "ctc.json"
    emit_out = run(
        "sequence", "CTC",
        "--weights", weights,
        "--woc-type", "2",
        "--emit-complex", str(emitted),
    )
    assert emit_out == sequence_out
    assert run_twice("homology", str(emitted)) == sequence_out

    round_trip = tmp_path / "ctc_round_trip.json"
    from wmorse.documents import load_complex_document

    K2, names2 = load_complex_document(str(emitted))
    dump_complex_document(str(round_trip), K2, names2)
    assert round_trip.read_bytes() == emitted.read_bytes()
