"""Substring posets, order complexes, weightings, and fingerprints."""

import importlib
import itertools
import time
from collections import Counter
from functools import reduce
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from conftest import constant_table
from wmorse import (
    ALPHABETS,
    DivisibilityViolation,
    HomologyGroup,
    SimplicialComplex,
    UnweightedSymbol,
    WeightedComplex,
    WocType,
    ZeroLetterWeight,
    build_woc,
    homology,
    order_complex,
    sequence_fingerprint,
    substrings,
)
from wmorse.cli import main
from wmorse.complexes import faces
from wmorse.sequence import MAX_SIMPLICES, check_letter_weights

sequence_module = importlib.import_module("wmorse.sequence")

DNA_WEIGHTS = {"A": 1, "C": 2, "G": 3, "T": 4}
ALT_WEIGHTS = {"A": 1, "C": 2, "G": 1, "T": 3}

# the fingerprints of ACGTACGT (4,451 simplices), as the engine without
# clearing computed them: per dimension, the free rank and the count of
# each torsion coefficient
ACGTACGT = {
    1: [(1, {2: 1})] + [(0, {})] * 6,
    2: [(1, {2: 2, 12: 1}), (0, {2: 27, 4: 1, 12: 20}), (0, {2: 105, 4: 5, 12: 101}),
        (0, {2: 163, 4: 15, 12: 166}), (0, {2: 110, 4: 20, 12: 110}), (0, {2: 28, 4: 8, 12: 28}),
        (0, {})],
    3: [(1, {2: 1}), (0, {2: 1}), (0, {6: 1})] + [(0, {})] * 4,
    4: [(1, {2: 2, 12: 1}), (0, {2: 27, 4: 1, 12: 19, 24: 1}),
        (0, {2: 105, 4: 5, 12: 93, 24: 5, 48: 1, 144: 1, 288: 1}),
        (0, {2: 163, 4: 15, 12: 158, 24: 4, 48: 1, 144: 2, 288: 1}),
        (0, {2: 110, 4: 20, 12: 110}), (0, {2: 28, 4: 8, 12: 28}), (0, {})],
}

short_strings = st.text(alphabet="ab", min_size=0, max_size=6)
dna_strings = st.text(alphabet="ACGT", min_size=2, max_size=5)


class TestSubstrings:
    def test_proper_substrings_are_collected_once(self):
        assert substrings("CTC") == ("C", "CT", "T", "TC")
        assert substrings("AAA") == ("A", "AA")
        assert substrings("AB") == ("A", "B")

    def test_short_strings_have_empty_posets(self):
        assert len(substrings("")) == 0
        assert len(substrings("X")) == 0

    @settings(max_examples=100, deadline=None)
    @given(short_strings)
    def test_element_count_bound(self, s):
        # at most n(n+1)/2 substrings exist, and the string itself is dropped
        n = len(s)
        assert len(substrings(s)) <= max(0, n * (n + 1) // 2 - 1)

    @settings(max_examples=100, deadline=None)
    @given(short_strings)
    def test_partial_order_axioms(self, s):
        # order_complex reads "t in u" as the order on distinct sorted strings
        elements = substrings(s)
        assert list(elements) == sorted(set(elements))
        for t, u in itertools.permutations(elements, 2):
            if t in u and u in t:
                raise AssertionError("antisymmetry violated")
        for t, u, v in itertools.product(elements, repeat=3):
            if t in u and u in v:
                assert t in v


class TestOrderComplex:
    def test_square_for_alternating_codon(self):
        oc = order_complex(substrings("CTC"))
        assert oc.names == ("C", "CT", "T", "TC")
        assert set(oc.complex.simplices) == {
            (0,), (1,), (2,), (3,),
            (0, 1), (0, 3), (1, 2), (2, 3),
        }

    def test_takes_any_iterable_of_strings(self):
        oc = order_complex(iter(["TC", "C", "T", "CT", "C"]))
        assert oc == order_complex(substrings("CTC"))

    @pytest.mark.parametrize("max_dim, tests", [(-1, 0), (0, 0), (1, 1081), (2, 1081), (None, 1081)])
    def test_only_names_with_a_chain_to_extend_are_tested_for_containment(self, max_dim, tests):
        # below max_dim 1 no chain grows, so the walk needs no containment test;
        # from there on every shorter name is one, 1,081 over these 47 names
        class Counted(str):
            calls = 0

            def __contains__(self, other):
                Counted.calls += 1
                return str.__contains__(self, other)

        names = substrings("ACGTTGCAAC")
        assert order_complex(map(Counted, names), max_dim=max_dim) == order_complex(names, max_dim=max_dim)
        assert Counted.calls == tests

    def test_strip_complex_for_xyyy(self):
        oc = order_complex(substrings("xyyy"))
        assert oc.names == ("x", "xy", "xyy", "y", "yy", "yyy")
        assert oc.complex.of_dim(1) == (
            (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5))
        assert oc.complex.of_dim(2) == ((0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5))
        assert oc.complex.of_dim(3) == ()

    def test_single_letter_run_gives_full_simplex(self):
        oc = order_complex(substrings("xxxxx"))
        # runs x, xx, xxx, xxxx form a chain, so every subset is a simplex
        assert len(oc.complex) == 2 ** 4 - 1

    def test_dimension_cap(self):
        full = order_complex(substrings("xxxxxxx"))
        capped = order_complex(substrings("xxxxxxx"), max_dim=2)
        assert capped.complex.dimension == 2
        expected = {s for s in full.complex.simplices if len(s) <= 3}
        assert capped.complex.simplices == expected

    @settings(max_examples=60, deadline=None)
    @given(short_strings)
    def test_simplices_are_exactly_the_chains(self, s):
        oc = order_complex(substrings(s))
        names = oc.names
        for sigma in oc.complex.simplices:
            for i, j in itertools.combinations(sigma, 2):
                assert names[i] in names[j] or names[j] in names[i]
        # every comparable pair shows up as an edge
        for i, j in itertools.combinations(range(len(names)), 2):
            if names[i] in names[j] or names[j] in names[i]:
                assert (i, j) in oc.complex.simplices


class TestChainBudget:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.text(alphabet="abc", max_size=6), max_size=12),
           st.none() | st.integers(min_value=0, max_value=5))
    def test_counted_chains_are_the_listed_simplices(self, strings, max_dim):
        oc = order_complex(strings, max_dim=max_dim)
        names = oc.names
        cap = len(names) if max_dim is None else max_dim + 1
        # brute force: every set of at most cap pairwise comparable names
        chains = {sigma for k in range(1, cap + 1)
                  for sigma in itertools.combinations(range(len(names)), k)
                  if all(names[i] in names[j] or names[j] in names[i]
                         for i, j in itertools.combinations(sigma, 2))}
        assert oc.complex.simplices == chains

    def test_one_letter_runs_are_refused_before_listing(self):
        with pytest.raises(ValueError, match=rf"at least 262,143 simplices, over the budget of {MAX_SIMPLICES:,}"):
            order_complex(substrings("A" * 30))
        # 2 ** 29 - 1 chains in all, and counting stops past the budget at
        # 2 ** 18 - 1; but only 29 + C(29, 2) of at most two names
        assert len(order_complex(substrings("A" * 30), max_dim=1).complex) == 29 + 406

    @pytest.mark.parametrize("s, count", [("ACGTACGTAC", 50_950), ("ACGTACGTACG", 172_365)])
    def test_budget_admits_the_measured_fingerprints(self, s, count):
        assert len(order_complex(substrings(s)).complex) == count <= MAX_SIMPLICES

    def test_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr("wmorse.sequence.MAX_SIMPLICES", 15)
        assert len(order_complex(substrings("xxxxx")).complex) == 15
        with pytest.raises(ValueError, match="at least 31 simplices, over the budget of 15"):
            order_complex(substrings("xxxxxx"))

    def test_empty_string_is_inside_every_name(self):
        oc = order_complex(["", "a", "ab"])
        assert oc.names == ("", "a", "ab") and len(oc.complex) == 7

    def test_command_line_exits_2_without_building_a_complex(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a complex was built past the budget")

        monkeypatch.delenv("WMORSE_MAX_DIM", raising=False)
        monkeypatch.setattr("wmorse.sequence.SimplicialComplex", refuse)
        assert main(["sequence", "A" * 30, "--weights", "A=1,C=2,G=3,T=4", "--woc-type", "2"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: the substring order complex has at least 262,143 simplices, over the budget of {MAX_SIMPLICES:,}\n"


class TestWeighting:
    def test_rules_per_type(self):
        assert WocType.TYPE_1.string_rule == "lcm"
        assert WocType.TYPE_1.simplex_rule == "lcm"
        assert WocType.TYPE_2.string_rule == "lcm"
        assert WocType.TYPE_2.simplex_rule == "product"
        assert WocType.TYPE_3.string_rule == "product"
        assert WocType.TYPE_3.simplex_rule == "lcm"
        assert WocType.TYPE_4.string_rule == "product"
        assert WocType.TYPE_4.simplex_rule == "product"

    def test_codon_weights_type_2(self):
        K, names = build_woc("CTC", DNA_WEIGHTS, 2)
        ids = {name: i for i, name in enumerate(names)}
        assert K.weight((ids["CT"],)) == 4
        assert K.weight((ids["TC"],)) == 4
        assert K.weight(tuple(sorted((ids["C"], ids["TC"])))) == 8

    def test_codon_weights_type_1(self):
        K, names = build_woc("CTC", DNA_WEIGHTS, WocType.TYPE_1)
        ids = {name: i for i, name in enumerate(names)}
        assert K.weight(tuple(sorted((ids["C"], ids["TC"])))) == 4

    def test_product_string_weights_type_3(self):
        K, names = build_woc("xyyy", {"x": 2, "y": 3}, 3)
        assert names == ("x", "xy", "xyy", "y", "yy", "yyy")
        assert [K.weight((i,)) for i in range(6)] == [2, 6, 18, 3, 9, 27]
        assert K.weight((0, 1)) == 6       # lcm(2, 6)
        assert K.weight((3, 4, 5)) == 27   # lcm(3, 9, 27)

    def test_product_simplex_weights_type_4(self):
        K, names = build_woc("xyyy", {"x": 2, "y": 3}, 4)
        assert K.weight((0, 1)) == 12      # 2 * 6

    def test_letter_weight_validation(self):
        with pytest.raises(UnweightedSymbol):
            build_woc("CTC", {"C": 2}, 1)
        with pytest.raises(ZeroLetterWeight):
            build_woc("CTC", {"C": 2, "T": 0}, 1)
        with pytest.raises(ZeroLetterWeight):
            build_woc("CTC", {"C": 2, "T": -3}, 1)
        with pytest.raises(ZeroLetterWeight):
            check_letter_weights({"C": 2.5}, ["C"])

    def test_divisibility_is_still_checked_on_the_sequence_path(self, monkeypatch):
        # a simplex rule past which w(prefix) stops dividing w(chain): build_woc
        # weighs each chain from its prefix, and the constructor must refuse it
        def broken(a, b):
            return a * b + (a * b > 400)

        monkeypatch.setattr(sequence_module, "_RULES", {"lcm": lcm, "product": broken})
        oc = order_complex(substrings("ACGTAC"))
        vertex = [lcm(*(DNA_WEIGHTS[ch] for ch in name)) for name in oc.names]
        weight = {s: reduce(broken, [vertex[v] for v in s], 1) for s in oc.complex}
        # the first pair in (dim, lex) order of the coface, deletion order of its faces
        first = next((f, s) for s in oc.complex for f in faces(s) if weight[s] % weight[f])
        assert first == ((3, 4), (2, 3, 4))
        assert weight[(2, 3, 4)] % weight[(2, 3)]  # its lex-first face fails too
        with pytest.raises(DivisibilityViolation) as info:
            build_woc("ACGTAC", DNA_WEIGHTS, 2)
        assert (info.value.face, info.value.coface) == first
        assert (info.value.w_face, info.value.w_coface) == (weight[first[0]], weight[first[1]])

    def test_alphabets_table(self):
        assert ALPHABETS["dna"] == ("A", "C", "G", "T")
        assert ALPHABETS["rna"] == ("A", "C", "G", "U")
        assert "bin" in ALPHABETS and "hex" in ALPHABETS

    @settings(max_examples=50, deadline=None)
    @given(dna_strings, st.sampled_from([1, 2, 3, 4]))
    def test_every_type_yields_a_valid_weighting(self, s, t):
        # construction goes through full divisibility validation; getting
        # a WeightedComplex back means the weighting is coherent
        K, names = build_woc(s, DNA_WEIGHTS, t)
        assert len(names) == len(substrings(s))

    @settings(max_examples=50, deadline=None)
    @given(dna_strings, st.sampled_from([1, 2, 3, 4]))
    def test_weights_follow_the_definition(self, s, t):
        # every simplex weighs its rule over all its vertices at once
        rule = {"lcm": lambda ws: lcm(*ws), "product": prod}
        woc = WocType(t)
        K, names = build_woc(s, ALT_WEIGHTS, woc)
        vertex = [rule[woc.string_rule]([ALT_WEIGHTS[ch] for ch in name]) for name in names]
        for sigma, w in K.items():
            assert w == rule[woc.simplex_rule]([vertex[v] for v in sigma])


class TestFingerprints:
    def test_leucine_codon(self):
        groups = sequence_fingerprint("CTC", DNA_WEIGHTS, 2)
        assert groups == [HomologyGroup(1, (2, 2, 4)), HomologyGroup(1)]

    def test_valine_codon_differs(self):
        groups = sequence_fingerprint("GTG", DNA_WEIGHTS, 2)
        assert groups == [HomologyGroup(1, (12,)), HomologyGroup(1)]

    def test_lysine_codon(self):
        assert sequence_fingerprint("AAA", DNA_WEIGHTS, 2) == [
            HomologyGroup(1), HomologyGroup(0)]

    def test_weights_that_collide_and_weights_that_separate(self):
        # under the first weighting CCT and CTC agree in dimension 0;
        # the alternative weighting tells them apart
        same = [sequence_fingerprint(s, DNA_WEIGHTS, 2)[0] for s in ("CCT", "CTC")]
        assert same[0] == same[1]
        assert sequence_fingerprint("CTC", ALT_WEIGHTS, 2)[0] == HomologyGroup(1, (6,))
        assert sequence_fingerprint("CCT", ALT_WEIGHTS, 2)[0] == HomologyGroup(1, (2, 6))

    @pytest.mark.parametrize("a,b", [(6, 10), (2, 3), (4, 6), (5, 5), (7, 21)])
    def test_two_letter_run_formula(self, a, b):
        groups = sequence_fingerprint("xyyy", {"x": a, "y": b}, 3)
        d = gcd(a, b)
        expected = HomologyGroup(1, (d,) if d > 1 else ())
        assert groups[0] == expected
        assert all(g.is_trivial for g in groups[1:])

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("a", [1, 2, 7])
    def test_single_letter_run_is_acyclic(self, n, a):
        groups = sequence_fingerprint("x" * n, {"x": a}, 3)
        assert groups[0] == HomologyGroup(1)
        assert all(g.is_trivial for g in groups[1:])

    def test_too_short_sequences_have_empty_fingerprints(self):
        assert sequence_fingerprint("A", DNA_WEIGHTS, 1) == []
        assert sequence_fingerprint("", DNA_WEIGHTS, 1) == []

    def test_capped_fingerprint_matches_uncapped_prefix(self):
        full = sequence_fingerprint("x" * 8, {"x": 2}, 3)
        capped = sequence_fingerprint("x" * 8, {"x": 2}, 3, max_dim=2)
        assert capped == full[:3]
        assert sequence_fingerprint("CTC", DNA_WEIGHTS, 2, max_dim=0) == [
            HomologyGroup(1, (2, 2, 4))]

    @settings(max_examples=30, deadline=None)
    @given(dna_strings, st.sampled_from([2, 3, 6]))
    def test_equal_letter_weights_reduce_to_classical(self, s, c):
        flat = {ch: c for ch in "ACGT"}
        ones = {ch: 1 for ch in "ACGT"}
        assert sequence_fingerprint(s, flat, 1) == sequence_fingerprint(s, ones, 1)

    def test_product_weights_on_a_length_7_sequence_stay_fast(self):
        # a dense reduction of this complex ran for minutes past a gigabyte
        K, _ = build_woc("AGCGATG", DNA_WEIGHTS, 4)
        t0 = time.perf_counter()
        groups = sequence_fingerprint("AGCGATG", DNA_WEIGHTS, 4)
        elapsed = time.perf_counter() - t0
        chain_euler = sum((-1) ** n * len(K.of_dim(n)) for n in range(K.dimension + 1))
        assert sum((-1) ** n * g.free_rank for n, g in enumerate(groups)) == chain_euler
        for g in groups:
            assert all(b % a == 0 for a, b in zip(g.torsion, g.torsion[1:]))
        assert groups[0] == HomologyGroup(1, (6, 12))
        assert elapsed < 1.0

    @pytest.mark.parametrize("woc_type", sorted(ACGTACGT))
    def test_acgtacgt_fingerprints(self, woc_type):
        K, _ = build_woc("ACGTACGT", DNA_WEIGHTS, woc_type)
        assert len(K) == 4451
        want = [HomologyGroup(free, tuple(sorted(Counter(torsion).elements())))
                for free, torsion in ACGTACGT[woc_type]]
        assert homology(K) == want

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["CTC", "xyyy", "abcb", "GATTA"]))
    def test_poset_with_maximum_is_acyclic(self, s):
        # keeping the full string in the poset gives a cone, which the
        # homology of the constant-weight order complex must reflect
        every = {s[i:j] for i in range(len(s)) for j in range(i + 1, len(s) + 1)}
        oc = order_complex(every)
        K = WeightedComplex(oc.complex, constant_table(oc.complex))
        groups = homology(K)
        assert groups[0] == HomologyGroup(1)
        assert all(g.is_trivial for g in groups[1:])
