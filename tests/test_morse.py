"""Discrete Morse validation, level complexes, collapses, and windows."""

import importlib
import json
import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    constant_complex,
    constant_table,
    full_simplex,
    greedy_morse_values,
    groups_equal_padded,
    hollow_triangle_w2,
    matrix_rows,
    reference_level,
    weighted_disk,
    xn_setup,
    xyyy_setup,
)
from generators import random_weighted_complex
from wmorse import (
    DocumentError,
    DuplicateSimplex,
    ExtraCritical,
    HomologyGroup,
    HypothesisError,
    HypothesisFailed,
    InternalInvariantError,
    MorseViolation,
    NoValidAPrime,
    NotCritical,
    SimplicialComplex,
    Verdict,
    WeightedComplex,
    WSimpleFailed,
    boundary_matrix,
    classify,
    collapse_sequence,
    critical_window,
    elementary_collapse,
    elementary_removal,
    greedy_collapse,
    group_at,
    homology,
    homology_class_order,
    level_subcomplex,
    morse_collapse,
    validate_complex,
    validate_morse,
)
from wmorse.collapse import _Collapser
from wmorse.documents import load_morse_document
from wmorse.morse import MorseFunction, to_fraction


class TestToFraction:
    def test_exact_conversions(self):
        assert to_fraction("1/2") == Fraction(1, 2)
        assert to_fraction(3) == Fraction(3)
        q = Fraction(7, 3)
        assert to_fraction(q) is q  # a Fraction is immutable, so it comes back as it is
        assert to_fraction("0.25") == Fraction(1, 4)

    def test_floats_and_junk_refused(self):
        with pytest.raises(ValueError):
            to_fraction(0.1)
        with pytest.raises(ValueError):
            to_fraction(True)
        with pytest.raises(ValueError):
            to_fraction(object())

    def test_strings_are_bounded_on_the_library_path(self):
        K = full_simplex(1)
        started = time.perf_counter()
        with pytest.raises(DocumentError, match="larger than 4300 in magnitude"):
            validate_morse(K, {(0,): 0, (1,): "1e10000000", (0, 1): "1e10000000"})
        # building and comparing 10**10000000 took about 25 s
        assert time.perf_counter() - started < 1
        f = validate_morse(K, {(0,): 0, (1,): 1, (0, 1): 1})
        with pytest.raises(DocumentError, match="longer than 4300 digits"):
            level_subcomplex(K, f, "1e-4300")
        with pytest.raises(DocumentError, match="cannot parse 'x'"):
            morse_collapse(K, f, "x", 1)


class TestValidateMorse:
    def test_dimension_function_is_morse(self):
        K = full_simplex(2)
        f = validate_morse(K, {s: len(s) - 1 for s in K})
        assert f((0, 1, 2)) == 2
        assert f.distinct_values() == [0, 1, 2]

    def test_missing_value_rejected(self):
        K = full_simplex(1)
        with pytest.raises(ValueError, match="no Morse value"):
            validate_morse(K, {(0,): 0, (1,): 0})
        # the message names the first five cells missing, however many there are
        K = validate_complex([([v], 1) for v in range(300)])
        with pytest.raises(ValueError) as info:
            validate_morse(K, {})
        assert str(info.value) == "no Morse value for [0], [1], [2], [3], [4]"

    def test_simplex_named_twice_rejected(self):
        K = full_simplex(1)
        # (1, 0) is the edge (0, 1) again; its value must not replace the first
        with pytest.raises(DuplicateSimplex, match=r"simplex \[0, 1\] listed twice"):
            validate_morse(K, {(0,): 0, (1,): 2, (0, 1): 1, (1, 0): 5})

    def test_records_are_taken_as_pairs(self):
        K = full_simplex(1)
        records = [([1, 0], "1/2"), ((0,), 0), ([1], Fraction(1, 4))]
        f = validate_morse(K, records)
        assert f.items() == validate_morse(K, {(0,): 0, (1,): "1/4", (0, 1): "1/2"}).items()
        # an exact repeat, which a mapping cannot hold, is refused like a reordered one
        with pytest.raises(DuplicateSimplex, match=r"^simplex \[0\] listed twice$"):
            validate_morse(K, records + [((0,), 0)])

    def test_records_with_a_bad_vertex_id_are_refused_as_simplex_refuses_them(self):
        # in either input form, and for a cell outside K too
        K = full_simplex(2)
        for bad in (True, 1.0, Fraction(1)):
            message = rf"^vertex ids must be non-negative integers, got {re.escape(repr(bad))}$"
            for twin, cell in [((0, 1), (0, bad)), ((0, 1, 2), (0, bad, 2))]:
                others = [(s, 0) for s in K if s != twin]
                with pytest.raises(ValueError, match=message):
                    validate_morse(K, dict(others + [(cell, 0)]))
                for extra in ([(cell, 0)], [(twin, 0), (cell, 0)], [(cell, 0), (twin, 0)]):
                    with pytest.raises(ValueError, match=message):
                        validate_morse(K, others + extra)
            with pytest.raises(ValueError, match=message):
                validate_morse(K, {**{s: 0 for s in K}, (5, bad): 0})
        # a record that both repeats a cell and holds a bad id is named for the id, in either order
        for records in ([([1], 1), ([True], 1)], [([True], 1), ([1], 1)]):
            with pytest.raises(ValueError, match=r"^vertex ids must be non-negative integers, got True$"):
                validate_morse(K, [(s, 0) for s in K if s != (1,)] + records)
        with pytest.raises(ValueError, match=r"^vertex ids must be non-negative integers, got 'a'$"):
            validate_morse(K, [(s, 0) for s in K] + [((0, "a"), 0)])

    def test_two_high_faces_rejected(self):
        K = validate_complex([([0], 1), ([1], 1), ([0, 1], 1)])
        with pytest.raises(MorseViolation) as info:
            validate_morse(K, {(0,): 2, (1,): 2, (0, 1): 1})
        # witnesses appear in vertex-deletion order
        assert info.value.violations == [((0, 1), 2, ((1,), (0,)))]

    def test_two_low_cofaces_rejected(self):
        K = validate_complex([
            ([0], 1), ([1], 1), ([2], 1), ([0, 1], 1), ([1, 2], 1)])
        values = {(0,): 0, (2,): 0, (1,): 2, (0, 1): 1, (1, 2): 1}
        with pytest.raises(MorseViolation) as info:
            validate_morse(K, values)
        assert info.value.violations == [((1,), 1, ((0, 1), (1, 2)))]

    def test_all_violations_collected(self):
        # two separate components, each broken in its own way
        K = validate_complex([
            ([0], 1), ([1], 1), ([0, 1], 1),
            ([2], 1), ([3], 1), ([4], 1), ([2, 3], 1), ([3, 4], 1),
        ])
        values = {
            (0,): 2, (1,): 2, (0, 1): 1,
            (2,): 0, (4,): 0, (3,): 2, (2, 3): 1, (3, 4): 1,
        }
        with pytest.raises(MorseViolation) as info:
            validate_morse(K, values)
        assert len(info.value.violations) == 2

    def test_violations_listed_in_dim_lex_order(self):
        # the edge (1, 2) has two low cofaces and two high faces at once;
        # that is a violation, not a broken Morse lemma
        K = validate_complex([
            ([0], 1), ([1], 1), ([2], 1), ([3], 1),
            ([0, 1], 1), ([0, 2], 1), ([1, 2], 1), ([1, 3], 1), ([2, 3], 1),
            ([0, 1, 2], 1), ([1, 2, 3], 1),
        ])
        values = {s: 6 for s in K if len(s) == 2}
        values.update({(0,): 0, (3,): 0, (1,): 5, (2,): 5, (1, 2): 3,
                       (0, 1, 2): 1, (1, 2, 3): 1})
        with pytest.raises(MorseViolation) as info:
            validate_morse(K, values)
        assert info.value.violations == [
            ((1, 2), 1, ((0, 1, 2), (1, 2, 3))),
            ((1, 2), 2, ((2,), (1,))),
            ((0, 1, 2), 2, ((1, 2), (0, 2), (0, 1))),
            ((1, 2, 3), 2, ((2, 3), (1, 3), (1, 2))),
        ]

    def test_broken_neighbour_lemma_survives_python_O(self, monkeypatch):
        # with the triangle listed as a cofacet of the edge [0, 1] too, that edge has
        # a low coface and a high face, vertex 1, while no cell has two of either
        K = constant_complex([(0, 1), (2, 3, 4)])
        real = SimplicialComplex._cofacet_index
        monkeypatch.setattr(SimplicialComplex, "_cofacet_index",
                            lambda self: {**real(self), 1: [[(2, 3, 4)]] + real(self)[1][1:]})
        values = {s: len(s) - 4 for s in K if s[0] > 1} | {(0,): 0, (1,): 2, (0, 1): 1}
        with pytest.raises(InternalInvariantError, match=r"\[0, 1\] has wrong neighbours both ways"):
            validate_morse(K, values)

    def test_extra_values_are_kept(self):
        K = full_simplex(1)
        f = validate_morse(K, {(0,): 0, (1,): 1, (0, 1): 2, (9,): 5})
        assert (9,) in f
        assert f((9,)) == 5

    def test_handcrafted_function_on_substring_complex(self):
        K, names, f, cell = xyyy_setup()
        assert names == ("x", "xy", "xyy", "y", "yy", "yyy")
        assert len(K) == 19
        assert f.distinct_values() == [1, 2, 3, 4, 5]


class TestClassify:
    def test_dimension_function_makes_everything_critical(self):
        K = full_simplex(2)
        f = validate_morse(K, {s: len(s) - 1 for s in K})
        cls = classify(K, f)
        assert cls.critical == K.simplices
        assert cls.pair == {}
        assert cls.w_simple == K.simplices

    def test_paired_cells_point_at_their_wrong_neighbour(self):
        # an edge paired with its high vertex, the rest critical
        K = validate_complex([
            ([0], 1), ([1], 1), ([2], 2),
            ([0, 1], 2), ([0, 2], 2),
        ])
        values = {(0,): 0, (1,): 2, (2,): 1, (0, 1): 2, (0, 2): 3}
        f = validate_morse(K, values)
        cls = classify(K, f)
        assert cls.critical == {(0,), (2,), (0, 2)}
        assert cls.pair[(0, 1)] == (1,)
        assert cls.pair[(1,)] == (0, 1)
        # the paired edge has a high face of different weight
        assert not cls.is_w_simple((0, 1))
        assert cls.is_w_simple((1,))

    def test_zero_weight_cells_are_never_w_simple(self):
        K = validate_complex([([0], 1), ([1], 0), ([0, 1], 0)])
        f = validate_morse(K, {(0,): 0, (1,): 1, (0, 1): 2})
        cls = classify(K, f)
        assert not cls.is_w_simple((1,))
        assert not cls.is_w_simple((0, 1))
        assert cls.is_w_simple((0,))

    def test_substring_complex_classification(self):
        K, names, f, cell = xyyy_setup()
        cls = classify(K, f)
        assert cls.critical == {
            cell("x"), cell("xy"), cell("y"),
            cell("x", "xy"), cell("xy", "y"),
        }
        # every cell of this complex is w-simple under these weights
        assert cls.w_simple == K.simplices

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_dimension_function_on_random_complexes(self, seed):
        rng = random.Random(seed)
        K = random_weighted_complex(rng, zero_star_chance=0.2)
        f = validate_morse(K, {s: len(s) - 1 for s in K})
        cls = classify(K, f)
        assert cls.critical == K.simplices
        assert cls.w_simple == {s for s in K if K.weight(s) != 0}


class TestLevelSubcomplex:
    def test_substring_complex_levels(self):
        K, names, f, cell = xyyy_setup()
        low = level_subcomplex(K, f, 2)
        assert low.simplices == {
            cell("x"), cell("xy"), cell("y"),
            cell("x", "xy"), cell("xy", "y"),
        }
        assert level_subcomplex(K, f, 5) == K
        assert len(level_subcomplex(K, f, 0)) == 0

    def test_closure_pulls_in_high_faces(self):
        # the edge has value 1 but its far vertex has value 2; any level
        # containing the edge must contain that vertex too
        K = validate_complex([([0], 1), ([1], 1), ([0, 1], 1)])
        f = validate_morse(K, {(0,): 0, (1,): 2, (0, 1): 1})
        level = level_subcomplex(K, f, 1)
        assert level.simplices == {(0,), (1,), (0, 1)}
        assert level_subcomplex(K, f, "1/2").simplices == {(0,)}

    def test_levels_are_nested(self):
        K, names, f, cell = xyyy_setup()
        previous = set()
        for c in range(0, 6):
            members = level_subcomplex(K, f, c).simplices
            assert previous <= members
            previous = members


class TestMorseCollapse:
    def test_substring_complex_collapse_to_level_two(self):
        K, names, f, cell = xyyy_setup()
        result = morse_collapse(K, f, 2, 5)
        assert result.start == K
        assert result.end.simplices == {
            cell("x"), cell("xy"), cell("y"),
            cell("x", "xy"), cell("xy", "y"),
        }
        # pairs fall out of the level structure in a fixed order: higher
        # values first, within a value by decreasing dimension then lex
        assert [(s.sigma, s.tau) for s in result.steps] == [
            (cell("x", "xyy"), cell("x", "xy", "xyy")),
            (cell("xyy", "yy"), cell("xyy", "y", "yy")),
            (cell("y", "yyy"), cell("y", "yy", "yyy")),
            (cell("xyy", "y"), cell("xy", "xyy", "y")),
            (cell("yyy"), cell("yy", "yyy")),
            (cell("xyy"), cell("xy", "xyy")),
            (cell("yy"), cell("y", "yy")),
        ]
        assert result.all_same_weight
        assert groups_equal_padded(homology(K), homology(result.end))
        assert group_at(homology(result.end), 0) == HomologyGroup(1, (2,))

    def test_partial_window(self):
        K, names, f, cell = xyyy_setup()
        result = morse_collapse(K, f, 4, 5)
        assert len(result.steps) == 3
        assert result.end.simplices == level_subcomplex(
            K, f, 4).simplices

    def test_empty_window(self):
        K, names, f, cell = xyyy_setup()
        result = morse_collapse(K, f, 6, 7)
        assert result.steps == ()
        assert result.start == result.end
        assert result.all_same_weight

    def test_runs_of_one_letter_collapse_to_a_point(self):
        for n in (3, 4, 5, 6):
            K, names, f = xn_setup(n)
            top = f.distinct_values()[-1]
            result = morse_collapse(K, f, 1, top)
            assert result.end.simplices == {(0,)}
            assert result.all_same_weight
            assert 2 * len(result.steps) == len(K) - 1

    def test_steps_replay_as_elementary_collapses(self):
        K, names, f, cell = xyyy_setup()
        L, _, g = xn_setup(6)
        for result in (morse_collapse(K, f, 2, 5), morse_collapse(L, g, 1, g.distinct_values()[-1])):
            current = result.start
            for step in result.steps:
                current, replayed = elementary_collapse(current, step.sigma)
                assert replayed == step
            assert current == result.end

    def test_deterministic(self):
        K, names, f, cell = xyyy_setup()
        first = morse_collapse(K, f, 2, 5)
        second = morse_collapse(K, f, 2, 5)
        assert first.steps == second.steps

    def test_critical_cell_in_window_rejected(self):
        K, names, f, cell = xyyy_setup()
        with pytest.raises(HypothesisFailed) as info:
            morse_collapse(K, f, 1, 5)
        assert info.value.reason == "critical"

    def test_non_w_simple_window_rejected(self):
        K = validate_complex([([0], 1), ([1], 1), ([0, 1], 2)])
        f = validate_morse(K, {(0,): 0, (1,): 2, (0, 1): 2})
        with pytest.raises(HypothesisFailed) as info:
            morse_collapse(K, f, 1, 2)
        assert info.value.reason == "not-w-simple"
        assert info.value.simplex == (0, 1)

    def test_backwards_window_rejected(self):
        K, names, f, cell = xyyy_setup()
        with pytest.raises(ValueError):
            morse_collapse(K, f, 5, 2)

    def test_collapsed_level_is_all_critical_within_itself(self):
        K, names, f, cell = xyyy_setup()
        end = morse_collapse(K, f, 2, 5).end
        cls = classify(end, f)
        assert cls.critical == end.simplices

    # each fault leaves a live set other than K(lower) after the top level
    # of circle_with_tails, the pair ((4,), (0, 4)): one with the right
    # count, one with no cell of the level left
    @pytest.mark.parametrize("fault", ["keeps-tau", "drops-a-lower-cell"])
    def test_level_check_sees_any_other_live_set(self, monkeypatch, fault):
        K, f = circle_with_tails()
        real = _Collapser.collapse

        def collapse(self, sigma):
            step = real(self, sigma)
            # a count of -1 marks a removed cell
            for s, count in ([(step.tau, 0)] if fault == "keeps-tau" else []) + [((0,), -1)]:
                self._count[len(s) - 1][K.position(s)] = count
                self.size += 1 if count == 0 else -1
            return step

        monkeypatch.setattr(_Collapser, "collapse", collapse)
        with pytest.raises(InternalInvariantError, match=r"collapsing the cells at 3 does not reach K\(2\)"):
            morse_collapse(K, f, 0, 3)


class TestCriticalWindow:
    def test_disk_top_cell(self):
        K = full_simplex(2)
        f = validate_morse(K, {s: len(s) - 1 for s in K})
        window = critical_window(K, f, (0, 1, 2), "3/2", 2)
        assert window.a_prime == Fraction(3, 2)
        assert window.top == K
        assert window.below.simplices == K.simplices - {(0, 1, 2)}
        # degenerate window: both collapse certificates are empty
        assert window.collapse_above.steps == ()
        assert window.collapse_below.steps == ()
        assert window.removal is not None
        assert window.removal.class_order.kind == "infinite"
        assert not window.removal.gains_free_summand
        assert window.removal.quotient_below == HomologyGroup(0)

    def test_weighted_disk_quotient_is_torsion(self):
        K = weighted_disk(2)
        f = validate_morse(K, {s: len(s) - 1 for s in K})
        window = critical_window(K, f, (0, 1, 2), "3/2", 2)
        report = window.removal
        assert report.class_order.kind == "infinite"
        assert report.quotient_below == HomologyGroup(0, (2,))
        assert report.quotient_below == group_at(homology(K), 1)
        # dimension 2 is unchanged because the boundary class is not torsion
        assert group_at(homology(window.top), 2) == group_at(
            homology(window.below), 2)

    def test_edge_removal_with_zero_class(self):
        # hollow triangle, one critical edge isolated in a tight window
        K = hollow_triangle_w2()
        values = {
            (0,): 1, (1,): 0, (2,): 2,
            (0, 1): 1, (0, 2): 2, (1, 2): 3,
        }
        f = validate_morse(K, values)
        window = critical_window(K, f, (1, 2), 2, 3)
        assert window.a_prime == 2
        assert window.removal.class_order.kind == "zero"
        assert window.removal.gains_free_summand
        assert window.removal.quotient_below == HomologyGroup(1, (2, 2))
        assert group_at(homology(window.top), 1) == HomologyGroup(1)
        assert group_at(homology(window.below), 1) == HomologyGroup(0)

    def test_full_sandwich_on_single_letter_run(self):
        K, names, f = xn_setup(5)
        top_value = f.distinct_values()[-1]
        window = critical_window(K, f, (0,), 0, top_value)
        assert window.a_prime == 0
        assert window.top.simplices == {(0,)}
        assert len(window.below) == 0
        assert window.collapse_above.end == window.top
        assert window.collapse_above.all_same_weight
        assert window.collapse_below.steps == ()
        assert window.removal.dimension == 0
        assert window.removal.gains_free_summand
        assert window.removal.quotient_below is None

    def test_zero_weight_critical_cell_has_no_removal_report(self):
        K = validate_complex([([0], 1), ([1], 1), ([0, 1], 0)])
        f = validate_morse(K, {(0,): 0, (1,): 1, (0, 1): 2})
        window = critical_window(K, f, (0, 1), "3/2", 2)
        assert window.removal is None
        assert window.below.simplices == {(0,), (1,)}

    def test_not_critical_rejected(self):
        K, names, f, cell = xyyy_setup()
        with pytest.raises(NotCritical):
            critical_window(K, f, cell("x", "xyy"), 4, 5)
        with pytest.raises(NotCritical):
            critical_window(K, f, (17,), 4, 5)

    def test_value_outside_window_rejected(self):
        K = full_simplex(2)
        f = validate_morse(K, {s: len(s) - 1 for s in K})
        with pytest.raises(ValueError):
            critical_window(K, f, (0, 1, 2), 0, 1)

    def test_second_critical_cell_rejected(self):
        K, names, f, cell = xyyy_setup()
        with pytest.raises(ExtraCritical) as info:
            critical_window(K, f, cell("x", "xy"), 1, 5)
        assert info.value.simplex == cell("xy", "y")

    def test_shared_value_rejected(self):
        K = validate_complex([([0], 1), ([1], 1), ([2], 1), ([1, 2], 1)])
        values = {(0,): 1, (1,): 0, (2,): 1, (1, 2): 1}
        f = validate_morse(K, values)
        with pytest.raises(NoValidAPrime) as info:
            critical_window(K, f, (0,), "1/2", 1)
        assert info.value.simplex == (2,)
        assert info.value.value == 1

    def test_non_w_simple_window_rejected(self):
        K = validate_complex([([0], 1), ([1], 1), ([2], 1), ([1, 2], 2)])
        values = {(0,): 1, (1,): 0, (2,): "3/4", (1, 2): "3/4"}
        f = validate_morse(K, values)
        with pytest.raises(WSimpleFailed) as info:
            critical_window(K, f, (0,), "1/2", 1)
        assert info.value.simplex == (1, 2)


class TestMorseFunctionObject:
    def test_items_sorted_by_dim_then_lex(self):
        f = MorseFunction({(1,): 2, (0, 1): 3, (0,): 1})
        assert [s for s, _ in f.items()] == [(0,), (1,), (0, 1)]

    def test_restriction_reuse(self):
        # a function validated on K restricts to any subcomplex of K
        K, names, f, cell = xyyy_setup()
        sub = level_subcomplex(K, f, 3)
        g = validate_morse(sub, {s: f(s) for s in K})
        assert g(cell("x")) == 1


class TestAgainstGreedyReference:
    """A Morse function built from the rescanning greedy collapse.

    Its critical cells, pairs, levels and collapse steps are all known
    in advance (see greedy_morse_values), so every part of the Morse
    layer is checked against the reference rather than against itself.
    """

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_morse_layer_matches_the_greedy_reference(self, seed):
        self.check(seed, split=False)

    # each pair's face sits 1/2 above its coface, so faces enter the levels
    # below their own value and some values have no cell entering at them
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_split_pairs_match_the_greedy_reference(self, seed):
        self.check(seed, split=True)

    @staticmethod
    def check(seed, split):
        rng = random.Random(seed)
        shape = random_weighted_complex(rng, max_vertices=7, max_facets=5, max_facet_dim=3)
        weight = rng.choice([1, 2, -3, 6])
        K = WeightedComplex(shape, constant_table(shape, weight))
        values, core, steps = greedy_morse_values(K, split)
        r, n = len(core), len(steps)
        f = validate_morse(K, values)

        cls = classify(K, f)
        assert cls.critical == core
        assert cls.pair == {**{s: t for s, t, _ in steps}, **{t: s for s, t, _ in steps}}
        assert cls.w_simple == K.simplices

        levels = f.distinct_values()
        top = levels[-1]
        midpoints = [(x + y) / 2 for x, y in zip(levels, levels[1:])]
        for c in levels + midpoints:
            assert level_subcomplex(K, f, c).simplices == reference_level(K, f, c), c

        above = ()
        if n:
            result = morse_collapse(K, f, r - 1, top)
            above = tuple((s, t) for s, t, _ in steps)
            assert tuple((step.sigma, step.tau) for step in result.steps) == above
            current = result.start
            for step in result.steps:
                current, replayed = elementary_collapse(current, step.sigma)
                assert replayed == step
            assert current == result.end
            assert result.end.simplices == core

        alpha = max(core, key=lambda s: (len(s), s))
        window = critical_window(K, f, alpha, r - 2, top)
        assert window.top.simplices == core
        assert window.below.simplices == core - {alpha}
        assert tuple((step.sigma, step.tau) for step in window.collapse_above.steps) == above
        assert window.collapse_below.steps == ()


def circle_with_tails():
    """A hollow triangle with two pendant edges, and a Morse function.

    (0,) and the edge (1, 2) are critical; three pairs sit below the
    edge's value and one above it, so a window around the edge has a
    collapse on both sides.
    """
    K = validate_complex([
        ([0], 1), ([1], 1), ([2], 1), ([3], 1), ([4], 1),
        ([0, 1], 1), ([0, 2], 1), ([1, 2], 1), ([2, 3], 1), ([0, 4], 1),
    ])
    f = validate_morse(K, {
        (0,): 0, (1,): 1, (0, 1): 1, (2,): 2, (0, 2): 2, (4,): 3, (0, 4): 3,
        (1, 2): 5, (3,): 7, (2, 3): 7,
    })
    return K, f


class TestWorkDoneOnce:
    def test_load_and_classify_scan_the_cofacet_index_once(self, tmp_path, monkeypatch):
        K, names, f, cell = xyyy_setup()
        path = tmp_path / "f.json"
        path.write_text(json.dumps({
            "values": [{"vertices": list(s), "value": str(v)} for s, v in f.items()]
        }))
        read = []
        real = SimplicialComplex._cofacet_index
        monkeypatch.setattr(SimplicialComplex, "_cofacet_index", lambda self: read.append(self) or real(self))
        monkeypatch.setattr(SimplicialComplex, "cofacets", None)  # no per-simplex list copies either
        classify(K, load_morse_document(str(path), K))
        assert read == [K]

    def test_collapses_build_no_cofacet_index(self, monkeypatch):
        K, f = circle_with_tails()
        built = []
        real = SimplicialComplex._cofacet_index

        def index(self):
            if self._cofacets is None:
                built.append(self.simplices)
            return real(self)

        monkeypatch.setattr(SimplicialComplex, "_cofacet_index", index)
        assert len(morse_collapse(K, f, 0, 3).steps) == 3
        assert built == []
        critical_window(K, f, (1, 2), "1/2", 8)
        # alpha's maximality in K(f(alpha)) is read off K's index too
        assert built == []

    @pytest.mark.parametrize("seed", range(20))
    def test_collapses_and_morse_scans_list_no_faces(self, seed, monkeypatch):
        K = random_weighted_complex(random.Random(seed), zero_star_chance=0.3)
        # with weight 1 throughout every paired cell is w-simple, so the windows succeed
        runs = [(L, *greedy_morse_values(L, split)[:2])
                for L in (K, WeightedComplex(K, constant_table(K))) for split in (False, True)]

        def no_faces(sigma):
            raise AssertionError(f"listed the faces of {list(sigma)}")

        for module in ("complexes", "collapse", "morse"):
            monkeypatch.setattr(f"wmorse.{module}.faces", no_faces, raising=False)
        end, applied = greedy_collapse(K)
        assert collapse_sequence(K, [step.sigma for step, _ in applied])[0] == end
        for L, values, core in runs:
            f = validate_morse(L, values)
            critical = classify(L, f).critical
            assert critical == core
            top = f.distinct_values()[-1]
            for c in f.distinct_values()[:-1]:
                try:
                    morse_collapse(L, f, c, top)
                except HypothesisFailed as refused:
                    assert L is K or refused.reason == "critical"
            for alpha in critical:
                try:
                    critical_window(L, f, alpha, f(alpha) - 1, f(alpha))
                except HypothesisError:
                    assert L is K

    def test_critical_window_builds_each_level_once(self, monkeypatch):
        K, f = circle_with_tails()
        levels = {c: frozenset(reference_level(K, f, c)) for c in (8, 5, 3, Fraction(1, 2))}
        built = []
        real = WeightedComplex._select

        # every level complex is derived from K's positions, in one call each
        def select(self, keep):
            built.append(frozenset((level := real(self, keep)).simplices))
            return level

        monkeypatch.setattr(WeightedComplex, "_select", select)
        window = critical_window(K, f, (1, 2), "1/2", 8)
        assert window.a_prime == 3
        assert len(window.collapse_above.steps) == 1
        assert len(window.collapse_below.steps) == 3
        # K(b), K(f(alpha)), K(a') and K(a) once each; the removal builds none
        assert Counter(built) == Counter([levels[8], levels[5], levels[3], levels[Fraction(1, 2)]])

    def test_homology_questions_build_only_the_boundaries_they_read(self, monkeypatch):
        homology_module, snf = importlib.import_module("wmorse.homology"), importlib.import_module("wmorse.snf")
        real, real_smith = homology_module._boundary_columns, snf.smith_normal_form
        built = []

        # boundary_matrix wraps the columns this assembles; the removal reads them directly
        def counted(K, n, cells):
            built.append(n)
            return real(K, n, cells)

        def no_smith(*args, **kwargs):
            raise AssertionError("a removal ran a Smith reduction")

        # a removal, in a window or not, reads its groups from the certified path
        monkeypatch.setattr(homology_module, "_boundary_columns", counted)
        monkeypatch.setattr(snf, "smith_normal_form", no_smith)
        K, f = circle_with_tails()
        assert critical_window(K, f, (1, 2), "1/2", 8).removal.dimension == 1
        assert set(built) == {0, 1}

        K = full_simplex(4)
        built.clear()
        assert elementary_removal(K, (0, 1, 2, 3, 4))[1].class_order.kind == "infinite"
        assert set(built) == {3, 4}
        by_dimension = validate_morse(K, {s: len(s) - 1 for s in K})
        assert critical_window(K, by_dimension, (0, 1, 2, 3, 4), 3, 4).removal.class_order.kind == "infinite"
        monkeypatch.setattr(snf, "smith_normal_form", real_smith)

        z = [row[0] for row in matrix_rows(boundary_matrix(K, 2))]
        built.clear()
        assert homology_class_order(K, 1, z).kind == "zero"
        assert set(built) == {1, 2}

        # the certified path assembles no boundary matrix, and of the cells
        # it lists, weighs or reads the faces of none lies above dimension max_dim + 1
        read = []
        for cls, name in ((SimplicialComplex, "of_dim"), (SimplicialComplex, "face_indices"),
                          (WeightedComplex, "weights_of_dim")):
            monkeypatch.setattr(cls, name, lambda self, n, real=getattr(cls, name): read.append(n) or real(self, n))
        real_weight = WeightedComplex.weight
        monkeypatch.setattr(WeightedComplex, "weight",
                            lambda self, s: read.append(len(s) - 1) or real_weight(self, s))
        built.clear()
        assert len(homology(K, max_dim=1)) == 2
        assert built == []
        assert max(read) == 2
