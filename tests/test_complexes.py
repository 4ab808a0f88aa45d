"""Simplicial complex construction, validation, and face bookkeeping."""

import json
import re
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wmorse import (
    DivisibilityViolation,
    DuplicateSimplex,
    DuplicateVertex,
    HypothesisError,
    HypothesisFailed,
    NotFaceClosed,
    SimplicialComplex,
    WeightedComplex,
    build_woc,
    classify,
    collapse_sequence,
    critical_window,
    elementary_collapse,
    greedy_collapse,
    homology,
    level_subcomplex,
    morse_collapse,
    validate_complex,
    validate_morse,
)
from wmorse.complexes import closure, dim, faces, simplex
from wmorse.documents import load_complex_document

import random

from conftest import assert_state_kept, complex_state, greedy_morse_values, reference_proper_cofaces
from generators import random_weighted_complex


class TestSimplexBasics:
    def test_canonical_order(self):
        assert simplex([3, 1, 2]) == (1, 2, 3)
        assert simplex((0,)) == (0,)

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(DuplicateVertex):
            simplex([1, 1, 2])

    def test_bad_vertex_labels_rejected(self):
        with pytest.raises(ValueError):
            simplex([-1, 0])
        with pytest.raises(ValueError):
            simplex([True, 2])
        with pytest.raises(ValueError):
            simplex([])

    def test_dim(self):
        assert dim((5,)) == 0
        assert dim((0, 1, 2)) == 2

    def test_faces_order_matches_vertex_deletion(self):
        # face i is the simplex with vertex i removed, in that order
        assert faces((0, 1, 2)) == [(1, 2), (0, 2), (0, 1)]
        assert faces((7,)) == []

    def test_closure(self):
        sims = closure([(0, 1, 2)])
        assert set(sims) == {(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)}


class TestSimplicialComplex:
    def test_face_closure_enforced(self):
        with pytest.raises(NotFaceClosed):
            SimplicialComplex([(0, 1), (0,)])  # (1,) missing

    def test_vertex_ids_are_checked_as_simplex_checks_them(self):
        for bad in ["a", -1, True, 1.0]:
            with pytest.raises(ValueError, match="vertex ids must be non-negative integers"):
                SimplicialComplex([(0,), (bad,)])
        with pytest.raises(ValueError, match="at least one vertex"):
            SimplicialComplex([(0,), ()])
        # above the vertices, a dimension that mixes int and str vertices cannot be sorted
        for cells in ([(0,), (1,), (0, 1), (0, "a")],
                      [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2), (0, 1, "a")]):
            with pytest.raises(ValueError, match=r"^vertex ids must be non-negative integers, got 'a'$"):
                SimplicialComplex(cells)

    def test_every_cells_vertex_ids_are_checked(self):
        # True, 1.0 and Fraction(1) equal 1 and hash as 1, so the edge (0, bad) and the
        # triangle (0, bad, 2) find their faces; each is refused alone and beside its int twin
        for bad in (True, 1.0, Fraction(1)):
            message = rf"^vertex ids must be non-negative integers, got {re.escape(repr(bad))}$"
            for twin, cell in [((0, 1), (0, bad)), ((0, 1, 2), (0, bad, 2))]:
                faces_of = sorted(closure([twin]) - {twin})
                for cells in (faces_of + [cell], faces_of + [twin, cell], faces_of + [cell, twin]):
                    with pytest.raises(ValueError, match=message):
                        SimplicialComplex(cells)

    def test_edges_must_be_strictly_increasing(self):
        # a repeat is a DuplicateVertex, as in simplex()
        with pytest.raises(DuplicateVertex):
            SimplicialComplex([(0,), (0, 0)])
        with pytest.raises(DuplicateVertex):
            WeightedComplex(SimplicialComplex([(0,), (0, 0)]), [[1], [1]])
        # [1, 0] would be a member that the query (0, 1) in K never finds
        with pytest.raises(ValueError, match=r"^simplex \[1, 0\] is not in increasing order$"):
            SimplicialComplex([(0,), (1,), (1, 0)])

    def test_higher_cells_out_of_order_miss_a_face(self):
        # with canonical edges, a cell further up out of order names its first face that is not one
        edges = closure([(0, 1, 2)]) - {(0, 1, 2)}
        for bad, missing in [((0, 2, 1), (2, 1)), ((0, 1, 1), (1, 1)), ((2, 1, 0), (2, 1))]:
            with pytest.raises(NotFaceClosed) as info:
                SimplicialComplex(edges | {bad})
            assert info.value.missing == missing

    def test_repeated_simplices_collapse_to_a_set(self):
        K = SimplicialComplex([(0,), (0,)])
        assert len(K) == 1

    def test_iteration_sorted_by_dim_then_lex(self):
        K = SimplicialComplex(closure([(0, 2), (1, 2)]))
        assert list(K) == [(0,), (1,), (2,), (0, 2), (1, 2)]

    def test_of_dim_and_vertices(self):
        K = SimplicialComplex(closure([(0, 1, 2)]))
        assert K.of_dim(1) == ((0, 1), (0, 2), (1, 2))
        assert K.of_dim(5) == ()
        assert K.vertices == (0, 1, 2)
        assert K.dimension == 2

    def test_empty_complex(self):
        K = SimplicialComplex([])
        assert K.dimension == -1
        assert list(K) == []

    def test_cofaces(self):
        K = SimplicialComplex(closure([(0, 1, 2), (2, 3)]))
        assert K.proper_cofaces((2,)) == [(0, 2), (1, 2), (2, 3), (0, 1, 2)]
        assert K.cofacets((0, 1)) == [(0, 1, 2)]
        assert K.is_maximal((2, 3))
        assert not K.is_maximal((0, 1))
        assert K.maximal_simplices() == [(2, 3), (0, 1, 2)]

    def test_free_coface(self):
        K = SimplicialComplex(closure([(0, 1, 2), (2, 3)]))
        # (0, 1) has the single proper coface (0, 1, 2)
        assert K.free_coface((0, 1)) == (0, 1, 2)
        # (2,) sits under many cofaces
        assert K.free_coface((2,)) is None
        # (2, 3) is maximal, no cofaces at all
        assert K.free_coface((2, 3)) is None

    def test_free_pair_removal_stays_face_closed(self):
        K = SimplicialComplex(closure([(0, 1, 2)]))
        tau = K.free_coface((0, 1))
        L = K.without([(0, 1), tau])
        assert (0, 1) not in L
        assert (0,) in L and (1, 2) in L

    def test_without_refuses_partial_face_removal(self):
        K = SimplicialComplex(closure([(0, 1)]))
        with pytest.raises(NotFaceClosed):
            K.without([(0,)])

    def test_from_maximal(self):
        K = SimplicialComplex.from_maximal([(0, 1), (1, 2)])
        assert set(K) == {(0,), (1,), (2,), (0, 1), (1, 2)}


class TestWeightedComplex:
    def test_validate_complex_happy_path(self):
        K = validate_complex([([0], 1), ([1], 2), ([0, 1], 4)])
        assert K.weight((0, 1)) == 4
        assert list(K) == [(0,), (1,), (0, 1)]

    def test_weights_must_have_the_complex_shape(self):
        # weights[d][i] weighs of_dim(d)[i]: a missing or surplus dimension
        # or cell is refused with the dimension named
        K = SimplicialComplex(closure([(0, 1)]))
        assert WeightedComplex(K, [[1, 2], [4]]).items() == [((0,), 1), ((1,), 2), ((0, 1), 4)]
        with pytest.raises(ValueError, match=r"^1 dimensions of weights for a complex of dimension 1$"):
            WeightedComplex(K, [[1, 1]])
        with pytest.raises(ValueError, match=r"^3 dimensions of weights for a complex of dimension 1$"):
            WeightedComplex(K, [[1, 1], [1], []])
        with pytest.raises(ValueError, match=r"^dimension 1 has 1 simplices but 0 weights$"):
            WeightedComplex(K, [[1, 1], []])
        with pytest.raises(ValueError, match=r"^dimension 0 has 2 simplices but 3 weights$"):
            WeightedComplex(K, [[1, 1, 1], [1]])
        with pytest.raises(ValueError, match=r"^0 dimensions of weights for a complex of dimension 0$"):
            WeightedComplex(SimplicialComplex([(0,)]), [])
        assert len(WeightedComplex(SimplicialComplex([]), [])) == 0

    def test_a_mapping_is_refused_with_a_pointer_to_validate_complex(self):
        # {(0,): 1} read as a table would fail its lookup weights[0] with a bare KeyError
        with pytest.raises(TypeError, match="validate_complex"):
            WeightedComplex(SimplicialComplex([(0,)]), {(0,): 1})
        K = SimplicialComplex(closure([(0, 1)]))
        for mapping in (dict.fromkeys(K, 1), {0: [1, 1], 1: [1]}):
            with pytest.raises(TypeError, match="validate_complex"):
                WeightedComplex(K, mapping)
        assert validate_complex((s, 1) for s in K) == WeightedComplex(K, [[1, 1], [1]])

    def test_callers_hand_the_constructor_its_table_not_a_mapping(self, monkeypatch, tmp_path):
        # build_woc and the constant-weight loader each lay their weights out by
        # position; none builds a simplex-keyed dict. restrict and without derive
        # their result from this complex's positions and hand the constructor nothing
        handed = []
        init = WeightedComplex.__init__

        def spy(self, complex, weights):
            handed.append(weights)
            init(self, complex, weights)

        monkeypatch.setattr(WeightedComplex, "__init__", spy)
        K, _ = build_woc("ACGTAC", {"A": 1, "C": 2, "G": 3, "T": 4}, 2)
        K.restrict(K.of_dim(0))
        K.without([K.of_dim(K.dimension)[0]])
        doc = tmp_path / "maximal.json"
        doc.write_text(json.dumps({"simplices": [{"vertices": [0, 1, 2]}, {"vertices": [2, 3]}]}))
        L, _ = load_complex_document(str(doc), constant_weight=3)
        assert len(handed) == 2
        assert not any(isinstance(w, Mapping) for w in handed)
        assert [len(w) for w in handed] == [K.dimension + 1, 3]
        assert set(L) == closure([(0, 1, 2), (2, 3)]) and L.items() == [(s, 3) for s in L]

    def test_divisibility_violation(self):
        with pytest.raises(DivisibilityViolation) as info:
            validate_complex([([0], 2), ([1], 1), ([0, 1], 3)])
        assert info.value.face == (0,)
        assert info.value.coface == (0, 1)

    def test_first_defect_in_dim_lex_order_is_reported(self):
        # one walk weighs every face before its cofaces: the edge [0, 1]
        # breaks divisibility before the triangle's missing weight is met,
        # and [0, 1] comes before [1, 2] among the broken edges
        K = SimplicialComplex(closure([(0, 1, 2)]))
        # vertices [0] [1] [2]; edges [0, 1] [0, 2] [1, 2]; no triangle weight
        weights = [[2, 3, 1], [3, 2, 2], []]
        with pytest.raises(DivisibilityViolation) as info:
            WeightedComplex(K, weights)
        assert (info.value.face, info.value.coface) == ((0,), (0, 1))
        weights[1] = [6, 2, 6]
        with pytest.raises(ValueError, match=r"^dimension 2 has 1 simplices but 0 weights$"):
            WeightedComplex(K, weights)
        weights[2] = [True]
        with pytest.raises(ValueError, match=r"weight of \[0, 1, 2\] must be an integer, got True"):
            WeightedComplex(K, weights)

    def test_missing_face_of_the_first_coface_in_dim_lex_order_is_reported(self):
        # [0, 1] and [0, 2] each miss a vertex: [0, 1] comes first
        with pytest.raises(NotFaceClosed) as info:
            SimplicialComplex([(0,), (0, 1), (0, 2)])
        assert info.value.missing == (1,)
        # the edge [0, 3] misses a vertex before the triangle [0, 1, 3] misses an edge
        with pytest.raises(NotFaceClosed) as info:
            SimplicialComplex(closure([(0, 1, 2)]) | {(0, 1, 3), (0, 3)})
        assert info.value.missing == (3,)
        # restrict and without run the same check
        K = validate_complex((s, 1) for s in closure([(0, 1, 2)]))
        with pytest.raises(NotFaceClosed) as info:
            K.without([(1,), (2,)])
        assert info.value.missing == (1,)

    def test_zero_weight_coface_of_nonzero_face_allowed(self):
        # any weight divides zero, so a zero-weight top cell is fine
        K = validate_complex([([0], 2), ([1], 1), ([0, 1], 0)])
        assert K.weight((0, 1)) == 0

    def test_nonzero_coface_of_zero_face_rejected(self):
        # zero divides only zero
        with pytest.raises(DivisibilityViolation):
            validate_complex([([0], 0), ([1], 1), ([0, 1], 2)])

    def test_negative_weights_allowed(self):
        K = validate_complex([([0], 1), ([1], -1), ([0, 1], -2)])
        assert K.weight((1,)) == -1

    def test_duplicate_entry_rejected(self):
        with pytest.raises(DuplicateSimplex):
            validate_complex([([0], 1), ([0], 1)])

    def test_records_with_a_bad_vertex_id_are_refused_as_simplex_refuses_them(self):
        for bad in (True, 1.0, Fraction(1)):
            message = rf"^vertex ids must be non-negative integers, got {re.escape(repr(bad))}$"
            for twin, cell in [((0, 1), (0, bad)), ((0, 1, 2), (0, bad, 2))]:
                faces_of = sorted(closure([twin]) - {twin})
                for cells in (faces_of + [cell], faces_of + [twin, cell], faces_of + [cell, twin]):
                    with pytest.raises(ValueError, match=message):
                        validate_complex((list(s), 1) for s in cells)
        # a record that both repeats a cell and holds a bad id is named for the id, in either order
        for records in ([([1], 1), ([True], 1)], [([True], 1), ([1], 1)]):
            with pytest.raises(ValueError, match=r"^vertex ids must be non-negative integers, got True$"):
                validate_complex(records)
        # a record that cannot be sorted, or repeats a vertex, is named as simplex() names it
        with pytest.raises(ValueError, match=r"^vertex ids must be non-negative integers, got 'a'$"):
            validate_complex([([0], 1), ([0, "a"], 1)])
        with pytest.raises(DuplicateVertex, match=r"^repeated vertex in \[1, 0, 1\]$"):
            validate_complex([([0], 1), ([1], 1), ([1, 0, 1], 1)])
        with pytest.raises(ValueError, match="at least one vertex"):
            validate_complex([([0], 1), ([], 1)])

    def test_restrict_and_without(self):
        K = validate_complex([
            ([0], 1), ([1], 1), ([2], 1),
            ([0, 1], 2), ([0, 2], 2), ([1, 2], 2),
            ([0, 1, 2], 4),
        ])
        L = K.without([(0, 1, 2)])
        assert (0, 1, 2) not in L
        assert L.weight((0, 1)) == 2
        M = K.restrict([(0,), (1,), (0, 1)])
        assert list(M) == [(0,), (1,), (0, 1)]

    def test_restrict_names_the_first_simplex_it_does_not_hold(self):
        K = validate_complex((s, 1) for s in closure([(0, 1, 2)]))
        with pytest.raises(ValueError, match=r"^\[5\] is not a simplex of this complex$"):
            K.restrict([(0,), (5,)])
        with pytest.raises(ValueError, match=r"^\[7\] is not a simplex of this complex$"):
            K.restrict([(7,), (0,), (5,)])
        # without ignores what the complex does not hold
        assert K.without([(5,), (0, 1, 2)]) == K.restrict(closure([(0, 1), (0, 2), (1, 2)]))

    def test_items_and_equality(self):
        K = validate_complex([([0], 3)])
        assert K.items() == [((0,), 3)]
        assert K == validate_complex([([0], 3)])
        assert K != validate_complex([([0], 4)])
        # a weighted complex is a simplicial complex but never equals an unweighted one
        plain = SimplicialComplex([(0,)])
        assert isinstance(K, SimplicialComplex)
        assert K != plain and plain != K
        # neither is hashable: a hash would list every simplex again
        for complex in (K, plain):
            with pytest.raises(TypeError):
                hash(complex)


class TestFaceTable:
    """The face indices every constructor lists and every consumer reads."""

    @staticmethod
    def assert_table_maps_back(K):
        for n in range(-1, K.dimension + 2):
            cells, table = K.of_dim(n), K.face_indices(n)
            assert len(table) == len(cells)
            for sigma, entry in zip(cells, table):
                # faces() lists them in deletion order, the table in lex order
                assert [K.of_dim(n - 1)[i] for i in entry] == faces(sigma)[::-1]

    @pytest.mark.parametrize("seed", range(80))
    def test_random_complexes_with_zero_stars_and_negative_weights(self, seed):
        K = random_weighted_complex(random.Random(seed), max_vertices=9, max_facets=7,
                                    max_facet_dim=4, zero_star_chance=0.5)
        self.assert_table_maps_back(K)
        for n in range(-1, K.dimension + 2):
            assert K.weights_of_dim(n) == tuple(map(K.weight, K.of_dim(n)))
        # a subcomplex lists its own table
        self.assert_table_maps_back(K.without(K.maximal_simplices()[:1]))

    @pytest.mark.parametrize("maximal", [
        [(0, 1, 2, 3, 4)],
        [(0, 2, 5), (1, 2, 3), (3, 7), (4,)],
        [(2, 3, 5, 8), (0, 1, 5, 8), (1, 4)],
    ])
    def test_complexes_built_by_closure(self, maximal):
        self.assert_table_maps_back(SimplicialComplex(closure(maximal)))
        self.assert_table_maps_back(SimplicialComplex.from_maximal(maximal))


def entries_of(K):
    return [(list(s), w) for s, w in K.items()]


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9), st.floats(min_value=0, max_value=0.5))
def test_generator_output_validates(seed, zero_chance):
    rng = random.Random(seed)
    K = random_weighted_complex(rng, zero_star_chance=zero_chance)
    # rebuilding through the validator must accept every generated complex
    rebuilt = validate_complex(entries_of(K))
    assert rebuilt == K
    # weights divide along every codimension-one face relation
    for s, w in K.items():
        for g in faces(s):
            wf = K.weight(g)
            assert w == 0 if wf == 0 else w % wf == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_free_coface_properties(seed):
    rng = random.Random(seed)
    K = random_weighted_complex(rng)
    for s in K:
        t = K.free_coface(s)
        if t is None:
            continue
        assert dim(t) == dim(s) + 1
        assert K.is_maximal(t)
        assert set(s) < set(t)
        # removing the pair leaves a legal complex
        K.without([s, t])


def assert_coface_queries_match_subset_enumeration(K):
    up = reference_proper_cofaces(K.simplices)
    for s in K:
        want = sorted(up[s], key=lambda t: (len(t), t))
        K.cofacets(s).append((99,))  # a caller's list is its own: the index must not change
        assert K.proper_cofaces(s) == want
        assert K.cofacets(s) == [t for t in want if len(t) == len(s) + 1]
        assert K.is_maximal(s) == (not want)
        assert K.free_coface(s) == (want[0] if len(want) == 1 else None)
    assert K.maximal_simplices() == [s for s in K if not up[s]]
    # a non-member has no cofaces, so it counts as maximal
    assert K.cofacets((99,)) == [] and K.proper_cofaces((99,)) == []
    assert K.is_maximal((99,)) and K.free_coface((99,)) is None


def subcomplexes(K):
    """K, K less one maximal simplex, and the closure of every other remaining maximal simplex."""
    top = K.maximal_simplices()
    return [K, K.without(top[:1]), K.restrict(closure(top[1::2]))]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_coface_queries_match_subset_enumeration(seed):
    rng = random.Random(seed)
    K = random_weighted_complex(rng, max_vertices=9, max_facets=7, max_facet_dim=4)
    for L in subcomplexes(K):
        assert_coface_queries_match_subset_enumeration(L)


@pytest.mark.parametrize("seed", range(40))
def test_coface_queries_read_no_faces(seed, monkeypatch):
    K = random_weighted_complex(random.Random(seed), max_vertices=9, max_facets=7, max_facet_dim=4)
    # complexes built from records and derived from K, queried only under the patch
    fresh = [validate_complex(K.items())] + subcomplexes(K)[1:]

    def no_faces(sigma):
        raise AssertionError(f"a coface query listed the faces of {list(sigma)}")

    monkeypatch.setattr("wmorse.complexes.faces", no_faces)
    for L in fresh:
        assert_coface_queries_match_subset_enumeration(L)


def test_a_complex_holds_its_positions_cells_and_face_table_only():
    assert SimplicialComplex.__slots__ == ("_position", "_by_dim", "_faces")
    assert WeightedComplex.__slots__ == ("_weights",)


@pytest.mark.parametrize("seed", range(20))
def test_queries_scans_and_collapses_leave_a_complex_as_built(seed):
    K = random_weighted_complex(random.Random(seed), zero_star_chance=0.3)
    state = complex_state(K)
    assert_coface_queries_match_subset_enumeration(K)
    f = validate_morse(K, greedy_morse_values(K)[0])
    critical = classify(K, f).critical
    for c in f.distinct_values():
        level_subcomplex(K, f, c)
    top = f.distinct_values()[-1]
    for c in f.distinct_values()[:-1]:
        try:
            morse_collapse(K, f, c, top)
        except HypothesisFailed:
            pass
    for alpha in critical:
        try:
            critical_window(K, f, alpha, f(alpha) - 1, f(alpha))
        except HypothesisError:
            pass
    applied = greedy_collapse(K)[1]
    collapse_sequence(K, [step.sigma for step, _ in applied])
    for s in K:
        if K.free_coface(s) is not None:
            elementary_collapse(K, s)
    assert_state_kept(K, state)


# --- complexes derived from a parent's positions, against a fresh build ----------------

def derived_complexes(K, rng):
    """Subcomplexes of K by every derived path: restrict, without, collapses and level complexes."""
    cells = list(K)
    for _ in range(3):
        yield K.restrict(closure(rng.sample(cells, rng.randint(0, len(cells)))))
    top = K.maximal_simplices()
    yield K.without(rng.sample(top, rng.randint(0, len(top))))
    yield greedy_collapse(K)[0]
    L, sigmas = K, []
    for _ in range(rng.randint(0, len(cells))):  # a random walk of free faces
        free = [s for s in L if L.free_coface(s) is not None]
        if not free:
            break
        sigmas.append(rng.choice(free))
        L = elementary_collapse(L, sigmas[-1])[0]
        yield L
    yield collapse_sequence(K, sigmas)[0]
    f = validate_morse(K, greedy_morse_values(K, split=rng.random() < 0.5)[0])
    for c in [min(f.distinct_values()) - 1, *f.distinct_values()]:
        yield level_subcomplex(K, f, c)


@pytest.mark.parametrize("seed", range(150))
def test_derived_complexes_equal_a_fresh_build(seed):
    # a derived complex checks closure only: the constructor that checks everything is its oracle
    rng = random.Random(seed)
    K = random_weighted_complex(rng, zero_star_chance=0.3)
    for L in derived_complexes(K, rng):
        M = validate_complex(L.items())
        assert L == M and type(L) is WeightedComplex and L.dimension == M.dimension
        for n in range(-1, K.dimension + 2):
            assert L.of_dim(n) == M.of_dim(n) and L.face_indices(n) == M.face_indices(n)
            assert L.weights_of_dim(n) == M.weights_of_dim(n)
        for s in K:
            assert L.position(s) == M.position(s) and L.cofacets(s) == M.cofacets(s)
        assert homology(L) == homology(M)
    # the unweighted class derives the same way
    plain = SimplicialComplex(K)
    L = plain.without(rng.sample(K.maximal_simplices(), 1))
    M = SimplicialComplex(L.simplices)
    assert L == M and type(L) is SimplicialComplex
    assert all(L.face_indices(n) == M.face_indices(n) for n in range(K.dimension + 1))


@pytest.mark.parametrize("seed", range(60))
def test_a_selection_that_is_not_closed_names_the_face_the_constructor_names(seed):
    rng = random.Random(seed)
    K = random_weighted_complex(rng, max_vertices=9, max_facets=7, max_facet_dim=4)
    cells = list(K)
    for _ in range(10):
        chosen = rng.sample(cells, rng.randint(1, len(cells)))
        try:
            SimplicialComplex(chosen)
        except NotFaceClosed as error:
            missing = error.missing
        else:
            missing = None
        if missing is None:
            assert K.restrict(chosen) == validate_complex((s, K.weight(s)) for s in chosen)
            continue
        with pytest.raises(NotFaceClosed) as info:
            K.restrict(chosen)
        assert info.value.missing == missing
        with pytest.raises(NotFaceClosed) as info:
            K.without(set(cells) - set(chosen))
        assert info.value.missing == missing


class TestRestrictRefusals:
    """restrict checks vertex ids and membership, and leaves the rest to closure."""

    K = validate_complex((s, 1) for s in closure([(0, 1, 2)]))

    def test_a_bool_float_or_fraction_vertex_id_is_refused_as_simplex_refuses_it(self):
        # each equals 1 and hashes as 1, so without the id check (bad,) would find the cell (1,)
        for bad in (True, 1.0, Fraction(1)):
            message = rf"^vertex ids must be non-negative integers, got {re.escape(repr(bad))}$"
            for members in ([(0,), (bad,)], [(bad,), (0,)], [(0,), (1,), (0, bad)], [*self.K, (0, bad, 2)]):
                with pytest.raises(ValueError, match=message):
                    self.K.restrict(members)
        with pytest.raises(ValueError, match="at least one vertex"):
            self.K.restrict([(0,), ()])

    def test_a_member_not_in_canonical_form_is_not_a_simplex_of_this_complex(self):
        # (1, 0) and (0, 0) are not cells of any complex, so this complex holds neither
        for member in ((1, 0), (0, 0), (2, 1, 0)):
            with pytest.raises(ValueError, match=rf"^{re.escape(str(list(member)))} is not a simplex of this complex$"):
                self.K.restrict([(0,), (1,), (2,), member])

    def test_a_member_it_does_not_hold_is_named_before_a_missing_face(self):
        with pytest.raises(ValueError, match=r"^\[5\] is not a simplex of this complex$"):
            self.K.restrict([(0, 1), (5,)])
        with pytest.raises(NotFaceClosed) as info:
            self.K.restrict([(0,), (0, 1), (0, 2)])
        assert info.value.missing == (1,)
