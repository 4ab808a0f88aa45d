"""Weighted boundary matrices, homology groups, and class orders."""

import hashlib
import importlib
import itertools
import random
import re
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    class_order_oracle,
    constant_complex,
    constant_table,
    filled_triangle,
    full_simplex,
    groups_equal_padded,
    hollow_triangle_w2,
    level_dims,
    level_dims_from_groups,
    matrix_rows,
    minor_gcd_factors,
    mul,
    rational_rank,
    sphere,
    unlimited_int_digits,
    weighted_disk,
)
from generators import prime_weight_complex, random_weighted_complex
from wmorse import (
    ClassOrder,
    HomologyGroup,
    NotACycle,
    SimplicialComplex,
    WeightedComplex,
    boundary_matrix,
    build_woc,
    chain_basis,
    faces,
    group_at,
    homology,
    homology_class_order,
    validate_complex,
)
from wmorse.complexes import closure
from wmorse.snf import IntMatrix, smith_normal_form


def scaled(K, c):
    return WeightedComplex(K, [[c * w for w in K.weights_of_dim(n)] for n in range(K.dimension + 1)])


class TestHomologyGroup:
    def test_str(self):
        assert str(HomologyGroup(1, (2,))) == "Z^1 (+) Z/2"
        assert str(HomologyGroup(0, (2, 4))) == "Z/2 (+) Z/4"
        assert str(HomologyGroup(2)) == "Z^2"
        assert str(HomologyGroup(0)) == "0"

    def test_str_writes_coefficients_past_the_digit_limit(self):
        groups = [HomologyGroup(1, (HUGE,)), HomologyGroup(0, (10 ** 600, 10 ** 4400, 10 ** 4400 * (HUGE - 7)))]
        texts = [str(g) for g in groups]
        with unlimited_int_digits():
            assert texts == ["Z^1 (+) Z/" + str(HUGE), " (+) ".join("Z/" + str(d) for d in groups[1].torsion)]
        assert str(ClassOrder.torsion(HUGE)) == f"torsion(k={texts[0][10:]})"

    def test_trivial(self):
        assert HomologyGroup.trivial().is_trivial
        assert not HomologyGroup(1).is_trivial

    def test_invalid_groups_rejected(self):
        with pytest.raises(ValueError):
            HomologyGroup(-1)
        with pytest.raises(ValueError):
            HomologyGroup(0, (1,))
        with pytest.raises(ValueError):
            HomologyGroup(0, (2, 3))  # 2 does not divide 3
        # the messages name entries, so coefficients past the digit limit do not break them
        with pytest.raises(ValueError, match="not a divisibility chain: entry 0 does not divide entry 1"):
            HomologyGroup(0, (HUGE, HUGE + 1))
        with pytest.raises(ValueError, match="must exceed 1, but entry 0 does not"):
            HomologyGroup(0, (-HUGE,))

    def test_repr_writes_coefficients_past_the_digit_limit(self):
        assert repr(HomologyGroup(2)) == "HomologyGroup(free_rank=2, torsion=())"
        assert repr(HomologyGroup(1, (2,))) == "HomologyGroup(free_rank=1, torsion=(2,))"
        assert repr(HomologyGroup(0, (2, 4))) == "HomologyGroup(free_rank=0, torsion=(2, 4))"
        assert repr(ClassOrder.infinite()) == "ClassOrder(kind='infinite', k=None)"
        assert repr(ClassOrder.zero()) == "ClassOrder(kind='zero', k=1)"
        texts = [repr(HomologyGroup(1, (HUGE, HUGE * 10 ** 600))), repr(ClassOrder.torsion(HUGE))]
        with unlimited_int_digits():
            assert texts == [
                f"HomologyGroup(free_rank=1, torsion=({HUGE}, {HUGE * 10 ** 600}))",
                f"ClassOrder(kind='torsion', k={HUGE})",
            ]

    def test_group_at_out_of_range(self):
        groups = [HomologyGroup(1)]
        assert group_at(groups, 0) == HomologyGroup(1)
        assert group_at(groups, 3) == HomologyGroup.trivial()
        assert group_at(groups, -1) == HomologyGroup.trivial()


class TestBoundaryMatrices:
    def test_filled_triangle_matrices(self):
        K = filled_triangle()
        assert chain_basis(K, 0) == ((0,), (1,), (2,))
        assert chain_basis(K, 1) == ((0, 1), (0, 2), (1, 2))
        assert chain_basis(K, 2) == ((0, 1, 2),)
        # columns scale each face by the weight ratio, signs alternate
        assert matrix_rows(boundary_matrix(K, 1)) == [[-2, -2, 0], [2, 0, -4], [0, 1, 2]]
        assert matrix_rows(boundary_matrix(K, 2)) == [[2], [-2], [1]]
        # the composite of successive boundaries vanishes
        assert not any(mul(boundary_matrix(K, 1), boundary_matrix(K, 2)).columns)

    def test_columns_are_the_given_cells_in_order(self):
        K = filled_triangle()
        d = boundary_matrix(K, 1, [(1, 2), (0, 1)])
        assert (d.rows, d.cols) == (3, 2)
        assert matrix_rows(d) == [[0, -2], [-4, 2], [2, 0]]
        assert matrix_rows(boundary_matrix(K, 1, ())) == [[], [], []]

    @pytest.mark.parametrize("cell", [(0, 3), (2, 3), (0, 1, 2), (0,), (1, 4), (7, 8)])
    def test_cells_outside_the_chain_basis_are_refused(self, cell):
        # (2, 3) has weight 0; (0, 3), (1, 4) and (7, 8) are missing; (0, 1, 2) and (0,) have the wrong dimension
        K = weighted_closure([(0, 1, 2), (2, 3)], lambda s: 0 if s == (2, 3) else 1)
        assert chain_basis(K, 1) == ((0, 1), (0, 2), (1, 2))
        with pytest.raises(ValueError, match=re.escape(f"{list(cell)} is not a cell of chain_basis(K, 1)")):
            boundary_matrix(K, 1, [(0, 1), cell])

    def test_dimension_zero_boundary_has_no_rows(self):
        d = boundary_matrix(filled_triangle(), 0)
        assert d.rows == 0
        assert d.cols == 3

    def test_out_of_range_matrices_are_zero_shaped(self):
        K = filled_triangle()
        assert boundary_matrix(K, 3).rows == 1
        assert boundary_matrix(K, 3).cols == 0
        assert (boundary_matrix(K, -1).rows, boundary_matrix(K, -1).cols) == (0, 0)
        assert chain_basis(K, 7) == ()
        assert chain_basis(K, -1) == ()

    def test_zero_weight_simplices_left_out_of_bases(self):
        K = validate_complex([([0], 1), ([1], 1), ([0, 1], 0)])
        assert [chain_basis(K, n) for n in range(2)] == [((0,), (1,)), ()]
        assert homology(K) == [HomologyGroup(2), HomologyGroup(0)]

    def test_zero_weight_star(self):
        # zeroing an edge forces zeros on everything above it
        K = validate_complex([
            ([0], 1), ([1], 1), ([2], 1),
            ([0, 1], 0), ([0, 2], 1), ([1, 2], 1),
            ([0, 1, 2], 0),
        ])
        assert chain_basis(K, 1) == ((0, 2), (1, 2))
        assert chain_basis(K, 2) == ()
        # what carries chains is a path on three vertices; the group list
        # still runs up to the complex dimension
        assert homology(K) == [HomologyGroup(1), HomologyGroup(0), HomologyGroup(0)]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9), st.floats(min_value=0, max_value=0.4))
    def test_boundary_squares_to_zero(self, seed, zero_chance):
        rng = random.Random(seed)
        K = random_weighted_complex(rng, zero_star_chance=zero_chance)
        for n in range(1, K.dimension + 1):
            assert not any(mul(boundary_matrix(K, n), boundary_matrix(K, n + 1)).columns)


# classical homology of standard spaces: (space builder, expected groups)
TEXTBOOK = [
    (lambda w: full_simplex(0, w), [HomologyGroup(1)]),
    (lambda w: full_simplex(2, w), [HomologyGroup(1), HomologyGroup(0), HomologyGroup(0)]),
    (lambda w: full_simplex(4, w), [HomologyGroup(1)] + [HomologyGroup(0)] * 4),
    (lambda w: sphere(1, w), [HomologyGroup(1), HomologyGroup(1)]),
    (lambda w: sphere(2, w), [HomologyGroup(1), HomologyGroup(0), HomologyGroup(1)]),
    (lambda w: sphere(3, w), [HomologyGroup(1), HomologyGroup(0), HomologyGroup(0), HomologyGroup(1)]),
    (lambda w: constant_complex([(0,), (1,)], w), [HomologyGroup(2)]),
    (lambda w: constant_complex([(0, 1), (1, 2), (0, 2), (3,)], w),
     [HomologyGroup(2), HomologyGroup(1)]),
]


class TestClassicalAgreement:
    @pytest.mark.parametrize("builder,expected", TEXTBOOK)
    @pytest.mark.parametrize("w", [1, 7])
    def test_constant_weight_matches_textbook_values(self, builder, expected, w):
        # constant nonzero weight leaves every ratio at 1, so the groups
        # are the classical ones regardless of the constant
        assert homology(builder(w)) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_random_complexes_constant_weight(self, seed):
        rng = random.Random(seed)
        K = random_weighted_complex(rng)
        ones = WeightedComplex(K, constant_table(K, 1))
        sixes = WeightedComplex(K, constant_table(K, 6))
        assert homology(ones) == homology(sixes)


class TestGoldenExamples:
    def test_filled_triangle_homology(self):
        assert [str(g) for g in homology(filled_triangle())] == ["Z^1 (+) Z/2", "0", "0"]

    def test_collapse_chain_homology_table(self):
        K0 = filled_triangle()
        K1 = K0.without([(1, 2), (0, 1, 2)])
        K2 = K1.without([(1,), (0, 1)])
        K3 = K2.without([(0,), (0, 2)])
        assert group_at(homology(K0), 0) == HomologyGroup(1, (2,))
        assert group_at(homology(K1), 0) == HomologyGroup(1, (2,))
        assert group_at(homology(K2), 0) == HomologyGroup(1)
        assert group_at(homology(K3), 0) == HomologyGroup(1)
        for Ki in (K0, K1, K2, K3):
            groups = homology(Ki)
            assert group_at(groups, 1).is_trivial
            assert group_at(groups, 2).is_trivial

    def test_hollow_triangle_homology(self):
        K = hollow_triangle_w2()
        assert homology(K) == [HomologyGroup(1, (2, 2)), HomologyGroup(1)]
        L = K.without([(1, 2)])
        assert homology(L) == [HomologyGroup(1, (2, 2)), HomologyGroup(0)]

    def test_weighted_disk(self):
        assert homology(weighted_disk(1)) == [
            HomologyGroup(1), HomologyGroup(0), HomologyGroup(0)]
        assert homology(weighted_disk(2)) == [
            HomologyGroup(1), HomologyGroup(0, (2,)), HomologyGroup(0)]

    def test_max_dim_truncates(self):
        K = filled_triangle()
        assert homology(K, max_dim=0) == homology(K)[:1]
        assert homology(K, max_dim=5) == homology(K)

    def test_empty_complex(self):
        K = WeightedComplex(SimplicialComplex([]), [])
        assert homology(K) == []


class TestScaleInvariance:
    @pytest.mark.parametrize("c", [-1, 2, 5])
    def test_fixture_complexes(self, c):
        for K in (filled_triangle(), hollow_triangle_w2(), weighted_disk(2)):
            assert homology(scaled(K, c)) == homology(K)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9), st.sampled_from([-1, 2, 3, 10]))
    def test_random_complexes(self, seed, c):
        rng = random.Random(seed)
        K = random_weighted_complex(rng)
        assert homology(scaled(K, c)) == homology(K)


class TestClassOrder:
    def test_circle_fundamental_class_is_infinite(self):
        K = sphere(1)  # basis (0,1), (0,2), (1,2)
        order = homology_class_order(K, 1, [1, -1, 1])
        assert order.kind == "infinite"
        assert not order.is_torsion

    def test_hollow_triangle_generator_is_infinite(self):
        K = hollow_triangle_w2()
        assert homology_class_order(K, 1, [1, -1, 1]).kind == "infinite"

    def test_boundary_class_is_zero(self):
        K = filled_triangle()
        # the weighted boundary of the 2-cell, straight from its column
        order = homology_class_order(K, 1, [2, -2, 1])
        assert order.kind == "zero"
        assert order.k == 1
        assert order.is_torsion

    def test_removal_example_class_is_zero(self):
        L = hollow_triangle_w2().without([(1, 2)])
        # boundary of the removed edge: 2*v2 - 2*v1
        order = homology_class_order(L, 0, [0, -2, 2])
        assert order.kind == "zero"

    def test_weighted_disk_torsion_class(self):
        K = weighted_disk(2)
        order = homology_class_order(K, 1, [1, -1, 1])
        assert order.kind == "torsion"
        assert order.k == 2

    def test_not_a_cycle_rejected(self):
        K = hollow_triangle_w2()
        with pytest.raises(NotACycle):
            homology_class_order(K, 1, [1, 0, 0])

    def test_bad_chain_vectors_rejected(self):
        K = hollow_triangle_w2()
        with pytest.raises(ValueError):
            homology_class_order(K, 1, [1, -1])
        with pytest.raises(ValueError):
            homology_class_order(K, 1, [1.0, -1.0, 1.0])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_matches_lattice_oracle_on_boundaries(self, seed):
        rng = random.Random(seed)
        K = random_weighted_complex(rng, max_vertices=6, max_facet_dim=3)
        for n in range(K.dimension):
            B = boundary_matrix(K, n + 1)
            # the minor oracle is exponential in the smaller side: at 6 a
            # draw takes seconds, at 9 close to a minute
            if not 0 < min(B.rows, B.cols) <= 5:
                continue
            x = [rng.randint(-2, 2) for _ in range(B.cols)]
            z = list(B.apply(x))
            g = gcd(*z) if any(z) else 0
            candidates = [z]
            if g > 1:
                candidates.append([v // g for v in z])
            for cand in candidates:
                got = homology_class_order(K, n, cand)
                want = class_order_oracle(matrix_rows(B), B.cols, cand)
                if want == 0:
                    assert got.kind == "zero"
                elif want is None:
                    assert got.kind == "infinite"
                else:
                    assert got.kind == "torsion" and got.k == want


def _integer_kernel(rows, cols):
    """Integer vectors spanning the rational kernel, by Fraction elimination."""
    M = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(cols):
        r = next((i for i in range(len(pivots), len(M)) if M[i][c] != 0), None)
        if r is None:
            continue
        top = len(pivots)
        M[top], M[r] = M[r], M[top]
        M[top] = [x / M[top][c] for x in M[top]]
        for i in range(len(M)):
            if i != top and M[i][c] != 0:
                M[i] = [a - M[i][c] * b for a, b in zip(M[i], M[top])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for row, c in enumerate(pivots):
            v[c] = -M[row][free]
        scale = lcm(*(x.denominator for x in v))
        basis.append([int(x * scale) for x in v])
    return basis


def _cycle_orders_against_oracle(seed) -> set[str]:
    """Class orders of random cycles of a small random complex, checked.

    Cycles mix a random kernel element (often of infinite order), a
    boundary (order zero) and a division by the common factor (often
    torsion). Returns the kinds of order met.
    """
    rng = random.Random(seed)
    K = random_weighted_complex(rng, max_vertices=4, max_facet_dim=2)
    kinds = set()
    for n in range(K.dimension + 1):
        below, above = boundary_matrix(K, n), boundary_matrix(K, n + 1)
        if not below.cols:
            continue
        kernel = _integer_kernel(matrix_rows(below), below.cols)
        for _ in range(3):
            z = list(above.apply([rng.randint(-2, 2) for _ in range(above.cols)]))
            if kernel and rng.random() < 0.5:
                k = rng.choice(kernel)
                c = rng.choice([1, 2, 3])
                z = [a + c * b for a, b in zip(z, k)]
            g = gcd(*z)
            if g > 1 and rng.random() < 0.5:
                z = [v // g for v in z]
            got = homology_class_order(K, n, z)
            want = class_order_oracle(matrix_rows(above), above.cols, z)
            if want == 0:
                assert got == ClassOrder.zero()
            elif want is None:
                assert got == ClassOrder.infinite()
            else:
                assert got == ClassOrder.torsion(want)
            kinds.add(got.kind)
    return kinds


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_class_orders_of_random_cycles_match_oracle(seed):
    _cycle_orders_against_oracle(seed)


def test_random_cycles_cover_every_kind_of_order():
    kinds = set()
    for seed in range(40):
        kinds |= _cycle_orders_against_oracle(seed)
    assert kinds == {"zero", "torsion", "infinite"}


def test_homology_of_cone_is_trivial_above_zero():
    # coning every simplex to a fresh vertex kills all higher homology
    base = sphere(1)
    cone_faces = [(0, 1, 3), (0, 2, 3), (1, 2, 3)]
    K = constant_complex(cone_faces, 1)
    assert homology(K) == [HomologyGroup(1), HomologyGroup(0), HomologyGroup(0)]


# a mixed-sign complex whose d_2 reaches its fourth unit only after a
# Euclid step: clearing on that unit drops an edge column of d_1 that is
# no combination of the kept ones, and H0 comes out as Z (+) Z/8
EUCLID_UNIT = {
    (0,): 6, (1,): -4, (3,): 1, (4,): 2, (5,): 1,
    (0, 1): 12, (0, 3): 6, (0, 4): -6, (0, 5): -6, (1, 3): 4, (1, 4): 8, (3, 4): 6, (3, 5): 3,
    (4, 5): 2,
    (0, 1, 3): 12, (0, 1, 4): 24, (0, 3, 4): -6, (1, 3, 4): -24, (3, 4, 5): 6,
    (0, 1, 3, 4): 72,
}


def oracle_homology(K):
    """Groups from the minor gcds and rational ranks of every full boundary."""
    groups = []
    for n in range(K.dimension + 1):
        below, above = boundary_matrix(K, n), boundary_matrix(K, n + 1)
        free = (below.cols - rational_rank(matrix_rows(below), below.cols)
                - rational_rank(matrix_rows(above), above.cols))
        torsion = minor_gcd_factors(matrix_rows(above), above.cols)
        groups.append(HomologyGroup(free, tuple(d for d in torsion if d > 1)))
    return groups


def small_mixed_complex(rng, zero_chance):
    """A random mixed-sign complex whose boundaries the minor oracle can afford."""
    while True:
        K = random_weighted_complex(rng, max_vertices=6, max_facets=4, zero_star_chance=zero_chance)
        boundaries = (boundary_matrix(K, n) for n in range(K.dimension + 1))
        if all(min(d.rows, d.cols) <= 4 for d in boundaries):
            return K


class TestClearing:
    def test_units_reached_by_euclid_steps_clear_nothing(self):
        assert [str(g) for g in homology(validate_complex(EUCLID_UNIT.items()))] == [
            "Z^1", "Z^1", "Z/3", "0"]
        rows = []
        assert smith_normal_form(IntMatrix.from_rows([[2, 3]]), unit_rows=rows).factors == (1,)
        assert rows == []

    def test_leading_unit_pivots_name_their_rows(self):
        rows = []
        A = IntMatrix.from_rows([[0, 2, 0], [1, 0, 0], [0, 0, -1]])
        assert smith_normal_form(A, unit_rows=rows).factors == (1, 1, 2)
        assert sorted(rows) == [1, 2]

    def test_no_row_is_named_after_the_first_non_unit_pivot(self):
        # the pivot 2 turns the second column into (0, -1) by a column
        # operation; that unit is taken after a non-unit and names nothing
        rows = []
        A = IntMatrix.from_rows([[2, 4], [2, 3]])
        assert smith_normal_form(A, unit_rows=rows).factors == (1, 2)
        assert rows == []

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9), st.floats(min_value=0, max_value=0.5))
    def test_matches_minor_oracle_on_random_mixed_sign_complexes(self, seed, zero_chance):
        K = small_mixed_complex(random.Random(seed), zero_chance)
        assert homology(K) == oracle_homology(K)

    def test_each_dimension_is_reduced_once_without_cleared_columns(self, monkeypatch):
        homology_module = importlib.import_module("wmorse.homology")
        snf_module = importlib.import_module("wmorse.snf")
        real, real_boundary = snf_module.smith_normal_form, homology_module.boundary_matrix
        calls, assembled = [], []

        def smith_normal_form(A, **kwargs):
            calls.append((A.rows, A.cols, sorted(kwargs)))
            return real(A, **kwargs)

        def boundary_matrix(K, n, cells=None):
            d = real_boundary(K, n, cells)
            assembled.append(d.cols)
            return d

        monkeypatch.setattr(snf_module, "smith_normal_form", smith_normal_form)
        monkeypatch.setattr(homology_module, "boundary_matrix", boundary_matrix)
        K, _ = build_woc("ACGTAC", {"A": 1, "C": 2, "G": 3, "T": 4}, 1)
        assert [len(K.of_dim(n)) for n in range(5)] == [17, 81, 146, 112, 32]
        # the Smith path, which homology() takes when the certificate fails
        assert homology_module._smith_homology(K, K.dimension) == homology(K)
        # d_5 down to d_0, one call each; without clearing the columns add up to 388
        assert [rows for rows, _, _ in calls] == [32, 112, 146, 81, 17, 0]
        assert [cols for _, cols, _ in calls] == [0, 32, 80, 66, 16, 2]
        assert all(kwargs == ["unit_rows"] for _, _, kwargs in calls)
        # a cleared column is never assembled: 196 columns in all
        assert assembled == [0, 32, 80, 66, 16, 2]


DNA_WEIGHTS = {"A": 1, "C": 2, "G": 3, "T": 4}
PRIMES = (2, 3, 5)  # 5 divides no DNA weight, so there it pins the free ranks


def assert_levels_match(K):
    groups = homology(K)
    for p in PRIMES:
        assert level_dims(K, p) == level_dims_from_groups(groups, p), p


def seeded_sequences(lengths=range(5, 9), seed=20191):
    rng = random.Random(seed)
    return [("".join(rng.choice("ACGT") for _ in range(n)), woc_type)
            for n in lengths for _ in range(2) for woc_type in range(1, 5)]


class TestLevelOracle:
    """homology() against the F_p level oracle, at sizes the minor oracle cannot reach."""

    @pytest.mark.parametrize("woc_type", [1, 2, 3, 4])
    def test_every_dna_sequence_up_to_length_4(self, woc_type):
        for n in range(1, 5):
            for letters in itertools.product("ACGT", repeat=n):
                assert_levels_match(build_woc("".join(letters), DNA_WEIGHTS, woc_type)[0])

    @pytest.mark.parametrize("s, woc_type", seeded_sequences())
    def test_seeded_sequences_of_length_5_to_8(self, s, woc_type):
        assert_levels_match(build_woc(s, DNA_WEIGHTS, woc_type)[0])

    @pytest.mark.parametrize("seed", range(40))
    def test_random_mixed_sign_complexes_with_zero_stars(self, seed):
        rng = random.Random(seed)
        K = random_weighted_complex(rng, max_vertices=9, max_facets=6, max_facet_dim=4, zero_star_chance=0.5)
        assert_levels_match(K)


HOMOLOGY = importlib.import_module("wmorse.homology")


def both_paths(K):
    """Groups by the certified reduction (None on a failed certificate) and by Smith."""
    top = K.dimension
    return HOMOLOGY._certified_homology(K, top), HOMOLOGY._smith_homology(K, top)


def digest_line(groups) -> bytes:
    return (" ; ".join(map(str, groups)) if groups is not None else "fallback").encode() + b"\n"


# 4,310 digits: past the default limit on int-to-str conversion
HUGE = 7 ** 5100
GENERATORS = (4, 6, 9, 10, 15, HUGE)


def reweighted(K, rng, generators):
    """K's simplices, signs and zero stars under weights built from the generators.

    Each nonzero simplex weighs the lcm of its faces' weights times 1 or
    a generator, so every weight is a product of generators and their
    coprime base is what the generators refine to.
    """
    weight = {}
    for s in K:  # faces first
        w = K.weight(s)
        if w:
            w = (1 if w > 0 else -1) * rng.choice((1, 1) + tuple(generators))
            w *= lcm(*(abs(weight[f]) for f in faces(s)))
        weight[s] = w
    return validate_complex(weight.items())


def mixed_base_complex(seed, generators=GENERATORS):
    rng = random.Random(seed)
    K = random_weighted_complex(rng, max_vertices=9, max_facets=7, max_facet_dim=4, zero_star_chance=0.5)
    return reweighted(K, rng, generators)


# six letter weights whose coprime base has 17 elements
SIX_LETTER_WEIGHTS = {"A": 151588013830, "B": 6022953885, "C": 52171688569,
                      "D": 1204461778591, "E": 3127, "F": 1}


# the six-vertex real projective plane, and the cone over it from vertex 6
RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
       (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5)]


def weighted_closure(maximal, weight):
    return validate_complex((s, weight(s)) for s in closure(maximal))


class TestCertifiedPath:
    """The certified reduction against the Smith path, both called directly."""

    @pytest.mark.parametrize("woc_type", [1, 2, 3, 4])
    def test_every_dna_sequence_up_to_length_6(self, woc_type):
        certified, smith = hashlib.sha256(), hashlib.sha256()
        for n in range(1, 7):
            for letters in itertools.product("ACGT", repeat=n):
                a, b = both_paths(build_woc("".join(letters), DNA_WEIGHTS, woc_type)[0])
                certified.update(digest_line(a))
                smith.update(digest_line(b))
        assert certified.hexdigest() == smith.hexdigest()

    @pytest.mark.parametrize("s, woc_type", seeded_sequences(range(7, 10), seed=2005))
    def test_seeded_sequences_of_length_7_to_9(self, s, woc_type):
        a, b = both_paths(build_woc(s, DNA_WEIGHTS, woc_type)[0])
        assert digest_line(a) == digest_line(b)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9),
           st.lists(st.sampled_from(GENERATORS), min_size=1, max_size=3, unique=True))
    def test_random_mixed_sign_complexes_over_several_bases(self, seed, generators):
        K = mixed_base_complex(seed, generators)
        certified, smith = both_paths(K)
        assert certified is None or certified == smith
        assert homology(K) == smith

    def test_seeded_mixed_base_complexes_are_certified(self):
        # none of these needs the fallback, so the certificate does the work
        for seed in range(60):
            certified, smith = both_paths(mixed_base_complex(seed))
            assert certified == smith, seed

    def test_zero_weight_cells_between_nonzero_cells(self):
        # the zero star of vertex 1 puts zero-weight cells between nonzero ones
        # in the lex order of dimensions 0, 1 and 2; the reductions index
        # of_dim, so each skipped column shifts no row of a nonzero column
        cells = closure([(0, 1, 2), (0, 2, 3), (1, 3)])
        nonzero = {(0,): 2, (2,): 3, (3,): 1, (0, 2): 6, (0, 3): 2, (2, 3): 3, (0, 2, 3): 12}
        K = validate_complex((s, nonzero.get(s, 0)) for s in cells)
        assert [K.weights_of_dim(n) for n in range(3)] == [(2, 0, 3, 1), (0, 6, 2, 0, 0, 3), (0, 12)]
        certified, smith = both_paths(K)
        assert certified == smith == homology(K.restrict(nonzero))
        assert [str(g) for g in certified] == ["Z^1", "Z/2", "0"]

    def test_coprime_base_refines_without_factoring(self):
        values = [4, 6, 9, 10, 20, 15, HUGE, HUGE ** 2 * 6, 1]
        base = HOMOLOGY._coprime_base(values)
        assert all(gcd(a, b) == 1 for a, b in itertools.combinations(base, 2))
        for v in values:
            for b in base:
                v //= b ** HOMOLOGY._exponent(v, b)
            assert v == 1
        assert sorted(HOMOLOGY._coprime_base([4, 6, 9, 10, 15])) == [2, 3, 5]
        assert HOMOLOGY._exponent(HUGE ** 3 * 6, HUGE) == 3
        assert [HOMOLOGY._exponent(2 ** e * 3, 2) for e in range(9)] == list(range(9))

    @pytest.mark.parametrize("triangle_weight, groups", [
        (1, ["Z^1", "Z/2", "0"]),
        (3, ["Z^1", " (+) ".join(["Z/3"] * 9 + ["Z/6"]), "0"]),
    ])
    def test_projective_plane_falls_back_to_smith(self, triangle_weight, groups):
        # its ordinary H_1 has Z/2, so no order of its cells pairs by +-1 lows alone
        K = weighted_closure(RP2, lambda s: triangle_weight if len(s) == 3 else 1)
        certified, smith = both_paths(K)
        assert certified is None
        assert [str(g) for g in smith] == groups
        assert homology(K) == smith

    def test_a_non_unit_low_falls_back_even_without_torsion(self):
        # the cone over RP^2 is contractible, but weight 2 on the cone
        # puts RP^2's triangles first in d_2, where a low is +-2
        cone = [t + (6,) for t in RP2]
        K = weighted_closure(cone, lambda s: 2 if 6 in s else 1)
        certified, smith = both_paths(K)
        assert certified is None
        assert homology(K) == smith
        # under unit weights the lex order certifies the same cone
        assert HOMOLOGY._certified_homology(weighted_closure(cone, lambda s: 1), 3) == [
            HomologyGroup(1), HomologyGroup(0), HomologyGroup(0), HomologyGroup(0)]

    @pytest.mark.parametrize("s, woc_type", [("ABCDEF", t) for t in (1, 2, 3, 4)] + [("ABCDEFA", 1), ("ABCDEFA", 3)])
    def test_a_base_of_seventeen_elements_is_certified(self, s, woc_type):
        K = build_woc(s, SIX_LETTER_WEIGHTS, woc_type)[0]
        assert len(HOMOLOGY._coprime_base({abs(K.weight(c)) for c in K} - {0})) == 17
        certified, smith = both_paths(K)
        assert certified == smith

    @pytest.mark.parametrize("woc_type", [2, 4])
    def test_only_a_non_unit_low_sends_a_large_base_to_smith(self, monkeypatch, woc_type):
        # Smith runs for tens of seconds to minutes on these; the certified path takes a fraction of one
        def smith_normal_form(*args, **kwargs):
            raise AssertionError("the Smith path ran")

        monkeypatch.setattr(importlib.import_module("wmorse.snf"), "smith_normal_form", smith_normal_form)
        K = build_woc("ABCDEFA", SIX_LETTER_WEIGHTS, woc_type)[0]
        assert len(HOMOLOGY._coprime_base({abs(K.weight(c)) for c in K} - {0})) == 17
        assert homology(K) == HOMOLOGY._certified_homology(K, K.dimension)

    def test_a_projective_plane_beside_a_certified_complex_sends_both_to_smith(self):
        # one low that is not +-1 anywhere fails the certificate for the whole complex
        K, _ = build_woc("ACGTAC", {"A": 1, "C": 1, "G": 1, "T": 1}, 1)
        part = homology(K)
        assert part == [HomologyGroup(1), HomologyGroup(0), HomologyGroup(1), HomologyGroup(0), HomologyGroup(0)]
        offset = 1 + max(v for s in K for v in s)
        plane = closure([tuple(v + offset for v in t) for t in RP2])
        cells = list(K) + list(plane)
        union = validate_complex((s, K.weight(s) if s in K else 1) for s in cells)
        assert HOMOLOGY._certified_homology(union, union.dimension) is None
        free = [g.free_rank for g in part]
        free[0] += 1  # RP^2 is connected, with H_1 = Z/2 and H_2 = 0
        assert homology(union) == [HomologyGroup(r, (2,) if n == 1 else ()) for n, r in enumerate(free)]


class TestPrimeWeightComplex:
    """The seeded many-prime input that the bench script times at scale."""

    @pytest.mark.parametrize("seed", range(4))
    def test_homology_matches_smith_on_small_instances(self, seed):
        K = prime_weight_complex(seed, n=12, t=25, k=5)
        assert [len(K.of_dim(n)) for n in range(3)][::2] == [12, 25]
        assert homology(K) == HOMOLOGY._smith_homology(K, K.dimension)

    def test_the_measured_weight_table_is_pinned(self):
        # 11,464 cells; at k = 300 the 300 vertices draw 190 distinct primes
        K = prime_weight_complex(1)
        assert [len(K.of_dim(n)) for n in range(3)] == [300, 8164, 3000]
        assert len(set(K.weights_of_dim(0))) == 190
        digest = hashlib.sha256(repr(K.items()).encode()).hexdigest()
        assert digest == "0ce59705a98f6d82e90e4741216db05c097c40d51947489fe072087aa4cc5185"
