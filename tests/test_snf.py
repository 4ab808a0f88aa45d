"""Smith normal form against independent oracles."""

import itertools
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from conftest import class_order_oracle, matrix_rows, minor_gcd_factors, mul, rational_rank, transpose
from wmorse.homology import ClassOrder
from wmorse.snf import IntMatrix, smith_normal_form


def check_against_oracle(rows, cols):
    A = IntMatrix.from_rows(rows, cols=cols)
    dec = smith_normal_form(A)
    # factors match the gcd-of-minors characterization
    assert dec.factors == minor_gcd_factors(rows, cols)
    # divisibility chain, positivity
    for d, e in zip(dec.factors, dec.factors[1:]):
        assert d > 0 and e % d == 0
    # rank agrees with exact rational elimination
    assert dec.rank == rational_rank(rows, cols)


class TestSmallMatrices:
    def test_zero_matrix(self):
        dec = smith_normal_form(IntMatrix.from_rows([[0, 0]] * 3))
        assert dec.factors == ()
        assert dec.rank == 0

    def test_empty_shapes(self):
        assert smith_normal_form(IntMatrix.from_rows([], cols=4)).factors == ()
        assert smith_normal_form(IntMatrix.from_rows([[]] * 4)).factors == ()
        assert smith_normal_form(IntMatrix.from_rows([])).factors == ()

    def test_identity(self):
        dec = smith_normal_form(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert dec.factors == (1, 1, 1)

    def test_diag_2_3_needs_fixup(self):
        # diag(2, 3) is diagonal but violates divisibility; SNF is diag(1, 6)
        check_against_oracle([[2, 0], [0, 3]], 2)
        assert smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]])).factors == (1, 6)

    def test_single_entry(self):
        assert smith_normal_form(IntMatrix.from_rows([[-6]])).factors == (6,)

    def test_first_factor_is_gcd_of_entries(self):
        A = IntMatrix.from_rows([[4, 6], [10, 14]])
        assert smith_normal_form(A).factors[0] == 2

    @pytest.mark.parametrize("a,b", [(2, 3), (4, 6), (5, 5), (1, 9), (12, 18)])
    def test_two_column_relation_matrix(self, a, b):
        # the column span of this matrix has cokernel Z + Z/gcd(a, b)
        rows = [[-b, 0], [1, -1], [0, a]]
        assert smith_normal_form(IntMatrix.from_rows(rows)).factors == (1, gcd(a, b))
        check_against_oracle(rows, 2)

    def test_transforms_on_rectangular(self):
        check_against_oracle([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], 3)
        check_against_oracle([[1, 2], [3, 4], [5, 6]], 2)
        check_against_oracle([[0, 0, 5]], 3)

    def test_rank_helper(self):
        assert smith_normal_form(IntMatrix.from_rows([[1, 2], [2, 4]])).rank == 1


entry = st.integers(min_value=-9, max_value=9)


@st.composite
def small_matrix(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=4))
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    return rows, n


@settings(max_examples=150, deadline=None)
@given(small_matrix())
def test_random_matrices_match_oracle(case):
    rows, cols = case
    check_against_oracle(rows, cols)


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_invariants_under_transpose_and_negation(case):
    rows, cols = case
    A = IntMatrix.from_rows(rows, cols=cols)
    base = smith_normal_form(A).factors
    assert smith_normal_form(transpose(A)).factors == base
    negated = IntMatrix.from_rows([[-x for x in r] for r in rows], cols=cols)
    assert smith_normal_form(negated).factors == base


@settings(max_examples=60, deadline=None)
@given(small_matrix(), st.randoms(use_true_random=False))
def test_invariants_under_permutation(case, rng):
    rows, cols = case
    base = smith_normal_form(IntMatrix.from_rows(rows, cols=cols)).factors
    shuffled = list(rows)
    rng.shuffle(shuffled)
    perm = list(range(cols))
    rng.shuffle(perm)
    shuffled = [[r[j] for j in perm] for r in shuffled]
    assert smith_normal_form(IntMatrix.from_rows(shuffled, cols=cols)).factors == base


def test_diag_2_3_factors():
    dec = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert dec.factors == (1, 6)


def test_matrix_basics():
    A = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert A.entry(1, 2) == 6
    assert matrix_rows(A) == [[1, 2, 3], [4, 5, 6]]
    assert A.columns[1] == {0: 2, 1: 5}
    assert matrix_rows(transpose(A)) == [[1, 4], [2, 5], [3, 6]]
    assert A.apply([1, 0, -1]) == (-2, -2)
    assert mul(A, IntMatrix(3, 3, ({j: 1} for j in range(3)))) == A
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_with_column_appends():
    A = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert matrix_rows(A.with_column([5, 0])) == [[1, 2, 5], [3, 4, 0]]
    with pytest.raises(ValueError):
        A.with_column([1])


def test_entries_view_counts_zeros_without_densifying():
    A = IntMatrix.from_rows([[0, 2, 0], [-1, 0, 0]])
    assert len(A.entries) == 6
    assert A.entries.count(0) == 4
    assert A.entries.count(2) == 1
    assert list(A.entries) == [0, 2, 0, -1, 0, 0]
    assert A.entries[3] == -1 and A.entries[-5] == 2


# --- differential suite: the sparse engine against the oracles --------------

# weight ratios of a boundary: mostly units, some small, some huge
ratio = st.one_of(
    st.just(1),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=2, max_value=10 ** 15),
)


@st.composite
def boundary_shaped(draw, max_side=5, ratios=ratio):
    """Sparse matrix shaped like a weighted boundary.

    Each column holds a few signed weight ratios; some columns are
    integer combinations of earlier ones, as boundaries of chains that
    share faces are, so rank deficits and torsion both show up.
    """
    m = draw(st.integers(min_value=1, max_value=max_side))
    n = draw(st.integers(min_value=1, max_value=max_side))
    columns = []
    for _ in range(n):
        if columns and draw(st.booleans()):
            a, b = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2))
            x, y = draw(st.sampled_from(columns)), draw(st.sampled_from(columns))
            columns.append([a * u + b * v for u, v in zip(x, y)])
            continue
        support = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3, unique=True))
        col = [0] * m
        for i in support:
            col[i] = draw(ratios) * draw(st.sampled_from([1, -1]))
        columns.append(col)
    return [[c[i] for c in columns] for i in range(m)], n


@settings(max_examples=200, deadline=None)
@given(boundary_shaped())
def test_sparse_boundaries_match_oracle(case):
    rows, cols = case
    check_against_oracle(rows, cols)


@st.composite
def scrambled_smith_form(draw):
    """A known divisibility chain hidden by random unimodular operations."""
    m = draw(st.integers(min_value=1, max_value=12))
    n = draw(st.integers(min_value=1, max_value=12))
    chain, d = [], 1
    for _ in range(draw(st.integers(min_value=0, max_value=min(m, n)))):
        d *= draw(st.sampled_from([1, 1, 1, 2, 3, 5, 10 ** 9 + 7]))
        chain.append(d)
    rows = [[chain[i] if i == j and i < len(chain) else 0 for j in range(n)] for i in range(m)]
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        k = draw(st.integers(-4, 4))
        if draw(st.booleans()):
            a, b = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
            if a != b:
                rows[a] = [x + k * y for x, y in zip(rows[a], rows[b])]
        else:
            a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            if a != b:
                for r in rows:
                    r[a] += k * r[b]
    return rows, n, tuple(chain)


@settings(max_examples=150, deadline=None)
@given(scrambled_smith_form())
def test_scrambled_smith_forms_are_recovered(case):
    # beyond the reach of the minor oracle: the answer is known by construction
    rows, cols, chain = case
    assert smith_normal_form(IntMatrix.from_rows(rows, cols=cols)).factors == chain


@settings(max_examples=150, deadline=None)
@given(
    boundary_shaped(max_side=4, ratios=st.integers(min_value=1, max_value=6)),
    st.sampled_from(["image", "divided", "any"]),
    st.data(),
)
def test_class_order_from_factors_matches_oracle(case, kind, data):
    rows, cols = case
    A = IntMatrix.from_rows(rows, cols=cols)
    if kind == "any":
        z = data.draw(st.lists(st.integers(-4, 4), min_size=A.rows, max_size=A.rows))
    else:
        z = list(A.apply(data.draw(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols))))
        g = gcd(*z)
        if kind == "divided" and g > 1:
            z = [v // g for v in z]
    got = ClassOrder.of(smith_normal_form(A), smith_normal_form(A.with_column(z)))
    want = class_order_oracle(rows, cols, z)
    if want == 0:
        assert got == ClassOrder.zero()
    elif want is None:
        assert got == ClassOrder.infinite()
    else:
        assert got == ClassOrder.torsion(want)


@pytest.mark.parametrize("rows,z,want", [
    ([[2]], [2], ClassOrder.zero()),
    ([[2]], [1], ClassOrder.torsion(2)),
    ([[2], [0]], [0, 1], ClassOrder.infinite()),
    ([[4, 0], [0, 6]], [2, 3], ClassOrder.torsion(2)),
])
def test_class_order_from_factors_examples(rows, z, want):
    A = IntMatrix.from_rows(rows)
    assert ClassOrder.of(smith_normal_form(A), smith_normal_form(A.with_column(z))) == want
