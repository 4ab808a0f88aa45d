"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the package's own linear algebra:
determinants are expanded by Laplace cofactors, ranks are computed by
Gaussian elimination over Fractions, and invariant factors come from
the gcd-of-k-minors characterization. They are slow and only meant for
small matrices, which is exactly what makes them trustworthy checks.
"""

from __future__ import annotations

import contextlib
import copy
import itertools
import sys
from fractions import Fraction
from math import gcd

from wmorse import (
    HomologyGroup,
    SimplicialComplex,
    WeightedComplex,
    build_woc,
    validate_complex,
    validate_morse,
)
from wmorse.complexes import closure, faces
from wmorse.snf import IntMatrix


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift the interpreter's int-to-text digit limit, to write expected values in full."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# --- matrix oracles ---------------------------------------------------------

def laplace_det(rows) -> int:
    """Determinant by cofactor expansion; fine for tiny matrices."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, x in enumerate(rows[0]):
        if x == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * x * laplace_det(minor)
    return total


def minor_gcd_factors(rows, cols) -> tuple[int, ...]:
    """Invariant factors via gcds of k x k minors.

    The product of the first k invariant factors equals the gcd of all
    k x k minors, so the factors are successive quotients of those gcds.
    """
    m = len(rows)
    factors = []
    previous = 1
    for k in range(1, min(m, cols) + 1):
        g = 0
        for ris in itertools.combinations(range(m), k):
            for cis in itertools.combinations(range(cols), k):
                sub = [[rows[i][j] for j in cis] for i in ris]
                g = gcd(g, laplace_det(sub))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return tuple(factors)


def rational_rank(rows, cols) -> int:
    """Rank by Gaussian elimination over exact rationals."""
    M = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    col = 0
    while rank < len(M) and col < cols:
        pivot = next((i for i in range(rank, len(M)) if M[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        pv = M[rank][col]
        for i in range(rank + 1, len(M)):
            if M[i][col] != 0:
                f = M[i][col] / pv
                M[i] = [a - f * b for a, b in zip(M[i], M[rank])]
        rank += 1
        col += 1
    return rank


def lattice_contains(rows, cols, vector) -> bool:
    """Is the vector in the integer column span of the matrix?

    Appending the vector as an extra column can only grow the column
    lattice; it stays the same iff the rank and the product of all
    invariant factors both stay the same.
    """
    augmented = [r + [v] for r, v in zip(rows, vector)]
    if rational_rank(rows, cols) != rational_rank(augmented, cols + 1):
        return False
    before = minor_gcd_factors(rows, cols)
    after = minor_gcd_factors(augmented, cols + 1)
    prod_before = prod_after = 1
    for d in before:
        prod_before *= d
    for d in after:
        prod_after *= d
    return prod_before == prod_after


def class_order_oracle(rows, cols, z):
    """Order of [z] modulo the column lattice: 0, a finite k, or None.

    None encodes infinite order. Brute force over divisors of the
    largest invariant factor, which bounds the torsion exponent.
    """
    if lattice_contains(rows, cols, z):
        return 0
    augmented = [r + [v] for r, v in zip(rows, z)]
    if rational_rank(rows, cols) != rational_rank(augmented, cols + 1):
        return None
    factors = minor_gcd_factors(rows, cols)
    exponent = factors[-1] if factors else 1
    for k in sorted(d for d in range(2, exponent + 1) if exponent % d == 0):
        if lattice_contains(rows, cols, [k * v for v in z]):
            return k
    raise AssertionError("order must divide the torsion exponent")


def matrix_rows(A: IntMatrix) -> list[list[int]]:
    """The dense rows of a sparse matrix."""
    return [[c.get(i, 0) for c in A.columns] for i in range(A.rows)]


def transpose(A: IntMatrix) -> IntMatrix:
    out = [{} for _ in range(A.rows)]
    for j, c in enumerate(A.columns):
        for i, x in c.items():
            out[i][j] = x
    return IntMatrix(A.cols, A.rows, out)


def mul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    """The product AB, kept sparse so that boundaries of a few hundred cells stay cheap."""
    if A.cols != B.rows:
        raise ValueError(f"cannot multiply {A.rows}x{A.cols} by {B.rows}x{B.cols}")
    out = []
    for c in B.columns:
        acc: dict[int, int] = {}
        for k, y in c.items():
            for i, x in A.columns[k].items():
                acc[i] = acc.get(i, 0) + x * y
        out.append({i: x for i, x in acc.items() if x})
    return IntMatrix(A.rows, B.cols, out)


# --- F_p level oracle ----------------------------------------------------------

def rank_mod_p(columns, p: int) -> int:
    """Rank over F_p of sparse integer columns, by plain elimination on the lowest row."""
    pivots = {}  # lowest row -> reduced column with that lowest row
    for column in columns:
        col = {i: x % p for i, x in column.items() if x % p}
        while col:
            low = max(col)
            if low not in pivots:
                pivots[low] = col
                break
            other = pivots[low]
            f = col[low] * pow(other[low], -1, p) % p
            for i, y in other.items():
                x = (col.get(i, 0) - f * y) % p
                if x:
                    col[i] = x
                else:
                    del col[i]
    return len(pivots)


def p_valuation(w: int, p: int) -> int:
    k = 0
    while w % p == 0:
        w //= p
        k += 1
    return k


def level_dims(K, p: int) -> list[int]:
    """sum over k of dim H_n(F_k, F_{k-1}; F_p), for n = 0 .. dim K.

    F_k holds the nonzero-weight cells whose weight p divides at most k
    times; faces divide cofaces, so each F_k is a subcomplex. Over F_p
    the coefficient w(sigma) / w(face) vanishes unless both sit at the
    same level, and rescaling every cell by the p-unit part of its
    weight (and its sign) makes it +-1 there. So the mod-p boundary is
    the direct sum of the relative boundaries of (F_k, F_{k-1}), with
    plain simplicial signs. Reads weights and faces only: no boundary
    builder, no Smith engine.
    """
    top = K.dimension
    cells = [[s for s in K.of_dim(n) if K.weight(s)] for n in range(top + 2)]
    level = {s: p_valuation(abs(K.weight(s)), p) for group in cells for s in group}
    ranks = [0] * (top + 2)
    for n in range(1, top + 1):
        row = {s: i for i, s in enumerate(cells[n - 1])}
        columns = [{row[f]: (-1) ** i for i, f in enumerate(faces(s)) if level[f] == level[s]}
                   for s in cells[n]]
        ranks[n] = rank_mod_p(columns, p)
    return [len(cells[n]) - ranks[n] - ranks[n + 1] for n in range(top + 1)]


def level_dims_from_groups(groups, p: int) -> list[int]:
    """beta_n + t_n(p) + t_{n-1}(p), where t_n(p) counts the factors of H_n that p divides.

    By universal coefficients this is dim H_n(C; F_p), which level_dims
    computes from the complex directly.
    """
    t = [sum(1 for d in g.torsion if d % p == 0) for g in groups]
    return [g.free_rank + t[n] + (t[n - 1] if n else 0) for n, g in enumerate(groups)]


# --- coface and collapse oracles ---------------------------------------------

def reference_proper_cofaces(members) -> dict:
    """Every simplex -> its proper cofaces, by subset enumeration.

    Goes through no coface index: each simplex lists itself under every
    proper nonempty subset of its vertices.
    """
    up = {s: [] for s in members}
    for t in members:
        for k in range(1, len(t)):
            for s in itertools.combinations(t, k):
                up[s].append(t)
    return up


def reference_verdict(w_sigma: int, w_tau: int) -> str:
    """The collapse verdict of a pair, from its two weights."""
    if w_sigma == w_tau != 0:
        return "same-weight"
    if w_tau == -w_sigma and w_sigma != 0:
        return "associate"
    if w_sigma == 0 and w_tau == 0:
        return "zero-pair"
    return "not-guaranteed"


def reference_greedy_collapse(K):
    """The rescanning greedy rule, O(N) rescans of the whole complex.

    At every step all proper cofaces are recounted, and the smallest
    simplex (tuple order) with exactly one proper coface is collapsed
    with it. Returns the remaining simplices and the (sigma, tau,
    verdict) steps.
    """
    members = set(K)
    steps = []
    while True:
        up = reference_proper_cofaces(members)
        free = sorted(s for s, ts in up.items() if len(ts) == 1)
        if not free:
            return members, steps
        sigma = free[0]
        (tau,) = up[sigma]
        members -= {sigma, tau}
        steps.append((sigma, tau, reference_verdict(K.weight(sigma), K.weight(tau))))


def reference_level(K, f, c) -> set:
    """K(c) as the face closure of the cells with value at most c.

    A depth-first search down from the seeds, with no entry values and
    no coface index.
    """
    seeds = [s for s in K if f(s) <= c]
    members = set(seeds)
    stack = list(seeds)
    while stack:
        s = stack.pop()
        for g in faces(s):
            if g not in members:
                members.add(g)
                stack.append(g)
    return members


def reference_scan(K, values) -> tuple[list, set, set, dict, dict]:
    """The Morse scan cell by cell: violations, critical, w-simple, pair, entry.

    Cofaces come from reference_proper_cofaces and faces from deleting
    one vertex at a time, so nothing here reads K's face table. A cell's
    wrong cofacets are listed in lex order and its wrong faces in
    deletion order; its entry value is the least value on the cell and
    all its proper cofaces. Violations are sorted by (dim, lex, kind).
    """
    up = reference_proper_cofaces(K.simplices)
    violations, critical, w_simple, pair, entry = [], set(), set(), {}, {}
    for s in K:
        fs = values[s]
        high = [t for t in sorted(up[s]) if len(t) == len(s) + 1 and values[t] <= fs]
        low = [g for g in (s[:i] + s[i + 1:] for i in range(len(s))) if g and values[g] >= fs]
        violations += [(s, kind, tuple(wrong)) for kind, wrong in ((1, high), (2, low)) if len(wrong) > 1]
        if high or low:
            pair[s] = high[0] if high else low[0]
        else:
            critical.add(s)
        if K.weight(s) != 0 and all(K.weight(g) == K.weight(s) for g in low):
            w_simple.add(s)
        entry[s] = min([fs] + [values[t] for t in up[s]])
    violations.sort(key=lambda v: (len(v[0]), v[0], v[1]))
    return violations, critical, w_simple, pair, entry


def complex_state(K) -> dict:
    """Each slot of K: the object it holds and a deep copy of its contents."""
    slots = [name for cls in type(K).__mro__ for name in getattr(cls, "__slots__", ())]
    return {name: (getattr(K, name), copy.deepcopy(getattr(K, name))) for name in slots}


def assert_state_kept(K, state: dict) -> None:
    """K still holds the slots complex_state recorded, with the same objects and contents."""
    assert complex_state(K).keys() == state.keys()
    for name, (held, contents) in state.items():
        assert getattr(K, name) is held and held == contents, name


# --- complex builders --------------------------------------------------------

def constant_table(K, weight=1) -> list[list[int]]:
    """One weight for every cell of K, laid out as WeightedComplex takes it."""
    return [[weight] * len(K.of_dim(n)) for n in range(K.dimension + 1)]


def constant_complex(maximal, weight=1) -> WeightedComplex:
    K = SimplicialComplex(closure(maximal))
    return WeightedComplex(K, constant_table(K, weight))


def full_simplex(n, weight=1) -> WeightedComplex:
    return constant_complex([tuple(range(n + 1))], weight)


def sphere(n, weight=1) -> WeightedComplex:
    """Boundary of the (n+1)-simplex, a triangulated n-sphere."""
    top = tuple(range(n + 2))
    facets = [top[:i] + top[i + 1:] for i in range(len(top))]
    return constant_complex(facets, weight)


def filled_triangle() -> WeightedComplex:
    """The running example: one 2-cell with mixed weights."""
    return validate_complex([
        ([0], 1), ([1], 1), ([2], 2),
        ([0, 1], 2), ([0, 2], 2), ([1, 2], 4),
        ([0, 1, 2], 4),
    ])


def hollow_triangle_w2() -> WeightedComplex:
    """Triangle boundary, vertices weight 1, edges weight 2."""
    return validate_complex([
        ([0], 1), ([1], 1), ([2], 1),
        ([0, 1], 2), ([0, 2], 2), ([1, 2], 2),
    ])


def weighted_disk(top_weight) -> WeightedComplex:
    """Full 2-simplex, constant weight 1 except the 2-cell."""
    return validate_complex([
        ([0], 1), ([1], 1), ([2], 1),
        ([0, 1], 1), ([0, 2], 1), ([1, 2], 1),
        ([0, 1, 2], top_weight),
    ])


# Removing the triangle of weighted_disk(2): H(K) = Z, Z/2, 0 and
# H(L) = Z, Z. Each entry edits the groups homology() gives one side,
# {(side, n): group}, where side "K" holds the triangle and "L" does
# not, so that one identity of the removal theorem fails; the second
# item is the end of the message the removal's check must give.
BROKEN_REMOVAL = {
    "free-rank-top": ({("L", 2): HomologyGroup(1)}, "changes the rank of H2 by 1, not 0 or -1"),
    "free-rank-below": ({("L", 1): HomologyGroup(2)}, "changes the rank of H1 by 2, not 1"),
    "torsion-top": ({("K", 2): HomologyGroup(0, (3,))}, "changes the torsion of H2"),
    "lower": ({("L", 0): HomologyGroup(2)}, "changes a group below H1"),
    "remainder": (
        {("K", 2): HomologyGroup(1), ("K", 1): HomologyGroup(1, (3,))},
        "changes the torsion order of H1 by a fraction",
    ),
}


# --- Morse builders -----------------------------------------------------------

def xyyy_setup(a=6, b=10):
    """The xyyy order complex with product/lcm weights and its Morse function.

    Returns (K, names, f, cell) where cell("x", "xy") resolves substring
    names to a simplex.
    """
    K, names = build_woc("xyyy", {"x": a, "y": b}, 3)
    ids = {name: i for i, name in enumerate(names)}

    def cell(*subs):
        return tuple(sorted(ids[s] for s in subs))

    values = {
        cell("x"): 1, cell("xy"): 1, cell("y"): 1,
        cell("x", "xy"): 2, cell("xy", "y"): 2,
        cell("xyy"): 3, cell("yy"): 3, cell("xy", "xyy"): 3, cell("y", "yy"): 3,
        cell("yyy"): 4, cell("yy", "yyy"): 4, cell("xyy", "y"): 4,
        cell("y", "xy", "xyy"): 4,
        cell("x", "xyy"): 5, cell("xyy", "yy"): 5, cell("y", "yyy"): 5,
        cell("x", "xy", "xyy"): 5, cell("y", "yy", "xyy"): 5,
        cell("y", "yy", "yyy"): 5,
    }
    f = validate_morse(K, values)
    return K, names, f, cell


def greedy_morse_values(K, split=False):
    """A discrete Morse function read off the greedy collapse of K.

    The r cells reference_greedy_collapse leaves get 0 .. r-1 in
    (dim, lex) order; both cells of the pair it removes at step i of n
    get r + (n - 1 - i), so pairs removed earlier sit higher. The left
    cells are then exactly the critical ones and the removed pairs the
    pairing. Returns (values, left cells, greedy steps).

    With split set, the face sigma of each pair gets its coface's value
    plus 1/2 instead. That stays Morse: every other cofacet of sigma was
    removed earlier, so it sits at least 1 higher, and every face of
    sigma was removed later or is left, so it sits lower. sigma then
    enters the levels at its coface's value, not its own.
    """
    core, steps = reference_greedy_collapse(K)
    r, n = len(core), len(steps)
    values = {s: i for i, s in enumerate(sorted(core, key=lambda s: (len(s), s)))}
    for i, (sigma, tau, _) in enumerate(steps):
        values[tau] = r + (n - 1 - i)
        values[sigma] = values[tau] + (Fraction(1, 2) if split else 0)
    return values, core, steps


def xn_morse_values(n):
    """Morse values for the substring complex of x^n (a full simplex).

    Vertex i stands for the run x^(i+1); vertex 0 gets value 1. The
    simplices avoiding vertex 0 are ordered by dimension and then
    lexicographically and receive the successive unused integers; every
    simplex containing vertex 0 (other than the vertex itself) copies
    the value of the simplex with vertex 0 dropped.
    """
    assert n >= 2
    m = n - 1  # vertex count
    values = {(0,): 1}
    nxt = 2
    for k in range(0, m - 1):
        for combo in itertools.combinations(range(1, m), k + 1):
            values[combo] = nxt
            nxt += 1
    for combo in list(values):
        if combo != (0,):
            values[(0,) + combo] = values[combo]
    return values


def xn_setup(n, a=7):
    K, names = build_woc("x" * n, {"x": a}, 3)
    values = xn_morse_values(n)
    f = validate_morse(K, values)
    return K, names, f


# --- misc ----------------------------------------------------------------------

def groups_equal_padded(left, right) -> bool:
    """Compare homology lists, treating missing dimensions as trivial."""
    from wmorse import group_at

    for k in range(max(len(left), len(right))):
        if group_at(left, k) != group_at(right, k):
            return False
    return True
