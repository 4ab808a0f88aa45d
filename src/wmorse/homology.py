"""Weighted chain complexes and their homology over the integers.

Chain groups are free on the simplices of nonzero weight, listed in
lexicographic order per dimension. The boundary of a simplex scales
each codimension-1 face by the weight ratio w(sigma) / w(face); the
divisibility rule makes every ratio an integer, and a zero-weight face
forces a zero-weight coface, so the ratio never needs a zero divisor.

In dimension n the free rank is nullity(d_n) - rank(d_{n+1}) and the
torsion coefficients are the invariant factors of d_{n+1} that exceed
1; the boundary below dimension 0 is the zero map.

homology() first tries a certified reduction of the plain boundary.
With D = diag(w) on the nonzero-weight cells, the weighted boundary is
D^-1 d D, where d is the ordinary boundary with entries +-1 (Dawson,
Cahiers Top. Geom. Diff. 31, 1990); the signs of the weights are units
and drop out. The distinct |w| are refined by gcds into a coprime base
(nothing is factored), and a_b(sigma) is the exponent of the base
element b in |w(sigma)|. For each b, every dimension's cells are
ordered by (a_b, lex) and d_{top+1} .. d_1 are reduced column by
column, left to right, top dimension first; a row paired in d_{n+1}
names a column of d_n that is cleared (Chen and Kerber, EuroCG 2011).
The certificate is that every pivot's lowest entry is +-1, checked on
each pivot at run time. Then the column operations (an earlier column
into a later one) and the row operations that isolate each pivot (its
row, a later one, into earlier rows) stay integral after conjugation
by diag(b^a_b), so over the integers localised at b the weighted
boundary is equivalent to the pairs (low, tau), each carrying
b^(a_b(tau) - a_b(low)): the graded-module picture of Zomorodian and
Carlsson (DCG 33, 2005) over Z. A pair of equal weight carries 1; it
is one of the paper's w-simple pairs. Primes that divide no weight
carry no torsion, the first reduction's pairs give the ranks, and the
powers of each b, sorted, multiply position-wise into the invariant
factors. When every weight is +-1 one reduction runs, and there is no
torsion.

homology() takes the Smith path only when a low is not +-1 (the
projective plane, or a cone over it ordered so that the plane comes
first), however large the base: Smith's coefficients grow with the
weights, and the plain boundary's do not. There the sparse Smith
engine of ``snf`` reduces d_{top+1} .. d_0 without transforms, top
down, with clearing as ``snf``'s notes justify it: the unit pivots
that d_{n+1} takes before its first pivot that is not +-1 name
n-cells, whose columns d_n drops unassembled.

Both paths, and the removals and class orders of ``removal``, read
boundaries off the face table and the weights that the complex lists
once, in lex order, when it is built and checked. The certified
reductions index cells as of_dim does and skip zero-weight cells, no
column and no row of a nonzero column; ``snf`` is loaded only for
Smith.
"""

from __future__ import annotations

from itertools import accumulate, compress, cycle, zip_longest
from math import gcd, prod
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .complexes import Simplex, WeightedComplex
from .errors import InternalInvariantError

if TYPE_CHECKING:
    from .snf import IntMatrix


def _decimal(n: int) -> str:
    """n >= 0 in decimal, in pieces that str() converts: its digit limit is never under 640."""
    if n.bit_length() <= 1993:  # n < 2 ** 1993 < 10 ** 600
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of n's digits
    head, tail = divmod(n, 10 ** k)
    return _decimal(head) + _decimal(tail).zfill(k)


class _GroupFields(NamedTuple):
    free_rank: int
    torsion: tuple[int, ...] = ()


class HomologyGroup(_GroupFields):
    """A finitely generated abelian group in invariant factor form.

    torsion is a tuple of integers > 1, each dividing the next, so equal
    groups compare equal structurally.
    """

    __slots__ = ()

    def __new__(cls, free_rank: int, torsion: tuple[int, ...] = ()):
        if free_rank < 0:
            raise ValueError("negative free rank")
        # the messages name entries: a coefficient may be past str()'s digit limit
        for i, d in enumerate(torsion):
            if d <= 1:
                raise ValueError(f"torsion coefficients must exceed 1, but entry {i} does not")
        for i, (a, b) in enumerate(zip(torsion, torsion[1:])):
            if b % a != 0:
                raise ValueError(f"torsion is not a divisibility chain: entry {i} does not divide entry {i + 1}")
        return super().__new__(cls, free_rank, torsion)

    @classmethod
    def trivial(cls) -> "HomologyGroup":
        return cls(0, ())

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{_decimal(d)}" for d in self.torsion)
        return " (+) ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        torsion = ", ".join(map(_decimal, self.torsion)) + ("," if len(self.torsion) == 1 else "")
        return f"HomologyGroup(free_rank={_decimal(self.free_rank)}, torsion=({torsion}))"


def chain_basis(K: WeightedComplex, n: int) -> tuple[Simplex, ...]:
    """The nonzero-weight n-simplices in lexicographic order; () outside 0..dim K."""
    return tuple(compress(K.of_dim(n), K.weights_of_dim(n)))


def _boundary_columns(K: WeightedComplex, n: int, cells: Iterable[int]) -> list[dict[int, int]]:
    """The weighted boundaries of nonzero-weight n-cells, given by index in of_dim(n), over chain_basis(K, n - 1).

    In a cell's column the face that omits vertex i picks up sign (-1)^i
    and coefficient w(sigma) / w(face), and comes i-th (deletion order).
    """
    above, below, table = K.weights_of_dim(n), K.weights_of_dim(n - 1), K.face_indices(n)
    row = list(accumulate(map(bool, below), initial=0))  # a face's place in the basis
    return [{row[f]: (-1) ** i * (above[t] // below[f]) for i, f in enumerate(reversed(table[t]))} for t in cells]


def boundary_matrix(K: WeightedComplex, n: int, cells: Sequence[Simplex] | None = None) -> IntMatrix:
    """The weighted boundary of nonzero-weight n-cells (by default chain_basis(K, n)), as Smith's IntMatrix."""
    from .snf import IntMatrix

    cells = chain_basis(K, n) if cells is None else cells
    for s in cells:
        if len(s) != n + 1 or s not in K or not K.weight(s):
            raise ValueError(f"{list(s)} is not a cell of chain_basis(K, {n})")
    columns = _boundary_columns(K, n, map(K.position, cells))
    return IntMatrix(len(chain_basis(K, n - 1)), len(columns), columns)


def homology(K: WeightedComplex, max_dim: int | None = None) -> list[HomologyGroup]:
    """Weighted homology groups in dimensions 0 through dim K.

    Above the top dimension every group vanishes, so the list stops
    there (or at max_dim, when given and smaller). The groups come from
    the certified reduction when every low it meets is +-1, and from
    the Smith path otherwise, as the module notes say.
    """
    top = K.dimension
    if max_dim is not None:
        top = min(top, max_dim)
    if top < 0:
        return []
    groups = _certified_homology(K, top)
    return _smith_homology(K, top) if groups is None else groups


def _smith_homology(K: WeightedComplex, top: int) -> list[HomologyGroup]:
    """H_0 .. H_top by Smith reduction of d_{top+1} .. d_0, top down with clearing."""
    from .snf import smith_normal_form

    reduced, sizes, cleared = [None] * (top + 2), [0] * (top + 2), set()
    for n in range(top + 1, -1, -1):  # top down, clearing as the module notes say
        cells = chain_basis(K, n)
        sizes[n], unit_rows = len(cells), []
        kept = [s for j, s in enumerate(cells) if j not in cleared]
        reduced[n] = smith_normal_form(boundary_matrix(K, n, kept), unit_rows=unit_rows)
        cleared = set(unit_rows)
    groups = []
    for n in range(top + 1):
        free = sizes[n] - reduced[n].rank - reduced[n + 1].rank
        if free < 0:
            raise InternalInvariantError(f"negative free rank {free} in dimension {n}")
        groups.append(HomologyGroup(free, tuple(d for d in reduced[n + 1].factors if d > 1)))
    return groups


def _coprime_base(values) -> list[int]:
    """Pairwise coprime integers > 1 of which every value > 0 is a product of powers.

    gcd refinement: a value is first divided by every power of a base
    element b it holds; if it still shares a factor g with b, it
    replaces b by g, b / g and value / g. The product of everything in
    play falls with each split, so the loop ends; nothing is factored.
    """
    base: list[int] = []
    for x in values:
        todo = [x]
        while todo:
            x = todo.pop()
            for i, b in enumerate(base):
                g = gcd(x, b)
                if g == b:
                    x //= b ** _exponent(x, b)
                    g = gcd(x, b)
                if g > 1:
                    del base[i]
                    todo += [y for y in (g, b // g, x // g) if y > 1]
                    break
            else:
                if x > 1:
                    base.append(x)
    return base


def _exponent(w: int, b: int) -> int:
    """The largest e with b ** e dividing w > 0, by repeated squaring of b."""
    squares = []
    while w % b == 0:
        w //= b
        squares.append(b)
        b *= b
    e = (1 << len(squares)) - 1
    for i in range(len(squares) - 1, -1, -1):
        if w % squares[i] == 0:
            w //= squares[i]
            e += 1 << i
    return e


def _certified_homology(K: WeightedComplex, top: int) -> list[HomologyGroup] | None:
    """H_0 .. H_top from the plain boundary; None when a low is not +-1.

    One reduction per element b of the coprime base of the weights (one
    in all when every weight is +-1), as the module notes say. The pairs
    of the first give the ranks; each pair (low, tau) of d_{n+1} puts
    b ** (a_b(tau) - a_b(low)) into the torsion of H_n.
    """
    weights = [list(map(abs, K.weights_of_dim(n))) for n in range(top + 2)]
    # zero-weight cells are no columns; 0 must not reach _exponent, which never ends on it
    columns = [list(compress(range(len(ws)), ws)) for ws in weights]
    distinct = set().union(*weights)
    ranks, powers = None, [[] for _ in range(top + 1)]
    for b in _coprime_base(distinct - {0}) or [None]:
        table = {w: 0 if b is None or not w else _exponent(w, b) for w in distinct}
        exponents = [[table[w] for w in ws] for ws in weights]
        pairs = _reduce([K.face_indices(n) for n in range(top + 2)], columns, exponents)
        if pairs is None:
            return None
        if ranks is None:
            ranks = [len(p) for p in pairs]
        for n in range(top + 1):
            below, above = exponents[n], exponents[n + 1]
            gaps = sorted((above[t] - below[i] for i, t in pairs[n + 1]), reverse=True)
            powers[n].append([b ** e for e in gaps if e])
    groups = []
    for n in range(top + 1):
        factors = [prod(q) for q in zip_longest(*powers[n], fillvalue=1)]  # position-wise
        groups.append(HomologyGroup(len(columns[n]) - ranks[n] - ranks[n + 1], tuple(reversed(factors))))
    return groups


def _reduce(faces, columns, exponents) -> list[list[tuple[int, int]]] | None:
    """Pairs (row, column) of d_0 .. d_{top+1}, in lex indices; None at a low that is not +-1.

    faces[n] is the face table of dimension n, columns[n] its nonzero-weight
    cells, ordered by (exponent, lex); a row's key is exponent * rows + lex.
    Columns are reduced left to right, from d_{top+1} down, and a row paired
    in d_{n+1} is a column that d_n clears. A column whose low no earlier
    column holds is a pivot as it stands, with its +-1 boundary coefficient
    there; it becomes a dict only if a later column needs it. Faces come in
    lex order, deletion order reversed: the sign flips, no low or pair does.
    """
    pairs: list[list[tuple[int, int]]] = [[] for _ in faces]
    cleared: set[int] = set()
    for n in range(len(faces) - 1, 0, -1):
        size = len(exponents[n - 1])
        key = [e * size + i for i, e in enumerate(exponents[n - 1])]
        pivots, row = {}, key.__getitem__
        for t in sorted(columns[n], key=exponents[n].__getitem__):
            if t in cleared:
                continue
            f = faces[n][t]
            low = max(map(row, f))
            if low not in pivots:
                pivots[low] = f
                pairs[n].append((low % size, t))
                continue
            col = dict(zip(map(row, f), cycle((1, -1))))
            while col:
                low = max(col)
                other = pivots.get(low)
                if other is None:
                    if col[low] not in (1, -1):
                        return None
                    pivots[low] = col
                    pairs[n].append((low % size, t))
                    break
                if type(other) is tuple:
                    other = pivots[low] = dict(zip(map(row, other), cycle((1, -1))))
                c = col[low] * other[low]
                for r, x in other.items():
                    if y := col.get(r, 0) - c * x:
                        col[r] = y
                    else:
                        del col[r]
        cleared = {i for i, _ in pairs[n]}
    return pairs


def group_at(groups: Sequence[HomologyGroup], n: int) -> HomologyGroup:
    """The n-th group of a homology list, trivial outside the range."""
    if 0 <= n < len(groups):
        return groups[n]
    return HomologyGroup.trivial()
