"""Weighted chain complexes and their homology over the integers.

Chain groups are free on the simplices of nonzero weight, listed in
lexicographic order per dimension. The boundary of a simplex scales
each codimension-1 face by the weight ratio w(sigma) / w(face); the
divisibility rule makes every ratio an integer, and a zero-weight face
forces a zero-weight coface, so the ratio never needs a zero divisor.

boundary_matrix alone assembles boundaries: the sparse columns of the
n-cells it is given, over the basis of dimension n - 1. Each question
passes only the cells whose columns a reduction reads. The
sparse Smith engine of ``snf`` reduces them (no transforms).
In dimension n the free rank is nullity(d_n) - rank(d_{n+1}) and the
torsion coefficients are the invariant factors of d_{n+1} that exceed
1; the boundary below dimension 0 is the zero map. A class order comes
from the factors of d_{n+1} with and without the cycle as a column.

homology() reduces from the top down and clears: each unit pivot (a
face and coface of equal weight) that d_{n+1} takes before its first
pivot that is not +-1 names an n-cell, and d_n is reduced without
those cells' columns. Until then the engine has used column operations
only, so the pivot columns are boundaries, unit-triangular on the
named cells; as d_n kills every boundary, each dropped column is an
integer combination of the kept ones. The column lattice of d_n, and
with it its rank and invariant factors, is unchanged. A +-1 reached by
Euclid steps comes after row operations and must not clear. A cleared
column is never assembled. Class orders and the removal reduce their
full matrices.

Divisibility is checked once, on every face pair, when the
WeightedComplex is built; its weights never change after that, so
assembly divides without checking again.

Removal of a single maximal simplex is the surgery that is not a
collapse: it can only touch homology in the two dimensions next to the
removed cell, and which way dimension n moves is decided by the order
of the removed boundary's class.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple, Sequence

from .complexes import Simplex, WeightedComplex, faces
from .errors import InternalInvariantError, NotACycle, NotMaximal, ZeroWeight
from .snf import IntMatrix, SmithDecomposition, smith_normal_form


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
        for d in torsion:
            if d <= 1:
                raise ValueError(f"torsion coefficients must exceed 1, got {d}")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError(f"torsion {torsion} is not a divisibility chain")
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
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " (+) ".join(parts) if parts else "0"


def chain_basis(K: WeightedComplex, n: int) -> tuple[Simplex, ...]:
    """The nonzero-weight n-simplices in lexicographic order; () outside 0..dim K."""
    return tuple(s for s in K.of_dim(n) if K.weight(s) != 0)


def boundary_matrix(K: WeightedComplex, n: int, cells: Sequence[Simplex] | None = None) -> IntMatrix:
    """The weighted boundary of the given n-cells, over chain_basis(K, n - 1).

    cells are nonzero-weight n-cells of K, by default chain_basis(K, n).
    Column j is the boundary of cells[j]: face i picks up sign (-1)^i
    and coefficient w(sigma) / w(face).
    """
    if cells is None:
        cells = chain_basis(K, n)
    index = {s: i for i, s in enumerate(chain_basis(K, n - 1))}
    columns = []
    for sigma in cells:
        ws = K.weight(sigma)
        column = {}
        for i, face in enumerate(faces(sigma)):
            q = ws // K.weight(face)
            column[index[face]] = -q if i % 2 else q
        columns.append(column)
    return IntMatrix(len(index), len(columns), columns)


def homology(K: WeightedComplex, max_dim: int | None = None) -> list[HomologyGroup]:
    """Weighted homology groups in dimensions 0 through dim K.

    Above the top dimension every group vanishes, so the list stops
    there (or at max_dim, when given and smaller).
    """
    top = K.dimension
    if max_dim is not None:
        top = min(top, max_dim)
    if top < 0:
        return []
    reduced, sizes, cleared = [None] * (top + 2), [0] * (top + 2), set()
    for n in range(top + 1, -1, -1):  # top down, clearing as the module notes say
        cells = chain_basis(K, n)
        sizes[n], unit_rows = len(cells), []
        kept = [s for j, s in enumerate(cells) if j not in cleared]
        reduced[n] = smith_normal_form(boundary_matrix(K, n, kept), unit_rows=unit_rows)
        cleared = set(unit_rows)
    return [_group(n, sizes[n], reduced[n], reduced[n + 1]) for n in range(top + 1)]


def _group(n: int, cells: int, below: SmithDecomposition, above: SmithDecomposition) -> HomologyGroup:
    """H_n from the reductions of d_n and d_{n+1}; C_n has `cells` basis simplices."""
    free = cells - below.rank - above.rank
    if free < 0:
        raise InternalInvariantError(f"negative free rank {free} in dimension {n}")
    return HomologyGroup(free, tuple(d for d in above.factors if d > 1))


def group_at(groups: Sequence[HomologyGroup], n: int) -> HomologyGroup:
    """The n-th group of a homology list, trivial outside the range."""
    if 0 <= n < len(groups):
        return groups[n]
    return HomologyGroup.trivial()


class ClassOrder(NamedTuple):
    """Order of a homology class: zero, finite torsion, or infinite.

    kind is one of "zero", "torsion", "infinite". For torsion classes k
    is the least positive multiplier sending the class to zero; a zero
    class records k = 1.
    """

    kind: str
    k: int | None = None

    @classmethod
    def zero(cls) -> "ClassOrder":
        return cls("zero", 1)

    @classmethod
    def torsion(cls, k: int) -> "ClassOrder":
        return cls("torsion", k)

    @classmethod
    def infinite(cls) -> "ClassOrder":
        return cls("infinite", None)

    @classmethod
    def of(cls, d: SmithDecomposition, extended: SmithDecomposition) -> "ClassOrder":
        """Order of [z] in coker(d), from the factors of d and of [d | z].

        Appending z keeps the rank or raises it by one. A raised rank
        means no multiple of z lies in the lattice spanned by d: the
        order is infinite. Otherwise both lattices share one saturation,
        whose index over each is the product of its invariant factors,
        so the cyclic group <[z]> has order prod(d) / prod([d | z]).
        """
        if extended.rank > d.rank:
            return cls.infinite()
        k = prod(d.factors) // prod(extended.factors)
        return cls.zero() if k == 1 else cls.torsion(k)

    @property
    def is_torsion(self) -> bool:
        """True when some positive multiple of the class vanishes."""
        return self.kind != "infinite"

    def __str__(self) -> str:
        if self.kind == "torsion":
            return f"torsion(k={self.k})"
        return self.kind


def homology_class_order(K: WeightedComplex, n: int, z: Sequence[int]) -> ClassOrder:
    """Order of the class [z] in the n-th weighted homology group.

    z is an integer vector over the lexicographic basis of nonzero-weight
    n-simplices. The chain must be a cycle. The order comes from two
    transform-free reductions: the boundary d_{n+1} and d_{n+1} with z
    appended as a column.
    """
    below = boundary_matrix(K, n)
    z = list(z)
    if len(z) != below.cols:
        raise ValueError(f"chain has {len(z)} coordinates but dimension {n} has {below.cols} basis simplices")
    for x in z:
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"chain coordinates must be integers, got {x!r}")
    if any(below.apply(z)):
        raise NotACycle(n)
    d = boundary_matrix(K, n + 1)
    return ClassOrder.of(smith_normal_form(d), smith_normal_form(d.with_column(z)))


class RemovalReport(NamedTuple):
    """What removing one maximal simplex does to homology.

    For a removed n-simplex sigma with nonzero weight:

    * every dimension other than n - 1 and n is untouched;
    * dimension n - 1 of the larger complex is the quotient of the
      smaller one by the class of the weighted boundary of sigma
      (``quotient_below``, computed from a presentation with the extra
      boundary column; None when n = 0, where there is nothing below);
    * dimension n gains a free summand exactly when that class has
      finite order (``gains_free_summand``).
    """

    sigma: Simplex
    dimension: int
    boundary_chain: tuple[int, ...]
    class_order: ClassOrder
    gains_free_summand: bool
    quotient_below: HomologyGroup | None


def elementary_removal(K: WeightedComplex, sigma) -> tuple[WeightedComplex, RemovalReport]:
    """Remove one maximal simplex of nonzero weight and report the effect."""
    sigma = tuple(sigma)
    if sigma not in K or not K.is_maximal(sigma):
        raise NotMaximal(sigma)
    if K.weight(sigma) == 0:
        raise ZeroWeight(sigma)
    return K.without((sigma,)), _removal_report(K, sigma)


def _removal_report(K: WeightedComplex, sigma: Simplex) -> RemovalReport:
    # sigma is a maximal simplex of K with nonzero weight. K minus sigma
    # shares K's bases below n, and its d_n is K's on every other cell;
    # [d_n(K - sigma) | chain] has the invariant factors of K's d_n. When
    # n = 0, d_0 has no rows: the chain is empty and its class is zero.
    n = len(sigma) - 1
    d = boundary_matrix(K, n, [s for s in chain_basis(K, n) if s != sigma])
    chain = boundary_matrix(K, n, (sigma,)).column(0)
    below = boundary_matrix(K, n - 1)
    if any(below.apply(chain)):
        raise InternalInvariantError(f"the boundary of {list(sigma)} is not a cycle")
    extended = smith_normal_form(d.with_column(chain))
    order = ClassOrder.of(smith_normal_form(d), extended)
    return RemovalReport(
        sigma=sigma,
        dimension=n,
        boundary_chain=chain,
        class_order=order,
        gains_free_summand=order.is_torsion,
        quotient_below=_group(n - 1, below.cols, smith_normal_form(below), extended) if n else None,
    )
