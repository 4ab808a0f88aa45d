"""Elementary removals and the orders of homology classes.

Removal of a maximal n-simplex sigma, L = K - sigma, is the paper's
elementary removal, the surgery that is not a collapse: H_n(K) =
H_n(L) (+) Z exactly when [d sigma] has finite order k in H_{n-1}(L),
H_{n-1}(K) = H_{n-1}(L) / <[d sigma]>, and no other group changes. The
removal checks this on both sides' homology(); k = |T H_{n-1}(L)| /
|T H_{n-1}(K)|, T(G / C) = T(G) / C.

Class orders of a given cycle always take Smith, on their full
matrices: a class order comes from the factors of d_{n+1} with and
without the cycle as a column.

Only library removals and class orders, and the window certificate of
morse.critical_window, load this module; the homology, collapse and
sequence calls never compile it. Its functions read the homology layer
when they are called, so they see that module's names as they stand
then.
"""

from __future__ import annotations

from math import prod
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .complexes import Simplex, WeightedComplex
from .errors import InternalInvariantError, NotACycle, NotMaximal, ZeroWeight
from .homology import _decimal

if TYPE_CHECKING:
    from .homology import HomologyGroup
    from .snf import SmithDecomposition


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
            return f"torsion(k={_decimal(self.k)})"
        return self.kind

    def __repr__(self) -> str:
        return f"ClassOrder(kind={self.kind!r}, k={'None' if self.k is None else _decimal(self.k)})"


def homology_class_order(K: WeightedComplex, n: int, z: Sequence[int]) -> ClassOrder:
    """Order of the class [z] in the n-th weighted homology group.

    z is an integer vector over the lexicographic basis of nonzero-weight
    n-simplices. The chain must be a cycle. The order comes from two
    transform-free reductions: the boundary d_{n+1} and d_{n+1} with z
    appended as a column.
    """
    from .homology import boundary_matrix
    from .snf import smith_normal_form

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
      (``quotient_below``, read off homology() of the larger complex;
      None when n = 0, where there is nothing below);
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
    """Remove one maximal simplex of nonzero weight and report the effect, read off homology()."""
    sigma = tuple(sigma)
    if sigma not in K or not K.is_maximal(sigma):
        raise NotMaximal(sigma)
    if K.weight(sigma) == 0:
        raise ZeroWeight(sigma)
    L = K.without((sigma,))
    return L, _removal_report(K, L, sigma)


def _removal_report(K: WeightedComplex, L: WeightedComplex, sigma: Simplex) -> RemovalReport:
    # sigma is a maximal nonzero-weight simplex of K, and L = K - sigma. When
    # n = 0, d_0 has no rows: the chain is empty, its class zero, H_0 gains Z.
    from .homology import _boundary_columns, chain_basis, group_at, homology

    n = len(sigma) - 1
    t = K.position(sigma)
    (column,) = _boundary_columns(K, n, (t,))
    below = _boundary_columns(K, n - 1, reversed(K.face_indices(n)[t]))  # the faces, in the column's order
    if any(sum(x * c.get(r, 0) for x, c in zip(column.values(), below)) for r in set().union(*below)):
        raise InternalInvariantError(f"the boundary of {list(sigma)} is not a cycle")
    chain = tuple(column.get(r, 0) for r in range(len(chain_basis(K, n - 1))))
    hk, hl = homology(K, n), homology(L, n)
    top_k, top_l = group_at(hk, n), group_at(hl, n)
    below_k, below_l = group_at(hk, n - 1), group_at(hl, n - 1)
    gain = top_k.free_rank - top_l.free_rank
    rise = below_l.free_rank - below_k.free_rank
    if gain not in (0, 1):
        raise InternalInvariantError(f"removing {list(sigma)} changes the rank of H{n} by {-gain}, not 0 or -1")
    if rise != 1 - gain:
        raise InternalInvariantError(f"removing {list(sigma)} changes the rank of H{n - 1} by {rise}, not {1 - gain}")
    if top_k.torsion != top_l.torsion:
        raise InternalInvariantError(f"removing {list(sigma)} changes the torsion of H{n}")
    if hk[:max(n - 1, 0)] != hl[:max(n - 1, 0)]:
        raise InternalInvariantError(f"removing {list(sigma)} changes a group below H{n - 1}")
    k, remainder = divmod(prod(below_l.torsion), prod(below_k.torsion))
    if gain and remainder:
        raise InternalInvariantError(f"removing {list(sigma)} changes the torsion order of H{n - 1} by a fraction")
    if not gain:
        order = ClassOrder.infinite()
    elif k == 1:
        order = ClassOrder.zero()
    else:
        order = ClassOrder.torsion(k)
    return RemovalReport(
        sigma=sigma,
        dimension=n,
        boundary_chain=chain,
        class_order=order,
        gains_free_summand=bool(gain),
        quotient_below=below_k if n else None,
    )
