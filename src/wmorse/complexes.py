"""Finite abstract simplicial complexes with integer weights.

A simplex is a nonempty tuple of strictly increasing non-negative
integer vertex ids. Keeping vertices in ascending order fixes the
orientation once and for all, so boundary signs are deterministic.

A weighted complex is a simplicial complex, the same class with the
same queries, that also assigns an integer to every simplex subject to
the divisibility rule: whenever sigma is a face of tau, w(sigma) divides
w(tau). Divisibility is taken with the convention that 0 divides only
0, so the set of zero-weight simplices is closed under taking cofaces.
Negative weights are allowed; divisibility ignores sign.
"""

from __future__ import annotations

from itertools import chain, combinations, compress, islice, repeat
from operator import contains
from typing import Collection, Iterable, Iterator, KeysView, Mapping, Sequence

from .errors import (
    DivisibilityViolation,
    DuplicateSimplex,
    DuplicateVertex,
    NotFaceClosed,
)

Simplex = tuple[int, ...]


def simplex(vertices: Iterable[int]) -> Simplex:
    """Canonicalize a vertex collection into a simplex.

    Vertices may arrive in any order; the result is sorted. Repeats are
    rejected rather than collapsed, since a repeated id is almost always
    a data error.

    >>> simplex([2, 0, 1])
    (0, 1, 2)
    """
    vs = tuple(vertices)
    if not vs:
        raise ValueError("a simplex needs at least one vertex")
    for v in vs:
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise ValueError(f"vertex ids must be non-negative integers, got {v!r}")
    out = tuple(sorted(vs))
    for a, b in zip(out, out[1:]):
        if a == b:
            raise DuplicateVertex(vs)
    return out


def dim(sigma: Simplex) -> int:
    return len(sigma) - 1


def faces(sigma: Simplex) -> list[Simplex]:
    """Codimension-1 faces in deletion order.

    Entry i is sigma with its i-th smallest vertex removed, matching the
    sign convention (-1)^i used by the weighted boundary. A vertex has
    no faces (the empty simplex is never materialized).

    >>> faces((0, 1, 2))
    [(1, 2), (0, 2), (0, 1)]
    """
    if len(sigma) == 1:
        return []
    return [sigma[:i] + sigma[i + 1:] for i in range(len(sigma))]


def closure(generators: Iterable[Simplex]) -> set[Simplex]:
    """All nonempty subsets of the given simplices."""
    out: set[Simplex] = set()
    stack = [simplex(g) for g in generators]
    while stack:
        s = stack.pop()
        if s in out:
            continue
        out.add(s)
        stack.extend(faces(s))
    return out


def _exact_ids(cells: Iterable[Iterable]) -> bool:
    # one pass: is every vertex id of every cell an exact int >= 0 (no bool, float or Fraction)?
    ids = list(chain.from_iterable(cells))
    return not set(map(type, ids)) - {int} and min(ids, default=0) >= 0


def _check_vertex_ids(cells: Collection[Simplex]) -> None:
    # on a miss simplex() names the first bad cell in repr order, and passes an int subclass
    if () in cells or not _exact_ids(cells):
        for s in sorted(cells, key=repr):
            simplex(s)


def _record_table(entries: Iterable[tuple[Iterable[int], object]]) -> dict[Simplex, object]:
    # simplex -> value, each record sorted once; simplex() names one that cannot be sorted or repeats
    table = {}
    for vs, value in entries:
        try:
            s = tuple(sorted(vs := tuple(vs)))
            fresh = len(set(s)) == len(s) and s not in table
        except TypeError:
            fresh = False
        if not fresh:
            simplex(vs)
            _check_vertex_ids(table)  # (True,) == (1,): an earlier record may hold the bad id
            raise DuplicateSimplex(s)
        table[s] = value
    return table


class SimplicialComplex:
    """A finite face-closed set of simplices.

    Construction is where vertex ids are checked: one pass over every
    vertex of every given cell, before any sort or lookup compares them,
    refuses what simplex() refuses (a bool, a float, a Fraction, a
    negative id, the empty cell), with simplex()'s message for the first
    bad cell in repr order. Then it sorts each dimension into lex order,
    maps each simplex to its position there, and lists the face table:
    each simplex's codimension-1 faces, in lex order, by position in the
    dimension below. A missing face fails its lookup: that closure
    check, enough by induction, names the first simplex in (dim, lex)
    order that misses one. A subcomplex derived from a complex's
    positions (without, restrict, collapse results, level complexes)
    checks closure only, naming the same face. Iteration and simplices
    follow (dim, lex) order.

    A complex is these three tables and nothing more, and nothing is
    built after construction. Each coface query reads the face table
    once: cofacets, is_maximal and free_coface read the dimension above
    an n-cell, O(|K_{n+1}| * n); proper_cofaces and maximal_simplices
    read every dimension, O(N * dim).
    """

    __slots__ = ("_position", "_by_dim", "_faces")

    def __init__(self, simplices: Iterable[Simplex]):
        cells = list(map(tuple, simplices))
        _check_vertex_ids(cells)  # as given: the set merges (0, True) into (0, 1), and faces match by hash
        by_dim: dict[int, list[Simplex]] = {}
        for s in set(cells):
            by_dim.setdefault(len(s) - 1, []).append(s)
        self._by_dim = {d: tuple(sorted(by_dim[d])) for d in sorted(by_dim)}
        self._position: dict[Simplex, int] = {}
        self._faces: dict[int, tuple[tuple[int, ...], ...]] = {}
        index = self._position.__getitem__
        try:  # a vertex has no faces; the map holds every dimension below d
            for d, cells in self._by_dim.items():
                self._faces[d] = tuple([tuple(map(index, combinations(s, d) if d > 0 else ())) for s in cells])
                self._position.update(zip(cells, range(len(cells))))
        except KeyError as missing:
            raise NotFaceClosed(missing.args[0]) from None
        # the ends are vertex ids, found above; once every edge is strictly increasing,
        # a cell further up that is not has failed the lookup of a face
        for a, b in self._by_dim.get(1, ()):
            if a >= b:
                raise DuplicateVertex((a, b)) if a == b else ValueError(f"simplex {[a, b]} is not in increasing order")

    @classmethod
    def from_maximal(cls, generators: Iterable[Simplex]) -> "SimplicialComplex":
        return cls(closure(generators))

    @property
    def simplices(self) -> KeysView[Simplex]:
        return self._position.keys()

    @property
    def dimension(self) -> int:
        """Largest simplex dimension, or -1 for the empty complex."""
        return max(self._by_dim, default=-1)

    def of_dim(self, n: int) -> tuple[Simplex, ...]:
        return self._by_dim.get(n, ())

    def face_indices(self, n: int) -> tuple[tuple[int, ...], ...]:
        """Entry j lists the faces of of_dim(n)[j] in lex order, as indices into of_dim(n - 1)."""
        return self._faces.get(n, ())

    def position(self, sigma: Simplex) -> int | None:
        """The index of sigma in of_dim(dim sigma), or None if sigma is not a member."""
        return self._position.get(tuple(sigma))

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(s[0] for s in self.of_dim(0))

    def __contains__(self, sigma) -> bool:
        return tuple(sigma) in self._position

    def __iter__(self) -> Iterator[Simplex]:
        return iter(self._position)

    def __len__(self) -> int:
        return len(self._position)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.simplices == other.simplices

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} simplices, dim {self.dimension})"

    def _above(self, sigma: Simplex) -> Iterator[Simplex]:
        # sigma's cofacets in lex order: the cells one dimension up whose face-table entry holds it
        s = tuple(sigma)
        i = self._position.get(s, -1)  # -1, in no entry, for a non-member
        return compress(self.of_dim(len(s)), map(contains, self.face_indices(len(s)), repeat(i)))

    def cofacets(self, sigma: Simplex) -> list[Simplex]:
        """Cofaces of sigma of exactly one dimension higher, in lex order."""
        return list(self._above(sigma))

    def proper_cofaces(self, sigma: Simplex) -> list[Simplex]:
        """Every simplex strictly containing sigma, in (dim, lex) order."""
        s = tuple(sigma)
        level, out = {self._position.get(s, -1)}, []
        for d in range(len(s), self.dimension + 1):  # a coface's faces hold sigma or a coface of it
            level = {j for j, entry in enumerate(self.face_indices(d)) if not level.isdisjoint(entry)}
            out += map(self.of_dim(d).__getitem__, sorted(level))
        return out

    def is_maximal(self, sigma: Simplex) -> bool:
        return next(self._above(sigma), None) is None

    def maximal_simplices(self) -> list[Simplex]:
        covered = {d: set(chain.from_iterable(self.face_indices(d + 1))) for d in self._by_dim}
        return [s for s, i in self._position.items() if i not in covered[len(s) - 1]]

    def free_coface(self, sigma: Simplex) -> Simplex | None:
        """The unique proper coface of sigma, if there is exactly one.

        That is the case exactly when sigma has a single cofacet tau: a
        coface tau + {v} of tau would contain the second cofacet
        sigma + {v} of sigma. So tau is one dimension up and maximal.
        """
        up = list(islice(self._above(sigma), 2))
        return up[0] if len(up) == 1 else None

    def without(self, removed: Iterable[Simplex]) -> "SimplicialComplex":
        """This complex less the given simplices; one it does not hold is ignored."""
        gone = set(map(tuple, removed))
        return self._select({d: [s not in gone for s in cells] for d, cells in self._by_dim.items()})

    def _select(self, keep: Mapping[int, Sequence[bool]]) -> "SimplicialComplex":
        out = object.__new__(type(self))  # keep[d][i] keeps of_dim(d)[i]; closure is the one check
        out._position, out._by_dim, out._faces = {}, {}, {}
        number = {}  # kept position -> position in out, in the dimension below
        for d, cells in self._by_dim.items():
            rows = list(compress(range(len(cells)), keep[d]))
            try:  # unrenumbered when no cell below was dropped; else the first kept cell to miss a face names it
                faces = (tuple(map(self._faces[d].__getitem__, rows)) if len(number) == len(self.of_dim(d - 1))
                         else tuple([tuple(map(number.__getitem__, self._faces[d][i])) for i in rows]))
            except KeyError as missing:
                raise NotFaceClosed(self._by_dim[d - 1][missing.args[0]]) from None
            number = dict(zip(rows, range(len(rows))))
            if rows:
                out._by_dim[d], out._faces[d] = tuple(map(cells.__getitem__, rows)), faces
                out._position.update(zip(out._by_dim[d], range(len(rows))))
        return out


class WeightedComplex(SimplicialComplex):
    """A simplicial complex together with a divisibility-compatible weight.

    weights[d][i] weighs complex.of_dim(d)[i], the table weights_of_dim
    returns. Construction walks the cells once, in (dim, lex) order:
    each needs an integer weight that every codimension-1 face's weight
    divides, faces read off the face table in deletion order, and the
    first defect in that order is the one reported. The position map
    and face table are the given complex's; a derived subcomplex
    filters the weights by the same mask, unchecked.
    Instances are immutable; operations return new objects. Weights are
    Python ints, never floats. It never equals an unweighted complex.
    """

    __slots__ = ("_weights",)

    def __init__(self, complex: SimplicialComplex, weights: Sequence[Sequence[int]]):
        if isinstance(weights, Mapping):
            raise TypeError("weights[d][i] weighs of_dim(d)[i]; validate_complex takes simplex->weight records")
        if len(weights) != len(complex._by_dim):
            raise ValueError(f"{len(weights)} dimensions of weights for a complex of dimension {complex.dimension}")
        table = self._weights = {}
        # faces come first in (dim, lex) order; codim-1 checks suffice, as
        # divisibility is transitive, also when 0 divides only 0
        for d, cells in complex._by_dim.items():
            below, here = table.get(d - 1), tuple(weights[d])
            if len(here) != len(cells):
                raise ValueError(f"dimension {d} has {len(cells)} simplices but {len(here)} weights")
            for s, f, value in zip(cells, complex._faces[d], here):
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ValueError(f"weight of {list(s)} must be an integer, got {value!r}")
                for i in reversed(f):
                    wf = below[i]
                    if value % wf if wf else value:
                        raise DivisibilityViolation(complex.of_dim(d - 1)[i], s, wf, value)
            table[d] = here
        self._position, self._by_dim, self._faces = complex._position, complex._by_dim, complex._faces

    def weight(self, sigma: Simplex) -> int:
        s = tuple(sigma)
        i = self._position[s]
        return self._weights[len(s) - 1][i]

    def weights_of_dim(self, n: int) -> tuple[int, ...]:
        return self._weights.get(n, ())

    def items(self) -> list[tuple[Simplex, int]]:
        return list(zip(self, chain.from_iterable(self._weights.values())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (isinstance(other, WeightedComplex) and self.simplices == other.simplices
                and self._weights == other._weights)

    def restrict(self, members: Iterable[Simplex]) -> "WeightedComplex":
        """Sub-complex on the given simplices, keeping their weights.

        Raises ValueError naming the first one this complex does not
        hold, and NotFaceClosed if they are not a complex.
        """
        members = list(map(tuple, members))
        _check_vertex_ids(members)  # (True,) == (1,): an unchecked id would find the cell (1,)
        if outside := next((s for s in members if s not in self._position), None):
            raise ValueError(f"{list(outside)} is not a simplex of this complex")
        return self.without(self._position.keys() - members)

    def _select(self, keep: Mapping[int, Sequence[bool]]) -> "WeightedComplex":
        out = super()._select(keep)
        out._weights = {d: tuple(compress(self._weights[d], keep[d])) for d in out._by_dim}
        return out


def validate_complex(entries: Iterable[tuple[Iterable[int], int]]) -> WeightedComplex:
    """Build a weighted complex from (vertices, weight) records.

    Each record's vertices are sorted once, and a record repeating a
    simplex or a vertex is refused; every face needs its own record. The
    vertex ids are left to SimplicialComplex's one pass over all cells,
    except in a record that cannot be sorted or that repeats: simplex()
    names that one, so a bad id is reported before the repeat. This is
    where simplex->weight records become WeightedComplex's table, by
    position.
    """
    weight = _record_table(entries)
    K = SimplicialComplex(weight)
    return WeightedComplex(K, [[weight[s] for s in cells] for cells in K._by_dim.values()])
