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

from itertools import chain, combinations
from typing import Iterable, Iterator, Mapping

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


class SimplicialComplex:
    """A finite face-closed set of simplices.

    Construction sorts each dimension into lex order and lists the face
    table: each simplex's codimension-1 faces, in lex order, by index in
    the dimension below. A missing face fails its lookup: that closure
    check, enough by induction, names the first simplex in (dim, lex)
    order that misses one. Iteration is in (dim, lex) order, so anything
    derived from it is deterministic.

    Coface queries (cofacets, proper_cofaces, is_maximal, free_coface,
    maximal_simplices) go through a simplex -> cofacets index that the
    first such query builds in O(N * dim); after that each query costs
    O(degree), not a scan of the whole complex.
    """

    __slots__ = ("_simplices", "_by_dim", "_faces", "_cofacets")

    def __init__(self, simplices: Iterable[Simplex]):
        members = frozenset(tuple(s) for s in simplices)
        by_dim: dict[int, list[Simplex]] = {}
        for s in members:
            by_dim.setdefault(len(s) - 1, []).append(s)
        self._simplices = members
        self._by_dim = {d: tuple(sorted(by_dim[d])) for d in sorted(by_dim)}
        self._faces: dict[int, tuple[tuple[int, ...], ...]] = {}
        try:  # a vertex has no faces
            for d, cells in self._by_dim.items():
                index = {s: i for i, s in enumerate(self.of_dim(d - 1))}.__getitem__
                self._faces[d] = tuple([tuple(map(index, combinations(s, d) if d > 0 else ())) for s in cells])
        except KeyError as missing:
            raise NotFaceClosed(missing.args[0]) from None
        self._cofacets = None

    @classmethod
    def from_maximal(cls, generators: Iterable[Simplex]) -> "SimplicialComplex":
        return cls(closure(generators))

    @property
    def simplices(self) -> frozenset[Simplex]:
        return self._simplices

    @property
    def dimension(self) -> int:
        """Largest simplex dimension, or -1 for the empty complex."""
        return max(self._by_dim, default=-1)

    def of_dim(self, n: int) -> tuple[Simplex, ...]:
        return self._by_dim.get(n, ())

    def face_indices(self, n: int) -> tuple[tuple[int, ...], ...]:
        """Entry j lists the faces of of_dim(n)[j] in lex order, as indices into of_dim(n - 1)."""
        return self._faces.get(n, ())

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(s[0] for s in self.of_dim(0))

    def __contains__(self, sigma) -> bool:
        return tuple(sigma) in self._simplices

    def __iter__(self) -> Iterator[Simplex]:
        for d in sorted(self._by_dim):
            yield from self._by_dim[d]

    def __len__(self) -> int:
        return len(self._simplices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._simplices == other._simplices

    def __hash__(self) -> int:
        return hash(self._simplices)

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self)} simplices, dim {self.dimension})"

    def _cofacet_index(self) -> dict[Simplex, tuple[Simplex, ...]]:
        # built on the first coface query: complexes that are only reduced
        # (sequence fingerprints) never pay for it
        index = self._cofacets
        if index is None:
            up: dict[Simplex, list[Simplex]] = {s: [] for s in self._simplices}
            for t in self:  # (dim, lex) order, so each list comes out sorted
                for f in faces(t):
                    up[f].append(t)
            index = self._cofacets = {s: tuple(ts) for s, ts in up.items()}
        return index

    def cofacets(self, sigma: Simplex) -> list[Simplex]:
        """Cofaces of sigma of exactly one dimension higher, in lex order."""
        return list(self._cofacet_index().get(tuple(sigma), ()))

    def proper_cofaces(self, sigma: Simplex) -> list[Simplex]:
        """Every simplex strictly containing sigma, in (dim, lex) order."""
        index = self._cofacet_index()
        out: list[Simplex] = []
        level = index.get(tuple(sigma), ())
        while level:
            out.extend(level)
            level = sorted({t for s in level for t in index[s]})
        return out

    def is_maximal(self, sigma: Simplex) -> bool:
        return not self._cofacet_index().get(tuple(sigma))

    def maximal_simplices(self) -> list[Simplex]:
        index = self._cofacet_index()
        return [s for s in self if not index[s]]

    def free_coface(self, sigma: Simplex) -> Simplex | None:
        """The unique proper coface of sigma, if there is exactly one.

        That is the case exactly when sigma has a single cofacet tau: a
        coface tau + {v} of tau would contain the second cofacet
        sigma + {v} of sigma. So tau is one dimension up and maximal.
        """
        up = self._cofacet_index().get(tuple(sigma), ())
        return up[0] if len(up) == 1 else None

    def without(self, removed: Iterable[Simplex]) -> "SimplicialComplex":
        gone = {tuple(s) for s in removed}
        return SimplicialComplex(self._simplices - gone)


class WeightedComplex(SimplicialComplex):
    """A simplicial complex together with a divisibility-compatible weight.

    Construction walks the simplices once, in (dim, lex) order: each
    needs an integer weight that every codimension-1 face's weight
    divides, its faces read off the face table in deletion order, and
    the first defect in that order is the one reported. It keeps each
    dimension's weights in lex order (weights_of_dim) and shares the
    tables and cofacet index (if built) of the complex it is given.
    Instances are immutable; operations return new objects. Weights are
    Python ints, never floats. It never equals an unweighted complex.
    """

    __slots__ = ("_weight", "_weights")

    def __init__(self, complex: SimplicialComplex, weight: Mapping[Simplex, int]):
        weights: dict[int, tuple[int, ...]] = {}
        # faces come first in (dim, lex) order; codim-1 checks suffice, as
        # divisibility is transitive, also when 0 divides only 0
        for d, cells in complex._by_dim.items():
            below, here = weights.get(d - 1), []
            for s, f in zip(cells, complex._faces[d]):
                if s not in weight:
                    raise ValueError(f"no weight for simplex {list(s)}")
                value = weight[s]
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ValueError(f"weight of {list(s)} must be an integer, got {value!r}")
                for i in reversed(f):
                    wf = below[i]
                    if value % wf if wf else value:
                        raise DivisibilityViolation(complex.of_dim(d - 1)[i], s, wf, value)
                here.append(value)
            weights[d] = tuple(here)
        self._simplices, self._by_dim = complex._simplices, complex._by_dim
        self._faces, self._cofacets = complex._faces, complex._cofacets
        self._weight = dict(zip(complex, chain.from_iterable(weights.values())))
        self._weights = weights

    def weight(self, sigma: Simplex) -> int:
        return self._weight[tuple(sigma)]

    def weights_of_dim(self, n: int) -> tuple[int, ...]:
        return self._weights.get(n, ())

    def items(self) -> list[tuple[Simplex, int]]:
        return [(s, self._weight[s]) for s in self]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (isinstance(other, WeightedComplex) and self._simplices == other._simplices
                and self._weight == other._weight)

    def __repr__(self) -> str:
        return f"WeightedComplex({len(self)} simplices, dim {self.dimension})"

    def restrict(self, members: Iterable[Simplex]) -> "WeightedComplex":
        """Sub-complex on the given simplices, keeping their weights.

        Raises NotFaceClosed if the selection is not a complex.
        """
        selected = SimplicialComplex(tuple(s) for s in members)
        for s in selected.simplices:
            if s not in self._simplices:
                raise KeyError(f"{list(s)} is not a simplex of this complex")
        return WeightedComplex(selected, self._weight)

    def without(self, removed: Iterable[Simplex]) -> "WeightedComplex":
        gone = {tuple(s) for s in removed}
        return self.restrict(self._simplices - gone)


def validate_complex(entries: Iterable[tuple[Iterable[int], int]]) -> WeightedComplex:
    """Build a weighted complex from (vertices, weight) records.

    Vertex tuples are canonicalized; repeated records for the same
    simplex and repeated vertices inside one record are rejected. The
    listing must be explicit: every face needs its own record.
    """
    weight: dict[Simplex, int] = {}
    for vertices, w in entries:
        s = simplex(vertices)
        if s in weight:
            raise DuplicateSimplex(s)
        weight[s] = w
    return WeightedComplex(SimplicialComplex(weight), weight)
