"""Exact sparse integer matrices and their Smith normal form.

Matrices are sparse columns (row index -> nonzero entry). The Smith
routine returns invariant factors, units included, by unimodular row and
column operations on Python ints, with no modular or float shortcut:
(1) unit pivots, least Markowitz fill cost (r - 1)(c - 1) first, each an
equal-weight face/coface pair of a weighted boundary; (2) least-magnitude
pivots with Euclid steps on the unit-free rest; (3) a pairwise gcd/lcm
pass making the diagonal a divisibility chain. Pivot order follows
Dumas, Saunders and Villard, J. Symbolic Comput. 32 (2001).

A heap holds each column's preferred pivot. A column is priced when it
changes and only then: it carries a version stamp, and a popped entry
with an older stamp is dropped unpriced. A price's fill cost reads the
row counts of its time and may go stale; that moves the pivot order,
never the factors.

Clearing (Chen and Kerber, EuroCG 2011): the caller may ask for the rows
of the unit pivots taken before the first pivot whose entry is not +-1.
Up to that pivot every change to the other columns is a column
operation, so the pivot columns are integer combinations of A's columns
and form a unit-triangular block on those rows. If A is the boundary
d_{n+1}, those rows name n-cells whose columns in d_n are integer
combinations of the other columns of d_n, and d_n may be reduced
without them. A unit reached later, or by Euclid restarts, has had row
operations and names no such cell.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from math import gcd
from typing import Iterable, NamedTuple


class IntMatrix:
    """Immutable integer matrix stored as sparse columns.

    columns[j] maps row index to the nonzero entry in column j; zeros are
    never stored. Zero-by-n and n-by-zero shapes are legal and show up
    constantly as boundary maps at the ends of a chain complex, so the
    shape is stored explicitly.
    """

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows: int, cols: int, columns: Iterable[dict[int, int]]):
        self.rows = rows
        self.cols = cols
        self.columns = tuple(columns)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        if rows:
            cols = len(rows[0])
            for r in rows:
                if len(r) != cols:
                    raise ValueError("ragged rows")
        elif cols is None:
            cols = 0
        columns = [{} for _ in range(cols)]
        for i, r in enumerate(rows):
            for j, x in enumerate(r):
                if isinstance(x, bool) or not isinstance(x, int):
                    raise ValueError(f"matrix entries must be integers, got {x!r}")
                if x:
                    columns[j][i] = x
        return cls(len(rows), cols, columns)

    @property
    def entries(self) -> "_Entries":
        """Row-major view of all rows x cols entries, zeros included."""
        return _Entries(self)

    def entry(self, i: int, j: int) -> int:
        return self.columns[j].get(i, 0)

    def with_column(self, vector: Sequence[int]) -> "IntMatrix":
        """This matrix with one more column appended."""
        if len(vector) != self.rows:
            raise ValueError(f"vector length {len(vector)} does not match {self.rows} rows")
        extra = {i: x for i, x in enumerate(vector) if x}
        return IntMatrix(self.rows, self.cols + 1, self.columns + (extra,))

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(vector) != self.cols:
            raise ValueError(f"vector length {len(vector)} does not match {self.cols} columns")
        out = [0] * self.rows
        for c, y in zip(self.columns, vector):
            if y:
                for i, x in c.items():
                    out[i] += x * y
        return tuple(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.columns) == (other.rows, other.cols, other.columns)

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols})"


class _Entries(Sequence):
    """Row-major view of a sparse matrix's entries; counts zeros in O(nnz)."""

    def __init__(self, m: IntMatrix):
        self._m = m

    def __len__(self) -> int:
        return self._m.rows * self._m.cols

    def __getitem__(self, k: int) -> int:
        return self._m.entry(*divmod(range(len(self))[k], self._m.cols))

    def count(self, value) -> int:
        nonzero = [x for c in self._m.columns for x in c.values()]
        return len(self) - len(nonzero) if value == 0 else nonzero.count(value)


class SmithDecomposition(NamedTuple):
    """Invariant factors of a matrix.

    factors are positive and each divides the next; unit factors are
    kept, so their number is the rank.
    """

    factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.factors)


def _add_column(cols, row_index, dst: int, src: int, k: int) -> None:
    """cols[dst] += k * cols[src], keeping row_index in step."""
    target = cols[dst]
    for i, x in cols[src].items():
        y = target.get(i, 0) + k * x
        if y:
            target[i] = y
            row_index[i].add(dst)
        else:
            del target[i]
            row_index[i].discard(dst)


def _pivot(cols, row_index, i: int, j: int, touched: set[int]) -> int:
    """Split off a diagonal entry at (i, j); return its absolute value.

    Column operations clear row i outside the pivot. Then row operations
    against row i touch column j alone, so column j is reduced modulo
    the pivot. Any nonzero remainder becomes the pivot and the loop
    restarts; |pivot| strictly falls, so it ends (a unit never restarts).
    Row i and column j then leave. Every column that held an entry of a
    pivot row goes to touched.
    """
    while True:
        p = cols[j][i]
        others = [k for k in row_index[i] if k != j]
        touched.update(others)
        for k in others:
            if q := cols[k][i] // p:
                _add_column(cols, row_index, k, j, -q)
        others = [k for k in row_index[i] if k != j]
        if others:
            j = min(others, key=lambda k: abs(cols[k][i]))
            continue
        col = cols[j]
        for r in [r for r in col if r != i]:
            if x := col[r] % p:
                col[r] = x
            else:
                del col[r]
                row_index[r].discard(j)
        others = [r for r in col if r != i]
        if not others:
            break
        i = min(others, key=lambda r: abs(col[r]))
    row_index[i].discard(j)
    cols[j] = {}
    return abs(p)


def _preferred_entry(col, row_index):
    """(|x|, fill cost, row) of a column's preferred pivot, or None."""
    best = None
    c = len(col) - 1
    for i, x in col.items():
        key = (abs(x), (len(row_index[i]) - 1) * c, i)
        if best is None or key < best:
            best = key
    return best


def _diagonalise(cols, row_index, unit_rows: list[int] | None) -> list[int]:
    """Phases 1 and 2: pivot until no entry is left; return the diagonal.

    The heap holds (|x|, fill cost, column, stamp, row), so unit pivots
    come first. Each pivot bumps the stamps of the columns it touched
    and prices them anew. Rows of the leading unit pivots go to
    unit_rows, when given, until the first pivot that is not a unit.
    """
    heap, diagonal, touched = [], [], set(range(len(cols)))
    stamp = [0] * len(cols)
    while True:
        for k in touched:
            stamp[k] += 1
            if (best := _preferred_entry(cols[k], row_index)) is not None:
                heapq.heappush(heap, (best[0], best[1], k, stamp[k], best[2]))
        touched.clear()
        if not heap:
            return diagonal
        x, _, j, version, i = heapq.heappop(heap)
        if version != stamp[j]:
            continue
        if x != 1:
            unit_rows = None
        diagonal.append(_pivot(cols, row_index, i, j, touched))
        if unit_rows is not None:
            unit_rows.append(i)


def _divisibility_chain(diagonal: list[int]) -> tuple[int, ...]:
    """Phase 3: replace pairs by (gcd, lcm) until each divides the next."""
    d = sorted(diagonal)
    for a in range(d.count(1), len(d)):  # units divide everything
        for b in range(a + 1, len(d)):
            if d[b] % d[a]:
                g = gcd(d[a], d[b])
                d[a], d[b] = g, d[a] // g * d[b]
    return tuple(d)


def smith_normal_form(A: IntMatrix, *, unit_rows: list[int] | None = None) -> SmithDecomposition:
    """Invariant factors of A over the integers; A is left unchanged.

    With unit_rows given, the row of each unit pivot taken before the
    first pivot that is not a unit is appended to it: the cells that
    clearing may drop from the next boundary down.
    """
    cols = [dict(c) for c in A.columns]
    row_index: list[set[int]] = [set() for _ in range(A.rows)]
    for j, col in enumerate(cols):
        for i in col:
            row_index[i].add(j)
    return SmithDecomposition(_divisibility_chain(_diagonalise(cols, row_index, unit_rows)))

