"""Elementary collapses of weighted simplices.

A free face sigma is one whose only proper coface is a single simplex
tau (then tau has exactly one more vertex and is maximal). Removing the
pair is an elementary collapse. Whether the collapse preserves weighted
homology is decided by the pair's weights alone:

  same weight, nonzero      -> preserved
  opposite sign, nonzero    -> preserved (the only units of Z are +-1)
  both zero                 -> preserved trivially, since zero-weight
                               simplices never enter a chain basis; this
                               verdict is reported separately because it
                               sits outside the preservation theorems
  anything else             -> no guarantee either way

elementary_collapse, collapse_sequence, greedy_collapse and
morse.morse_collapse share one incremental state, read off the
complex's face table alone: per cell, the count of its live cofacets
and the sum of their positions, which name a free face's coface, plus
a heap of free faces. Each collapse edits them in O(dim). None of
them rebuilds or rescans the complex per step, or builds its cofacet
index; each derives its result from K's positions once, at the end.
"""

from __future__ import annotations

import enum
import functools
import heapq
from itertools import chain, compress
from typing import NamedTuple

from .complexes import Simplex, WeightedComplex
from .errors import NotFreeFace


class CollapseStep(NamedTuple):
    """A removed free pair; tau is the unique coface of sigma."""

    sigma: Simplex
    tau: Simplex

    @property
    def dimension(self) -> int:
        return len(self.tau) - 1


class Verdict(enum.Enum):
    SAME_WEIGHT = "same-weight"
    ASSOCIATE = "associate"
    ZERO_PAIR = "zero-pair"
    NOT_GUARANTEED = "not-guaranteed"


class PreservationVerdict(NamedTuple):
    verdict: Verdict
    w_sigma: int
    w_tau: int

    @property
    def guaranteed(self) -> bool:
        """True when the preservation theorems apply to this pair."""
        return self.verdict in (Verdict.SAME_WEIGHT, Verdict.ASSOCIATE)


def check_preservation(K: WeightedComplex, step: CollapseStep) -> PreservationVerdict:
    """Classify a collapse step by its pair weights.

    Constant time: this inspects the two weights and nothing else, and
    in particular never computes homology.
    """
    return _verdict(K.weight(step.sigma), K.weight(step.tau))


# equal verdicts share one object, which saves memory when a collapse
# meets few weight pairs; with many, each miss costs about 0.3 us more
@functools.lru_cache(maxsize=1024)
def _verdict(ws: int, wt: int) -> PreservationVerdict:
    if ws == wt != 0:
        verdict = Verdict.SAME_WEIGHT
    elif wt == -ws and ws != 0:
        verdict = Verdict.ASSOCIATE
    elif ws == 0 and wt == 0:
        verdict = Verdict.ZERO_PAIR
    else:
        verdict = Verdict.NOT_GUARANTEED
    return PreservationVerdict(verdict=verdict, w_sigma=ws, w_tau=wt)


def elementary_collapse(K: WeightedComplex, sigma) -> tuple[WeightedComplex, CollapseStep]:
    """Remove the free pair (sigma, its unique coface)."""
    state = _Collapser(K)
    step = state.collapse(sigma)
    return state.result(), step


class _Collapser:
    """A complex shrinking by free pairs, with its free faces at hand.

    Reads K's face table alone and keeps, per dimension and position,
    the count of a cell's live cofacets, below 0 once the cell is
    removed, and the sum of their positions one dimension up, plus a
    min-heap of candidate free faces in plain tuple order. A cell is
    free when its count is 1, and then the sum is its coface's
    position. Removing a pair (sigma, tau) lowers the counts and sums
    of their faces only, so just those are re-examined and, if free,
    pushed. Entries that went stale stay in the heap until
    smallest_free meets them. result() derives the live subcomplex.
    """

    def __init__(self, K: WeightedComplex):
        self._K, self._position, self.size = K, K._position, len(K)
        count = self._count = {d: [0] * len(K.of_dim(d)) for d in range(K.dimension + 1)}
        total = self._total = {d: [0] * len(here) for d, here in count.items()}
        for d in count:
            below, sums = count.get(d - 1), total.get(d - 1)
            for j, entry in enumerate(K.face_indices(d)):
                for g in entry:  # none for a vertex
                    below[g] += 1
                    sums[g] += j
        self._heap = list(compress(K, [c == 1 for c in chain.from_iterable(count.values())]))
        heapq.heapify(self._heap)

    def result(self) -> WeightedComplex:
        return self._K._select({d: [c >= 0 for c in here] for d, here in self._count.items()})

    def is_live(self, sigma: Simplex) -> bool:
        i = self._position.get(sigma)
        return i is not None and self._count[len(sigma) - 1][i] >= 0

    def _is_free(self, sigma: Simplex) -> bool:
        i = self._position.get(sigma)
        return i is not None and self._count[len(sigma) - 1][i] == 1

    def smallest_free(self) -> Simplex | None:
        heap = self._heap
        while heap and not self._is_free(heap[0]):
            heapq.heappop(heap)
        return heap[0] if heap else None

    def collapse(self, sigma) -> CollapseStep:
        """Remove the free pair (sigma, its unique coface)."""
        sigma = tuple(sigma)
        if not self._is_free(sigma):  # also when K does not hold sigma
            raise NotFreeFace(sigma)
        d, i = len(sigma) - 1, self._position[sigma]
        j = self._total[d][i]
        tau = self._K.of_dim(d + 1)[j]
        for d, i in ((d, i), (d + 1, j)):
            self._count[d][i] = -1
            self.size -= 1
            count, total = self._count.get(d - 1), self._total.get(d - 1)
            for g in self._K.face_indices(d)[i]:  # none for a vertex
                count[g] -= 1  # sigma, as a face of tau, stays removed below 0
                total[g] -= i
                if count[g] == 1:
                    heapq.heappush(self._heap, self._K.of_dim(d - 1)[g])
        return CollapseStep(sigma=sigma, tau=tau)


def collapse_sequence(K: WeightedComplex, sigmas) -> tuple[
    WeightedComplex, list[tuple[CollapseStep, PreservationVerdict]]
]:
    """Apply collapses in order, recording a verdict for each step.

    Verdicts are judged in the complex the step is applied to. The whole
    sequence carries a guarantee exactly when every verdict does. A
    step that is not a free face of the complex at that point raises
    NotFreeFace carrying its 0-based step_index, which its message
    names as "(entry i of the steps)".
    """
    state = _Collapser(K)
    applied = []
    for i, sigma in enumerate(sigmas):
        try:
            step = state.collapse(sigma)
        except NotFreeFace:
            raise NotFreeFace(sigma, step_index=i) from None
        applied.append((step, check_preservation(K, step)))
    return state.result(), applied


def greedy_collapse(K: WeightedComplex) -> tuple[
    WeightedComplex, list[tuple[CollapseStep, PreservationVerdict]]
]:
    """Collapse until no free face remains.

    Deterministic: at every step the smallest free face of the current
    complex in plain tuple order is taken. A run costs O(N * dim * log N):
    counting each cell's cofacets, then per step O(dim) count edits and
    heap pushes.
    """
    state = _Collapser(K)
    steps = map(state.collapse, iter(state.smallest_free, None))  # until no free face is left
    applied = [(step, check_preservation(K, step)) for step in steps]
    return state.result(), applied
