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

greedy_collapse, collapse_sequence and morse.morse_collapse share one
incremental state: a cofacet map that each collapse edits in O(dim),
plus a heap of free faces. None of them rebuilds or rescans the complex
per step; each builds its result complex once, at the end.
elementary_collapse is the one-step operation on a whole complex.
"""

from __future__ import annotations

import enum
import heapq
from typing import NamedTuple

from .complexes import Simplex, WeightedComplex, faces
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
    ws = K.weight(step.sigma)
    wt = K.weight(step.tau)
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
    sigma = tuple(sigma)
    tau = K.free_coface(sigma)  # None also when sigma is not in K
    if tau is None:
        raise NotFreeFace(sigma)
    return K.without((sigma, tau)), CollapseStep(sigma=sigma, tau=tau)


class _Collapser:
    """A complex shrinking by free pairs, with its free faces at hand.

    Keeps a live simplex -> live cofacets map and a min-heap of
    candidate free faces in plain tuple order. A simplex is free when
    it has exactly one cofacet, so removing a pair (sigma, tau) can
    change freeness only for the faces of sigma and tau, whose cofacet
    sets it edits; just those are re-examined and, if free, pushed.
    Entries that went stale stay in the heap until smallest_free meets
    them.

    members, if given, is a subcomplex of K to start from; its cofacets
    are read from K's own index, so it needs no index of its own.
    """

    def __init__(self, K: WeightedComplex, members: frozenset[Simplex] | None = None):
        if members is None:
            self._up = {s: set(K.cofacets(s)) for s in K}
        else:
            self._up = {s: {t for t in K.cofacets(s) if t in members} for s in members}
        self._heap = [s for s, up in self._up.items() if len(up) == 1]
        heapq.heapify(self._heap)

    @property
    def simplices(self):
        return self._up.keys()

    def _is_free(self, sigma: Simplex) -> bool:
        up = self._up.get(sigma)
        return up is not None and len(up) == 1

    def smallest_free(self) -> Simplex | None:
        heap = self._heap
        while heap and not self._is_free(heap[0]):
            heapq.heappop(heap)
        return heap[0] if heap else None

    def collapse(self, sigma) -> CollapseStep:
        """Remove the free pair (sigma, its unique coface)."""
        sigma = tuple(sigma)
        if not self._is_free(sigma):
            raise NotFreeFace(sigma)
        (tau,) = self._up[sigma]
        for s in (sigma, tau):
            del self._up[s]
            for g in faces(s):
                up = self._up.get(g)  # None for sigma, as a face of tau
                if up is not None:
                    up.discard(s)
                    if len(up) == 1:
                        heapq.heappush(self._heap, g)
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
    return K.restrict(state.simplices), applied


def greedy_collapse(K: WeightedComplex) -> tuple[
    WeightedComplex, list[tuple[CollapseStep, PreservationVerdict]]
]:
    """Collapse until no free face remains.

    Deterministic: at every step the smallest free face of the current
    complex in plain tuple order is taken. A run costs O(N * dim * log N):
    building the cofacet map, then per step O(dim) map edits and heap
    pushes.
    """
    state = _Collapser(K)
    applied = []
    while (sigma := state.smallest_free()) is not None:
        step = state.collapse(sigma)
        applied.append((step, check_preservation(K, step)))
    return K.restrict(state.simplices), applied
