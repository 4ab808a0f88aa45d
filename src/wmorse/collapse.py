"""Elementary collapses and removals of weighted simplices.

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

Removal of a single maximal simplex is the orthogonal surgery: it can
only touch homology in the two dimensions next to the removed cell, and
which way dimension n moves is decided by the order of the removed
boundary's class.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .complexes import Simplex, WeightedComplex
from .errors import NotFreeFace, NotMaximal, ZeroWeight
from .homology import ClassOrder, HomologyGroup, boundary_matrices
from .snf import IntMatrix, smith_normal_form


@dataclass(frozen=True)
class CollapseStep:
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


@dataclass(frozen=True)
class PreservationVerdict:
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
    if sigma not in K:
        raise NotFreeFace(sigma)
    tau = K.free_coface(sigma)
    if tau is None:
        raise NotFreeFace(sigma)
    return K.without((sigma, tau)), CollapseStep(sigma=sigma, tau=tau)


def collapse_sequence(K: WeightedComplex, sigmas) -> tuple[
    WeightedComplex, list[tuple[CollapseStep, PreservationVerdict]]
]:
    """Apply collapses in order, recording a verdict for each step.

    Verdicts are judged in the complex the step is applied to. The whole
    sequence carries a guarantee exactly when every verdict does.
    """
    applied = []
    current = K
    for i, sigma in enumerate(sigmas):
        try:
            current, step = elementary_collapse(current, sigma)
        except NotFreeFace as e:
            e.step_index = i
            raise
        applied.append((step, check_preservation(K, step)))
    return current, applied


def greedy_collapse(K: WeightedComplex) -> tuple[
    WeightedComplex, list[tuple[CollapseStep, PreservationVerdict]]
]:
    """Collapse until no free face remains.

    Deterministic: at every step the lexicographically smallest free
    face of the current complex is taken.
    """
    applied = []
    current = K
    while True:
        free = sorted(s for s in current if current.free_coface(s) is not None)
        if not free:
            return current, applied
        current, step = elementary_collapse(current, free[0])
        applied.append((step, check_preservation(K, step)))


@dataclass(frozen=True)
class RemovalReport:
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
    if sigma not in K:
        raise NotMaximal(sigma)
    if not K.is_maximal(sigma):
        raise NotMaximal(sigma)
    if K.weight(sigma) == 0:
        raise ZeroWeight(sigma)
    L = K.without((sigma,))
    n = len(sigma) - 1

    if n == 0:
        # the boundary lands in the zero module; its class is zero and
        # dimension 0 always gains a free summand
        report = RemovalReport(
            sigma=sigma,
            dimension=0,
            boundary_chain=(),
            class_order=ClassOrder.zero(),
            gains_free_summand=True,
            quotient_below=None,
        )
        return L, report

    # L shares K's bases below n and its d_n is K's without sigma's
    # column, so [d_n(L) | chain] is K's d_n up to column order
    bd = boundary_matrices(K)
    dK = bd.matrix(n)
    j = bd.basis(n).index(sigma)
    chain = dK.column(j)
    bd.cycle(n - 1, chain)
    dL = IntMatrix(dK.rows, dK.cols - 1, dK.columns[:j] + dK.columns[j + 1:])
    extended = smith_normal_form(dK)
    order = ClassOrder.of(smith_normal_form(dL), extended)
    cycles = len(bd.basis(n - 1)) - smith_normal_form(bd.matrix(n - 1)).rank
    report = RemovalReport(
        sigma=sigma,
        dimension=n,
        boundary_chain=chain,
        class_order=order,
        gains_free_summand=order.is_torsion,
        quotient_below=HomologyGroup(
            cycles - extended.rank, tuple(d for d in extended.factors if d > 1)
        ),
    )
    return L, report
