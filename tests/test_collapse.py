"""Elementary collapses, preservation verdicts, and removals."""

import heapq
import importlib
import random
import time
import types

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    BROKEN_REMOVAL,
    assert_state_kept,
    complex_state,
    filled_triangle,
    full_simplex,
    greedy_morse_values,
    groups_equal_padded,
    hollow_triangle_w2,
    reference_greedy_collapse,
    sphere,
    weighted_disk,
)
from generators import random_weighted_complex
from wmorse import (
    ClassOrder,
    CollapseStep,
    HomologyGroup,
    InternalInvariantError,
    NotFreeFace,
    NotMaximal,
    Verdict,
    ZeroWeight,
    build_woc,
    check_preservation,
    collapse_sequence,
    elementary_collapse,
    elementary_removal,
    greedy_collapse,
    group_at,
    homology,
    homology_class_order,
    morse_collapse,
    validate_complex,
    validate_morse,
)
from wmorse.homology import _smith_homology


class TestVerdicts:
    def test_same_weight(self):
        K = filled_triangle()
        v = check_preservation(K, CollapseStep((1, 2), (0, 1, 2)))
        assert v.verdict == Verdict.SAME_WEIGHT
        assert (v.w_sigma, v.w_tau) == (4, 4)
        assert v.guaranteed

    def test_not_guaranteed(self):
        K = filled_triangle()
        v = check_preservation(K, CollapseStep((0, 1), (0, 1, 2)))
        assert v.verdict == Verdict.NOT_GUARANTEED
        assert not v.guaranteed

    def test_associate(self):
        K = validate_complex([([0], 1), ([1], 3), ([0, 1], -3)])
        v = check_preservation(K, CollapseStep((1,), (0, 1)))
        assert v.verdict == Verdict.ASSOCIATE
        assert v.guaranteed

    def test_zero_pair_reported_but_not_guaranteed(self):
        K = validate_complex([([0], 1), ([1], 0), ([0, 1], 0)])
        v = check_preservation(K, CollapseStep((1,), (0, 1)))
        assert v.verdict == Verdict.ZERO_PAIR
        assert not v.guaranteed
        # it still preserves homology: zero-weight cells carry no chains
        L, _ = elementary_collapse(K, (1,))
        assert groups_equal_padded(homology(K), homology(L))


class TestElementaryCollapse:
    def test_collapse_removes_the_pair(self):
        K = filled_triangle()
        L, step = elementary_collapse(K, (1, 2))
        assert step == CollapseStep((1, 2), (0, 1, 2))
        assert step.dimension == 2
        assert (1, 2) not in L and (0, 1, 2) not in L
        assert len(L) == len(K) - 2

    def test_not_free_raises(self):
        K = filled_triangle()
        with pytest.raises(NotFreeFace):
            elementary_collapse(K, (0,))  # several cofaces
        with pytest.raises(NotFreeFace):
            elementary_collapse(K, (0, 1, 2))  # maximal, no cofaces
        with pytest.raises(NotFreeFace):
            elementary_collapse(K, (7,))  # absent

    @pytest.mark.parametrize("sigma", [[0], [0, 1, 2], [7], [0, 7], []],
                             ids=["shared", "maximal", "absent", "absent-edge", "empty"])
    def test_refusal_names_the_cell(self, sigma):
        with pytest.raises(NotFreeFace) as info:
            elementary_collapse(filled_triangle(), sigma)
        assert str(info.value) == f"{sigma} is not a free face"

    @pytest.mark.parametrize("collapse", [
        greedy_collapse,
        lambda K: collapse_sequence(K, [(1, 2), (1,)]),
        lambda K: elementary_collapse(K, (1, 2)),
    ], ids=["greedy", "sequence", "elementary"])
    def test_collapses_leave_the_complex_as_built(self, collapse):
        K = filled_triangle()
        state = complex_state(K)
        collapse(K)
        assert_state_kept(K, state)

    @pytest.mark.parametrize("collapse, heaps", [
        (greedy_collapse, 1),
        (lambda K: collapse_sequence(K, [(1, 2), (1,)]), 0),
        (lambda K: elementary_collapse(K, (1, 2)), 0),
        (lambda K: morse_collapse(K, validate_morse(K, greedy_morse_values(K)[0]), 0, 3), 0),
    ], ids=["greedy", "sequence", "elementary", "morse"])
    def test_only_greedy_collapse_builds_a_free_face_heap(self, monkeypatch, collapse, heaps):
        # callers that name their faces never ask for the smallest free one
        calls = []
        spy = types.SimpleNamespace(**{name: lambda *args, name=name: calls.append(name) or getattr(heapq, name)(*args)
                                       for name in ("heapify", "heappush", "heappop")})
        monkeypatch.setattr(importlib.import_module("wmorse.collapse"), "heapq", spy)
        K = full_simplex(2)  # constant weights: every pair of its greedy Morse function is w-simple
        collapse(K)
        assert calls.count("heapify") == heaps
        assert heaps or calls == []

    def test_triangle_chain_verdicts_and_homology(self):
        # triangle -> two edges -> one edge -> one vertex
        K0 = filled_triangle()
        final, applied = collapse_sequence(K0, [(1, 2), (1,), (0,)])
        verdicts = [v.verdict for _, v in applied]
        assert verdicts == [
            Verdict.SAME_WEIGHT,
            Verdict.NOT_GUARANTEED,
            Verdict.NOT_GUARANTEED,
        ]
        assert set(final.simplices) == {(2,)}

        # homology along the chain: the guaranteed step preserves, the
        # first unguaranteed one loses torsion, the second happens to
        # preserve (unguaranteed does not mean changed)
        K1 = K0.without([(1, 2), (0, 1, 2)])
        K2 = K1.without([(1,), (0, 1)])
        assert group_at(homology(K0), 0) == group_at(homology(K1), 0)
        assert group_at(homology(K1), 0) != group_at(homology(K2), 0)
        assert group_at(homology(K2), 0) == group_at(homology(final), 0)

    def test_sequence_records_failing_step_index(self):
        K = filled_triangle()
        with pytest.raises(NotFreeFace) as info:
            collapse_sequence(K, [(1, 2), (1, 2)])
        assert info.value.step_index == 1

    def test_greedy_collapse_is_deterministic(self):
        K = filled_triangle()
        final1, applied1 = greedy_collapse(K)
        final2, applied2 = greedy_collapse(K)
        assert [s for s, _ in applied1] == [s for s, _ in applied2]
        assert final1 == final2
        # first step takes the lexicographically smallest free face
        assert applied1[0][0].sigma == (0, 1)
        # nothing free remains at the end
        assert all(final1.free_coface(s) is None for s in final1)

    def test_greedy_collapse_of_full_simplex_reaches_a_point(self):
        K = full_simplex(3)
        final, applied = greedy_collapse(K)
        assert len(final) == 1
        assert all(v.verdict == Verdict.SAME_WEIGHT for _, v in applied)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9), st.floats(min_value=0, max_value=0.4))
def test_guaranteed_collapses_preserve_homology(seed, zero_chance):
    rng = random.Random(seed)
    K = random_weighted_complex(rng, zero_star_chance=zero_chance)
    before = homology(K)
    for sigma in K:
        if K.free_coface(sigma) is None:
            continue
        L, step = elementary_collapse(K, sigma)
        v = check_preservation(K, step)
        if v.guaranteed or v.verdict == Verdict.ZERO_PAIR:
            assert groups_equal_padded(before, homology(L)), (sigma, v)


ACGT = {"A": 1, "C": 2, "G": 3, "T": 4}


def assert_greedy_matches_reference(K):
    final, applied = greedy_collapse(K)
    members, want = reference_greedy_collapse(K)
    got = [(step.sigma, step.tau, v.verdict.value) for step, v in applied]
    assert got == want
    assert set(final) == members
    assert all(final.weight(s) == K.weight(s) for s in final)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9), st.floats(min_value=0.05, max_value=0.6))
def test_greedy_collapse_matches_rescanning_reference(seed, zero_chance):
    rng = random.Random(seed)
    K = random_weighted_complex(rng, zero_star_chance=zero_chance)
    assert_greedy_matches_reference(K)


@pytest.mark.parametrize("make", [
    lambda: full_simplex(7),
    lambda: build_woc("ACGTAC", ACGT, 1)[0],
    lambda: build_woc("ACGTAC", ACGT, 2)[0],
], ids=["delta7", "ACGTAC-type1", "ACGTAC-type2"])
def test_greedy_collapse_matches_rescanning_reference_on_large_inputs(make):
    assert_greedy_matches_reference(make())


def random_step_list(K, rng):
    """Mostly free faces of the complex reached so far, some arbitrary simplices."""
    current, sigmas = K, []
    for _ in range(rng.randint(0, len(K))):
        free = [s for s in current if current.free_coface(s) is not None]
        if free and rng.random() < 0.9:
            sigma = rng.choice(free)
            current, _ = elementary_collapse(current, sigma)
        else:
            sigma = rng.choice(sorted(K))
        sigmas.append(sigma)
    return sigmas


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9), st.floats(min_value=0, max_value=0.5))
def test_collapse_sequence_matches_step_by_step_replay(seed, zero_chance):
    rng = random.Random(seed)
    K = random_weighted_complex(rng, zero_star_chance=zero_chance)
    sigmas = random_step_list(K, rng)
    current, steps, failed_at = K, [], None
    for i, sigma in enumerate(sigmas):
        try:
            current, step = elementary_collapse(current, sigma)
        except NotFreeFace:
            failed_at = i
            break
        steps.append(step)
    if failed_at is not None:
        with pytest.raises(NotFreeFace) as info:
            collapse_sequence(K, sigmas)
        assert info.value.step_index == failed_at
        assert info.value.simplex == tuple(sigmas[failed_at])
        return
    final, applied = collapse_sequence(K, sigmas)
    assert [step for step, _ in applied] == steps
    assert [v for _, v in applied] == [check_preservation(K, step) for step in steps]
    assert final == current


@pytest.mark.parametrize("make", [
    lambda: full_simplex(8),
    lambda: build_woc("ACGTACG", ACGT, 3)[0],
], ids=["delta8", "ACGTACG-type3"])
def test_greedy_collapse_scales(make):
    K = make()
    t0 = time.perf_counter()
    final, applied = greedy_collapse(K)
    assert time.perf_counter() - t0 < 1.0
    assert len(final) == len(K) - 2 * len(applied)
    assert all(final.free_coface(s) is None for s in final)


class TestElementaryRemoval:
    def test_requires_maximal_nonzero(self):
        K = filled_triangle()
        with pytest.raises(NotMaximal):
            elementary_removal(K, (0, 1))
        with pytest.raises(NotMaximal):
            elementary_removal(K, (9,))
        Z = validate_complex([([0], 1), ([1], 1), ([0, 1], 0)])
        with pytest.raises(ZeroWeight):
            elementary_removal(Z, (0, 1))

    def test_edge_removal_with_zero_class(self):
        # removing one edge of the weighted hollow triangle: the boundary
        # class already dies in the smaller complex, so the top dimension
        # gains a free summand and nothing below changes
        K = hollow_triangle_w2()
        L, report = elementary_removal(K, (1, 2))
        assert report.dimension == 1
        assert report.boundary_chain == (0, -2, 2)
        assert report.class_order.kind == "zero"
        assert report.gains_free_summand
        assert report.quotient_below == HomologyGroup(1, (2, 2))
        assert report.quotient_below == group_at(homology(K), 0)
        assert group_at(homology(K), 1) == HomologyGroup(1)
        assert group_at(homology(L), 1) == HomologyGroup(0)

    @pytest.mark.parametrize("w", [2, 3])
    def test_edge_removal_with_torsion_class(self, w):
        # the two edges of weight w make [1] - [0] a class of order w in H_0
        # of the smaller complex; the removed edge kills it and closes a 1-cycle
        K = validate_complex([([0], 1), ([1], 1), ([2], 1), ([0, 1], 1), ([0, 2], w), ([1, 2], w)])
        L, report = elementary_removal(K, (0, 1))
        assert report.class_order == ClassOrder.torsion(w)
        assert report.gains_free_summand
        assert report.quotient_below == HomologyGroup(1, (w,))
        assert homology(L) == [HomologyGroup(1, (w, w)), HomologyGroup(0)]
        assert homology(K) == [HomologyGroup(1, (w,)), HomologyGroup(1)]

    def test_top_cell_removal_with_infinite_class(self):
        # removing the solid triangle's face leaves its boundary circle,
        # where the boundary class generates; no free summand appears
        K = full_simplex(2)
        L, report = elementary_removal(K, (0, 1, 2))
        assert report.class_order.kind == "infinite"
        assert not report.gains_free_summand
        assert group_at(homology(K), 2) == group_at(homology(L), 2)
        assert report.quotient_below == group_at(homology(K), 1)

    def test_sphere_facet_removal_gains_free_summand(self):
        K = sphere(2)
        L, report = elementary_removal(K, (0, 1, 2))
        assert report.class_order.kind == "zero"
        assert report.gains_free_summand
        assert group_at(homology(K), 2) == HomologyGroup(1)
        assert group_at(homology(L), 2) == HomologyGroup(0)

    def test_vertex_removal(self):
        K = validate_complex([([0], 1), ([1], 5)])
        L, report = elementary_removal(K, (1,))
        assert report.dimension == 0
        assert report.boundary_chain == ()
        assert report.quotient_below is None
        assert report.gains_free_summand
        assert homology(K) == [HomologyGroup(2)]
        assert homology(L) == [HomologyGroup(1)]


def smith_groups(X):
    """Every group of X by the Smith path, not the certified engine the removal reads."""
    return _smith_homology(X, X.dimension) if X.dimension >= 0 else []


def removal_respects_structure(K, sigma):
    """Check one removal against the Smith path's homology of both sides."""
    n = len(sigma) - 1
    before = smith_groups(K)
    L, report = elementary_removal(K, sigma)
    after = smith_groups(L)
    # untouched away from dimensions n-1, n
    top = max(K.dimension, L.dimension)
    for k in range(top + 1):
        if k not in (n - 1, n):
            assert group_at(before, k) == group_at(after, k), (sigma, k)
    # the quotient is dimension n-1 of the larger complex, and the class
    # order is the one the Smith path finds for the boundary in the smaller
    if n >= 1:
        assert report.quotient_below == group_at(before, n - 1), sigma
        assert report.class_order == homology_class_order(L, n - 1, report.boundary_chain), sigma
    # dimension n either gains exactly one free summand or stays put
    gk, lk = group_at(before, n), group_at(after, n)
    if report.gains_free_summand:
        assert gk == HomologyGroup(lk.free_rank + 1, lk.torsion), sigma
    else:
        assert gk == lk, sigma


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_removal_reports_match_homology(seed):
    rng = random.Random(seed)
    K = random_weighted_complex(rng, max_vertices=7)
    for sigma in K.maximal_simplices():
        if K.weight(sigma) != 0:
            removal_respects_structure(K, sigma)



@pytest.mark.parametrize("broken", sorted(BROKEN_REMOVAL))
def test_removal_checks_the_theorem_between_the_two_sides(monkeypatch, broken):
    module = importlib.import_module("wmorse.homology")
    real, (edits, message) = module.homology, BROKEN_REMOVAL[broken]

    def edited(X, max_dim):
        side = "K" if (0, 1, 2) in X else "L"
        groups = [group_at(real(X, max_dim), n) for n in range(max_dim + 1)]
        return [edits.get((side, n), g) for n, g in enumerate(groups)]

    K = weighted_disk(2)
    report = elementary_removal(K, (0, 1, 2))[1]
    assert (report.class_order.kind, report.gains_free_summand, report.quotient_below) == (
        "infinite", False, HomologyGroup(0, (2,))
    )
    monkeypatch.setattr(module, "homology", edited)
    with pytest.raises(InternalInvariantError) as excinfo:
        elementary_removal(K, (0, 1, 2))
    assert str(excinfo.value) == f"removing [0, 1, 2] {message}"
