"""Print sha256 digests of collapse, removal, Morse, subcomplex and elementary results over seeded inputs.

Run from the repository root, on two checkouts, to show that a refactor
left every result unchanged:

    python scripts/identity_digests.py

Each line names a family of results and the digest of their reprs, in
a fixed order:

  collapse  greedy collapses (result items, steps, verdicts), the same
            steps replayed by collapse_sequence, and the removal report
            of every maximal simplex of nonzero weight, over seeded
            random_weighted_complex inputs with zero stars at 0.3;
  morse     classify, level_subcomplex, morse_collapse and
            critical_window on seeded complexes whose Morse values come
            from conftest.greedy_morse_values, with and without split.
            Also the refusal of random values that are not Morse. A
            refused call is recorded by its error's class and text;
  subcomplex
            every complex derived from a parent's positions, recorded
            by its cells, face table and weights per dimension: the
            restriction to random closed selections, the removal of
            random maximal simplices, the greedy collapse, a replay of
            its first steps and every level complex of the greedy Morse
            function, over seeded random_weighted_complex inputs with
            zero stars at 0.3;
  elementary
            elementary_collapse of every cell of seeded
            random_weighted_complex inputs with zero stars at 0.3, and
            of one vertex they do not hold: the result's cells, face
            table and weights per dimension and the step, or the
            refusal's class and text.

The inputs come from tests/generators.py and tests/conftest.py, so the
digests move only when the library's results or those helpers change.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path
from itertools import product
from random import Random

ROOT = Path(__file__).resolve().parent.parent
# the recorded digests hold for these seeds only, so they are fixed
COLLAPSE_SEEDS = range(1500)
MORSE_SEEDS = range(500)
SUBCOMPLEX_SEEDS = range(500)
ELEMENTARY_SEEDS = range(500)
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import constant_table, greedy_morse_values  # noqa: E402
from generators import random_weighted_complex  # noqa: E402
from wmorse import (  # noqa: E402
    WeightedComplex,
    WmorseError,
    classify,
    collapse_sequence,
    critical_window,
    elementary_collapse,
    elementary_removal,
    greedy_collapse,
    level_subcomplex,
    morse_collapse,
    validate_morse,
)
from wmorse.complexes import closure  # noqa: E402


def collapse_records(seeds):
    for seed in seeds:
        K = random_weighted_complex(Random(seed), zero_star_chance=0.3)
        end, applied = greedy_collapse(K)
        yield seed, end.items(), applied
        yield collapse_sequence(K, [step.sigma for step, _ in applied])[0].items()
        for sigma in K.maximal_simplices():
            if K.weight(sigma) != 0:
                L, report = elementary_removal(K, sigma)
                yield L.items(), report


def attempt(call, *args):
    """(result, None), or (None, the error's class and text) when the call is refused."""
    try:
        return call(*args), None
    except WmorseError as error:
        return None, (type(error).__name__, str(error))


def morse_records(seeds):
    for seed in seeds:
        K = random_weighted_complex(Random(seed), zero_star_chance=0.3)
        # weight 1 throughout makes every paired cell w-simple, so windows span many levels
        for K, split in product((K, WeightedComplex(K, constant_table(K))), (False, True)):
            # random values are seldom Morse: the refusal lists every violation with its witnesses
            rng = Random(seed)
            yield attempt(validate_morse, K, {s: rng.randrange(len(s) + 2) for s in K})[1]
            f = validate_morse(K, greedy_morse_values(K, split)[0])
            cls = classify(K, f)
            yield seed, split, sorted(cls.critical), sorted(cls.w_simple), sorted(cls.pair.items())
            values = f.distinct_values()
            for c in values:
                yield level_subcomplex(K, f, c).items()
            for a, b in [*zip(values, values[1:]), *((a, values[-1]) for a in values[:-2])]:
                result, refused = attempt(morse_collapse, K, f, a, b)
                yield refused or (result.start.items(), result.end.items(), result.steps, result.verdicts)
            for alpha in sorted(cls.critical):
                for a, b in ((values[0] - 1, values[-1]), (f(alpha) - 1, f(alpha))):
                    w, refused = attempt(critical_window, K, f, alpha, a, b)
                    yield refused or (w.a_prime, w.top.items(), w.below.items(), w.removal,
                                      w.collapse_above.steps, w.collapse_below.steps)


def tables(L):
    """The cells, face table and weights of L, dimension by dimension."""
    return [(L.of_dim(n), L.face_indices(n), L.weights_of_dim(n)) for n in range(L.dimension + 1)]


def subcomplex_records(seeds):
    for seed in seeds:
        rng = Random(seed)
        K = random_weighted_complex(rng, zero_star_chance=0.3)
        cells, top = list(K), K.maximal_simplices()
        for _ in range(3):
            yield seed, tables(K.restrict(closure(rng.sample(cells, rng.randint(0, len(cells))))))
        yield tables(K.without(rng.sample(top, rng.randint(0, len(top)))))
        end, applied = greedy_collapse(K)
        yield tables(end)
        yield tables(collapse_sequence(K, [step.sigma for step, _ in applied[:rng.randint(0, len(applied))]])[0])
        f = validate_morse(K, greedy_morse_values(K)[0])
        for c in f.distinct_values():
            yield tables(level_subcomplex(K, f, c))


def elementary_records(seeds):
    for seed in seeds:
        K = random_weighted_complex(Random(seed), zero_star_chance=0.3)
        for sigma in [*K, (max(K.vertices) + 1,)]:
            result, refused = attempt(elementary_collapse, K, sigma)
            yield seed, sigma, refused or (tables(result[0]), result[1])


def digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(repr(record).encode())
        h.update(b"\n")
    return h.hexdigest()


def main() -> None:
    print("collapse", digest(collapse_records(COLLAPSE_SEEDS)))
    print("morse", digest(morse_records(MORSE_SEEDS)))
    print("subcomplex", digest(subcomplex_records(SUBCOMPLEX_SEEDS)))
    print("elementary", digest(elementary_records(ELEMENTARY_SEEDS)))


if __name__ == "__main__":
    main()
