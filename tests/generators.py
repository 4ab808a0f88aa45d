"""Random weighted complexes for fuzzing and property suites.

Complexes are grown from a handful of random maximal faces; weights are
assigned by increasing dimension, each simplex getting a small multiple
of the lcm of its face weights, which makes the divisibility rule hold
by construction. Multipliers are biased toward 1 so that equal-weight
free pairs (the interesting case for collapse theorems) show up often;
negative multipliers exercise the sign conventions.

prime_weight_complex is the seeded input for many coprime weights: a
random 2-complex whose simplices weigh the lcm of their vertices'
primes.
"""

from __future__ import annotations

from itertools import takewhile
from math import lcm
from random import Random

from wmorse.complexes import SimplicialComplex, WeightedComplex, closure, faces


def random_weighted_complex(
    rng: Random,
    max_vertices: int = 8,
    max_facets: int = 5,
    max_facet_dim: int = 3,
    allow_negative: bool = True,
    zero_star_chance: float = 0.0,
) -> WeightedComplex:
    """One random valid weighted complex.

    zero_star_chance is the probability of zeroing out the weights of
    one random simplex and everything above it (the only shape a zero
    region can take).
    """
    n = rng.randint(1, max_vertices)
    facets = []
    for _ in range(rng.randint(1, max_facets)):
        size = rng.randint(1, min(max_facet_dim + 1, n))
        facets.append(tuple(sorted(rng.sample(range(n), size))))
    complex = SimplicialComplex(closure(facets))

    multipliers = [1, 1, 1, 2, 2, 3]
    weight = {}
    for d in range(complex.dimension + 1):
        for s in complex.of_dim(d):
            if d == 0:
                base = rng.choice([1, 1, 2, 3])
            else:
                base = lcm(*(abs(weight[f]) for f in faces(s)))
            m = rng.choice(multipliers)
            if allow_negative and rng.random() < 0.25:
                m = -m
            weight[s] = base * m

    if zero_star_chance and rng.random() < zero_star_chance:
        sims = sorted(complex.simplices)
        root = sims[rng.randrange(len(sims))]
        weight[root] = 0
        for t in complex.proper_cofaces(root):
            weight[t] = 0

    return WeightedComplex(complex, [[weight[s] for s in complex.of_dim(d)] for d in range(complex.dimension + 1)])


def first_primes(k: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < k:
        if all(candidate % p for p in takewhile(lambda p: p * p <= candidate, primes)):
            primes.append(candidate)
        candidate += 1
    return primes


def prime_weight_complex(seed: int, n: int = 300, t: int = 3000, k: int = 300) -> WeightedComplex:
    """A seeded random 2-complex on n vertices, t distinct triangles and their faces.

    Each vertex gets one of the first k primes, drawn with repeats, and
    each simplex the lcm of its vertices' primes. The weights' coprime
    base is the set of primes drawn, and a triangle on three different
    primes has edges of pairwise incomparable weights.
    """
    rng = Random(seed)
    triangles: set[tuple[int, ...]] = set()
    while len(triangles) < t:
        triangles.add(tuple(sorted(rng.sample(range(n), 3))))
    # drawn after the triangles, so one seed gives one complex at every k
    primes = first_primes(k)
    prime = [rng.choice(primes) for _ in range(n)]
    complex = SimplicialComplex(closure(triangles) | {(v,) for v in range(n)})
    return WeightedComplex(complex, [[lcm(*(prime[v] for v in s)) for s in complex.of_dim(d)]
                                     for d in range(complex.dimension + 1)])
