"""Random weighted complexes for fuzzing and property suites.

Complexes are grown from a handful of random maximal faces; weights are
assigned by increasing dimension, each simplex getting a small multiple
of the lcm of its face weights, which makes the divisibility rule hold
by construction. Multipliers are biased toward 1 so that equal-weight
free pairs (the interesting case for collapse theorems) show up often;
negative multipliers exercise the sign conventions.
"""

from __future__ import annotations

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
