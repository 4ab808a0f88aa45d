"""Seeded input generation for the wmorse benchmark.

Nothing here imports wmorse: the benchmark's inputs, and the facts its
output checks rely on, come from this file alone, so a change to the
program cannot change what it is fed or what it is held to.

Three kinds of input are made:

* DNA sequences and their weighted substring order complexes (the same
  construction the paper's fingerprints use: one vertex per distinct
  proper substring, one simplex per chain, lcm or product weights);
* constant-weight complexes (full simplices and closures of random
  facets);
* discrete Morse documents built up from the empty complex, with the
  window and cell arguments that make every certify call succeed, and
  step lists of equal-weight free pairs for ``collapse --steps``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod
from random import Random

ALPHABET = "ACGT"
LETTER_WEIGHTS = {"A": 1, "C": 2, "G": 3, "T": 4}
WEIGHTS_SPEC = "A=1,C=2,G=3,T=4"

Simplex = tuple[int, ...]


def faces(s: Simplex) -> list[Simplex]:
    """Codimension-1 faces; a vertex has none."""
    if len(s) == 1:
        return []
    return [s[:i] + s[i + 1:] for i in range(len(s))]


def closure(generators) -> set[Simplex]:
    out: set[Simplex] = set()
    stack = [tuple(sorted(g)) for g in generators]
    while stack:
        s = stack.pop()
        if s not in out:
            out.add(s)
            stack.extend(faces(s))
    return out


def canonical_order(simplices) -> list[Simplex]:
    """Dimension first, then lexicographic: the order every report uses."""
    return sorted(simplices, key=lambda s: (len(s), s))


# --- sizes ---------------------------------------------------------------------

def simplices_per_dim(simplices) -> list[int]:
    counts: list[int] = []
    for s in simplices:
        while len(counts) < len(s):
            counts.append(0)
        counts[len(s) - 1] += 1
    return counts


def boundary_nonzeros(counts: list[int]) -> int:
    """Nonzero entries of all boundary matrices when no weight is zero.

    Every face of a nonzero-weight simplex is in the chain basis with a
    nonzero coefficient, so an n-simplex contributes n + 1 entries.
    """
    return sum((n + 1) * c for n, c in enumerate(counts) if n >= 1)


def euler_characteristic(counts: list[int]) -> int:
    return sum((-1) ** n * c for n, c in enumerate(counts))


# --- sequences and substring order complexes ------------------------------------

def random_sequence(rng: Random, length: int) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(length))


def substrings(s: str) -> list[str]:
    """Distinct proper nonempty substrings, sorted lexicographically."""
    found = {s[i:j] for i in range(len(s)) for j in range(i + 1, len(s) + 1)}
    found.discard(s)
    return sorted(found)


def order_complex(names: list[str]) -> list[Simplex]:
    """Every chain of the substring poset, as increasing vertex tuples."""
    n = len(names)
    comparable = [
        [i != j and (names[i] in names[j] or names[j] in names[i]) for j in range(n)]
        for i in range(n)
    ]
    chains: list[Simplex] = []

    def grow(chain: Simplex, candidates: list[int]) -> None:
        for idx, v in enumerate(candidates):
            ext = chain + (v,)
            chains.append(ext)
            rest = [u for u in candidates[idx + 1:] if comparable[v][u]]
            if rest:
                grow(ext, rest)

    grow((), list(range(n)))
    return chains


def _aggregate(rule: str, values) -> int:
    values = list(values)
    return lcm(*values) if rule == "lcm" else prod(values)


def woc_weights(names: list[str], chains: list[Simplex], woc_type: int) -> dict[Simplex, int]:
    """Weights of the four weighting types: (string rule, simplex rule).

    Types 1 and 2 weigh a substring by the lcm of its letters, 3 and 4 by
    the product; types 1 and 3 weigh a chain by the lcm of its vertices,
    2 and 4 by the product.
    """
    string_rule = "lcm" if woc_type in (1, 2) else "product"
    simplex_rule = "lcm" if woc_type in (1, 3) else "product"
    string_weight = [_aggregate(string_rule, (LETTER_WEIGHTS[ch] for ch in name)) for name in names]
    return {c: _aggregate(simplex_rule, (string_weight[v] for v in c)) for c in chains}


def sequence_counts(s: str) -> list[int]:
    return simplices_per_dim(order_complex(substrings(s)))


def sequence_in_band(rng: Random, length: int, min_simplices: int) -> str:
    """A random sequence whose order complex has at least min_simplices.

    The band keeps the cost of one stratum's calls close together, so a
    run's percentiles do not depend on which members the seed drew.
    """
    while True:
        s = random_sequence(rng, length)
        if sum(sequence_counts(s)) >= min_simplices:
            return s


# --- complexes and documents ---------------------------------------------------

@dataclass
class Complex:
    """A weighted complex as the benchmark knows it, independent of wmorse."""

    weight: dict[Simplex, int]
    names: dict[int, str] | None = None
    _cofacets: dict[Simplex, list[Simplex]] | None = field(default=None, repr=False)

    @property
    def counts(self) -> list[int]:
        return simplices_per_dim(self.weight)

    def size(self) -> dict:
        counts = self.counts
        return {
            "simplices": sum(counts),
            "simplices_per_dim": counts,
            "boundary_nonzeros": boundary_nonzeros(counts),
        }

    def cofacets(self, s: Simplex) -> list[Simplex]:
        if self._cofacets is None:
            table: dict[Simplex, list[Simplex]] = {t: [] for t in self.weight}
            for t in self.weight:
                for f in faces(t):
                    table[f].append(t)
            self._cofacets = table
        return self._cofacets[s]

    def document(self) -> dict:
        doc = {
            "simplices": [
                {"vertices": list(s), "weight": self.weight[s]}
                for s in canonical_order(self.weight)
            ]
        }
        if self.names:
            doc["vertex_names"] = {str(i): self.names[i] for i in sorted(self.names)}
        return doc


def woc_complex(s: str, woc_type: int) -> Complex:
    names = substrings(s)
    chains = order_complex(names)
    return Complex(woc_weights(names, chains, woc_type), dict(enumerate(names)))


def full_simplex(rng: Random, dim: int, weight: int) -> Complex:
    """Every face of one dim-simplex on randomly drawn vertex ids."""
    vertices = sorted(rng.sample(range(4 * (dim + 1)), dim + 1))
    return Complex({s: weight for s in closure([vertices])})


def random_constant_complex(rng: Random, vertices: int, facets: int, facet_dim: int, weight: int) -> Complex:
    """Closure of random facets at one weight; cycles give critical cells above dimension 0."""
    generators = [rng.sample(range(vertices), facet_dim + 1) for _ in range(facets)]
    return Complex({s: weight for s in closure(generators)})


def fasta_text(records: list[tuple[str, str]]) -> str:
    return "".join(f">{ident}\n{seq}\n" for ident, seq in records)


# --- discrete Morse functions ------------------------------------------------------

def morse_value(k: int) -> Fraction:
    """Strictly increasing step values with non-integer exact forms."""
    return Fraction(4 * k + (2 if k % 2 == 0 else 1), 4)


def morse_value_text(k: int) -> str:
    """Step k's value as written in the document: a decimal or a p/q string."""
    v = morse_value(k)
    return f"{k}.5" if k % 2 == 0 else f"{v.numerator}/{v.denominator}"


@dataclass
class MorseBuild:
    """A discrete Morse function built cell by cell from the empty complex.

    steps[k] is either ("pair", sigma, tau), both cells at morse_value(k),
    or ("critical", cell), the cell alone at that value. Every face of a
    cell is added at a lower step, so the level complex at step k's value
    holds exactly the cells of steps 0..k.
    """

    complex: Complex
    steps: list[tuple]
    step_of: dict[Simplex, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.step_of = {cell: k for k, step in enumerate(self.steps) for cell in step[1:]}

    def value(self, cell: Simplex) -> Fraction:
        return morse_value(self.step_of[cell])

    def document(self) -> dict:
        return {
            "values": [
                {"vertices": list(s), "value": morse_value_text(self.step_of[s])}
                for s in canonical_order(self.complex.weight)
            ]
        }

    def critical_steps(self) -> list[int]:
        return [k for k, step in enumerate(self.steps) if step[0] == "critical"]

    def cells_through(self, k: int) -> int:
        """Number of cells in the level complex at step k's value."""
        return sum(len(step) - 1 for step in self.steps[: k + 1])


def build_morse(K: Complex) -> MorseBuild:
    """Grow K from nothing: an equal-weight expansion pair whenever one is
    addable, otherwise the smallest addable cell as a critical cell.

    A pair (sigma, tau) is addable when every face of sigma is present
    and every face of tau except sigma is present. The smallest pair by
    (dim tau, tau, sigma) and the smallest cell by (dim, lex) are taken,
    so the build is deterministic.
    """
    weight = K.weight
    missing = {s: len(faces(s)) for s in weight}
    addable = {s for s, m in missing.items() if m == 0}
    present: set[Simplex] = set()
    steps: list[tuple] = []

    def add(cell: Simplex) -> None:
        present.add(cell)
        addable.discard(cell)
        for t in K.cofacets(cell):
            missing[t] -= 1
            if missing[t] == 0:
                addable.add(t)

    while len(present) < len(weight):
        best = None
        for sigma in addable:
            for tau in K.cofacets(sigma):
                if missing[tau] == 1 and weight[tau] == weight[sigma]:
                    key = (len(tau), tau, sigma)
                    if best is None or key < best:
                        best = key
        if best is not None:
            _, tau, sigma = best
            add(sigma)
            add(tau)
            steps.append(("pair", sigma, tau))
        else:
            cell = min(addable, key=lambda s: (len(s), s))
            add(cell)
            steps.append(("critical", cell))
    build = MorseBuild(K, steps)
    check_morse_conditions(K, build)
    return build


def check_morse_conditions(K: Complex, build: MorseBuild) -> None:
    """Both discrete Morse conditions, checked on every cell.

    At most one coface one dimension up with value not above the cell's,
    at most one face with value not below it, and never both at once.
    """
    f = build.value
    for s in K.weight:
        up = [t for t in K.cofacets(s) if f(t) <= f(s)]
        down = [g for g in faces(s) if f(g) >= f(s)]
        if len(up) > 1 or len(down) > 1 or (up and down):
            raise RuntimeError(f"generated Morse function fails at {s}: up={up} down={down}")


def free_pair_steps(K: Complex, rng: Random, limit: int) -> list[tuple[Simplex, Simplex]]:
    """Up to limit elementary collapses of equal-weight free pairs.

    sigma is free when exactly one cofacet tau of it is left: a larger
    coface would contain two cofacets of sigma. Each step picks one such
    pair at random.
    """
    present = set(K.weight)
    steps: list[tuple[Simplex, Simplex]] = []
    while len(steps) < limit:
        candidates = []
        for sigma in canonical_order(present):
            up = [t for t in K.cofacets(sigma) if t in present]
            if len(up) != 1:
                continue
            if K.weight[up[0]] == K.weight[sigma]:
                candidates.append((sigma, up[0]))
        if not candidates:
            break
        sigma, tau = candidates[rng.randrange(len(candidates))]
        present.discard(sigma)
        present.discard(tau)
        steps.append((sigma, tau))
    return steps
