"""Sequence fingerprints through substring order complexes.

The distinct proper nonempty contiguous substrings of a string, ordered
by the contiguous-substring relation, form a poset. Its order complex
has one vertex per substring and one simplex per chain; vertices are
numbered in lexicographic substring order, with a name table kept on
the side so reports stay readable. The chains are listed in one walk
over the substrings, shortest first, that counts each substring's
chains against MAX_SIMPLICES before it lists them.

Weights come from per-letter positive integers. A substring's weight is
either the lcm or the product of its letter weights, and a simplex's
weight is either the lcm or the product of its vertex weights; the four
combinations are the weighting types 1 through 4 (type 1 is lcm/lcm,
type 4 is product/product, type 2 is lcm then product, type 3 the
reverse). Divisibility of the resulting weighting is verified when the
complex is built, not assumed.

The fingerprint of a sequence is the weighted homology of this complex.

The command line's sequence inputs are read here too: read_fasta takes
the records of a FASTA file, and parse_weights_spec a letter weight
table written as "A=1,C=2,G=3,T=4".
"""

from __future__ import annotations

import enum
from functools import reduce
from math import lcm
from operator import mul
from typing import Iterable, Mapping, NamedTuple

from ._files import read_bytes, utf8
from .complexes import SimplicialComplex, WeightedComplex
from .errors import DocumentError, UnweightedSymbol, ZeroLetterWeight, quoted
from .homology import HomologyGroup, homology

ALPHABETS: dict[str, tuple[str, ...]] = {
    "dna": tuple("ACGT"),
    "rna": tuple("ACGU"),
    "bin": tuple("01"),
    "hex": tuple("0123456789ABCDEF"),
}


def substrings(s: str) -> tuple[str, ...]:
    """The distinct proper nonempty substrings of s, sorted.

    Strings shorter than 2 characters have no proper substrings.

    >>> substrings("CTC")
    ('C', 'CT', 'T', 'TC')
    """
    found = {s[i:j] for i in range(len(s)) for j in range(i + 1, len(s) + 1)}
    found.discard(s)
    return tuple(sorted(found))


class OrderComplex(NamedTuple):
    """Chains of the substring order as a simplicial complex plus the name table."""

    complex: SimplicialComplex
    names: tuple[str, ...]


# The most simplices order_complex lists: the largest measured complex,
# ACGTACGTACG with 172,365, and some room. `wmorse sequence` on it took
# 0.95-1.01 s at 95 MB max RSS (type 1) to 1.20-1.36 s at 105 MB (type 4)
# end to end, three runs each by scripts/bench.py on Python 3.11.7 and 2
# cores, most of it building the complex. ACGTACGTAC has
# 50,950 and ACGTACGTACGT 583,109. A * n has 2 ** (n - 1) - 1, so A * 19
# is refused. Unchecked, A * 30 would try about 5 * 10 ** 8 simplices
# and exhaust memory.
MAX_SIMPLICES = 200_000


def order_complex(strings: Iterable[str], max_dim: int | None = None) -> OrderComplex:
    """All substring chains of the strings, as simplices on lexicographic vertex ids.

    Two distinct strings are comparable when one occurs contiguously in
    the other, and a chain is a set of pairwise comparable strings. With
    max_dim given, only chains of at most max_dim + 1 elements are
    produced; anything needing deeper simplices (long runs of one
    letter, say) stays tractable that way.

    The names are visited shortest first. A chain topped by u is u alone
    or a chain topped by some name inside u, with u added, so u's chains
    come from the chains already listed for the names inside it. Each
    name's chains are counted before they are listed, and once the count
    passes MAX_SIMPLICES a ValueError names it.
    """
    names = tuple(sorted(set(strings)))
    cap = len(names) if max_dim is None else max_dim + 1
    chains: list[tuple[int, ...]] = []
    # the names seen so far, shortest first, that have chains of fewer than cap
    # names, with those chains: the ones a longer name extends
    growing: list[tuple[str, list[tuple[int, ...]]]] = []
    for v in sorted(range(len(names)), key=lambda i: len(names[i])):
        u = names[v]
        # a name as long as u is inside it only if it is u
        below = [c for t, extendable in growing if t in u for c in extendable]
        count = len(chains) + 1 + len(below)
        if count > MAX_SIMPLICES:
            raise ValueError(f"the substring order complex has at least {count:,} simplices, "
                             f"over the budget of {MAX_SIMPLICES:,}")
        topped = [(v,)] + [tuple(sorted(c + (v,))) for c in below]
        chains += topped
        if extendable := [c for c in topped if len(c) < cap]:
            growing.append((u, extendable))
    return OrderComplex(complex=SimplicialComplex(chains), names=names)


class WocType(enum.IntEnum):
    """How string weights and simplex weights are aggregated.

    Types 1 and 2 give a substring the lcm of its letter weights; types
    3 and 4 use the product. Types 1 and 3 give a simplex the lcm of its
    vertex weights; types 2 and 4 use the product.
    """

    TYPE_1 = 1
    TYPE_2 = 2
    TYPE_3 = 3
    TYPE_4 = 4

    @property
    def string_rule(self) -> str:
        return "lcm" if self in (WocType.TYPE_1, WocType.TYPE_2) else "product"

    @property
    def simplex_rule(self) -> str:
        return "lcm" if self in (WocType.TYPE_1, WocType.TYPE_3) else "product"


_RULES = {"lcm": lcm, "product": mul}


def check_letter_weights(letter_weights: Mapping[str, int], symbols: Iterable[str]) -> None:
    for sym in symbols:
        if sym not in letter_weights:
            raise UnweightedSymbol(sym)
        w = letter_weights[sym]
        if isinstance(w, bool) or not isinstance(w, int) or w < 1:
            raise ZeroLetterWeight(sym, w)


def build_woc(
    s: str,
    letter_weights: Mapping[str, int],
    woc_type: WocType | int,
    max_dim: int | None = None,
) -> tuple[WeightedComplex, tuple[str, ...]]:
    """The weighted order complex of the substring poset of s.

    Every symbol occurring in s needs a positive integer weight. The
    returned name table maps vertex ids back to substrings. The weight
    assignment is passed through full validation, so the divisibility
    rule is checked rather than trusted.
    """
    woc_type = WocType(woc_type)
    check_letter_weights(letter_weights, sorted(set(s)))
    oc = order_complex(substrings(s), max_dim=max_dim)
    string_rule, simplex_rule = _RULES[woc_type.string_rule], _RULES[woc_type.simplex_rule]
    vertex = [reduce(string_rule, [letter_weights[ch] for ch in name]) for name in oc.names]
    # Both rules are associative with unit 1, so a chain weighs the rule applied to its
    # prefix's weight (its first face) and its last vertex's; row n weighs of_dim(n).
    K, table, ws = oc.complex, [], [1]  # the empty chain weighs 1
    for n in range(K.dimension + 1):
        prefixes = K.face_indices(n) if n else [(0,)] * len(vertex)
        ws = [simplex_rule(ws[f[0]], vertex[c[-1]]) for c, f in zip(K.of_dim(n), prefixes)]
        table.append(ws)
    return WeightedComplex(K, table), oc.names


def sequence_fingerprint(
    s: str,
    letter_weights: Mapping[str, int],
    woc_type: WocType | int,
    max_dim: int | None = None,
) -> list[HomologyGroup]:
    """Weighted homology of the substring order complex of s.

    With max_dim given, the reported groups stop there but stay exact:
    the complex is built one dimension higher so the top group still
    sees its boundaries from above.
    """
    skeleton = None if max_dim is None else max_dim + 1
    K, _ = build_woc(s, letter_weights, woc_type, max_dim=skeleton)
    return homology(K, max_dim=max_dim)


def parse_weights_spec(spec: str) -> dict[str, int]:
    """Parse "A=1,C=2,G=3,T=4" into a letter weight table."""
    out = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise DocumentError(f"bad weight entry {quoted(part)}, expected SYMBOL=INTEGER")
        sym, _, value = part.partition("=")
        sym = sym.strip()
        if len(sym) != 1:  # sequences are read one character at a time
            raise DocumentError(f"bad weight entry {quoted(part)}, expected a one-character symbol")
        if sym in out:
            raise DocumentError(f"weight for {quoted(sym)} given twice")
        try:
            out[sym] = int(value.strip())
        except ValueError:
            raise DocumentError(f"bad weight for {quoted(sym)}: {quoted(value.strip())}")
    if not out:
        raise DocumentError("empty weight specification")
    return out


def read_fasta(path: str) -> list[tuple[str, str]]:
    """Parse FASTA records as (identifier, sequence) pairs."""
    text = utf8(read_bytes(path), path)
    records = []
    ident = None
    parts: list[str] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            if ident is not None:
                records.append((ident, "".join(parts)))
            ident = line[1:].split()[0] if len(line) > 1 else ""
            parts = []
        else:
            if ident is None:
                raise DocumentError(f"{path}: sequence data before any '>' header")
            parts.append(line)
    if ident is not None:
        records.append((ident, "".join(parts)))
    if not records:
        raise DocumentError(f"{path}: no FASTA records")
    return records
