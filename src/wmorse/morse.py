"""Discrete Morse functions on weighted complexes.

A discrete Morse function assigns a rational value to every simplex so
that each cell has at most one "wrong" neighbour in each direction: at
most one coface one dimension up with a value not above its own, and at
most one face one dimension down with a value not below its own. No
cell can have both kinds of wrong neighbour at once; a cell with
neither is critical. Injectivity is not assumed anywhere.

Values are exact rationals (fractions.Fraction), and text values are
parsed once, by documents.parse_rational (also importable from here),
for library calls and the command line alike; no binary floats enter
any comparison.

The level complex K(c) collects every simplex that either has value at
most c or sits under a coface with value at most c. Sliding c across a
window free of critical values collapses K(b) down to K(a) one free
pair at a time; when every cell crossed is w-simple, each removed pair
has equal weights and weighted homology survives untouched. A window
that contains exactly one critical cell is handled by the certificate
in critical_window: collapse from above onto the level of the critical
cell, remove that cell, and collapse again below.

All of this comes from one scan of K's face table, top-down in
(dimension, lex) order: each cell reads its faces there and pushes down
to them its entry value and, to those it is a wrong cofacet of, itself.
From every cell's wrong neighbours the scan derives the Morse
violations, the critical cells, the pairing and the w-simple cells. It
also gives each cell its entry value, the least value on the
cell and its cofaces, and the one level rule is
K(c) = {s : entry(s) <= c}. validate_morse keeps the scan of the
complex it checked with the function it returns, so classify,
level_subcomplex and the collapses on that complex reuse it. A collapse
walks the cells of K(b) outside K(a) grouped by entry value, from the
top, on K(b)'s own face table.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from .complexes import Simplex, WeightedComplex, _check_vertex_ids, _record_table
from .documents import parse_rational
from .errors import (
    ExtraCritical,
    HypothesisFailed,
    InternalInvariantError,
    MorseViolation,
    NoValidAPrime,
    NotCritical,
    WSimpleFailed,
)

if TYPE_CHECKING:
    from .collapse import CollapseStep, PreservationVerdict
    from .removal import RemovalReport


def to_fraction(value) -> Fraction:
    """Exact conversion of Morse values; binary floats are refused."""
    if isinstance(value, bool):
        raise ValueError("Morse values must be rational numbers, got a bool")
    if isinstance(value, float):
        raise ValueError(f"refusing float {value!r}; pass a string or a Fraction")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, Rational)):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ValueError(f"cannot interpret {value!r} as a rational")


class MorseFunction:
    """A validated discrete Morse function on a fixed complex.

    Use validate_morse to construct one: it converts the values to
    Fractions and keeps the scan of the complex it checked them on.
    Instances map simplices to Fractions and may carry values for more
    simplices than that complex; restriction to a subcomplex stays
    valid because neighbour counts only shrink.
    """

    __slots__ = ("_values", "_scan")

    def __init__(self, values: Mapping[Simplex, Fraction]):
        self._values = dict(values)
        self._scan: _Scan | None = None

    def __call__(self, sigma) -> Fraction:
        return self._values[tuple(sigma)]

    def __contains__(self, sigma) -> bool:
        return tuple(sigma) in self._values

    def items(self):
        return sorted(self._values.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def distinct_values(self) -> list[Fraction]:
        return sorted(set(self._values.values()))

    def __repr__(self) -> str:
        return f"MorseFunction({len(self._values)} values)"


class CellClassification(NamedTuple):
    """Critical cells, w-simple cells, and the pairing of the rest.

    pair maps each non-critical cell to its unique wrong neighbour (the
    low coface for cells failing the first condition, the high face for
    cells failing the second). A cell is w-simple when its weight is
    nonzero and every high face carries the same weight it does.
    """

    critical: frozenset[Simplex]
    w_simple: frozenset[Simplex]
    pair: Mapping[Simplex, Simplex]

    def is_critical(self, sigma) -> bool:
        return tuple(sigma) in self.critical

    def is_w_simple(self, sigma) -> bool:
        return tuple(sigma) in self.w_simple


class _Scan(NamedTuple):
    complex: WeightedComplex
    violations: list
    classification: CellClassification
    entry: dict[int, list[Fraction]]  # by dimension, then position


def _scan_of(K: WeightedComplex, f: MorseFunction) -> _Scan:
    """The one pass over K; the pass validate_morse made is reused."""
    if f._scan is not None and f._scan.complex is K:
        return f._scan
    value, clash = f._values, None
    violations, critical, w_simple, pair, entry = [], set(), set(), {}, {}
    # pushed down from the dimension above, by position: the least entry value so far, from each
    # cell's own, and the wrong cofacets in lex order (t is wrong for its face g when f(t) <= f(g))
    values = least = [value[s] for s in K.of_dim(K.dimension)]
    wrong = {}
    for d in reversed(range(K.dimension + 1)):  # cofacets before their faces
        cells, faces, weights = K.of_dim(d), K.face_indices(d), K.weights_of_dim(d)
        below, low_weights = K.of_dim(d - 1), K.weights_of_dim(d - 1)
        low_values = [value[g] for g in below]
        entry[d], low_least, low_wrong = least, low_values[:], {}
        for i, s in enumerate(cells):  # lex order, so each wrong-cofacet list comes out sorted
            fs, e, up = values[i], least[i], wrong.get(i, ())
            down = [g for g in reversed(faces[i]) if low_values[g] >= fs]  # faces in deletion order
            for g in faces[i]:
                if e < low_least[g]:
                    low_least[g] = e
            for g in down:
                low_wrong.setdefault(g, []).append(s)
            if len(up) > 1:
                violations.append((s, 1, tuple(up)))
            if len(down) > 1:
                violations.append((s, 2, tuple(below[g] for g in down)))
            if up and down and (clash is None or len(s) < len(clash)):
                clash = s  # the first in (dim, lex) order
            if up or down:
                pair[s] = up[0] if up else below[down[0]]
            else:
                critical.add(s)
            w = weights[i]
            if w != 0 and all(low_weights[g] == w for g in down):
                w_simple.add(s)
        values, least, wrong = low_values, low_least, low_wrong
    # a cell with wrong neighbours both ways forces a violation at its
    # wrong face or its wrong coface, so f is not Morse on K
    if clash is not None and not violations:
        raise InternalInvariantError(f"{list(clash)} has wrong neighbours both ways")
    violations.sort(key=lambda v: (len(v[0]), v[0], v[1]))
    cls = CellClassification(critical=frozenset(critical), w_simple=frozenset(w_simple), pair=pair)
    return _Scan(K, violations, cls, entry)


def validate_morse(K: WeightedComplex, values: Mapping | Iterable[tuple]) -> MorseFunction:
    """Check the two discrete Morse conditions on every simplex of K.

    values is a mapping or an iterable of (vertices, value) records, as
    validate_complex takes them. This is where records become a
    MorseFunction: each simplex is put in canonical order once, in
    whatever vertex order it comes, and must be named once; the vertex
    ids of every record, also of a cell outside K, are checked in one
    pass as SimplicialComplex checks them; each value is converted once
    by to_fraction. values must cover all of K (extra entries are
    allowed and kept); the error names the first five cells missing.
    All violations are collected before raising, so the error lists
    every offending cell with its witnesses.
    """
    table = _record_table(values.items() if isinstance(values, Mapping) else values)
    _check_vertex_ids(table)  # K's constructor checked only the cells of K
    f = MorseFunction({s: to_fraction(v) for s, v in table.items()})
    missing = [s for s in K if s not in table]
    if missing:
        raise ValueError(f"no Morse value for {', '.join(str(list(s)) for s in missing[:5])}")
    scan = _scan_of(K, f)
    if scan.violations:
        raise MorseViolation(scan.violations)
    f._scan = scan
    return f


def classify(K: WeightedComplex, f: MorseFunction) -> CellClassification:
    """Split the cells of K by the Morse function's local structure.

    On the complex f was validated on this is the validation's own
    scan; any other complex, such as a collapsed level, is scanned anew.
    """
    return _scan_of(K, f).classification


def level_subcomplex(K: WeightedComplex, f: MorseFunction, c) -> WeightedComplex:
    """K(c): the simplices of K whose entry value is at most c."""
    c = to_fraction(c)
    entry = _scan_of(K, f).entry
    return K._select({d: [e <= c for e in values] for d, values in entry.items()})


class MorseCollapse(NamedTuple):
    """Certificate that K(b) collapses to K(a) through free pairs.

    steps and verdicts are aligned; every verdict is same-weight when
    the window's cells are all w-simple, which the construction checks
    before doing anything else.
    """

    a: Fraction
    b: Fraction
    start: WeightedComplex
    end: WeightedComplex
    steps: tuple[CollapseStep, ...]
    verdicts: tuple[PreservationVerdict, ...]

    @property
    def all_same_weight(self) -> bool:
        from .collapse import Verdict

        return all(v.verdict == Verdict.SAME_WEIGHT for v in self.verdicts)


def morse_collapse(K: WeightedComplex, f: MorseFunction, a, b) -> MorseCollapse:
    """Collapse K(b) onto K(a) across a window with no critical values.

    Requires every cell with value in (a, b] to be non-critical and
    w-simple. The cells of K(b) outside K(a) are grouped by entry value
    and the groups processed from the top; each splits into free pairs
    (each paired cell with its wrong neighbour), removed in order of
    decreasing pair dimension and then lexicographically. Every removal is checked to be
    an elementary collapse of the current complex, and every verdict is
    checked to be same-weight.
    """
    a, b = to_fraction(a), to_fraction(b)
    if not a < b:
        raise ValueError(f"need a < b, got {a} and {b}")
    cls = classify(K, f)
    for s in K:
        if a < f(s) <= b:
            if cls.is_critical(s):
                raise HypothesisFailed(s, "critical")
            if not cls.is_w_simple(s):
                raise HypothesisFailed(s, "not-w-simple")
    return _morse_collapse(K, f, a, b, level_subcomplex(K, f, b), level_subcomplex(K, f, a))


def _morse_collapse(K: WeightedComplex, f: MorseFunction, a: Fraction, b: Fraction,
                    start: WeightedComplex, end: WeightedComplex) -> MorseCollapse:
    # start is K(b) and end is K(a); the callers have checked that every
    # cell with value in (a, b] is non-critical and w-simple
    from .collapse import Verdict, _Collapser, check_preservation

    scan = _scan_of(K, f)
    pair, entry = scan.classification.pair, scan.entry
    # start's cells grouped by the level they enter at, walked from the top down to a
    levels: dict[Fraction, set[Simplex]] = {}
    for s in start:
        levels.setdefault(entry[len(s) - 1][K.position(s)], set()).add(s)
    tops = sorted((v for v in levels if v > a), reverse=True)
    state = _Collapser(start)
    remaining = state.size
    steps: list[CollapseStep] = []
    verdicts: list[PreservationVerdict] = []
    for v, lower in zip(tops, tops[1:] + [a]):
        gained = levels[v]
        remaining -= len(gained)
        pairs = []
        for t in gained:
            g = pair[t]
            if len(g) > len(t):
                continue  # the lower half of its pair, as is every cell entering above its value
            if g not in gained:
                raise InternalInvariantError(f"pair partner {list(g)} of {list(t)} enters below {v}")
            pairs.append((g, t))
        if 2 * len(pairs) != len(gained):
            raise InternalInvariantError(f"cells entering at {v} do not split into free pairs")
        pairs.sort(key=lambda p: (-len(p[1]), p[0]))
        for sigma, tau in pairs:
            step = state.collapse(sigma)
            if step.tau != tau:
                raise InternalInvariantError(f"{list(sigma)} collapses into {list(step.tau)}, not {list(tau)}")
            verdict = check_preservation(start, step)
            if verdict.verdict != Verdict.SAME_WEIGHT:
                raise InternalInvariantError(f"collapse of {list(sigma)} is {verdict.verdict.value}")
            steps.append(step)
            verdicts.append(verdict)
        # with the levels above v already checked empty, this is live == K(lower)
        if state.size != remaining or any(map(state.is_live, gained)):
            raise InternalInvariantError(f"collapsing the cells at {v} does not reach K({lower})")
    return MorseCollapse(a=a, b=b, start=start, end=end, steps=tuple(steps), verdicts=tuple(verdicts))


class CriticalWindow(NamedTuple):
    """Certificate for a window containing exactly one critical cell.

    The complex K(f(alpha)) is K(a_prime) plus the single maximal cell
    alpha; above and below, the window collapses freely. removal carries
    the homology relations between the two levels (None when alpha has
    weight zero, where the removal theorems say nothing).
    """

    alpha: Simplex
    a: Fraction
    b: Fraction
    a_prime: Fraction
    top: WeightedComplex            # K(f(alpha))
    below: WeightedComplex          # K(a_prime)
    collapse_above: MorseCollapse   # K(b) onto K(f(alpha))
    collapse_below: MorseCollapse   # K(a_prime) onto K(a)
    removal: RemovalReport | None


def critical_window(K: WeightedComplex, f: MorseFunction, alpha, a, b) -> CriticalWindow:
    """Isolate one critical cell and certify the sandwich around it.

    Preconditions: alpha is critical with value in (a, b], no other
    critical cell has a value in the window, and no other cell shares
    alpha's exact value (otherwise no threshold can split alpha off).
    Every non-critical cell in the window must be w-simple.
    """
    a, b = to_fraction(a), to_fraction(b)
    alpha = tuple(alpha)
    cls = classify(K, f)
    if not cls.is_critical(alpha):  # also when alpha is not in K
        raise NotCritical(alpha)
    fa = f(alpha)
    if not (a < fa <= b):
        raise ValueError(f"f(alpha)={fa} is outside ({a}, {b}]")
    window = [s for s in K if s != alpha and a < f(s) <= b]
    if extra := next(filter(cls.is_critical, window), None):
        raise ExtraCritical(extra)
    if tie := next((s for s in window if f(s) == fa), None):
        raise NoValidAPrime(tie, fa)
    a_prime = max([a] + [f(s) for s in window if f(s) < fa])

    top = level_subcomplex(K, f, fa)
    below = level_subcomplex(K, f, a_prime)
    if below.simplices != top.simplices - {alpha}:
        raise InternalInvariantError(f"K({a_prime}) is not K({fa}) minus {list(alpha)}")
    if not top.is_maximal(alpha):
        raise InternalInvariantError(f"{list(alpha)} is not maximal in K({fa})")

    # no window cell has a value in (a_prime, f(alpha)], so this is (a, a_prime] and (f(alpha), b]
    if unsimple := next((s for s in window if not cls.is_w_simple(s)), None):
        raise WSimpleFailed(unsimple)

    # a degenerate side (f(alpha) = b, or a = a_prime) starts where it ends
    collapse_above = _morse_collapse(K, f, fa, b, level_subcomplex(K, f, b) if fa < b else top, top)
    collapse_below = _morse_collapse(K, f, a, a_prime, below, level_subcomplex(K, f, a) if a < a_prime else below)

    # the set identity above already shows that top minus alpha is below
    from .removal import _removal_report

    report = _removal_report(top, below, alpha) if K.weight(alpha) != 0 else None

    return CriticalWindow(
        alpha=alpha, a=a, b=b, a_prime=a_prime,
        top=top, below=below,
        collapse_above=collapse_above,
        collapse_below=collapse_below,
        removal=report,
    )
