"""The benchmark's three workloads: pools of inputs, schedules and checks.

Each workload draws its calls from fixed pools, one pool per stratum.
Pool member i of a stratum is generated from the seed string
"<workload>/<stratum>/<i>", so it is the same input on every commit and
its expected output can be recorded once (expected.json). The run's
--seed only decides which members are drawn and in what order. A cycle
draws one member for every slot in the workload's cycle list; a run
repeats cycles until its time is up, so every run sees the same mix.

Every call gets two checks: an independent one computed here from what
the generator knows (Euler characteristics, collapse replays, Morse
windows), and byte identity with the recorded output.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from random import Random
from typing import Callable

import gen


@dataclass
class CallSpec:
    """One wmorse invocation; args name item files by their bare names."""

    name: str
    args: list[str]
    check: Callable[[str], str | None]


@dataclass
class Item:
    """One pool member: its files, its calls and its input sizes."""

    key: str
    files: dict[str, str]
    calls: list[CallSpec]
    simplices: int
    sizes: list[dict]


@dataclass
class Call:
    """A call ready to run: full argv tail plus what it is checked against."""

    key: str
    argv: list[str]
    simplices: int
    check: Callable[[str], str | None]


def _fmt(s) -> str:
    return "[" + ",".join(str(v) for v in s) + "]"


def _verdict(w_sigma: int, w_tau: int) -> str:
    """The collapse verdict re-derived from the pair's document weights."""
    if w_sigma == w_tau != 0:
        return "same-weight"
    if w_tau == -w_sigma and w_sigma != 0:
        return "associate"
    if w_sigma == 0 and w_tau == 0:
        return "zero-pair"
    return "not-guaranteed"


def _parse_group(text: str) -> tuple[int, list[int]]:
    """Free rank and torsion from a group printed as 'Z^2 (+) Z/2' or '0'."""
    free, torsion = 0, []
    if text != "0":
        for part in text.split(" (+) "):
            if part.startswith("Z^"):
                free = int(part[2:])
            elif part.startswith("Z/"):
                torsion.append(int(part[2:]))
            else:
                raise ValueError(part)
    return free, torsion


def _homology_problem(groups: list[tuple[int, list[int]]], counts: list[int]) -> str | None:
    """Euler characteristic and torsion-chain checks on one homology list."""
    if len(groups) != len(counts):
        return f"{len(groups)} groups for a complex of dimension {len(counts) - 1}"
    chi = sum((-1) ** n * free for n, (free, _) in enumerate(groups))
    if chi != gen.euler_characteristic(counts):
        return f"free ranks give Euler characteristic {chi}, simplices give {gen.euler_characteristic(counts)}"
    for _, torsion in groups:
        if any(d <= 1 for d in torsion) or any(b % a for a, b in zip(torsion, torsion[1:])):
            return f"torsion {torsion} is not a divisibility chain of factors > 1"
    return None


def _expect_lines(got: list[str], want: list[str], where: str) -> str | None:
    if got[: len(want)] != want:
        for g, w in zip(got, want):
            if g != w:
                return f"{where}: got {g!r}, want {w!r}"
        return f"{where}: output ended early"
    return None


# --- fingerprint ----------------------------------------------------------------

def _fingerprint_check(records: list[tuple[str, str]], counts: dict[str, list[int]]):
    def check(stdout: str) -> str | None:
        payload = json.loads(stdout)
        got = [(r["id"], r["sequence"]) for r in payload["records"]]
        if got != records:
            return f"records {got} do not match the file"
        for r in payload["records"]:
            groups = [(g["free_rank"], g["torsion"]) for g in r["homology"]]
            if [g["dim"] for g in r["homology"]] != list(range(len(groups))):
                return f"{r['id']}: dimensions out of order"
            problem = _homology_problem(groups, counts[r["sequence"]])
            if problem:
                return f"{r['id']}: {problem}"
        return None

    return check


def _fingerprint_item(key: str, records: list[tuple[str, str]], woc_type: int) -> Item:
    counts = {seq: gen.sequence_counts(seq) for _, seq in records}
    sizes = []
    for ident, seq in records:
        c = counts[seq]
        sizes.append({"record": ident, "sequence": seq, "woc_type": woc_type,
                      "simplices_per_dim": c, "boundary_nonzeros": gen.boundary_nonzeros(c)})
    args = ["sequence", "{reads.fa}", "--weights", gen.WEIGHTS_SPEC,
            "--woc-type", str(woc_type), "--json"]
    return Item(
        key=key,
        files={"reads.fa": gen.fasta_text(records)},
        calls=[CallSpec("sequence", args, _fingerprint_check(records, counts))],
        simplices=sum(sum(counts[seq]) for _, seq in records),
        sizes=sizes,
    )


def fingerprint_single(key: str, rng: Random, index: int, length: int, min_simplices: int,
                       types: tuple[int, ...] = (1, 2, 3, 4)) -> Item:
    """One record; the woc type cycles through types with the pool index."""
    seq = gen.sequence_in_band(rng, length, min_simplices)
    return _fingerprint_item(key, [("r1", seq)], types[index % len(types)])


def fingerprint_multi(key: str, rng: Random, index: int, long_records: int) -> Item:
    """long_records length-6 records and one length-5 record, one of them repeated."""
    seqs = [gen.sequence_in_band(rng, 6, 350) for _ in range(long_records)]
    seqs.append(gen.sequence_in_band(rng, 5, 95))
    seqs.insert(rng.randrange(len(seqs) + 1), rng.choice(seqs))
    records = [(f"r{i + 1}", s) for i, s in enumerate(seqs)]
    return _fingerprint_item(key, records, index % 4 + 1)


# --- collapse ---------------------------------------------------------------------

def _collapse_check(K: gen.Complex):
    def check(stdout: str) -> str | None:
        payload = json.loads(stdout)
        present = set(K.weight)
        guaranteed = True
        for i, st in enumerate(payload["steps"]):
            sigma, tau = tuple(st["sigma"]), tuple(st["tau"])
            if sigma not in present or tau not in present:
                return f"step {i + 1}: pair not in the current complex"
            if len(tau) != len(sigma) + 1 or not set(sigma) < set(tau):
                return f"step {i + 1}: sigma is not a facet of tau"
            if [t for t in K.cofacets(sigma) if t in present] != [tau]:
                return f"step {i + 1}: sigma is not a free face with coface tau"
            ws, wt = K.weight[sigma], K.weight[tau]
            verdict = _verdict(ws, wt)
            if (st["verdict"], st["w_sigma"], st["w_tau"]) != (verdict, ws, wt):
                return f"step {i + 1}: verdict {st['verdict']} for weights {ws}, {wt}"
            guaranteed = guaranteed and verdict in ("same-weight", "associate")
            present -= {sigma, tau}
        if payload["remaining_simplices"] != len(K.weight) - 2 * len(payload["steps"]):
            return "remaining simplices is not N - 2 * steps"
        if payload["guaranteed"] != guaranteed:
            return "overall guarantee does not match the verdicts"
        for s in present:
            if len([t for t in K.cofacets(s) if t in present]) == 1:
                return f"greedy collapse stopped with free face {_fmt(s)} left"
        return None

    return check


def _collapse_item(key: str, K: gen.Complex, label: str) -> Item:
    size = dict(K.size(), input=label)
    return Item(
        key=key,
        files={"complex.json": json.dumps(K.document(), indent=2, sort_keys=True) + "\n"},
        calls=[CallSpec("greedy", ["collapse", "{complex.json}", "--auto-greedy", "--json"],
                        _collapse_check(K))],
        simplices=size["simplices"],
        sizes=[size],
    )


def collapse_simplex(key: str, rng: Random, index: int, dim: int) -> Item:
    """A constant-weight full simplex on random vertex ids."""
    weight = rng.choice([1, 2, 3, 6])
    return _collapse_item(key, gen.full_simplex(rng, dim, weight), f"simplex dim {dim} weight {weight}")


def collapse_woc(key: str, rng: Random, index: int, length: int, min_simplices: int) -> Item:
    """A substring complex under type 1 or 2, alternating with the pool index."""
    woc_type = index % 2 + 1
    seq = gen.sequence_in_band(rng, length, min_simplices)
    return _collapse_item(key, gen.woc_complex(seq, woc_type), f"{seq} type {woc_type}")


# --- certify ----------------------------------------------------------------------

def _classify_check(M: gen.MorseBuild):
    critical = [M.steps[k][1] for k in M.critical_steps()]
    want = [f"morse function valid on {len(M.complex.weight)} simplices",
            f"critical cells: {len(critical)}"]
    want += [f"critical: {_fmt(s)} f={M.value(s)}" for s in critical]
    want += ["non-w-simple cells: 0"]

    def check(stdout: str) -> str | None:
        got = stdout.splitlines()
        return _expect_lines(got, want, "classify") or (
            None if len(got) == len(want) else "classify: extra lines")

    return check


def _step_lines(K: gen.Complex, pairs) -> list[str]:
    return [
        f"step {i + 1}: sigma={_fmt(s)} tau={_fmt(t)} verdict=same-weight "
        f"w(sigma)={K.weight[s]} w(tau)={K.weight[t]}"
        for i, (s, t) in enumerate(pairs)
    ]


def _agreeing(lines: list[str], pattern: str) -> str | None:
    """Every homology comparison line must agree, and say so."""
    for line in lines:
        m = re.fullmatch(pattern, line)
        if not m or m.group(2) != m.group(3) or m.group(4) != "yes":
            return f"homology comparison failed: {line!r}"
    return None


def _morse_collapse_check(M: gen.MorseBuild, i: int, j: int, a: str, b: str):
    K = M.complex
    pairs = [M.steps[k][1:] for k in range(j, i - 1, -1)]
    want = [f"window: ({Fraction(a)}, {Fraction(b)}]"] + _step_lines(K, pairs) + [
        f"steps: {len(pairs)}",
        f"start: {M.cells_through(j)} simplices",
        f"end: {M.cells_through(i - 1)} simplices",
    ]

    def check(stdout: str) -> str | None:
        got = stdout.splitlines()
        if got[-1:] != ["agree: yes"]:
            return "morse collapse: homology does not agree"
        return _expect_lines(got, want, "morse collapse") or _agreeing(
            got[len(want):-1], r"H(\d+): start=(.*) end=(.*) agree=(\w+)")

    return check


def _window_check(M: gen.MorseBuild, p: int, c: int, q: int, a: str, b: str):
    alpha = M.steps[c][1]
    n = len(alpha) - 1

    def pairs_between(lo: int, hi: int) -> int:
        return sum(1 for k in range(lo, hi + 1) if M.steps[k][0] == "pair")

    want = [
        f"cell: {_fmt(alpha)} f={M.value(alpha)}",
        f"window: ({Fraction(a)}, {Fraction(b)}]",
        f"a-prime: {gen.morse_value(c - 1)}",
        "K(a') == K(f(alpha)) minus alpha: yes",
        "alpha maximal in K(f(alpha)): yes",
        f"collapse above: {pairs_between(c + 1, q)} steps, all same-weight",
        f"collapse below: {pairs_between(p + 1, c - 1)} steps, all same-weight",
    ]

    def check(stdout: str) -> str | None:
        got = stdout.splitlines()
        problem = _expect_lines(got, want, "window")
        if problem:
            return problem
        if len(got) <= len(want) or not got[len(want)].startswith(f"removal: dim={n} class-order="):
            return "window: missing removal report"
        if got[-1] != f"unchanged: H_k for k not in {{{n - 1}, {n}}}":
            return "window: missing unchanged-dimensions line"
        return None

    return check


def _steps_verify_check(K: gen.Complex, steps):
    want = _step_lines(K, steps) + [
        f"steps: {len(steps)}",
        f"remaining: {len(K.weight) - 2 * len(steps)} simplices",
        "guaranteed: yes",
    ]

    def check(stdout: str) -> str | None:
        got = stdout.splitlines()
        if got[-1:] != ["verify-agree: yes"]:
            return "collapse --verify: homology does not agree"
        return _expect_lines(got, want, "collapse --steps") or _agreeing(
            got[len(want):-1], r"verify H(\d+): before=(.*) after=(.*) agree=(\w+)")

    return check


def _homology_check(K: gen.Complex):
    counts = K.counts

    def check(stdout: str) -> str | None:
        groups = []
        for n, line in enumerate(stdout.splitlines()):
            prefix = f"H{n} = "
            if not line.startswith(prefix):
                return f"homology: unexpected line {line!r}"
            groups.append(_parse_group(line[len(prefix):]))
        return _homology_problem(groups, counts)

    return check


def _certify_item(key: str, rng: Random, K: gen.Complex, label: str) -> Item | None:
    """Five certify calls on one complex, or None when it has no usable window.

    A usable complex has a run of at least two pair steps (for
    --collapse) and a critical cell of dimension at least 1 (for
    --window), which every generated family has in practice.
    """
    M = gen.build_morse(K)
    critical = M.critical_steps()
    runs = [(lo + 1, hi - 1) for lo, hi in zip(critical, critical[1:] + [len(M.steps)]) if hi - lo > 2]
    cells = [k for k in critical if len(M.steps[k][1]) > 1]
    if not runs or not cells:
        return None
    i, j = runs[rng.randrange(len(runs))]
    c = cells[rng.randrange(len(cells))]
    p = max(k for k in critical if k < c)
    q = min([k for k in critical if k > c] + [len(M.steps)]) - 1
    steps = gen.free_pair_steps(K, rng, len(K.weight) // 6)

    text = gen.morse_value_text
    a1, b1, a2, b2 = text(i - 1), text(j), text(p), text(q)
    alpha = ",".join(str(v) for v in M.steps[c][1])
    files = {
        "complex.json": json.dumps(K.document(), indent=2, sort_keys=True) + "\n",
        "morse.json": json.dumps(M.document(), indent=2, sort_keys=True) + "\n",
        "steps.json": json.dumps([list(s) for s, _ in steps]) + "\n",
    }
    docs = ["{complex.json}", "{morse.json}"]
    calls = [
        CallSpec("classify", ["morse", *docs, "--classify"], _classify_check(M)),
        CallSpec("collapse-window", ["morse", *docs, "--collapse", a1, b1],
                 _morse_collapse_check(M, i, j, a1, b1)),
        CallSpec("critical-window", ["morse", *docs, "--window", a2, b2, "--cell", alpha],
                 _window_check(M, p, c, q, a2, b2)),
        CallSpec("steps-verify", ["collapse", "{complex.json}", "--steps", "{steps.json}", "--verify"],
                 _steps_verify_check(K, steps)),
        CallSpec("homology", ["homology", "{complex.json}"], _homology_check(K)),
    ]
    size = dict(K.size(), input=label, critical_cells=len(critical), collapse_steps=len(steps))
    return Item(key=key, files=files, calls=calls, simplices=size["simplices"], sizes=[size])


def certify_woc(key: str, rng: Random, index: int, length: int, min_simplices: int) -> Item:
    """A substring complex; the woc type cycles with the pool index."""
    woc_type = index % 4 + 1
    while True:
        seq = gen.sequence_in_band(rng, length, min_simplices)
        item = _certify_item(key, rng, gen.woc_complex(seq, woc_type), f"{seq} type {woc_type}")
        if item is not None:
            return item


def certify_constant(key: str, rng: Random, index: int) -> Item:
    """Closure of random tetrahedra at one weight."""
    while True:
        weight = rng.choice([1, 2, 5])
        K = gen.random_constant_complex(rng, 16, rng.randint(22, 28), 3, weight)
        item = _certify_item(key, rng, K, f"random facets weight {weight}")
        if item is not None:
            return item


# --- workloads and schedules --------------------------------------------------------

@dataclass(frozen=True)
class Stratum:
    """A pool of similar items; member i is in class i % classes (its woc type)."""

    size: int
    make: Callable[[str, Random, int], Item]
    classes: int = 1


@dataclass
class Workload:
    """Strata and the slots of one cycle."""

    name: str
    strata: dict[str, Stratum]
    cycle: list[str]

    def item(self, stratum: str, index: int) -> Item:
        key = f"{self.name}/{stratum}/{index}"
        return self.strata[stratum].make(key, Random(key), index)

    def pool(self):
        for name, stratum in self.strata.items():
            for index in range(stratum.size):
                yield self.item(name, index)

    def cycles(self, seed: int):
        """Endless seeded cycles; each is a shuffled list of pool items.

        Each stratum deals its pool like a deck, reshuffled when empty.
        The deck takes its classes in turn, so any run of draws is
        balanced across woc types, and a run that draws a pool's size
        from a stratum has used every member once whatever the seed.
        """
        rng = Random(f"{self.name}:{seed}")
        decks: dict[str, list[int]] = {name: [] for name in self.strata}
        cache: dict[tuple[str, int], Item] = {}
        while True:
            picks = []
            for name in self.cycle:
                deck = decks[name]
                if not deck:
                    deck.extend(self._deal(self.strata[name], rng))
                picks.append((name, deck.pop()))
            rng.shuffle(picks)
            out = []
            for pick in picks:
                if pick not in cache:
                    cache[pick] = self.item(*pick)
                out.append(cache[pick])
            yield out

    @staticmethod
    def _deal(stratum: Stratum, rng: Random) -> list[int]:
        """One shuffled deck, read from the end, taking the classes in turn."""
        groups = [list(range(c, stratum.size, stratum.classes)) for c in range(stratum.classes)]
        for group in groups:
            rng.shuffle(group)
        rng.shuffle(groups)
        return [group[k] for k in range(len(groups[0])) for group in groups if k < len(group)][::-1]


def materialize(item: Item, workdir: str) -> list[Call]:
    """Write an item's files (once) and return its calls with real paths."""
    base = os.path.join(workdir, item.key.replace("/", "_"))
    if not os.path.isdir(base):
        os.makedirs(base)
        for name, text in item.files.items():
            with open(os.path.join(base, name), "w") as fh:
                fh.write(text)
    calls = []
    for spec in item.calls:
        argv = [os.path.join(base, a[1:-1]) if a.startswith("{") else a for a in spec.args]
        calls.append(Call(f"{item.key}/{spec.name}", argv, item.simplices, spec.check))
    return calls


EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def load_expected() -> dict[str, str]:
    """Recorded stdout digests by call key (see record.py)."""
    with open(EXPECTED) as fh:
        return json.load(fh)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fingerprint",
            {
                "long": Stratum(6, partial(fingerprint_single, length=7, min_simplices=1150,
                                           types=(1, 2, 3)), classes=3),
                "batch": Stratum(8, partial(fingerprint_multi, long_records=6), classes=4),
                "multi": Stratum(32, partial(fingerprint_multi, long_records=3), classes=4),
                "short": Stratum(16, partial(fingerprint_single, length=6, min_simplices=350),
                                 classes=4),
            },
            ["long", "batch", "multi", "multi", "multi", "multi", "short", "short"],
        ),
        Workload(
            "collapse",
            {
                "simplex5": Stratum(4, partial(collapse_simplex, dim=5)),
                "simplex6": Stratum(4, partial(collapse_simplex, dim=6)),
                "simplex7": Stratum(8, partial(collapse_simplex, dim=7)),
                "woc5": Stratum(8, partial(collapse_woc, length=5, min_simplices=95), classes=2),
                "woc6": Stratum(16, partial(collapse_woc, length=6, min_simplices=365), classes=2),
            },
            ["simplex5", "simplex6", "simplex7", "simplex7", "woc5", "woc6", "woc6"],
        ),
        Workload(
            "certify",
            {
                "woc6": Stratum(16, partial(certify_woc, length=6, min_simplices=300), classes=4),
                "constant": Stratum(8, certify_constant),
            },
            ["woc6", "woc6", "woc6", "constant"],
        ),
    )
}
