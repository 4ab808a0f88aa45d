"""Time the command line on the ROADMAP Baseline inputs and write a JSON record.

Run from anywhere in a checkout:

    python scripts/bench.py BENCH_<n>.json [--repeats 3]

Each row is one `wmorse` call, run `repeats` times as a fresh subprocess
of this checkout's src/ (the console script's entry point, with
PYTHONDONTWRITEBYTECODE=1 and WMORSE_MAX_DIM unset). A row records the
median wall time, every run's wall time, the largest max RSS of a
child, the exit code and the cells per dimension of its input (null
for the refusals and --version).

Rows: `wmorse --version`; `sequence` on ACGTACGTAC and ACGTACGTACG,
types 1 to 4; `collapse --auto-greedy` on the ACGTACGTACG complex,
types 1 and 3; `collapse --steps` of one free pair on the same two
complexes, where loading the document and restricting to the rest
dominate; `homology` of the ACGTACGTACG type-1 document, where loading
it is about as long as the reduction; `homology` of
tests/generators.prime_weight_complex at seed 1 with k = 16, 64 and
300; and the refusals of 30 `A`s and of a seeded random 300-letter
sequence.

This process imports no part of wmorse. A child starts as a copy of its
parent's memory, so its max RSS is at least the parent's; the complex
documents, the steps files and the cell counts come from one preparing
child instead, and the record gives this process's own max RSS as that
floor.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
ENTRY = "from wmorse.cli import entrypoint; entrypoint()"
DNA = "A=1,C=2,G=3,T=4"
SEQUENCES = ("ACGTACGTAC", "ACGTACGTACG")
COLLAPSED = "ACGTACGTACG"
PRIME_KS = (16, 64, 300)
PRIME_SEED = 1


def refusal_sequence() -> str:
    rng = Random(1)
    return "".join(rng.choice("ACGT") for _ in range(300))


def prepare(directory: str) -> None:
    """Write the complex and steps documents into directory; print the cells per dimension of each input."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from generators import prime_weight_complex
    from wmorse.documents import dump_complex_document
    from wmorse.sequence import build_woc

    def cells(K):
        return [len(K.of_dim(d)) for d in range(K.dimension + 1)]

    weights = {"A": 1, "C": 2, "G": 3, "T": 4}
    sizes = {s: cells(build_woc(s, weights, 1)[0]) for s in SEQUENCES}
    for t in (1, 3):
        K, names = build_woc(COLLAPSED, weights, t)
        dump_complex_document(os.path.join(directory, f"{COLLAPSED}-{t}.json"), K, dict(enumerate(names)))
        # the first free face in (dim, lex) order: one step, then the rest of the complex is kept
        free = next(s for s in K if K.free_coface(s) is not None)
        Path(directory, f"{COLLAPSED}-{t}-steps.json").write_text(json.dumps([list(free)]) + "\n")
    for k in PRIME_KS:
        K = prime_weight_complex(PRIME_SEED, k=k)
        sizes[f"prime-{k}"] = cells(K)
        dump_complex_document(os.path.join(directory, f"prime-{k}.json"), K)
    print(json.dumps(sizes))


def rows(directory: str, sizes: dict) -> list[tuple[str, list[str], list[int] | None]]:
    out = [("version", ["--version"], None)]
    for s in SEQUENCES:
        out += [(f"sequence {s} type {t}", ["sequence", s, "--weights", DNA, "--woc-type", str(t)], sizes[s])
                for t in (1, 2, 3, 4)]
    out += [(f"collapse --auto-greedy {COLLAPSED} type {t}",
             ["collapse", os.path.join(directory, f"{COLLAPSED}-{t}.json"), "--auto-greedy"], sizes[COLLAPSED])
            for t in (1, 3)]
    out += [(f"collapse --steps one free pair {COLLAPSED} type {t}",
             ["collapse", os.path.join(directory, f"{COLLAPSED}-{t}.json"),
              "--steps", os.path.join(directory, f"{COLLAPSED}-{t}-steps.json")], sizes[COLLAPSED])
            for t in (1, 3)]
    out += [(f"homology {COLLAPSED} type 1 document",
             ["homology", os.path.join(directory, f"{COLLAPSED}-1.json")], sizes[COLLAPSED])]
    out += [(f"homology prime-weight seed {PRIME_SEED} k={k}",
             ["homology", os.path.join(directory, f"prime-{k}.json")], sizes[f"prime-{k}"])
            for k in PRIME_KS]
    out += [("refuse 30 A", ["sequence", "A" * 30, "--weights", DNA], None),
            ("refuse seeded 300 letters", ["sequence", refusal_sequence(), "--weights", DNA], None)]
    return out


def max_rss_mb(usage) -> float:
    # kilobytes on Linux, bytes on macOS
    return usage.ru_maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def run_once(argv: list[str], env: dict) -> tuple[float, float, int]:
    """Wall time, max RSS in MB and exit code of one fresh CLI process, its output discarded."""
    discard = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
    started = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", ENTRY, *argv], env, file_actions=discard)
    _, status, usage = os.wait4(pid, 0)
    return time.perf_counter() - started, max_rss_mb(usage), os.waitstatus_to_exitcode(status)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="the JSON file to write")
    parser.add_argument("--repeats", type=int, default=3, help="fresh processes per row")
    parser.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)  # the preparing child
    args = parser.parse_args()
    if args.prepare:
        prepare(args.prepare)
        return
    if args.out is None:
        parser.error("the output file is required")

    env = {k: v for k, v in os.environ.items() if k not in ("WMORSE_MAX_DIM", "PYTHONPATH")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    records = []
    with tempfile.TemporaryDirectory() as directory:
        prepared = subprocess.run([sys.executable, __file__, "--prepare", directory],
                                  env=env, check=True, capture_output=True, text=True)
        sizes = json.loads(prepared.stdout)
        for name, argv, cells in rows(directory, sizes):
            runs = [run_once(argv, env) for _ in range(args.repeats)]
            codes = {code for _, _, code in runs}
            if len(codes) != 1:
                raise SystemExit(f"{name}: exit codes differ between runs: {sorted(codes)}")
            record = {
                "row": name,
                "wall_s": round(statistics.median(wall for wall, _, _ in runs), 4),
                "wall_runs_s": [round(wall, 4) for wall, _, _ in runs],
                "max_rss_mb": round(max(rss for _, rss, _ in runs), 1),
                "exit_code": codes.pop(),
                "cells_per_dim": cells,
            }
            records.append(record)
            print(json.dumps(record), file=sys.stderr)

    doc = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "repeats": args.repeats,
        "parent_max_rss_mb": round(max_rss_mb(resource.getrusage(resource.RUSAGE_SELF)), 1),
        "rows": records,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
