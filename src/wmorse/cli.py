"""Command line front end.

Four subcommands: homology, collapse, morse, sequence. All output is
deterministic; the --json flags emit machine-readable equivalents of
the text reports. Exit codes: 0 on success, 1 when a result fails the
package's own consistency check (a bug), 2 for malformed input, 3 when
an operation's theorem hypothesis fails, and from the console entry
point 141 (128 + SIGPIPE) when the reader of stdout is gone.

The environment variable WMORSE_MAX_DIM caps the dimension of every
homology report (useful to keep long-chain inputs tractable). It is
read only by calls that print such a report.

This module holds the parser, main(), the console entry point and the
helpers that several subcommands share. Each subcommand's handler,
run(args), lives in its own private module, _cli_<subcommand>, and
main() imports the chosen subcommand's module alone, so that no call
compiles another subcommand's code (each call compiles the source it
imports when no bytecode is cached). Each handler builds only the
report it prints: the text lines, or under --json the payload, never
both. A handler imports the layers it
runs when it is called, so that --version loads no layer and no
handler, collapse loads neither homology nor Morse, morse --classify
loads neither homology nor collapse, and only morse --window loads the
removal module.

The console entry point ends the process with os._exit once main()
has returned or argparse has exited, after flushing stdout and then
stderr, so no call pays for the interpreter's teardown of its modules.
That skips nothing the program needs: it registers no atexit hook,
starts no thread or process, and closes the one file it writes
(--emit-complex) before main() returns. An exception that escapes
main() still ends the process the ordinary way, with its traceback.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

from . import __version__


def _max_dim_cap() -> int | None:
    from .errors import DocumentError, quoted

    raw = os.environ.get("WMORSE_MAX_DIM")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise DocumentError(f"WMORSE_MAX_DIM must be an integer, got {quoted(raw)}")
    if cap < 0:
        raise DocumentError("WMORSE_MAX_DIM must be non-negative")
    return cap


def _homology_lines(groups) -> list[str]:
    return [f"H{n} = {g}" for n, g in enumerate(groups)]


def _homology_json(groups) -> list[dict]:
    return [{"dim": n, **g._asdict()} for n, g in enumerate(groups)]


def _emit(report: list[str] | dict) -> int:
    """Print a report, text lines or (under --json) a payload, and return the exit code 0."""
    if isinstance(report, dict):
        import json

        # torsion can pass the int-to-text digit limit; every input has been
        # read by now, so the limit is lifted only while the report is written
        limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            print(json.dumps(report, indent=2, sort_keys=True))
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
    else:
        print("\n".join(report))
    return 0


def _load_complex(args):
    from .documents import load_complex_document

    K, _ = load_complex_document(args.complex, constant_weight=args.constant_weight)
    return K


# --- shared by collapse and morse ---------------------------------------------

def _fmt_simplex(sigma) -> str:
    return "[" + ",".join(str(v) for v in sigma) + "]"


def _compare_homology(K, L, cap):
    """Both homology lists, the pair of groups in each dimension either has, and whether all pairs agree."""
    from .homology import group_at, homology

    before, after = homology(K, max_dim=cap), homology(L, max_dim=cap)
    pairs = [(group_at(before, n), group_at(after, n)) for n in range(max(len(before), len(after)))]
    return before, after, pairs, all(b == a for b, a in pairs)


def _step_line(i, step, verdict) -> str:
    return (
        f"step {i}: sigma={_fmt_simplex(step.sigma)} tau={_fmt_simplex(step.tau)} "
        f"verdict={verdict.verdict.value} w(sigma)={verdict.w_sigma} w(tau)={verdict.w_tau}"
    )


def _step_json(step, verdict) -> dict:
    return {
        "sigma": list(step.sigma),
        "tau": list(step.tau),
        "verdict": verdict.verdict.value,
        "w_sigma": verdict.w_sigma,
        "w_tau": verdict.w_tau,
    }


# --- wiring -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wmorse",
        description="Weighted simplicial homology, collapses, and discrete Morse certificates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    def add_complex(p):
        p.add_argument("complex", help="complex document (JSON)")
        p.add_argument(
            "--constant-weight",
            type=int,
            default=None,
            metavar="N",
            help="treat the document as maximal faces only; fill the closure with weight N",
        )

    p = sub.add_parser("homology", help="weighted homology of a complex document")
    add_complex(p)
    add_common(p)

    p = sub.add_parser("collapse", help="apply elementary collapses with verdicts")
    add_complex(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--steps", help="JSON array of free faces to collapse, in order")
    group.add_argument(
        "--auto-greedy",
        action="store_true",
        help="repeatedly collapse the lexicographically smallest free face",
    )
    p.add_argument("--verify", action="store_true", help="recompute homology before and after")
    add_common(p)

    p = sub.add_parser("morse", help="discrete Morse analysis of a complex")
    add_complex(p)
    p.add_argument("morse", help="Morse document (JSON)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--classify", action="store_true", help="list critical and non-w-simple cells")
    group.add_argument(
        "--collapse", nargs=2, metavar=("A", "B"), help="collapse K(B) onto K(A)"
    )
    group.add_argument(
        "--window", nargs=2, metavar=("A", "B"), help="certificate for one critical cell in (A, B]"
    )
    p.add_argument("--cell", help="the critical cell for --window, e.g. '0,3'")
    add_common(p)

    p = sub.add_parser("sequence", help="substring-poset fingerprint of a sequence")
    p.add_argument("sequence", help="literal sequence, or path to a FASTA file")
    p.add_argument(
        "--alphabet",
        default="dna",
        help="built-in name (dna, rna, bin, hex) or explicit symbols, e.g. 'xy'",
    )
    p.add_argument("--weights", required=True, help="letter weights, e.g. 'A=1,C=2,G=3,T=4'")
    p.add_argument(
        "--woc-type", type=int, choices=(1, 2, 3, 4), default=1, help="weighting type"
    )
    p.add_argument("--emit-complex", metavar="PATH", help="write the weighted complex document")
    add_common(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "morse" and args.window and not args.cell:
        parser.error("--window requires --cell")
    from .errors import HypothesisError, InternalInvariantError, ValidationError

    handler = importlib.import_module(f"{__package__}._cli_{args.command}")
    try:
        return handler.run(args)
    except ValidationError as e:
        message, code = f"error: {type(e).__name__}: {e}", 2
    except ValueError as e:
        message, code = f"error: {e}", 2
    except HypothesisError as e:
        message, code = f"error: {type(e).__name__}: {e}", 3
    except InternalInvariantError as e:
        message, code = f"internal error: {type(e).__name__}: {e}", 1
    if sys.stderr is not None:  # None with descriptor 2 closed, where print() would write to stdout
        print(message, file=sys.stderr)
    return code


def entrypoint() -> None:
    if sys.stdout is None:  # started with stdout closed: print writes nothing
        sys.exit(main())
    sys.stdout.reconfigure(encoding="utf-8")  # as the documents read, whatever the locale
    try:
        try:
            code = main()
        except SystemExit as e:  # argparse: --version, --help and usage errors
            if not isinstance(e.code, int):
                raise
            code = e.code
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        code = 141  # the reader is gone: 128 + SIGPIPE, as a shell reports a writer it killed
    if sys.stderr is not None:  # None when started with descriptor 2 closed
        sys.stderr.flush()
    # no teardown: main() leaves no open file, thread or atexit hook (see the module docstring)
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
