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

Each subcommand imports the layers it runs when it is called, so that
--version loads no layer, collapse loads neither homology nor Morse,
and morse --classify loads neither homology nor collapse.

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


def _fmt_simplex(sigma) -> str:
    return "[" + ",".join(str(v) for v in sigma) + "]"


def _homology_lines(groups) -> list[str]:
    return [f"H{n} = {g}" for n, g in enumerate(groups)]


def _homology_json(groups) -> list[dict]:
    return [{"dim": n, **g._asdict()} for n, g in enumerate(groups)]


def _emit(args, text_lines: list[str], payload: dict) -> None:
    if args.json:
        import json

        # torsion can pass the int-to-text digit limit; every input has been
        # read by now, so the limit is lifted only while the report is written
        limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            print(json.dumps(payload, indent=2, sort_keys=True))
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
    else:
        for line in text_lines:
            print(line)


def _load_complex(args):
    from .documents import load_complex_document

    K, _ = load_complex_document(args.complex, constant_weight=args.constant_weight)
    return K


def _compare_homology(K, L, cap, labels):
    """Both homology lists, one comparison line per dimension, and whether all agree."""
    from .homology import group_at, homology

    before, after = homology(K, max_dim=cap), homology(L, max_dim=cap)
    lines, agree = [], True
    for n in range(max(len(before), len(after))):
        b, a = group_at(before, n), group_at(after, n)
        agree = agree and b == a
        lines.append(f"H{n}: {labels[0]}={b} {labels[1]}={a} agree={'yes' if b == a else 'no'}")
    return before, after, lines, agree


# --- homology ---------------------------------------------------------------

def cmd_homology(args) -> int:
    from .homology import homology

    K = _load_complex(args)
    groups = homology(K, max_dim=_max_dim_cap())
    _emit(args, _homology_lines(groups), {"homology": _homology_json(groups)})
    return 0


# --- collapse ---------------------------------------------------------------

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


def cmd_collapse(args) -> int:
    from .collapse import collapse_sequence, greedy_collapse
    from .documents import load_steps_document

    K = _load_complex(args)
    if args.auto_greedy:
        L, applied = greedy_collapse(K)
    else:
        L, applied = collapse_sequence(K, load_steps_document(args.steps))

    lines = [_step_line(i + 1, s, v) for i, (s, v) in enumerate(applied)]
    guaranteed = all(v.guaranteed for _, v in applied)
    lines.append(f"steps: {len(applied)}")
    lines.append(f"remaining: {len(L)} simplices")
    lines.append(f"guaranteed: {'yes' if guaranteed else 'no'}")
    payload = {
        "steps": [_step_json(s, v) for s, v in applied],
        "remaining_simplices": len(L),
        "guaranteed": guaranteed,
    }

    if args.verify:
        before, after, compared, agree = _compare_homology(K, L, _max_dim_cap(), ("before", "after"))
        lines.extend(f"verify {line}" for line in compared)
        lines.append(f"verify-agree: {'yes' if agree else 'no'}")
        payload["verify"] = {
            "before": _homology_json(before),
            "after": _homology_json(after),
            "agree": agree,
        }

    _emit(args, lines, payload)
    return 0


# --- morse -------------------------------------------------------------------

def cmd_morse(args) -> int:
    from .complexes import simplex
    from .documents import load_morse_document
    from .morse import classify, critical_window, morse_collapse

    K = _load_complex(args)
    f = load_morse_document(args.morse, K)

    if args.classify:
        cls = classify(K, f)
        order = sorted(K, key=lambda s: (f(s), len(s), s))
        lines, payload = [f"morse function valid on {len(K)} simplices"], {"simplices": len(K)}
        for label, cells in (("critical", [s for s in order if cls.is_critical(s)]),
                             ("non-w-simple", [s for s in order if not cls.is_w_simple(s)])):
            lines.append(f"{label} cells: {len(cells)}")
            lines.extend(f"{label}: {_fmt_simplex(s)} f={f(s)}" for s in cells)
            payload[label.replace("-", "_")] = [{"vertices": list(s), "value": str(f(s))} for s in cells]
        _emit(args, lines, payload)
        return 0

    if args.collapse is not None:
        cap = _max_dim_cap()
        cert = morse_collapse(K, f, *args.collapse)
        lines = [f"window: ({cert.a}, {cert.b}]"]
        lines.extend(
            _step_line(i + 1, s, v)
            for i, (s, v) in enumerate(zip(cert.steps, cert.verdicts))
        )
        lines.append(f"steps: {len(cert.steps)}")
        lines.append(f"start: {len(cert.start)} simplices")
        lines.append(f"end: {len(cert.end)} simplices")
        before, after, compared, agree = _compare_homology(cert.start, cert.end, cap, ("start", "end"))
        lines.extend(compared)
        lines.append(f"agree: {'yes' if agree else 'no'}")
        payload = {
            "window": [str(cert.a), str(cert.b)],
            "steps": [_step_json(s, v) for s, v in zip(cert.steps, cert.verdicts)],
            "start_homology": _homology_json(before),
            "end_homology": _homology_json(after),
            "agree": agree,
        }
        _emit(args, lines, payload)
        return 0

    # window certificate
    alpha = simplex(_parse_cell(args.cell))
    cert = critical_window(K, f, alpha, *args.window)
    n = len(alpha) - 1
    lines = [
        f"cell: {_fmt_simplex(alpha)} f={f(alpha)}",
        f"window: ({cert.a}, {cert.b}]",
        f"a-prime: {cert.a_prime}",
        "K(a') == K(f(alpha)) minus alpha: yes",
        "alpha maximal in K(f(alpha)): yes",
    ]
    payload = {
        "alpha": list(alpha),
        "f_alpha": str(f(alpha)),
        "a": str(cert.a),
        "b": str(cert.b),
        "a_prime": str(cert.a_prime),
        "set_identity": True,
        "alpha_maximal": True,
    }
    for side, c in (("above", cert.collapse_above), ("below", cert.collapse_below)):
        lines.append(f"collapse {side}: {len(c.steps)} steps" + (", all same-weight" if c.all_same_weight else ""))
        payload[f"collapse_{side}"] = {"steps": [_step_json(s, v) for s, v in zip(c.steps, c.verdicts)]}
    if cert.removal is None:
        lines.append("removal: skipped (alpha has weight 0)")
        payload["removal"] = None
    else:
        rep = cert.removal
        lines.append(f"removal: dim={n} class-order={rep.class_order}")
        if rep.gains_free_summand:
            lines.append(f"H{n}: H{n}(K(f(alpha))) = H{n}(K(a')) (+) Z")
        else:
            lines.append(f"H{n}: H{n}(K(f(alpha))) = H{n}(K(a'))")
        if n >= 1:
            lines.append(
                f"H{n-1}: H{n-1}(K(f(alpha))) = H{n-1}(K(a')) / <[boundary]> = {rep.quotient_below}"
            )
        lines.append(f"unchanged: H_k for k not in {{{n-1}, {n}}}")
        payload["removal"] = {
            "dimension": n,
            "class_order": rep.class_order.kind,
            "k": rep.class_order.k,
            "gains_free_summand": rep.gains_free_summand,
            "quotient_below": None if rep.quotient_below is None else rep.quotient_below._asdict(),
        }
    _emit(args, lines, payload)
    return 0


def _parse_cell(text: str) -> list[int]:
    from .errors import DocumentError, quoted

    cleaned = text.strip().strip("[]")
    try:
        return [int(p) for p in cleaned.split(",") if p.strip() != ""]
    except ValueError:
        raise DocumentError(f"cannot parse cell {quoted(text)}; expected comma-separated vertex ids")


# --- sequence ----------------------------------------------------------------

def cmd_sequence(args) -> int:
    from .documents import DocumentError, dump_complex_document, parse_weights_spec, read_fasta
    from .homology import homology
    from .sequence import ALPHABETS, build_woc

    alphabet = ALPHABETS.get(args.alphabet, tuple(args.alphabet))
    weights = parse_weights_spec(args.weights)
    cap = _max_dim_cap()

    if os.path.exists(args.sequence):
        records = read_fasta(args.sequence)
    else:
        records = [(None, args.sequence)]

    if args.emit_complex and len(records) > 1:
        raise DocumentError("--emit-complex needs a single-sequence input")

    # the complex is built one dimension above the cap, as in sequence_fingerprint
    skeleton = None if cap is None else cap + 1
    lines: list[str] = []
    payload_records = []
    fingerprints: dict[str, list] = {}  # a record repeated in the file is built once
    for ident, seq in records:
        if seq not in fingerprints:
            unknown = sorted(set(seq) - set(alphabet))
            if unknown:
                raise DocumentError(f"symbols {unknown} not in the alphabet")
            K, names = build_woc(seq, weights, args.woc_type, max_dim=skeleton)
            fingerprints[seq] = homology(K, max_dim=cap)
        groups = fingerprints[seq]
        block = _homology_lines(groups) if groups else ["(empty complex)"]
        if ident is not None:
            if lines:
                lines.append("")
            lines.append(f"# {ident} {seq}")
        lines.extend(block)
        payload_records.append(
            {"id": ident, "sequence": seq, "homology": _homology_json(groups)}
        )

    if args.emit_complex:  # K and names are the one record's, from the loop
        if not len(K):
            raise DocumentError("nothing to emit: the substring complex is empty")
        dump_complex_document(
            args.emit_complex, K, {i: name for i, name in enumerate(names)}
        )

    payload = (
        {"records": payload_records}
        if len(records) > 1 or records[0][0] is not None
        else {"sequence": records[0][1], "homology": payload_records[0]["homology"]}
    )
    _emit(args, lines, payload)
    return 0


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
    p.set_defaults(func=cmd_homology)

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
    p.set_defaults(func=cmd_collapse)

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
    p.set_defaults(func=cmd_morse)

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
    p.set_defaults(func=cmd_sequence)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "morse" and args.window and not args.cell:
        parser.error("--window requires --cell")
    from .errors import HypothesisError, InternalInvariantError, ValidationError

    try:
        return args.func(args)
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
