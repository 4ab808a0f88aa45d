"""wmorse morse: --classify, --collapse and the --window certificate of a Morse document."""

from __future__ import annotations

from .cli import (
    _compare_homology,
    _emit,
    _fmt_simplex,
    _homology_json,
    _load_complex,
    _max_dim_cap,
    _step_json,
    _step_line,
)


def run(args) -> int:
    from .complexes import simplex
    from .documents import load_morse_document
    from .morse import classify, critical_window, morse_collapse

    K = _load_complex(args)
    f = load_morse_document(args.morse, K)

    if args.classify:
        cls = classify(K, f)
        order = sorted(K, key=lambda s: (f(s), len(s), s))
        kinds = {"critical": [s for s in order if cls.is_critical(s)],
                 "non-w-simple": [s for s in order if not cls.is_w_simple(s)]}
        if args.json:
            return _emit({"simplices": len(K), **{label.replace("-", "_"): [
                {"vertices": list(s), "value": str(f(s))} for s in cells] for label, cells in kinds.items()}})
        lines = [f"morse function valid on {len(K)} simplices"]
        for label, cells in kinds.items():
            lines.append(f"{label} cells: {len(cells)}")
            lines.extend(f"{label}: {_fmt_simplex(s)} f={f(s)}" for s in cells)
        return _emit(lines)

    if args.collapse is not None:
        cap = _max_dim_cap()
        cert = morse_collapse(K, f, *args.collapse)
        before, after, pairs, agree = _compare_homology(cert.start, cert.end, cap)
        if args.json:
            return _emit({
                "window": [str(cert.a), str(cert.b)],
                "steps": [_step_json(s, v) for s, v in zip(cert.steps, cert.verdicts)],
                "start_homology": _homology_json(before),
                "end_homology": _homology_json(after),
                "agree": agree,
            })
        lines = [f"window: ({cert.a}, {cert.b}]"]
        lines += [_step_line(i, s, v) for i, (s, v) in enumerate(zip(cert.steps, cert.verdicts), 1)]
        lines += [f"steps: {len(cert.steps)}", f"start: {len(cert.start)} simplices", f"end: {len(cert.end)} simplices"]
        lines += [f"H{n}: start={b} end={a} agree={'yes' if b == a else 'no'}" for n, (b, a) in enumerate(pairs)]
        lines.append(f"agree: {'yes' if agree else 'no'}")
        return _emit(lines)

    # window certificate
    alpha = simplex(_parse_cell(args.cell))
    cert = critical_window(K, f, alpha, *args.window)
    n, rep = len(alpha) - 1, cert.removal
    sides = {"above": cert.collapse_above, "below": cert.collapse_below}
    if args.json:
        return _emit({
            "alpha": list(alpha),
            "f_alpha": str(f(alpha)),
            "a": str(cert.a),
            "b": str(cert.b),
            "a_prime": str(cert.a_prime),
            "set_identity": True,
            "alpha_maximal": True,
            **{f"collapse_{side}": {"steps": [_step_json(s, v) for s, v in zip(c.steps, c.verdicts)]}
               for side, c in sides.items()},
            "removal": None if rep is None else {
                "dimension": n,
                "class_order": rep.class_order.kind,
                "k": rep.class_order.k,
                "gains_free_summand": rep.gains_free_summand,
                "quotient_below": None if rep.quotient_below is None else rep.quotient_below._asdict(),
            },
        })
    lines = [
        f"cell: {_fmt_simplex(alpha)} f={f(alpha)}",
        f"window: ({cert.a}, {cert.b}]",
        f"a-prime: {cert.a_prime}",
        "K(a') == K(f(alpha)) minus alpha: yes",
        "alpha maximal in K(f(alpha)): yes",
    ]
    lines += [f"collapse {side}: {len(c.steps)} steps" + (", all same-weight" if c.all_same_weight else "")
              for side, c in sides.items()]
    if rep is None:
        lines.append("removal: skipped (alpha has weight 0)")
    else:
        lines.append(f"removal: dim={n} class-order={rep.class_order}")
        lines.append(f"H{n}: H{n}(K(f(alpha))) = H{n}(K(a'))" + (" (+) Z" if rep.gains_free_summand else ""))
        if n >= 1:
            lines.append(f"H{n-1}: H{n-1}(K(f(alpha))) = H{n-1}(K(a')) / <[boundary]> = {rep.quotient_below}")
        lines.append(f"unchanged: H_k for k not in {{{n-1}, {n}}}")
    return _emit(lines)


def _parse_cell(text: str) -> list[int]:
    from .errors import DocumentError, quoted

    cleaned = text.strip().strip("[]")
    try:
        return [int(p) for p in cleaned.split(",") if p.strip() != ""]
    except ValueError:
        raise DocumentError(f"cannot parse cell {quoted(text)}; expected comma-separated vertex ids")
