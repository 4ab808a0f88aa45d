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
