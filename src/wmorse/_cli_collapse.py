"""wmorse collapse: a step list or the greedy collapse, with verdicts and --verify."""

from __future__ import annotations

from .cli import _compare_homology, _emit, _homology_json, _load_complex, _max_dim_cap, _step_json, _step_line


def run(args) -> int:
    from .collapse import collapse_sequence, greedy_collapse
    from .documents import load_steps_document

    K = _load_complex(args)
    if args.auto_greedy:
        L, applied = greedy_collapse(K)
    else:
        L, applied = collapse_sequence(K, load_steps_document(args.steps))
    guaranteed = all(v.guaranteed for _, v in applied)
    if args.verify:
        before, after, pairs, agree = _compare_homology(K, L, _max_dim_cap())

    if args.json:
        payload = {"steps": [_step_json(s, v) for s, v in applied], "remaining_simplices": len(L),
                   "guaranteed": guaranteed}
        if args.verify:
            payload["verify"] = {"before": _homology_json(before), "after": _homology_json(after), "agree": agree}
        return _emit(payload)
    lines = [_step_line(i, s, v) for i, (s, v) in enumerate(applied, 1)]
    lines += [f"steps: {len(applied)}", f"remaining: {len(L)} simplices", f"guaranteed: {'yes' if guaranteed else 'no'}"]
    if args.verify:
        lines += [f"verify H{n}: before={b} after={a} agree={'yes' if b == a else 'no'}" for n, (b, a) in enumerate(pairs)]
        lines.append(f"verify-agree: {'yes' if agree else 'no'}")
    return _emit(lines)
