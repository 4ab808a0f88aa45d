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
