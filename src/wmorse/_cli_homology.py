"""wmorse homology: the weighted homology of a complex document."""

from __future__ import annotations

from .cli import _emit, _homology_json, _homology_lines, _load_complex, _max_dim_cap


def run(args) -> int:
    from .homology import homology

    K = _load_complex(args)
    groups = homology(K, max_dim=_max_dim_cap())
    return _emit({"homology": _homology_json(groups)} if args.json else _homology_lines(groups))
