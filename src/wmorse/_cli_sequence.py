"""wmorse sequence: the fingerprint of a sequence or of each FASTA record.

The documents module is loaded only to write --emit-complex.
"""

from __future__ import annotations

import os

from .cli import _emit, _homology_json, _homology_lines, _max_dim_cap


def run(args) -> int:
    from .errors import DocumentError
    from .homology import homology
    from .sequence import ALPHABETS, build_woc, parse_weights_spec, read_fasta

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
    fingerprints: dict[str, list] = {}  # a record repeated in the file is built once
    for ident, seq in records:
        if seq not in fingerprints:
            unknown = sorted(set(seq) - set(alphabet))
            if unknown:
                raise DocumentError(f"symbols {unknown} not in the alphabet")
            K, names = build_woc(seq, weights, args.woc_type, max_dim=skeleton)
            fingerprints[seq] = homology(K, max_dim=cap)

    if args.emit_complex:  # K and names are the one record's, from the loop
        if not len(K):
            raise DocumentError("nothing to emit: the substring complex is empty")
        from .documents import dump_complex_document

        dump_complex_document(
            args.emit_complex, K, {i: name for i, name in enumerate(names)}
        )

    if args.json:
        entries = [{"id": ident, "sequence": seq, "homology": _homology_json(fingerprints[seq])}
                   for ident, seq in records]
        if len(records) > 1 or records[0][0] is not None:
            return _emit({"records": entries})
        return _emit({"sequence": records[0][1], "homology": entries[0]["homology"]})
    lines: list[str] = []
    for ident, seq in records:
        if ident is not None:
            if lines:
                lines.append("")
            lines.append(f"# {ident} {seq}")
        lines.extend(_homology_lines(fingerprints[seq]) if fingerprints[seq] else ["(empty complex)"])
    return _emit(lines)
