"""The JSON documents of the command line: complexes, Morse functions, steps.

A complex document is a JSON object with a "simplices" array of
{"vertices": [...], "weight": n} records (every face listed explicitly)
and an optional "vertex_names" table keyed by stringified vertex ids.

A Morse document is a JSON object with a "values" array of
{"vertices": [...], "value": v} records covering every simplex of the
complex it accompanies. Values may be integers, "p/q" strings, or
decimal strings; bare JSON decimals are also fine because their literal
text is kept and parsed like a string, so no float is ever built.
Every text value, here and in the library's Morse calls, is parsed by
parse_rational. A key given twice in one JSON object is refused, as is
a vertex_names key not written as a plain integer ("00", "1_0").

A loader checks the shape of the records: a nonempty vertex list each,
and an integer weight or value. The vertex ids it leaves to the builder
(validate_complex, SimplicialComplex.from_maximal or validate_morse),
whose one pass checks them; only a document the builder refuses is read
again record by record, to name the file and the entry of the first bad
record. What a loader returns goes to one command-line handler, which
builds only the report it prints.

Neither fractions nor the Morse layer is loaded until a Morse value is
read, so the other subcommands do without them. FASTA files and letter
weights are read by the sequence module, which imports this one only to
write a complex document (sequence --emit-complex); both read their
files through _files.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING, Mapping

from ._files import read_bytes, utf8
from .complexes import Simplex, SimplicialComplex, WeightedComplex, _exact_ids, simplex, validate_complex
from .errors import DocumentError, ValidationError, quoted

if TYPE_CHECKING:
    from fractions import Fraction

    from .morse import MorseFunction

# A longer numerator or denominator than the interpreter converts to
# text (4300 digits by default) could not be printed; the digit count
# and the exponent are bounded first because Fraction converts every
# digit and builds 10**exponent exactly.
MAX_DIGITS = 4300
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")
# with every digit read as 0, a digit run too long for int() is a run of
# zeros, found by one substring search in C
_DIGITS_TO_ZERO = bytes.maketrans(b"123456789", b"000000000")
_LONG_DIGIT_RUN = b"0" * (MAX_DIGITS + 1)
_UNPRINTABLE = 10 ** MAX_DIGITS


def parse_rational(text: str, where: str = "") -> Fraction:
    """Exact rational from text ("3", "1.5", "7/2", "2.5e-3").

    where, if given, names the entry in error messages.
    """
    from fractions import Fraction

    prefix = f"{where}: " if where else ""
    if len(text) > MAX_DIGITS and sum(map(str.isdigit, text)) > MAX_DIGITS:
        raise DocumentError(f"{prefix}value has more than {MAX_DIGITS} digits")
    exponent = _EXPONENT.search(text)
    try:
        if exponent and abs(int(exponent.group(1))) > MAX_DIGITS:
            raise DocumentError(f"{prefix}{quoted(text)} has a decimal exponent larger than {MAX_DIGITS} in magnitude")
        q = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DocumentError(f"{prefix}cannot parse {quoted(text)} as a rational")
    if abs(q.numerator) >= _UNPRINTABLE or q.denominator >= _UNPRINTABLE:
        raise DocumentError(f"{prefix}{quoted(text)} has a numerator or denominator longer than {MAX_DIGITS} digits")
    return q


class _LongLiteral(str):
    """A JSON integer literal of more than MAX_DIGITS digits, kept as text."""


def _parse_int(literal: str):
    # int() refuses such a literal from Python 3.11 on, with an error that
    # names neither the file nor the entry; kept as text, the entry is named
    return _LongLiteral(literal) if len(literal.lstrip("-")) > MAX_DIGITS else int(literal)


def _too_long(where: str) -> DocumentError:
    return DocumentError(f"{where}: integer literal with more than {MAX_DIGITS} digits")


def _load_json(path: str, exact_decimals: bool = False):
    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise DocumentError(f"{path}: key {quoted(key)} given twice in one object")
        return obj

    kwargs = {"parse_float": str} if exact_decimals else {}
    data = read_bytes(path)
    # the callback is a Python call per integer, so it is passed only
    # when the text holds a run of digits too long for int()
    if _LONG_DIGIT_RUN in data.translate(_DIGITS_TO_ZERO):
        kwargs["parse_int"] = _parse_int
    try:
        return json.loads(utf8(data, path), object_pairs_hook=unique_keys, **kwargs)
    except json.JSONDecodeError as e:
        raise DocumentError(f"{path}: {e.msg}", line=e.lineno)


def _vertex_list(record, where: str):
    """The record's nonempty list of non-negative int vertex ids, else an error naming where.

    Only a document that failed _records' shape pass, or that its builder
    refused, comes here record by record; where, the file and the entry,
    is built for its records alone. The ids are tested by _exact_ids, the
    rule of the constructor's one pass, and the first bad one is named.
    """
    if not isinstance(record, dict) or "vertices" not in record:
        raise DocumentError(f"{where}: expected an object with a 'vertices' list")
    vs = record["vertices"]
    if not isinstance(vs, list) or not vs:
        raise DocumentError(f"{where}: 'vertices' must be a nonempty list")
    if not _exact_ids([vs]):
        if isinstance(next(v for v in vs if not _exact_ids([[v]])), _LongLiteral):
            raise _too_long(where)
        raise DocumentError(f"{where}: vertex ids must be non-negative integers")
    return vs


def _records(records: list, path: str, array: str, field: str | None, check, build):
    # build takes the records as they stand, as (vertices, field) pairs or, with no field, as bare
    # vertex lists, once a shape pass finds nonempty lists and exact-int fields; the builder's own
    # pass checks the vertex ids. A document that fails the shape pass, or that build refuses, is
    # read record by record: check(record, where) names the first bad record, and if there is
    # none, build refuses the document again
    try:
        lists = [r["vertices"] for r in records]
        fields = [r[field] for r in records] if field else None
    except (TypeError, KeyError):
        lists = None
    if lists is not None and set(map(type, lists)) <= {list} and all(lists) \
            and (not field or set(map(type, fields)) <= {int}):
        try:
            return build(zip(lists, fields) if field else lists)
        except (ValueError, ValidationError):
            pass
    return build([check(r, f"{path}: {array}[{i}]") for i, r in enumerate(records)])


def load_complex_document(
    path: str, constant_weight: int | None = None
) -> tuple[WeightedComplex, dict[int, str] | None]:
    """Read a complex document.

    With constant_weight set, the records are treated as generating
    faces: the face closure is taken and every simplex gets that weight,
    so maximal-faces-only input is enough.
    """
    doc = _load_json(path)
    if not isinstance(doc, dict) or "simplices" not in doc:
        raise DocumentError(f"{path}: expected an object with a 'simplices' array")
    records = doc["simplices"]
    if not isinstance(records, list):
        raise DocumentError(f"{path}: 'simplices' must be an array")
    if not records:
        raise DocumentError(f"{path}: empty complex")

    names = None
    if "vertex_names" in doc:
        raw = doc["vertex_names"]
        if not isinstance(raw, dict):
            raise DocumentError(f"{path}: 'vertex_names' must be an object")
        try:
            names = {int(k): str(v) for k, v in raw.items()}
        except ValueError:
            raise DocumentError(f"{path}: 'vertex_names' keys must be integers")
        for k in raw:
            if str(int(k)) != k:
                raise DocumentError(f"{path}: 'vertex_names' key {quoted(k)} is not written as a plain integer")

    if constant_weight is not None:
        # read again, each record is canonicalized before the next is read: a repeated vertex
        # is named before a bad id in a later record
        complex = _records(records, path, "simplices", None, lambda r, where: simplex(_vertex_list(r, where)),
                           SimplicialComplex.from_maximal)
        table = [[constant_weight] * len(complex.of_dim(d)) for d in range(complex.dimension + 1)]
        return WeightedComplex(complex, table), names

    def weighted(r, where):
        vs = _vertex_list(r, where)
        if "weight" not in r:
            raise DocumentError(f"{where}: missing 'weight'")
        w = r["weight"]
        if isinstance(w, _LongLiteral):
            raise _too_long(where)
        if isinstance(w, bool) or not isinstance(w, int):
            raise DocumentError(f"{where}: 'weight' must be an integer")
        return vs, w

    return _records(records, path, "simplices", "weight", weighted, validate_complex), names


def complex_document(K: WeightedComplex, names: Mapping[int, str] | None = None) -> dict:
    """The JSON-ready form of a weighted complex."""
    doc = {
        "simplices": [
            {"vertices": list(s), "weight": w} for s, w in K.items()
        ]
    }
    if names:
        doc["vertex_names"] = {str(i): names[i] for i in sorted(names)}
    return doc


def dump_complex_document(path: str, K: WeightedComplex, names=None) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(complex_document(K, names), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as e:
        raise DocumentError(f"cannot write {path}: {e.strerror or e}")


def load_steps_document(path: str) -> list[Simplex]:
    """Read a steps file: a JSON array of free faces, in collapse order."""
    raw = _load_json(path)
    if not isinstance(raw, list):
        raise DocumentError(f"{path}: expected a JSON array of vertex lists")
    steps = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, list):
            raise DocumentError(f"{path}: entry {i} is not a list of vertex ids")
        if _LongLiteral in map(type, entry):
            raise _too_long(f"{path}: entry {i}")
        try:
            steps.append(simplex(entry))
        except ValueError as e:  # no vertex, or a bad vertex id; a repeated one stays DuplicateVertex
            raise DocumentError(f"{path}: entry {i}: {e}") from None
    return steps


def load_morse_document(path: str, K: WeightedComplex) -> MorseFunction:
    """Read a Morse document and validate it against a complex.

    Only what names the file and the entry is checked here: the JSON
    shape, each record's vertex list and value type, and the digit
    bounds of a text value. A document of integer values goes to
    validate_morse as it stands, which checks the vertex ids in its one
    pass; one with text values, or one validate_morse refuses, is read
    record by record. validate_morse takes the records in document order
    and refuses a repeated simplex, a missing one, or a violation.
    """
    from .morse import validate_morse

    doc = _load_json(path, exact_decimals=True)
    if not isinstance(doc, dict) or "values" not in doc:
        raise DocumentError(f"{path}: expected an object with a 'values' array")
    records = doc["values"]
    if not isinstance(records, list):
        raise DocumentError(f"{path}: 'values' must be an array")

    def valued(r, where):
        vs = _vertex_list(r, where)
        if "value" not in r:
            raise DocumentError(f"{where}: missing 'value'")
        v = r["value"]
        if not isinstance(v, (int, str)) or isinstance(v, bool):
            raise DocumentError(f"{where}: 'value' must be an integer or a string")
        return vs, v if isinstance(v, int) else parse_rational(v, where)

    return _records(records, path, "values", "value", valued, lambda pairs: validate_morse(K, pairs))
