"""File formats for the command line: JSON documents and FASTA.

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

Neither fractions nor the Morse layer is loaded until a Morse value is
read, so the other subcommands do without them.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING, Iterable, Mapping

from .complexes import Simplex, SimplicialComplex, WeightedComplex, _exact_ids, simplex, validate_complex
from .errors import DocumentError, quoted

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


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e.strerror or e}")


def _utf8(data: bytes, path: str) -> str:
    # every input file is UTF-8 (RFC 8259 requires it of JSON), whatever the
    # locale; one leading byte-order mark is dropped after decoding, so byte
    # offsets still count from the start of the file
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        raise DocumentError(f"{path}: not UTF-8 text: byte {e.start} is {data[e.start:e.start + 1]!r}")


def _load_json(path: str, exact_decimals: bool = False):
    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise DocumentError(f"{path}: key {quoted(key)} given twice in one object")
        return obj

    kwargs = {"parse_float": str} if exact_decimals else {}
    data = _read_bytes(path)
    # the callback is a Python call per integer, so it is passed only
    # when the text holds a run of digits too long for int()
    if _LONG_DIGIT_RUN in data.translate(_DIGITS_TO_ZERO):
        kwargs["parse_int"] = _parse_int
    try:
        return json.loads(_utf8(data, path), object_pairs_hook=unique_keys, **kwargs)
    except json.JSONDecodeError as e:
        raise DocumentError(f"{path}: {e.msg}", line=e.lineno)


def _vertex_list(record, where: str):
    """The record's nonempty list of non-negative int vertex ids, else an error naming where.

    Only the records of a document that _records' one pass cannot take
    come here, and the generators of a constant-weight document; where,
    the file and the entry, is built for those alone.
    """
    if not isinstance(record, dict) or "vertices" not in record:
        raise DocumentError(f"{where}: expected an object with a 'vertices' list")
    vs = record["vertices"]
    if not isinstance(vs, list) or not vs:
        raise DocumentError(f"{where}: 'vertices' must be a nonempty list")
    for v in vs:
        if isinstance(v, _LongLiteral):
            raise _too_long(where)
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise DocumentError(f"{where}: vertex ids must be non-negative integers")
    return vs


def _records(records: list, path: str, array: str, field: str, check) -> Iterable[tuple[list, object]]:
    # (vertices, field) of each record: one pass over the records and all their vertex ids takes
    # a document where each holds a nonempty list of exact ints >= 0 and an exact int field;
    # otherwise check(record, where) goes through them in order and names the first bad one
    try:
        lists, fields = [r["vertices"] for r in records], [r[field] for r in records]
    except (TypeError, KeyError):
        lists = None
    if lists is not None and set(map(type, lists)) <= {list} and all(lists) \
            and set(map(type, fields)) <= {int} and _exact_ids(lists):
        return zip(lists, fields)
    return [check(r, f"{path}: {array}[{i}]") for i, r in enumerate(records)]


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
        complex = SimplicialComplex.from_maximal(
            _vertex_list(r, f"{path}: simplices[{i}]") for i, r in enumerate(records)
        )
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

    return validate_complex(_records(records, path, "simplices", "weight", weighted)), names


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
    bounds of a text value. A document of integer values passes in one
    pass over all records and vertex ids; one with text values, or with
    a defect, is read record by record. validate_morse takes the records
    in document order and refuses a repeated simplex, a missing one, or
    a violation.
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

    return validate_morse(K, _records(records, path, "values", "value", valued))


def parse_weights_spec(spec: str) -> dict[str, int]:
    """Parse "A=1,C=2,G=3,T=4" into a letter weight table."""
    out = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise DocumentError(f"bad weight entry {quoted(part)}, expected SYMBOL=INTEGER")
        sym, _, value = part.partition("=")
        sym = sym.strip()
        if len(sym) != 1:  # sequences are read one character at a time
            raise DocumentError(f"bad weight entry {quoted(part)}, expected a one-character symbol")
        if sym in out:
            raise DocumentError(f"weight for {quoted(sym)} given twice")
        try:
            out[sym] = int(value.strip())
        except ValueError:
            raise DocumentError(f"bad weight for {quoted(sym)}: {quoted(value.strip())}")
    if not out:
        raise DocumentError("empty weight specification")
    return out


def read_fasta(path: str) -> list[tuple[str, str]]:
    """Parse FASTA records as (identifier, sequence) pairs."""
    text = _utf8(_read_bytes(path), path)
    records = []
    ident = None
    parts: list[str] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            if ident is not None:
                records.append((ident, "".join(parts)))
            ident = line[1:].split()[0] if len(line) > 1 else ""
            parts = []
        else:
            if ident is None:
                raise DocumentError(f"{path}: sequence data before any '>' header")
            parts.append(line)
    if ident is not None:
        records.append((ident, "".join(parts)))
    if not records:
        raise DocumentError(f"{path}: no FASTA records")
    return records
