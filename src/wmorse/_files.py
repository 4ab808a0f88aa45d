"""Input files as bytes and as UTF-8 text, refused by path when unreadable.

The JSON documents (documents) and FASTA files (sequence) are read
through these two functions alone.
"""

from __future__ import annotations

from .errors import DocumentError


def read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e.strerror or e}")


def utf8(data: bytes, path: str) -> str:
    # every input file is UTF-8 (RFC 8259 requires it of JSON), whatever the
    # locale; one leading byte-order mark is dropped after decoding, so byte
    # offsets still count from the start of the file
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        raise DocumentError(f"{path}: not UTF-8 text: byte {e.start} is {data[e.start:e.start + 1]!r}")
