"""Canonical text spellings and the JSON file helpers every file format uses.

Each integer and byte string has exactly one accepted spelling, and a
document must carry exactly its format's fields, so nothing that parses
can be re-encoded differently from how it arrived. This module imports
nothing from the package, so the hash-table loader can share it with the
artifact codec in `serialize`.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager


class SerializationError(ValueError):
    """A document does not parse as the expected artifact."""


# The only encoding of each value: no prefix, sign, separator, whitespace,
# uppercase digit or leading zero. Accepting any other spelling would make
# every signature field malleable.
_CANONICAL_HEX = re.compile(r"0|[1-9a-f][0-9a-f]*")
_CANONICAL_BYTES = re.compile(r"(?:[0-9a-f]{2})*")
_CANONICAL_DECIMAL = re.compile(r"0|[1-9][0-9]*")


def _describe(value) -> str:
    """Type and length of an untrusted value, never the value: it may be huge or secret."""
    sized = isinstance(value, (str, list, dict))
    return type(value).__name__ + (f" of length {len(value)}" if sized else "")


def _canonical(pattern: re.Pattern, text, what: str) -> str:
    if not isinstance(text, str) or not pattern.fullmatch(text):
        raise SerializationError(f"expected canonical {what}, got {_describe(text)}")
    return text


def int_to_hex(value: int) -> str:
    if value < 0:
        raise ValueError("negative integers have no wire encoding")
    return format(value, "x")


def hex_to_int(text: str) -> int:
    return int(_canonical(_CANONICAL_HEX, text, "lowercase hex"), 16)


def decimal_to_int(text: str) -> int:
    text = _canonical(_CANONICAL_DECIMAL, text, "decimal")
    try:
        return int(text, 10)
    except ValueError as exc:  # past the interpreter's integer-digit limit
        raise SerializationError(str(exc)) from exc


def bytes_to_hex(data: bytes) -> str:
    return bytes(data).hex()


def hex_to_bytes(text: str) -> bytes:
    return bytes.fromhex(_canonical(_CANONICAL_BYTES, text, "lowercase hex bytes"))


def fields(data, keys: tuple) -> list:
    """The values of `keys` in a JSON object that holds exactly those keys."""
    if not isinstance(data, dict) or data.keys() != set(keys):
        got = _describe(data)
        raise SerializationError(f"expected exactly the fields {sorted(keys)}, got {got}")
    return [data[key] for key in keys]


def list_field(key: str, value) -> list:
    if not isinstance(value, list):
        raise SerializationError(f"field {key!r} must be a list")
    return value


@contextmanager
def _open_output(path, mode: str = "w", *, private: bool = False):
    """Open `path` for writing from empty, deciding its mode before any byte.

    A public file gets the mode the umask leaves of 0666. A `private` one is
    0600 before its first byte: created so, or truncated and narrowed so.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600 if private else 0o666)
    with open(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
        if private:  # O_CREAT leaves an existing file's mode as it was
            os.fchmod(fd, 0o600)
        yield fh


def save_json(path, data: dict, *, private: bool = False) -> None:
    """Write `data` as sorted, indented JSON; `private` files are 0600 from the first byte."""
    with _open_output(path, private=private) as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        # ValueError also covers invalid UTF-8 and integer literals past the
        # interpreter's digit limit; RecursionError, nesting too deep to parse
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise SerializationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SerializationError(f"{path}: expected a JSON object")
    return data
