"""JSON file and wire formats for every artifact the toolkit exchanges.

Big integers are lowercase hex without leading zeros, byte strings
lowercase hex of even length. That is each value's only spelling, and a
document carries exactly its format's fields: any second spelling would
make every signature field malleable. Parsing is the trust boundary:
scalars are range-checked and elements checked for subgroup membership
here, so protocol code can assume well-formed values. Files go through
`load_json` and `save_json`; a secret one is saved `private=True`, 0600.

Each artifact is described once, by a table of `(json key, attribute,
kind)` rows that drives both `_encode` and `_decode`, so every document
the decoder accepts re-encodes byte-identical. Only the proof-flavour
sniff is hand-written.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from functools import partial
from typing import Optional, Union

from .directed import (
    DirectedSignature,
    ReceiverProof,
    RecoveredCommitment,
    SignerNonceState,
    SignerProof,
)
from .group import GroupElement, KeyPair, Scalar, SchnorrGroup
from .shamir import Share
from .threshold import MaskedShare, ModifiedShadow, PartialResult, ThresholdSignature
from .threshold_crypto import ThresholdCiphertext


class SerializationError(ValueError):
    """A document does not parse as the expected artifact."""


# The only encoding of each value: no prefix, sign, separator, whitespace,
# uppercase digit or leading zero.
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
        raise SerializationError(f"decimal of {len(text)} digits is too long") from exc


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


class MalformedSignatureError(SerializationError):
    """A document carries out-of-range or non-member fields."""


# Field kinds. A kind is one of these names, another artifact's table (a
# nested object) or a one-item list holding a table (a list of objects).
SCALAR = "scalar"  # Scalar, hex below q
ELEMENT = "element"  # Member, hex of a subgroup member
MASKED = "masked"  # int in Z_p: a masked share lies outside the subgroup
BYTES = "bytes"  # bytes, even-length lowercase hex
THRESHOLD = "threshold"  # JSON integer
INTEGER = "integer"  # int, hex of any size: the artifact's constructor checks its range


def _encode(table, obj) -> dict:
    """The JSON object of `obj`; `table` is `(constructor, rows)`."""
    return {key: _encode_field(kind, getattr(obj, attr)) for key, attr, kind in table[1]}


def _encode_field(kind, value):
    if kind in (SCALAR, ELEMENT, MASKED, INTEGER):
        return int_to_hex(int(value))
    if kind == BYTES:
        return bytes_to_hex(value)
    if kind == THRESHOLD:
        return value
    if isinstance(kind, list):
        return [_encode(kind[0], item) for item in value]
    return _encode(kind, value)


def _decode(table, group: Optional[SchnorrGroup], data):
    """Build the artifact `table` describes from untrusted JSON, or raise."""
    build, rows = table
    values = fields(data, tuple(key for key, _, _ in rows))
    kwargs = {
        attr: _decode_field(group, key, kind, value)
        for (key, attr, kind), value in zip(rows, values)
    }
    try:
        return build(**kwargs)
    except ValueError as exc:
        if type(exc) is not ValueError:  # a subclass (threshold-range, share-id) keeps its slug
            raise
        raise SerializationError(str(exc)) from exc


def _decode_field(group: Optional[SchnorrGroup], key: str, kind, value):
    if kind == THRESHOLD:
        # bool is a subclass of int, and true must not read as threshold 1
        if not isinstance(value, int) or isinstance(value, bool):
            raise SerializationError(f"field {key!r} must be an integer")
        return value
    if kind == BYTES:
        return hex_to_bytes(value)
    if isinstance(kind, list):
        return tuple(_decode(kind[0], group, item) for item in list_field(key, value))
    if not isinstance(kind, str):
        return _decode(kind, group, value)
    number = hex_to_int(value)
    if kind == INTEGER:
        return number
    if kind == SCALAR:
        if number >= group.q:
            raise MalformedSignatureError(f"field {key!r} is not reduced mod q")
        return Scalar(number, group)
    if kind == MASKED:
        if number >= group.p:
            raise MalformedSignatureError(f"field {key!r} is not reduced mod p")
        return number
    try:
        return group.element(number)
    except ValueError as exc:  # NotInSubgroupError or outside [1, p-1]
        raise MalformedSignatureError(f"field {key!r} is not a subgroup element") from exc


def _codec(table):
    """`NAME_to_dict(artifact)` and `NAME_from_dict(group, data)` of one table."""
    return partial(_encode, table), partial(_decode, table)


# -- the artifact tables ------------------------------------------------------

def _stored_keypair(x: Scalar, y: int) -> KeyPair:
    """The key pair of a key file, whose y must be g^x."""
    keypair = KeyPair.from_private(x.group, x.value)  # x = 0 is a ValueError there
    if keypair.y.value != y:
        raise ValueError("stored public key does not match the private key")
    return keypair


def _public_key(value: GroupElement) -> GroupElement:
    """A public key is a bare element other than 1: y = 1 masks every value to itself."""
    if value.value == 1:
        raise ValueError("public key is the identity")
    return value


# no group exists yet to range-check p, q, g against: SchnorrGroup validates them
_GROUP = (SchnorrGroup, (("p", "p", INTEGER), ("q", "q", INTEGER), ("g", "g", INTEGER)))
_KEYPAIR = (_stored_keypair, (("x", "x", SCALAR), ("y", "y", INTEGER)))
_PUBLIC_KEY = (_public_key, (("y", "value", ELEMENT),))  # y is the element's value
_DIRECTED_SIGNATURE = (DirectedSignature, (
    ("s", "s", SCALAR), ("w", "w", ELEMENT), ("v", "v", ELEMENT), ("m", "message", BYTES),
))
_SIGNER_PROOF = (SignerProof, (("v_c", "v_c", ELEMENT),))
_RECEIVER_PROOF = (ReceiverProof, (("w_c", "w_c", ELEMENT), ("v_c", "v_c", ELEMENT)))
# secret material: store alongside the signature it belongs to
_NONCE_STATE = (SignerNonceState, (
    ("k1", "k1", SCALAR), ("k2", "k2", SCALAR), ("sig", "signature", _DIRECTED_SIGNATURE),
))
_COMMITMENT = (RecoveredCommitment, (
    ("r_elem", "r_elem", ELEMENT), ("r_hash", "r_hash", SCALAR),
))
_MASKED_SHARE = (MaskedShare, (("u", "u", SCALAR), ("v", "v", MASKED)))
_THRESHOLD_SIGNATURE = (ThresholdSignature, (
    ("s", "s", SCALAR), ("w", "w", ELEMENT), ("m", "message", BYTES),
    ("k", "threshold", THRESHOLD), ("shares", "masked_shares", [_MASKED_SHARE]),
))
_SHARE = (Share, (("u", "u", SCALAR), ("v", "v", SCALAR)))
_SHADOW = (ModifiedShadow, (("u", "u", SCALAR), ("ms", "value", SCALAR)))
# wire format a networked combiner would consume
_PARTIAL = (PartialResult, (("u", "u", SCALAR), ("r", "value", ELEMENT)))
_CIPHERTEXT = (ThresholdCiphertext, (
    ("s", "s", SCALAR), ("w", "w", ELEMENT), ("k", "threshold", THRESHOLD),
    ("c", "ciphertext", BYTES), ("nonce", "nonce", BYTES),
    ("shares", "masked_shares", [_MASKED_SHARE]),
))

group_to_dict, group_from_dict = partial(_encode, _GROUP), partial(_decode, _GROUP, None)
keypair_to_dict, keypair_from_dict = _codec(_KEYPAIR)
directed_signature_to_dict, directed_signature_from_dict = _codec(_DIRECTED_SIGNATURE)
nonce_state_to_dict, nonce_state_from_dict = _codec(_NONCE_STATE)
commitment_to_dict, commitment_from_dict = _codec(_COMMITMENT)
threshold_signature_to_dict, threshold_signature_from_dict = _codec(_THRESHOLD_SIGNATURE)
share_to_dict, share_from_dict = _codec(_SHARE)
shadow_to_dict, shadow_from_dict = _codec(_SHADOW)
partial_to_dict, partial_from_dict = _codec(_PARTIAL)
ciphertext_to_dict, ciphertext_from_dict = _codec(_CIPHERTEXT)
public_key_to_dict, public_key_from_dict = _codec(_PUBLIC_KEY)


# -- the hand-written format --------------------------------------------------

def proof_to_dict(proof: Union[SignerProof, ReceiverProof]) -> dict:
    return _encode(_RECEIVER_PROOF if isinstance(proof, ReceiverProof) else _SIGNER_PROOF, proof)


def proof_from_dict(group: SchnorrGroup, data: dict) -> Union[SignerProof, ReceiverProof]:
    """Sniff the proof flavour: a receiver proof also substitutes w."""
    receiver = isinstance(data, dict) and "w_c" in data
    return _decode(_RECEIVER_PROOF if receiver else _SIGNER_PROOF, group, data)

