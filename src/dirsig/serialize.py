"""JSON file and wire formats for every artifact the toolkit exchanges.

Big integers are lowercase hexadecimal, big-endian, without leading
zeros; byte strings (messages, ciphertexts) are plain hex. Parsing is the
trust boundary: scalars are range-checked and group elements are checked
for subgroup membership here, so protocol code can assume well-formed
values.
"""

from __future__ import annotations

import json
import re
from typing import Any, Union

from .directed import (
    DirectedSignature,
    ReceiverProof,
    RecoveredCommitment,
    SignerNonceState,
    SignerProof,
)
from .group import GroupElement, KeyPair, NotInSubgroupError, Scalar, SchnorrGroup
from .schnorr import SchnorrSignature
from .shamir import Share
from .threshold import (
    GroupDirectory,
    GroupMember,
    MaskedShare,
    ModifiedShadow,
    PartialResult,
    ThresholdSignature,
)
from .threshold_crypto import ThresholdCiphertext


class SerializationError(ValueError):
    """A document does not parse as the expected artifact."""


class MalformedSignatureError(SerializationError):
    """A signature document carries out-of-range or non-member fields."""


def int_to_hex(value: int) -> str:
    if value < 0:
        raise ValueError("negative integers have no wire encoding")
    return format(value, "x")


# The only encoding of each integer: no prefix, sign, separator, whitespace,
# uppercase digit or leading zero. Accepting any other spelling would make
# every signature field malleable.
_CANONICAL_HEX = re.compile(r"0|[1-9a-f][0-9a-f]*")


def hex_to_int(text: str) -> int:
    if not isinstance(text, str) or not _CANONICAL_HEX.fullmatch(text):
        raise SerializationError(f"expected canonical lowercase hex, got {text!r}")
    return int(text, 16)


def bytes_to_hex(data: bytes) -> str:
    return bytes(data).hex()


def hex_to_bytes(text: str) -> bytes:
    if not isinstance(text, str):
        raise SerializationError(f"expected a hex string, got {text!r}")
    try:
        return bytes.fromhex(text)
    except ValueError as exc:
        raise SerializationError(f"invalid hex bytes {text!r}") from exc


def _field(data: dict, key: str) -> Any:
    try:
        return data[key]
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"missing field {key!r}") from exc


def _list_field(data: dict, key: str) -> list:
    value = _field(data, key)
    if not isinstance(value, list):
        raise SerializationError(f"field {key!r} must be a list")
    return value


def _threshold_field(data: dict) -> int:
    threshold = _field(data, "k")
    # bool is a subclass of int, and true must not read as threshold 1
    if not isinstance(threshold, int) or isinstance(threshold, bool):
        raise SerializationError("threshold k must be an integer")
    return threshold


def _masked_shares_field(group: SchnorrGroup, data: dict) -> tuple:
    return tuple(_masked_share_from_dict(group, entry) for entry in _list_field(data, "shares"))


def _parse_scalar(group: SchnorrGroup, data: dict, key: str) -> Scalar:
    value = hex_to_int(_field(data, key))
    if value >= group.q:
        raise MalformedSignatureError(f"field {key!r} is not reduced mod q")
    return Scalar(value, group)


def _parse_element(group: SchnorrGroup, data: dict, key: str) -> GroupElement:
    value = hex_to_int(_field(data, key))
    try:
        return group.element(value)
    except (NotInSubgroupError, ValueError) as exc:
        raise MalformedSignatureError(f"field {key!r}: {exc}") from exc


# -- group parameters and keys ------------------------------------------------

def group_to_dict(group: SchnorrGroup) -> dict:
    return {"p": int_to_hex(group.p), "q": int_to_hex(group.q), "g": int_to_hex(group.g)}


def group_from_dict(data: dict) -> SchnorrGroup:
    return SchnorrGroup(
        p=hex_to_int(_field(data, "p")),
        q=hex_to_int(_field(data, "q")),
        g=hex_to_int(_field(data, "g")),
    )


def keypair_to_dict(keypair: KeyPair) -> dict:
    return {"x": int_to_hex(keypair.x.value), "y": int_to_hex(keypair.y.value)}


def keypair_from_dict(group: SchnorrGroup, data: dict) -> KeyPair:
    keypair = KeyPair.from_private(group, hex_to_int(_field(data, "x")))
    if keypair.y.value != hex_to_int(_field(data, "y")):
        raise SerializationError("stored public key does not match the private key")
    return keypair


def public_key_to_dict(y: GroupElement) -> dict:
    return {"y": int_to_hex(y.value)}


def public_key_from_dict(group: SchnorrGroup, data: dict) -> GroupElement:
    return _parse_element(group, data, "y")


# -- signatures and proofs ----------------------------------------------------

def schnorr_signature_to_dict(sig: SchnorrSignature) -> dict:
    return {"r": int_to_hex(sig.r.value), "s": int_to_hex(sig.s.value)}


def schnorr_signature_from_dict(group: SchnorrGroup, data: dict) -> SchnorrSignature:
    return SchnorrSignature(
        r=_parse_scalar(group, data, "r"),
        s=_parse_scalar(group, data, "s"),
    )


def directed_signature_to_dict(sig: DirectedSignature) -> dict:
    return {
        "s": int_to_hex(sig.s.value),
        "w": int_to_hex(sig.w.value),
        "v": int_to_hex(sig.v.value),
        "m": bytes_to_hex(sig.message),
    }


def directed_signature_from_dict(group: SchnorrGroup, data: dict) -> DirectedSignature:
    return DirectedSignature(
        s=_parse_scalar(group, data, "s"),
        w=_parse_element(group, data, "w"),
        v=_parse_element(group, data, "v"),
        message=hex_to_bytes(_field(data, "m")),
    )


def proof_to_dict(proof: Union[SignerProof, ReceiverProof]) -> dict:
    if isinstance(proof, SignerProof):
        return {"v_c": int_to_hex(proof.v_c.value)}
    return {"w_c": int_to_hex(proof.w_c.value), "v_c": int_to_hex(proof.v_c.value)}


def proof_from_dict(group: SchnorrGroup, data: dict) -> Union[SignerProof, ReceiverProof]:
    """Sniff the proof flavour: a receiver proof also substitutes w."""
    if "w_c" in data:
        return ReceiverProof(
            w_c=_parse_element(group, data, "w_c"),
            v_c=_parse_element(group, data, "v_c"),
        )
    return SignerProof(v_c=_parse_element(group, data, "v_c"))


def nonce_state_to_dict(state: SignerNonceState) -> dict:
    # secret material: store alongside the signature it belongs to
    return {
        "k1": int_to_hex(state.k1.value),
        "k2": int_to_hex(state.k2.value),
        "sig": directed_signature_to_dict(state.signature),
    }


def nonce_state_from_dict(group: SchnorrGroup, data: dict) -> SignerNonceState:
    return SignerNonceState(
        k1=_parse_scalar(group, data, "k1"),
        k2=_parse_scalar(group, data, "k2"),
        signature=directed_signature_from_dict(group, _field(data, "sig")),
    )


def commitment_to_dict(commitment: RecoveredCommitment) -> dict:
    return {
        "r_elem": int_to_hex(commitment.r_elem.value),
        "r_hash": int_to_hex(commitment.r_hash.value),
    }


def commitment_from_dict(group: SchnorrGroup, data: dict) -> RecoveredCommitment:
    return RecoveredCommitment(
        r_elem=_parse_element(group, data, "r_elem"),
        r_hash=_parse_scalar(group, data, "r_hash"),
    )


# -- threshold artifacts ------------------------------------------------------

def _masked_share_to_dict(share: MaskedShare) -> dict:
    return {"u": int_to_hex(share.u.value), "v": int_to_hex(share.v)}


def _masked_share_from_dict(group: SchnorrGroup, data: dict) -> MaskedShare:
    v = hex_to_int(_field(data, "v"))
    if v >= group.p:
        raise MalformedSignatureError("masked share is not reduced mod p")
    return MaskedShare(u=_parse_scalar(group, data, "u"), v=v)


def threshold_signature_to_dict(sig: ThresholdSignature) -> dict:
    return {
        "s": int_to_hex(sig.s.value),
        "w": int_to_hex(sig.w.value),
        "m": bytes_to_hex(sig.message),
        "k": sig.threshold,
        "shares": [_masked_share_to_dict(ms) for ms in sig.masked_shares],
    }


def threshold_signature_from_dict(group: SchnorrGroup, data: dict) -> ThresholdSignature:
    return ThresholdSignature(
        s=_parse_scalar(group, data, "s"),
        w=_parse_element(group, data, "w"),
        message=hex_to_bytes(_field(data, "m")),
        masked_shares=_masked_shares_field(group, data),
        threshold=_threshold_field(data),
    )


def share_to_dict(share: Share) -> dict:
    return {"u": int_to_hex(share.u.value), "v": int_to_hex(share.v.value)}


def share_from_dict(group: SchnorrGroup, data: dict) -> Share:
    return Share(u=_parse_scalar(group, data, "u"), v=_parse_scalar(group, data, "v"))


def shadow_to_dict(shadow: ModifiedShadow) -> dict:
    return {"u": int_to_hex(shadow.u.value), "ms": int_to_hex(shadow.value.value)}


def shadow_from_dict(group: SchnorrGroup, data: dict) -> ModifiedShadow:
    return ModifiedShadow(
        u=_parse_scalar(group, data, "u"),
        value=_parse_scalar(group, data, "ms"),
    )


def partial_to_dict(partial: PartialResult) -> dict:
    # wire format a networked combiner would consume
    return {"u": int_to_hex(partial.u.value), "r": int_to_hex(partial.value.value)}


def partial_from_dict(group: SchnorrGroup, data: dict) -> PartialResult:
    return PartialResult(
        u=_parse_scalar(group, data, "u"),
        value=_parse_element(group, data, "r"),
    )


def directory_to_dict(directory: GroupDirectory) -> dict:
    return {
        "members": [
            {"u": int_to_hex(m.u.value), "y": int_to_hex(m.y.value)}
            for m in directory.members
        ]
    }


def directory_from_dict(group: SchnorrGroup, data: dict) -> GroupDirectory:
    members = tuple(
        GroupMember(u=_parse_scalar(group, entry, "u"), y=_parse_element(group, entry, "y"))
        for entry in _list_field(data, "members")
    )
    return GroupDirectory(members=members)


def ciphertext_to_dict(ct: ThresholdCiphertext) -> dict:
    return {
        "s": int_to_hex(ct.s.value),
        "w": int_to_hex(ct.w.value),
        "k": ct.threshold,
        "c": bytes_to_hex(ct.ciphertext),
        "nonce": bytes_to_hex(ct.nonce),
        "shares": [_masked_share_to_dict(ms) for ms in ct.masked_shares],
    }


def ciphertext_from_dict(group: SchnorrGroup, data: dict) -> ThresholdCiphertext:
    return ThresholdCiphertext(
        s=_parse_scalar(group, data, "s"),
        w=_parse_element(group, data, "w"),
        nonce=hex_to_bytes(_field(data, "nonce")),
        ciphertext=hex_to_bytes(_field(data, "c")),
        masked_shares=_masked_shares_field(group, data),
        threshold=_threshold_field(data),
    )


# -- file helpers -------------------------------------------------------------

def save_json(path, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SerializationError(f"{path}: expected a JSON object")
    return data
