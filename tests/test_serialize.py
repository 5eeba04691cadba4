"""File formats: hex conventions, round trips, malformed-input rejection."""

import json
import random
import stat

import pytest

from dirsig.directed import prove_by_receiver, prove_by_signer, sign_directed, verify_directed
from dirsig.group import keygen
from dirsig.keystore import Keystore, KeystoreError
from dirsig.serialize import (
    MalformedSignatureError,
    SerializationError,
    ciphertext_from_dict,
    ciphertext_to_dict,
    commitment_from_dict,
    commitment_to_dict,
    directed_signature_from_dict,
    directed_signature_to_dict,
    group_from_dict,
    group_to_dict,
    bytes_to_hex,
    hex_to_bytes,
    hex_to_int,
    int_to_hex,
    keypair_from_dict,
    load_json,
    keypair_to_dict,
    nonce_state_from_dict,
    nonce_state_to_dict,
    partial_from_dict,
    partial_to_dict,
    proof_from_dict,
    proof_to_dict,
    shadow_from_dict,
    shadow_to_dict,
    share_from_dict,
    share_to_dict,
    threshold_signature_from_dict,
    threshold_signature_to_dict,
)
from dirsig.shamir import Share
from dirsig.threshold import ModifiedShadow, PartialResult, sign_for_group
from dirsig.threshold_crypto import encrypt_to_group

from conftest import MSG


def test_hex_convention():
    assert int_to_hex(255) == "ff"
    assert int_to_hex(0) == "0"
    assert int_to_hex(1 << 64) == "10000000000000000"
    assert hex_to_int("ff") == 255
    with pytest.raises(SerializationError):
        hex_to_int("zz")
    with pytest.raises(SerializationError):
        hex_to_int("")


@pytest.mark.parametrize(
    "text", ["0x1f", "0x1F", "1F", " 00_1f\n", "01f", "00", "+1f", "-1f", "1f\n", " 1f", "1_f", "\uff11"]
)
def test_non_canonical_hex_rejected(text):
    with pytest.raises(SerializationError):
        hex_to_int(text)


def test_non_canonical_hex_signature_field_rejected(toy_group):
    good = {"s": "5", "w": "10", "v": "1", "m": MSG.hex()}
    assert directed_signature_from_dict(toy_group, good)
    for field, text in (("s", "0x5"), ("w", "0A"), ("v", "01")):
        with pytest.raises(SerializationError):
            directed_signature_from_dict(toy_group, {**good, field: text})


@pytest.mark.parametrize(
    "text",
    ["6D", "6d 65", "6d65 ", " 6d65", "6d65\n", "6", "6d6", "0x6d", "6g", "\uff16\uff14", 65],
)
def test_non_canonical_bytes_rejected(toy_group, text):
    with pytest.raises(SerializationError):
        hex_to_bytes(text)
    good = {"s": "5", "w": "10", "v": "1", "m": MSG.hex()}
    with pytest.raises(SerializationError):
        directed_signature_from_dict(toy_group, {**good, "m": text})


def test_canonical_bytes_round_trip():
    for data in (b"", b"\x00", b"\x00\xff", MSG):
        assert hex_to_bytes(bytes_to_hex(data)) == data
    assert bytes_to_hex(b"\xab") == "ab"


def test_documents_carry_exactly_their_fields(toy_group):
    good = {"s": "5", "w": "10", "v": "1", "m": MSG.hex()}
    for bad in ({**good, "extra": "1"}, {**good, "M": good["m"]}, [good], "s"):
        with pytest.raises(SerializationError):
            directed_signature_from_dict(toy_group, bad)
    with pytest.raises(SerializationError):
        proof_from_dict(toy_group, {"v_c": "9", "w": "4"})
    with pytest.raises(SerializationError):
        group_from_dict({**group_to_dict(toy_group), "h": "2"})
    with pytest.raises(SerializationError):
        keypair_from_dict(toy_group, {"x": "4", "y": "c", "note": ""})


@pytest.mark.parametrize(
    "parse, value, described",
    [
        (hex_to_int, "0" + "ab" * 100, "str of length 201"),
        (hex_to_bytes, "AB" * 100, "str of length 200"),
        (hex_to_int, 7, "int"),
        (lambda v: keypair_from_dict(None, v), {"x": "ab" * 50, "y": "1", "z": "1"},
         "dict of length 3"),
        (lambda v: keypair_from_dict(None, v), ["ab" * 50], "list of length 1"),
    ],
    ids=["long-hex", "uppercase-bytes", "non-string", "extra-field", "non-object"],
)
def test_parse_errors_give_only_type_and_length(parse, value, described):
    """An offending value may be huge or secret, so errors never quote it."""
    with pytest.raises(SerializationError) as info:
        parse(value)
    assert str(info.value).endswith("got " + described)
    assert "ab" not in str(info.value).lower()


def _secret_documents(group):
    """For each parser of a secret file: (parse, a valid document, its secret fields, the
    field to malform). A commitment's R is designation-sensitive, like a secret."""
    rng = random.Random(0x5EC12E7)
    signer, receiver = keygen(group, rng), keygen(group, rng)
    sig, nonces = sign_directed(group, signer, receiver.y, MSG, rng)
    _, commitment = verify_directed(group, sig, receiver, signer.y)
    u, value = group.scalar(1), group.random_scalar(rng, nonzero=True)
    return {
        "keypair": (keypair_from_dict, keypair_to_dict(signer), ("x",), "y"),
        "nonce-state": (nonce_state_from_dict, nonce_state_to_dict(nonces), ("k1", "k2"), "sig"),
        "share": (share_from_dict, share_to_dict(Share(u=u, v=value)), ("v",), "u"),
        "shadow": (shadow_from_dict, shadow_to_dict(ModifiedShadow(u=u, value=value)),
                   ("ms",), "u"),
        "commitment": (commitment_from_dict, commitment_to_dict(commitment),
                       ("r_elem",), "r_hash"),
    }


def _malformed(value, how: str, q: int):
    """`value` (hex, or a nested signature by its s) spoiled one way."""
    if isinstance(value, dict):
        return [value] if how == "wrong-type" else {**value, "s": _malformed(value["s"], how, q)}
    return {"wrong-type": int(value, 16), "non-canonical": "0" + value,
            "out-of-range": format(q, "x")}[how]


@pytest.mark.parametrize("how", ["wrong-type", "non-canonical", "out-of-range", "extra-key"])
@pytest.mark.parametrize("name", ["keypair", "nonce-state", "share", "shadow", "commitment"])
def test_secret_file_parse_errors_do_not_echo_the_secret(big_group, name, how):
    """A document with a known secret beside one malformed field: the error names
    neither the secret's hex nor its decimal."""
    parse, good, secrets, field = _secret_documents(big_group)[name]
    if how == "extra-key":
        bad = {**good, "extra": good[secrets[0]]}
    else:
        bad = {**good, field: _malformed(good[field], how, big_group.q)}
    with pytest.raises(SerializationError) as info:
        parse(big_group, bad)
    message = str(info.value)
    for key in secrets:
        assert good[key] not in message and str(int(good[key], 16)) not in message, key


def test_subgroup_error_does_not_echo_the_value(toy_group):
    with pytest.raises(MalformedSignatureError) as info:
        directed_signature_from_dict(toy_group, {"s": "5", "w": "abcdef", "v": "1", "m": ""})
    assert "abcdef" not in str(info.value) and str(0xABCDEF) not in str(info.value)


def test_out_of_range_masked_share_is_malformed(toy_group):
    data = {"s": "5", "w": "10", "m": MSG.hex(), "k": 1, "shares": [{"u": "1", "v": "16"}]}
    assert threshold_signature_from_dict(toy_group, data).masked_shares[0].v == 22  # p - 1
    for bad in ({"u": "1", "v": "17"}, {"u": "b", "v": "1"}):  # v = p, u = q
        with pytest.raises(MalformedSignatureError):
            threshold_signature_from_dict(toy_group, {**data, "shares": [bad]})


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100_000 + "]" * 100_000,  # deeper than the parser can recurse
        '{"s": ' + "1" * 5000 + "}",  # past the interpreter's integer-digit limit
        "[]",
    ],
    ids=["deep-nesting", "long-integer", "non-object"],
)
def test_load_json_failures_are_serialization_errors(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(SerializationError):
        load_json(path)


def test_load_json_rejects_invalid_utf8(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"m": "\xff"}')
    with pytest.raises(SerializationError):
        load_json(path)


def test_group_round_trip(big_group):
    data = group_to_dict(big_group)
    assert all(s == s.lower() and not s.startswith("0x") for s in data.values())
    assert group_from_dict(data) == big_group


def test_keypair_round_trip(toy_group, toy_keys):
    data = keypair_to_dict(toy_keys["signer"])
    assert data == {"x": "4", "y": "c"}
    assert keypair_from_dict(toy_group, data) == toy_keys["signer"]


def test_keypair_mismatch_rejected(toy_group):
    with pytest.raises(SerializationError):
        keypair_from_dict(toy_group, {"x": "4", "y": "2"})


def test_directed_signature_round_trip(toy_group, toy_keys, fixture_hash):
    sig, nonces = sign_directed(
        toy_group, toy_keys["signer"], toy_keys["receiver"].y, MSG,
        h=fixture_hash, nonces=(9, 5),
    )
    data = directed_signature_to_dict(sig)
    assert data == {"s": "5", "w": "10", "v": "1", "m": MSG.hex()}
    assert directed_signature_from_dict(toy_group, data) == sig
    assert nonce_state_from_dict(toy_group, nonce_state_to_dict(nonces)) == nonces


def test_directed_signature_malformed_fields(toy_group):
    good = {"s": "5", "w": "10", "v": "1", "m": MSG.hex()}
    with pytest.raises(MalformedSignatureError):
        directed_signature_from_dict(toy_group, {**good, "s": "b"})  # s = 11 >= q
    with pytest.raises(MalformedSignatureError):
        directed_signature_from_dict(toy_group, {**good, "w": "5"})  # not in subgroup
    with pytest.raises(MalformedSignatureError):
        directed_signature_from_dict(toy_group, {**good, "v": "0"})  # out of range
    with pytest.raises(SerializationError):
        directed_signature_from_dict(toy_group, {"s": "5", "w": "10", "v": "1"})


def test_proof_round_trips(toy_group, toy_keys, fixture_hash):
    sig, nonces = sign_directed(
        toy_group, toy_keys["signer"], toy_keys["receiver"].y, MSG,
        h=fixture_hash, nonces=(9, 5),
    )
    signer_proof = prove_by_signer(toy_group, nonces, toy_keys["third"].y)
    parsed = proof_from_dict(toy_group, proof_to_dict(signer_proof))
    assert parsed == signer_proof

    _, commitment = verify_directed(
        toy_group, sig, toy_keys["receiver"], toy_keys["signer"].y, fixture_hash
    )
    receiver_proof = prove_by_receiver(
        toy_group, commitment, toy_keys["receiver"], toy_keys["third"].y, nonce=8
    )
    parsed = proof_from_dict(toy_group, proof_to_dict(receiver_proof))
    assert parsed == receiver_proof
    assert commitment_from_dict(toy_group, commitment_to_dict(commitment)) == commitment


def test_threshold_signature_round_trip(toy_group, toy_keys, toy_directory, fixture_hash):
    sig = sign_for_group(
        toy_group, toy_keys["signer"], toy_directory, 2, MSG,
        h=fixture_hash, nonces=(9, 5), polynomial=(9, 3),
    )
    data = threshold_signature_to_dict(sig)
    assert data["k"] == 2
    assert [entry["v"] for entry in data["shares"]] == ["9", "1", "5"]
    assert threshold_signature_from_dict(toy_group, data) == sig
    for bad in ({"k": "2"}, {"k": True}, {"shares": 5}, {"shares": data["shares"][0]}):
        with pytest.raises(SerializationError):
            threshold_signature_from_dict(toy_group, {**data, **bad})


def test_share_shadow_partial_round_trips(toy_group):
    share = Share(u=toy_group.scalar(1), v=toy_group.scalar(4))
    assert share_from_dict(toy_group, share_to_dict(share)) == share
    shadow = ModifiedShadow(u=toy_group.scalar(1), value=toy_group.scalar(7))
    assert shadow_from_dict(toy_group, shadow_to_dict(shadow)) == shadow
    partial = PartialResult(u=toy_group.scalar(1), value=toy_group.element(9))
    data = partial_to_dict(partial)
    assert set(data) == {"u", "r"}
    assert partial_from_dict(toy_group, data) == partial


def test_ciphertext_round_trip(toy_group, toy_keys, toy_directory):
    rng = random.Random(149)
    ct = encrypt_to_group(toy_group, toy_keys["signer"], toy_directory, 2, b"payload", rng)
    data = ciphertext_to_dict(ct)
    assert set(data) == {"s", "w", "k", "c", "nonce", "shares"}
    assert ciphertext_from_dict(toy_group, data) == ct
    for bad in ({"k": True}, {"shares": 5}, {"shares": "9"}):
        with pytest.raises(SerializationError):
            ciphertext_from_dict(toy_group, {**data, **bad})


def test_keystore_round_trip(tmp_path, toy_group):
    rng = random.Random(151)
    store = Keystore(tmp_path)
    keypair = keygen(toy_group, rng)
    store.save_keypair("alice", keypair)
    mode = stat.S_IMODE(store.keypair_path("alice").stat().st_mode)
    assert mode == 0o600
    assert store.load_keypair(toy_group, "alice") == keypair
    assert store.load_public(toy_group, "alice") == keypair.y
    # a public key is read from NAME.pub only, never from the private key file
    store.public_path("alice").unlink()
    with pytest.raises(FileNotFoundError):
        store.load_public(toy_group, "alice")


@pytest.mark.parametrize("existing", ["both", "pub"])
def test_keystore_refuses_to_replace_a_key(tmp_path, toy_keys, existing):
    """A second save of one name raises before writing, also over a lone NAME.pub."""
    store = Keystore(tmp_path)
    store.save_keypair("alice", toy_keys["signer"])
    if existing == "pub":
        store.keypair_path("alice").unlink()
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    with pytest.raises(KeystoreError, match="exists"):
        store.save_keypair("alice", toy_keys["receiver"])
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_keystore_rejects_path_tricks(tmp_path):
    store = Keystore(tmp_path)
    for name in ("", "../alice", "a/b", ".hidden"):
        with pytest.raises(KeystoreError):
            store.keypair_path(name)


def test_public_key_file_is_minimal(tmp_path, toy_group, toy_keys):
    store = Keystore(tmp_path)
    store.save_keypair("bob", toy_keys["receiver"])
    data = json.loads(store.public_path("bob").read_text())
    assert data == {"y": "2"}
