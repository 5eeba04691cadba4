"""Group-directed encryption: round trips, key agreement, failure modes."""

import itertools
import random

import pytest

import dirsig.group
from dirsig.group import keygen
from dirsig.hashing import Sha256Hash
from dirsig.shamir import ThresholdRangeError
from dirsig.threshold import (
    GroupDirectory,
    GroupMember,
    MaskedShare,
    QuorumSizeError,
    ThresholdSignature,
    combine_and_verify,
    modify_shadow,
    partial_result,
    recover_share,
    sign_for_group,
)
from dirsig.threshold_crypto import (
    _RESPONSE_TAG,
    DecryptionAuthenticationError,
    SenderAuthenticationError,
    ThresholdCiphertext,
    decrypt_with_quorum,
    encrypt_to_group,
)

PLAINTEXT = b"the quorum may read this"


def _setup(group, rng, n):
    sender = keygen(group, rng)
    members = {u: keygen(group, rng) for u in range(1, n + 1)}
    directory = GroupDirectory(
        members=tuple(
            GroupMember(u=group.scalar(u), y=members[u].y) for u in range(1, n + 1)
        )
    )
    return sender, members, directory


def _quorum(group, members, ids):
    return [(members[u], group.scalar(u)) for u in ids]


def test_toy_round_trip_all_quorums(toy_group):
    rng = random.Random(97)
    sender, members, directory = _setup(toy_group, rng, 3)
    ct = encrypt_to_group(toy_group, sender, directory, 2, PLAINTEXT, rng)
    for ids in itertools.combinations((1, 2, 3), 2):
        quorum = _quorum(toy_group, members, ids)
        assert decrypt_with_quorum(toy_group, ct, quorum, sender.y) == PLAINTEXT


def test_key_agreement_both_sides(toy_group):
    """Sender-side key h(g^k1) equals the quorum-side key h(R)."""
    rng = random.Random(101)
    sender, members, directory = _setup(toy_group, rng, 3)
    h = Sha256Hash()
    ct = encrypt_to_group(toy_group, sender, directory, 2, PLAINTEXT, rng, nonces=(9, 5))
    sender_key = h.hash_to_key(toy_group.generator ** toy_group.scalar(9))
    # rebuilding R through the member path must land on the same key:
    # decryption succeeding under an authenticated cipher proves it
    assert decrypt_with_quorum(
        toy_group, ct, _quorum(toy_group, members, (1, 3)), sender.y
    ) == PLAINTEXT
    assert h.hash_to_key(toy_group.element(pow(3, 9, 23))) == sender_key


def test_single_member_group_round_trip(toy_group):
    rng = random.Random(103)
    sender, members, directory = _setup(toy_group, rng, 1)
    ct = encrypt_to_group(toy_group, sender, directory, 1, PLAINTEXT, rng)
    assert decrypt_with_quorum(
        toy_group, ct, _quorum(toy_group, members, (1,)), sender.y
    ) == PLAINTEXT


def test_repeated_encryption_is_fresh(big_group):
    """No two ciphertexts of the same message share w, masked shares, or c."""
    rng = random.Random(107)
    sender, members, directory = _setup(big_group, rng, 3)
    seen_w, seen_c, seen_shares = set(), set(), set()
    for _ in range(100):
        ct = encrypt_to_group(big_group, sender, directory, 2, PLAINTEXT, rng)
        shares = tuple(ms.v for ms in ct.masked_shares)
        assert ct.w.value not in seen_w
        assert ct.ciphertext not in seen_c
        assert shares not in seen_shares
        seen_w.add(ct.w.value)
        seen_c.add(ct.ciphertext)
        seen_shares.add(shares)


def test_undersized_quorum_rejected(toy_group):
    rng = random.Random(109)
    sender, members, directory = _setup(toy_group, rng, 3)
    ct = encrypt_to_group(toy_group, sender, directory, 2, PLAINTEXT, rng)
    with pytest.raises(QuorumSizeError):
        decrypt_with_quorum(toy_group, ct, _quorum(toy_group, members, (1,)), sender.y)


def test_corrupted_share_fails_sender_authentication(big_group):
    rng = random.Random(113)
    sender, members, directory = _setup(big_group, rng, 3)
    ct = encrypt_to_group(big_group, sender, directory, 2, PLAINTEXT, rng)
    tampered_shares = tuple(
        MaskedShare(u=ms.u, v=(ms.v + 1) % big_group.p) if ms.u.value == 1 else ms
        for ms in ct.masked_shares
    )
    tampered = ThresholdCiphertext(
        s=ct.s, w=ct.w, nonce=ct.nonce, ciphertext=ct.ciphertext,
        masked_shares=tampered_shares, threshold=ct.threshold,
    )
    with pytest.raises(SenderAuthenticationError):
        decrypt_with_quorum(
            big_group, tampered, _quorum(big_group, members, (1, 2)), sender.y
        )


def test_corrupted_cipher_nonce_fails_tag_check(toy_group):
    """The cipher nonce is outside the response binding, so tampering with
    it passes sender authentication and must be caught by the AEAD tag."""
    rng = random.Random(127)
    sender, members, directory = _setup(toy_group, rng, 3)
    ct = encrypt_to_group(toy_group, sender, directory, 2, PLAINTEXT, rng)
    flipped = bytes([ct.nonce[0] ^ 1]) + ct.nonce[1:]
    tampered = ThresholdCiphertext(
        s=ct.s, w=ct.w, nonce=flipped, ciphertext=ct.ciphertext,
        masked_shares=ct.masked_shares, threshold=ct.threshold,
    )
    with pytest.raises(DecryptionAuthenticationError):
        decrypt_with_quorum(
            toy_group, tampered, _quorum(toy_group, members, (1, 2)), sender.y
        )


def test_corrupted_ciphertext_fails_sender_authentication(big_group):
    """Ciphertext bytes are bound by the response, so corruption is caught
    before any decryption is attempted."""
    rng = random.Random(131)
    sender, members, directory = _setup(big_group, rng, 3)
    ct = encrypt_to_group(big_group, sender, directory, 2, PLAINTEXT, rng)
    body = bytearray(ct.ciphertext)
    body[0] ^= 1
    tampered = ThresholdCiphertext(
        s=ct.s, w=ct.w, nonce=ct.nonce, ciphertext=bytes(body),
        masked_shares=ct.masked_shares, threshold=ct.threshold,
    )
    with pytest.raises(SenderAuthenticationError):
        decrypt_with_quorum(
            big_group, tampered, _quorum(big_group, members, (1, 2)), sender.y
        )


def test_empty_ciphertext_rejected(toy_group):
    rng = random.Random(137)
    sender, members, directory = _setup(toy_group, rng, 2)
    ct = encrypt_to_group(toy_group, sender, directory, 2, PLAINTEXT, rng)
    with pytest.raises(ValueError):
        ThresholdCiphertext(
            s=ct.s, w=ct.w, nonce=ct.nonce, ciphertext=b"",
            masked_shares=ct.masked_shares, threshold=ct.threshold,
        )


@pytest.mark.parametrize("threshold", [0, 3])
def test_ciphertext_threshold_out_of_range(toy_group, threshold):
    """Same error as a threshold signature, so the CLI says threshold-range."""
    rng = random.Random(137)
    sender, members, directory = _setup(toy_group, rng, 2)
    ct = encrypt_to_group(toy_group, sender, directory, 2, PLAINTEXT, rng)
    with pytest.raises(ThresholdRangeError):
        ThresholdCiphertext(
            s=ct.s, w=ct.w, nonce=ct.nonce, ciphertext=ct.ciphertext,
            masked_shares=ct.masked_shares, threshold=threshold,
        )


def test_production_size_round_trip(big_group):
    rng = random.Random(139)
    sender, members, directory = _setup(big_group, rng, 4)
    ct = encrypt_to_group(big_group, sender, directory, 3, PLAINTEXT, rng)
    for ids in itertools.combinations(range(1, 5), 3):
        assert decrypt_with_quorum(
            big_group, ct, _quorum(big_group, members, ids), sender.y
        ) == PLAINTEXT


def _partials(group, sig, members, ids):
    quorum = _quorum(group, members, ids)
    quorum_ids = [u for _, u in quorum]
    return [
        partial_result(group, modify_shadow(recover_share(group, sig, key, u), quorum_ids))
        for key, u in quorum
    ]


def test_a_ciphertext_is_no_threshold_signature_over_its_body(big_group):
    """The encryption response is tagged, so repackaging it signs nothing."""
    rng = random.Random(3)
    sender, members, directory = _setup(big_group, rng, 3)
    ct = encrypt_to_group(big_group, sender, directory, 2, PLAINTEXT, rng)

    def forged_verifies(message):
        forged = ThresholdSignature(
            s=ct.s, w=ct.w, message=message,
            masked_shares=ct.masked_shares, threshold=ct.threshold,
        )
        partials = _partials(big_group, forged, members, (1, 2))
        return combine_and_verify(big_group, forged, partials, sender.y)

    assert not forged_verifies(ct.ciphertext)
    assert not forged_verifies(_RESPONSE_TAG + ct.ciphertext)


def test_a_threshold_signature_is_no_ciphertext(big_group):
    rng = random.Random(3)
    signer, members, directory = _setup(big_group, rng, 3)
    sig = sign_for_group(big_group, signer, directory, 2, PLAINTEXT, rng)
    reread = ThresholdCiphertext(
        s=sig.s, w=sig.w, nonce=bytes(12), ciphertext=sig.message,
        masked_shares=sig.masked_shares, threshold=sig.threshold,
    )
    with pytest.raises(SenderAuthenticationError):
        decrypt_with_quorum(big_group, reread, _quorum(big_group, members, (1, 2)), signer.y)


@pytest.mark.parametrize("length", [0, 11, 13])
def test_cipher_nonce_must_be_twelve_bytes(toy_group, length):
    rng = random.Random(149)
    sender, members, directory = _setup(toy_group, rng, 2)
    ct = encrypt_to_group(toy_group, sender, directory, 2, PLAINTEXT, rng)
    with pytest.raises(ValueError, match="nonce"):
        ThresholdCiphertext(
            s=ct.s, w=ct.w, nonce=bytes(length), ciphertext=ct.ciphertext,
            masked_shares=ct.masked_shares, threshold=ct.threshold,
        )


def test_without_an_rng_encryption_draws_from_the_group_module(
    toy_group, toy_keys, toy_directory, monkeypatch
):
    """Like every other flow, `encrypt_to_group` falls back to `group._sysrand`, read at
    call time: under one seeded generator, two calls give one ciphertext."""

    def twice(flow):
        outputs = []
        for _ in range(2):
            monkeypatch.setattr(dirsig.group, "_sysrand", random.Random(0x5EED))
            outputs.append(flow(toy_group, toy_keys["signer"], toy_directory, 2, PLAINTEXT))
        return outputs

    first, second = twice(sign_for_group)
    assert first == second
    first, second = twice(encrypt_to_group)
    assert (first.nonce, first.ciphertext) == (second.nonce, second.ciphertext)
    assert first == second
