"""Group-directed hybrid encryption with k-of-n joint decryption.

The sender reuses the threshold signing construction: the commitment
g^k1 becomes a per-message session secret, hashed into a symmetric key.
Any k members of the designated group rebuild the commitment from their
masked shares and derive the same key. The group secret is fresh per
ciphertext and nothing persists outside the ciphertext itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from .directed import respond
from .group import GroupElement, KeyPair, Scalar, SchnorrGroup
from .hashing import DEFAULT_HASH, HashFunction
from .shamir import SharingPolynomial, _check_threshold
from .threshold import (
    GroupDirectory,
    MaskedShare,
    _check_quorum,
    _combine,
    _deal_masked_shares,
    modify_shadow,
    partial_result,
    recover_share,
)

_NONCE_BYTES = 12  # ChaCha20-Poly1305 (RFC 8439)
# The response hashes (R, c) under this tag, so no ciphertext reads as a
# threshold signature over c, nor a signature as a ciphertext.
_RESPONSE_TAG = b"dirsig/gencrypt"


class SenderAuthenticationError(Exception):
    """The rebuilt commitment fails the sender's response equation."""


class DecryptionAuthenticationError(Exception):
    """The authenticated cipher rejected the ciphertext."""


@dataclass(frozen=True)
class ThresholdCiphertext:
    """The broadcast (s, w, ciphertext, masked shares, threshold).

    The response s binds the ciphertext bytes, so the quorum can
    authenticate the sender before attempting decryption. The cipher
    nonce is checked here, before any member step runs.
    """

    s: Scalar
    w: GroupElement
    nonce: bytes
    ciphertext: bytes
    masked_shares: Tuple[MaskedShare, ...]
    threshold: int

    def __post_init__(self) -> None:
        if not self.ciphertext:
            raise ValueError("ciphertext must be nonempty")
        if len(self.nonce) != _NONCE_BYTES:
            raise ValueError(f"cipher nonce must be {_NONCE_BYTES} bytes, got {len(self.nonce)}")
        _check_threshold(self.threshold, len(self.masked_shares))


def encrypt_to_group(
    group: SchnorrGroup,
    sender: KeyPair,
    directory: GroupDirectory,
    k: int,
    message: bytes,
    rng: Optional[random.Random] = None,
    h: HashFunction = DEFAULT_HASH,
    *,
    nonces: Optional[Tuple[int, int]] = None,
    polynomial: Union[SharingPolynomial, Sequence[int], None] = None,
) -> ThresholdCiphertext:
    """Encrypt so that any k of the directory's members can jointly decrypt.

    The session key is derived from the fresh commitment g^k1; the share
    dealing is identical to threshold signing. The response is computed
    over the ciphertext under the encryption tag (s = k1 + x*h(g^k1, c)),
    which the quorum can check before decrypting.
    """
    rng = rng or random.SystemRandom()
    k1, w, commitment, masked = _deal_masked_shares(group, directory, k, rng, nonces, polynomial)
    key = h.hash_to_key(commitment)
    cipher_nonce = rng.getrandbits(8 * _NONCE_BYTES).to_bytes(_NONCE_BYTES, "big")
    ciphertext = ChaCha20Poly1305(key).encrypt(cipher_nonce, bytes(message), None)
    return ThresholdCiphertext(
        s=respond(k1, sender, commitment, ciphertext, h.tagged(_RESPONSE_TAG)),
        w=w,
        nonce=cipher_nonce,
        ciphertext=ciphertext,
        masked_shares=masked,
        threshold=k,
    )


def decrypt_with_quorum(
    group: SchnorrGroup,
    ct: ThresholdCiphertext,
    quorum: Sequence[Tuple[KeyPair, Scalar]],
    sender_pub: GroupElement,
    h: HashFunction = DEFAULT_HASH,
) -> bytes:
    """Rebuild the session key with exactly `threshold` members and decrypt.

    Each member runs the share-recovery, shadow and partial-result steps of
    threshold verification; the combined commitment is first checked
    against the sender's response, then hashed into the key. Corruption
    surfaces as SenderAuthenticationError (wrong commitment) or
    DecryptionAuthenticationError (cipher tag mismatch), never as garbage
    plaintext.
    """
    quorum_ids = [u for _, u in quorum]
    _check_quorum(quorum_ids, ct.threshold)  # before any member step

    # the member-side steps reuse the threshold-verification machinery
    partials = [
        partial_result(group, modify_shadow(recover_share(group, ct, member, u), quorum_ids))
        for member, u in quorum
    ]

    tagged = h.tagged(_RESPONSE_TAG)
    accept, r_elem = _combine(group, ct, partials, sender_pub, ct.ciphertext, tagged)
    if not accept:
        raise SenderAuthenticationError("rebuilt commitment does not match the response")

    key = h.hash_to_key(r_elem)
    try:
        return ChaCha20Poly1305(key).decrypt(ct.nonce, ct.ciphertext, None)
    except InvalidTag as exc:
        raise DecryptionAuthenticationError("authenticated decryption failed") from exc
