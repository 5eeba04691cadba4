"""Directed signatures: only the designated receiver can verify directly.

The signer masks the hash commitment g^k1 under the receiver's public key,
so recovering it takes the receiver's private key. Either party can later
re-mask the commitment for a chosen third party, who then runs the
ordinary verification equation on the substituted components.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from .group import (
    GroupElement, KeyPair, Member, NotInSubgroupError, PublicScalar, Scalar, SchnorrGroup, _nonce,
)
from .hashing import DEFAULT_HASH, HashFunction


def respond(
    k1: Scalar, signer: KeyPair, commitment: GroupElement, m: bytes, h: HashFunction
) -> Scalar:
    """s = k1 + x*h(g^k1, m), the response of every signer here; m is the signed bytes."""
    return k1 + signer.x * h.hash_to_scalar(commitment, m)


def _member(e: GroupElement) -> Member:
    """e as a `Member`: one membership power for a plain element, none for a member."""
    return e if isinstance(e, Member) else e.group.element(e.value)


def check_response(
    group: SchnorrGroup, s: Scalar, r: GroupElement, y: GroupElement, m: bytes, h: HashFunction
) -> Tuple[bool, Scalar]:
    """Accept iff g^s = R * y^h(R, m) for a rebuilt commitment R = `r`; also return h(R, m).

    s is public, so g^s may take variable time; h(R, m) gives R away, so y^h is a secret power,
    of a member y as `unmask`'s w^x is: a plain y pays one membership power, or raises.
    """
    r_hash = h.hash_to_scalar(r, m)
    return group.generator ** PublicScalar(s.value, s.group) == r * _member(y) ** r_hash, r_hash


def mask(value: int, y: GroupElement, k: Scalar) -> int:
    """Blind `value` under public key y with nonce k: value * y^k mod p, unblinded by w = g^-k.

    Raises NotInSubgroupError unless y is a subgroup member other than 1.
    """
    if y.value == 1:
        raise NotInSubgroupError("the identity is not a member key")
    return value * (_member(y) ** k).value % y.group.p


def unmask(v: int, w: GroupElement, x: Scalar) -> int:
    """Undo `mask` with the private key x of y = g^x: v * w^x mod p, for a member w only."""
    return v * (_member(w) ** x).value % w.group.p


@dataclass(frozen=True)
class DirectedSignature:
    """The tuple (s, w, v, message) sent to the designated receiver.

    s is the exponent-domain response, w the receiver mask g^-k2, and v
    the commitment g^k1 blinded by the receiver's key.
    """

    s: Scalar
    w: GroupElement
    v: GroupElement
    message: bytes


@dataclass(frozen=True)
class SignerNonceState:
    """The signer's secret nonces, retained per signature.

    Without k1 and k2 the signer cannot re-mask the commitment for a third
    party, so signing returns this state alongside the signature. It is
    secret material: anyone holding it can unmask the commitment.
    """

    k1: Scalar = field(repr=False)
    k2: Scalar = field(repr=False)
    signature: DirectedSignature


@dataclass(frozen=True)
class RecoveredCommitment:
    """The unmasked commitment R = g^k1 and its message hash."""

    # designation-sensitive: anyone holding R can check g^s = R·y^h
    r_elem: GroupElement = field(repr=False)
    r_hash: Scalar = field(repr=False)


@dataclass(frozen=True)
class SignerProof:
    """The commitment re-masked by the signer for a third party."""

    v_c: GroupElement


@dataclass(frozen=True)
class ReceiverProof:
    """The commitment re-masked by the receiver for a third party."""

    w_c: GroupElement
    v_c: GroupElement


def sign_directed(
    group: SchnorrGroup,
    signer: KeyPair,
    receiver_pub: GroupElement,
    message: bytes,
    rng: Optional[random.Random] = None,
    h: HashFunction = DEFAULT_HASH,
    *,
    nonces: Optional[Tuple[int, int]] = None,
) -> Tuple[DirectedSignature, SignerNonceState]:
    """Sign `message` for `receiver_pub`; `nonces` injects fixed (k1, k2) for vector replay."""
    k1, k2 = (_nonce(group, rng, n) for n in nonces or (None, None))
    commitment = group.generator ** k1
    w = group.generator ** -k2
    v = Member(mask(commitment.value, receiver_pub, k2), group)
    s = respond(k1, signer, commitment, message, h)
    sig = DirectedSignature(s=s, w=w, v=v, message=message)
    return sig, SignerNonceState(k1=k1, k2=k2, signature=sig)


def verify_directed(
    group: SchnorrGroup,
    sig: DirectedSignature,
    receiver: KeyPair,
    signer_pub: GroupElement,
    h: HashFunction = DEFAULT_HASH,
) -> Tuple[bool, RecoveredCommitment]:
    """Unmask R = v * w^x and accept iff g^s = R * y_signer^h(R, m).

    Only the designated receiver's x cancels the mask; any other key
    recovers a different R and the equation fails (up to the hash's
    collision behaviour). The recovered commitment is returned so the
    receiver can later prove validity to a third party.
    """
    r_elem = type(sig.v)(unmask(sig.v.value, sig.w, receiver.x), group)
    accept, r_hash = check_response(group, sig.s, r_elem, signer_pub, sig.message, h)
    return accept, RecoveredCommitment(r_elem=r_elem, r_hash=r_hash)


def prove_by_signer(
    group: SchnorrGroup,
    nonces: SignerNonceState,
    third_party_pub: GroupElement,
) -> SignerProof:
    """Re-mask the commitment under the third party's key: v_c = g^k1 * y_c^k2.

    The third party keeps the original w; only v is substituted.
    """
    commitment = group.generator ** nonces.k1
    return SignerProof(v_c=Member(mask(commitment.value, third_party_pub, nonces.k2), group))


def prove_by_receiver(
    group: SchnorrGroup,
    commitment: RecoveredCommitment,
    receiver: KeyPair,
    third_party_pub: GroupElement,
    rng: Optional[random.Random] = None,
    *,
    nonce: Optional[int] = None,
) -> ReceiverProof:
    """Re-mask the recovered commitment with a fresh nonce K.

    Requires a commitment obtained from a successful verify_directed; the
    receiver's key pair marks who runs the protocol, the computation only
    consumes the recovered R. Both w and v are substituted: w_c = g^-K,
    v_c = R * y_c^K.
    """
    del receiver  # prover role only; R is already unmasked
    k = _nonce(group, rng, nonce)
    w_c = group.generator ** -k
    v_c = type(commitment.r_elem)(mask(commitment.r_elem.value, third_party_pub, k), group)
    return ReceiverProof(w_c=w_c, v_c=v_c)


def verify_as_third_party(
    group: SchnorrGroup,
    sig: DirectedSignature,
    proof: Union[SignerProof, ReceiverProof],
    third_party: KeyPair,
    signer_pub: GroupElement,
    h: HashFunction = DEFAULT_HASH,
) -> bool:
    """Verify with the proof's components substituted into the signature.

    A signer proof replaces v only; a receiver proof replaces both w and
    v. The acceptance rule is verify_directed's, run under the third
    party's own key.
    """
    if not isinstance(proof, (SignerProof, ReceiverProof)):
        raise TypeError(f"expected SignerProof or ReceiverProof, got {type(proof).__name__}")
    w = proof.w_c if isinstance(proof, ReceiverProof) else sig.w
    substituted = DirectedSignature(s=sig.s, w=w, v=proof.v_c, message=sig.message)
    accept, _ = verify_directed(group, substituted, third_party, signer_pub, h)
    return accept
