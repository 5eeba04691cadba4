"""Directed signatures with k-of-n threshold verification.

The signer deals one-time shares of the commitment nonce to a designated
group, each share masked under the owning member's public key. Any k
members can unmask their shares, scale them by Lagrange weights, and hand
g^(scaled share) to a combiner, whose product rebuilds the commitment
g^k1 and feeds the ordinary verification equation. No trusted dealer or
fixed setup exists: everything is decided per signature.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

from .directed import check_response, mask, respond, unmask
from .group import GroupElement, KeyPair, Scalar, SchnorrGroup, _bits, _held, _nonce
from .hashing import DEFAULT_HASH, HashFunction
from .shamir import (
    Share,
    SharingPolynomial,
    _check_ids,
    _check_threshold,
    _id_value,
    lagrange_coefficient_at_zero,
    split,
)


class MemberNotFoundError(ValueError):
    """No masked share exists for the requested identity."""


class QuorumSizeError(ValueError):
    """A quorum has the wrong number of members for the threshold."""


class QuorumMembershipError(ValueError):
    """A share's identity is not among the quorum identities."""


@dataclass(frozen=True)
class GroupMember:
    u: Scalar  # public identity
    y: GroupElement  # public key


@dataclass(frozen=True)
class GroupDirectory:
    """The designated group: public identities and keys of its n members."""

    members: Tuple[GroupMember, ...]

    def __post_init__(self) -> None:
        _check_ids([m.u for m in self.members])


@dataclass(frozen=True)
class MaskedShare:
    """A share value blinded by y_i^k2 mod p.

    The blinded value lives in Z_p, not in the subgroup; the embedded
    share value is an integer below q and a zero share masks to zero.
    """

    u: Scalar
    v: int

    def __post_init__(self) -> None:
        if not 0 <= self.v < self.u.group.p:
            raise ValueError(f"{_bits(self.v)} masked share outside [0, p-1]")


@dataclass(frozen=True)
class ThresholdSignature:
    """The broadcast (s, w, message, masked shares, threshold)."""

    s: Scalar
    w: GroupElement
    message: bytes
    masked_shares: Tuple[MaskedShare, ...]
    threshold: int

    def __post_init__(self) -> None:
        _check_threshold(self.threshold, len(self.masked_shares))


@dataclass(frozen=True)
class ModifiedShadow:
    """A recovered share scaled by its Lagrange weight at zero."""

    u: Scalar
    value: Scalar = field(repr=False)


@dataclass(frozen=True)
class PartialResult:
    """One member's contribution g^shadow to the combiner's product."""

    u: Scalar
    value: GroupElement = field(repr=False)  # any k of one quorum multiply into R


def _deal_masked_shares(
    group: SchnorrGroup,
    directory: GroupDirectory,
    k: int,
    rng: Optional[random.Random],
    nonces: Optional[Tuple[int, int]],
    polynomial: Union[SharingPolynomial, Sequence[int], None],
) -> Tuple[Scalar, GroupElement, GroupElement, Tuple[MaskedShare, ...]]:
    """Draw (k1, k2); return k1, w = g^-k2, g^k1 and the masked shares of k1.

    Splitting comes first, so a bad threshold fails before any exponentiation. Each mask
    is one exchange of the DH key that `_held(k2)` carries, loaded once for the dealing.
    """
    k1, k2 = (_nonce(group, rng, n) for n in nonces or (None, None))
    shares = split(k1, k, [m.u for m in directory.members], rng, polynomial=polynomial)
    w = group.generator ** -k2
    commitment = group.generator ** k1
    held = _held(k2)
    masked = tuple(
        MaskedShare(u=share.u, v=mask(share.v.value, member.y, held))
        for share, member in zip(shares, directory.members)
    )
    return k1, w, commitment, masked


def sign_for_group(
    group: SchnorrGroup,
    signer: KeyPair,
    directory: GroupDirectory,
    k: int,
    message: bytes,
    rng: Optional[random.Random] = None,
    h: HashFunction = DEFAULT_HASH,
    *,
    nonces: Optional[Tuple[int, int]] = None,
    polynomial: Union[SharingPolynomial, Sequence[int], None] = None,
) -> ThresholdSignature:
    """Sign `message` so that any k of the directory's members can verify.

    The commitment nonce k1 doubles as the shared secret: f(0) = k1, and
    each member's share f(u_i) is masked by y_i^k2. `nonces` and
    `polynomial` inject fixed values for deterministic replay.
    """
    k1, w, commitment, masked = _deal_masked_shares(group, directory, k, rng, nonces, polynomial)
    s = respond(k1, signer, commitment, message, h)
    return ThresholdSignature(s=s, w=w, message=message, masked_shares=masked, threshold=k)


def recover_share(
    group: SchnorrGroup,
    sig: ThresholdSignature,
    member: KeyPair,
    u: Scalar,
) -> Share:
    """Unmask the member's own share: f(u) = unmask(v_u, w, x).

    Only `sig.w` and `sig.masked_shares` are read, so a group ciphertext
    (`ThresholdCiphertext`) is unmasked the same way. The result is reduced
    into Z_q; honest values already lie below q, while a wrong key or a
    tampered share yields an arbitrary residue that fails combination.
    """
    value = _id_value(u)
    for masked in sig.masked_shares:
        if masked.u.value == value and masked.u == u:  # the value first: it settles most misses
            return Share(u=u, v=group.scalar(unmask(masked.v, sig.w, member.x)))
    raise MemberNotFoundError(f"identity {value} has no masked share")


def modify_shadow(share: Share, quorum_ids: Sequence[Scalar]) -> ModifiedShadow:
    """Scale the share by its Lagrange weight over the acting quorum.

    The quorum must have exactly the sharing's threshold members; that is
    the caller's contract, since shares do not carry the threshold. The
    first step over a quorum weighs all its members with one inversion; the
    other steps reuse those weights, and every step checks the quorum's ids.
    """
    value = _id_value(share.u)
    for index, u in enumerate(quorum_ids):
        # the value first: it settles most misses; the weight's _check_ids types the rest
        if isinstance(u, Scalar) and u.value == value and u == share.u:
            lam = lagrange_coefficient_at_zero(quorum_ids, index)
            return ModifiedShadow(u=share.u, value=share.v * lam)
    _check_ids(quorum_ids)  # a non-Scalar id is a TypeError, not a miss
    raise QuorumMembershipError(f"identity {value} not in quorum")


def partial_result(group: SchnorrGroup, shadow: ModifiedShadow) -> PartialResult:
    """Lift the shadow into the group: g^shadow mod p.

    The lift must happen mod p — the combiner multiplies these together
    to rebuild a group element.
    """
    return PartialResult(u=shadow.u, value=group.generator ** shadow.value)


def _check_quorum(ids: Sequence[Scalar], threshold: int) -> None:
    """A quorum has exactly `threshold` members, with distinct nonzero ids."""
    if len(ids) != threshold:
        raise QuorumSizeError(f"quorum of {len(ids)} members, threshold is {threshold}")
    _check_ids(ids)


def _combine(
    group: SchnorrGroup,
    sig: ThresholdSignature,
    partials: Sequence[PartialResult],
    signer_pub: GroupElement,
    m: bytes,
    h: HashFunction,
) -> Tuple[bool, GroupElement]:
    """Check the quorum, multiply its partials into R, check `sig.s` on (R, m): (accept, R).

    Only `sig.s` and `sig.threshold` are read, so a group ciphertext is combined the same way.
    """
    _check_quorum([p.u for p in partials], sig.threshold)
    r_elem = partials[0].value
    for partial in partials[1:]:
        r_elem = r_elem * partial.value
    accept, _ = check_response(group, sig.s, r_elem, signer_pub, m, h)
    return accept, r_elem


def combine_and_verify(
    group: SchnorrGroup,
    sig: ThresholdSignature,
    partials: Sequence[PartialResult],
    signer_pub: GroupElement,
    h: HashFunction = DEFAULT_HASH,
) -> bool:
    """Multiply the partials into R and run the verification equation.

    For an honest quorum R = g^(sum of shadows) = g^k1, so acceptance is
    exactly the directed scheme's check. The combiner holds no secrets;
    everything here is public input plus the submitted partials.
    """
    return _combine(group, sig, partials, signer_pub, sig.message, h)[0]
