"""Plain Schnorr signatures (hash-commitment form) over a Schnorr group.

Kept as a correctness baseline and regression anchor for the directed
scheme built on top of it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .group import GroupElement, KeyPair, Scalar, SchnorrGroup, _nonce
from .hashing import DEFAULT_HASH, HashFunction


@dataclass(frozen=True)
class SchnorrSignature:
    r: Scalar  # hash commitment
    s: Scalar  # response


def schnorr_sign(
    group: SchnorrGroup,
    keypair: KeyPair,
    message: bytes,
    rng: Optional[random.Random] = None,
    h: HashFunction = DEFAULT_HASH,
    *,
    nonce: Optional[int] = None,
) -> SchnorrSignature:
    """Sign with r = h(g^k, m) and s = k - x*r mod q for a fresh nonce k.

    The response is reduced mod q: s only ever appears as an exponent, and
    any other reduction breaks the verification identity. The nonce is
    never persisted or reused; `nonce` injection exists solely to replay
    test vectors.
    """
    k = _nonce(group, rng, nonce)
    r = h.hash_to_scalar(group.generator ** k, message)
    s = k - keypair.x * r
    return SchnorrSignature(r=r, s=s)


def schnorr_verify(
    group: SchnorrGroup,
    public_key: GroupElement,
    message: bytes,
    sig: SchnorrSignature,
    h: HashFunction = DEFAULT_HASH,
) -> bool:
    """Accept iff r = h(g^s * y^r mod p, m)."""
    candidate = (group.generator ** sig.s) * (public_key ** sig.r)
    return h.hash_to_scalar(candidate, message) == sig.r
