"""SHA-256 hashing of (group element, message) pairs into scalars or keys.

`Sha256Hash` is the one hash the schemes take; `FixtureHash`, a table-driven
subclass, replays known-answer tests without touching protocol code. SHA-256
comes from the OpenSSL that `cryptography` bundles for the group kernel and the
AEAD; `hashlib` would load a second copy.
"""

from __future__ import annotations

import copy
from typing import Mapping, Tuple

from cryptography.hazmat.primitives.hashes import SHA256, Hash

from .group import GroupElement, Scalar


def _sha256(data: bytes) -> bytes:
    digest = Hash(SHA256())
    digest.update(data)  # one update: hashing R and a 4 MiB m apart moved page faults
    return digest.finalize()


class FixtureMissError(KeyError):
    """A fixture hash was queried outside its table."""


def canonical_encode(element: GroupElement) -> bytes:
    """Big-endian encoding, left-padded to the byte length of p.

    Fixed width removes ambiguity when the encoding is concatenated with
    message bytes inside a hash input.
    """
    width = (element.group.p.bit_length() + 7) // 8
    return element.value.to_bytes(width, "big")


class Sha256Hash:
    """Deterministic map (element, message) -> scalar, plus key derivation: SHA-256 over
    tag || canonical-encode(element) || message, reduced mod q.

    The tag (empty unless `tagged`) precedes the fixed-width element: after
    it, an untagged hash of tag || message would collide with it.
    """

    tag = b""

    def tagged(self, tag: bytes) -> "Sha256Hash":
        """This hash with `tag` in front of every input, apart from its untagged uses."""
        twin = copy.copy(self)  # a fixture's copy shares its table
        twin.tag = bytes(tag)
        return twin

    def hash_to_scalar(self, element: GroupElement, message: bytes) -> Scalar:
        digest = _sha256(self.tag + canonical_encode(element) + bytes(message))
        return element.group.scalar(int.from_bytes(digest, "big"))

    def hash_to_key(self, element: GroupElement) -> bytes:
        """Derive a 32-byte symmetric key from a group element.

        Not reduced mod q: key material must keep its full width.
        """
        return _sha256(canonical_encode(element))


HashFunction = Sha256Hash  # the name protocol signatures use for the hash they take


class FixtureHash(Sha256Hash):
    """Table-driven hash for deterministic replay and known-answer tests.

    The table maps (element value, message bytes) to a scalar value; a
    `tagged` copy shares it, since the table ignores tags. With
    error_on_miss set (the default) lookups outside the table raise;
    otherwise they fall back to the production SHA-256 hash, under the
    copy's tag.
    """

    def __init__(
        self,
        table: Mapping[Tuple[int, bytes], int],
        *,
        error_on_miss: bool = True,
    ) -> None:
        self.table = {(int(e), bytes(m)): int(s) for (e, m), s in table.items()}
        self.error_on_miss = error_on_miss

    def hash_to_scalar(self, element: GroupElement, message: bytes) -> Scalar:
        key = (element.value, bytes(message))
        if key in self.table:
            return element.group.scalar(self.table[key])
        if self.error_on_miss:
            # the element is R, designation-sensitive: name no value
            raise FixtureMissError("no fixture entry for this element and message")
        return super().hash_to_scalar(element, message)


DEFAULT_HASH = Sha256Hash()
