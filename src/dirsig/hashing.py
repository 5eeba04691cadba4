"""Hash functions mapping (group element, message) pairs into scalars or keys.

Every scheme in this toolkit consumes hashes through the `HashFunction`
interface, so the production SHA-256 instantiation and the table-driven
fixture used for known-answer tests are interchangeable without touching
protocol code.
"""

from __future__ import annotations

import hashlib
from typing import Mapping, Tuple

from .group import GroupElement, Scalar


class FixtureMissError(KeyError):
    """A fixture hash was queried outside its table."""


def canonical_encode(element: GroupElement) -> bytes:
    """Big-endian encoding, left-padded to the byte length of p.

    Fixed width removes ambiguity when the encoding is concatenated with
    message bytes inside a hash input.
    """
    width = (element.group.p.bit_length() + 7) // 8
    return element.value.to_bytes(width, "big")


class HashFunction:
    """Deterministic map (element, message) -> scalar, plus key derivation."""

    def hash_to_scalar(self, element: GroupElement, message: bytes) -> Scalar:
        raise NotImplementedError

    def hash_to_key(self, element: GroupElement) -> bytes:
        """Derive a 32-byte symmetric key from a group element.

        Not reduced mod q: key material must keep its full width.
        """
        return hashlib.sha256(canonical_encode(element)).digest()


class Sha256Hash(HashFunction):
    """SHA-256 over canonical-encode(element) || message, reduced mod q."""

    def hash_to_scalar(self, element: GroupElement, message: bytes) -> Scalar:
        digest = hashlib.sha256(canonical_encode(element) + bytes(message)).digest()
        return element.group.scalar(int.from_bytes(digest, "big"))


class FixtureHash(HashFunction):
    """Table-driven hash for deterministic replay and known-answer tests.

    The table maps (element value, message bytes) to a scalar value. With
    error_on_miss set (the default) lookups outside the table raise;
    otherwise they fall back to the production SHA-256 hash.
    """

    def __init__(
        self,
        table: Mapping[Tuple[int, bytes], int],
        *,
        error_on_miss: bool = True,
    ) -> None:
        self.table = {(int(e), bytes(m)): int(s) for (e, m), s in table.items()}
        self.error_on_miss = error_on_miss
        self._fallback = Sha256Hash()

    def hash_to_scalar(self, element: GroupElement, message: bytes) -> Scalar:
        key = (element.value, bytes(message))
        if key in self.table:
            return element.group.scalar(self.table[key])
        if self.error_on_miss:
            # the element is R, designation-sensitive: name no value
            raise FixtureMissError("no fixture entry for this element and message")
        return self._fallback.hash_to_scalar(element, message)

    @classmethod
    def from_file(cls, path) -> "FixtureHash":
        """Load a table from JSON; `serialize._fixture_table` owns the format and its errors."""
        from .serialize import _fixture_table  # serialize imports this module via directed

        return cls(_fixture_table(path))


DEFAULT_HASH = Sha256Hash()
