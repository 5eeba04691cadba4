"""File-backed keystore: one JSON file per named key.

Private keys are stored unencrypted, created with 0600 permissions —
adequate for experiments and tests, not hardened key management.
"""

from __future__ import annotations

import os
from pathlib import Path

from .group import GroupElement, KeyPair, SchnorrGroup
from . import serialize


class KeystoreError(ValueError):
    """A key name is unusable or a key file is inconsistent."""


def _check_name(name: str) -> str:
    if not name or any(sep in name for sep in ("/", "\\", "..")) or name.startswith("."):
        raise KeystoreError(f"unusable key name {name!r}")
    return name


class Keystore:
    """Directory of named key files: NAME.key (private) and NAME.pub."""

    def __init__(self, root) -> None:
        self.root = Path(root)

    def keypair_path(self, name: str) -> Path:
        return self.root / f"{_check_name(name)}.key"

    def public_path(self, name: str) -> Path:
        return self.root / f"{_check_name(name)}.pub"

    def save_keypair(self, name: str, keypair: KeyPair) -> None:
        """Write NAME.key (0600 from its first byte) and NAME.pub, or nothing if either exists."""
        key_path, pub_path = self.keypair_path(name), self.public_path(name)
        if os.path.lexists(key_path) or os.path.lexists(pub_path):
            raise KeystoreError(f"key {name!r} exists; delete its .key and .pub to replace it")
        self.root.mkdir(parents=True, exist_ok=True)
        serialize.save_json(key_path, serialize.keypair_to_dict(keypair), private=True)
        serialize.save_json(pub_path, serialize.public_key_to_dict(keypair.y))

    def load_keypair(self, group: SchnorrGroup, name: str) -> KeyPair:
        return serialize.keypair_from_dict(group, serialize.load_json(self.keypair_path(name)))

    def load_public(self, group: SchnorrGroup, name: str) -> GroupElement:
        """Load NAME.pub, and only it: another party's NAME.key is never opened."""
        return serialize.public_key_from_dict(group, serialize.load_json(self.public_path(name)))
