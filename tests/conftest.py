"""Shared fixtures: the toy group with its fixed keys, and a full-size group.

The toy group (p=23, q=11, g=3) is small enough to verify every value by
hand or exhaustively; the 512-bit group exercises production sizes. Both
are session-scoped immutable values.
"""

import os
import random

import pytest
from hypothesis import settings

from dirsig import FixtureHash, GroupDirectory, GroupMember, KeyPair, SchnorrGroup, generate_group

MSG = b"message"

# A Chernick Carmichael number (6k+1)(12k+1)(18k+1) of 512 bits: its three
# factors are prime, so it passes a Fermat test to every base prime to it.
CHERNICK_K = (1 << 167) + 293533
CARMICHAEL_512 = (6 * CHERNICK_K + 1) * (12 * CHERNICK_K + 1) * (18 * CHERNICK_K + 1)

# The arithmetic properties (Shamir kernels, powers against builtin pow) leave
# their example count to the profile. HYPOTHESIS_PROFILE=ci, which CI's tier-1
# step sets, runs twice the default and derandomizes, so a CI failure replays.
settings.register_profile("ci", derandomize=True, max_examples=200)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def toy_group():
    return SchnorrGroup(23, 11, 3)


@pytest.fixture(scope="session")
def toy_keys(toy_group):
    """Fixed toy key pairs: private keys 4, 7, 6, 5 -> public 12, 2, 16, 13."""
    return {
        "signer": KeyPair.from_private(toy_group, 4),
        "receiver": KeyPair.from_private(toy_group, 7),
        "third": KeyPair.from_private(toy_group, 6),
        "extra": KeyPair.from_private(toy_group, 5),
    }


@pytest.fixture(scope="session")
def toy_directory(toy_group, toy_keys):
    """Three-member designated group with identities 1, 2, 3."""
    return GroupDirectory(
        members=(
            GroupMember(u=toy_group.scalar(1), y=toy_keys["receiver"].y),
            GroupMember(u=toy_group.scalar(2), y=toy_keys["third"].y),
            GroupMember(u=toy_group.scalar(3), y=toy_keys["extra"].y),
        )
    )


@pytest.fixture()
def fixture_hash():
    """Strict known-answer hash: defined only at (18, MSG) -> 10."""
    return FixtureHash({(18, MSG): 10})


@pytest.fixture()
def fallback_fixture_hash():
    """Same table, but unknown inputs fall back to SHA-256."""
    return FixtureHash({(18, MSG): 10}, error_on_miss=False)


@pytest.fixture(scope="session")
def big_group():
    """One 512/160-bit group per session, deterministically generated."""
    return generate_group(512, 160, random.Random(0x5EED))


@pytest.fixture(scope="session")
def group_2048():
    """One 2048/224-bit group per session, deterministically generated."""
    return generate_group(2048, 224, random.Random(2048))
