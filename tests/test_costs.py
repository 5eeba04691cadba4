"""Modular-exponentiation counts of every protocol step, split by base.

Every exponentiation goes through `GroupElement.__pow__`, which makes one
`_modexp` call. Counting calls there pins the cost of each step, whatever
the machine's timing noise. Membership checks on imported values call
`_modexp` directly in `SchnorrGroup.element` and are not counted here.
"""

import random
from collections import Counter

import pytest

import dirsig.group
from dirsig.directed import (
    prove_by_receiver,
    prove_by_signer,
    sign_directed,
    verify_as_third_party,
    verify_directed,
)
from dirsig.group import GroupElement, keygen
from dirsig.shamir import Share, ShareIdError, ThresholdRangeError, _weights_at_zero
from dirsig.threshold import (
    GroupDirectory,
    GroupMember,
    QuorumSizeError,
    combine_and_verify,
    modify_shadow,
    partial_result,
    recover_share,
    sign_for_group,
)
from dirsig.threshold_crypto import decrypt_with_quorum, encrypt_to_group

from conftest import MSG

N, K = 5, 3


@pytest.fixture()
def pows(monkeypatch):
    """Counter of exponentiations by base: "g" for the generator, else "var"."""
    counts = Counter()
    original = GroupElement.__pow__

    def counting_pow(self, exponent):
        counts["g" if self.value == self.group.g else "var"] += 1
        return original(self, exponent)

    monkeypatch.setattr(GroupElement, "__pow__", counting_pow)
    return counts


def cost(pows, fn, *args, **kwargs):
    """Call fn and return its result with its (g, variable) exponentiation counts."""
    pows.clear()
    result = fn(*args, **kwargs)
    return result, (pows["g"], pows["var"])


@pytest.fixture(scope="module")
def parties(big_group):
    rng = random.Random(0xC057)
    signer, receiver, third = (keygen(big_group, rng) for _ in range(3))
    members = {u: keygen(big_group, rng) for u in range(1, N + 1)}
    directory = GroupDirectory(
        members=tuple(GroupMember(u=big_group.scalar(u), y=kp.y) for u, kp in members.items())
    )
    return signer, receiver, third, members, directory


def test_keygen_cost(big_group, pows):
    _, counts = cost(pows, keygen, big_group, random.Random(1))
    assert counts == (1, 0)


def test_directed_costs(big_group, parties, pows):
    signer, receiver, third, _, _ = parties
    rng = random.Random(2)
    (sig, nonces), counts = cost(pows, sign_directed, big_group, signer, receiver.y, MSG, rng)
    assert counts == (2, 1)
    (accept, commitment), counts = cost(
        pows, verify_directed, big_group, sig, receiver, signer.y
    )
    assert accept and counts == (1, 2)

    signer_proof, counts = cost(pows, prove_by_signer, big_group, nonces, third.y)
    assert counts == (1, 1)
    receiver_proof, counts = cost(
        pows, prove_by_receiver, big_group, commitment, receiver, third.y, rng
    )
    assert counts == (1, 1)
    for proof in (signer_proof, receiver_proof):
        accept, counts = cost(
            pows, verify_as_third_party, big_group, sig, proof, third, signer.y
        )
        assert accept and counts == (1, 2)


def test_threshold_costs(big_group, parties, pows):
    signer, _, _, members, directory = parties
    rng = random.Random(3)
    sig, counts = cost(pows, sign_for_group, big_group, signer, directory, K, MSG, rng)
    assert counts == (2, N)

    quorum = [big_group.scalar(u) for u in (1, 3, 5)]
    partials = []
    for u in quorum:
        pows.clear()
        share = recover_share(big_group, sig, members[u.value], u)
        partials.append(partial_result(big_group, modify_shadow(share, quorum)))
        assert (pows["g"], pows["var"]) == (1, 1)
    accept, counts = cost(pows, combine_and_verify, big_group, sig, partials, signer.y)
    assert accept and counts == (1, 1)


def test_group_encryption_costs(big_group, parties, pows):
    sender, _, _, members, directory = parties
    rng = random.Random(4)
    ct, counts = cost(pows, encrypt_to_group, big_group, sender, directory, K, MSG, rng)
    assert counts == (2, N)
    quorum = [(members[u], big_group.scalar(u)) for u in (2, 3, 4)]
    plain, counts = cost(pows, decrypt_with_quorum, big_group, ct, quorum, sender.y)
    assert plain == MSG and counts == (K + 1, K + 1)


def test_decryption_checks_the_quorum_before_any_exponentiation(big_group, parties, pows):
    sender, _, third, members, directory = parties
    ct = encrypt_to_group(big_group, sender, directory, K, MSG, random.Random(5))
    outsider = (third, big_group.scalar(N + 1))  # not a member: MemberNotFoundError if reached
    pows.clear()
    with pytest.raises(QuorumSizeError):
        decrypt_with_quorum(big_group, ct, [(members[1], big_group.scalar(1)), outsider], sender.y)
    assert sum(pows.values()) == 0
    duplicated = [(members[u], big_group.scalar(u)) for u in (1, 1, 2)]
    with pytest.raises(ShareIdError):
        decrypt_with_quorum(big_group, ct, duplicated, sender.y)
    assert sum(pows.values()) == 0


@pytest.mark.parametrize("deal", [sign_for_group, encrypt_to_group])
@pytest.mark.parametrize("k", [0, N + 1])
def test_dealing_checks_the_threshold_before_any_exponentiation(
    big_group, parties, pows, deal, k
):
    signer, _, _, _, directory = parties
    pows.clear()
    with pytest.raises(ThresholdRangeError):
        deal(big_group, signer, directory, k, MSG, random.Random(6))
    assert sum(pows.values()) == 0


@pytest.fixture()
def inversions(monkeypatch):
    """Moduli of every `mod_inv` call, from a cold weight cache."""
    moduli = []
    original = dirsig.group.mod_inv

    def counting_inv(a, m):
        moduli.append(m)
        return original(a, m)

    monkeypatch.setattr(dirsig.group, "mod_inv", counting_inv)
    _weights_at_zero.cache_clear()  # a quorum an earlier test cached would cost nothing
    return moduli


def test_member_weight_costs_one_inversion(big_group, pows, inversions):
    """modify_shadow in a k = 32 quorum: one modular inversion, no exponentiation."""
    quorum = [big_group.scalar(u) for u in range(1, 33)]
    share = Share(u=quorum[17], v=big_group.scalar(7))
    pows.clear()
    modify_shadow(share, quorum)
    assert inversions == [big_group.q]
    assert sum(pows.values()) == 0


def test_a_quorum_shares_one_inversion(big_group, pows, inversions):
    """Every member step over one k = 32 quorum together makes one inversion."""
    for n_quorums, first in enumerate((1, 33), start=1):
        quorum = [big_group.scalar(u) for u in range(first, first + 32)]
        for u in quorum:
            modify_shadow(Share(u=u, v=big_group.scalar(7)), quorum)
        assert inversions == [big_group.q] * n_quorums
    assert sum(pows.values()) == 0
