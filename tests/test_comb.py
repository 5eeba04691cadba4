"""Powers at bit boundaries, one-shot flows, and what a copy carries.

The exponents 2^k - 1 and 2^k are where an exponentiation that reads its
exponent in windows or rows of bits (as the Lim-Lee comb tables that once
served repeated bases did) shows an off-by-one. Every power is now one
`_modexp` call, so these are checked on a fresh instance and again after it
has been raised many times, and a raised, pickled or copied element or group
holds only its fields. The test names are kept from those comb tables.
"""

import copy
import pickle
import random

import pytest

import dirsig.group
from dirsig.directed import (
    prove_by_receiver,
    prove_by_signer,
    sign_directed,
    verify_as_third_party,
    verify_directed,
)
from dirsig.group import GroupElement, Member, _modexp, keygen

from conftest import MSG
from test_fixed_base import fresh
from test_fixed_base import holds_only_its_fields as group_holds_only_its_fields
from test_key_tables import holds_only_its_fields


def bit_edges(q):
    """0, 1, q - 1, and 2^k - 1 and 2^k for every k up to the bit length of q."""
    edges = {0, 1, q - 1}
    for k in range(q.bit_length() + 1):
        edges |= {(1 << k) - 1, 1 << k}
    return sorted(edges)


def non_member(group):
    """The smallest value outside the order-q subgroup other than p - 1."""
    return next(v for v in range(2, group.p - 1) if pow(v, group.q, group.p) != 1)


@pytest.mark.parametrize("which", ["toy", "big"])
def test_generator_at_comb_edges_before_and_after_the_build(which, toy_group, big_group):
    group = toy_group if which == "toy" else big_group
    raised = fresh(group)
    for _ in range(2):  # on a fresh group, then after many powers of its g
        for e in bit_edges(group.q):
            assert (raised.generator ** e).value == pow(group.g, e, group.p)
        assert group_holds_only_its_fields(raised)


@pytest.mark.parametrize("which", ["toy", "big"])
def test_non_member_at_comb_edges_before_and_after_the_build(which, toy_group, big_group):
    group = toy_group if which == "toy" else big_group
    value = non_member(group)
    raised = GroupElement(value, fresh(group))
    for _ in range(2):  # on a fresh element, then after many powers of it
        for e in bit_edges(group.q) + [group.q, 2 * group.q + 1]:  # never reduced mod q
            assert (raised ** e).value == pow(value, e, group.p)
        assert holds_only_its_fields(raised)


def test_comb_widths_at_2048_224():
    """The kernel at the 2048/224 shape, at every bit boundary of a 224-bit
    exponent, checked without validating a 2048-bit group."""
    rng = random.Random(2048)
    p = rng.getrandbits(2048) | (1 << 2047) | 1
    q = rng.getrandbits(224) | (1 << 223) | 1
    for base in (rng.randrange(2, p - 1), p - 1):
        for e in bit_edges(q) + [rng.randrange(q) for _ in range(4)]:
            assert _modexp(base, e, p) == pow(base, e, p)


@pytest.mark.parametrize("proof_by", ["signer", "receiver"])
def test_a_one_shot_directed_flow_builds_no_table(big_group, proof_by):
    """sign -> verify -> proof -> third-party verify leaves the group and keys unchanged."""
    group = fresh(big_group)
    rng = random.Random(7)
    signer, receiver, third = (keygen(group, rng) for _ in range(3))
    sig, nonces = sign_directed(group, signer, receiver.y, MSG, rng)
    accept, commitment = verify_directed(group, sig, receiver, signer.y)
    if proof_by == "signer":
        proof = prove_by_signer(group, nonces, third.y)
    else:
        proof = prove_by_receiver(group, commitment, receiver, third.y, rng)
    assert accept and verify_as_third_party(group, sig, proof, third, signer.y)
    assert group_holds_only_its_fields(group)
    assert all(holds_only_its_fields(key.y) for key in (signer, receiver, third))


def raised_key(group):
    group.generator ** 5
    key = keygen(group).y
    for e in range(20):
        key ** e
    return key


def test_pickle_carries_only_the_fields(big_group, monkeypatch):
    group = fresh(big_group)
    key = raised_key(group)
    unraised = Member(key.value, fresh(big_group))  # a pickle records the class name
    assert len(pickle.dumps(key)) == len(pickle.dumps(unraised))
    assert len(pickle.dumps(group)) == len(pickle.dumps(unraised.group))

    def no_validation(*args):
        raise AssertionError("unpickling validated the group again")

    monkeypatch.setattr(dirsig.group, "_check_parameters", no_validation)
    loaded = pickle.loads(pickle.dumps(key))
    assert loaded == key and loaded.group == group
    assert vars(loaded) == {"value": key.value, "group": loaded.group}
    assert vars(loaded.group) == {"p": group.p, "q": group.q, "g": group.g}


def test_copies_hold_no_table_and_charge_nothing(big_group, monkeypatch):
    """Copies carry only the fields and do not validate the group again."""
    group = fresh(big_group)
    key = raised_key(group)

    def no_validation(*args):
        raise AssertionError("copying validated the group again")

    monkeypatch.setattr(dirsig.group, "_check_parameters", no_validation)
    shallow, deep = copy.copy(key), copy.deepcopy(key)
    assert shallow == key == deep
    assert shallow.group is group and deep.group == group and deep.group is not group
    for element in (shallow, deep):
        assert vars(element) == {"value": key.value, "group": element.group}
        assert vars(element.group) == {"p": group.p, "q": group.q, "g": group.g}
    assert (deep ** 5).value == (key ** 5).value
