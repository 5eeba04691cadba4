"""Comb tables at their edges, when they are built, and what a copy carries.

A table with h teeth reads an exponent as h rows of a = ceil(bits(q)/h)
bits, one digit per column. The exponents 2^(a*t) - 1 and 2^(a*t) sit where
tooth t's row meets the next, so they are where an off-by-one in the builder
or the walker shows. `g` builds its table on its `_G_TABLE_AFTER`-th use and
any other element on its `_KEY_TABLE_AFTER`-th.
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
from dirsig.group import (
    _G_TABLE_AFTER,
    _G_TEETH,
    _KEY_TABLE_AFTER,
    _KEY_TEETH,
    GroupElement,
    SchnorrGroup,
    _fixed_base_table,
    _table_pow,
    keygen,
)

from conftest import MSG


def fresh(group):
    return SchnorrGroup(group.p, group.q, group.g)


def comb_edges(q, teeth):
    """0, 1, q - 1, and 2^(a*t) - 1 and 2^(a*t) for every tooth boundary t."""
    columns = -(-q.bit_length() // teeth)
    edges = {0, 1, q - 1}
    for tooth in range(teeth + 1):
        edges |= {(1 << (columns * tooth)) - 1, 1 << (columns * tooth)}
    return sorted(edges)


def non_member(group):
    """The smallest value outside the order-q subgroup other than p - 1."""
    return next(v for v in range(2, group.p - 1) if pow(v, group.q, group.p) != 1)


def table_of(owner):
    return vars(owner).get("_g_table" if isinstance(owner, SchnorrGroup) else "_table")


@pytest.mark.parametrize("which", ["toy", "big"])
def test_generator_at_comb_edges_before_and_after_the_build(which, toy_group, big_group):
    group = toy_group if which == "toy" else big_group
    edges = comb_edges(group.q, _G_TEETH)
    for e in edges:  # a fresh instance per exponent: every call takes builtin pow
        before = fresh(group)
        assert (before.generator ** e).value == pow(group.g, e, group.p)
        assert table_of(before) is None
    after = fresh(group)
    for _ in range(_G_TABLE_AFTER):
        after.generator ** 1
    assert table_of(after) is not None
    for e in edges:
        assert (after.generator ** e).value == pow(group.g, e, group.p)


@pytest.mark.parametrize("which", ["toy", "big"])
def test_non_member_at_comb_edges_before_and_after_the_build(which, toy_group, big_group):
    group = toy_group if which == "toy" else big_group
    value = non_member(group)
    edges = comb_edges(group.q, _KEY_TEETH)
    for e in edges:
        before = GroupElement(value, group)
        assert (before ** e).value == pow(value, e, group.p)
        assert table_of(before) is None
    after = GroupElement(value, fresh(group))
    for _ in range(_KEY_TABLE_AFTER):
        after ** 1
    assert table_of(after) is not None
    for e in edges:  # exponents >= q take builtin pow, unreduced
        assert (after ** e).value == pow(value, e, group.p)


def test_comb_widths_at_2048_224():
    """The comb's arithmetic holds modulo any integer, so the 2048/224 widths are
    checked on the builder and walker alone, without validating a 2048-bit group."""
    rng = random.Random(2048)
    p = rng.getrandbits(2048) | (1 << 2047) | 1
    q = rng.getrandbits(224) | (1 << 223) | 1
    base = rng.randrange(2, p - 1)
    for teeth in (_G_TEETH, _KEY_TEETH):
        table = _fixed_base_table(base, p, q, teeth)
        assert len(table) == 1 << teeth
        for e in [e for e in comb_edges(q, teeth) if e < q] + [rng.randrange(q) for _ in range(4)]:
            assert _table_pow(table, e, p, q, teeth) == pow(base, e, p)


@pytest.mark.parametrize("proof_by", ["signer", "receiver"])
def test_a_one_shot_directed_flow_builds_no_table(big_group, monkeypatch, proof_by):
    """sign -> verify -> proof -> third-party verify raises no base three times."""
    group = fresh(big_group)
    builds = []
    build = dirsig.group._fixed_base_table
    monkeypatch.setattr(
        dirsig.group, "_fixed_base_table", lambda *args: builds.append(args) or build(*args)
    )
    rng = random.Random(7)
    signer, receiver, third = (keygen(group, rng) for _ in range(3))
    sig, nonces = sign_directed(group, signer, receiver.y, MSG, rng)
    accept, commitment = verify_directed(group, sig, receiver, signer.y)
    if proof_by == "signer":
        proof = prove_by_signer(group, nonces, third.y)
    else:
        proof = prove_by_receiver(group, commitment, receiver, third.y, rng)
    assert accept and verify_as_third_party(group, sig, proof, third, signer.y)
    assert builds == []
    assert table_of(group) is None and vars(group).get("_table_bytes", 0) == 0


def test_the_third_use_of_an_element_builds_its_table(big_group):
    assert _KEY_TABLE_AFTER == 3
    element = keygen(fresh(big_group)).y
    for use in range(1, 5):
        assert (element ** use).value == pow(element.value, use, big_group.p)
        assert (table_of(element) is not None) == (use >= 3)


def tabled_key(group):
    key = keygen(group, random.Random(9)).y
    for e in range(_KEY_TABLE_AFTER):
        key ** e
    assert table_of(key) is not None and vars(group)["_table_bytes"] > 0
    return key


def test_pickle_carries_only_the_fields(big_group, monkeypatch):
    group = fresh(big_group)
    for e in range(_G_TABLE_AFTER):
        group.generator ** e
    key = tabled_key(group)
    plain = GroupElement(key.value, fresh(big_group))
    assert len(pickle.dumps(key)) == len(pickle.dumps(plain))
    assert len(pickle.dumps(group)) == len(pickle.dumps(plain.group))

    def no_validation(*args):
        raise AssertionError("unpickling validated the group again")

    monkeypatch.setattr(dirsig.group, "_check_parameters", no_validation)
    loaded = pickle.loads(pickle.dumps(key))
    assert loaded == key and loaded.group == group
    assert vars(loaded) == {"value": key.value, "group": loaded.group}
    assert vars(loaded.group) == {"p": group.p, "q": group.q, "g": group.g}


def test_copies_hold_no_table_and_charge_nothing(big_group):
    group = fresh(big_group)
    key = tabled_key(group)
    charged = vars(group)["_table_bytes"]
    shallow, deep = copy.copy(key), copy.deepcopy(key)
    assert shallow == key == deep
    assert table_of(shallow) is None and table_of(deep) is None
    assert shallow.group is group and deep.group == group and deep.group is not group
    assert vars(group)["_table_bytes"] == charged
    assert "_table_bytes" not in vars(deep.group)
    assert (deep ** 5).value == (key ** 5).value
