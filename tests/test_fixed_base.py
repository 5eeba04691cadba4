"""The fixed-base table for g agrees with builtin pow and stays invisible.

A group builds the table on its `_G_TABLE_AFTER`-th g-exponentiation, so
the checks on fresh instances cross that point: the first calls use
builtin pow, the rest walk the table.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirsig.group import _G_TABLE_AFTER, SchnorrGroup

TOY = (23, 11, 3)


def fresh(group):
    return SchnorrGroup(group.p, group.q, group.g)


def has_table(group):
    return "_g_table" in vars(group)


def exponents(q):
    """Ints of any sign and size, with weight on multiples of q and their neighbours."""
    near_q = st.builds(lambda m, d: m * q + d, st.integers(-3, 3), st.integers(-2, 2))
    huge = st.integers(min_value=-(1 << 2100), max_value=1 << 2100)
    return st.one_of(near_q, st.integers(), huge)


def check_across_build(group, ints):
    """Raise g to every int and its Scalar, starting on a group without a table."""
    assert not has_table(group)
    calls = 0
    for e in ints:
        for exponent in (e, group.scalar(e)):
            calls += 1
            assert has_table(group) == (calls > _G_TABLE_AFTER)
            assert (group.generator ** exponent).value == pow(group.g, e, group.p)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_toy_generator_powers_match_pow(data):
    group = SchnorrGroup(*TOY)
    ints = data.draw(st.lists(exponents(group.q), min_size=_G_TABLE_AFTER + 1, max_size=40))
    check_across_build(group, ints)


@pytest.mark.parametrize("which", ["toy", "big"])
def test_edge_exponents_before_and_after_the_table(which, big_group):
    group = SchnorrGroup(*TOY) if which == "toy" else fresh(big_group)
    q = group.q
    edges = [0, 1, q - 1, q, q + 1, 2 * q, -1, -q, -q - 1, q**3 + 5, -(q**5), 1 << 4096]
    check_across_build(group, edges * 2)
    assert has_table(group)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_big_generator_powers_match_pow_with_table(data, big_group):
    for _ in range(_G_TABLE_AFTER):
        big_group.generator ** 1
    assert has_table(big_group)
    e = data.draw(exponents(big_group.q))
    assert (big_group.generator ** e).value == pow(big_group.g, e, big_group.p)
    scalar = big_group.scalar(e)
    assert (big_group.generator ** scalar).value == pow(big_group.g, e, big_group.p)


@pytest.mark.parametrize("which", ["toy", "big"])
def test_table_does_not_change_identity(which, big_group):
    with_table = SchnorrGroup(*TOY) if which == "toy" else fresh(big_group)
    for e in range(_G_TABLE_AFTER):
        with_table.generator ** e
    assert has_table(with_table)
    plain = fresh(with_table)
    assert not has_table(plain)
    assert with_table == plain and hash(with_table) == hash(plain)
    assert repr(with_table) == repr(plain)

    a = with_table.generator ** 7
    b = plain.generator ** plain.scalar(5)
    assert (a * b).value == pow(with_table.g, 12, with_table.p)
    assert (b * a) == (plain.generator ** 12)
    assert (with_table.generator ** plain.scalar(3)).value == pow(plain.g, 3, plain.p)
