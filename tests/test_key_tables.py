"""Powers of any element other than g agree with builtin pow.

Such an element's exponent is never reduced, because the element need not
lie in the subgroup: every power is `_modexp` of its actual value, so it must
give builtin pow's answer for every base in [1, p-1], subgroup member or not.
The test names are kept from the per-element tables that once served
repeated bases: however often an element is raised, it holds only its fields.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirsig.group import GroupElement, keygen

from test_fixed_base import check_powers, edges, exponents


def bases(group):
    """Values in [1, p-1] other than g, with weight on p-1 and other non-members."""
    outside = st.integers(1, group.p - 1).filter(lambda v: pow(v, group.q, group.p) != 1)
    anything = st.integers(1, group.p - 1)
    return st.one_of(st.just(group.p - 1), outside, anything).filter(lambda v: v != group.g)


def holds_only_its_fields(element):
    return vars(element) == {"value": element.value, "group": element.group}


@pytest.mark.parametrize("which", ["toy", "big"])
@settings(deadline=None)
@given(data=st.data())
def test_repeated_base_matches_pow_across_its_build(which, toy_group, big_group, data):
    group = toy_group if which == "toy" else big_group
    element = GroupElement(data.draw(bases(group)), group)
    check_powers(element, data.draw(st.lists(exponents(group.q), max_size=30)) + edges(group.q))
    assert holds_only_its_fields(element)


@pytest.mark.parametrize("which", ["toy", "big"])
def test_every_toy_base_and_non_member_edges(which, toy_group, big_group):
    group = toy_group if which == "toy" else big_group
    outside = next(v for v in range(2, group.p - 1) if pow(v, group.q, group.p) != 1)
    member = keygen(group).y.value
    values = range(1, group.p) if which == "toy" else (group.p - 1, outside, member, group.p - 2)
    for value in values:
        check_powers(GroupElement(value, group), edges(group.q) * 2)


def test_non_member_odd_power_is_not_reduced(toy_group):
    minus_one = GroupElement(22, toy_group)  # order 2: outside the order-11 subgroup
    for _ in range(6):
        assert (minus_one ** 11).value == 22
        assert (minus_one ** toy_group.scalar(10)).value == 1
        assert (minus_one ** toy_group.scalar(5)).value == 22
    assert holds_only_its_fields(minus_one)


@pytest.mark.parametrize("which", ["toy", "big"])
def test_table_does_not_change_identity(which, toy_group, big_group):
    group = toy_group if which == "toy" else big_group
    value = 2 if which == "toy" else keygen(group).y.value
    raised = GroupElement(value, group)
    for e in range(20):
        raised ** e
    plain = GroupElement(value, group)
    assert raised == plain and hash(raised) == hash(plain)
    assert repr(raised) == repr(plain)
    assert {raised: 1}[plain] == 1
    assert (raised * plain) == (plain ** 2) == (raised ** 2)
