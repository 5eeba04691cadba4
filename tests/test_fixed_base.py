"""Powers of g agree with builtin pow and leave the group as it was.

`g`'s exponent is reduced mod q, since g has order q, and then takes one
`_modexp` call like any other power, so a negative or huge exponent of `g`
reaches the kernel too. Each exponent is checked as an int and as a `Scalar`,
on fresh groups and after many powers of the same g, on the toy group and at
512/160. The test names are kept from the fixed-base table that g once had:
whatever its use count, a group holds only its fields.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirsig.group import SchnorrGroup


def fresh(group):
    return SchnorrGroup(group.p, group.q, group.g)


def holds_only_its_fields(group):
    return vars(group) == {"p": group.p, "q": group.q, "g": group.g}


def exponents(q):
    """Ints of any sign and size, with weight on [0, q-1], multiples of q and their neighbours."""
    near_q = st.builds(lambda m, d: m * q + d, st.integers(-3, 3), st.integers(-2, 2))
    huge = st.integers(min_value=-(1 << 2100), max_value=1 << 2100)
    return st.one_of(st.integers(0, q - 1), near_q, st.integers(), huge)


def edges(q):
    return [0, 1, q - 1, q, q + 1, 2 * q - 1, 2 * q, -1, -q, -q - 1, q**3 + 5, -(q**5), 1 << 4096]


def check_powers(element, ints):
    """Raise one element to every int and to its Scalar."""
    group = element.group
    for e in ints:
        for exponent in (e, group.scalar(e)):
            assert (element ** exponent).value == pow(element.value, int(exponent), group.p)


@settings(deadline=None)
@given(data=st.data())
def test_toy_generator_powers_match_pow(data, toy_group):
    group = fresh(toy_group)
    check_powers(group.generator, data.draw(st.lists(exponents(group.q), max_size=40)))
    assert holds_only_its_fields(group)


@settings(deadline=None)
@given(data=st.data())
def test_big_generator_powers_match_pow_with_table(data, big_group):
    """On the session's group, which every earlier test has raised g on."""
    check_powers(big_group.generator, [data.draw(exponents(big_group.q))])
    assert holds_only_its_fields(big_group)


@pytest.mark.parametrize("which", ["toy", "big"])
def test_edge_exponents_before_and_after_the_table(which, toy_group, big_group):
    group = fresh(toy_group if which == "toy" else big_group)
    check_powers(group.generator, edges(group.q) * 2)
    assert holds_only_its_fields(group)


@pytest.mark.parametrize("which", ["toy", "big"])
def test_table_does_not_change_identity(which, toy_group, big_group):
    raised = fresh(toy_group if which == "toy" else big_group)
    for e in range(20):
        raised.generator ** e
    plain = fresh(raised)
    assert raised == plain and hash(raised) == hash(plain)
    assert repr(raised) == repr(plain)
    assert {raised: 1}[plain] == 1

    a = raised.generator ** 7
    b = plain.generator ** plain.scalar(5)
    assert (a * b).value == pow(raised.g, 12, raised.p)
    assert (b * a) == (plain.generator ** 12)
    assert (raised.generator ** plain.scalar(3)).value == pow(plain.g, 3, plain.p)
