"""Per-element fixed-base tables agree with builtin pow and stay within budget.

Any element other than g counts its exponentiations by an exponent in
[0, q-1] and builds its own table on the `_KEY_TABLE_AFTER`-th, while its
group's live-table bytes stay under `_TABLE_BYTES_CAP`. The table holds
actual powers of the element's value, never reduced mod q, so it must give
builtin pow's answer for every base in [1, p-1], subgroup member or not.
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirsig.group import _KEY_TABLE_AFTER, _TABLE_BYTES_CAP, GroupElement, SchnorrGroup, keygen


def fresh(group):
    return SchnorrGroup(group.p, group.q, group.g)


def has_table(element):
    return "_table" in vars(element)


def live_bytes(group):
    return vars(group).get("_table_bytes", 0)


def held_bytes(element):
    """What an element's table holds beyond the small int 1 that every row shares."""
    table = vars(element)["_table"]
    return sys.getsizeof(table) + sum(sys.getsizeof(v) for v in table if v != 1)


def bases(group):
    """Values in [1, p-1] other than g, with weight on p-1 and other non-members."""
    outside = st.integers(1, group.p - 1).filter(lambda v: pow(v, group.q, group.p) != 1)
    anything = st.integers(1, group.p - 1)
    return st.one_of(st.just(group.p - 1), outside, anything).filter(lambda v: v != group.g)


def exponents(q):
    """Ints of any sign and size, with weight on [0, q-1], its edges and their neighbours."""
    near_q = st.builds(lambda m, d: m * q + d, st.integers(-3, 3), st.integers(-2, 2))
    huge = st.integers(min_value=-(1 << 1024), max_value=1 << 1024)
    return st.one_of(st.integers(0, q - 1), near_q, st.integers(), huge)


def check_across_build(element, ints):
    """Raise one element to every int and its Scalar, starting without a table."""
    group = element.group
    assert not has_table(element)
    uses = 0
    for e in ints:
        for exponent in (e, group.scalar(e)):
            uses += 0 <= int(exponent) < group.q
            assert (element ** exponent).value == pow(element.value, int(exponent), group.p)
            assert has_table(element) == (uses >= _KEY_TABLE_AFTER)


def edges(q):
    return [0, 1, q - 1, q, q + 1, 2 * q - 1, -1, -q, -q - 1, q**3 + 5, -(q**5)]


@pytest.mark.parametrize("which", ["toy", "big"])
@settings(deadline=None)
@given(data=st.data())
def test_repeated_base_matches_pow_across_its_build(which, toy_group, big_group, data):
    group = toy_group if which == "toy" else big_group
    element = GroupElement(data.draw(bases(group)), group)
    drawn = data.draw(st.lists(exponents(group.q), min_size=_KEY_TABLE_AFTER, max_size=30))
    check_across_build(element, drawn + edges(group.q))
    assert has_table(element)


@pytest.mark.parametrize("which", ["toy", "big"])
def test_every_toy_base_and_non_member_edges(which, toy_group, big_group):
    group = toy_group if which == "toy" else big_group
    values = range(1, group.p) if which == "toy" else (group.p - 1, 2, group.p - 2)
    for value in values:
        if value != group.g:
            check_across_build(GroupElement(value, group), (edges(group.q) + [1 << 4096]) * 2)


def test_non_member_odd_power_is_not_reduced(toy_group):
    minus_one = GroupElement(22, toy_group)  # order 2: outside the order-11 subgroup
    for _ in range(2 * _KEY_TABLE_AFTER):
        assert (minus_one ** 11).value == 22
        assert (minus_one ** toy_group.scalar(10)).value == 1
        assert (minus_one ** toy_group.scalar(5)).value == 22
    assert has_table(minus_one)


@pytest.mark.parametrize("which", ["toy", "big"])
def test_table_does_not_change_identity(which, toy_group, big_group):
    group = toy_group if which == "toy" else big_group
    value = 2 if which == "toy" else keygen(group).y.value
    with_table = GroupElement(value, group)
    for e in range(_KEY_TABLE_AFTER):
        with_table ** (e % group.q)
    assert has_table(with_table)
    plain = GroupElement(value, group)
    assert with_table == plain and hash(with_table) == hash(plain)
    assert repr(with_table) == repr(plain)
    assert {with_table: 1}[plain] == 1
    assert (with_table * plain) == (plain ** 2) == (with_table ** 2)


def test_short_lived_bases_give_their_bytes_back(big_group):
    group = fresh(big_group)
    for i in range(200):
        transient = keygen(group).y
        for e in range(_KEY_TABLE_AFTER + 1):
            transient ** e
        assert has_table(transient), f"base {i} found the budget full"
        assert 0 < live_bytes(group) <= _TABLE_BYTES_CAP
        del transient
        assert live_bytes(group) == 0
    key = keygen(group).y
    for e in range(_KEY_TABLE_AFTER):
        key ** e
    assert has_table(key)


def test_live_tables_stop_at_the_cap(big_group):
    group = fresh(big_group)
    keys = []
    for _ in range(100):
        key = keygen(group).y
        for e in range(_KEY_TABLE_AFTER + 2):
            assert (key ** e).value == pow(key.value, e, group.p)
        assert live_bytes(group) <= _TABLE_BYTES_CAP
        keys.append(key)
    tabled = [key for key in keys if has_table(key)]
    per_table = live_bytes(group) // len(tabled)
    assert live_bytes(group) == per_table * len(tabled)
    assert held_bytes(tabled[0]) <= per_table  # the reservation covers the table
    assert len(tabled) == _TABLE_BYTES_CAP // per_table < len(keys)
    assert tabled == keys[: len(tabled)]  # first come, first served; later keys keep pow
    del tabled, key
    keys.clear()
    assert live_bytes(group) == 0


def test_threads_never_pass_the_cap(big_group):
    group = fresh(big_group)
    keys = [keygen(group).y for _ in range(120)]
    peak = []

    def work(mine):
        for key in mine:
            for e in range(_KEY_TABLE_AFTER + 1):
                assert (key ** e).value == pow(key.value, e, group.p)
            peak.append(live_bytes(group))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(keys[i::4],)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(peak) == len(keys)  # no thread died on a wrong power
    assert max(peak) <= _TABLE_BYTES_CAP
    assert 0 < sum(map(has_table, keys)) < len(keys)
    assert sum(held_bytes(key) for key in keys if has_table(key)) <= live_bytes(group)
    keys.clear()
    assert live_bytes(group) == 0
