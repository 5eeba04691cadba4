"""The element-table cap is shared among the live elements of a group.

An element other than g counts itself live on its first exponentiation by an
exponent in [0, q-1] and leaves the count when it is collected. On its
`_KEY_TABLE_AFTER`-th use it builds the most teeth, from 2 up to `_KEY_TEETH`,
at which a table for every live element would fit under `_TABLE_BYTES_CAP`,
and it keeps that table. These tests compute each table's bytes on their own
and walk combs of every width the share can pick.
"""

import random
import sys
import threading

import pytest

import dirsig.group
from dirsig.group import (
    _KEY_TABLE_AFTER,
    _KEY_TEETH,
    _TABLE_BYTES_CAP,
    GroupElement,
    SchnorrGroup,
    _fixed_base_table,
    _table_pow,
    keygen,
)

from test_comb import comb_edges
from test_costs import CountingTable

SHARE_TEETH = range(2, _KEY_TEETH + 1)


def fresh(group):
    return SchnorrGroup(group.p, group.q, group.g)


def live(group):
    return vars(group).get("_live", 0)


def live_bytes(group):
    return vars(group).get("_table_bytes", 0)


def teeth_of(element):
    table = vars(element).get("_table")
    return None if table is None else len(table).bit_length() - 1


def table_bytes(group, teeth):
    """The bytes one element table of `teeth` teeth is charged: its tuple, and
    every entry but the first (the shared small int 1) at the size of p."""
    entries = 2**teeth
    return sys.getsizeof((1,) * entries) + (entries - 1) * sys.getsizeof(group.p)


def expected_share(group, count):
    return max(h for h in SHARE_TEETH if count * table_bytes(group, h) <= _TABLE_BYTES_CAP)


def walker_edges(q, teeth):
    """The comb edges the walker takes: those below q."""
    return [e for e in comb_edges(q, teeth) if e < q]


def raise_each(keys, times):
    for key in keys:
        for e in range(times):
            assert (key ** e).value == pow(key.value, e, key.group.p)


def test_reservations_equal_the_tables_they_cover(big_group):
    group = fresh(big_group)
    early = [keygen(group).y for _ in range(10)]
    raise_each(early, _KEY_TABLE_AFTER)
    late = [keygen(group).y for _ in range(150)]
    raise_each(late, 1)
    raise_each(late, _KEY_TABLE_AFTER - 1)
    keys = early + late
    assert {teeth_of(key) for key in early} == {_KEY_TEETH}
    assert {teeth_of(key) for key in late} == {expected_share(group, len(keys))} != {_KEY_TEETH}
    assert live_bytes(group) == sum(table_bytes(group, teeth_of(key)) for key in keys)
    del early, late
    keys.clear()
    assert live(group) == 0 and live_bytes(group) == 0


def test_keys_raised_once_each_share_the_cap(big_group):
    group = fresh(big_group)
    keys = [keygen(group).y for _ in range(150)]
    raise_each(keys, 1)
    assert live(group) == len(keys) and live_bytes(group) == 0
    raise_each(keys, _KEY_TABLE_AFTER - 1)
    share = expected_share(group, len(keys))
    assert share == 6  # at 512/160: 150 tables of 7 teeth would pass the cap
    assert [teeth_of(key) for key in keys] == [share] * len(keys)
    assert live(group) == len(keys)
    assert live_bytes(group) == len(keys) * table_bytes(group, share) <= _TABLE_BYTES_CAP
    for e in walker_edges(group.q, share):
        assert (keys[0] ** e).value == pow(keys[0].value, e, group.p)
    keys.clear()
    assert live(group) == 0 and live_bytes(group) == 0
    key = keygen(group).y
    raise_each([key], _KEY_TABLE_AFTER)
    assert teeth_of(key) == _KEY_TEETH and live(group) == 1


def test_only_raised_elements_count_as_live(big_group):
    group = fresh(big_group)
    keys = [keygen(group).y for _ in range(5)]
    assert live(group) == 0
    keys[0] ** group.q  # outside [0, q-1]: builtin pow, not counted
    keys[1] ** -1
    assert live(group) == 0
    raise_each(keys[2:], 1)
    assert live(group) == 3
    del keys[2]
    assert live(group) == 2


def test_threads_give_the_count_back(big_group):
    group = fresh(big_group)
    keys = [keygen(group).y for _ in range(80)]

    def work(mine):
        raise_each(mine, _KEY_TABLE_AFTER + 1)

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
    assert live(group) == len(keys)
    assert live_bytes(group) == sum(table_bytes(group, teeth_of(key)) for key in keys if teeth_of(key))
    assert live_bytes(group) <= _TABLE_BYTES_CAP
    keys.clear()
    assert live(group) == 0 and live_bytes(group) == 0


def test_a_new_groups_first_element_raised_from_threads_finds_its_share(big_group, monkeypatch):
    """However the threads interleave, an element is counted live before it builds."""
    seen = []
    build = dirsig.group._fixed_base_table
    monkeypatch.setattr(
        dirsig.group, "_fixed_base_table",
        lambda base, p, q, teeth: seen.append((live(group), teeth)) or build(base, p, q, teeth),
    )
    value = keygen(big_group, random.Random(3)).y.value
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            group = fresh(big_group)
            element = GroupElement(value, group)
            start = threading.Barrier(6)
            results = []

            def work():
                start.wait()
                results.extend((element ** e).value == pow(value, e, group.p) for e in range(4))

            threads = [threading.Thread(target=work) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert len(results) == 24 and all(results)
            assert teeth_of(element) == _KEY_TEETH
            del element
            assert live(group) == 0 and live_bytes(group) == 0
    finally:
        sys.setswitchinterval(interval)
    assert seen and all(count >= 1 and teeth == _KEY_TEETH for count, teeth in seen)


@pytest.mark.parametrize("which", ["toy", "big"])
@pytest.mark.parametrize("teeth", SHARE_TEETH)
def test_comb_edges_at_every_share(which, teeth, toy_group, big_group):
    group = toy_group if which == "toy" else big_group
    rng = random.Random(teeth)
    outside = next(v for v in range(2, group.p - 1) if pow(v, group.q, group.p) != 1)
    for base in (outside, group.p - 1, keygen(group, rng).y.value):
        table = _fixed_base_table(base, group.p, group.q, teeth)
        assert len(table) == 1 << teeth
        for e in walker_edges(group.q, teeth) + [rng.randrange(group.q) for _ in range(4)]:
            assert _table_pow(table, e, group.p, group.q, teeth) == pow(base, e, group.p)


def test_share_widths_at_2048_224():
    """Checked on the builder and walker alone, like the 8- and 11-teeth widths."""
    rng = random.Random(224)
    p = rng.getrandbits(2048) | (1 << 2047) | 1
    q = rng.getrandbits(224) | (1 << 223) | 1
    base = rng.randrange(2, p - 1)
    for teeth in SHARE_TEETH:
        table = _fixed_base_table(base, p, q, teeth)
        assert len(table) == 1 << teeth
        for e in walker_edges(q, teeth) + [rng.randrange(q) for _ in range(2)]:
            assert _table_pow(table, e, p, q, teeth) == pow(base, e, p)


def test_a_four_teeth_walk_reads_at_most_forty_entries(big_group):
    """At 512/160 a 4-teeth comb has 40 columns, one read per nonzero column."""
    p, q = big_group.p, big_group.q
    base = keygen(big_group, random.Random(4)).y.value
    table = CountingTable(_fixed_base_table(base, p, q, 4))
    rng = random.Random(40)
    reads = []
    for e in [0, 1, q - 1] + [rng.randrange(q) for _ in range(50)]:
        table.reads = 0
        assert _table_pow(table, e, p, q, 4) == pow(base, e, p)
        reads.append(table.reads)
    assert max(reads) <= 40 and reads[:2] == [0, 1]
