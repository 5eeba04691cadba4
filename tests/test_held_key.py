"""The held DH key that raises a dealing's member keys to its nonce k2.

`threshold._deal_masked_shares` masks its n shares under `group._held(k2)`, a
`HeldScalar` that carries k2's DH private key, loaded once for the dealing. The key
rides on the exponent: `GroupElement.__pow__` raises y to it by one `exchange` of
that key with y's DH public key, which `group._peer_key` loads once per (group, y),
and raises y to any other scalar of k2's value by a DH key load. `directed.mask` has
already made y a `Member` other than 1: a member key needs no check, and a plain
element pays one membership power per mask. The masks must be the ones builtin pow gives,
every case the key may not take must keep `_modexp`, a key outside the subgroup
must stop the dealing with an `Exception` (OpenSSL's refusal of a shared secret
of 1 reaches Python as a PanicException, which derives from BaseException
alone), and nothing that holds k2 may outlive the dealing.
"""

import dataclasses
import random
import sys
import threading
from collections import Counter
from contextlib import contextmanager

import pytest
from cryptography.hazmat.primitives.asymmetric import dh
from hypothesis import given
from hypothesis import strategies as st

import dirsig.group
import dirsig.threshold
from dirsig.group import (
    GroupElement,
    HeldScalar,
    NotInSubgroupError,
    Scalar,
    SchnorrGroup,
    _held,
    _peer_key,
    keygen,
)
from dirsig.threshold import GroupDirectory, GroupMember, sign_for_group
from dirsig.threshold_crypto import encrypt_to_group

from conftest import MSG


@pytest.fixture()
def fresh_peer_keys():
    """Empty the key cache before and after: a refused load is cached as None."""
    _peer_key.cache_clear()
    yield
    _peer_key.cache_clear()


class _CountingKey:
    def __init__(self, key, counts, fail):
        self._key, self._counts, self._fail = key, counts, fail

    def exchange(self, peer):
        self._counts["exchange"] += 1
        if self._fail:
            raise ValueError("exchange refused")
        return self._key.exchange(peer)


@contextmanager
def held_keys(fail=False):
    """Counts the keys held ("held") and their exchanges; `fail` makes each exchange raise."""
    counts = Counter()

    def counting(k):
        held = _held(k)
        if isinstance(held, HeldScalar):
            counts["held"] += 1
            held = dataclasses.replace(held, key=_CountingKey(held.key, counts, fail))
        return held

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dirsig.threshold, "_held", counting)
        yield counts


def _recorded_loads(monkeypatch):
    """The list of every private key that `group` loads from here on."""
    loaded = []
    original = dirsig.group.load_der_private_key

    def recording_load(der, password):
        loaded.append(original(der, password))
        return loaded[-1]

    monkeypatch.setattr(dirsig.group, "load_der_private_key", recording_load)
    return loaded


def _directory(group, ys):
    return GroupDirectory(members=tuple(
        GroupMember(u=group.scalar(u), y=y) for u, y in enumerate(ys, start=1)
    ))


def _masks(group, directory, coefficients, k2):
    """f(u_i) * pow(y_i, k2, p) mod p for each member, by builtin pow."""
    p, q = group.p, group.q
    return [
        sum(c * pow(m.u.value, i, q) for i, c in enumerate(coefficients)) % q
        * pow(m.y.value, k2, p) % p
        for m in directory.members
    ]


def _deal(group, directory, coefficients, k2):
    sig = sign_for_group(
        group, keygen(group, random.Random(1)), directory, len(coefficients), MSG,
        nonces=(coefficients[0], k2), polynomial=coefficients,
    )
    return [masked.v for masked in sig.masked_shares]


@pytest.mark.parametrize("size", ["512/160", "2048/224"])
@given(data=st.data())
def test_dealt_masks_are_the_powers_of_builtin_pow(big_group, group_2048, size, data):
    """As in `test_dealt_shares_are_blinded_with_mask`, on the held key's path."""
    group = big_group if size == "512/160" else group_2048
    scalars = st.integers(1, group.q - 1)
    xs = data.draw(st.lists(scalars, min_size=2, max_size=2, unique=True))
    coefficients = data.draw(st.lists(scalars, min_size=2, max_size=2))
    k2 = data.draw(scalars)
    directory = _directory(group, [group.generator ** x for x in xs])
    with held_keys() as counts:
        masks = _deal(group, directory, coefficients, k2)
    assert masks == _masks(group, directory, coefficients, k2)
    assert counts == {"held": 1, "exchange": 2}


@pytest.mark.parametrize(
    "case", ["toy-group", "k2=0", "k2=q", "private-loader", "public-loader", "exchange"]
)
def test_every_case_the_key_may_not_take_keeps_modexp(
    big_group, toy_group, toy_keys, fresh_peer_keys, monkeypatch, case
):
    if case == "toy-group":
        group, ys = toy_group, [toy_keys[name].y for name in ("receiver", "third", "extra")]
    else:
        rng = random.Random(0xFA11)
        group, ys = big_group, [keygen(big_group, rng).y for _ in range(3)]
    directory = _directory(group, ys)
    coefficients = [9, 3]
    k2 = {"k2=0": 0, "k2=q": group.q}.get(case, 5)
    fail = case == "exchange"
    if case.endswith("-loader"):
        def refuse(*args):
            raise ValueError("key refused")

        monkeypatch.setattr(dirsig.group, f"load_der_{case.split('-')[0]}_key", refuse)
    with held_keys(fail) as counts:
        masks = _deal(group, directory, coefficients, k2)
    assert masks == _masks(group, directory, coefficients, k2)
    if case in ("public-loader", "exchange"):  # a key was held; no exchange gave a mask
        assert counts == Counter(held=1, exchange=3 if fail else 0)
    else:
        assert not counts
    if case == "toy-group":
        assert masks == [9, 1, 5]  # tests/test_threshold.py's golden masks


@pytest.mark.parametrize("deal", [sign_for_group, encrypt_to_group])
@pytest.mark.parametrize("key", ["order-3", "identity"])
def test_a_key_outside_the_subgroup_or_the_identity_stops_the_dealing(
    big_group, capfd, fresh_peer_keys, key, deal
):
    """A library caller can build a directory of any elements. An order-3 key raised to
    a k2 divisible by 3 is 1, which OpenSSL's exchange refuses with a panic, and which
    `_modexp` would have taken, leaving that member's share in the clear."""
    p, q = big_group.p, big_group.q
    cofactor = (p - 1) // q
    assert cofactor % 3 == 0
    if key == "order-3":
        y = next(y for y in (pow(b, cofactor // 3 * q, p) for b in range(2, 100)) if y != 1)
        assert pow(y, 3, p) == 1
    else:
        y = 1
    rng = random.Random(0x0D3)
    directory = _directory(big_group, [keygen(big_group, rng).y, GroupElement(y, big_group)])
    k2 = 3 * rng.randrange(1, q // 3)
    raised = None
    try:
        deal(big_group, keygen(big_group, rng), directory, 1, MSG, nonces=(7, k2))
    except BaseException as exc:  # noqa: B036 - a panic must show up here, not pass by
        raised = exc
    assert isinstance(raised, NotInSubgroupError)
    assert "panicked at" not in capfd.readouterr().err


def test_the_key_cache_holds_no_secret_of_a_dealing(big_group, fresh_peer_keys, monkeypatch):
    """After a dealing with injected nonces, the cache holds the n member keys as DH public
    keys, and the one private key that held k2 is referred to by nothing but this test."""
    rng = random.Random(0x4B32)
    n = 6
    directory = _directory(big_group, [keygen(big_group, rng).y for _ in range(n)])
    k2 = rng.randrange(1, big_group.q)
    loaded = _recorded_loads(monkeypatch)
    _deal(big_group, directory, [11, 12, 13], k2)
    (held,) = [key for key in loaded if key.private_numbers().x == k2 + big_group.q]  # padded
    assert sys.getrefcount(held) == 3  # `loaded`, `held` and the argument of getrefcount
    assert _peer_key.cache_info().currsize == n
    hits = _peer_key.cache_info().hits
    for member in directory.members:
        peer = _peer_key(big_group, member.y.value)
        assert isinstance(peer, dh.DHPublicKey)
        assert peer.public_numbers().y == member.y.value
    assert _peer_key.cache_info().hits == hits + n  # the dealing's own entries
    assert vars(big_group) == {"p": big_group.p, "q": big_group.q, "g": big_group.g}


def test_a_key_is_checked_once_per_process(big_group, fresh_peer_keys, monkeypatch):
    """A member key, from `keygen` or a parse, pays no membership power at a dealing; a plain
    element that no check has seen pays one at each dealing to it."""
    rng = random.Random(0xC4EC)
    keys = [keygen(big_group, rng).y for _ in range(4)]
    plain = GroupElement(keys[-1].value, big_group)
    directory = _directory(big_group, keys[:-1] + [plain])
    checks = Counter()
    original = SchnorrGroup.element

    def counting_element(self, value):
        checks[value] += 1
        return original(self, value)

    monkeypatch.setattr(SchnorrGroup, "element", counting_element)
    for _ in range(3):
        assert _deal(big_group, directory, [5, 6], 7) == _masks(big_group, directory, [5, 6], 7)
    assert checks == {plain.value: 3}


def test_dealings_in_threads_hold_their_own_keys(big_group):
    """The held key rides on the exponent each dealing passes to `mask`: a dealing in one
    thread never raises by another thread's key, however the threads interleave."""
    rng = random.Random(0x7EAD)
    directory = _directory(big_group, [keygen(big_group, rng).y for _ in range(3)])
    nonces = [[rng.randrange(1, big_group.q) for _ in range(5)] for _ in range(4)]
    wrong = []

    def deal_all(k2s):
        for k2 in k2s:
            if _deal(big_group, directory, [3, 4], k2) != _masks(big_group, directory, [3, 4], k2):
                wrong.append(k2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=deal_all, args=(k2s,)) for k2s in nonces]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong


def test_only_a_held_exponent_takes_the_exchange(big_group, fresh_peer_keys, monkeypatch):
    """Inside a dealing, a member key raised to a plain Scalar of k2's value takes a DH key
    load: only the `HeldScalar` that the dealing passes to `mask` is exchanged."""
    group = big_group
    rng = random.Random(0x0E1D)
    n = 4
    directory = _directory(group, [keygen(group, rng).y for _ in range(n)])
    k1, k2 = rng.randrange(1, group.q), rng.randrange(1, group.q)
    original = dirsig.threshold.mask

    def mask_and_raise(value, y, k):
        y ** Scalar(k.value, k.group)
        return original(value, y, k)

    monkeypatch.setattr(dirsig.threshold, "mask", mask_and_raise)
    loaded = _recorded_loads(monkeypatch)
    with held_keys() as counts:
        masks = _deal(group, directory, [k1, 3], k2)
    assert masks == _masks(group, directory, [k1, 3], k2)
    assert counts == {"held": 1, "exchange": n}
    dh_loads = [
        (key.parameters().parameter_numbers().g, key.private_numbers().x)
        for key in loaded if isinstance(key, dh.DHPrivateKey)
    ]
    g, q, signer = group.g, group.q, keygen(group, random.Random(1)).x.value  # `_deal`'s signer
    # every base is a member, so every exponent reaches the load padded by q (`group._pad`)
    assert dh_loads == [(g, signer + q), (g, 2 * q - k2), (g, k1 + q), (g, k2 + q)] + [
        (member.y.value, k2 + q) for member in directory.members
    ]


def test_a_held_scalar_keeps_its_secret_and_its_scope(big_group, monkeypatch):
    """Its repr shows k2 in neither hex nor decimal; arithmetic on it gives a plain Scalar,
    so `g ** -k2` never takes the exchange; and once `sign_for_group` returns, nothing but
    this test refers to the HeldScalar its dealing made, or to its key."""
    group = big_group
    rng = random.Random(0x5EC2)
    k2 = rng.randrange(1, group.q)
    held = _held(group.scalar(k2))
    assert isinstance(held, HeldScalar)
    shown = repr(held)
    assert str(k2) not in shown
    assert f"{k2:x}" not in shown.lower()
    for derived in (-held, held + group.scalar(0), held * group.scalar(1)):
        assert type(derived) is Scalar
    assert (held + group.scalar(0)).value == (held * group.scalar(1)).value == k2
    counts = Counter()
    counting = dataclasses.replace(held, key=_CountingKey(held.key, counts, False))
    assert (group.generator ** -counting).value == pow(group.g, group.q - k2, group.p)
    assert not counts
    assert (group.generator ** counting).value == pow(group.g, k2, group.p)
    assert counts == {"exchange": 1}

    made = []

    def capturing(k):
        made.append(_held(k))
        return made[-1]

    monkeypatch.setattr(dirsig.threshold, "_held", capturing)
    directory = _directory(group, [keygen(group, rng).y for _ in range(3)])
    _deal(group, directory, [5, 6], k2)
    (dealt,) = made
    assert isinstance(dealt, HeldScalar) and dealt.value == k2
    assert sys.getrefcount(dealt) == 3  # `made`, `dealt` and the argument of getrefcount
    key = dealt.key
    assert sys.getrefcount(key) == 3  # `dealt`'s field, `key` and the argument

