"""`_modexp`, the OpenSSL Montgomery kernel behind every exponentiation.

It must give builtin pow's answer on every input: prime and composite odd
moduli, exponents at and beyond q and p, bases at 0, 1, p-1, p and outside
the subgroup. Inputs the kernel does not take (an even modulus, one outside
512-10000 bits, a negative exponent) must reach builtin pow without calling
the loader, and the inputs it does take must really reach it, so that a
silent fallback to the slow path, or a cache in front of the kernel, fails
here. A power whose exponent is public takes a second framing of the same
kernel, a DSA key, whose cost follows the exponent's bits; no secret exponent
may reach it.
"""

import random
from collections import Counter

import pytest
from cryptography.hazmat.primitives.asymmetric import dsa
from hypothesis import given
from hypothesis import strategies as st

import dirsig.group
from dirsig.directed import prove_by_signer, sign_directed, verify_as_third_party, verify_directed
from dirsig.group import (
    _DH_OID,
    GroupElement,
    SchnorrGroup,
    _der,
    _der_int,
    _modexp,
    is_probable_prime,
    keygen,
)
from dirsig.threshold import (
    GroupDirectory,
    GroupMember,
    combine_and_verify,
    modify_shadow,
    partial_result,
    recover_share,
    sign_for_group,
)

from conftest import CARMICHAEL_512, CHERNICK_K, MSG


@pytest.fixture()
def loads(monkeypatch):
    """Counts the loader's calls ("tried") and the keys it returned ("loaded")."""
    calls = Counter()
    original = dirsig.group.load_der_private_key

    def counting_load(*args, **kwargs):
        calls["tried"] += 1
        key = original(*args, **kwargs)
        calls["loaded"] += 1
        return key

    monkeypatch.setattr(dirsig.group, "load_der_private_key", counting_load)
    return calls


def _exponents(group):
    p, q = group.p, group.q
    return (0, 1, q - 1, q, q + 1, p - 1, p, 1 << 4096)


def _bases(group):
    p, q, g = group.p, group.q, group.g
    member = pow(g, q // 3, p)
    non_member = next(b for b in range(2, 100) if pow(b, q, p) != 1)
    return (0, 1, p - 1, p, member, non_member)


@pytest.mark.parametrize("size", ["512/160", "2048/224"])
def test_kernel_equals_pow_at_the_edges(big_group, group_2048, size):
    group = big_group if size == "512/160" else group_2048
    for public in (False, True):
        for e in _exponents(group):
            for base in _bases(group):
                assert _modexp(base, e, group.p, public) == pow(base, e, group.p), (
                    public, e.bit_length(), base
                )


def test_kernel_equals_pow_modulo_composites(big_group):
    for n in (big_group.p * big_group.q, CARMICHAEL_512):
        assert n.bit_length() >= 512 and n % 2 == 1
        for e in (*_exponents(big_group), n - 1, n):
            for base in (0, 1, 2, n - 1, n, big_group.g, 6 * CHERNICK_K + 1):
                assert _modexp(base, e, n) == _modexp(base, e, n, public=True) == pow(base, e, n)


def test_carmichael_number_is_still_rejected():
    factors = (6 * CHERNICK_K + 1, 12 * CHERNICK_K + 1, 18 * CHERNICK_K + 1)
    assert all(is_probable_prime(f) for f in factors)
    # a Fermat test to base 2 accepts it; Miller-Rabin must not
    assert _modexp(2, CARMICHAEL_512 - 1, CARMICHAEL_512) == 1
    assert not is_probable_prime(CARMICHAEL_512)


@given(
    n=st.integers(1 << 511, (1 << 2048) - 1).map(lambda n: n | 1),
    base=st.integers(0, 1 << 2100),
    e=st.integers(0, 1 << 600),
)
def test_kernel_equals_pow_on_random_odd_moduli(n, base, e):
    assert _modexp(base, e, n) == _modexp(base, e, n, public=True) == pow(base, e, n)


@pytest.mark.parametrize(
    "base, e, n",
    [
        (3, 12345, (1 << 510) | 1),  # 511 bits: the loader refuses the key
        (3, 12345, (1 << 10000) | 1),  # 10001 bits: the kernel raises
        (3, 12345, 1 << 600),  # even: Montgomery needs an odd modulus
        (3, -5, (1 << 600) | 1),  # negative: not an exponent DER can carry
    ],
    ids=["511-bit", "10001-bit", "even", "negative-exponent"],
)
def test_inputs_outside_the_kernel_take_builtin_pow(loads, base, e, n):
    assert _modexp(base, e, n) == pow(base, e, n)
    assert loads["tried"] == 0


@pytest.mark.parametrize("size", ["512/160", "2048/224"])
def test_validation_and_untabled_powers_run_on_the_kernel(big_group, group_2048, loads, size):
    group = big_group if size == "512/160" else group_2048
    fresh = SchnorrGroup(group.p, group.q, group.g)
    # 64 Miller-Rabin rounds on p and g^q; q has under 512 bits and keeps builtin pow
    assert loads == {"tried": 65, "loaded": 65}
    loads.clear()
    member = fresh.element(pow(group.g, 5, group.p))
    assert loads == {"tried": 1, "loaded": 1}
    loads.clear()
    e = random.Random(1).randrange(fresh.q)
    assert (member ** e).value == pow(member.value, e, group.p)
    assert (fresh.generator ** e).value == pow(group.g, e, group.p)
    assert loads == {"tried": 2, "loaded": 2}
    assert vars(member) == {"value": member.value, "group": fresh}


@pytest.mark.parametrize("size", ["512/160", "2048/224"])
def test_every_power_is_one_kernel_call(big_group, group_2048, loads, size):
    """However often a key or g is raised, no table or cache takes the kernel's place."""
    group = big_group if size == "512/160" else group_2048
    key = GroupElement(pow(group.g, 7, group.p), group)
    rng = random.Random(20)
    for element in (key, group.generator):
        for _ in range(20):
            loads.clear()
            e = rng.randrange(group.q)
            assert (element ** e).value == pow(element.value, e, group.p)
            assert loads == {"tried": 1, "loaded": 1}
    loads.clear()
    assert (group.generator ** -1).value == pow(group.g, group.q - 1, group.p)
    assert loads == {"tried": 1, "loaded": 1}
    assert vars(key) == {"value": key.value, "group": group}
    assert vars(group) == {"p": group.p, "q": group.q, "g": group.g}


@pytest.mark.parametrize("size", ["512/160", "2048/224"])
def test_the_key_bytes_are_the_same_from_a_cold_and_a_warm_modulus_memo(
    big_group, group_2048, monkeypatch, size
):
    """The memoised DER of the modulus frames the same PKCS#8 key as one built afresh."""
    group = big_group if size == "512/160" else group_2048
    seen = []
    original = dirsig.group.load_der_private_key

    def recording_load(der, password):
        seen.append(der)
        return original(der, password)

    monkeypatch.setattr(dirsig.group, "load_der_private_key", recording_load)
    dirsig.group._der_modulus.cache_clear()
    base, e = group.g, group.q - 1
    for _ in range(2):  # cold, then warm
        assert _modexp(base, e, group.p) == pow(base, e, group.p)
    assert dirsig.group._der_modulus.cache_info().hits == 1
    parameters = _der(0x30, _der_int(group.p) + _der_int(base))
    expected = _der(0x30, bytes.fromhex("020100") + _der(0x30, _DH_OID + parameters)
                    + _der(0x04, _der_int(e)))
    assert seen == [expected, expected]


def test_toy_groups_keep_builtin_pow(toy_group, loads):
    SchnorrGroup(23, 11, 3)
    assert (GroupElement(2, toy_group) ** 7).value == pow(2, 7, 23)
    assert loads["tried"] == 0


@pytest.mark.parametrize("size", ["512/160", "2048/224"])
def test_a_public_power_is_a_dsa_key_with_a_placeholder_q(
    big_group, group_2048, monkeypatch, size
):
    """id-dsa (1.2.840.10040.4.1) with Dss-Parms (p, 1, base) and the exponent as x."""
    group = big_group if size == "512/160" else group_2048
    seen = []
    original = dirsig.group.load_der_private_key

    def recording_load(der, password):
        seen.append(der)
        return original(der, password)

    monkeypatch.setattr(dirsig.group, "load_der_private_key", recording_load)
    base, e = group.g, group.q - 1
    assert _modexp(base, e, group.p, public=True) == pow(base, e, group.p)
    parameters = _der(0x30, _der_int(group.p) + bytes.fromhex("020101") + _der_int(base))
    algorithm = _der(0x30, bytes.fromhex("06072a8648ce380401") + parameters)
    assert seen == [_der(0x30, bytes.fromhex("020100") + algorithm + _der(0x04, _der_int(e)))]


@pytest.fixture()
def kernels(monkeypatch):
    """The ("dsa" or "dh", exponent) of every key the loader returns, in call order."""
    calls = []
    original = dirsig.group.load_der_private_key

    def recording_load(der, password):
        key = original(der, password)
        calls.append(("dsa" if isinstance(key, dsa.DSAPrivateKey) else "dh",
                      key.private_numbers().x))
        return key

    monkeypatch.setattr(dirsig.group, "load_der_private_key", recording_load)
    return calls


def test_only_public_exponents_take_the_variable_time_kernel(big_group, kernels):
    """The response s and the order q of a membership or order check take the DSA framing;
    keys, nonces, shadows and h(R, m), which gives R away, never do."""
    group, q = big_group, big_group.q
    rng = random.Random(0x5AFE)
    signer, receiver, third = (keygen(group, rng) for _ in range(3))
    assert kernels == [("dh", kp.x.value) for kp in (signer, receiver, third)]

    def step(fn, *args, **kwargs):
        kernels.clear()
        return fn(*args, **kwargs)

    k1, k2 = rng.randrange(1, q), rng.randrange(1, q)
    sig, nonces = step(sign_directed, group, signer, receiver.y, MSG, nonces=(k1, k2))
    assert kernels == [("dh", k1), ("dh", q - k2), ("dh", k2)]  # keygen's keys are members
    accept, commitment = step(verify_directed, group, sig, receiver, signer.y)
    assert accept
    r_hash = commitment.r_hash.value
    assert kernels == [("dh", receiver.x.value), ("dsa", sig.s.value), ("dh", r_hash)]
    proof = step(prove_by_signer, group, nonces, third.y)
    assert kernels == [("dh", k1), ("dh", k2)]
    assert step(verify_as_third_party, group, sig, proof, third, signer.y)
    assert [kind for kind, _ in kernels] == ["dh", "dsa", "dh"]
    step(group.element, signer.y.value)
    assert kernels == [("dsa", q)]
    step(SchnorrGroup, group.p, group.q, group.g)  # 64 Miller-Rabin rounds on p, then g^q
    assert [kind for kind, _ in kernels] == ["dh"] * 64 + ["dsa"]
    assert kernels[-1] == ("dsa", q)

    directory = GroupDirectory(members=(
        GroupMember(u=group.scalar(1), y=receiver.y), GroupMember(u=group.scalar(2), y=third.y),
    ))
    tsig = step(sign_for_group, group, signer, directory, 2, MSG, nonces=(k1, k2))
    assert kernels == [("dh", q - k2), ("dh", k1), ("dh", k2)]  # the last is the held key
    ids = [m.u for m in directory.members]
    kernels.clear()
    partials = [
        partial_result(group, modify_shadow(recover_share(group, tsig, kp, u), ids))
        for kp, u in ((receiver, ids[0]), (third, ids[1]))
    ]
    assert [kind for kind, _ in kernels] == ["dh"] * 4
    assert step(combine_and_verify, group, tsig, partials, signer.y)
    assert [(kind, e == tsig.s.value) for kind, e in kernels] == [("dsa", True), ("dh", False)]
