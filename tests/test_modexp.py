"""`_modexp`, the OpenSSL Montgomery kernel behind every exponentiation.

It must give builtin pow's answer on every input: prime and composite odd
moduli, exponents at and beyond q and p, bases at 0, 1, p-1, p and outside
the subgroup. Inputs the kernel does not take (an even modulus, one outside
512-10000 bits, a negative exponent) must reach builtin pow without calling
the loader, and the inputs it does take must really reach it, so that a
silent fallback to the slow path, or a cache in front of the kernel, fails
here. A power whose exponent is public takes a second framing of the same
kernel, a DSA key, whose cost follows the exponent's bits; no secret exponent
may reach it. Every secret power raises a member, and reaches the DH framing
padded to one count of 64-bit words.
"""

import random
from collections import Counter

import pytest
from cryptography.exceptions import UnsupportedAlgorithm
from cryptography.hazmat.primitives.asymmetric import dsa
from hypothesis import given
from hypothesis import strategies as st

import dirsig.group
from dirsig.directed import (
    prove_by_receiver, prove_by_signer, sign_directed, verify_as_third_party, verify_directed,
)
from dirsig.group import (
    _DH_OID,
    GroupElement,
    KeyPair,
    Member,
    PublicScalar,
    SchnorrGroup,
    _der,
    _der_int,
    _held,
    _modexp,
    _private_key,
    generate_group,
    is_probable_prime,
    keygen,
)
from dirsig.schnorr import schnorr_sign, schnorr_verify
from dirsig.threshold import (
    GroupDirectory,
    GroupMember,
    combine_and_verify,
    modify_shadow,
    partial_result,
    recover_share,
    sign_for_group,
)
from dirsig.threshold_crypto import decrypt_with_quorum, encrypt_to_group

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


@pytest.mark.parametrize(
    "n, e",
    [(1 << 511, 5), ((1 << 510) | 1, 5), ((1 << 10000) | 1, 5), (None, -1)],
    ids=["even-512-bit", "511-bit", "10001-bit", "negative-exponent"],
)
def test_the_gate_loads_no_key_outside_the_kernel(big_group, loads, n, e):
    """`_private_key` alone decides which powers OpenSSL raises: None, before any load."""
    n = big_group.p if n is None else n
    assert _private_key(n, 3, e) is None
    assert _private_key(n, 3, e, public=True) is None
    assert loads["tried"] == 0


@pytest.mark.parametrize("error", [ValueError, UnsupportedAlgorithm], ids=lambda c: c.__name__)
def test_the_gate_turns_a_refused_key_into_none(big_group, monkeypatch, error):
    """A backend or policy that refuses the key leaves `_modexp` builtin pow, `_held` k."""
    group, e = big_group, big_group.q - 1
    tried = []

    def refusing_load(der, password):
        tried.append(der)
        raise error("refused")

    monkeypatch.setattr(dirsig.group, "load_der_private_key", refusing_load)
    for public in (False, True):
        assert _private_key(group.p, group.g, e, public) is None
        assert _modexp(group.g, e, group.p, public) == pow(group.g, e, group.p)
    k = group.scalar(e)
    assert _held(k) is k
    assert len(tried) == 5


def test_the_gate_returns_a_key_whose_value_is_the_power(big_group):
    group = big_group
    non_member = next(b for b in range(2, 100) if pow(b, group.q, group.p) != 1)
    for base in (group.g, non_member):
        for e in (1, group.q - 1, group.p - 1):
            for public in (False, True):
                key = _private_key(group.p, base, e, public)
                assert key.private_numbers().public_numbers.y == pow(base, e, group.p)


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
    keys, nonces, shadows and h(R, m), which gives R away, never do. Each of those raises a
    member, so it reaches the DH load padded to e + q (a 160-bit q needs no second q)."""
    group, q = big_group, big_group.q
    rng = random.Random(0x5AFE)
    signer, receiver, third = (keygen(group, rng) for _ in range(3))
    assert kernels == [("dh", kp.x.value + q) for kp in (signer, receiver, third)]

    def step(fn, *args, **kwargs):
        kernels.clear()
        return fn(*args, **kwargs)

    k1, k2 = rng.randrange(1, q), rng.randrange(1, q)
    sig, nonces = step(sign_directed, group, signer, receiver.y, MSG, nonces=(k1, k2))
    # keygen's keys are members
    assert kernels == [("dh", k1 + q), ("dh", 2 * q - k2), ("dh", k2 + q)]
    accept, commitment = step(verify_directed, group, sig, receiver, signer.y)
    assert accept
    r_hash = commitment.r_hash.value
    assert kernels == [("dh", receiver.x.value + q), ("dsa", sig.s.value), ("dh", r_hash + q)]
    proof = step(prove_by_signer, group, nonces, third.y)
    assert kernels == [("dh", k1 + q), ("dh", k2 + q)]
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
    assert kernels == [("dh", 2 * q - k2), ("dh", k1 + q), ("dh", k2 + q)]  # the last is held
    ids = [m.u for m in directory.members]
    kernels.clear()
    partials = [
        partial_result(group, modify_shadow(recover_share(group, tsig, kp, u), ids))
        for kp, u in ((receiver, ids[0]), (third, ids[1]))
    ]
    assert [kind for kind, _ in kernels] == ["dh"] * 4
    assert step(combine_and_verify, group, tsig, partials, signer.y)
    assert [(kind, e == tsig.s.value) for kind, e in kernels] == [("dsa", True), ("dh", False)]


def _every_flow(group, below):
    """Run every library flow once, with each key, nonce and share coefficient drawn from
    [1, below): Schnorr, directed sign, verify and both proofs, and a 2-of-2 dealing, its
    member steps and combine, as a signature and as a ciphertext. Returns the directed
    flow's v, R and both proofs' v_c."""
    rng = random.Random(0x5107)

    def draw():
        return rng.randrange(1, below)

    signer, receiver, third, *members = (KeyPair.from_private(group, draw()) for _ in range(5))
    assert schnorr_verify(group, signer.y, MSG, schnorr_sign(group, signer, MSG, nonce=draw()))
    sig, nonces = sign_directed(group, signer, receiver.y, MSG, nonces=(draw(), draw()))
    accept, commitment = verify_directed(group, sig, receiver, signer.y)
    assert accept
    proofs = (
        prove_by_signer(group, nonces, third.y),
        prove_by_receiver(group, commitment, receiver, third.y, nonce=draw()),
    )
    assert all(verify_as_third_party(group, sig, proof, third, signer.y) for proof in proofs)
    directory = GroupDirectory(members=tuple(
        GroupMember(u=group.scalar(u), y=kp.y) for u, kp in enumerate(members, start=1)
    ))
    quorum = [(kp, m.u) for kp, m in zip(members, directory.members)]
    ids = [u for _, u in quorum]
    k1, k2 = draw(), draw()
    tsig = sign_for_group(group, signer, directory, 2, MSG, nonces=(k1, k2),
                          polynomial=(k1, draw()))
    partials = [
        partial_result(group, modify_shadow(recover_share(group, tsig, kp, u), ids))
        for kp, u in quorum
    ]
    assert combine_and_verify(group, tsig, partials, signer.y)
    ct = encrypt_to_group(group, signer, directory, 2, MSG, rng, nonces=(k1, k2),
                          polynomial=(k1, draw()))
    assert decrypt_with_quorum(group, ct, quorum, signer.y) == MSG
    return sig.v, commitment.r_elem, *(proof.v_c for proof in proofs)


def test_every_secret_power_raises_a_member(big_group, monkeypatch):
    """`_pad` is sound only for a base of order q, so in every library flow each power whose
    exponent is not a `PublicScalar` must raise a `Member`, and the directed flow's v, R and
    v_c must come back as members, with no plain element made along the way."""
    bases = []
    original = GroupElement.__pow__

    def recording_pow(self, exponent):
        if not isinstance(exponent, PublicScalar):
            bases.append(type(self))
        return original(self, exponent)

    monkeypatch.setattr(GroupElement, "__pow__", recording_pow)
    returned = _every_flow(big_group, big_group.q)
    # 33 powers on a DH load and the 4 masks of two dealings, by their held keys' exchange
    assert len(bases) == 37 and set(bases) == {Member}
    assert [type(element) for element in returned] == [Member] * 4


@pytest.mark.parametrize("size", ["512/160", "2048/224"])
def test_every_secret_exponent_reaches_the_loader_at_one_word_count(
    big_group, group_2048, kernels, size
):
    """Keys, nonces and coefficients one 64-bit word short of q would each load in fewer
    words, and so in less time (the nonce-length leak of Minerva, TCHES 2020). Every DH
    load of the flows, the held key of each dealing among them, takes ceil((len(q)+1)/64)
    words; only the DSA loads of public exponents keep their own length."""
    group = big_group if size == "512/160" else group_2048
    words = -(-(group.q.bit_length() + 1) // 64)
    _every_flow(group, 1 << 64 * (words - 1))
    dh = [e for kind, e in kernels if kind == "dh"]
    assert len(dh) == 35  # 33 powers and two dealings' held keys
    assert {-(-e.bit_length() // 64) for e in dh} == {words}


def test_schnorr_verify_raises_the_signature_as_public_exponents(toy_group, big_group, kernels):
    """s and r are the signature itself, so g^s and y^r both take the DSA framing, unpadded,
    for a member key and a plain one alike; each keeps its own group, so a signature made
    in another group is still refused."""
    rng = random.Random(0x5C4)
    signer = keygen(big_group, rng)
    sig = schnorr_sign(big_group, signer, MSG, rng)
    for key in (signer.y, GroupElement(signer.y.value, big_group)):
        kernels.clear()
        assert schnorr_verify(big_group, key, MSG, sig)
        assert kernels == [("dsa", sig.s.value), ("dsa", sig.r.value)]
    toy_sig = schnorr_sign(toy_group, keygen(toy_group, rng), MSG, rng)
    with pytest.raises(ValueError, match="different group"):
        schnorr_verify(big_group, signer.y, MSG, toy_sig)



def test_a_q_of_whole_words_is_padded_by_q_twice(kernels):
    """With len(q) = 128, e + q may keep 128 bits, so `_pad` adds 2q to every exponent: the
    addend is chosen from q alone, never from e; every exponent of a member, in [2q, 3q),
    reaches the DH load with 3 words, and b^e is unchanged."""
    group = generate_group(512, 128, random.Random(128))
    q = group.q
    member = group.generator ** 5
    kernels.clear()
    exponents = (0, 1, 2, (1 << 64) - 1, (1 << 127) - q // 2, q - 1, q, q + 1, 1 << 200)
    assert any((e % q + q).bit_length() == 128 for e in exponents)  # q alone would not do
    for e in exponents:
        assert (member ** e).value == pow(member.value, e, group.p)
    assert [x - e % q for (_, x), e in zip(kernels, exponents)] == [2 * q] * len(exponents)
    assert {(kind, -(-x.bit_length() // 64)) for kind, x in kernels} == {("dh", 3)}


def test_toy_groups_and_plain_bases_are_not_padded(toy_group, big_group, kernels):
    """Padding is for OpenSSL's word count: builtin pow (a toy group) gets e mod q, and a
    plain element, which may lie outside the subgroup, gets e as it is."""
    assert (toy_group.generator ** 25).value == pow(3, 25 % 11, 23)
    assert not kernels
    plain = GroupElement(big_group.g, big_group)
    e = big_group.q - 2
    assert (plain ** e).value == pow(big_group.g, e, big_group.p)
    assert kernels == [("dh", e)]
