"""Threshold verification: golden trace, quorum properties, censuses."""

import dataclasses
import hashlib
import itertools
import random

import pytest

from dirsig.directed import mask, sign_directed, verify_directed
from dirsig.group import GroupElement, NotInSubgroupError, keygen, validate_group
from dirsig.hashing import Sha256Hash
from dirsig.serialize import threshold_signature_to_dict
from dirsig.shamir import (
    Share,
    ShareIdError,
    SharingPolynomial,
    _powers,
    lagrange_coefficient_at_zero,
    reconstruct,
    split,
)
from dirsig.threshold import (
    GroupDirectory,
    GroupMember,
    MaskedShare,
    MemberNotFoundError,
    PartialResult,
    QuorumMembershipError,
    QuorumSizeError,
    combine_and_verify,
    modify_shadow,
    partial_result,
    recover_share,
    sign_for_group,
)
from dirsig.threshold_crypto import encrypt_to_group

from conftest import MSG
from test_directed import order_three

TOY_SUBGROUP = sorted(pow(3, i, 23) for i in range(11))


def _golden_signature(toy_group, toy_keys, toy_directory, h):
    return sign_for_group(
        toy_group, toy_keys["signer"], toy_directory, 2, MSG,
        h=h, nonces=(9, 5), polynomial=(9, 3),
    )


def _member_keys(toy_keys):
    return {1: toy_keys["receiver"], 2: toy_keys["third"], 3: toy_keys["extra"]}


def _run_quorum(group, sig, members, quorum):
    quorum_ids = [group.scalar(u) for u in quorum]
    partials = []
    for u in quorum:
        share = recover_share(group, sig, members[u], group.scalar(u))
        shadow = modify_shadow(share, quorum_ids)
        partials.append(partial_result(group, shadow))
    return partials


def _product(partials):
    value = partials[0].value
    for partial in partials[1:]:
        value = value * partial.value
    return value


def test_golden_trace_signature(toy_group, toy_keys, toy_directory, fixture_hash):
    sig = _golden_signature(toy_group, toy_keys, toy_directory, fixture_hash)
    assert sig.s.value == 5
    assert sig.w.value == 16
    assert sig.threshold == 2
    # v_1 = 1*2^5 = 9, v_2 = 4*16^5 = 1, v_3 = 7*13^5 = 5 (all mod 23)
    assert [ms.v for ms in sig.masked_shares] == [9, 1, 5]


def test_golden_share_recovery(toy_group, toy_keys, toy_directory, fixture_hash):
    sig = _golden_signature(toy_group, toy_keys, toy_directory, fixture_hash)
    members = _member_keys(toy_keys)
    # f(1)=1: 9*16^7 = 1;  f(2)=4: 1*16^6 = 4;  f(3)=7: 5*16^5 = 7
    for u, expected in ((1, 1), (2, 4), (3, 7)):
        share = recover_share(toy_group, sig, members[u], toy_group.scalar(u))
        assert share.v.value == expected


def test_recovery_with_wrong_key_breaks_downstream(toy_group, toy_keys, toy_directory,
                                                   fixture_hash, fallback_fixture_hash):
    sig = _golden_signature(toy_group, toy_keys, toy_directory, fixture_hash)
    members = _member_keys(toy_keys)
    # member 3 using x=4 instead of x=5 recovers garbage, not f(3)=7
    bad_share = recover_share(toy_group, sig, toy_keys["signer"], toy_group.scalar(3))
    assert bad_share.v.value != 7
    quorum_ids = [toy_group.scalar(1), toy_group.scalar(3)]
    good = recover_share(toy_group, sig, members[1], toy_group.scalar(1))
    partials = [
        partial_result(toy_group, modify_shadow(good, quorum_ids)),
        partial_result(toy_group, modify_shadow(bad_share, quorum_ids)),
    ]
    assert not combine_and_verify(
        toy_group, sig, partials, toy_keys["signer"].y, fallback_fixture_hash
    )


def test_golden_shadows_and_partials(toy_group, toy_keys, toy_directory, fixture_hash):
    sig = _golden_signature(toy_group, toy_keys, toy_directory, fixture_hash)
    members = _member_keys(toy_keys)
    quorum_ids = [toy_group.scalar(1), toy_group.scalar(2)]
    share1 = recover_share(toy_group, sig, members[1], toy_group.scalar(1))
    share2 = recover_share(toy_group, sig, members[2], toy_group.scalar(2))
    shadow1 = modify_shadow(share1, quorum_ids)
    shadow2 = modify_shadow(share2, quorum_ids)
    assert shadow1.value.value == 2  # 1 * lambda_1 = 2
    assert shadow2.value.value == 7  # 4 * lambda_2 = 40 mod 11
    assert (shadow1.value + shadow2.value).value == 9  # the dealt secret k1
    assert partial_result(toy_group, shadow1).value.value == 9  # 3^2
    assert partial_result(toy_group, shadow2).value.value == 2  # 3^7


@pytest.mark.parametrize("deal", [sign_for_group, encrypt_to_group])
def test_a_toy_dealing_to_a_key_of_order_two_stops(toy_group, toy_keys, deal):
    """22 = -1 mod 23 has order 2, so under an even k2 its mask is 1 and the member's share
    would go out in the clear. Toy groups hold no key, so the check is `mask`'s own."""
    directory = GroupDirectory(members=(
        GroupMember(u=toy_group.scalar(1), y=toy_keys["receiver"].y),
        GroupMember(u=toy_group.scalar(2), y=GroupElement(22, toy_group)),
    ))
    with pytest.raises(NotInSubgroupError):
        deal(toy_group, toy_keys["signer"], directory, 2, MSG, nonces=(9, 4))


def test_partial_of_zero_shadow_is_identity(toy_group):
    from dirsig.threshold import ModifiedShadow

    shadow = ModifiedShadow(u=toy_group.scalar(1), value=toy_group.scalar(0))
    assert partial_result(toy_group, shadow).value.value == 1


def test_golden_combine(toy_group, toy_keys, toy_directory, fixture_hash):
    sig = _golden_signature(toy_group, toy_keys, toy_directory, fixture_hash)
    partials = _run_quorum(toy_group, sig, _member_keys(toy_keys), (1, 2))
    assert _product(partials).value == 18
    assert combine_and_verify(toy_group, sig, partials, toy_keys["signer"].y, fixture_hash)


def test_all_quorums_rebuild_same_commitment(toy_group, toy_keys, toy_directory, fixture_hash):
    sig = _golden_signature(toy_group, toy_keys, toy_directory, fixture_hash)
    members = _member_keys(toy_keys)
    for quorum in itertools.combinations((1, 2, 3), 2):
        partials = _run_quorum(toy_group, sig, members, quorum)
        assert _product(partials).value == 18
        assert combine_and_verify(toy_group, sig, partials, toy_keys["signer"].y, fixture_hash)


def test_exhaustive_quorums_up_to_five_members(toy_group):
    """Toy sharings with n <= 5: every C(n,k) quorum rebuilds the same
    commitment and accepts."""
    rng = random.Random(211)
    h = Sha256Hash()
    signer = keygen(toy_group, rng)
    for n in range(1, 6):
        for k in range(1, n + 1):
            member_keys = {u: keygen(toy_group, rng) for u in range(1, n + 1)}
            directory = GroupDirectory(
                members=tuple(
                    GroupMember(u=toy_group.scalar(u), y=member_keys[u].y)
                    for u in range(1, n + 1)
                )
            )
            sig = sign_for_group(toy_group, signer, directory, k, MSG, rng, h)
            commitments = set()
            for quorum in itertools.combinations(range(1, n + 1), k):
                partials = _run_quorum(toy_group, sig, member_keys, quorum)
                commitments.add(_product(partials).value)
                assert combine_and_verify(toy_group, sig, partials, signer.y, h), (n, k, quorum)
            assert len(commitments) == 1, (n, k)


def test_threshold_one_lets_any_member_verify_alone(toy_group, toy_keys, toy_directory,
                                                    fixture_hash):
    sig = sign_for_group(
        toy_group, toy_keys["signer"], toy_directory, 1, MSG,
        h=fixture_hash, nonces=(9, 5), polynomial=(9,),
    )
    members = _member_keys(toy_keys)
    for u in (1, 2, 3):
        partials = _run_quorum(toy_group, sig, members, (u,))
        assert _product(partials).value == 18
        assert combine_and_verify(toy_group, sig, partials, toy_keys["signer"].y, fixture_hash)


def test_threshold_equal_to_group_size(toy_group, toy_keys, toy_directory, fixture_hash):
    sig = sign_for_group(
        toy_group, toy_keys["signer"], toy_directory, 3, MSG,
        h=fixture_hash, nonces=(9, 5), polynomial=(9, 3, 2),
    )
    members = _member_keys(toy_keys)
    partials = _run_quorum(toy_group, sig, members, (1, 2, 3))
    assert _product(partials).value == 18
    assert combine_and_verify(toy_group, sig, partials, toy_keys["signer"].y, fixture_hash)
    with pytest.raises(QuorumSizeError):
        combine_and_verify(toy_group, sig, partials[:2], toy_keys["signer"].y, fixture_hash)


def test_undersized_quorum_rejected(toy_group, toy_keys, toy_directory, fixture_hash):
    sig = _golden_signature(toy_group, toy_keys, toy_directory, fixture_hash)
    partials = _run_quorum(toy_group, sig, _member_keys(toy_keys), (1, 2))
    with pytest.raises(QuorumSizeError):
        combine_and_verify(toy_group, sig, partials[:1], toy_keys["signer"].y, fixture_hash)


def test_duplicate_partials_rejected(toy_group, toy_keys, toy_directory, fixture_hash):
    sig = _golden_signature(toy_group, toy_keys, toy_directory, fixture_hash)
    partials = _run_quorum(toy_group, sig, _member_keys(toy_keys), (1, 2))
    with pytest.raises(ShareIdError):
        combine_and_verify(
            toy_group, sig, [partials[0], partials[0]], toy_keys["signer"].y, fixture_hash
        )


def test_directory_rejects_duplicate_ids(toy_group, toy_directory):
    first = toy_directory.members[0]
    with pytest.raises(ShareIdError):
        GroupDirectory(members=(first, GroupMember(u=first.u, y=toy_directory.members[1].y)))


def test_unknown_member_rejected(toy_group, toy_keys, toy_directory, fixture_hash):
    sig = _golden_signature(toy_group, toy_keys, toy_directory, fixture_hash)
    with pytest.raises(MemberNotFoundError):
        recover_share(toy_group, sig, toy_keys["receiver"], toy_group.scalar(9))


def test_share_outside_quorum_rejected(toy_group, toy_keys, toy_directory, fixture_hash):
    sig = _golden_signature(toy_group, toy_keys, toy_directory, fixture_hash)
    share = recover_share(toy_group, sig, toy_keys["receiver"], toy_group.scalar(1))
    with pytest.raises(QuorumMembershipError):
        modify_shadow(share, [toy_group.scalar(2), toy_group.scalar(3)])


def test_member_lookup_requires_the_same_group(toy_group, toy_keys, toy_directory, fixture_hash):
    """An id of equal value from another group matches no member: the lookups
    compare values first, yet still require group equality."""
    other = validate_group(47, 23, 2)
    sig = _golden_signature(toy_group, toy_keys, toy_directory, fixture_hash)
    with pytest.raises(MemberNotFoundError):
        recover_share(toy_group, sig, toy_keys["receiver"], other.scalar(1))
    share = recover_share(toy_group, sig, toy_keys["receiver"], toy_group.scalar(1))
    with pytest.raises(QuorumMembershipError):
        modify_shadow(share, [other.scalar(1), other.scalar(2)])


def test_threshold_range_enforced(toy_group, toy_keys, toy_directory):
    from dirsig.shamir import ThresholdRangeError

    with pytest.raises(ThresholdRangeError):
        sign_for_group(toy_group, toy_keys["signer"], toy_directory, 4, MSG)
    with pytest.raises(ThresholdRangeError):
        sign_for_group(toy_group, toy_keys["signer"], toy_directory, 0, MSG)


def test_corrupted_partial_census(toy_group, toy_keys, toy_directory):
    """Replacing one partial with a random subgroup element is rejected
    except exactly the chance hits the raw-integer oracle confirms."""
    rng = random.Random(83)
    h = Sha256Hash()
    members = _member_keys(toy_keys)
    sig = sign_for_group(
        toy_group, toy_keys["signer"], toy_directory, 2, MSG, rng, h
    )
    honest = _run_quorum(toy_group, sig, members, (1, 2))
    hits = 0
    for _ in range(1000):
        forged = PartialResult(
            u=toy_group.scalar(2), value=toy_group.element(rng.choice(TOY_SUBGROUP))
        )
        partials = [honest[0], forged]
        accept = combine_and_verify(toy_group, sig, partials, toy_keys["signer"].y, h)
        r_elem = honest[0].value.value * forged.value.value % 23
        digest = hashlib.sha256(r_elem.to_bytes(1, "big") + MSG).digest()
        r_hash = int.from_bytes(digest, "big") % 11
        expected = pow(3, sig.s.value, 23) == r_elem * pow(12, r_hash, 23) % 23
        assert accept == expected
        hits += accept
    assert hits < 400  # ~1/q of the forgeries hit by chance at toy scale


def test_sub_threshold_exhaustive_search(toy_group, toy_keys, toy_directory, fixture_hash):
    """With k-1 members, the only missing-partial value in all of Z_23* that
    makes the combiner accept is the true partial, which requires the
    missing member's private key. The strict fixture rejects every
    commitment other than the dealt one."""
    from dirsig.hashing import FixtureMissError

    sig = _golden_signature(toy_group, toy_keys, toy_directory, fixture_hash)
    members = _member_keys(toy_keys)
    for present, missing in ((1, 2), (2, 1)):
        quorum = sorted((present, missing))
        honest = dict(zip(quorum, _run_quorum(toy_group, sig, members, quorum)))
        accepting = set()
        for candidate in range(1, 23):
            forged = PartialResult(
                u=toy_group.scalar(missing), value=GroupElement(candidate, toy_group)
            )
            ordered = [honest[present], forged]
            try:
                if combine_and_verify(
                    toy_group, sig, ordered, toy_keys["signer"].y, fixture_hash
                ):
                    accepting.add(candidate)
            except FixtureMissError:
                pass  # unknown commitment: fail-loud fixture means reject
        assert accepting == {honest[missing].value.value}


def test_consistency_with_directed_scheme(toy_group, toy_keys, fixture_hash,
                                          fallback_fixture_hash):
    """k = n = 1 threshold verification accepts exactly when the directed
    scheme accepts (transcripts differ: V_B carries the mask, V_R does not)."""
    directory = GroupDirectory(
        members=(GroupMember(u=toy_group.scalar(1), y=toy_keys["receiver"].y),)
    )
    tsig = sign_for_group(
        toy_group, toy_keys["signer"], directory, 1, MSG,
        h=fixture_hash, nonces=(9, 5),
    )
    dsig, _ = sign_directed(
        toy_group, toy_keys["signer"], toy_keys["receiver"].y, MSG,
        h=fixture_hash, nonces=(9, 5),
    )
    partials = _run_quorum(toy_group, tsig, {1: toy_keys["receiver"]}, (1,))
    t_accept = combine_and_verify(toy_group, tsig, partials, toy_keys["signer"].y, fixture_hash)
    d_accept, _ = verify_directed(
        toy_group, dsig, toy_keys["receiver"], toy_keys["signer"].y, fixture_hash
    )
    assert t_accept and d_accept

    # parity holds on a tampered response as well
    bad_t = type(tsig)(
        s=tsig.s + toy_group.scalar(1), w=tsig.w,
        message=tsig.message, masked_shares=tsig.masked_shares, threshold=tsig.threshold,
    )
    bad_d = type(dsig)(
        s=dsig.s + toy_group.scalar(1), w=dsig.w, v=dsig.v, message=dsig.message
    )
    t_accept = combine_and_verify(
        toy_group, bad_t, partials, toy_keys["signer"].y, fallback_fixture_hash
    )
    d_accept, _ = verify_directed(
        toy_group, bad_d, toy_keys["receiver"], toy_keys["signer"].y, fallback_fixture_hash
    )
    assert t_accept == d_accept == False  # noqa: E712 - parity is the point


def test_random_instances_at_production_size(big_group):
    rng = random.Random(89)
    for _ in range(3):
        n = rng.randrange(2, 6)
        k = rng.randrange(1, n + 1)
        signer = keygen(big_group, rng)
        member_keys = {u: keygen(big_group, rng) for u in range(1, n + 1)}
        directory = GroupDirectory(
            members=tuple(
                GroupMember(u=big_group.scalar(u), y=member_keys[u].y)
                for u in range(1, n + 1)
            )
        )
        sig = sign_for_group(big_group, signer, directory, k, MSG, rng)
        for quorum in itertools.combinations(range(1, n + 1), k):
            partials = _run_quorum(big_group, sig, member_keys, quorum)
            assert combine_and_verify(big_group, sig, partials, signer.y)


def test_masked_share_error_gives_a_size_not_digits(toy_group, big_group):
    with pytest.raises(ValueError) as excinfo:
        MaskedShare(u=toy_group.scalar(1), v=10**5000)
    message = str(excinfo.value)
    assert "masked share" in message and "16610-bit" in message and "limit" not in message
    v = big_group.p + 123456789
    with pytest.raises(ValueError) as excinfo:
        MaskedShare(u=big_group.scalar(1), v=v)
    assert str(v) not in str(excinfo.value) and format(v, "x") not in str(excinfo.value)


def _legendre(value, p):
    return pow(value, (p - 1) // 2, p)


def test_masks_keep_the_quadratic_character_of_each_share(big_group):
    """A known weakness, pinned: y_i^k2 is a square, so v_i = f(u_i)·y_i^k2
    has the Legendre symbol of the share f(u_i) (Boneh-Joux-Nguyen,
    ASIACRYPT 2000). The paper's multiplicative mask is kept as it is."""
    rng = random.Random(0x1E6)
    n = 12
    member_keys = {u: keygen(big_group, rng) for u in range(1, n + 1)}
    directory = GroupDirectory(members=tuple(
        GroupMember(u=big_group.scalar(u), y=kp.y) for u, kp in member_keys.items()
    ))
    signer = keygen(big_group, rng)
    symbols = set()
    for _ in range(4):
        sig = sign_for_group(big_group, signer, directory, 5, MSG, rng)
        for masked in sig.masked_shares:
            share = recover_share(big_group, sig, member_keys[masked.u.value], masked.u)
            symbols.add(_legendre(share.v.value, big_group.p))
            assert _legendre(masked.v, big_group.p) == _legendre(share.v.value, big_group.p)
    assert symbols == {1, big_group.p - 1}  # both characters occur, and both leak


def _five_members(group, rng):
    """Key pairs of members 1..5 and their directory."""
    keys = {u: keygen(group, rng) for u in range(1, 6)}
    directory = GroupDirectory(members=tuple(
        GroupMember(u=group.scalar(u), y=kp.y) for u, kp in keys.items()
    ))
    return keys, directory


@pytest.mark.parametrize("flow", ["sign_for_group", "encrypt_to_group"])
def test_a_pooling_quorum_gets_the_signers_key(big_group, flow):
    """Pinned weakness of the construction: k1 = f(0) is both the commitment nonce and
    the dealt secret. So k members who pool the shares they unmask get k1, and with the
    public s the key x = (s - k1)/h(g^k1, m). A decrypting quorum gets the sender's key
    the same way, under the encryption tag. k - 1 pooled shares do not give x."""
    rng = random.Random(0x9001)
    keys, directory = _five_members(big_group, rng)
    signer = keygen(big_group, rng)
    if flow == "sign_for_group":
        sig = sign_for_group(big_group, signer, directory, 3, MSG, rng)
        h, signed = Sha256Hash(), MSG
    else:
        sig = encrypt_to_group(big_group, signer, directory, 3, MSG, rng)
        h, signed = Sha256Hash().tagged(b"dirsig/gencrypt"), sig.ciphertext
    shares = [recover_share(big_group, sig, keys[m.u.value], m.u) for m in sig.masked_shares]

    def pooled_key(pool):
        k1 = reconstruct(pool)
        return (sig.s - k1) * h.hash_to_scalar(big_group.generator ** k1, signed).inverse()

    for size, gives_x in ((3, True), (2, False)):
        for pool in itertools.combinations(shares, size):
            assert (pooled_key(pool) == signer.x) is gives_x


def test_anyone_can_rerandomize_a_threshold_signature(big_group):
    """Pinned weakness of the construction: from public values alone, w·g^-t with each
    v_i·y_i^t is a signature with new bytes, and honest member steps on it combine to
    the same R, which verifies."""
    rng = random.Random(0x2E2B)
    keys, directory = _five_members(big_group, rng)
    signer = keygen(big_group, rng)
    sig = sign_for_group(big_group, signer, directory, 3, MSG, rng)
    t = big_group.random_scalar(rng, nonzero=True)
    twin = dataclasses.replace(sig, w=sig.w * big_group.generator ** -t, masked_shares=tuple(
        MaskedShare(u=masked.u, v=mask(masked.v, member.y, t))
        for masked, member in zip(sig.masked_shares, directory.members)
    ))
    assert threshold_signature_to_dict(twin) != threshold_signature_to_dict(sig)
    quorum = [m.u for m in directory.members[:3]]
    partials = [
        partial_result(big_group, modify_shadow(
            recover_share(big_group, twin, keys[u.value], u), quorum
        ))
        for u in quorum
    ]
    assert combine_and_verify(big_group, twin, partials, signer.y)


def test_dealt_shares_are_blinded_with_mask(big_group):
    """With injected nonces and polynomial, v_i = mask(f(u_i), y_i, k2) = f(u_i) * y_i^k2 mod p."""
    rng = random.Random(0x5A4E)
    n, k = 6, 4
    member_keys = {u: keygen(big_group, rng) for u in range(1, n + 1)}
    directory = GroupDirectory(members=tuple(
        GroupMember(u=big_group.scalar(u), y=kp.y) for u, kp in member_keys.items()
    ))
    k1, k2 = rng.randrange(1, big_group.q), rng.randrange(1, big_group.q)
    coefficients = [k1] + [rng.randrange(big_group.q) for _ in range(k - 1)]
    sig = sign_for_group(
        big_group, keygen(big_group, rng), directory, k, MSG,
        nonces=(k1, k2), polynomial=coefficients,
    )
    p, q = big_group.p, big_group.q
    for masked, member in zip(sig.masked_shares, directory.members):
        u = member.u.value
        f_u = sum(c * pow(u, i, q) for i, c in enumerate(coefficients)) % q
        expected = mask(f_u, member.y, big_group.scalar(k2))
        assert masked.v == expected == f_u * pow(member.y.value, k2, p) % p


def test_the_power_memo_holds_no_secret_of_a_dealing(big_group):
    """After a dealing with injected nonces and polynomial, the one memoised entry is
    the directory's public id powers: no coefficient, share value, k1 or k2."""
    rng = random.Random(0x4D45)
    n, k = 6, 4
    directory = GroupDirectory(members=tuple(
        GroupMember(u=big_group.scalar(rng.randrange(1, big_group.q)), y=keygen(big_group, rng).y)
        for _ in range(n)
    ))
    k1, k2 = rng.randrange(1, big_group.q), rng.randrange(1, big_group.q)
    coefficients = [k1] + [rng.randrange(big_group.q) for _ in range(k - 1)]
    _powers.cache_clear()
    sign_for_group(big_group, keygen(big_group, rng), directory, k, MSG,
                   nonces=(k1, k2), polynomial=coefficients)
    assert _powers.cache_info().currsize == 1
    xs = tuple(member.u.value for member in directory.members)
    rows = _powers(big_group, xs, k)
    assert _powers.cache_info().hits == 1  # the dealing's own entry, not a recomputed one
    q = big_group.q
    assert rows == tuple(tuple(pow(u, j, q) for j in range(k)) for u in xs)
    polynomial = SharingPolynomial(tuple(big_group.scalar(c) for c in coefficients))
    shares = [polynomial.evaluate(member.u).value for member in directory.members]
    cached = {value for row in rows for value in row}
    assert cached.isdisjoint([*coefficients, *shares, k1, k2])


def test_plain_int_ids_are_a_type_error(toy_group, toy_keys, toy_directory, fixture_hash):
    """Every entry point that takes member ids rejects a plain int id with
    TypeError, wherever it sits among the ids, not with AttributeError."""
    sig = _golden_signature(toy_group, toy_keys, toy_directory, fixture_hash)
    receiver = toy_keys["receiver"]
    share = recover_share(toy_group, sig, receiver, toy_group.scalar(1))
    one, five = toy_group.scalar(1), toy_group.scalar(5)
    calls = [
        lambda: recover_share(toy_group, sig, receiver, 1),
        lambda: modify_shadow(Share(u=1, v=five), [one, toy_group.scalar(2)]),
    ]
    for ids in ([1, 2], [one, 2], [2, one]):
        calls += [
            lambda ids=ids: lagrange_coefficient_at_zero(ids, 0),
            lambda ids=ids: reconstruct([Share(u=u, v=five) for u in ids]),
            lambda ids=ids: split(five, 2, ids),
            lambda ids=ids: GroupDirectory(members=tuple(GroupMember(u, receiver.y) for u in ids)),
            lambda ids=ids: modify_shadow(share, ids),
        ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_a_small_subgroup_query_on_a_threshold_w_is_refused(big_group):
    """As `test_a_small_subgroup_query_is_refused` for a member's `recover_share`: a w that
    carries z of order 3, with the member's masked share divided by z^t, is refused for
    every t instead of unmasking a share that tells whether the member's x is t mod 3."""
    group, rng = big_group, random.Random(0x3D3)
    members = [keygen(group, rng) for _ in range(3)]
    directory = GroupDirectory(members=tuple(
        GroupMember(u=group.scalar(u), y=kp.y) for u, kp in enumerate(members, start=1)
    ))
    sig = sign_for_group(group, keygen(group, rng), directory, 2, MSG, rng)
    z = order_three(group)
    u = group.scalar(1)
    for t in range(3):
        first = MaskedShare(u=u, v=sig.masked_shares[0].v * (z ** -t).value % group.p)
        queried = dataclasses.replace(
            sig, w=sig.w * z, masked_shares=(first,) + sig.masked_shares[1:]
        )
        with pytest.raises(NotInSubgroupError):
            recover_share(group, queried, members[0], u)


def test_a_signer_key_outside_the_subgroup_stops_the_combiner(big_group):
    """As `test_a_signer_key_outside_the_subgroup_is_refused` for `combine_and_verify`: under
    y*z with z of order 3, the combiner raises instead of accepting each h = 0 mod 3."""
    group, rng = big_group, random.Random(0x5124)
    signer, members = keygen(group, rng), [keygen(group, rng) for _ in range(2)]
    directory = GroupDirectory(members=tuple(
        GroupMember(u=group.scalar(u), y=kp.y) for u, kp in enumerate(members, start=1)
    ))
    outside = signer.y * order_three(group)
    residues = set()
    for _ in range(12):
        sig = sign_for_group(group, signer, directory, 2, MSG, rng)
        partials = _run_quorum(group, sig, dict(enumerate(members, start=1)), (1, 2))
        assert combine_and_verify(group, sig, partials, signer.y)
        residues.add(Sha256Hash().hash_to_scalar(_product(partials), MSG).value % 3)
        with pytest.raises(NotInSubgroupError):
            combine_and_verify(group, sig, partials, outside)
    assert 0 in residues  # a signature the unchecked key would have accepted
