"""Directed signature protocol: golden vectors, designation, proof paths.

Censuses in the toy group compare the implementation against a raw-integer
re-evaluation of the verification equation (`_raw_verdict`), computed with
hashlib and pow only — deliberately independent of the library code path.
"""

import dataclasses
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirsig.directed import (
    DirectedSignature,
    ReceiverProof,
    check_response,
    mask,
    prove_by_receiver,
    prove_by_signer,
    respond,
    sign_directed,
    unmask,
    verify_as_third_party,
    verify_directed,
)
from dirsig.group import GroupElement, KeyPair, NotInSubgroupError, keygen
from dirsig.hashing import Sha256Hash
from dirsig.serialize import directed_signature_to_dict

from conftest import MSG

TOY_SUBGROUP = sorted(pow(3, i, 23) for i in range(11))


def _raw_verdict(p, q, g, s, w, v, x_verifier, y_signer, message):
    """Direct evaluation of the acceptance equation over plain integers."""
    r_elem = v * pow(w, x_verifier, p) % p
    width = (p.bit_length() + 7) // 8
    digest = hashlib.sha256(r_elem.to_bytes(width, "big") + message).digest()
    r_hash = int.from_bytes(digest, "big") % q
    return pow(g, s, p) == r_elem * pow(y_signer, r_hash, p) % p


def test_golden_signature(toy_group, toy_keys, fixture_hash):
    sig, _ = sign_directed(
        toy_group, toy_keys["signer"], toy_keys["receiver"].y, MSG,
        h=fixture_hash, nonces=(9, 5),
    )
    assert (sig.s.value, sig.w.value, sig.v.value) == (5, 16, 1)
    assert sig.message == MSG


def test_golden_receiver_verification(toy_group, toy_keys, fixture_hash):
    sig, _ = sign_directed(
        toy_group, toy_keys["signer"], toy_keys["receiver"].y, MSG,
        h=fixture_hash, nonces=(9, 5),
    )
    accept, commitment = verify_directed(
        toy_group, sig, toy_keys["receiver"], toy_keys["signer"].y, fixture_hash
    )
    # R = 1 * 16^7 = 18, r = 10, and 3^5 = 18 * 12^10 = 13 mod 23
    assert accept
    assert commitment.r_elem.value == 18
    assert commitment.r_hash.value == 10


def test_wrong_receiver_recovers_wrong_commitment(toy_group, toy_keys, fallback_fixture_hash):
    sig, _ = sign_directed(
        toy_group, toy_keys["signer"], toy_keys["receiver"].y, MSG,
        h=fallback_fixture_hash, nonces=(9, 5),
    )
    accept, commitment = verify_directed(
        toy_group, sig, toy_keys["third"], toy_keys["signer"].y, fallback_fixture_hash
    )
    # R = 1 * 16^6 = 4, not the signer's commitment 18
    assert commitment.r_elem.value == 4
    assert not accept


def test_tampered_response_rejected(toy_group, toy_keys, fallback_fixture_hash):
    sig, _ = sign_directed(
        toy_group, toy_keys["signer"], toy_keys["receiver"].y, MSG,
        h=fallback_fixture_hash, nonces=(9, 5),
    )
    forged = DirectedSignature(s=toy_group.scalar(6), w=sig.w, v=sig.v, message=sig.message)
    accept, _ = verify_directed(
        toy_group, forged, toy_keys["receiver"], toy_keys["signer"].y, fallback_fixture_hash
    )
    assert not accept


def test_zero_masking_nonce_degenerates_to_public(toy_group, toy_keys, fallback_fixture_hash):
    """k2=0 (test mode only) voids designation: anyone can verify."""
    sig, _ = sign_directed(
        toy_group, toy_keys["signer"], toy_keys["receiver"].y, MSG,
        h=fallback_fixture_hash, nonces=(9, 0),
    )
    assert sig.w.value == 1
    assert sig.v.value == 18  # bare commitment g^9
    for who in ("receiver", "third", "extra"):
        accept, _ = verify_directed(
            toy_group, sig, toy_keys[who], toy_keys["signer"].y, fallback_fixture_hash
        )
        assert accept


def test_production_nonces_never_zero(big_group):
    rng = random.Random(59)
    signer = keygen(big_group, rng)
    receiver = keygen(big_group, rng)
    for _ in range(100):
        sig, nonces = sign_directed(big_group, signer, receiver.y, MSG, rng)
        assert nonces.k1.value != 0 and nonces.k2.value != 0
        assert sig.w.value != 1


def test_fresh_signatures_differ(big_group):
    rng = random.Random(61)
    signer = keygen(big_group, rng)
    receiver = keygen(big_group, rng)
    seen = set()
    for _ in range(100):
        sig, _ = sign_directed(big_group, signer, receiver.y, MSG, rng)
        triple = (sig.s.value, sig.w.value, sig.v.value)
        for other in seen:
            assert other[0] != triple[0] and other[1] != triple[1] and other[2] != triple[2]
        seen.add(triple)


def test_a_reused_nonce_gives_the_receiver_the_signers_key(big_group):
    """Pinned weakness: one (k1, k2) over two messages yields s = k1 + x·h twice, and the
    receiver, who recovers each h, solves for the signer's x."""
    rng = random.Random(0x2E05E)
    signer = keygen(big_group, rng)
    receiver = keygen(big_group, rng)
    nonces = tuple(big_group.random_scalar(rng, nonzero=True).value for _ in range(2))
    seen = []
    for message in (b"pay carol 10", b"pay carol 1000"):
        sig, _ = sign_directed(big_group, signer, receiver.y, message, nonces=nonces)
        accept, commitment = verify_directed(big_group, sig, receiver, signer.y)
        assert accept
        seen.append((sig.w.value, sig.s.value, commitment.r_hash.value))
    (w1, s1, h1), (w2, s2, h2) = seen
    assert w1 == w2  # what a reused nonce looks like on the wire
    q = big_group.q
    assert (s1 - s2) * pow(h1 - h2, -1, q) % q == signer.x.value


def test_anyone_can_rerandomize_a_directed_signature(big_group):
    """Pinned weakness of the construction: from public values alone, (w·g^-t, v·y_B^t)
    is a signature with new bytes that the receiver accepts, since v·w^x unmasks the same
    R. The scheme is not strongly unforgeable (An, Dodis and Rabin, EUROCRYPT 2002)."""
    rng = random.Random(0x2E2A)
    signer, receiver = keygen(big_group, rng), keygen(big_group, rng)
    sig, _ = sign_directed(big_group, signer, receiver.y, MSG, rng)
    t = big_group.random_scalar(rng, nonzero=True)
    twin = dataclasses.replace(
        sig, w=sig.w * big_group.generator ** -t, v=sig.v * receiver.y ** t
    )
    assert directed_signature_to_dict(twin) != directed_signature_to_dict(sig)
    accept, commitment = verify_directed(big_group, twin, receiver, signer.y)
    assert accept
    assert commitment == verify_directed(big_group, sig, receiver, signer.y)[1]


def test_golden_signer_proof(toy_group, toy_keys, fixture_hash):
    sig, nonces = sign_directed(
        toy_group, toy_keys["signer"], toy_keys["receiver"].y, MSG,
        h=fixture_hash, nonces=(9, 5),
    )
    proof = prove_by_signer(toy_group, nonces, toy_keys["third"].y)
    assert proof.v_c.value == 16  # 18 * 16^5 mod 23
    assert verify_as_third_party(
        toy_group, sig, proof, toy_keys["third"], toy_keys["signer"].y, fixture_hash
    )
    # third party recovers R = 16 * 16^6 = 18
    substituted = DirectedSignature(s=sig.s, w=sig.w, v=proof.v_c, message=sig.message)
    _, commitment = verify_directed(
        toy_group, substituted, toy_keys["third"], toy_keys["signer"].y, fixture_hash
    )
    assert commitment.r_elem.value == 18


def test_proving_to_original_receiver_reproduces_signature(toy_group, toy_keys, fixture_hash):
    _, nonces = sign_directed(
        toy_group, toy_keys["signer"], toy_keys["receiver"].y, MSG,
        h=fixture_hash, nonces=(9, 5),
    )
    proof = prove_by_signer(toy_group, nonces, toy_keys["receiver"].y)
    assert proof.v_c == nonces.signature.v


def test_golden_receiver_proof(toy_group, toy_keys, fixture_hash):
    sig, _ = sign_directed(
        toy_group, toy_keys["signer"], toy_keys["receiver"].y, MSG,
        h=fixture_hash, nonces=(9, 5),
    )
    accept, commitment = verify_directed(
        toy_group, sig, toy_keys["receiver"], toy_keys["signer"].y, fixture_hash
    )
    assert accept
    proof = prove_by_receiver(
        toy_group, commitment, toy_keys["receiver"], toy_keys["third"].y, nonce=8
    )
    assert (proof.w_c.value, proof.v_c.value) == (4, 9)
    # third party recovers R = 9 * 4^6 = 18 and accepts
    assert verify_as_third_party(
        toy_group, sig, proof, toy_keys["third"], toy_keys["signer"].y, fixture_hash
    )


def test_receiver_proof_bound_to_third_party(toy_group, toy_keys, fallback_fixture_hash):
    sig, _ = sign_directed(
        toy_group, toy_keys["signer"], toy_keys["receiver"].y, MSG,
        h=fallback_fixture_hash, nonces=(9, 5),
    )
    _, commitment = verify_directed(
        toy_group, sig, toy_keys["receiver"], toy_keys["signer"].y, fallback_fixture_hash
    )
    proof = prove_by_receiver(
        toy_group, commitment, toy_keys["receiver"], toy_keys["third"].y, nonce=8
    )
    # the receiver's own key does not open a proof aimed at the third party:
    # 9 * 4^7 = 3 mod 23, not 18
    assert not verify_as_third_party(
        toy_group, sig, proof, toy_keys["receiver"], toy_keys["signer"].y,
        fallback_fixture_hash,
    )


def test_receiver_proofs_use_fresh_nonces(big_group):
    rng = random.Random(67)
    signer, receiver, third = (keygen(big_group, rng) for _ in range(3))
    sig, _ = sign_directed(big_group, signer, receiver.y, MSG, rng)
    _, commitment = verify_directed(big_group, sig, receiver, signer.y)
    transcripts = set()
    for _ in range(100):
        proof = prove_by_receiver(big_group, commitment, receiver, third.y, rng)
        assert (proof.w_c.value, proof.v_c.value) not in transcripts
        transcripts.add((proof.w_c.value, proof.v_c.value))


def test_completeness_and_transcript_consistency(toy_group, big_group):
    """Across 200 trials: receiver accepts, both proof paths accept, and all
    three recovered commitments equal g^k1."""
    rng = random.Random(71)
    for i in range(200):
        group = toy_group if i % 2 else big_group
        signer, receiver, third = (keygen(group, rng) for _ in range(3))
        message = f"trial {i}".encode()
        sig, nonces = sign_directed(group, signer, receiver.y, message, rng)
        accept, commitment = verify_directed(group, sig, receiver, signer.y)
        assert accept
        expected_commitment = group.generator ** nonces.k1
        assert commitment.r_elem == expected_commitment

        signer_proof = prove_by_signer(group, nonces, third.y)
        assert verify_as_third_party(group, sig, signer_proof, third, signer.y)
        sub = DirectedSignature(s=sig.s, w=sig.w, v=signer_proof.v_c, message=message)
        _, c2 = verify_directed(group, sub, third, signer.y)
        assert c2.r_elem == expected_commitment

        receiver_proof = prove_by_receiver(group, commitment, receiver, third.y, rng)
        assert verify_as_third_party(group, sig, receiver_proof, third, signer.y)
        sub = DirectedSignature(
            s=sig.s, w=receiver_proof.w_c, v=receiver_proof.v_c, message=message
        )
        _, c3 = verify_directed(group, sub, third, signer.y)
        assert c3.r_elem == expected_commitment


def test_designation_holds_at_production_size(big_group):
    """An honest signature never verifies under a non-designated key pair."""
    rng = random.Random(73)
    for _ in range(200):
        signer, receiver, outsider = (keygen(big_group, rng) for _ in range(3))
        sig, _ = sign_directed(big_group, signer, receiver.y, MSG, rng)
        accept, _ = verify_directed(big_group, sig, outsider, signer.y)
        assert not accept


def test_forgery_census_matches_oracle(toy_group, toy_keys):
    """Random subgroup triples (s, w, v) are rejected except exactly the
    chance hits the raw-integer oracle confirms."""
    rng = random.Random(79)
    h = Sha256Hash()
    receiver = toy_keys["receiver"]
    signer_pub = toy_keys["signer"].y
    chance_hits = 0
    for _ in range(10_000):
        s = rng.randrange(toy_group.q)
        w = rng.choice(TOY_SUBGROUP)
        v = rng.choice(TOY_SUBGROUP)
        sig = DirectedSignature(
            s=toy_group.scalar(s),
            w=toy_group.element(w),
            v=toy_group.element(v),
            message=MSG,
        )
        accept, _ = verify_directed(toy_group, sig, receiver, signer_pub, h)
        expected = _raw_verdict(23, 11, 3, s, w, v, 7, 12, MSG)
        assert accept == expected
        chance_hits += accept
    # roughly one in q of the random triples should satisfy the equation
    assert 0 < chance_hits < 2500


def test_response_kernel_golden_values(toy_group, toy_keys, fixture_hash):
    """The toy walkthrough's response and check: k1 = 9, R = g^9 = 18, h = 10, s = 5."""
    signer = toy_keys["signer"]
    r = toy_group.element(18)
    s = respond(toy_group.scalar(9), signer, r, MSG, fixture_hash)
    assert s.value == 5
    assert check_response(toy_group, s, r, signer.y, MSG, fixture_hash) == (
        True, toy_group.scalar(10)
    )
    for bad_s in range(11):
        if bad_s != 5:
            accept, _ = check_response(
                toy_group, toy_group.scalar(bad_s), r, signer.y, MSG, fixture_hash
            )
            assert not accept


def test_unmask_inverts_mask_on_every_toy_value(toy_group):
    """unmask(mask(v, y, k), g^-k, x) = v for every v in [0, p-1] (a zero
    share masks to zero) and every x, k in [1, q-1]; no other key x'
    round-trips a nonzero v."""
    g, nonzero = toy_group.generator, [toy_group.scalar(i) for i in range(1, toy_group.q)]
    for x, k in itertools.product(nonzero, repeat=2):
        y, w = g ** x, g ** -k
        wrong = [other for other in nonzero if other != x]
        for v in range(toy_group.p):
            masked = mask(v, y, k)
            assert unmask(masked, w, x) == v
            assert v == 0 or all(unmask(masked, w, other) != v for other in wrong)


@settings(deadline=None)
@given(data=st.data())
def test_unmask_inverts_mask_at_production_size(big_group, data):
    v = data.draw(st.integers(0, big_group.p - 1))
    x, k, other = (big_group.scalar(data.draw(st.integers(1, big_group.q - 1))) for _ in range(3))
    y, w = big_group.generator ** x, big_group.generator ** -k
    masked = mask(v, y, k)
    assert unmask(masked, w, x) == v
    assert v == 0 or other == x or unmask(masked, w, other) != v


def test_signature_blinds_the_commitment_with_mask(big_group):
    """With injected nonces, v = mask(g^k1, y_B, k2) = g^k1 * y_B^k2 mod p."""
    rng = random.Random(0x3A5C)
    signer, receiver = keygen(big_group, rng), keygen(big_group, rng)
    p, g = big_group.p, big_group.g
    for _ in range(4):
        k1, k2 = rng.randrange(1, big_group.q), rng.randrange(1, big_group.q)
        sig, _ = sign_directed(big_group, signer, receiver.y, MSG, nonces=(k1, k2))
        expected = mask(pow(g, k1, p), receiver.y, big_group.scalar(k2))
        assert sig.v.value == expected == pow(g, k1, p) * pow(receiver.y.value, k2, p) % p


@pytest.mark.parametrize("key", ["identity", "p-1"])
@pytest.mark.parametrize("step", ["sign_directed", "prove_by_signer", "prove_by_receiver"])
def test_no_step_masks_under_the_identity_or_a_key_of_order_two(big_group, step, key):
    """Under y = 1, or y = p - 1 with an even nonce, the mask y^k is 1 and v is the bare
    commitment R, with which anyone can check g^s = R * y_signer^h. Every step that masks
    refuses such a key before writing anything."""
    rng = random.Random(0x1D2)
    signer, receiver = keygen(big_group, rng), keygen(big_group, rng)
    bad = GroupElement(1 if key == "identity" else big_group.p - 1, big_group)
    k1, k2 = rng.randrange(1, big_group.q), 2 * rng.randrange(1, big_group.q // 2)
    with pytest.raises(NotInSubgroupError):
        if step == "sign_directed":
            sign_directed(big_group, signer, bad, MSG, nonces=(k1, k2))
        else:
            sig, nonces = sign_directed(big_group, signer, receiver.y, MSG, nonces=(k1, k2))
            if step == "prove_by_signer":
                prove_by_signer(big_group, nonces, bad)
            else:
                accept, commitment = verify_directed(big_group, sig, receiver, signer.y)
                assert accept
                prove_by_receiver(big_group, commitment, receiver, bad, nonce=k2)


def order_three(group):
    """A plain element z of order 3: (p - 1)/q of the 512/160 test group has the factor 3."""
    p = group.p
    assert (p - 1) // group.q % 3 == 0
    z = next(z for z in (pow(b, (p - 1) // 3, p) for b in range(2, 100)) if z != 1)
    return GroupElement(z, group)


@pytest.mark.parametrize("path", ["verify_directed", "receiver_proof"])
def test_a_small_subgroup_query_is_refused(big_group, path):
    """Lim and Lee (CRYPTO '97): with z of order 3, (s, w*z, v*z^-t) unmasks to R * z^(x-t),
    so a verdict would tell whether the verifier's x is t mod 3. `unmask` takes only
    members, so each t is refused before any verdict. Without that check, the verdicts
    for t = 0, 1, 2 read [False, True, False] for an x of 1 mod 3."""
    group, rng = big_group, random.Random(0x0D3)
    signer, third = keygen(group, rng), keygen(group, rng)
    receiver = KeyPair.from_private(group, 3 * rng.randrange(1, group.q // 3) + 1)
    z = order_three(group)
    sig, _ = sign_directed(group, signer, receiver.y, MSG, rng)
    accept, commitment = verify_directed(group, sig, receiver, signer.y)
    assert accept
    proof = prove_by_receiver(group, commitment, receiver, third.y, rng)
    for t in range(3):
        with pytest.raises(NotInSubgroupError):
            if path == "verify_directed":
                v = GroupElement(sig.v.value * (z ** -t).value % group.p, group)
                queried = dataclasses.replace(sig, w=sig.w * z, v=v)
                verify_directed(group, queried, receiver, signer.y)
            else:
                v_c = GroupElement(proof.v_c.value * (z ** -t).value % group.p, group)
                queried = ReceiverProof(w_c=proof.w_c * z, v_c=v_c)
                verify_as_third_party(group, sig, queried, third, signer.y)


def test_a_signer_key_outside_the_subgroup_is_refused(big_group):
    """Lim and Lee on the signer's key: under y*z with z of order 3, R * (y*z)^h equals
    R * y^h exactly when h = 0 mod 3, so a library verdict on an honest signature would tell
    h mod 3 and accept a third of them. `check_response` raises only a member y, so every
    signature is refused, whatever its h."""
    group, rng = big_group, random.Random(0x5123)
    signer, receiver = keygen(group, rng), keygen(group, rng)
    outside = signer.y * order_three(group)
    residues = set()
    for _ in range(12):
        sig, _ = sign_directed(group, signer, receiver.y, MSG, rng)
        accept, commitment = verify_directed(group, sig, receiver, signer.y)
        assert accept
        residues.add(commitment.r_hash.value % 3)
        with pytest.raises(NotInSubgroupError):
            verify_directed(group, sig, receiver, outside)
    assert 0 in residues  # a signature the unchecked key would have accepted
