"""Secret and designation-sensitive fields stay out of `repr` and `str`.

A debugger, a traceback with locals or a log line formats artifacts with
`repr`, so the dataclasses that hold a key, nonce, share, shadow, sharing
polynomial, recovered commitment or partial result leave those fields
out of it.
"""

import random

from dirsig.directed import sign_directed, verify_directed
from dirsig.group import keygen
from dirsig.shamir import SharingPolynomial
from dirsig.threshold import (
    GroupDirectory,
    GroupMember,
    modify_shadow,
    partial_result,
    recover_share,
    sign_for_group,
)

from conftest import MSG


def test_no_secret_in_repr_or_str(big_group):
    rng = random.Random(0x5EC2E7)
    signer, receiver, other = (keygen(big_group, rng) for _ in range(3))
    k1, k2 = (big_group.random_scalar(rng, nonzero=True) for _ in range(2))
    sig, nonces = sign_directed(big_group, signer, receiver.y, MSG, nonces=(k1.value, k2.value))
    accept, commitment = verify_directed(big_group, sig, receiver, signer.y)
    assert accept

    ids = [big_group.scalar(1), big_group.scalar(2)]
    directory = GroupDirectory(members=(
        GroupMember(u=ids[0], y=receiver.y), GroupMember(u=ids[1], y=other.y),
    ))
    polynomial = SharingPolynomial.random(k1, 2, rng)
    tsig = sign_for_group(
        big_group, signer, directory, 2, MSG, nonces=(k1.value, k2.value), polynomial=polynomial
    )
    share = recover_share(big_group, tsig, receiver, ids[0])
    shadow = modify_shadow(share, ids)
    partial = partial_result(big_group, shadow)

    cases = [
        (signer, [signer.x]),
        (nonces, [nonces.k1, nonces.k2]),
        (commitment, [commitment.r_elem, commitment.r_hash]),
        (polynomial, list(polynomial.coefficients)),
        (share, [share.v]),
        (shadow, [shadow.value]),
        (partial, [partial.value]),  # any k of one quorum multiply into R
    ]
    for artifact, secrets in cases:
        for text in (repr(artifact), str(artifact)):
            for secret in secrets:
                assert len(format(secret.value, "x")) >= 32  # too long to match by chance
                assert str(secret.value) not in text, type(artifact).__name__
                assert format(secret.value, "x") not in text, type(artifact).__name__
