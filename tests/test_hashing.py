"""Hash abstraction: production SHA-256 instantiation and the fixture table."""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dirsig
from dirsig.hashing import DEFAULT_HASH, FixtureMissError, Sha256Hash, canonical_encode

from conftest import MSG


def test_fixture_known_answer(toy_group, fixture_hash):
    element = toy_group.element(18)
    assert fixture_hash.hash_to_scalar(element, MSG).value == 10
    assert fixture_hash.hash_to_scalar(element, MSG).value == 10


def test_fixture_miss_raises(toy_group, fixture_hash):
    with pytest.raises(FixtureMissError):
        fixture_hash.hash_to_scalar(toy_group.element(16), MSG)


def test_fixture_fallback_matches_production(toy_group, fallback_fixture_hash):
    element = toy_group.element(16)
    expected = DEFAULT_HASH.hash_to_scalar(element, MSG)
    assert fallback_fixture_hash.hash_to_scalar(element, MSG) == expected
    # the table still wins where it is defined
    assert fallback_fixture_hash.hash_to_scalar(toy_group.element(18), MSG).value == 10


def test_production_outputs_below_q(big_group):
    rng = random.Random(23)
    h = Sha256Hash()
    element = big_group.generator
    step = big_group.generator ** big_group.random_scalar(rng, nonzero=True)
    for i in range(10_000):
        element = element * step
        assert h.hash_to_scalar(element, i.to_bytes(4, "big")).value < big_group.q


def test_production_collision_free_at_test_scale(big_group):
    """Distinct messages under a fixed element never collide at 10^4 scale."""
    rng = random.Random(29)
    h = Sha256Hash()
    element = big_group.generator ** big_group.random_scalar(rng, nonzero=True)
    seen = set()
    for i in range(10_000):
        value = h.hash_to_scalar(element, f"m-{i}".encode()).value
        assert value not in seen
        seen.add(value)


def test_hash_determinism(big_group):
    h = Sha256Hash()
    element = big_group.generator ** big_group.scalar(12345)
    assert h.hash_to_scalar(element, b"abc") == h.hash_to_scalar(element, b"abc")


def test_hash_to_key_contract(toy_group):
    h = Sha256Hash()
    key18 = h.hash_to_key(toy_group.element(18))
    key16 = h.hash_to_key(toy_group.element(16))
    assert len(key18) == 32 and len(key16) == 32
    assert key18 == h.hash_to_key(toy_group.element(18))
    assert key18 != key16


def test_fixture_hash_to_key_matches_production(toy_group, fixture_hash):
    # key derivation is shared; the fixture only overrides scalar hashing
    assert fixture_hash.hash_to_key(toy_group.element(18)) == DEFAULT_HASH.hash_to_key(
        toy_group.element(18)
    )


def test_canonical_encoding_width(toy_group, big_group):
    assert canonical_encode(toy_group.element(18)) == b"\x12"
    assert len(canonical_encode(big_group.generator)) == (big_group.p.bit_length() + 7) // 8


def _oracle_scalar(element, message, tag=b""):
    """The hash spelled with hashlib, independent of the library's SHA-256 source."""
    width = (element.group.p.bit_length() + 7) // 8
    digest = hashlib.sha256(tag + element.value.to_bytes(width, "big") + message).digest()
    return int.from_bytes(digest, "big") % element.group.q


def _oracle_key(element):
    width = (element.group.p.bit_length() + 7) // 8
    return hashlib.sha256(element.value.to_bytes(width, "big")).digest()


@pytest.mark.parametrize("size", [0, 1, 4 * 2**20 + 1])
@pytest.mark.parametrize("group_name", ["toy_group", "big_group"])
def test_sha256_matches_a_hashlib_oracle(request, group_name, size):
    group = request.getfixturevalue(group_name)
    element = group.generator ** group.scalar(7)
    message = random.Random(size).randbytes(size)
    h = Sha256Hash()
    assert h.hash_to_scalar(element, message).value == _oracle_scalar(element, message)
    assert h.hash_to_key(element) == _oracle_key(element)


@given(exponent=st.integers(min_value=0), message=st.binary(max_size=300))
def test_sha256_matches_a_hashlib_oracle_on_short_messages(toy_group, big_group, exponent, message):
    h = Sha256Hash()
    for group in (toy_group, big_group):
        element = group.generator ** group.scalar(exponent % group.q)
        assert h.hash_to_scalar(element, message).value == _oracle_scalar(element, message)
        assert h.hash_to_key(element) == _oracle_key(element)


def test_the_tag_goes_in_front_of_the_element(big_group):
    element = big_group.generator ** big_group.scalar(99)
    tagged = Sha256Hash().tagged(b"t")
    assert tagged.hash_to_scalar(element, MSG).value == _oracle_scalar(element, MSG, b"t")
    assert tagged.hash_to_scalar(element, MSG) != Sha256Hash().hash_to_scalar(element, b"t" + MSG)
    assert tagged.hash_to_key(element) == _oracle_key(element)  # keys are never tagged


def test_tagging_makes_a_copy_and_leaves_the_original_untagged(big_group, fallback_fixture_hash):
    """`tag` is a class attribute that only `tagged` overrides, on the copy it returns."""
    element = big_group.generator ** big_group.scalar(99)
    for h in (DEFAULT_HASH, fallback_fixture_hash):
        tagged = h.tagged(b"t")
        assert tagged is not h and type(tagged) is type(h)
        assert tagged.hash_to_scalar(element, MSG).value == _oracle_scalar(element, MSG, b"t")
        assert h.tag == b""
        assert h.hash_to_scalar(element, MSG).value == _oracle_scalar(element, MSG)
    assert Sha256Hash.tag == b""
    assert Sha256Hash().hash_to_scalar(element, MSG).value == _oracle_scalar(element, MSG)



def test_fixture_table_ignores_the_tag_and_its_fallback_keeps_it(toy_group, fallback_fixture_hash):
    tagged = fallback_fixture_hash.tagged(b"t")
    assert tagged.hash_to_scalar(toy_group.element(18), MSG).value == 10
    element = toy_group.element(16)
    expected = DEFAULT_HASH.tagged(b"t").hash_to_scalar(element, MSG)
    assert tagged.hash_to_scalar(element, MSG) == expected
    assert tagged.hash_to_scalar(element, MSG) != fallback_fixture_hash.hash_to_scalar(element, MSG)


@pytest.mark.parametrize("module", ["dirsig", "dirsig.cli"])
def test_importing_dirsig_loads_no_second_openssl(module):
    """hashlib's _hashlib links the system libcrypto beside the one cryptography bundles."""
    source = str(Path(dirsig.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    probe = f"import sys, {module}; print(sorted({{'hashlib', '_hashlib'}} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
