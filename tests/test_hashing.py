"""Hash abstraction: production SHA-256 instantiation and the fixture table."""

import json
import random

import pytest

from dirsig.hashing import DEFAULT_HASH, FixtureHash, FixtureMissError, Sha256Hash, canonical_encode
from dirsig.serialize import SerializationError

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


def test_fixture_file_round_trip(tmp_path, toy_group):
    path = tmp_path / "fixture.json"
    path.write_text(
        json.dumps({"entries": [{"element": "12", "message": MSG.hex(), "scalar": "10"}]})
    )
    loaded = FixtureHash.from_file(path)
    assert loaded.hash_to_scalar(toy_group.element(0x12), MSG).value == 10


_ENTRY = {"element": "12", "message": MSG.hex(), "scalar": "10"}


@pytest.mark.parametrize(
    "document",
    [
        {},
        {"entries": 5},
        [1],
        {"entries": [{**_ENTRY, "element": " 0x0C"}]},
        {"entries": [{**_ENTRY, "element": "C"}]},
        {"entries": [{**_ENTRY, "message": MSG.hex().upper()}]},
        {"entries": [{**_ENTRY, "message": "6d 65"}]},
        {"entries": [{**_ENTRY, "scalar": "010"}]},
        {"entries": [{**_ENTRY, "scalar": " 10"}]},
        {"entries": [{**_ENTRY, "scalar": 10}]},
        {"entries": [{**_ENTRY, "scalar": "1" * 5000}]},
        {"entries": [{"element": "12", "message": MSG.hex()}]},
        {"entries": [{**_ENTRY, "extra": "1"}]},
        {"entries": ["12"]},
    ],
)
def test_fixture_file_accepts_only_the_canonical_table(tmp_path, document):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(document))
    with pytest.raises(SerializationError):
        FixtureHash.from_file(path)


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
