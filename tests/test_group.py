"""Group parameter validation, generation, keys, and modular arithmetic."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirsig.group import (
    BadGeneratorError,
    CompositeModulusError,
    CompositeOrderError,
    GenerationError,
    GroupElement,
    HeldScalar,
    KeyPair,
    Member,
    NonInvertibleError,
    NotInSubgroupError,
    OrderNotDividingError,
    PublicScalar,
    Scalar,
    _held,
    generate_group,
    is_probable_prime,
    keygen,
    mod_inv,
    validate_group,
)


def test_validate_accepts_toy_parameters():
    group = validate_group(23, 11, 3)
    assert (group.p, group.q, group.g) == (23, 11, 3)


def test_validate_rejects_non_dividing_order():
    with pytest.raises(OrderNotDividingError):
        validate_group(23, 7, 3)


def test_validate_rejects_identity_generator():
    with pytest.raises(BadGeneratorError):
        validate_group(23, 11, 1)


def test_validate_rejects_wrong_order_generator():
    # 5 generates the full group Z_23*, not the order-11 subgroup
    with pytest.raises(BadGeneratorError):
        validate_group(23, 11, 5)


def test_validate_rejects_composite_modulus():
    with pytest.raises(CompositeModulusError):
        validate_group(22, 11, 3)


def test_validate_rejects_composite_order():
    with pytest.raises(CompositeOrderError):
        validate_group(23, 22, 3)


def _trial_division_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def _element_order(g, p):
    """Order of g in Z_p* by direct iteration; None if g is not a unit."""
    value, order = g % p, 1
    while value != 1:
        value = value * g % p
        order += 1
        if order > p:
            return None
    return order


def test_validate_matches_brute_force_for_small_moduli():
    """validate_group accepts exactly the invariant-satisfying tuples, p < 50."""
    for p in range(3, 50):
        for q in range(2, p):
            for g in range(0, p + 1):
                expected = (
                    _trial_division_prime(p)
                    and _trial_division_prime(q)
                    and (p - 1) % q == 0
                    and 2 <= g <= p - 1
                    and _element_order(g, p) == q
                )
                try:
                    validate_group(p, q, g)
                    accepted = True
                except (CompositeModulusError, CompositeOrderError,
                        OrderNotDividingError, BadGeneratorError):
                    accepted = False
                assert accepted == expected, (p, q, g)


def test_keypair_from_known_private_keys(toy_group):
    assert KeyPair.from_private(toy_group, 4).y.value == 12
    assert KeyPair.from_private(toy_group, 7).y.value == 2
    assert KeyPair.from_private(toy_group, 6).y.value == 16


def test_keypair_from_private_range(toy_group):
    with pytest.raises(ValueError):
        KeyPair.from_private(toy_group, 0)
    with pytest.raises(ValueError):
        KeyPair.from_private(toy_group, 11)


def test_keygen_outputs_stay_in_subgroup(toy_group, big_group):
    rng = random.Random(7)
    for group in (toy_group, big_group):
        for _ in range(25):
            keypair = keygen(group, rng)
            assert 1 <= keypair.x.value < group.q
            assert pow(keypair.y.value, group.q, group.p) == 1


def test_negative_exponent_vector(toy_group):
    # 3^-5 mod 23 = 16, reachable both via scalar reduction and raw pow
    assert (toy_group.generator ** toy_group.scalar(-5)).value == 16
    assert pow(3, -5, 23) == 16


def test_exponent_zero_gives_identity(toy_group):
    assert (toy_group.generator ** toy_group.scalar(0)).value == 1


def test_power_vector_in_toy_group(toy_group):
    # 16 = 3^6, so 16^7 = 3^42 = 3^(42 mod 11) = 3^9 = 18
    assert (toy_group.element(16) ** toy_group.scalar(7)).value == 18


def test_mod_exp_is_homomorphic_in_exponent(toy_group):
    rng = random.Random(11)
    g = toy_group.generator
    for _ in range(1000):
        base = g ** toy_group.scalar(rng.randrange(toy_group.q))
        e1 = toy_group.random_scalar(rng)
        e2 = toy_group.random_scalar(rng)
        assert base ** (e1 + e2) == (base ** e1) * (base ** e2)


def test_mod_inv_known_value():
    assert mod_inv(13, 23) == 16


def test_mod_inv_rejects_non_unit():
    with pytest.raises(NonInvertibleError):
        mod_inv(6, 9)


def test_is_probable_prime_known_values():
    assert is_probable_prime(23)
    assert not is_probable_prime(22)


def test_is_probable_prime_rejects_tiny_input():
    with pytest.raises(ValueError):
        is_probable_prime(1)


def test_is_probable_prime_matches_sieve():
    limit = 10000
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    for n in range(2, limit + 1):
        assert is_probable_prime(n) == bool(flags[n]), n


def test_generate_group_small_sizes():
    rng = random.Random(3)
    for p_bits, q_bits in ((64, 32), (96, 16)):
        group = generate_group(p_bits, q_bits, rng)
        assert group.p.bit_length() == p_bits
        assert group.q.bit_length() == q_bits
        assert (group.p - 1) % group.q == 0
        assert pow(group.g, group.q, group.p) == 1 and group.g > 1


def test_generate_group_production_size(big_group):
    assert big_group.p.bit_length() == 512
    assert big_group.q.bit_length() == 160
    assert (big_group.p - 1) % big_group.q == 0


def test_generate_group_attempt_bound():
    with pytest.raises(GenerationError):
        generate_group(512, 160, random.Random(0), max_attempts=1)


def test_generate_group_preconditions():
    with pytest.raises(ValueError):
        generate_group(160, 160, random.Random(0))
    with pytest.raises(ValueError):
        generate_group(16, 4, random.Random(0))


def test_scalar_range_enforced(toy_group):
    with pytest.raises(ValueError):
        Scalar(11, toy_group)
    with pytest.raises(ValueError):
        Scalar(-1, toy_group)


def test_scalar_cross_group_arithmetic_rejected(toy_group):
    other = validate_group(47, 23, 2)
    with pytest.raises(ValueError):
        toy_group.scalar(3) + other.scalar(3)


def test_element_import_checks_range_and_membership(toy_group):
    assert toy_group.element(16).value == 16
    with pytest.raises(NotInSubgroupError):
        toy_group.element(5)  # order 22, outside the order-11 subgroup
    with pytest.raises(ValueError):
        GroupElement(0, toy_group)
    with pytest.raises(ValueError):
        GroupElement(23, toy_group)


def test_errors_give_sizes_not_digits(toy_group, big_group):
    """Group errors name the failed invariant and a bit length, never the integer."""
    with pytest.raises(CompositeModulusError, match="16610-bit"):
        validate_group(10**5000, 11, 3)  # past the int-to-str digit limit
    secret = 123456789 * 3
    raisers = [
        (lambda: Scalar(secret, toy_group), ValueError),
        (lambda: GroupElement(secret, toy_group), ValueError),
        (lambda: mod_inv(secret, 9), NonInvertibleError),
    ]
    for raiser, error in raisers:
        with pytest.raises(error) as info:
            raiser()
        assert str(secret) not in str(info.value)
    with pytest.raises(NotInSubgroupError) as info:
        big_group.element(big_group.p - 1)
    assert str(big_group.p - 1) not in str(info.value)


@pytest.mark.parametrize("which", ["toy", "big"])
@settings(deadline=None)
@given(data=st.data())
def test_a_member_is_a_group_element_that_records_a_check(toy_group, big_group, which, data):
    """`group.element(v)` equals and hashes as `GroupElement(v, group)`, both ways; a product
    is a `Member` only of two members, and a power only of a member base, whatever the
    exponent's type."""
    group = toy_group if which == "toy" else big_group
    p, q = group.p, group.q
    value = pow(group.g, data.draw(st.integers(0, q - 1)), p)
    member, plain = group.element(value), GroupElement(value, group)
    assert type(member) is Member and type(plain) is GroupElement
    assert member == plain and plain == member and not member != plain
    assert hash(member) == hash(plain) and {plain: 1}[member] == 1
    other = group.element(pow(group.g, data.draw(st.integers(0, q - 1)), p))
    assert type(member * other) is Member
    assert type(member * plain) is type(plain * member) is GroupElement
    assert member * other == plain * other == GroupElement(value * other.value % p, group)
    e = data.draw(st.integers(1, q - 1))
    exponents = [group.scalar(e), PublicScalar(e, group), _held(group.scalar(e)), e]
    if which == "big":
        assert isinstance(exponents[2], HeldScalar)
    for exponent in exponents:
        assert type(member ** exponent) is Member and type(plain ** exponent) is GroupElement
        assert member ** exponent == plain ** exponent == GroupElement(pow(value, e, p), group)


def test_a_member_defines_no_field_or_method_of_its_own():
    """The bench tracer and tests/test_costs.py count powers by patching
    `GroupElement.__pow__` on the class: an override in `Member` would hide every power of
    a member from them."""
    assert dataclasses.fields(Member) == dataclasses.fields(GroupElement)
    assert not {name for name, attr in vars(Member).items() if callable(attr)}
    assert Member.__pow__ is GroupElement.__pow__ and Member.__mul__ is GroupElement.__mul__
