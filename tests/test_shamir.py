"""Secret sharing: known vectors, exhaustive small-field checks, hiding."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirsig.group import validate_group
from dirsig.shamir import (
    Share,
    ShareIdError,
    SharingPolynomial,
    ThresholdRangeError,
    _powers,
    lagrange_coefficient_at_zero,
    reconstruct,
    split,
)


def _ids(group, *values):
    return [group.scalar(v) for v in values]


def test_split_known_polynomial(toy_group):
    # f(x) = 9 + 3x over Z11: f(1)=1, f(2)=4, f(3)=7
    shares = split(toy_group.scalar(9), 2, _ids(toy_group, 1, 2, 3), polynomial=(9, 3))
    assert [(s.u.value, s.v.value) for s in shares] == [(1, 1), (2, 4), (3, 7)]


def test_threshold_one_shares_equal_secret(toy_group):
    rng = random.Random(5)
    shares = split(toy_group.scalar(6), 1, _ids(toy_group, 1, 4, 9), rng)
    assert all(s.v.value == 6 for s in shares)


def test_full_threshold_needs_every_share(toy_group):
    # f(x) = 1 + x^2: any 2-subset interpolates a line whose value at zero
    # differs from f(0) by the quadratic term
    shares = split(toy_group.scalar(1), 3, _ids(toy_group, 1, 2, 3), polynomial=(1, 0, 1))
    assert reconstruct(shares).value == 1
    assert reconstruct(shares[:2]).value != 1


def test_lagrange_known_coefficients(toy_group):
    quorum = _ids(toy_group, 1, 2)
    assert lagrange_coefficient_at_zero(quorum, 0).value == 2
    assert lagrange_coefficient_at_zero(quorum, 1).value == 10


def test_lagrange_singleton_is_one(toy_group):
    assert lagrange_coefficient_at_zero(_ids(toy_group, 7), 0).value == 1


def test_reconstruct_known_quorum(toy_group):
    shares = [
        Share(u=toy_group.scalar(1), v=toy_group.scalar(1)),
        Share(u=toy_group.scalar(2), v=toy_group.scalar(4)),
    ]
    assert reconstruct(shares).value == 9


def test_alternate_quorum_consistency(toy_group):
    # quorum (2,3): lambda_2 = -3/(2-3) = 3, lambda_3 = -2/(3-2) = 9
    quorum = _ids(toy_group, 2, 3)
    assert lagrange_coefficient_at_zero(quorum, 0).value == 3
    assert lagrange_coefficient_at_zero(quorum, 1).value == 9
    shares = [
        Share(u=toy_group.scalar(2), v=toy_group.scalar(4)),
        Share(u=toy_group.scalar(3), v=toy_group.scalar(7)),
    ]
    assert reconstruct(shares).value == 9


def test_split_input_validation(toy_group):
    secret = toy_group.scalar(3)
    with pytest.raises(ShareIdError):
        split(secret, 2, _ids(toy_group, 1, 1, 2))
    with pytest.raises(ShareIdError):
        split(secret, 1, _ids(toy_group, 0, 1))
    with pytest.raises(ThresholdRangeError):
        split(secret, 4, _ids(toy_group, 1, 2, 3))
    with pytest.raises(ThresholdRangeError):
        split(secret, 0, _ids(toy_group, 1, 2, 3))


def test_reconstruct_rejects_duplicate_ids(toy_group):
    share = Share(u=toy_group.scalar(1), v=toy_group.scalar(1))
    with pytest.raises(ShareIdError):
        reconstruct([share, share])


def test_injected_polynomial_must_match(toy_group):
    with pytest.raises(ValueError):
        split(toy_group.scalar(9), 2, _ids(toy_group, 1, 2), polynomial=(8, 3))


def test_every_quorum_reconstructs(toy_group, big_group):
    rng = random.Random(17)
    for group in (toy_group, big_group):
        for _ in range(6):
            n = rng.randrange(2, 11)
            k = rng.randrange(1, min(n, 5) + 1)
            secret = group.random_scalar(rng)
            id_values = set()
            while len(id_values) < n:
                id_values.add(rng.randrange(1, group.q))
            shares = split(secret, k, _ids(group, *id_values), rng)
            for quorum in itertools.combinations(shares, k):
                assert reconstruct(list(quorum)) == secret


def test_exhaustive_small_field_threshold_boundary(toy_group):
    """All degree-<=2 polynomials over Z11, ids (1,2,3): 3-subsets always
    recover f(0); 2-subsets recover it exactly when the quadratic term
    vanishes (the interpolating line at 0 is f(0) - b2*u1*u2)."""
    q = toy_group.q
    ids = _ids(toy_group, 1, 2, 3)
    for a0 in range(q):
        for b1 in range(q):
            for b2 in range(q):
                poly = SharingPolynomial(tuple(toy_group.scalar(c) for c in (a0, b1, b2)))
                shares = split(toy_group.scalar(a0), 3, ids, polynomial=poly)
                assert reconstruct(shares).value == a0
                for pair in itertools.combinations(shares, 2):
                    matches = reconstruct(list(pair)).value == a0
                    assert matches == (b2 == 0), (a0, b1, b2)


def test_single_share_hides_everything(toy_group):
    """q=11, k=2: fixing one share, every secret stays consistent with
    exactly one polynomial (exhaustive over all lines)."""
    q = toy_group.q
    u, v = 3, 8  # an arbitrary fixed share
    for secret in range(q):
        consistent = [
            b for b in range(q) if (secret + b * u) % q == v
        ]
        assert len(consistent) == 1, secret


# -- the integer kernels against the per-term Scalar formulas -----------------


def _reference_weight(ids, index):
    """prod over j != i of -u_j / (u_i - u_j), one Scalar inversion per term."""
    u_i = ids[index]
    lam = u_i.group.scalar(1)
    for j, u_j in enumerate(ids):
        if j != index:
            lam = lam * (-u_j) * (u_i - u_j).inverse()
    return lam


def _reference_evaluate(coefficients, u):
    """Horner's rule in Scalar arithmetic."""
    acc = coefficients[-1]
    for coeff in reversed(coefficients[:-1]):
        acc = acc * u + coeff
    return acc


def _draw_ids(data, group, max_size=12):
    values = data.draw(st.lists(
        st.integers(1, group.q - 1), min_size=1, max_size=min(max_size, group.q - 1), unique=True
    ))
    return [group.scalar(v) for v in values]


def _draw_coefficients(data, group, max_size):
    values = data.draw(st.lists(st.integers(0, group.q - 1), min_size=1, max_size=max_size))
    return tuple(group.scalar(v) for v in values)


@pytest.mark.parametrize("which", ["toy", "big"])
@settings(deadline=None)
@given(data=st.data())
def test_weight_matches_the_per_term_formula(which, toy_group, big_group, data):
    """Every weight of a quorum, of a permutation of it and of the same quorum
    asked again (a cache hit) equals the reference."""
    group = toy_group if which == "toy" else big_group
    ids = _draw_ids(data, group)
    for quorum in (ids, data.draw(st.permutations(ids)), list(ids)):
        for index in range(len(quorum)):
            assert lagrange_coefficient_at_zero(quorum, index) == _reference_weight(quorum, index)


@pytest.mark.parametrize("which", ["toy", "big"])
@settings(deadline=None)
@given(data=st.data())
def test_weights_interpolate_any_polynomial_below_the_quorum_size(
    which, toy_group, big_group, data
):
    group = toy_group if which == "toy" else big_group
    ids = _draw_ids(data, group)
    coefficients = _draw_coefficients(data, group, len(ids))
    total = group.scalar(0)
    for index, u in enumerate(ids):
        weight = lagrange_coefficient_at_zero(ids, index)
        total = total + weight * _reference_evaluate(coefficients, u)
    assert total == coefficients[0]


@pytest.mark.parametrize("which", ["toy", "big"])
@settings(deadline=None)
@given(data=st.data())
def test_evaluate_matches_scalar_horner(which, toy_group, big_group, data):
    group = toy_group if which == "toy" else big_group
    coefficients = _draw_coefficients(data, group, 12)
    u = group.scalar(data.draw(st.integers(0, group.q - 1)))
    polynomial = SharingPolynomial(coefficients)
    assert polynomial.evaluate(u) == _reference_evaluate(coefficients, u)


@pytest.mark.parametrize("injected", ["random", "polynomial", "ints"])
@pytest.mark.parametrize("which", ["toy", "big"])
@settings(deadline=None)
@given(data=st.data())
def test_split_matches_evaluate(which, injected, toy_group, big_group, data):
    """Share by share, split equals the Horner reference: from a cold memo, for the
    ids in another order, and for the same ids again (a memo hit)."""
    group = toy_group if which == "toy" else big_group
    ids = _draw_ids(data, group)
    k = data.draw(st.integers(1, len(ids)))
    secret = group.scalar(data.draw(st.integers(0, group.q - 1)))
    seed = data.draw(st.integers(0, 2**32))
    polynomial = SharingPolynomial.random(secret, k, random.Random(seed))
    dealt_with = {
        "random": None,
        "polynomial": polynomial,
        "ints": [c.value for c in polynomial.coefficients],
    }[injected]
    _powers.cache_clear()
    for order in (ids, data.draw(st.permutations(ids)), list(ids)):
        hits = _powers.cache_info().hits
        shares = split(secret, k, order, random.Random(seed), polynomial=dealt_with)
        assert shares == [Share(u=u, v=polynomial.evaluate(u)) for u in order]
    assert _powers.cache_info().hits == hits + 1  # the last deal read the first one's rows


def test_the_power_memo_keys_on_group_and_threshold(toy_group):
    """The same id values under another group, or at another threshold, get rows
    of their own, and split still equals the Horner reference."""
    other = validate_group(47, 23, 2)
    for group, k in ((toy_group, 3), (other, 3), (other, 4), (toy_group, 4)):
        ids = _ids(group, 2, 3, 4, 5)
        polynomial = SharingPolynomial(tuple(group.scalar(c) for c in (5, 7, 9, 4)[:k]))
        shares = split(polynomial.secret, k, ids, polynomial=polynomial)
        assert shares == [Share(u=u, v=polynomial.evaluate(u)) for u in ids]
        assert _powers(group, (2, 3, 4, 5), k) == tuple(
            tuple(pow(u, j, group.q) for j in range(k)) for u in (2, 3, 4, 5)
        )
    assert _powers(toy_group, (2, 3, 4, 5), 3) != _powers(other, (2, 3, 4, 5), 3)


def test_a_cached_quorum_still_runs_every_check(toy_group):
    """The weights of ids (1, 2, 3) are cached; each call still rejects bad input."""
    other = validate_group(47, 23, 2)
    quorum = _ids(toy_group, 1, 2, 3)
    shares = [Share(u=u, v=toy_group.scalar(5)) for u in quorum]
    assert reconstruct(shares).value == 5  # caches the weights of (1, 2, 3)
    with pytest.raises(ShareIdError):
        lagrange_coefficient_at_zero(_ids(toy_group, 1, 2, 2), 0)
    with pytest.raises(ShareIdError):
        lagrange_coefficient_at_zero(_ids(toy_group, 0, 2, 3), 1)
    with pytest.raises(ShareIdError):
        reconstruct([shares[0], shares[1], shares[1]])
    for index in (-1, 3):
        with pytest.raises(IndexError):
            lagrange_coefficient_at_zero(quorum, index)
    mixed = [toy_group.scalar(1), other.scalar(2), toy_group.scalar(3)]
    for index in range(3):
        with pytest.raises(ValueError):
            lagrange_coefficient_at_zero(mixed, index)
    with pytest.raises(ValueError):
        reconstruct([Share(u=u, v=other.scalar(5)) for u in mixed])
    not_a_scalar = [quorum[0], toy_group.generator ** 7, quorum[2]]  # 3^7 = 2 mod 23
    with pytest.raises(TypeError):
        lagrange_coefficient_at_zero(not_a_scalar, 0)


def test_mixed_groups_are_rejected(toy_group):
    other = validate_group(47, 23, 2)
    mixed_ids = [toy_group.scalar(1), other.scalar(2), toy_group.scalar(3)]
    for index in range(len(mixed_ids)):
        with pytest.raises(ValueError):
            lagrange_coefficient_at_zero(mixed_ids, index)
    with pytest.raises(ValueError):
        split(toy_group.scalar(9), 2, _ids(toy_group, 1, 2), polynomial=SharingPolynomial(
            (toy_group.scalar(9), other.scalar(3))
        ))
    with pytest.raises(ValueError):
        split(toy_group.scalar(9), 2, _ids(other, 1, 2), polynomial=(9, 3))
    with pytest.raises(ValueError):
        SharingPolynomial((toy_group.scalar(9), toy_group.scalar(3))).evaluate(other.scalar(1))
