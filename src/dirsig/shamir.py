"""(k, n) secret sharing over Z_q with Lagrange reconstruction at zero."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul
from typing import Optional, Sequence, Union

from .group import Scalar, SchnorrGroup


class ShareIdError(ValueError):
    """Share identities must be distinct and nonzero."""


class ThresholdRangeError(ValueError):
    """The threshold must satisfy 1 <= k <= number of identities."""


@dataclass(frozen=True)
class Share:
    u: Scalar  # public identity
    v: Scalar = field(repr=False)  # polynomial value f(u), a secret


@dataclass(frozen=True)
class SharingPolynomial:
    """f(x) = secret + b_1*x + ... + b_{k-1}*x^{k-1} over Z_q."""

    coefficients: tuple[Scalar, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("a sharing polynomial needs at least one coefficient")
        for coeff in self.coefficients[1:]:
            self.secret._coerce(coeff)  # TypeError on a non-Scalar, ValueError on a mixed group

    @property
    def threshold(self) -> int:
        return len(self.coefficients)

    @property
    def secret(self) -> Scalar:
        return self.coefficients[0]

    def evaluate(self, u: Scalar) -> Scalar:
        """f(u) by Horner's rule on plain ints mod q; u must be of the coefficients' group."""
        x = self.secret._coerce(u)
        q = u.group.q
        acc = 0
        for coeff in reversed(self.coefficients):
            acc = (acc * x + coeff.value) % q
        return Scalar(acc, u.group)

    @classmethod
    def random(
        cls, secret: Scalar, k: int, rng: Optional[random.Random] = None
    ) -> "SharingPolynomial":
        """Uniform degree-(k-1) polynomial with f(0) = secret.

        Coefficients are drawn from all of [0, q-1]; zero is allowed, so
        the effective degree may be lower.
        """
        group = secret.group
        coeffs = [secret] + [group.random_scalar(rng) for _ in range(k - 1)]
        return cls(tuple(coeffs))


def _id_value(u: Scalar) -> int:
    """The value of identity `u`; TypeError unless it is a Scalar."""
    if not isinstance(u, Scalar):
        raise TypeError(f"expected Scalar, got {type(u).__name__}")
    return u.value


def _check_ids(ids: Sequence[Scalar]) -> tuple[int, ...]:
    """The id values, once the ids are Scalars of one group, nonzero and distinct."""
    if not ids:
        raise ShareIdError("at least one identity is required")
    _id_value(ids[0])  # a non-Scalar has no _coerce to raise the TypeError
    values = tuple([ids[0]._coerce(u) for u in ids])  # TypeError, or ValueError on a mixed group
    if 0 in values:
        raise ShareIdError("identity 0 would leak the secret directly")
    if len(set(values)) != len(values):
        raise ShareIdError("identities must be distinct")
    return values


def _check_threshold(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ThresholdRangeError(f"threshold {k} outside [1, {n}]")


def split(
    secret: Scalar,
    k: int,
    ids: Sequence[Scalar],
    rng: Optional[random.Random] = None,
    *,
    polynomial: Union[SharingPolynomial, Sequence[int], None] = None,
) -> list[Share]:
    """Deal one share per identity; any k of them reconstruct the secret.

    Each share f(u) is one dot product of the coefficients with u's memoised
    row of powers, so a directory dealt to again pays no power of its ids.
    `polynomial` injects fixed coefficients for deterministic replay; it
    must already encode the secret and threshold.
    """
    xs = _check_ids(ids)
    _check_threshold(k, len(xs))
    if polynomial is None:
        polynomial = SharingPolynomial.random(secret, k, rng)
    else:
        if not isinstance(polynomial, SharingPolynomial):
            polynomial = SharingPolynomial(tuple(secret.group.scalar(c) for c in polynomial))
        if polynomial.secret != secret or polynomial.threshold != k:
            raise ValueError("injected polynomial does not match (secret, k)")
    group = ids[0].group
    polynomial.secret._coerce(ids[0])  # ValueError unless the ids are of the polynomial's group
    q = group.q
    coefficients = [c.value for c in polynomial.coefficients]
    return [
        Share(u=u, v=Scalar(sum(map(mul, coefficients, row)) % q, group))
        for u, row in zip(ids, _powers(group, xs, k))
    ]


@lru_cache(maxsize=4)
def _powers(group: SchnorrGroup, xs: tuple[int, ...], k: int) -> tuple[tuple[int, ...], ...]:
    """Each id value's row (1, u, u^2, ..., u^(k-1)) mod q.

    The group and the ids are public, and so is every power memoised here:
    no coefficient, share or nonce enters the cache. One entry holds n*k
    ints, about 113 KB at n = 64, k = 32 and a 160-bit q.
    """
    q = group.q
    return tuple(
        tuple(accumulate(repeat(x, k - 1), lambda power, u: power * u % q, initial=1))
        for x in xs
    )


@lru_cache(maxsize=16)
def _weights_at_zero(group: SchnorrGroup, xs: tuple[int, ...]) -> tuple[Scalar, ...]:
    """All weights of the quorum with distinct nonzero id values `xs`: prod(u_j) / d_i.

    d_i = u_i * prod over j != i of (u_j - u_i) takes k(k-1) products; then
    Montgomery's trick turns the k inversions of d_i into one. The group and
    the ids are public, and so is every weight memoised here.
    """
    q = group.q
    ds, prefix, numerator = [], [1], 1  # prefix[i] = d_0 * ... * d_{i-1}
    for x_i in xs:
        d = x_i
        for x_j in xs:
            if x_j != x_i:  # the values are distinct: this skips j == i alone
                d = d * (x_j - x_i) % q
        ds.append(d)
        prefix.append(prefix[-1] * d % q)
        numerator = numerator * x_i % q
    acc = numerator * group.scalar(prefix[-1]).inverse().value % q
    weights = [None] * len(xs)
    for i in reversed(range(len(xs))):  # acc = prod(u_j) / (d_0 * ... * d_i)
        weights[i] = Scalar(acc * prefix[i] % q, group)
        acc = acc * ds[i] % q
    return tuple(weights)


def lagrange_coefficient_at_zero(quorum_ids: Sequence[Scalar], index: int) -> Scalar:
    """Weight for quorum member `index`: prod over j != i of -u_j / (u_i - u_j).

    Every call checks the ids, the index and the group, then reads the weight
    from one pass over the whole quorum, memoised on the group and id values:
    the k members of a quorum share one inversion. With these weights,
    sum(lambda_i * f(u_i)) = f(0); a single-member quorum's weight is 1.
    """
    xs = _check_ids(quorum_ids)
    if not 0 <= index < len(xs):
        raise IndexError(f"index {index} outside quorum of size {len(xs)}")
    return _weights_at_zero(quorum_ids[0].group, xs)[index]


def reconstruct(quorum: Sequence[Share]) -> Scalar:
    """Interpolate the quorum's shares at zero, from one pass over its weights.

    The result equals the dealt secret exactly when the quorum reaches the
    sharing's threshold; below threshold it is some other point-consistent
    value. The threshold itself is not carried by the shares.
    """
    xs = _check_ids([share.u for share in quorum])
    group = quorum[0].u.group
    total = group.scalar(0)
    for weight, share in zip(_weights_at_zero(group, xs), quorum):
        total = total + weight * share.v
    return total
