"""Schnorr-group arithmetic: parameter generation, validation, and keys.

All protocol math lives in the order-q subgroup of Z_p*, with exponents in
Z_q. `Scalar` and `GroupElement` are immutable values tagged with their
group, so mixed-group arithmetic fails loudly instead of silently wrapping.

Arithmetic is best-effort only with respect to timing side channels: every
exponentiation modulo a p of 512 bits or more is one call to OpenSSL's
Montgomery code, and `GroupElement.__pow__` picks the call from the exponent's type.
A secret exponent is raised in constant time, by a DH key load or, for a `HeldScalar`,
by its key's exchange; a `Member`'s is first padded to one count of words (`_pad`). Only a
q-sized exponent anyone may know (a `PublicScalar` such as a response s, or the order q in
a membership check) takes the faster, variable-time DSA key load. Toy groups (builtin pow)
and all other big-integer operations do not attempt constant time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Optional, Union

from cryptography.exceptions import UnsupportedAlgorithm
from cryptography.hazmat.primitives.serialization import load_der_private_key, load_der_public_key


class GroupParameterError(ValueError):
    """A (p, q, g) tuple violates the group invariants."""


class CompositeModulusError(GroupParameterError):
    """The modulus p failed primality testing."""


class CompositeOrderError(GroupParameterError):
    """The subgroup order q failed primality testing."""


class OrderNotDividingError(GroupParameterError):
    """q does not divide p - 1."""


class BadGeneratorError(GroupParameterError):
    """g is out of range, trivial, or not of order q."""


class NotInSubgroupError(ValueError):
    """An integer is not a member of the order-q subgroup."""


class GenerationError(RuntimeError):
    """Parameter search exhausted its attempt bound."""


class NonInvertibleError(ValueError):
    """Modular inverse requested for a non-unit."""


_sysrand = random.SystemRandom()


def _sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return tuple(i for i, f in enumerate(flags) if f)


_SMALL_PRIMES = _sieve(2000)


# OpenSSL exponentiates through a private key: loading PKCS#8 key x with parameters
# (n, b) computes its public value b^x mod n by Montgomery's method (Math. Comp. 1985).
# A DH key's value comes from OpenSSL's DH key generation, which raises b to x under
# BN_FLG_CONSTTIME: its cost steps only with x's count of 64-bit words. A DSA key with
# Dss-Parms (n, q, b) costs less, but `cryptography` 48 computes its value itself by a
# plain BN_mod_exp, whose cost follows x's bits: at 2048 bits a 224-bit x with 2 bits
# set loads in about 0.8x the time of q - 1. So only public exponents take it, and only
# q-sized ones: a 511-bit exponent mod a 512-bit n took 1.17x as long on it as on DH.
# The power does not use q, so q is a placeholder, 1. The kernel takes an odd n of 512
# to 10000 bits; below that the loader raises ValueError, above it or for an even n the
# kernel raises InternalError, so those inputs never reach it.
_DH_OID = bytes.fromhex("06092a864886f70d010301")  # 1.2.840.113549.1.3.1, dhKeyAgreement
_DSA_OID = bytes.fromhex("06072a8648ce380401")  # 1.2.840.10040.4.1, id-dsa


def _der(tag: int, content: bytes) -> bytes:
    size = len(content)
    if size < 0x80:
        return bytes((tag, size)) + content
    length = size.to_bytes((size.bit_length() + 7) // 8, "big")
    return bytes((tag, 0x80 | len(length))) + length + content


def _der_int(value: int) -> bytes:
    """A DER INTEGER for value >= 0, with the sign byte it needs."""
    return _der(0x02, value.to_bytes(value.bit_length() // 8 + 1, "big"))


_DER_VERSION = _der_int(0)  # PrivateKeyInfo version 0
_DSA_PLACEHOLDER_Q = _der_int(1)
_der_modulus = lru_cache(maxsize=8)(_der_int)  # a process raises mod a few p


def _in_kernel(n: int) -> bool:
    """n is a modulus OpenSSL's key loaders take: odd, of 512 to 10000 bits."""
    return n % 2 == 1 and 512 <= n.bit_length() <= 10_000


def _parameters(n: int, base: int, public: bool = False) -> bytes:
    """The DER AlgorithmIdentifier of DH over (n, base), or of DSA over (n, 1, base)."""
    oid, q = (_DSA_OID, _DSA_PLACEHOLDER_Q) if public else (_DH_OID, b"")
    return _der(0x30, oid + _der(0x30, _der_modulus(n) + q + _der_int(base)))


def _private_key(n: int, base: int, e: int, public: bool = False):
    """Load e as a PKCS#8 key over `_parameters(n, base, public)`, of value base^e mod n."""
    der = _der(0x30, _DER_VERSION + _parameters(n, base, public) + _der(0x04, _der_int(e)))
    return load_der_private_key(der, None)


@lru_cache(maxsize=256)  # public keys only: a few directories' members
def _peer_key(group: "SchnorrGroup", y: int):
    """Member key y as a DH public key, or None where the loader refuses it."""
    spki = _der(0x30, _parameters(group.p, group.g) + _der(0x03, b"\0" + _der_int(y)))
    try:
        return load_der_public_key(spki)
    except (ValueError, UnsupportedAlgorithm):  # a backend or policy refused the key
        return None


def _modexp(base: int, e: int, n: int, public: bool = False) -> int:
    """base^e mod n on OpenSSL's kernel where it takes the input, else by builtin pow.
    Only a `public` e may take variable time."""
    if _in_kernel(n) and e >= 0:
        try:
            return _private_key(n, base % n, e, public).private_numbers().public_numbers.y
        except (ValueError, UnsupportedAlgorithm):  # a backend or policy refused the key
            pass
    return pow(base, e, n)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a fixed 64 rounds, so no caller can weaken it; errs w.p. <= 4**-64."""
    if n < 2:
        raise ValueError("primality is defined for n > 1")
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # n is odd and larger than every small prime
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(64):
        a = _sysrand.randrange(2, n - 1)
        x = _modexp(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _bits(value: int) -> str:
    """The size of an integer for an error message, never its digits.

    Quoting the value could leak a secret, and past the interpreter's
    int-to-str digit limit the formatting itself raises.
    """
    return f"{value.bit_length()}-bit"


def mod_inv(a: int, m: int) -> int:
    """Multiplicative inverse of a modulo m; raises if gcd(a, m) != 1."""
    if m <= 0:
        raise ValueError("modulus must be positive")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NonInvertibleError(f"value has no inverse modulo a {_bits(m)} modulus") from None


def _check_parameters(p: int, q: int, g: int) -> None:
    if p < 3 or not is_probable_prime(p):
        raise CompositeModulusError(f"{_bits(p)} modulus p is not prime")
    if q < 2 or not is_probable_prime(q):
        raise CompositeOrderError(f"{_bits(q)} subgroup order q is not prime")
    if (p - 1) % q != 0:
        raise OrderNotDividingError(f"{_bits(q)} q does not divide p - 1 ({_bits(p)} p)")
    if not 2 <= g <= p - 1:
        raise BadGeneratorError(f"{_bits(g)} generator g outside [2, p-1] ({_bits(p)} p)")
    if _modexp(g, q, p, public=True) != 1:
        raise BadGeneratorError(f"generator g does not have order q ({_bits(q)} q)")


@dataclass(frozen=True)
class SchnorrGroup:
    """Public parameters (p, q, g) of a prime-order subgroup of Z_p*.

    Construction validates every invariant, so any held instance is safe
    to compute in. No minimum bit sizes are enforced here; tiny groups are
    legitimate for testing.
    """

    p: int
    q: int
    g: int

    def __post_init__(self) -> None:
        _check_parameters(self.p, self.q, self.g)

    @property
    def generator(self) -> "Member":
        return Member(self.g, self)

    def scalar(self, value: int) -> "Scalar":
        """Reduce an integer into Z_q."""
        return Scalar(value % self.q, self)

    def element(self, value: int) -> "Member":
        """Import an untrusted integer as a `Member`, enforcing subgroup membership.

        Products and powers of members stay members; this check is for values
        crossing a trust boundary (files, wire, a library caller's plain element).
        """
        elem = Member(value, self)
        if _modexp(value, self.q, self.p, public=True) != 1:
            raise NotInSubgroupError(f"{_bits(value)} value is not in the order-q subgroup")
        return elem

    def random_scalar(self, rng: Optional[random.Random] = None, *, nonzero: bool = False) -> "Scalar":
        rng = rng or _sysrand
        return Scalar(rng.randrange(1 if nonzero else 0, self.q), self)


def validate_group(p: int, q: int, g: int) -> SchnorrGroup:
    """Build a group from externally supplied parameters, or raise.

    Distinct error types identify the first failed invariant: composite p,
    composite q, q not dividing p - 1, or a bad generator.
    """
    return SchnorrGroup(p, q, g)


@dataclass(frozen=True)
class Scalar:
    """An exponent-domain value in [0, q-1], tagged with its group."""

    value: int
    group: SchnorrGroup

    def __post_init__(self) -> None:
        if not 0 <= self.value < self.group.q:
            raise ValueError(f"{_bits(self.value)} scalar outside [0, q-1]")

    def _coerce(self, other: "Scalar") -> int:
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        # identity first: the dataclass __eq__ builds two tuples per call
        if other.group is not self.group and other.group != self.group:
            raise ValueError("scalars belong to different groups")
        return other.value

    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar((self.value + self._coerce(other)) % self.group.q, self.group)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return Scalar((self.value - self._coerce(other)) % self.group.q, self.group)

    def __mul__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.value * self._coerce(other) % self.group.q, self.group)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.value % self.group.q, self.group)

    def inverse(self) -> "Scalar":
        return Scalar(mod_inv(self.value, self.group.q), self.group)

    def __int__(self) -> int:
        return self.value


class PublicScalar(Scalar):
    """A scalar anyone may know, such as a signature's response s.

    A base raised to one may take the faster, variable-time kernel. Arithmetic on it
    gives a plain Scalar again, which is raised in constant time.
    """


# A dealing raises n member keys to one nonce k2, held once as a DH key over (p, g): y^k2
# is that key's `exchange` with y's key from `_peer_key`, 0.7-0.8x a key load at 512/160.
# OpenSSL refuses a shared secret of 1 or p - 1 with a PanicException, a BaseException
# alone; `directed.mask` raises only members other than 1, and k2 lies in [1, q-1], so y^k2
# has order q and is neither.
@dataclass(frozen=True)
class HeldScalar(Scalar):
    """A secret scalar with its DH private key; arithmetic on it gives a plain Scalar."""

    value: int = field(repr=False)
    key: Any = field(repr=False, compare=False)


def _pad(e: int, group: SchnorrGroup) -> int:
    """e mod q, plus q in the kernel, or 2q where len(q) % 64 == 0 (an addend of q alone): any
    e then has ceil((len(q)+1)/64) words, as OpenSSL's DSA nonces do. For a base of order q or 1."""
    q, e = group.q, e % group.q
    if _in_kernel(group.p):
        e += 2 * q if q.bit_length() % 64 == 0 else q
    return e


def _held(k: Scalar) -> Scalar:
    """k with its key of `_pad(k)`, or k itself outside the kernel, for k = 0 or where refused."""
    group = k.group
    if _in_kernel(group.p) and k.value:
        try:
            return HeldScalar(k.value, group, _private_key(group.p, group.g, _pad(k.value, group)))
        except (ValueError, UnsupportedAlgorithm):
            pass
    return k


@dataclass(frozen=True)
class GroupElement:
    """A value in [1, p-1], tagged with its group; a `Member` if it is known to lie in
    the order-q subgroup. Equality and hash see the value and group, not the class.
    """

    value: int
    group: SchnorrGroup

    def __post_init__(self) -> None:
        if not 1 <= self.value <= self.group.p - 1:
            raise ValueError(f"{_bits(self.value)} element outside [1, p-1]")

    def __eq__(self, other: object) -> bool:  # the dataclass's would compare classes too
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.value == other.value and self.group == other.group

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            raise TypeError(f"expected GroupElement, got {type(other).__name__}")
        if other.group is not self.group and other.group != self.group:
            raise ValueError("elements belong to different groups")
        kind = Member if isinstance(self, Member) and isinstance(other, Member) else GroupElement
        return kind(self.value * other.value % self.group.p, self.group)

    def __pow__(self, exponent: Union[Scalar, int]) -> "GroupElement":
        """self^exponent: by its key's exchange for a `HeldScalar` and a `Member` base, the
        variable-time DSA load for a `PublicScalar`, else the DH load, of `_pad(e)` for a member."""
        group = self.group
        public = isinstance(exponent, PublicScalar)
        if isinstance(exponent, Scalar):
            if exponent.group is not group and exponent.group != group:
                raise ValueError("exponent belongs to a different group")
            held = isinstance(exponent, HeldScalar) and isinstance(self, Member)
            if held and (peer := _peer_key(group, self.value)):
                try:
                    return type(self)(int.from_bytes(exponent.key.exchange(peer), "big"), group)
                except (ValueError, UnsupportedAlgorithm):  # as where a key load is refused
                    pass
            exponent = exponent.value
        if isinstance(self, Member):  # of order q or 1, so any exponent may be reduced or padded
            exponent = exponent % group.q if public else _pad(exponent, group)
        return type(self)(_modexp(self.value, exponent, group.p, public), group)

    def __int__(self) -> int:
        return self.value


class Member(GroupElement):
    """A subgroup member: parsed by `SchnorrGroup.element`, or a product or power of
    members. It adds no field or method, so every power of it still takes `__pow__`."""


@dataclass(frozen=True)
class KeyPair:
    """A private exponent x and its public element y = g^x mod p."""

    x: Scalar = field(repr=False)  # secret
    y: GroupElement

    @classmethod
    def from_private(cls, group: SchnorrGroup, x: int) -> "KeyPair":
        if not 1 <= x < group.q:
            raise ValueError("private key must lie in [1, q-1]")
        xs = Scalar(x, group)
        return cls(x=xs, y=group.generator ** xs)


def _nonce(group: SchnorrGroup, rng: Optional[random.Random], injected: Optional[int]) -> Scalar:
    """A one-time nonce: fresh from [1, q-1], or `injected` reduced mod q to replay vectors.

    Never zero when fresh: k1 = 0 (R = g^k1 = 1) or k2 = 0 (w = 1) lets anyone learn R.
    """
    return group.random_scalar(rng, nonzero=True) if injected is None else group.scalar(injected)


def keygen(group: SchnorrGroup, rng: Optional[random.Random] = None) -> KeyPair:
    """Draw a key pair with x uniform in [1, q-1].

    Zero is excluded: x = 0 would publish the degenerate key y = 1.
    """
    return KeyPair.from_private(group, (rng or _sysrand).randrange(1, group.q))


def generate_group(
    p_bits: int,
    q_bits: int,
    rng: Optional[random.Random] = None,
    *,
    max_attempts: int = 100_000,
) -> SchnorrGroup:
    """Generate fresh parameters with p and q of exactly the requested sizes.

    Picks a prime q first, searches for a prime p = q*t + 1, then lifts a
    random base k to g = k^((p-1)/q) mod p, retrying while g == 1 (each
    retry fails with probability 1/q). Raises GenerationError once
    max_attempts primality candidates have been consumed.
    """
    if p_bits < 8 or q_bits < 8:
        raise ValueError("p_bits and q_bits must both be at least 8")
    if q_bits >= p_bits:
        raise ValueError("q_bits must be smaller than p_bits")
    rng = rng or _sysrand

    attempts = 0

    def _spend() -> None:
        nonlocal attempts
        attempts += 1
        if attempts > max_attempts:
            raise GenerationError(
                f"no ({p_bits}, {q_bits})-bit group found within {max_attempts} attempts"
            )

    while True:
        while True:
            _spend()
            q = rng.randrange(1 << (q_bits - 1), 1 << q_bits) | 1
            if is_probable_prime(q):
                break

        # p = q*t + 1 with t even (keeps p odd) and p exactly p_bits bits
        t_lo = ((1 << (p_bits - 1)) - 1) // q + 1
        t_hi = ((1 << p_bits) - 2) // q
        half_lo = (t_lo + 1) // 2
        half_hi = t_hi // 2
        if half_hi < half_lo:
            continue
        for _ in range(8 * p_bits):
            _spend()
            p = q * 2 * rng.randrange(half_lo, half_hi + 1) + 1
            if is_probable_prime(p):
                break
        else:
            continue  # unlucky q; restart with a fresh one

        cofactor = (p - 1) // q
        while True:
            _spend()
            k = rng.randrange(2, p - 1)
            g = _modexp(k, cofactor, p)
            if g > 1:
                return SchnorrGroup(p, q, g)
