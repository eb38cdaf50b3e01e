"""Prime machinery: primality testing, factorization, prime-power recognition.

Factorization is exact for 2 <= n < 2**96.  A number 2^m - 1 or 2^m + 1 is
first split algebraically into the cyclotomic values Phi_d(2), each Phi_4e(2)
with e odd further into its two Aurifeuillian halves, and the pieces are
factored through the same cache (Brillhart et al., Factorizations of b^n +- 1,
1983).  Any other number, and every piece, is factored generically: one gcd with
the product of a sieved table of small primes names the table primes that
divide it, then Miller-Rabin primality plus Brent-cycle Pollard rho run on what
remains.  The same table answers primality below 10^4 with one binary search;
above it Miller-Rabin uses only the prefix of prime bases proven for the
input's size (OEIS A014233).  Larger inputs are rejected outright instead of
risking unbounded runtime.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache

from .errors import BadParameter, OutOfRange, require_int

FACTOR_LIMIT = 1 << 96


def _sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return tuple(i for i, f in enumerate(flags) if f)


_SMALL_PRIMES = _sieve(10_000)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)

# _PSI[k] is the least odd composite that passes Miller-Rabin to the first k + 1
# bases (OEIS A014233; Jaeschke 1993, Sorenson-Webster 2017), so below it those
# bases prove primality.  Past the last term a strong Lucas test is added, giving
# a Baillie-PSW-style check with no known composite passing it anywhere near our
# 2**96 cap.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (
    2047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747, 3_474_749_660_383,
    341_550_071_728_321, 341_550_071_728_321, 3_825_123_056_546_413_051,
    3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461, 3_317_044_064_679_887_385_961_981,
)


def _mr_passes(a: int, d: int, s: int, n: int) -> bool:
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_passes(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge parameters; n odd, not a square."""
    D = 5
    while True:
        j = _jacobi(D % n, n)
        if j == -1:
            break
        if j == 0:
            return False
        D = -(D + 2) if D > 0 else -(D - 2)
    P, Q = 1, (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    U, V, Qk = 1, P, Q % n
    for bit in bin(d)[3:]:
        U = U * V % n
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = P * U + V, D * U + P * V
            if U & 1:
                U += n
            if V & 1:
                V += n
            U = (U >> 1) % n
            V = (V >> 1) % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def is_prime(n: int) -> bool:
    """Deterministic primality for n below the last A014233 term (~3.3e24),
    Miller-Rabin + strong Lucas above it.

    n up to the last prime of the factoring sieve (9973) is looked up in that
    table.  Above it, Miller-Rabin runs only the first k prime bases, k the
    least with n below the k-th A014233 term: the bases proven for n's size.
    A multiple of a base fails that base's round, and base 2 refuses every
    even n, so no trial division comes first.  A non-int is not prime.
    """
    if type(n) is not int or n < 2:
        return False
    if n <= _SMALL_PRIMES[-1]:
        return _SMALL_PRIMES[bisect_left(_SMALL_PRIMES, n)] == n
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    if not all(_mr_passes(a, d, s, n) for a in _MR_BASES[: bisect_right(_PSI, n) + 1]):
        return False
    if n < _PSI[-1]:
        return True
    if math.isqrt(n) ** 2 == n:
        return False
    return _strong_lucas_passes(n)


def _brent_rho(n: int) -> int:
    """Nontrivial factor of an odd composite n, Brent's cycle variant.

    Deterministic: polynomial constants are tried in order 1, 2, 3, ...
    """
    c = 0
    while True:
        c += 1
        y, r, q = 2, 1, 1
        g, x, ys = 1, 0, 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n  # a sign flip of q leaves gcd(q, n) alone
                g = math.gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            # batched gcd overshot the collision; replay one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _binomial_pieces(n: int) -> list[int]:
    """Factors > 1 of n whose product is n: the values Phi_d(2) for n = 2^m - 1
    (d | m) or n = 2^m + 1 (d | 2m, d not dividing m), each Phi_d(2) with
    d = 4e, e odd, split by its gcd with the Aurifeuillian factor
    2^e - 2^((e+1)/2) + 1 of 2^(2e) + 1; [n] for any other n."""
    m = n.bit_length()
    if n & (n + 1) == 0:  # n = 2^m - 1 = prod Phi_d(2) over d | m
        top, drop = m, 0
    elif n > 2 and (n - 1) & (n - 2) == 0:  # n = 2^(m-1) + 1 = (2^top - 1) / (2^drop - 1)
        top, drop = 2 * (m - 1), m - 1
    else:
        return [n]
    phi: dict[int, int] = {}  # Phi_k(2) for each divisor k of top reached so far
    pieces: list[int] = []
    for d in range(1, top + 1):
        if top % d:
            continue
        phi[d] = (2**d - 1) // math.prod(v for k, v in phi.items() if d % k == 0)
        if drop and drop % d == 0:
            continue
        if d % 8 == 4:
            e = d // 4
            g = math.gcd(phi[d], 2**e - 2 ** ((e + 1) // 2) + 1)
            pieces += (g, phi[d] // g)
        else:
            pieces.append(phi[d])
    return [v for v in pieces if v > 1]


def factorize(n: int) -> tuple[int, ...]:
    """Prime factors of n with multiplicity, ascending.

    n = 2^m +- 1 is factored piece by piece (`_binomial_pieces`), each piece
    through one cache, so pieces that 2^a - 1, 2^a + 1 and 2^(2a) - 1 share
    are factored once; other n go to `_factor_generic`.
    Raises BadParameter unless n is an int, before the cache sees it, and
    OutOfRange unless 2 <= n < 2**96.
    """
    if require_int("n", n) < 2 or n >= FACTOR_LIMIT:
        raise OutOfRange(f"factorize requires 2 <= n < 2**96, got {n}")
    return _factorize(n)


@lru_cache(maxsize=None)
def _factorize(n: int) -> tuple[int, ...]:
    """factorize for an int n already checked to lie in [2, 2**96)."""
    pieces = _binomial_pieces(n)
    if len(pieces) > 1:
        return tuple(sorted(p for piece in pieces for p in _factorize(piece)))
    return _factor_generic(n)


# the cache is read and cleared through the public name
factorize.cache_info = _factorize.cache_info
factorize.cache_clear = _factorize.cache_clear


def _factor_generic(n: int) -> tuple[int, ...]:
    """Prime factors of n >= 2 with multiplicity, ascending: the table primes
    from one gcd, then Brent rho on the cofactor."""
    out: list[int] = []
    m = n
    # g is the product of the table primes dividing n; past sqrt(g) it is one prime
    g = math.gcd(m, _SMALL_PRODUCT)
    for p in _SMALL_PRIMES:
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            while m % p == 0:
                out.append(p)
                m //= p
    if g > 1:
        while m % g == 0:
            out.append(g)
            m //= g
    stack = [m] if m > 1 else []
    while stack:
        v = stack.pop()
        # no prime of the table divides v, so v below the square of the last is prime
        if v <= _SMALL_PRIMES[-1] ** 2 or is_prime(v):
            out.append(v)
            continue
        d = _brent_rho(v)
        stack.append(d)
        stack.append(v // d)
    out.sort()
    return tuple(out)


def prime_divisors(n: int) -> tuple[int, ...]:
    """The set of prime divisors of n, ascending; empty for n = 1."""
    if require_int("n", n) < 1 or n >= FACTOR_LIMIT:
        raise OutOfRange(f"prime_divisors requires 1 <= n < 2**96, got {n}")
    if n == 1:
        return ()
    return tuple(sorted(set(factorize(n))))


@dataclass(frozen=True, order=True)
class PrimePower:
    """A validated pair (base, exponent) with base prime and exponent an int >= 1."""

    base: int
    exponent: int

    def __post_init__(self) -> None:
        if type(self.exponent) is not int or self.exponent < 1:
            raise BadParameter(f"exponent must be a positive integer, got {self.exponent!r}")
        if not is_prime(self.base):
            raise BadParameter(f"base {self.base} is not prime")

    @property
    def value(self) -> int:
        return self.base**self.exponent

    def __str__(self) -> str:
        return str(self.value) if self.exponent == 1 else f"{self.base}^{self.exponent}"


def as_prime_power(n: int) -> PrimePower | None:
    """Write n as p^f if it is a prime power, else None."""
    if require_int("n", n) < 2 or n >= FACTOR_LIMIT:
        raise OutOfRange(f"as_prime_power requires 2 <= n < 2**96, got {n}")
    factors = factorize(n)
    if factors.count(factors[0]) != len(factors):
        return None
    return PrimePower(factors[0], len(factors))
