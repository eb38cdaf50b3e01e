import hashlib
import itertools
import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chargraph.errors import BadParameter, OutOfRange
from chargraph import numtheory
from chargraph.numtheory import (
    FACTOR_LIMIT,
    PrimePower,
    _MR_BASES,
    _PSI,
    _binomial_pieces,
    _factor_generic,
    _mr_passes,
    _strong_lucas_passes,
    as_prime_power,
    factorize,
    is_prime,
    prime_divisors,
)

from oracles import brute_factorize, brute_is_prime, brute_prime_divisors


def test_factorize_spec_values():
    assert factorize(63) == (3, 3, 7)
    assert factorize(65) == (5, 13)
    # frozen from the trial-division oracle
    assert brute_factorize(2**20 + 1) == [17, 61681]
    assert factorize(2**20 + 1) == (17, 61681)


def test_factorize_range_errors():
    for bad in (0, 1, -4, FACTOR_LIMIT, FACTOR_LIMIT + 5):
        with pytest.raises(OutOfRange):
            factorize(bad)
    # boundary value is accepted
    assert math.prod(factorize(FACTOR_LIMIT - 1)) == FACTOR_LIMIT - 1


def test_the_entry_points_refuse_a_non_integer():
    # before factoring: 12.0 has no bit_length, "3" does not compare with 1
    entry_points = (factorize, prime_divisors, as_prime_power)
    factorize(12)  # a float or bool equal to a cached int is still refused
    for n, shown in ((12.0, r"12\.0"), (3.0, r"3\.0"), ("3", "'3'"), (True, "True"), (None, "None")):
        for entry_point in entry_points:
            with pytest.raises(BadParameter, match=rf"^n must be an integer, got {shown}$"):
                entry_point(n)


def test_factorize_cofactor_boundary():
    # a cofactor below the square of the largest table prime (9973) is taken
    # as prime without a test; these sit on both sides of that bound
    assert factorize(9973**2) == (9973, 9973)
    assert factorize(10007**2) == (10007, 10007)
    assert factorize(10007 * 10009) == (10007, 10009)
    assert factorize(10007**3) == (10007, 10007, 10007)
    assert factorize(2**31 - 1) == (2**31 - 1,)
    assert factorize((2**31 - 1) * (2**61 - 1)) == (2**31 - 1, 2**61 - 1)


def test_factorize_products_of_table_primes_near_its_end():
    # the gcd with the table product finds every table prime, the largest
    # (9973) included, with its multiplicity, and leaves 10007 to the cofactor
    for n in (
        9949 * 9967 * 9973,
        3**7 * 9973**2 * 10007,
        9973**3,
        2 * 9973,
        9967**2 * 9973 * 10007**2,
        2**10 * 9941 * 9949 * 9967 * 9973,
    ):
        assert list(factorize(n)) == brute_factorize(n), n


def test_factorize_splits_2_to_the_2a_minus_1_as_its_two_halves():
    for a in range(2, 48):
        assert factorize(2 ** (2 * a) - 1) == tuple(sorted(factorize(2**a - 1) + factorize(2**a + 1))), a


# every 2^m - 1 and 2^m + 1 in the factoring range, then the Suzuki numbers
# 2^(2m+1) - 1 and 2^(4m+2) + 1 for m <= 23 (the latter reach the Aurifeuillian split)
BINOMIALS = [2**m - 1 for m in range(2, 97)] + [2**m + 1 for m in range(0, 96)]
SUZUKI_NUMBERS = [v for m in range(1, 24) for v in (2 ** (2 * m + 1) - 1, 2 ** (4 * m + 2) + 1)]


def test_binomial_pieces_multiply_back_to_n():
    for n in BINOMIALS + SUZUKI_NUMBERS:
        pieces = _binomial_pieces(n)
        assert math.prod(pieces) == n and min(pieces) > 1, n
    # Phi_d(2) for d | 12 but Phi_1(2) = 1, and for d | 24 not dividing 12; Phi_4(2)
    # and Phi_12(2) lie whole in one Aurifeuillian half, so they do not split
    assert _binomial_pieces(2**12 - 1) == [3, 7, 5, 3, 13]
    assert _binomial_pieces(2**12 + 1) == [17, 241]
    # Phi_188(2) = (2^94 + 1) / 5 split by its gcd with 2^47 - 2^24 + 1
    assert _binomial_pieces(2**94 + 1) == [5, 140737471578113, 28147501026509]


def test_factorize_of_binomials_matches_the_generic_route():
    for n in BINOMIALS + SUZUKI_NUMBERS:
        assert factorize(n) == _factor_generic(n), n


def test_numbers_next_to_the_binomial_forms_keep_their_factorizations():
    assert [factorize(n) for n in (2, 3, 5, 9)] == [(2,), (3,), (5,), (3, 3)]
    near = [2**m for m in range(1, 96)] + [2**m + 3 for m in range(1, 96)] + [2**m - 3 for m in range(3, 97)]
    for n in near:
        # not split, so factored by the generic route alone
        assert _binomial_pieces(n) == [n], n
        if n < 2**24:
            assert list(factorize(n)) == brute_factorize(n), n


def test_binomials_with_algebraic_pieces_need_no_rho(monkeypatch):
    calls = []
    brent_rho = numtheory._brent_rho

    def counted(n):
        calls.append(n)
        return brent_rho(n)

    monkeypatch.setattr(numtheory, "_brent_rho", counted)
    assert _factor_generic(2**62 - 1) == (3, 715827883, 2147483647) and calls
    calls.clear()
    factorize.cache_clear()
    assert factorize(2**62 - 1) == (3, 715827883, 2147483647)
    assert factorize(2**94 + 1) == (5, 3761, 7484047069, 140737471578113)
    assert calls == []


def test_prime_divisors_of_2_to_the_a_plus_minus_1_match_the_recorded_digest():
    """Every factorization of 2^a - 1 and 2^a + 1 for a in 2..90, the range the
    catalog sweeps, pinned byte for byte; above the last A014233 term the
    strong Lucas test takes part too."""
    text = json.dumps([[a, list(prime_divisors(2**a - 1)), list(prime_divisors(2**a + 1))] for a in range(2, 91)])
    assert hashlib.sha256(text.encode()).hexdigest() == "7e03663ceb3c7a5f039c6e3c918618854761379ab984c3cabdc715bed72313de"


def test_factorize_matches_oracle_small():
    for n in range(2, 2000):
        assert list(factorize(n)) == brute_factorize(n)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=10**9))
def test_factorize_product_and_primality(n):
    factors = factorize(n)
    assert math.prod(factors) == n
    assert all(is_prime(p) for p in factors)
    assert list(factors) == sorted(factors)


def test_prime_divisors_spec_values():
    assert prime_divisors(1) == ()
    assert prime_divisors(63) == (3, 7)
    assert brute_prime_divisors(2**12 - 1) == (3, 5, 7, 13)
    assert prime_divisors(2**12 - 1) == (3, 5, 7, 13)


def test_prime_divisors_rejects_zero():
    with pytest.raises(OutOfRange):
        prime_divisors(0)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=10**5), st.integers(min_value=1, max_value=10**5))
def test_prime_divisors_multiplicative_on_coprime_pairs(a, b):
    assume(math.gcd(a, b) == 1)
    assert prime_divisors(a * b) == tuple(sorted(set(prime_divisors(a)) | set(prime_divisors(b))))


def test_is_prime_matches_oracle():
    # every n up to 20000, across 9973, the last prime of the sieve, where the
    # table lookup hands over to trial division and Miller-Rabin, and around
    # the A014233 terms where Miller-Rabin goes from one base to two, two to
    # three and three to four
    windows = [range(psi - 100, psi + 101) for psi in _PSI[:3]]
    for n in itertools.chain(range(-3, 20_001), *windows):
        assert is_prime(n) == brute_is_prime(n), n


def test_is_prime_reads_the_sieve_up_to_its_last_prime(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _mr_passes(*args)

    monkeypatch.setattr(numtheory, "_mr_passes", counted)
    assert numtheory._SMALL_PRIMES[-1] == 9973
    assert [n for n in range(-3, 9974) if is_prime(n)] == list(numtheory._SMALL_PRIMES)
    assert calls == []
    assert is_prime(10_007) and calls


def test_is_prime_large_values():
    assert is_prime(2**89 - 1)          # Mersenne prime above the proven MR bound
    assert not is_prime(2**89 + 1)
    assert is_prime((1 << 61) - 1)
    assert not is_prime((1 << 61) - 3)
    # multiples of a Miller-Rabin base, which no trial division refuses first
    for composite in (3 * (2**61 - 1), 41 * (2**61 - 1), 2 * (2**89 - 1), 41 * (2**89 - 1)):
        assert not is_prime(composite), composite


# the base-2 strong pseudoprimes below 10^5 (OEIS A001262)
BASE_2_STRONG_PSEUDOPRIMES = (
    2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799,
    49141, 52633, 65281, 74665, 80581, 85489, 88357, 90751,
)


def mr_passes(a, n):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return _mr_passes(a, d, s, n)


def test_psi_terms_are_composites_passing_the_bases_they_bound():
    # _PSI[k] is a composite that passes the first k + 1 bases, and is_prime
    # refuses it, so the prefix it runs reaches past them
    assert len(_PSI) == len(_MR_BASES) and list(_PSI) == sorted(_PSI)
    for k, psi in enumerate(_PSI):
        assert all(mr_passes(a, psi) for a in _MR_BASES[: k + 1]), psi
        assert not is_prime(psi), psi


def test_is_prime_refuses_the_base_2_strong_pseudoprimes():
    assert [n for n in range(3, 10**5, 2) if mr_passes(2, n) and not brute_is_prime(n)] == list(
        BASE_2_STRONG_PSEUDOPRIMES
    )
    assert not any(is_prime(n) for n in BASE_2_STRONG_PSEUDOPRIMES)


# the strong Lucas pseudoprimes below 60000 (OEIS A217255)
STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519)


def test_strong_lucas_passes_exactly_the_primes_and_the_known_pseudoprimes():
    # is_prime runs the Lucas test only above the proven Miller-Rabin bound, so
    # it is checked on its own here, over odd non-squares from 43^2 up
    for n in range(1849, 60000, 2):
        if math.isqrt(n) ** 2 != n:
            assert _strong_lucas_passes(n) == (brute_is_prime(n) or n in STRONG_LUCAS_PSEUDOPRIMES), n


def test_as_prime_power_spec_values():
    assert as_prime_power(8) == PrimePower(2, 3)
    assert as_prime_power(7) == PrimePower(7, 1)
    assert as_prime_power(12) is None


def test_as_prime_power_exhaustive_small_primes():
    primes = [p for p in range(2, 100) if brute_is_prime(p)]
    for p in primes:
        for f in range(1, 9):
            assert as_prime_power(p**f) == PrimePower(p, f)


def test_as_prime_power_range():
    with pytest.raises(OutOfRange):
        as_prime_power(1)
    with pytest.raises(OutOfRange):
        as_prime_power(FACTOR_LIMIT)


def test_prime_power_validation():
    assert PrimePower(3, 4).value == 81
    assert str(PrimePower(3, 4)) == "3^4"
    assert str(PrimePower(13, 1)) == "13"
    with pytest.raises(BadParameter):
        PrimePower(6, 2)
    with pytest.raises(BadParameter):
        PrimePower(5, 0)


def test_non_integers_are_neither_primes_nor_exponents():
    # below 43^2 only trial division runs, which a float passes
    assert not is_prime(2.5)
    assert not is_prime(3.0)
    assert not is_prime(True)
    for exponent in (2.0, True):
        with pytest.raises(BadParameter, match="exponent must be a positive integer"):
            PrimePower(3, exponent)
    with pytest.raises(BadParameter, match="not prime"):
        PrimePower(3.0, 2)
