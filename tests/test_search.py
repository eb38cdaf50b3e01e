import pytest

from chargraph.errors import BadParameter, OutOfRange
from chargraph.numtheory import prime_divisors
from chargraph.search import find_alphas, fresh_primes, sweep_models


def test_find_alphas_n5_k2_includes_alpha_6():
    result = find_alphas(5, 2, (2, 12))
    hits = {r.alpha: r for r in result.realizations}
    assert 6 in hits
    assert hits[6].pi_minus == (3, 7) and hits[6].pi_plus == (5, 13)
    assert result.case == "a/b.i"
    assert result.alpha_range == (2, 12)


def test_find_alphas_n4_k1_fixed_list():
    # frozen expectation: for alpha in [2, 8], both divisor counts are 1
    # exactly at alpha = 2 (pi(3), pi(5)) and alpha = 3 (pi(7), pi(9) = {3})
    expected = []
    for alpha in range(2, 9):
        sizes = (len(prime_divisors(2**alpha - 1)), len(prime_divisors(2**alpha + 1)))
        if sizes == (1, 1):
            expected.append(alpha)
    assert expected == [2, 3]
    result = find_alphas(4, 1, (2, 8))
    assert [r.alpha for r in result.realizations] == [2, 3]
    assert result.near_misses == (4, 5, 7, 8)


EMPTY_RANGE_MESSAGE = r"^alpha range must lie within \[2, 90\], got \[9, 8\]$"


def test_find_alphas_empty_range():
    # an empty range is refused, not answered with no realizations
    with pytest.raises(OutOfRange, match=EMPTY_RANGE_MESSAGE):
        find_alphas(5, 2, (9, 8))
    # before the n and k checks: the range rule comes first
    with pytest.raises(OutOfRange, match=EMPTY_RANGE_MESSAGE):
        find_alphas(3, 9, (9, 8))
    assert find_alphas(5, 4, (8, 8)).case == "b.iii"


def test_find_alphas_every_realization_hits_target():
    result = find_alphas(5, 3, (2, 30))
    assert result.case == "b.ii"
    assert [r.alpha for r in result.realizations][:2] == [14, 15]
    for r in result.realizations:
        assert len(r.pi_minus) == 3 and len(r.pi_plus) == 3
        assert r.pi_minus == prime_divisors(2**r.alpha - 1)
        assert r.pi_plus == prime_divisors(2**r.alpha + 1)
    for alpha in result.near_misses:
        sizes = {len(prime_divisors(2**alpha - 1)), len(prime_divisors(2**alpha + 1))}
        assert 3 in sizes and sizes != {3}


def test_find_alphas_prefix_stability():
    small = find_alphas(5, 2, (2, 12))
    large = find_alphas(5, 2, (2, 24))
    assert large.realizations[: len(small.realizations)] == small.realizations
    assert large.near_misses[: len(small.near_misses)] == small.near_misses


def test_find_alphas_validation():
    with pytest.raises(BadParameter):
        find_alphas(3, 1, (2, 8))
    with pytest.raises(BadParameter):
        find_alphas(5, 5, (2, 8))
    with pytest.raises(BadParameter):
        find_alphas(8, 4, (2, 8))
    with pytest.raises(OutOfRange):
        find_alphas(5, 2, (2, 91))
    with pytest.raises(OutOfRange):
        find_alphas(5, 2, (1, 8))
    # the sweep refuses the same n
    with pytest.raises(BadParameter):
        sweep_models(3, (2, 8))


def test_fresh_primes_skip_excluded():
    assert fresh_primes(2, (3, 5, 7, 13)) == (11, 17)
    assert fresh_primes(4, prime_divisors(2**12 - 1)) == (11, 17, 19, 23)


def test_sweep_no_failures_and_cases_realized():
    records = sweep_models(5, (2, 12))
    assert records, "sweep produced no records"
    assert all(r.passed for r in records)
    order_bound = [r for r in records if r.check == "order_bound"]
    assert len(order_bound) == 11 * 3
    cases_at_6 = {
        r.details["shape"]: r.details["case"]
        for r in order_bound
        if r.details["alpha"] == 6
    }
    assert cases_at_6["abelian"] == "a"
    assert cases_at_6["two_pairs"] == "b.i"
    assert cases_at_6["one_pair"] == "shape_mismatch"


def test_sweep_n4_abelian_only():
    records = sweep_models(4, (2, 10))
    # an abelian model's records: its order-bound record names the shape, its case record only the model
    abelian_models = {r.details["model"] for r in records if r.details.get("shape") == "abelian"}
    records = [r for r in records if r.details["model"] in abelian_models]
    assert all(r.passed for r in records)
    for record in records:
        if record.check == "order_bound" and record.details["n_exact"]:
            assert record.details["order"] <= 7


def test_sweep_empty_range():
    # an empty sweep is refused, not a vacuous pass with no records
    with pytest.raises(OutOfRange, match=EMPTY_RANGE_MESSAGE):
        sweep_models(5, (9, 8))
    with pytest.raises(OutOfRange, match=EMPTY_RANGE_MESSAGE):
        sweep_models(3, (9, 8))


def test_sweep_records_are_deterministic():
    first = sweep_models(5, (2, 8))
    second = sweep_models(5, (2, 8))
    assert [(r.check, r.description, r.passed, r.details) for r in first] == [
        (r.check, r.description, r.passed, r.details) for r in second
    ]

