from collections import Counter

import pytest

from chargraph import exactness, search
from chargraph.errors import AsymmetricPiSizes, BadParameter, OutOfRange, ShapeMismatch
from chargraph.exactness import CATALOG, classify_extremal_case
from chargraph.models import PSL2, Product, abelian, describe_model, disconnected_pair
from chargraph.numtheory import PrimePower, prime_divisors
from chargraph.search import SOLVABLE_SHAPES, find_alphas, fresh_primes, sweep_models


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


def test_fresh_primes_refuses_a_non_integer_count():
    with pytest.raises(BadParameter, match=r"^count must be an integer, got 2\.5$"):
        fresh_primes(2.5, ())
    with pytest.raises(BadParameter, match=r"^count must be an integer, got True$"):
        fresh_primes(True, ())


def test_fresh_primes_refuses_a_negative_count():
    with pytest.raises(BadParameter, match=r"^count must be non-negative, got -1$"):
        fresh_primes(-1, ())
    assert fresh_primes(0, ()) == ()


def test_find_alphas_refuses_a_non_integer_k_target():
    with pytest.raises(BadParameter, match=r"^k target must be an integer, got 2\.0$"):
        find_alphas(5, 2.0, (2, 12))


def test_the_sweeps_refuse_a_non_integer_n():
    with pytest.raises(BadParameter, match=r"^n must be an integer, got 5\.0$"):
        find_alphas(5.0, 2, (2, 12))
    with pytest.raises(BadParameter, match=r"^n must be an integer, got 5\.0$"):
        sweep_models(5.0, (2, 8))


def test_the_sweeps_refuse_non_integer_alpha_bounds():
    with pytest.raises(BadParameter, match=r"^alpha range start must be an integer, got 2\.5$"):
        find_alphas(5, 2, (2.5, 10))
    with pytest.raises(BadParameter, match=r"^alpha range end must be an integer, got 3\.0$"):
        sweep_models(5, (2, 3.0))
    with pytest.raises(BadParameter, match=r"^alpha range start must be an integer, got '2'$"):
        find_alphas(5, 2, ("2", 4))
    with pytest.raises(BadParameter, match=r"^alpha range end must be an integer, got True$"):
        find_alphas(5, 2, (2, True))


def test_the_sweeps_refuse_an_alpha_range_that_is_not_a_pair():
    message = r"^an alpha range is a 2-element tuple or list, got {}$"
    with pytest.raises(BadParameter, match=message.format(r"\(2,\)")):
        find_alphas(5, 2, (2,))
    with pytest.raises(BadParameter, match=message.format("5")):
        find_alphas(5, 2, 5)
    with pytest.raises(BadParameter, match=message.format(r"\(2, 3, 4\)")):
        sweep_models(4, (2, 3, 4))
    # a list pair is a range, as the CLI and JSON give it
    assert find_alphas(5, 2, [2, 12]) == find_alphas(5, 2, (2, 12))


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


def test_each_alpha_builds_its_models_once_for_every_n(monkeypatch):
    search._swept_models.cache_clear()
    built = []

    def counted(factors):
        built.append(factors)
        return Product(factors)

    monkeypatch.setattr(search, "Product", counted)
    cold = {n: sweep_models(n, (2, 12)) for n in range(4, 8)}
    # 11 alphas, 3 shapes each, however many n read them
    assert len(built) == 33
    warm = {n: sweep_models(n, (2, 12)) for n in range(4, 8)}
    assert len(built) == 33
    assert warm == cold


def _swept_models(alpha):
    """The models sweep_models builds at alpha, rebuilt the same way, by shape."""
    p1, p2, p3, p4 = fresh_primes(4, set(prime_divisors(2 ** (2 * alpha) - 1)) | {2})
    psl2 = PSL2(PrimePower(2, alpha))
    one_pair = Product((psl2, disconnected_pair("Type1", p1, p2)))
    two_pairs = Product((one_pair, disconnected_pair("Type4", p3, p4)))
    return dict(zip(SOLVABLE_SHAPES, (Product((psl2, abelian())), one_pair, two_pairs)))


def test_the_sweep_and_classify_extremal_case_agree():
    models = {alpha: _swept_models(alpha) for alpha in range(2, 49)}
    cases = Counter()
    for n in range(4, 10):
        extremal = {}
        for record in sweep_models(n, (2, 48)):
            d = record.details
            if record.check == "extremal_case":
                extremal[d["model"]] = record
                continue
            model = models[d["alpha"]][d["shape"]]
            assert describe_model(model) == d["model"]
            try:
                outcome = classify_extremal_case(model, n)
            except AsymmetricPiSizes:
                case = "asymmetric"
            except ShapeMismatch:
                case = "shape_mismatch"
            else:
                case = outcome.case
            assert d["case"] == case, (n, d)
            cases[case] += 1
            case_record = extremal.pop(d["model"], None)
            if case not in CATALOG:
                assert case_record is None
                continue
            assert case_record.passed == outcome.verified
            assert case_record.details["expected_order"] == outcome.expected_order
        assert not extremal
    assert cases == {
        "a": 15, "b.i": 15, "b.ii": 13, "b.iii": 9,
        "not_covered": 159, "shape_mismatch": 59, "asymmetric": 576,
    }


def test_a_sweep_raises_nothing(monkeypatch):
    made = []

    def counted(error):
        class Counted(error):
            def __init__(self, *args):
                made.append(error)
                super().__init__(*args)

        return Counted

    monkeypatch.setattr(exactness, "AsymmetricPiSizes", counted(AsymmetricPiSizes))
    monkeypatch.setattr(exactness, "ShapeMismatch", counted(ShapeMismatch))
    for n in range(4, 8):
        sweep_models(n, (2, 48))
    assert made == []
    # the public classifier still raises both, on the models of
    # test_classification_error_paths_from_one_pair_model
    one_pair = Product((PSL2(PrimePower(2, 6)), disconnected_pair("Type1", 11, 17)))
    unbalanced = Product((PSL2(PrimePower(2, 12)), disconnected_pair("Type1", 11, 19)))
    with pytest.raises(ShapeMismatch):
        classify_extremal_case(one_pair, 5)
    with pytest.raises(AsymmetricPiSizes):
        classify_extremal_case(unbalanced, 5)
    assert made == [ShapeMismatch, AsymmetricPiSizes]
