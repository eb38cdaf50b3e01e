import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from chargraph.cli import run
from chargraph.errors import AsymmetricPiSizes, BadParameter, OutOfRange, ShapeMismatch, TooLarge
from chargraph.exactness import (
    CATALOG,
    alternating_cycle_witness,
    check_n_exact,
    classify_extremal_case,
    verify_hamilton_characterization,
    verify_order_bound,
)
from chargraph.graphs import PrimeGraph, complement, is_bipartite, is_hamiltonian, max_clique
from chargraph.models import PSL2, Product, abelian, c4_product, disconnected_pair, model_graph, psl2_graph
from chargraph.numtheory import PrimePower, prime_divisors
from chargraph.search import find_alphas

from oracles import brute_max_clique, brute_odd_cycle_exists

PRIMES6 = (2, 3, 5, 7, 11, 13)
PAIRS6 = list(itertools.combinations(PRIMES6, 2))


def graph_from_mask(mask: int) -> PrimeGraph:
    return PrimeGraph(PRIMES6, [PAIRS6[i] for i in range(15) if mask >> i & 1])


def cycle_graph(primes) -> PrimeGraph:
    return PrimeGraph(primes, [(primes[i], primes[(i + 1) % len(primes)]) for i in range(len(primes))])


# --- check_n_exact ---


def test_c5_is_4_exact():
    report = check_n_exact(cycle_graph((2, 3, 5, 7, 11)), 4)
    assert report.verdict and report.is_kn_free
    assert report.odd_cycle.length >= 3


def test_c4_is_not_4_exact():
    report = check_n_exact(cycle_graph((2, 3, 5, 7)), 4)
    assert not report.verdict and report.extremal_class == "NotExact"
    assert report.is_kn_free and report.odd_cycle is None


def test_psl2_64_is_min_extremal_5_exact():
    report = check_n_exact(psl2_graph(64), 5)
    assert report.verdict
    assert report.order == 5 == 2 * 5 - 5
    assert report.extremal_class == "MinExtremal"
    assert report.odd_cycle.vertices_in_order == (2, 3, 5, 7, 13)


def test_clique_witness_attached_when_not_free():
    k5 = PrimeGraph(PRIMES6[:5], itertools.combinations(PRIMES6[:5], 2))
    report = check_n_exact(k5, 4)
    assert not report.is_kn_free and report.clique_witness == (2, 3, 5, 7)


def test_max_extremal_needs_model_tag():
    g = model_graph(
        Product(
            (
                PSL2(PrimePower(2, 6)),
                disconnected_pair("Type1", 11, 17),
                disconnected_pair("Type4", 19, 23),
            )
        )
    )
    tagged = check_n_exact(g, 5, character_model=True)
    untagged = check_n_exact(g, 5)
    assert tagged.verdict and untagged.verdict
    assert tagged.extremal_class == "MaxExtremal"
    assert untagged.extremal_class == "Interior"


def test_check_n_exact_parameter_validation():
    with pytest.raises(BadParameter):
        check_n_exact(psl2_graph(64), 3)
    primes = [p for p in range(2, 160) if all(p % d for d in range(2, p))][:26]
    with pytest.raises(TooLarge):
        check_n_exact(PrimeGraph(primes), 5)


@pytest.mark.parametrize("n", [5.0, 4.5, "5"], ids=["integral_float", "fraction", "string"])
def test_check_n_exact_refuses_a_non_integer_n(n):
    with pytest.raises(BadParameter, match=rf"^n must be an integer, got {n!r}$"):
        check_n_exact(psl2_graph(64), n)


def test_the_model_checks_refuse_a_non_integer_n():
    model = Product((PSL2(PrimePower(2, 6)), abelian()))
    with pytest.raises(BadParameter, match=r"^n must be an integer, got 5\.0$"):
        verify_order_bound(model, 5.0)
    with pytest.raises(BadParameter, match=r"^n must be an integer, got 5\.0$"):
        classify_extremal_case(model, 5.0)


def test_any_n_exact_graph_has_order_at_least_2n_minus_5():
    for mask in range(0, 2**15, 101):
        g = graph_from_mask(mask)
        for n in (4, 5):
            report = check_n_exact(g, n)
            if report.verdict:
                assert report.order >= 2 * n - 5
                assert report.odd_cycle.length >= 2 * n - 5
                assert report.odd_cycle.validates_in(complement(g))


def test_check_n_exact_agrees_with_naive_reimplementation_exhaustively():
    # all 6-vertex graphs, n = 4: clique oracle + complement odd-cycle oracle
    comp_pairs = set(PAIRS6)
    for mask in range(2**15):
        edges = [PAIRS6[i] for i in range(15) if mask >> i & 1]
        comp_edges = sorted(comp_pairs - set(edges))
        naive = len(brute_max_clique(PRIMES6, edges)) < 4 and brute_odd_cycle_exists(
            PRIMES6, comp_edges, 3
        )
        g = PrimeGraph(PRIMES6, edges)
        assert check_n_exact(g, 4).verdict == naive, mask


def test_monotonicity_on_sampled_instances():
    for mask in range(0, 2**15, 173):
        g = graph_from_mask(mask)
        for n in (4, 5):
            report = check_n_exact(g, n)
            if not report.verdict:
                continue
            if len(max_clique(g)) < n - 1 and longest_cycle_at_least(g, 2 * (n + 1) - 5):
                assert check_n_exact(g, n + 1).verdict


def longest_cycle_at_least(g, target):
    from chargraph.graphs import longest_odd_cycle_at_least

    return longest_odd_cycle_at_least(complement(g), target) is not None


# --- alternating cycle witness ---


def test_alternating_witness_spec_values():
    assert alternating_cycle_witness(2, (3, 7), (5, 13)).vertices_in_order == (2, 3, 5, 7, 13)
    assert alternating_cycle_witness(2, (3,), (5,)).vertices_in_order == (2, 3, 5)
    assert alternating_cycle_witness(2, (3, 7), (5,)).vertices_in_order == (2, 3, 5)


def test_alternating_witness_validation():
    with pytest.raises(BadParameter):
        alternating_cycle_witness(2, (), (5,))
    with pytest.raises(BadParameter):
        alternating_cycle_witness(2, (3, 5), (5, 7))
    with pytest.raises(BadParameter):
        alternating_cycle_witness(2, (2, 3), (5,))
    # each entry is checked before the parts become sets, which an unhashable entry would break
    for u, minus, plus, shown in ((2, [3], [5.0], r"5\.0"), (2, [[3]], [5], r"\[3\]"), (True, [3], [5], "True")):
        with pytest.raises(BadParameter, match=rf"^cycle vertex must be an integer, got {shown}$"):
            alternating_cycle_witness(u, minus, plus)


def test_alternating_witness_validates_in_psl2_complements():
    for alpha in range(2, 13):
        q = 2**alpha
        minus = prime_divisors(q - 1)
        plus = prime_divisors(q + 1)
        witness = alternating_cycle_witness(2, minus, plus)
        assert witness.validates_in(complement(psl2_graph(q))), alpha


# --- order bound verification ---


def test_order_bound_psl2_64():
    record = verify_order_bound(PSL2(PrimePower(2, 6)), 5)
    assert record.passed
    assert record.details["order"] == 5 and record.details["n_exact"]


def test_order_bound_one_pair_product():
    model = Product((PSL2(PrimePower(2, 6)), disconnected_pair("Type1", 11, 17)))
    record = verify_order_bound(model, 5)
    assert record.passed and record.details["order"] == 7


def test_order_bound_two_pairs_hits_the_bound():
    model = Product(
        (
            PSL2(PrimePower(2, 6)),
            disconnected_pair("Type1", 11, 17),
            disconnected_pair("Type4", 19, 23),
        )
    )
    record = verify_order_bound(model, 5)
    assert record.passed
    assert record.details["order"] == 9 == 2 * 5 - 1
    assert record.details["extremal_class"] == "MaxExtremal"
    assert len(max_clique(model_graph(model))) == 4


# --- extremal catalog classification ---


def test_case_a():
    outcome = classify_extremal_case(Product((PSL2(PrimePower(2, 6)), abelian())), 5)
    assert outcome.case == "a" and outcome.k == 2
    assert outcome.expected_order == 5 and outcome.verified


def test_case_b_i():
    model = Product(
        (
            PSL2(PrimePower(2, 6)),
            disconnected_pair("Type1", 11, 17),
            disconnected_pair("Type4", 19, 23),
        )
    )
    outcome = classify_extremal_case(model, 5)
    assert outcome.case == "b.i" and outcome.verified and outcome.report.order == 9
    # the pairs nested in a product of their own: the same flat model, the same outcome
    nested = Product((PSL2(PrimePower(2, 6)), Product(model.factors[1:])))
    assert classify_extremal_case(nested, 5) == outcome
    # a C4Product is the product of two disconnected groups: it counts as two
    # pairs, and its 4-cycle is the graph of the two pairs on the same primes
    c4 = classify_extremal_case(Product((PSL2(PrimePower(2, 6)), c4_product(11, 17, 19, 23))), 5)
    assert c4.case == "b.i" and c4.verified and c4.report == outcome.report


def test_case_b_ii_at_alpha_14():
    model = Product((PSL2(PrimePower(2, 14)), disconnected_pair("Type1", 11, 17)))
    outcome = classify_extremal_case(model, 5)
    assert outcome.case == "b.ii" and outcome.k == 3
    assert outcome.verified and outcome.report.order == 9


def test_case_b_iii_at_alpha_18():
    outcome = classify_extremal_case(Product((PSL2(PrimePower(2, 18)), abelian())), 5)
    assert outcome.case == "b.iii" and outcome.k == 4
    assert outcome.verified and outcome.report.order == 9


def test_catalog_table_agrees_with_the_checker(capsys):
    """Each CATALOG row, on the models above: the case, its order and its
    extremal class, the search's case label and the search --k choices."""
    pairs = (disconnected_pair("Type1", 11, 17), disconnected_pair("Type4", 19, 23))
    models = {
        "a": Product((PSL2(PrimePower(2, 6)), abelian())),
        "b.i": Product((PSL2(PrimePower(2, 6)), *pairs)),
        "b.ii": Product((PSL2(PrimePower(2, 14)), pairs[0])),
        "b.iii": Product((PSL2(PrimePower(2, 18)), abelian())),
    }
    n = 5
    assert list(models) == list(CATALOG)
    for case, (dk, _, offset) in CATALOG.items():
        outcome = classify_extremal_case(models[case], n)
        assert (outcome.case, outcome.k, outcome.verified) == (case, n + dk, True)
        assert outcome.expected_order == outcome.report.order == 2 * n + offset
        assert (outcome.report.extremal_class == "MinExtremal") == (offset == -5)
        same_k = "/".join(c for c, row in CATALOG.items() if row[0] == dk)
        assert find_alphas(n, n + dk, (2, 20)).case == same_k
    assert [find_alphas(n, n + dk, (2, 20)).case for dk in (-3, -2, -1)] == ["a/b.i", "b.ii", "b.iii"]
    assert run(["search", "--help"]) == 0
    assert "--k {n-3,n-2,n-1}" in capsys.readouterr().out


def test_classification_hamilton_and_alpha_search_read_the_prime_sets_from_the_model(monkeypatch):
    """pi(2^a - 1) and pi(2^a + 1) are factored once, by the PSL2 builder:
    once the models are built, classifying the catalog models, the Hamilton
    check and the alpha search make no prime_divisors call."""
    pairs = (disconnected_pair("Type1", 11, 17), disconnected_pair("Type4", 19, 23))
    models = [
        Product((PSL2(PrimePower(2, 6)), abelian())),
        Product((PSL2(PrimePower(2, 6)), *pairs)),
        Product((PSL2(PrimePower(2, 14)), pairs[0])),
        Product((PSL2(PrimePower(2, 18)), abelian())),
    ]
    for a in range(2, 91):
        PSL2(PrimePower(2, a))
    calls = []

    def counting(n):
        calls.append(n)
        return prime_divisors(n)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "chargraph" and getattr(module, "prime_divisors", None) is prime_divisors:
            monkeypatch.setattr(module, "prime_divisors", counting)
    outcomes = [classify_extremal_case(model, 5) for model in models]
    records = [verify_hamilton_characterization(f) for f in range(2, 13)]
    result = find_alphas(6, 3, (2, 90))
    assert calls == []
    assert [(o.case, o.verified) for o in outcomes] == [("a", True), ("b.i", True), ("b.ii", True), ("b.iii", True)]
    assert all(r.passed for r in records)
    assert 14 in [r.alpha for r in result.realizations]


def test_classification_error_paths_from_one_pair_model():
    one_pair = Product((PSL2(PrimePower(2, 6)), disconnected_pair("Type1", 11, 17)))
    # k = 2 = n - 4 for n = 6: outside the catalog
    assert classify_extremal_case(one_pair, 6).case == "not_covered"
    # k = 2 = n - 3 for n = 5, but one pair demands k = n - 2
    with pytest.raises(ShapeMismatch):
        classify_extremal_case(one_pair, 5)
    # alpha = 12 is unbalanced: |pi(4095)| = 4 vs |pi(4097)| = 2
    unbalanced = Product((PSL2(PrimePower(2, 12)), disconnected_pair("Type1", 11, 19)))
    with pytest.raises(AsymmetricPiSizes):
        classify_extremal_case(unbalanced, 5)
    with pytest.raises(BadParameter):
        classify_extremal_case(one_pair, 3)


def test_classification_rejects_wrong_shapes():
    with pytest.raises(ShapeMismatch):
        classify_extremal_case(PSL2(PrimePower(2, 6)), 5)
    with pytest.raises(ShapeMismatch):
        classify_extremal_case(Product((abelian(),)), 5)
    odd_char = Product((PSL2(PrimePower(3, 2)), abelian()))
    with pytest.raises(ShapeMismatch):
        classify_extremal_case(odd_char, 5)


# --- hard instances: odd-cycle and Hamilton searches through many vertices ---


def test_dense_25_vertex_graphs_are_decided():
    """G(25, 0.8) on the first 25 primes: the complement searches for an odd
    cycle of length 25, four of the five without one."""
    primes = [p for p in range(2, 100) if all(p % d for d in range(2, p))]
    pairs = list(itertools.combinations(primes, 2))
    rng = random.Random(1)
    verdicts = []
    for _ in range(5):
        g = PrimeGraph(primes, [e for e in pairs if rng.random() < 0.8])
        report = check_n_exact(g, 15)
        assert report.is_kn_free
        verdicts.append(report.verdict)
        if report.verdict:
            assert report.odd_cycle.validates_in(complement(g))
            # the canonical first cycle, as the unpruned search finds it
            assert report.odd_cycle.vertices_in_order == (
                2, 5, 23, 11, 7, 59, 61, 3, 43, 31, 41, 89, 73, 67, 13, 71, 97, 83, 47, 17, 19, 29, 79, 37, 53
            )
    assert verdicts == [False, False, True, False, False]


def test_forced_edges_decide_a_formerly_heavy_25_vertex_graph():
    """The README "Caps" graph at seed 1456: the odd primes 3..101, an edge
    wherever the draw is at least 0.25.  Its complement has a 25-cycle that
    the search without the forced-edge rule takes about 17 s to reach; with
    the rule it takes milliseconds.  At 2n - 5 = 25 vertices that odd cycle
    is a Hamilton cycle, and the Hamilton search finds the same one under
    the same cap.  The check runs in its own interpreter, so a slow search
    fails at the timeout instead of stalling the suite."""
    code = (
        "import random\n"
        "from chargraph.exactness import check_n_exact\n"
        "from chargraph.graphs import PrimeGraph, complement, is_hamiltonian\n"
        "P = [p for p in range(3, 102) if all(p % d for d in range(2, p))]\n"
        "rng = random.Random(1456)\n"
        "g = PrimeGraph(P, [(P[a], P[b]) for a in range(25) for b in range(a + 1, 25) if rng.random() >= 0.25])\n"
        "r = check_n_exact(g, 15)\n"
        "print(r.verdict, r.extremal_class, r.odd_cycle.vertices_in_order)\n"
        "print(is_hamiltonian(complement(g)).cycle == r.odd_cycle)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=5
    )
    assert proc.stdout == (
        "True MinExtremal (3, 29, 5, 11, 13, 7, 19, 41, 17, 23, 59, 79, 37, 71, 101, 61, 53, 83, 73, 31, 43, 97, 67, 89, 47)\n"
        "True\n"
    ), proc.stderr


@pytest.mark.parametrize("f", range(2, 90))
def test_psl2_complement_hamiltonian_iff_no_part_holds_more_than_half(f):
    q = 2**f
    comp = complement(psl2_graph(q))
    largest = max(1, len(prime_divisors(q - 1)), len(prime_divisors(q + 1)))
    ok, cycle = is_hamiltonian(comp)
    assert ok == (2 * largest <= comp.order)
    if ok:
        assert cycle.validates_in(comp) and cycle.length == comp.order


# --- hamilton characterization ---


def test_hamilton_characterization_all_f():
    for f in range(2, 13):
        record = verify_hamilton_characterization(f)
        assert record.passed, (f, record.details)


def test_hamilton_characterization_details():
    record = verify_hamilton_characterization(6)
    assert record.details["balanced"] and record.details["hamiltonian"]
    record = verify_hamilton_characterization(11)
    assert record.details["pi_minus_size"] == 2 and record.details["pi_plus_size"] == 2
    assert record.details["hamiltonian"]
    record = verify_hamilton_characterization(12)
    assert not record.details["balanced"] and not record.details["hamiltonian"]


def test_hamilton_characterization_walks_its_graph_once(monkeypatch):
    from chargraph import exactness, graphs

    calls = []

    def counting(g):
        calls.append(g)
        return is_bipartite(g)

    monkeypatch.setattr(exactness, "is_bipartite", counting)
    monkeypatch.setattr(graphs, "is_bipartite", counting)
    for f in range(2, 13):
        calls.clear()
        record = verify_hamilton_characterization(f)
        assert len(calls) == 1 and record.passed, f


def test_hamilton_characterization_range():
    with pytest.raises(BadParameter):
        verify_hamilton_characterization(1)
    # every complement up to f = 95 fits the cycle cap (f = 90 has 22
    # vertices); factoring q +- 1 bounds f from above
    assert all(verify_hamilton_characterization(f).passed for f in range(2, 96))
    with pytest.raises(OutOfRange):
        verify_hamilton_characterization(96)


def test_hamilton_characterization_refuses_a_non_integer_f():
    for f, shown in ((2.5, r"2\.5"), ("3", "'3'"), (True, "True"), (3.0, r"3\.0")):
        with pytest.raises(BadParameter, match=rf"^f must be an integer, got {shown}$"):
            verify_hamilton_characterization(f)
