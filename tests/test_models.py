import dataclasses
import itertools
import random

import pytest

from chargraph.errors import BadParameter, ModelError, OutOfRange, VertexClash
from chargraph.exactness import verify_hamilton_characterization
from chargraph.graphs import PrimeGraph, complement, connected_components, induced_subgraph, join
from chargraph import models
from chargraph.models import (
    SOLVABLE_LABELS,
    AbstractSolvable,
    DegreeSet,
    PSL2,
    Product,
    Suzuki,
    abelian,
    c4_product,
    describe_model,
    disconnected_pair,
    graph_from_degrees,
    model_graph,
    psl2_degree_oracle,
    psl2_graph,
    suzuki_graph,
)
from chargraph.numtheory import PrimePower, as_prime_power, prime_divisors

from oracles import brute_degree_graph, brute_factorize, brute_is_bipartite, brute_max_clique


def complete_edges(primes):
    return set(itertools.combinations(sorted(primes), 2))


# --- graph_from_degrees ---


def test_degree_set_validation():
    with pytest.raises(BadParameter):
        DegreeSet.of(2, 3)  # missing 1
    with pytest.raises(BadParameter):
        DegreeSet.of(1, 0)
    assert DegreeSet.of(1, 3, 3, 6).sorted() == (1, 3, 6)


def test_degree_set_refuses_non_integers():
    # a float, a string or a bool is refused, not truncated, parsed or read as 1
    for entry in (6.5, 6.0, "15", True):
        with pytest.raises(BadParameter, match="positive integers"):
            DegreeSet.of(1, entry)
    with pytest.raises(BadParameter, match="positive integers"):
        DegreeSet.of(True, 6)


def test_graph_from_degrees_spec_values():
    assert graph_from_degrees(DegreeSet.of(1)) == PrimeGraph(())
    g = graph_from_degrees(DegreeSet.of(1, 3, 6, 7, 8))
    assert g.vertices == (2, 3, 7)
    assert g.sorted_edges() == [(2, 3)]
    g = graph_from_degrees(DegreeSet.of(1, 5, 10, 11, 12))
    assert g.vertices == (2, 3, 5, 11)
    assert g.sorted_edges() == [(2, 3), (2, 5)]


def test_graph_from_degrees_range_error():
    with pytest.raises(OutOfRange):
        graph_from_degrees(DegreeSet.of(1, 2**96))


# --- psl2_graph ---


def test_psl2_graph_even_cases():
    g4 = psl2_graph(4)
    assert g4 == PrimeGraph((2, 3, 5))
    g64 = psl2_graph(64)
    assert connected_components(g64) == [(2,), (3, 7), (5, 13)]
    assert g64.edges == frozenset({(3, 7), (5, 13)})


def test_psl2_graph_odd_cases():
    g11 = psl2_graph(11)
    assert g11.vertices == (2, 3, 5, 11)
    assert g11.sorted_edges() == [(2, 3), (2, 5)]
    g7 = psl2_graph(7)  # q+1 = 8 is a power of two: complete component {2,3}
    assert g7.sorted_edges() == [(2, 3)]
    g9 = psl2_graph(9)  # q-1 = 8: complete component {2,5}, p = 3 isolated
    assert g9.vertices == (2, 3, 5)
    assert g9.sorted_edges() == [(2, 5)]


def test_psl2_graph_q5_routes_through_q4():
    assert psl2_graph(5) == psl2_graph(4)


def test_psl2_carries_its_prime_sets():
    """pi_minus and pi_plus are pi(q - 1) and pi(q + 1) for every q = 2^a,
    a in 2..95, and every odd prime power 7 <= q < 2000, and the graph's
    vertices are p and the two sets."""
    odd = [q for q in range(7, 2000, 2) if as_prime_power(q) is not None]
    for q in [PrimePower(2, a) for a in range(2, 96)] + odd:
        model = PSL2(q)
        value = model.q.value
        assert model.pi_minus == prime_divisors(value - 1), value
        assert model.pi_plus == prime_divisors(value + 1), value
        assert model.graph.vertices == tuple(sorted({model.q.base, *model.pi_minus, *model.pi_plus})), value
    # PSL2(5) is built as PSL2(4): it carries the cliques of its graph, not pi(4) and pi(6)
    five, four = PSL2(5), PSL2(4)
    assert (five.pi_minus, five.pi_plus) == (four.pi_minus, four.pi_plus) == ((3,), (5,))
    # the sets, like the graph, stay out of ==, hash and repr
    assert five != four and hash(five) == hash((PrimePower(5, 1),))
    assert repr(five) == "PSL2(q=PrimePower(base=5, exponent=1))"
    derived = {f.name: (f.init, f.compare, f.repr) for f in dataclasses.fields(PSL2) if f.name != "q"}
    assert derived == dict.fromkeys(("pi_minus", "pi_plus", "graph"), (False, False, False))


def test_psl2_graph_accepts_prime_power_or_int():
    assert psl2_graph(PrimePower(2, 6)) == psl2_graph(64)
    for q in (3, 1, 0, -4):
        # refused before factoring, so a q below 2 is no OutOfRange
        for build in (PSL2, psl2_graph, psl2_degree_oracle):
            with pytest.raises(BadParameter, match=rf"^PSL2 needs q >= 4, got {q}$"):
                build(q)
    with pytest.raises(BadParameter):
        psl2_graph(6)


def test_psl2_names_its_factoring_cap():
    # PSL2 names its cap for q = 2^96 however it is asked for: q + 1 is past the factoring range
    message = "PSL2 needs q + 1 < 2**96 to factor q +- 1, got q = {}"
    cases = [
        (lambda: PSL2(2**96), str(2**96)),
        (lambda: PSL2(PrimePower(2, 96)), "2^96"),
        (lambda: verify_hamilton_characterization(96), "2^96"),
    ]
    for build, shown in cases:
        with pytest.raises(OutOfRange) as info:
            build()
        assert str(info.value) == message.format(shown)


def test_psl2_graph_odd_general_structure():
    # q = 29: q-1 = 28 = 2^2*7, q+1 = 30 = 2*3*5; neither is a power of two
    g = psl2_graph(29)
    minus_part, plus_part = {7}, {3, 5}
    assert g.vertices == (2, 3, 5, 7, 29)
    for p in minus_part | plus_part:
        assert g.has_edge(2, p)
    assert g.has_edge(3, 5)
    assert not any(g.has_edge(m, p) for m in minus_part for p in plus_part)
    assert all(not g.has_edge(29, v) for v in (2, 3, 5, 7))


# --- suzuki_graph ---


def test_suzuki_graph_m1():
    g = suzuki_graph(1)
    assert g.vertices == (2, 5, 7, 13)
    assert g.edges == frozenset({(5, 7), (5, 13), (7, 13), (2, 7)})
    assert induced_subgraph(g, (5, 7, 13)).edges == frozenset(complete_edges((5, 7, 13)))


def test_suzuki_graph_m2():
    g = suzuki_graph(2)  # q^2 = 32: pi(31) = {31}, pi(1025) = {5, 41}
    assert g.vertices == (2, 5, 31, 41)
    assert sorted(g.neighbors(2)) == [31]
    assert induced_subgraph(g, (5, 31, 41)).edges == frozenset(complete_edges((5, 31, 41)))


def test_suzuki_graph_bad_m():
    with pytest.raises(BadParameter):
        suzuki_graph(0)


def test_model_parameters_of_the_wrong_type_are_refused():
    psl2_message = r"^q must be an integer, got {}$"
    for q, shown in ((4.0, r"4\.0"), (8.0, r"8\.0"), ("4", "'4'"), (None, "None"), (True, "True")):
        for build in (PSL2, psl2_graph, psl2_degree_oracle):
            with pytest.raises(BadParameter, match=psl2_message.format(shown)):
                build(q)
    for m, shown in (("1", "'1'"), (2.5, r"2\.5"), (1.0, r"1\.0"), (True, "True")):
        with pytest.raises(BadParameter, match=rf"^m must be an integer, got {shown}$"):
            Suzuki(m)
    for factors in (5, None, abelian()):
        with pytest.raises(BadParameter, match=r"^a product's factors are a tuple or list of models, got "):
            Product(factors)
    # a list of factors is still a product, equal to the tuple form
    assert Product([abelian()]) == Product((abelian(),))


def test_suzuki_graph_out_of_range():
    with pytest.raises(OutOfRange):
        suzuki_graph(24)  # q^4 + 1 = 2^98 + 1 exceeds the factorization cap


# --- degree oracle ---


def test_degree_oracle_spec_values():
    assert psl2_degree_oracle(4).sorted() == (1, 3, 4, 5)
    assert psl2_degree_oracle(7).sorted() == (1, 3, 6, 7, 8)
    assert psl2_degree_oracle(9).sorted() == (1, 5, 8, 9, 10)
    assert psl2_degree_oracle(5).sorted() == (1, 3, 4, 5)


def test_degree_oracle_agrees_with_constructor_small():
    for q in range(4, 400):
        if as_prime_power(q) is None:
            continue
        assert graph_from_degrees(psl2_degree_oracle(q)) == psl2_graph(q), q


def _as_graph(g):
    return g.vertices, g.sorted_edges()


def test_psl2_graph_matches_the_brute_degree_graph():
    # prime powers by trial division, so no library code picks the q checked
    prime_powers = [q for q in range(4, 3000) if len(set(brute_factorize(q))) == 1]
    for q in prime_powers:
        assert _as_graph(psl2_graph(q)) == brute_degree_graph(psl2_degree_oracle(q).sorted()), q


def test_suzuki_graph_matches_the_brute_degree_graph():
    for m in range(1, 6):
        q2, r = 2 ** (2 * m + 1), 2 ** (m + 1)
        degrees = (1, q2 * q2, q2 * q2 + 1, (q2 - 1) * (q2 + r + 1), (q2 - 1) * (q2 - r + 1), r * (q2 - 1) // 2)
        assert _as_graph(suzuki_graph(m)) == brute_degree_graph(degrees), m


# --- solvable models ---


def test_abelian_model():
    model = abelian()
    assert model == AbstractSolvable("Abelian", PrimeGraph(()))
    assert model_graph(model).vertices == ()


def test_disconnected_pair_model():
    model = disconnected_pair("Type1", 17, 11)
    assert model_graph(model).vertices == (11, 17)
    assert model_graph(model).size == 0
    with pytest.raises(ModelError):
        disconnected_pair("Type2", 11, 17)


def test_c4_product_model():
    model = c4_product(11, 17, 19, 23)
    g = model_graph(model)
    assert g.vertices == (11, 17, 19, 23)
    assert g.size == 4
    assert not g.has_edge(11, 17) and not g.has_edge(19, 23)


def test_solvable_rejects_pair_with_edge():
    with pytest.raises(ModelError):
        AbstractSolvable("Type1", PrimeGraph((11, 17), [(11, 17)]))


def test_solvable_rejects_nonbipartite_complement():
    # complement of the edgeless triangle is K3
    with pytest.raises(ModelError):
        AbstractSolvable("C4Product", PrimeGraph((3, 5, 7)))


def test_solvable_rejects_triangle_free_non_c4():
    # the 4-vertex path is triangle-free and not a 4-cycle
    path = PrimeGraph((3, 5, 7, 11), [(3, 5), (5, 7), (7, 11)])
    with pytest.raises(ModelError):
        AbstractSolvable("C4Product", path)


def test_solvable_rejects_five_cycle():
    five = PrimeGraph((3, 5, 7, 11, 13), [(3, 5), (5, 7), (7, 11), (11, 13), (3, 13)])
    with pytest.raises(ModelError):
        AbstractSolvable("C4Product", five)


def test_every_accepted_solvable_meets_the_constraints():
    # every label against every graph on 0, 2 and 4 primes: whatever AbstractSolvable
    # accepts has a bipartite complement, and from 4 vertices on a triangle or is a 4-cycle
    accepted = dict.fromkeys(SOLVABLE_LABELS, 0)
    for primes in ((), (3, 5), (3, 5, 7, 11)):
        pairs = list(itertools.combinations(primes, 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            for label in SOLVABLE_LABELS:
                try:
                    AbstractSolvable(label, PrimeGraph(primes, edges))
                except ModelError:
                    continue
                accepted[label] += 1
                assert brute_is_bipartite(primes, set(pairs) - set(edges))
                if len(primes) >= 4:
                    first, *rest = primes
                    arrangements = ((first, *perm) for perm in itertools.permutations(rest))
                    four_cycles = [{tuple(sorted(e)) for e in zip(c, c[1:] + c[:1])} for c in arrangements]
                    assert len(brute_max_clique(primes, edges)) >= 3 or set(edges) in four_cycles
    # a label fixes the graph; on four primes only the three 4-cycles pass
    assert accepted == {"Type1": 1, "Type4": 1, "C4Product": 3, "Abelian": 1}


def test_psl2_degree_oracle_does_not_build_the_graph_it_checks(monkeypatch):
    def refuse(base, exponent):
        raise AssertionError(f"the oracle built the graph of PSL2({base}^{exponent})")

    monkeypatch.setattr(models, "_psl2_facts", refuse)
    assert psl2_degree_oracle(64) == DegreeSet.of(1, 63, 64, 65)
    assert psl2_degree_oracle(PrimePower(3, 2)) == DegreeSet.of(1, 5, 8, 9, 10)
    # nor does it need the factoring of q +- 1 that refuses PSL2(2^96)
    q = 2**96
    assert psl2_degree_oracle(PrimePower(2, 96)) == DegreeSet.of(1, q - 1, q, q + 1)
    # an int q that large cannot be read as a prime power; the refusal names PSL2 and the cap
    for value in (q, q + 1, 3**61):
        with pytest.raises(OutOfRange) as info:
            psl2_degree_oracle(value)
        assert str(info.value) == f"PSL2 reads an int q as a prime power only below 2**96, got q = {value}"
    # the largest power of 3 below the cap is still read
    assert psl2_degree_oracle(3**60) == psl2_degree_oracle(PrimePower(3, 60))
    with pytest.raises(BadParameter, match=r"^6 is not a prime power$"):
        psl2_degree_oracle(6)


# --- products ---


def test_product_join_with_abelian_is_identity():
    model = Product((PSL2(PrimePower(2, 2)), abelian()))
    assert model_graph(model) == psl2_graph(4)


def test_product_joins_the_graphs_it_is_given():
    psl2 = PSL2(PrimePower(2, 6))
    pair, other = disconnected_pair("Type1", 11, 17), disconnected_pair("Type4", 19, 23)
    # the abelian factor adds no vertex, so the model holds the PSL2 graph itself
    assert Product((psl2, abelian())).graph is psl2.graph
    one_pair = Product((psl2, pair))
    two_pairs = Product((one_pair, other))
    assert two_pairs.factors == (psl2, pair, other)
    assert two_pairs.graph == join(psl2.graph, pair.graph, other.graph) == join(one_pair.graph, other.graph)


def test_product_one_pair_spec_example():
    model = Product((PSL2(PrimePower(2, 6)), disconnected_pair("Type1", 11, 17)))
    g = model_graph(model)
    assert g.order == 7
    for vertex in (2, 3, 5, 7, 13):
        assert g.has_edge(11, vertex) and g.has_edge(17, vertex)
    assert not g.has_edge(11, 17)


def test_product_two_pairs_induces_c4():
    model = Product(
        (
            PSL2(PrimePower(2, 6)),
            disconnected_pair("Type1", 11, 17),
            disconnected_pair("Type4", 19, 23),
        )
    )
    g = model_graph(model)
    assert g.order == 9  # 5 + 2 + 2 primes across the three factors
    sub = induced_subgraph(g, (11, 17, 19, 23))
    from chargraph.graphs import isomorphic_small

    assert isomorphic_small(sub, c4_product(2, 3, 5, 7).graph)


def test_product_rejects_overlapping_supports():
    with pytest.raises(VertexClash):
        Product((PSL2(PrimePower(2, 6)), disconnected_pair("Type1", 7, 11)))
    with pytest.raises(BadParameter):
        Product(())


def test_product_stores_its_graph_outside_equality_and_repr():
    factors = (PSL2(PrimePower(2, 6)), disconnected_pair("Type1", 11, 17))
    a, b = Product(factors), Product(factors)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == f"Product(factors={factors!r})"
    # every model type holds its graph, and model_graph hands it out as it is
    for model in (PSL2(7), Suzuki(2), *factors, a):
        assert model_graph(model) is model.graph
    with pytest.raises(BadParameter, match=r"^not a model: 7$"):
        model_graph(7)
    assert PSL2(5).graph == PSL2(4).graph and PSL2(5) != PSL2(4)
    # PSL2 and Suzuki compare, hash and print on their parameter alone
    assert PSL2(8) == PSL2(PrimePower(2, 3)) and hash(PSL2(8)) == hash((PrimePower(2, 3),))
    assert repr(PSL2(8)) == "PSL2(q=PrimePower(base=2, exponent=3))"
    assert Suzuki(2) == Suzuki(2) != Suzuki(3) and hash(Suzuki(2)) == hash((2,))
    assert repr(Suzuki(2)) == "Suzuki(m=2)"


def test_a_model_whose_graph_cannot_be_built_is_refused_at_construction():
    with pytest.raises(OutOfRange):
        PSL2(PrimePower(2, 96))  # q + 1 = 2^96 + 1 exceeds the factorization cap
    with pytest.raises(OutOfRange, match=r"^Suzuki needs m <= 23, got 24$"):
        Suzuki(24)
    Suzuki(23)  # q^4 + 1 = 2^94 + 1, the largest that factors


def test_nested_product_graph_and_overlap():
    psl2, pair, other = PSL2(PrimePower(2, 6)), disconnected_pair("Type1", 11, 17), disconnected_pair("Type4", 19, 23)
    flat = Product((psl2, pair, other))
    # a product is flat: a nested one is its flat form, with the same graph
    for nested in (Product((Product((psl2, pair)), other)), Product((psl2, Product((pair, Product((other,))))))):
        assert nested.factors == (psl2, pair, other)
        assert nested == flat and hash(nested) == hash(flat)
        assert describe_model(nested) == describe_model(flat) == "Product[PSL2(64), Type1{11, 17}, Type4{19, 23}]"
        assert model_graph(nested) == model_graph(flat)
    with pytest.raises(VertexClash, match=r"^vertex sets overlap on \[11, 17\]$"):
        Product((Product((psl2, pair)), disconnected_pair("Type4", 11, 17)))


def test_product_vertex_count_and_factor_complements():
    factors = (PSL2(PrimePower(2, 6)), disconnected_pair("Type1", 11, 17))
    model = Product(factors)
    g = model_graph(model)
    assert g.order == sum(model_graph(f).order for f in factors)
    comp = complement(g)
    for factor in factors:
        support = model_graph(factor).vertices
        assert induced_subgraph(comp, support) == complement(model_graph(factor))


def test_model_graph_vertices_and_describe():
    model = Product((PSL2(PrimePower(2, 6)), disconnected_pair("Type1", 11, 17)))
    assert model_graph(model).vertices == (2, 3, 5, 7, 11, 13, 17)
    assert describe_model(model) == "Product[PSL2(64), Type1{11, 17}]"
    assert describe_model(abelian()) == "Abelian"
    assert describe_model(Suzuki(1)) == "Suzuki(m=1)"


def test_psl2_model_validation():
    with pytest.raises(BadParameter):
        PSL2(PrimePower(3, 1))
    with pytest.raises(BadParameter):
        Suzuki(0)


def validated_union(*cliques):
    """The clique union built through the validating constructor."""
    edges = [edge for clique in cliques for edge in itertools.combinations(clique, 2)]
    return PrimeGraph(itertools.chain.from_iterable(cliques), edges)


def test_clique_unions_equal_their_validated_builds():
    odd = [q for q in range(7, 2000, 2) if as_prime_power(q) is not None]
    for q in [2**a for a in range(2, 91)] + odd:
        p = as_prime_power(q).base
        assert psl2_graph(q) == validated_union((p,), prime_divisors(q - 1), prime_divisors(q + 1)), q
    for m in range(1, 24):
        q2 = 2 ** (2 * m + 1)
        pi_small = prime_divisors(q2 - 1)
        assert suzuki_graph(m) == validated_union((2, *pi_small), pi_small + prime_divisors(q2 * q2 + 1)), m
    rng = random.Random(5)
    for _ in range(300):
        degrees = DegreeSet.of(1, *(rng.randint(1, 10**6) for _ in range(rng.randint(0, 8))))
        built = graph_from_degrees(degrees)
        assert built == validated_union(*map(prime_divisors, degrees.sorted())), degrees
        edges = set(built.sorted_edges())
        assert all(v in built for v in built.vertices)
        assert {(a, b) for a in built.vertices for b in built.neighbors(a) if a < b} == edges
        assert {(a, b) for a, b in itertools.combinations(built.vertices, 2) if built.has_edge(a, b)} == edges
