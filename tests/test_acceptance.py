"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
All checks are exact (tolerance zero); the stated runtime budgets are asserted
too.
"""

import itertools
import json
import time

import pytest

from chargraph.cli import run
from chargraph.errors import AsymmetricPiSizes, ModelError
from chargraph.exactness import (
    check_n_exact,
    classify_extremal_case,
    verify_hamilton_characterization,
)
from chargraph.graphs import (
    PrimeGraph,
    complement,
    induced_subgraph,
    is_bipartite,
    longest_odd_cycle_at_least,
    max_clique,
)
from chargraph.models import (
    AbstractSolvable,
    PSL2,
    Product,
    abelian,
    c4_product,
    disconnected_pair,
    graph_from_degrees,
    model_graph,
    psl2_degree_oracle,
    psl2_graph,
    suzuki_graph,
)
from chargraph.numtheory import PrimePower, as_prime_power, prime_divisors
from chargraph.search import find_alphas, fresh_primes

PRIMES6 = (2, 3, 5, 7, 11, 13)
PAIRS6 = list(itertools.combinations(PRIMES6, 2))


def _verdict(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_psl2_oracle_agreement():
    started = time.monotonic()
    prime_powers = [n for n in range(4, 10_001) if as_prime_power(n) is not None]
    mismatches = [
        q for q in prime_powers if graph_from_degrees(psl2_degree_oracle(q)) != psl2_graph(q)
    ]
    elapsed = time.monotonic() - started
    _verdict(
        1,
        f"degree-oracle graphs match the structural constructor for all {len(prime_powers)} "
        f"prime powers 4 <= q <= 10^4 ({elapsed:.1f}s)",
        not mismatches and elapsed < 10.0,
    )


def _oracle_tables():
    """Precomputed exhaustive oracles over the fixed 6-vertex ground set."""
    index = {pair: i for i, pair in enumerate(PAIRS6)}

    def edge_mask(pairs) -> int:
        return sum(1 << index[tuple(sorted(p))] for p in pairs)

    # cliques: subsets sorted by size descending then lexicographically,
    # so the first subset whose required edges are present is the
    # lexicographically least maximum clique
    clique_table = []
    for size in range(6, 0, -1):
        for subset in itertools.combinations(PRIMES6, size):
            clique_table.append((subset, edge_mask(itertools.combinations(subset, 2))))

    # all odd cycles on 6 vertices have length 3 or 5; enumerate each exactly
    # once (first vertex fixed, orientation fixed) as an edge mask
    def cycle_masks(length: int) -> list[int]:
        masks = []
        for subset in itertools.combinations(PRIMES6, length):
            first = subset[0]
            for perm in itertools.permutations(subset[1:]):
                if perm[0] > perm[-1]:
                    continue  # skip the reflected traversal
                cycle = (first,) + perm
                masks.append(edge_mask((cycle[i], cycle[(i + 1) % length]) for i in range(length)))
        return masks

    triangle_masks = cycle_masks(3)
    pentagon_masks = cycle_masks(5)

    # bipartiteness: a graph is 2-colorable iff some coloring leaves no
    # monochromatic edge
    coloring_masks = []
    for assignment in itertools.product((0, 1), repeat=6):
        color = dict(zip(PRIMES6, assignment))
        coloring_masks.append(edge_mask(p for p in PAIRS6 if color[p[0]] == color[p[1]]))

    return clique_table, triangle_masks, pentagon_masks, coloring_masks


def test_criterion_2_oracle_equivalence_on_all_6_vertex_graphs():
    started = time.monotonic()
    clique_table, triangle_masks, pentagon_masks, coloring_masks = _oracle_tables()
    checked = 0
    for mask in range(2**15):
        edges = [PAIRS6[i] for i in range(15) if mask >> i & 1]
        g = PrimeGraph(PRIMES6, edges)

        oracle_clique = next(s for s, need in clique_table if need & mask == need)
        assert max_clique(g) == oracle_clique, mask

        oracle_has_triangle_or_pentagon = any(
            need & mask == need for need in triangle_masks
        ) or any(need & mask == need for need in pentagon_masks)
        oracle_has_pentagon = any(need & mask == need for need in pentagon_masks)
        found3 = longest_odd_cycle_at_least(g, 3)
        found5 = longest_odd_cycle_at_least(g, 5)
        assert (found3 is not None) == oracle_has_triangle_or_pentagon, mask
        assert (found5 is not None) == oracle_has_pentagon, mask
        if found3 is not None:
            assert found3.validates_in(g) and found3.length % 2 == 1
        if found5 is not None:
            assert found5.validates_in(g) and found5.length == 5

        oracle_bipartite = any(mono & mask == 0 for mono in coloring_masks)
        result = is_bipartite(g)
        assert result.is_bipartite == oracle_bipartite, mask
        assert result.is_bipartite == (found3 is None), mask
        if not result.is_bipartite:
            assert result.odd_cycle.validates_in(g)
        checked += 1
    elapsed = time.monotonic() - started
    _verdict(
        2,
        f"max_clique, odd-cycle search (L in {{3,5}}) and bipartiteness agree with "
        f"brute-force oracles on all {checked} graphs on 6 labeled vertices ({elapsed:.1f}s)",
        checked == 32768 and elapsed < 60.0,
    )


def test_criterion_3_minimum_extremal_instance():
    g = psl2_graph(64)
    report = check_n_exact(g, 5, character_model=True)
    ok = (
        report.verdict
        and report.order == 5 == 2 * 5 - 5
        and report.extremal_class == "MinExtremal"
        and max_clique(g) == (3, 7)
        and report.odd_cycle.vertices_in_order == (2, 3, 5, 7, 13)
        and report.odd_cycle.validates_in(complement(g))
    )
    _verdict(
        3,
        "PSL2(64) graph is 5-exact, order 5 = 2n-5, max clique 2, "
        "complement odd cycle (2, 3, 5, 7, 13)",
        ok,
    )


def test_criterion_4_maximum_extremal_instances():
    started = time.monotonic()
    n = 5

    # case b.i at alpha = 6
    two_pairs = Product(
        (
            PSL2(PrimePower(2, 6)),
            disconnected_pair("Type1", 11, 17),
            disconnected_pair("Type4", 19, 23),
        )
    )
    outcome_i = classify_extremal_case(two_pairs, n)
    graph_i = model_graph(two_pairs)
    ok_i = (
        outcome_i.case == "b.i"
        and outcome_i.verified
        and graph_i.order == 9 == 2 * n - 1
        and len(max_clique(graph_i)) == 4 == n - 1
        and outcome_i.report.verdict
        and outcome_i.report.odd_cycle.length >= 2 * n - 5
    )

    # case b.ii at a balanced alpha with k = n - 2 = 3, found by search
    hits = find_alphas(n, n - 2, (2, 90))
    assert hits.realizations, "no balanced alpha with k = n - 2 up to 90"
    alpha = hits.realizations[0].alpha
    pair = fresh_primes(2, prime_divisors(2 ** (2 * alpha) - 1))
    one_pair = Product((PSL2(PrimePower(2, alpha)), disconnected_pair("Type1", *pair)))
    outcome_ii = classify_extremal_case(one_pair, n)
    graph_ii = model_graph(one_pair)
    ok_ii = (
        alpha == 14
        and outcome_ii.case == "b.ii"
        and outcome_ii.verified
        and graph_ii.order == 9 == 2 * n - 1
        and len(max_clique(graph_ii)) == 4 == n - 1
    )

    # the asymmetric error path, exercised at alpha = 12
    unbalanced = Product((PSL2(PrimePower(2, 12)), disconnected_pair("Type1", 11, 19)))
    with pytest.raises(AsymmetricPiSizes):
        classify_extremal_case(unbalanced, n)

    elapsed = time.monotonic() - started
    _verdict(
        4,
        f"maximum-extremal cases verified: b.i at alpha = 6 and b.ii at alpha = {alpha}, "
        f"both order 9 = 2n-1 with max clique 4 = n-1; asymmetric alpha = 12 rejected "
        f"({elapsed:.1f}s)",
        ok_i and ok_ii and elapsed < 5.0,
    )


def test_criterion_5_order_bound_sweep(capsys):
    started = time.monotonic()
    failures = {}
    for n in (4, 5, 6, 7):
        code = run(["--quiet", "verify", "--suite", "--n", str(n), "--alpha-max", "40"])
        payload = json.loads(capsys.readouterr().out)
        failures[n] = (code, payload["failures"], len(payload["records"]))
    elapsed = time.monotonic() - started
    ok = all(code == 0 and fail_count == 0 for code, fail_count, _ in failures.values())
    total = sum(records for _, _, records in failures.values())
    with capsys.disabled():
        _verdict(
            5,
            f"verify --suite at alpha-max 40 for n in {{4,5,6,7}}: {total} records, "
            f"zero FAIL ({elapsed:.1f}s)",
            ok and elapsed < 120.0,
        )


def test_criterion_6_hamilton_characterization():
    started = time.monotonic()
    records = [verify_hamilton_characterization(f) for f in range(2, 13)]
    elapsed = time.monotonic() - started
    _verdict(
        6,
        "for every f in [2, 12], the PSL2(2^f) complement is non-bipartite Hamiltonian "
        f"exactly when the divisor counts are balanced ({elapsed:.1f}s)",
        all(r.passed for r in records) and elapsed < 30.0,
    )


def test_criterion_7_solvable_constraints():
    accepted = [
        abelian(),
        disconnected_pair("Type1", 11, 17),
        disconnected_pair("Type4", 19, 23),
        c4_product(3, 5, 7, 11),
    ]
    constraints_hold = True
    for model in accepted:
        g = model_graph(model)
        constraints_hold &= is_bipartite(complement(g)).is_bipartite
        if g.order >= 4:
            from chargraph.graphs import isomorphic_small

            constraints_hold &= len(max_clique(g)) >= 3 or isomorphic_small(
                g, c4_product(2, 3, 5, 7).graph
            )

    rejected = 0
    violations = [
        # nonbipartite complement (complement of the edgeless triangle is K3)
        ("C4Product", PrimeGraph((3, 5, 7))),
        # 4+ vertices, triangle-free, not a 4-cycle
        ("C4Product", PrimeGraph((3, 5, 7, 11), [(3, 5), (5, 7), (7, 11)])),
        # disconnected pair with an edge
        ("Type1", PrimeGraph((11, 17), [(11, 17)])),
        # abelian with vertices
        ("Abelian", PrimeGraph((3,))),
    ]
    for label, graph in violations:
        try:
            AbstractSolvable(label, graph)
        except ModelError:
            rejected += 1
    _verdict(
        7,
        "all four solvable constructors meet the bipartite-complement and "
        "triangle-or-4-cycle constraints; all four violating inputs rejected with ModelError",
        constraints_hold and rejected == len(violations),
    )


def test_criterion_8_suzuki_structure():
    ok = True
    for m in (1, 2, 3):
        g = suzuki_graph(m)
        q2 = 2 ** (2 * m + 1)
        pi_small = prime_divisors(q2 - 1)
        pi_large = prime_divisors(q2 * q2 + 1)
        odd = sorted(set(pi_small) | set(pi_large))
        ok &= g.vertices == tuple(sorted({2, *odd}))
        ok &= sorted(g.neighbors(2)) == list(pi_small)
        sub = induced_subgraph(g, odd)
        ok &= sub.size == len(odd) * (len(odd) - 1) // 2  # complete on the odd part
    m1 = suzuki_graph(1)
    ok &= m1.edges == frozenset({(5, 7), (5, 13), (7, 13), (2, 7)})
    ok &= max_clique(m1) == (5, 7, 13)  # the triangle
    _verdict(
        8,
        "Suzuki graphs for m in {1,2,3}: odd part complete, 2 adjacent exactly to "
        "pi(q^2 - 1); m = 1 contains the triangle {5, 7, 13}",
        ok,
    )
