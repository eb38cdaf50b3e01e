import gc
import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargraph.errors import BadParameter, TooLarge, UnknownVertex, VertexClash
from chargraph.graphs import (
    CycleWitness,
    PrimeGraph,
    complement,
    connected_components,
    induced_subgraph,
    is_bipartite,
    is_hamiltonian,
    is_kn_free,
    isomorphic_small,
    join,
    longest_odd_cycle_at_least,
    max_clique,
)

from oracles import (
    brute_components,
    brute_first_hamilton_cycle,
    brute_first_odd_cycle,
    brute_is_bipartite,
    brute_max_clique,
    brute_odd_cycle_exists,
)

PRIMES6 = (2, 3, 5, 7, 11, 13)
PAIRS6 = list(itertools.combinations(PRIMES6, 2))


def graph_from_mask(mask: int, primes=PRIMES6) -> PrimeGraph:
    pairs = list(itertools.combinations(primes, 2))
    return PrimeGraph(primes, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def cycle_graph(primes) -> PrimeGraph:
    edges = [(primes[i], primes[(i + 1) % len(primes)]) for i in range(len(primes))]
    return PrimeGraph(primes, edges)


def complete_graph(primes) -> PrimeGraph:
    return PrimeGraph(primes, itertools.combinations(primes, 2))


C4 = cycle_graph((2, 3, 5, 7))
C5 = cycle_graph((2, 3, 5, 7, 11))


# --- construction ---


def test_vertices_must_be_prime():
    with pytest.raises(BadParameter):
        PrimeGraph((4, 5))


def test_a_float_vertex_is_refused():
    with pytest.raises(BadParameter, match="vertex 2.5 is not prime"):
        PrimeGraph([2.5, 3, 5])


def test_edges_canonical_and_validated():
    g = PrimeGraph((2, 3, 5), [(5, 2), (2, 3)])
    assert g.sorted_edges() == [(2, 3), (2, 5)]
    with pytest.raises(BadParameter):
        PrimeGraph((2, 3), [(2, 2)])
    with pytest.raises(UnknownVertex):
        PrimeGraph((2, 3), [(2, 7)])
    assert g.neighbors(2) == {3, 5} and 5 in g and 7 not in g
    with pytest.raises(UnknownVertex, match=r"^vertex 7 is not in the graph$"):
        g.neighbors(7)


def test_malformed_input_is_refused_with_a_library_error():
    cases = [
        (lambda: PrimeGraph([[3]]), BadParameter, r"^vertex \[3\] is not prime$"),
        (lambda: PrimeGraph([3, {"5": 5}]), BadParameter, r"^vertex \{'5': 5\} is not prime$"),
        (lambda: PrimeGraph([3, True]), BadParameter, r"^vertex True is not prime$"),
        (lambda: PrimeGraph((3, 5), [(3.0, 5)]), UnknownVertex, r"^edge \(3\.0, 5\) has an endpoint outside"),
        (lambda: PrimeGraph((3, 5), [(3, True)]), UnknownVertex, r"^edge \(3, True\) has an endpoint outside"),
        (lambda: PrimeGraph((3, 5), [([3], 5)]), UnknownVertex, r"^edge \(\[3\], 5\) has an endpoint outside"),
        (lambda: PrimeGraph((3, 5), [(3, "5")]), UnknownVertex, r"^edge \(3, '5'\) has an endpoint outside"),
        (lambda: PrimeGraph((3, 5, 7), [(3, 5, 7)]), BadParameter, r"^an edge is a 2-element tuple or list, got \(3, 5, 7\)$"),
        (lambda: PrimeGraph((3, 5), [(3,)]), BadParameter, r"^an edge is a 2-element tuple or list, got \(3,\)$"),
        (lambda: PrimeGraph((3, 5), [35]), BadParameter, r"^an edge is a 2-element tuple or list, got 35$"),
        (lambda: PrimeGraph((3, 5), ["35"]), BadParameter, r"^an edge is a 2-element tuple or list, got '35'$"),
        (lambda: PrimeGraph((3, 5), [{3, 5}]), BadParameter, r"^an edge is a 2-element tuple or list, got \{3, 5\}$"),
        (lambda: PrimeGraph((3, 5), [[5, 5]]), BadParameter, r"^loop at vertex 5$"),
    ]
    for build, error, pattern in cases:
        with pytest.raises(error, match=pattern):
            build()
    # a list edge and a generator of vertices are accepted as before
    assert PrimeGraph((p for p in (5, 3)), [[3, 5]]) == PrimeGraph((3, 5), [(3, 5)])


def test_lookups_agree_with_the_constructor_on_what_a_vertex_is():
    g = PrimeGraph((3, 5, 7), [(3, 5), (5, 7)])
    for value in (3.0, 5.0, True, [3], "3"):
        assert value not in g
        assert g.has_edge(value, 5) is False and g.has_edge(5, value) is False
        with pytest.raises(UnknownVertex) as info:
            g.neighbors(value)
        assert str(info.value) == f"vertex {value!r} is not in the graph"
    assert 3 in g and g.has_edge(3, 5) and g.neighbors(5) == {3, 7}


def test_graphs_hold_their_vertex_tuple_and_masks_only():
    from chargraph.models import PSL2, DegreeSet, Product, disconnected_pair, graph_from_degrees, psl2_graph
    from chargraph.numtheory import PrimePower

    built = [
        C5,
        complement(C5),
        join(C4, PrimeGraph((13, 17))),
        induced_subgraph(C5, (2, 3, 5)),
        graph_from_degrees(DegreeSet.of(1, 6, 35)),
        psl2_graph(64),
        Product((PSL2(PrimePower(2, 4)), disconnected_pair("Type1", 7, 11))).graph,
    ]
    for g in built:
        assert type(g).__slots__ == ("vertices", "_adj")
        assert not hasattr(g, "_index") and not hasattr(g, "__dict__"), g
    # lookups by vertex scan the tuple: an unhashable value is just absent
    assert ([3] in C5) is False
    assert C5.has_edge([3], 5) is False and C5.has_edge(5, [3]) is False
    with pytest.raises(UnknownVertex, match=r"^vertex \[3\] is not in the graph$"):
        C5.neighbors([3])


def test_structural_equality():
    g1 = PrimeGraph((3, 2), [(3, 2)])
    g2 = PrimeGraph((2, 3), [(2, 3)])
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != PrimeGraph((2, 3))
    assert (g1 == "x") is False and g1 != "x"


# --- complement / induced / join ---


def test_complement_of_empty_is_complete():
    g = PrimeGraph((2, 3, 5))
    assert complement(g) == complete_graph((2, 3, 5))


def test_complement_is_involution():
    for mask in range(0, 2**15, 979):
        g = graph_from_mask(mask)
        assert complement(complement(g)) == g


def test_complement_of_psl2_64_structure():
    from chargraph.models import psl2_graph

    comp = complement(psl2_graph(64))
    expected = {(2, 3), (2, 7), (2, 5), (2, 13), (3, 5), (3, 13), (5, 7), (7, 13)}
    assert comp.edges == {tuple(sorted(e)) for e in expected}


def test_induced_subgraph():
    g = C5
    assert induced_subgraph(g, ()) == PrimeGraph(())
    assert induced_subgraph(g, g.vertices) == g
    sub = induced_subgraph(g, (2, 3, 5))
    assert sub.sorted_edges() == [(2, 3), (3, 5)]
    with pytest.raises(UnknownVertex, match=r"^vertices \[17, 19\] are not in the graph$"):
        induced_subgraph(g, (19, 2, 17, 19))


def test_induced_subgraph_refuses_a_non_integer_vertex():
    # 3.0 equals a vertex of C5 and [3] cannot be hashed; each, like True, is absent
    for v, shown in ((3.0, r"3\.0"), (True, "True"), ([3], r"\[3\]"), ("3", "'3'")):
        with pytest.raises(UnknownVertex, match=rf"^vertex {shown} is not in the graph$"):
            induced_subgraph(C5, (2, v, 5))


def test_induced_psl2_11_is_a_path():
    from chargraph.models import psl2_graph

    sub = induced_subgraph(psl2_graph(11), (2, 3, 5))
    assert sub.sorted_edges() == [(2, 3), (2, 5)]


def test_join_basics():
    k2 = join(PrimeGraph((2,)), PrimeGraph((3,)))
    assert k2 == PrimeGraph((2, 3), [(2, 3)])
    c4 = join(PrimeGraph((11, 17)), PrimeGraph((19, 23)))
    assert isomorphic_small(c4, C4)
    with pytest.raises(VertexClash):
        join(PrimeGraph((2, 3)), PrimeGraph((3, 5)))


def test_join_edge_count():
    g1 = graph_from_mask(0b101, (2, 3, 5))
    g2 = graph_from_mask(0b1, (7, 11))
    joined = join(g1, g2)
    assert joined.size == g1.size + g2.size + g1.order * g2.order


def test_join_associative_and_commutative_on_small_instances():
    g1 = PrimeGraph((2, 3), [(2, 3)])
    g2 = PrimeGraph((5, 7))
    g3 = PrimeGraph((11, 13), [(11, 13)])
    left = join(join(g1, g2), g3)
    right = join(g1, join(g2, g3))
    assert left == right
    assert isomorphic_small(left, right)
    assert join(g1, g2) == join(g2, g1)


def test_join_of_many_graphs():
    g1 = PrimeGraph((2, 13), [(2, 13)])
    g2 = PrimeGraph((5, 7, 17), [(5, 17)])
    g3 = PrimeGraph((3, 11))
    empty = PrimeGraph(())
    joined = join(g1, g2, g3)
    assert joined == join(join(g1, g2), g3) == join(g3, join(g2, g1))
    assert joined.size == g1.size + g2.size + g3.size + 2 * 3 + 2 * 2 + 3 * 2
    # empty graphs add nothing; a single non-empty graph comes back as it is
    assert join(empty, g1, empty, g2, g3) == joined
    assert join(empty, g2) is g2 and join(g2) is g2
    assert join(empty, empty) == join() == empty
    with pytest.raises(VertexClash, match=r"^vertex sets overlap on \[3, 7\]$"):
        join(PrimeGraph((2, 3)), PrimeGraph((5, 7)), PrimeGraph((3, 7, 11)))
    with pytest.raises(VertexClash, match=r"^vertex sets overlap on \[5\]$"):
        join(PrimeGraph((5,)), empty, PrimeGraph((3, 5)), PrimeGraph((5, 7)))


# --- cliques ---


def test_max_clique_spec_values():
    k5 = complete_graph((2, 3, 5, 7, 11))
    assert max_clique(k5) == (2, 3, 5, 7, 11)
    assert max_clique(C4) == (2, 3)  # least edge of a triangle-free graph
    assert max_clique(PrimeGraph(())) == ()


def test_max_clique_lexicographic_tie_break():
    # two maximum cliques; the lexicographically least wins
    g = PrimeGraph((2, 3, 5, 7), [(3, 7), (2, 5)])
    assert max_clique(g) == (2, 5)


def test_max_clique_cap():
    many = [p for p in range(2, 400) if all(p % d for d in range(2, p))][:65]
    with pytest.raises(TooLarge):
        max_clique(PrimeGraph(many))
    with pytest.raises(TooLarge, match="clique search is capped at 64 vertices, got 65"):
        is_kn_free(PrimeGraph(many), 3)


def test_is_kn_free():
    triangle = complete_graph((2, 3, 5))
    assert is_kn_free(triangle, 4).is_free
    k4 = complete_graph((2, 3, 5, 7))
    free, witness = is_kn_free(k4, 4)
    assert not free and witness == (2, 3, 5, 7)
    with pytest.raises(BadParameter):
        is_kn_free(triangle, 1)
    assert is_kn_free(PrimeGraph(()), 2) == (True, None)


def test_is_kn_free_refuses_a_non_integer_n():
    for n, shown in ((2.5, r"2\.5"), (True, "True")):
        with pytest.raises(BadParameter, match=rf"^n must be an integer, got {shown}$"):
            is_kn_free(complete_graph((2, 3, 5)), n)


def test_is_kn_free_when_the_coloring_bound_prunes_at_the_root():
    # complete multipartite graphs: greedy coloring in any order gives each
    # part one color, so with n - 1 parts every root branch is cut by the bound
    k222 = join(join(PrimeGraph((2, 3)), PrimeGraph((5, 7))), PrimeGraph((11, 13)))
    assert is_kn_free(k222, 4) == (True, None)
    assert is_kn_free(k222, 3) == (False, max_clique(k222)) == (False, (2, 5, 11))
    primes = [p for p in range(2, 400) if all(p % d for d in range(2, p))][:64]
    k32_32 = join(PrimeGraph(primes[::2]), PrimeGraph(primes[1::2]))
    assert is_kn_free(k32_32, 3) == (True, None)
    assert is_kn_free(k32_32, 2) == (False, (2, 3))


def test_clique_searches_match_the_recorded_digest():
    # max_clique and is_kn_free witnesses at several n over a fixed family of
    # random graphs on 1-45 vertices, so a change to the coloring or the
    # branching order that moves any witness shows here
    primes = [p for p in range(2, 200) if all(p % d for d in range(2, p))][:45]
    rng = random.Random(2011)
    lines = []
    for _ in range(240):
        verts = primes[: rng.randint(1, 45)]
        density = rng.choice((0.2, 0.4, 0.6, 0.8, 0.9))
        g = PrimeGraph(verts, [(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :] if rng.random() < density])
        lines.append(repr((max_clique(g), [tuple(is_kn_free(g, n)) for n in (2, 3, 5, 8, 12)])))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "88603996cd1a95e8c4967400ed7ab5edb99d4ba307b43f16c25b922889ed33c1"


def test_searches_leave_no_cyclic_garbage():
    # the recursive searches are closures that refer to themselves; each is
    # freed on return, so no search leaves work for the cycle collector
    graphs = [C5, complete_graph(PRIMES6), cycle_graph(PRIMES6), join(C4, PrimeGraph((17, 19)))]
    gc.collect()
    gc.disable()
    try:
        for g in graphs:
            max_clique(g), is_kn_free(g, 3), is_hamiltonian(g)
            longest_odd_cycle_at_least(g, 3), longest_odd_cycle_at_least(g, 5)
        assert gc.collect() == 0
    finally:
        gc.enable()


PRIMES12 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def blowup(rng, verts):
    """A random graph on a few classes with each class blown up to an
    independent set spread over the vertex order, so maximum cliques tie."""
    cls = {v: rng.randrange(len(verts) // 2) for v in verts}
    base = {pair for pair in itertools.combinations(range(len(verts) // 2), 2) if rng.random() < 0.7}
    return PrimeGraph(verts, [(a, b) for a, b in itertools.combinations(verts, 2) if tuple(sorted((cls[a], cls[b]))) in base])


def test_clique_witnesses_match_oracle_on_random_and_blowup_graphs():
    rng = random.Random(11)
    ties = 0
    for family in (random_graph, blowup):
        for _ in range(40):
            g = family(rng, tuple(sorted(rng.sample(PRIMES12, rng.randint(7, 12)))))
            edges = g.sorted_edges()
            brute = brute_max_clique(g.vertices, edges)
            assert max_clique(g) == brute, g
            for n in range(2, g.order + 2):
                assert is_kn_free(g, n) == ((True, None) if len(brute) < n else (False, brute[:n])), (g, n)
            edge_set = set(edges)
            ties += sum(
                all(e in edge_set for e in itertools.combinations(c, 2))
                for c in itertools.combinations(g.vertices, len(brute))
            ) > 1
    assert ties >= 40  # the witness order is exercised, not just the size


def test_suzuki_8_clique_structure():
    from chargraph.models import suzuki_graph

    g = suzuki_graph(1)
    assert is_kn_free(g, 4).is_free
    free, witness = is_kn_free(g, 3)
    assert not free and witness == (5, 7, 13)


# --- odd cycles / bipartiteness ---


def test_odd_cycle_spec_values():
    found = longest_odd_cycle_at_least(C5, 5)
    assert found is not None and found.vertices_in_order == (2, 3, 5, 7, 11)
    assert longest_odd_cycle_at_least(C4, 3) is None


def test_odd_cycle_rejects_even_target():
    with pytest.raises(BadParameter):
        longest_odd_cycle_at_least(C5, 4)
    with pytest.raises(BadParameter):
        longest_odd_cycle_at_least(C5, 1)


def test_odd_cycle_refuses_a_non_integer_target():
    for target in (5.0, "5"):
        with pytest.raises(BadParameter, match=rf"^cycle length target must be an odd integer >= 3, got {target!r}$"):
            longest_odd_cycle_at_least(C5, target)


def test_odd_cycle_target_above_the_order():
    assert longest_odd_cycle_at_least(C5, 7) is None
    # the parity check comes before the order check, and the cycle cap after it
    with pytest.raises(BadParameter):
        longest_odd_cycle_at_least(C5, 8)
    many = [p for p in range(2, 200) if all(p % d for d in range(2, p))][:26]
    assert longest_odd_cycle_at_least(complete_graph(many), 27) is None


def test_odd_cycle_witness_validates():
    g = graph_from_mask(0b110110101110101)
    witness = longest_odd_cycle_at_least(g, 3)
    if witness is not None:
        assert witness.validates_in(g)
        assert witness.length % 2 == 1


def test_bipartite_spec_values():
    ok, parts, _ = is_bipartite(C4)
    assert ok and tuple(map(len, parts)) == (2, 2)
    ok, parts, cycle = is_bipartite(C5)
    assert not ok and parts is None
    assert cycle.length % 2 == 1 and cycle.validates_in(C5)


def test_bipartite_parts_are_proper():
    for mask in range(0, 2**15, 511):
        g = graph_from_mask(mask)
        result = is_bipartite(g)
        if result.is_bipartite:
            left, right = result.parts
            assert set(left) | set(right) == set(g.vertices)
            assert not set(left) & set(right)
            for a, b in g.edges:
                assert (a in left) != (b in left)
        else:
            assert result.odd_cycle.validates_in(g)


def test_bipartite_certificates_match_the_recorded_digest():
    # parts and odd-cycle witnesses of every graph on six labelled vertices,
    # so a change of visiting order or of the parent walk shows here
    lines = []
    for mask in range(2**15):
        r = is_bipartite(graph_from_mask(mask))
        lines.append(repr((r.parts, r.odd_cycle.vertices_in_order if r.odd_cycle else None)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "80b2e7bd1d11fbc186d0eac8cb5d5e07763d249ccae7f56972bd60f8769c0ef5"


def test_bipartite_iff_no_odd_cycle():
    for mask in range(0, 2**15, 257):
        g = graph_from_mask(mask)
        assert is_bipartite(g).is_bipartite == (longest_odd_cycle_at_least(g, 3) is None)


# --- hamiltonicity ---


def test_hamilton_basics():
    k3 = complete_graph((2, 3, 5))
    ok, cycle = is_hamiltonian(k3)
    assert ok and cycle.validates_in(k3) and cycle.length == 3
    p3 = PrimeGraph((2, 3, 5), [(2, 3), (3, 5)])
    assert not is_hamiltonian(p3).is_hamiltonian
    assert not is_hamiltonian(PrimeGraph((2, 3), [(2, 3)])).is_hamiltonian
    assert is_hamiltonian(PrimeGraph(())) == (False, None)
    assert is_hamiltonian(PrimeGraph((2,))) == (False, None)
    assert is_hamiltonian(PrimeGraph((2, 3))) == (False, None)
    # bipartite of even order: no odd cycle, yet Hamiltonian
    ok, cycle = is_hamiltonian(C4)
    assert ok and cycle.vertices_in_order == (2, 3, 5, 7)


def test_hamilton_psl2_64_complement():
    from chargraph.models import psl2_graph

    ok, cycle = is_hamiltonian(complement(psl2_graph(64)))
    assert ok and cycle.vertices_in_order == (2, 3, 5, 7, 13)


def test_hamilton_matches_oracle_on_5_vertices():
    primes = (2, 3, 5, 7, 11)
    pairs = list(itertools.combinations(primes, 2))
    for mask in range(2**10):
        edges = [pairs[i] for i in range(10) if mask >> i & 1]
        g = PrimeGraph(primes, edges)
        expected = brute_first_hamilton_cycle(primes, edges)
        got, cycle = is_hamiltonian(g)
        assert got == (expected is not None), mask
        assert (cycle and cycle.vertices_in_order) == expected, mask
        if got:
            assert cycle.validates_in(g) and cycle.length == 5


def test_cycle_searches_answer_an_unbalanced_bipartite_graph_at_once():
    """A connected bipartite graph on parts of 9 and 10 vertices has no odd
    cycle and no Hamilton cycle; without the bipartite rule either search
    runs for minutes on it.  The searches run in their own interpreter, so a
    hang ends at the timeout."""
    code = (
        "import random\n"
        "from chargraph.graphs import PrimeGraph, connected_components, is_hamiltonian, longest_odd_cycle_at_least\n"
        "primes = [p for p in range(2, 70) if all(p % d for d in range(2, p))][:19]\n"
        "left, right, rng = primes[:9], primes[9:], random.Random(190)\n"
        "g = PrimeGraph(primes, [(a, b) for a in left for b in right if rng.random() < 0.7])\n"
        "print(len(connected_components(g)), is_hamiltonian(g), longest_odd_cycle_at_least(g, 3))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60
    )
    assert proc.stdout == "1 HamiltonResult(is_hamiltonian=False, cycle=None) None\n", proc.stderr


def test_hamilton_cap():
    """Both cycle questions run one search with one cap, checked inside it:
    a graph over the cap that the bipartite rule answers gets its answer
    (test_odd_cycle_target_above_the_order covers the order test), and only
    a search that must run raises."""
    many = [p for p in range(2, 200) if all(p % d for d in range(2, p))][:26]
    dense = complete_graph(many)
    for search in (lambda g: longest_odd_cycle_at_least(g, 3), is_hamiltonian):
        with pytest.raises(TooLarge, match=r"^cycle search is capped at 25 vertices, got 26$"):
            search(dense)
    for edgeless in (PrimeGraph(many[:21]), PrimeGraph(many)):
        assert is_hamiltonian(edgeless) == (False, None)
        assert longest_odd_cycle_at_least(edgeless, 3) is None


# --- pruned searches on twin-rich graphs near the Hamilton regime ---

PRIMES9 = (2, 3, 5, 7, 11, 13, 17, 19, 23)
PRIMES22 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79)


def multipartite(rng, verts):
    cuts = sorted(rng.sample(range(1, len(verts)), rng.randint(1, 4)))
    part = {v: sum(k <= i for k in cuts) for i, v in enumerate(verts)}
    return PrimeGraph(verts, [(a, b) for a, b in itertools.combinations(verts, 2) if part[a] != part[b]])


def c5_blowup(rng, verts):
    cls = {v: i if i < 5 else rng.randrange(5) for i, v in enumerate(verts)}
    cliques = {c for c in range(5) if rng.random() < 0.5}
    edges = [
        (a, b)
        for a, b in itertools.combinations(verts, 2)
        if (cls[a] - cls[b]) % 5 in (1, 4) or (cls[a] == cls[b] and cls[a] in cliques)
    ]
    return PrimeGraph(verts, edges)


def join_complement(rng, verts):
    cut = rng.randint(1, len(verts) - 1)
    halves = [
        PrimeGraph(half, [e for e in itertools.combinations(half, 2) if rng.random() < 0.4])
        for half in (verts[:cut], verts[cut:])
    ]
    return complement(join(*halves))


def random_graph(rng, verts):
    p = rng.uniform(0.4, 0.9)
    return PrimeGraph(verts, [e for e in itertools.combinations(verts, 2) if rng.random() < p])


def twin_rich_graphs(per_family: int):
    """Graphs on 7-9 vertices from each family, labels shuffled so that twin
    classes are spread over the vertex order."""
    rng = random.Random(5)
    for family in (multipartite, c5_blowup, join_complement, random_graph):
        for _ in range(per_family):
            verts = rng.sample(PRIMES9, rng.randint(7, 9))
            yield family(rng, verts)


def test_odd_cycle_and_hamilton_witnesses_match_oracles_on_twin_rich_graphs():
    for g in twin_rich_graphs(7):
        verts, edges = g.vertices, g.sorted_edges()
        target = g.order if g.order % 2 else g.order - 1
        found = longest_odd_cycle_at_least(g, target)
        first = brute_first_odd_cycle(verts, edges, target)
        assert (found is not None) == brute_odd_cycle_exists(verts, edges, target), g
        assert (found and found.vertices_in_order) == first, g
        ok, cycle = is_hamiltonian(g)
        expected = brute_first_hamilton_cycle(verts, edges)
        assert ok == (expected is not None), g
        assert (cycle and cycle.vertices_in_order) == expected, g
        if ok:
            assert cycle.validates_in(g) and cycle.length == g.order
        if g.order % 2:
            # the canonical first cycle through all vertices starts at the least
            assert (cycle and cycle.vertices_in_order) == first, g


# --- sparse graphs with many degree-2 vertices, where edges are forced ---

PRIMES10 = PRIMES9 + (29,)


def cycle_with_chords(rng, verts):
    """A cycle through the vertices in random order plus up to three chords."""
    ring = rng.sample(verts, len(verts))
    edges = {frozenset((a, b)) for a, b in zip(ring, ring[1:] + ring[:1])}
    edges |= {frozenset(rng.sample(verts, 2)) for _ in range(rng.randint(0, 3))}
    return PrimeGraph(verts, map(tuple, edges))


def subdivided(rng, verts):
    """A random graph on four or five vertices whose edges the remaining
    vertices subdivide, each a degree-2 vertex on a random edge."""
    core = rng.randint(4, 5)
    edges = [e for e in itertools.combinations(verts[:core], 2) if rng.random() < 0.7] or [tuple(verts[:2])]
    for w in verts[core:]:
        a, b = edges.pop(rng.randrange(len(edges)))
        edges += [(a, w), (w, b)]
    return PrimeGraph(verts, edges)


def sparse_random(rng, verts):
    p = rng.uniform(0.15, 0.35)
    return PrimeGraph(verts, [e for e in itertools.combinations(verts, 2) if rng.random() < p])


def sparse_graphs(per_family: int):
    """Graphs on 7-10 vertices from each sparse family, labels shuffled."""
    rng = random.Random(19)
    for family in (cycle_with_chords, subdivided, sparse_random):
        for _ in range(per_family):
            yield family(rng, rng.sample(PRIMES10, rng.randint(7, 10)))


def test_odd_cycle_and_hamilton_witnesses_match_oracles_on_sparse_graphs():
    # a target of order (Hamilton) or order - 1 leaves no free vertex off the
    # cycle at the last start tried, where tight vertices force edges
    for g in sparse_graphs(6):
        verts, edges = g.vertices, g.sorted_edges()
        target = g.order if g.order % 2 else g.order - 1
        found = longest_odd_cycle_at_least(g, target)
        assert (found and found.vertices_in_order) == brute_first_odd_cycle(verts, edges, target), g
        cycle = is_hamiltonian(g).cycle
        assert (cycle and cycle.vertices_in_order) == brute_first_hamilton_cycle(verts, edges), g


def test_cycle_searches_match_the_recorded_digest():
    # odd-cycle and Hamilton witnesses over sparse graphs on 14-19 vertices,
    # the complements of dense graphs near the minimum order 2n - 5, so a
    # change to the pruning or the branching order that moves any witness
    # shows here, beyond the reach of the brute-force oracles
    primes = PRIMES22[:19]
    rng = random.Random(1998)
    lines = []
    for _ in range(200):
        verts = rng.sample(primes, rng.randint(14, 19))
        density = rng.uniform(0.12, 0.3)
        g = PrimeGraph(verts, [(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :] if rng.random() < density])
        odd = longest_odd_cycle_at_least(g, g.order if g.order % 2 else g.order - 1)
        ham = is_hamiltonian(g).cycle
        lines.append(repr((odd and odd.vertices_in_order, ham and ham.vertices_in_order)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "e4da6a6aa570a7ee890540721d1c45c4e1410d2e77236d55e286a5c3f1303b46"


# --- components / isomorphism ---


def test_connected_components_spec_values():
    assert connected_components(PrimeGraph((2, 3, 5))) == [(2,), (3,), (5,)]
    assert connected_components(complete_graph((2, 3, 5, 7))) == [(2, 3, 5, 7)]
    from chargraph.models import psl2_graph

    assert connected_components(psl2_graph(64)) == [(2,), (3, 7), (5, 13)]
    # sparse graphs: isolated vertices and many components
    rng = random.Random(8)
    for _ in range(60):
        verts = rng.sample(PRIMES22, rng.randint(10, 22))
        g = PrimeGraph(verts, [e for e in itertools.combinations(verts, 2) if rng.random() < 0.08])
        assert connected_components(g) == brute_components(g.vertices, g.sorted_edges()), g


def test_isomorphic_small_spec_values():
    assert isomorphic_small(C4, join(PrimeGraph((11, 17)), PrimeGraph((19, 23))))
    assert not isomorphic_small(C4, complete_graph((2, 3, 5, 7)))
    from chargraph.models import psl2_graph

    assert isomorphic_small(psl2_graph(7), PrimeGraph((2, 3, 7), [(2, 3)]))
    # same order and size, different degree sequences: K1,3 against P4
    star = PrimeGraph((2, 3, 5, 7), [(2, 3), (2, 5), (2, 7)])
    path = PrimeGraph((2, 3, 5, 7), [(2, 3), (3, 5), (5, 7)])
    assert not isomorphic_small(star, path)
    # same degree sequence, no bijection: C6 against two disjoint triangles
    six = (2, 3, 5, 7, 11, 13)
    triangles = PrimeGraph(six, [(2, 3), (3, 5), (2, 5), (7, 11), (11, 13), (7, 13)])
    assert not isomorphic_small(cycle_graph(six), triangles)


def test_isomorphic_small_cap():
    many = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    # the order comparison answers before the cap
    assert not isomorphic_small(PrimeGraph(many), PrimeGraph((2, 3)))
    assert not isomorphic_small(PrimeGraph((2, 3)), PrimeGraph(many))
    # equal orders and degree sequences leave only the brute force, which is capped
    with pytest.raises(TooLarge):
        isomorphic_small(PrimeGraph(many), PrimeGraph(many))


# --- oracle agreement on a sample of 6-vertex graphs (full sweep in acceptance) ---


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2**15 - 1))
def test_searches_match_oracles_on_sampled_6_vertex_graphs(mask):
    edges = [PAIRS6[i] for i in range(15) if mask >> i & 1]
    g = PrimeGraph(PRIMES6, edges)
    brute = brute_max_clique(PRIMES6, edges)
    assert max_clique(g) == brute
    for n in range(2, 8):
        assert is_kn_free(g, n) == ((True, None) if len(brute) < n else (False, brute[:n]))
    assert is_bipartite(g).is_bipartite == brute_is_bipartite(PRIMES6, edges)
    for target in (3, 5):
        found = longest_odd_cycle_at_least(g, target)
        assert (found and found.vertices_in_order) == brute_first_odd_cycle(PRIMES6, edges, target)
    assert connected_components(g) == brute_components(PRIMES6, edges)
    # derived graphs skip validation, so they must equal validated builds
    assert_built_as(complement(g), PRIMES6, [p for p in PAIRS6 if p not in edges])
    subset = [v for k, v in enumerate(PRIMES6) if mask >> (2 * k) & 1]
    assert_built_as(induced_subgraph(g, subset), subset, [(a, b) for a, b in edges if a in subset and b in subset])
    other = (17, 19, 23)
    other_edges = [e for k, e in enumerate(itertools.combinations(other, 2)) if mask >> k & 1]
    assert_built_as(
        join(g, PrimeGraph(other, other_edges)),
        PRIMES6 + other,
        edges + other_edges + [(a, b) for a in PRIMES6 for b in other],
    )


def assert_built_as(derived: PrimeGraph, vertices, edges) -> None:
    built = PrimeGraph(vertices, edges)
    assert derived == built and hash(derived) == hash(built)
    assert derived.edges == built.edges == {tuple(sorted(e)) for e in edges}


def test_cycle_witness_validation():
    with pytest.raises(BadParameter):
        CycleWitness((2, 3))
    with pytest.raises(BadParameter):
        CycleWitness((2, 3, 2))
    for vertices in (([1], [2], [3]), (2, 3, 5.0), (2, True, 5), (2, 3, "5")):
        with pytest.raises(BadParameter, match=r"^cycle vertices must be integers, got "):
            CycleWitness(vertices)
    w = CycleWitness((2, 3, 5))
    assert w.length == 3
    assert w.validates_in(complete_graph((2, 3, 5)))
    assert not w.validates_in(PrimeGraph((2, 3, 5), [(2, 3)]))
    assert not w.validates_in(PrimeGraph((2, 3)))
