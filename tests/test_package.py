import re
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chargraph
from chargraph.cli import graph_to_document, graph_to_dot
from chargraph.errors import ChargraphError
from chargraph.exactness import check_n_exact, verify_hamilton_characterization
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
from chargraph.models import PSL2, AbstractSolvable, DegreeSet, Suzuki, graph_from_degrees
from chargraph.numtheory import PrimePower, as_prime_power, factorize, prime_divisors
from chargraph.search import find_alphas, fresh_primes, sweep_models


def test_all_names_every_public_name_of_the_package():
    public = [
        name
        for name, value in vars(chargraph).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert chargraph.__all__ == sorted(public)


PATH = PrimeGraph((2, 3, 5), [(2, 3), (3, 5)])

# each public entry point with one integer parameter left open
INTEGER_PARAMETERS = {
    "check_n_exact n": lambda x: check_n_exact(PATH, x),
    "is_kn_free n": lambda x: is_kn_free(PATH, x),
    "longest_odd_cycle_at_least min_length": lambda x: longest_odd_cycle_at_least(PATH, x),
    "PSL2 q": PSL2,
    "Suzuki m": Suzuki,
    "PrimePower exponent": lambda x: PrimePower(2, x),
    "find_alphas n": lambda x: find_alphas(x, 2, (2, 4)),
    "find_alphas k_target": lambda x: find_alphas(5, x, (2, 4)),
    "find_alphas alpha start": lambda x: find_alphas(5, 2, (x, 4)),
    "find_alphas alpha end": lambda x: find_alphas(5, 2, (2, x)),
    "sweep_models n": lambda x: sweep_models(x, (2, 4)),
    "sweep_models alpha start": lambda x: sweep_models(5, (x, 4)),
    "sweep_models alpha end": lambda x: sweep_models(5, (2, x)),
    "fresh_primes count": lambda x: fresh_primes(x, ()),
    "factorize n": factorize,
    "prime_divisors n": prime_divisors,
    "as_prime_power n": as_prime_power,
    "verify_hamilton_characterization f": verify_hamilton_characterization,
}

NON_INTEGERS = st.one_of(st.booleans(), st.floats(), st.text(), st.none(), st.lists(st.integers()))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(INTEGER_PARAMETERS)), NON_INTEGERS)
def test_every_integer_parameter_refuses_any_other_value(parameter, value):
    # a library error, never a TypeError, ValueError or AttributeError from inside
    with pytest.raises(ChargraphError):
        INTEGER_PARAMETERS[parameter](value)


# each public entry point with one graph parameter left open
GRAPH_PARAMETERS = {
    "AbstractSolvable graph": lambda x: AbstractSolvable("Type1", x),
    "check_n_exact g": lambda x: check_n_exact(x, 5),
    "complement g": complement,
    "connected_components g": connected_components,
    "induced_subgraph g": lambda x: induced_subgraph(x, ()),
    "is_bipartite g": is_bipartite,
    "is_hamiltonian g": is_hamiltonian,
    "is_kn_free g": lambda x: is_kn_free(x, 3),
    "isomorphic_small g1": lambda x: isomorphic_small(x, PATH),
    "isomorphic_small g2": lambda x: isomorphic_small(PATH, x),
    "join first graph": join,
    "join later graph": lambda x: join(PrimeGraph((7,)), x),
    "longest_odd_cycle_at_least g": lambda x: longest_odd_cycle_at_least(x, 3),
    "max_clique g": max_clique,
    "CycleWitness.validates_in g": CycleWitness((2, 3, 5)).validates_in,
    "graph_to_document g": graph_to_document,
    "graph_to_dot g": graph_to_dot,
}

NON_GRAPHS = st.one_of(NON_INTEGERS, st.integers(), st.tuples(st.integers(), st.integers()), st.just(CycleWitness((2, 3, 5))))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(GRAPH_PARAMETERS)), NON_GRAPHS)
def test_every_graph_parameter_refuses_any_other_value(parameter, value):
    # a library error naming the graph, never an AttributeError from inside
    with pytest.raises(ChargraphError, match="graph must be a PrimeGraph"):
        GRAPH_PARAMETERS[parameter](value)


@settings(max_examples=100, deadline=None)
@given(st.one_of(NON_GRAPHS, st.frozensets(st.integers(min_value=1)), st.just(PATH)))
def test_graph_from_degrees_refuses_anything_but_a_degree_set(value):
    # a library error, never an AttributeError from inside
    with pytest.raises(ChargraphError, match="degrees must be a DegreeSet"):
        graph_from_degrees(value)


def test_a_bool_is_not_an_integer_parameter():
    # each was accepted as 1 once: Suzuki(True) built a graph equal to Suzuki(1)'s
    builds = (lambda: Suzuki(True), lambda: PrimePower(2, True), lambda: fresh_primes(True, ()), lambda: DegreeSet.of(True, 6))
    for build in builds:
        with pytest.raises(ChargraphError):
            build()


def test_every_digest_the_workflow_pins_is_pinned_by_a_test():
    """Each sha256 the CI workflow pins appears in a test file, so tier-1
    alone checks every document CI checks."""
    root = Path(__file__).resolve().parent.parent
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    digests = set(re.findall(r"(?<![0-9a-f])[0-9a-f]{64}(?![0-9a-f])", workflow))
    tests = "".join(path.read_text(encoding="utf-8") for path in (root / "tests").rglob("*.py"))
    assert digests
    assert sorted(d for d in digests if d not in tests) == []
