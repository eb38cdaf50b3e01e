"""Output checks that share no code with chargraph's searches.

Graphs are rebuilt here from their definitions as plain vertex lists and edge
sets, prime divisors come from this module's own factoring, and every
certificate is rechecked with edge lookups.  Each check returns None for a
correct output, or a one-line reason.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from functools import lru_cache

# deterministic Miller-Rabin bases below 3.3e24; past it the same test is
# probabilistic, which is enough for a checker
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A nontrivial factor of the odd composite n (Pollard rho, Floyd cycle)."""
    for c in itertools.count(1):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
        if d != n:
            return d
    raise AssertionError("unreachable")


@lru_cache(maxsize=None)
def prime_set(n: int) -> frozenset[int]:
    """The primes dividing n >= 1."""
    out = set()
    for p in range(2, 1000):
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if _probable_prime(m):
            out.add(m)
        else:
            d = _rho(m)
            stack += [d, m // d]
    return frozenset(out)


def _adjacent(edges: set, a: int, b: int) -> bool:
    return (min(a, b), max(a, b)) in edges


def _clique_problem(witness, vertices, edges: set, n: int) -> str | None:
    if len(witness) != n or len(set(witness)) != n or not set(witness) <= set(vertices):
        return f"clique witness {witness} is not {n} distinct vertices of the graph"
    for a, b in itertools.combinations(witness, 2):
        if not _adjacent(edges, a, b):
            return f"clique witness misses the edge ({a}, {b})"
    return None


def _odd_cycle_problem(cycle, vertices, edges: set, min_length: int) -> str | None:
    """None when cycle is an odd simple cycle of length >= min_length in the complement."""
    if len(cycle) < min_length or len(cycle) % 2 == 0:
        return f"odd-cycle witness has length {len(cycle)}, need an odd length >= {min_length}"
    if len(set(cycle)) != len(cycle) or not set(cycle) <= set(vertices):
        return "odd-cycle witness repeats a vertex or leaves the graph"
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if _adjacent(edges, a, b):
            return f"odd-cycle step ({a}, {b}) is an edge of the graph, not of its complement"
    return None


def _certificate_problem(order, clique, cycle, verdict, vertices, edges: set, n: int) -> str | None:
    """Recheck an n-exactness verdict against its certificates."""
    if order != len(vertices):
        return f"order {order} differs from {len(vertices)} vertices"
    if clique is not None:
        fault = _clique_problem(clique, vertices, edges, n)
        if fault:
            return fault
    if cycle is not None:
        fault = _odd_cycle_problem(cycle, vertices, edges, max(3, 2 * n - 5))
        if fault:
            return fault
    if verdict != (clique is None and cycle is not None):
        return "verdict disagrees with the certificates"
    return None


def analyze_problem(op, text: str) -> str | None:
    (vertices, edge_list), n = op.args
    report = json.loads(text)
    if report["n"] != n:
        return f"report is for n = {report['n']}, asked n = {n}"
    if report["is_kn_free"] != (report["clique_witness"] is None):
        return "K_n-freeness disagrees with the clique witness"
    return _certificate_problem(
        report["order"], report["clique_witness"], report["odd_cycle"], report["verdict"],
        vertices, set(edge_list), n,
    )


def _psl2_parts(q: int) -> list[list[int]]:
    """Components of the PSL2(q) character graph for even q: {2}, pi(q-1), pi(q+1)."""
    return [[2], sorted(prime_set(q - 1)), sorted(prime_set(q + 1))]


def _join(parts_graphs):
    vertices, edges = [], set()
    for vs, es in parts_graphs:
        for a in vs:
            for b in vertices:
                edges.add((min(a, b), max(a, b)))
        vertices += vs
        edges |= es
    return vertices, edges


_FACTOR = re.compile(r"PSL2\((\d+)\)|(Type1|Type4)\{(\d+), (\d+)\}|(Abelian)")


def model_graph(model: str) -> tuple[list[int], set]:
    """Vertices and edges of a swept model, rebuilt from its description,
    e.g. 'Product[PSL2(64), Type1{11, 17}, Type4{19, 23}]'."""
    factors = []
    for q, _, p1, p2, _abelian in _FACTOR.findall(model):
        if q:
            parts = _psl2_parts(int(q))
            edges = {e for part in parts for e in itertools.combinations(part, 2)}
            factors.append(([v for part in parts for v in part], edges))
        elif p1:
            factors.append(([int(p1), int(p2)], set()))
    return _join(factors)


def expected_sweep_records(n: int, a: int) -> int:
    """Records sweep_models(n, (a, a)) returns: one order-bound record per
    solvable shape, plus one per catalog case the shapes instantiate."""
    k_minus, k_plus = len(prime_set(2**a - 1)), len(prime_set(2**a + 1))
    if k_minus != k_plus:
        return 3
    # case a (abelian) and b.i (two pairs) at k = n-3; b.ii (one pair) at
    # n-2; b.iii (abelian) at n-1
    return 3 + {n - 3: 2, n - 2: 1, n - 1: 1}.get(k_minus, 0)


def sweep_problem(op, records: list[dict]) -> str | None:
    n, a = op.args
    expected = expected_sweep_records(n, a)
    if len(records) != expected:
        return f"{len(records)} records, expected {expected}"
    for record in records:
        if not record["passed"]:
            return f"record FAIL: {record['description']}"
        details = record["details"]
        if record["check"] == "order_bound":
            vertices, edges = model_graph(details["model"])
            fault = _certificate_problem(
                details["order"], details["clique_witness"], details["odd_cycle"], details["n_exact"],
                vertices, edges, n,
            )
            if fault:
                return f"{details['model']}: {fault}"
        elif details["order"] != details["expected_order"] or not details["n_exact"]:
            return f"{details['model']}: case {details['case']} does not have its expected order"
    return None


def _hamilton_closed_form(q: int) -> bool:
    """The complement of the PSL2(q) graph is complete multipartite with the
    graph's components as parts; on N >= 3 vertices it is Hamiltonian exactly
    when no part has more than N/2 vertices."""
    sizes = [len(part) for part in _psl2_parts(q)]
    return sum(sizes) >= 3 and 2 * max(sizes) <= sum(sizes)


def _hamilton_cycle_problem(q: int, cycle) -> str | None:
    part_of = {v: i for i, part in enumerate(_psl2_parts(q)) for v in part}
    if sorted(cycle) != sorted(part_of):
        return "Hamilton cycle does not visit every vertex exactly once"
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if part_of[a] == part_of[b]:
            return f"Hamilton cycle step ({a}, {b}) is not an edge of the complement"
    return None


def hchar_problem(op, record: dict) -> str | None:
    q = 2 ** op.args[0]
    details = record["details"]
    if not record["passed"]:
        return f"record FAIL: {record['description']}"
    if (details["pi_minus_size"], details["pi_plus_size"]) != (len(prime_set(q - 1)), len(prime_set(q + 1))):
        return "divisor counts disagree with an independent factoring"
    if details["hamiltonian"] != _hamilton_closed_form(q):
        return "Hamiltonicity disagrees with the closed form"
    if details["hamilton_cycle"]:
        return _hamilton_cycle_problem(q, details["hamilton_cycle"])
    return None


PROBLEM = {"sweep": sweep_problem, "hchar": hchar_problem, "analyze": analyze_problem}


def problem(op, output) -> str | None:
    """None when the output of op is correct, else the reason it is not."""
    return PROBLEM[op.kind](op, output)
