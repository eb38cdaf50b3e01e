"""Independent brute-force oracles the real implementations are checked against.

Everything here is deliberately naive: trial division, all-subsets clique
search, all-permutations cycle search, all-colorings bipartiteness, block
merging for components.  None of it shares code with the library.
"""

from __future__ import annotations

import itertools


def brute_factorize(n: int) -> list[int]:
    """Trial division up to sqrt(n)."""
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def brute_prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(sorted(set(brute_factorize(n))))


def brute_is_prime(n: int) -> bool:
    return n >= 2 and brute_factorize(n) == [n]


def brute_degree_graph(degrees) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    """Vertices and sorted edges of the graph of a degree set: the primes
    dividing some degree, p < q adjacent when p*q divides some degree."""
    vertices = sorted({p for d in degrees for p in brute_prime_divisors(d)})
    edges = [
        (p, q)
        for p, q in itertools.combinations(vertices, 2)
        if any(d % (p * q) == 0 for d in degrees)
    ]
    return tuple(vertices), edges


def _is_clique(vertices, edge_set) -> bool:
    return all(
        (a, b) in edge_set for a, b in itertools.combinations(sorted(vertices), 2)
    )


def brute_max_clique(vertices, edges) -> tuple[int, ...]:
    """Lexicographically least maximum clique by scanning all subsets."""
    edge_set = {tuple(sorted(e)) for e in edges}
    verts = sorted(vertices)
    best: tuple[int, ...] = ()
    for size in range(len(verts), 0, -1):
        candidates = [
            s for s in itertools.combinations(verts, size) if _is_clique(s, edge_set)
        ]
        if candidates:
            best = min(candidates)
            break
    return best


def brute_odd_cycle_exists(vertices, edges, min_length: int) -> bool:
    """Scan every cyclic vertex arrangement of every subset."""
    edge_set = {tuple(sorted(e)) for e in edges}
    verts = sorted(vertices)
    for size in range(min_length, len(verts) + 1):
        if size % 2 == 0:
            continue
        for subset in itertools.combinations(verts, size):
            first = subset[0]
            for perm in itertools.permutations(subset[1:]):
                cycle = (first,) + perm
                if all(
                    tuple(sorted((cycle[i], cycle[(i + 1) % size]))) in edge_set
                    for i in range(size)
                ):
                    return True
    return False


def brute_is_bipartite(vertices, edges) -> bool:
    """Try every 2-coloring."""
    verts = sorted(vertices)
    edge_list = [tuple(sorted(e)) for e in edges]
    for assignment in itertools.product((0, 1), repeat=len(verts)):
        color = dict(zip(verts, assignment))
        if all(color[a] != color[b] for a, b in edge_list):
            return True
    return False


def brute_components(vertices, edges) -> list[tuple[int, ...]]:
    """Start from singleton blocks and merge the blocks of each edge's ends."""
    blocks = [{v} for v in vertices]
    for a, b in edges:
        block_a = next(block for block in blocks if a in block)
        block_b = next(block for block in blocks if b in block)
        if block_a is not block_b:
            blocks.remove(block_b)
            block_a |= block_b
    return sorted(tuple(sorted(block)) for block in blocks)


def brute_first_hamilton_cycle(vertices, edges) -> tuple[int, ...] | None:
    """Fix the first vertex, try every ordering of the rest in lexicographic
    order; the first closed one, or None."""
    verts = sorted(vertices)
    if len(verts) < 3:
        return None
    edge_set = {tuple(sorted(e)) for e in edges}
    first = verts[0]
    for perm in itertools.permutations(verts[1:]):
        cycle = (first,) + perm
        if all(
            tuple(sorted((cycle[i], cycle[(i + 1) % len(cycle)]))) in edge_set
            for i in range(len(cycle))
        ):
            return cycle
    return None


def brute_first_odd_cycle(vertices, edges, min_length: int) -> tuple[int, ...] | None:
    """Least qualifying cycle tuple, each written from its least vertex, by
    scanning every arrangement of every subset of odd size >= min_length."""
    edge_set = {tuple(sorted(e)) for e in edges}
    verts = sorted(vertices)
    found = []
    for size in range(min_length, len(verts) + 1):
        if size % 2 == 0:
            continue
        for subset in itertools.combinations(verts, size):
            for perm in itertools.permutations(subset[1:]):
                cycle = (subset[0],) + perm
                if all(
                    tuple(sorted((cycle[i], cycle[(i + 1) % size]))) in edge_set
                    for i in range(size)
                ):
                    found.append(cycle)
    return min(found, default=None)
