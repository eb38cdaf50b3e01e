"""Simple graphs on prime-labeled vertices, plus the exact searches the
n-exactness test needs: maximum clique, odd cycles, bipartiteness,
Hamiltonicity, components, and brute-force isomorphism for small instances.

A graph is stored once, as per-vertex adjacency bitmasks over its ascending
vertex tuple, and nothing else: every search reads those masks, and the few
lookups by vertex scan the tuple.  The public constructor validates its
input (prime vertices, no loops, known endpoints); complement,
induced_subgraph and join derive their masks from graphs that already
passed it, so they skip that validation.  join is n-ary: it merges
the vertices of all its graphs once and moves each graph's mask bits through
one table per graph, the table induced_subgraph uses too.

One clique search in lexicographic order, with no second pass, gives the
least maximum clique, and bounded from below it decides K_n-freeness; it
colors its candidates one class at a time, as bitsets.  One pruned
depth-first cycle search, with one size cap it checks after its cheap
answers, serves both cycle questions: an odd cycle of length at least a
target, and a cycle through every vertex.  Components reuse that search's
reachability walk, and bipartiteness is one breadth-first walk that stops at
the first conflict; the cycle search starts from its answer, which a caller
that also needs it can hand to the Hamilton search.

Graphs are immutable after construction.  Every search is deterministic:
ties break by ascending vertex order, so identical inputs give identical
certificates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import BadParameter, TooLarge, UnknownVertex, VertexClash, require_int
from .numtheory import is_prime

MAX_CLIQUE_VERTICES = 64
MAX_CYCLE_VERTICES = 25
MAX_ISO_VERTICES = 8


class PrimeGraph:
    """Immutable simple graph whose vertices are primes.

    The graph is its ascending vertex tuple plus one adjacency bitmask per
    vertex, and holds nothing else: bit j of the mask at index i is set when
    vertices[i] and vertices[j] are adjacent.  The constructor checks each
    vertex (a prime int) and edge (a pair of int vertices) in one walk, and
    lookups by vertex agree: 3.0, True or [3] is absent.  Edges come out as
    (smaller, larger) pairs; equality and hashing are structural.
    """

    __slots__ = ("vertices", "_adj")

    vertices: tuple[int, ...]

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]] = ()) -> None:
        vertices = tuple(vertices)
        for v in vertices:  # before set(): a non-int, unhashable or not, is not prime
            if not is_prime(v):
                raise BadParameter(f"vertex {v!r} is not prime")
        verts = tuple(sorted(set(vertices)))
        index = {v: i for i, v in enumerate(verts)}
        adj = [0] * len(verts)
        for e in edges:
            if not (isinstance(e, list) or isinstance(e, tuple)) or len(e) != 2:  # faster than one check on (list, tuple)
                raise BadParameter(f"an edge is a 2-element tuple or list, got {e!r}")
            a, b = e
            if a == b:
                raise BadParameter(f"loop at vertex {a!r}")
            i = index.get(a) if type(a) is int else None
            j = index.get(b) if type(b) is int else None
            if i is None or j is None:
                raise UnknownVertex(f"edge {(a, b)} has an endpoint outside the vertex set")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        self.vertices = verts
        self._adj = tuple(adj)

    @classmethod
    def _trusted(cls, vertices: tuple[int, ...], adj: Iterable[int]) -> PrimeGraph:
        """A graph derived from validated graphs: ascending prime vertices and
        symmetric, loop-free masks, taken as they are."""
        g = object.__new__(cls)
        g.vertices = vertices
        g._adj = tuple(adj)
        return g

    @property
    def order(self) -> int:
        return len(self.vertices)

    @property
    def size(self) -> int:
        return sum(mask.bit_count() for mask in self._adj) // 2

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.sorted_edges())

    def neighbors(self, v: int) -> frozenset[int]:
        if v not in self:
            raise UnknownVertex(f"vertex {v!r} is not in the graph")
        return frozenset(self.vertices[j] for j in _bits(self._adj[self.vertices.index(v)]))

    def has_edge(self, a: int, b: int) -> bool:
        verts = self.vertices
        if type(a) is not int or type(b) is not int or a not in verts or b not in verts:
            return False
        return bool(self._adj[verts.index(a)] >> verts.index(b) & 1)

    def sorted_edges(self) -> list[tuple[int, int]]:
        verts = self.vertices
        return [(verts[i], verts[j]) for i, mask in enumerate(self._adj) for j in _bits(mask >> i << i)]

    def __contains__(self, v: int) -> bool:
        return type(v) is int and v in self.vertices

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrimeGraph):
            return NotImplemented
        return self.vertices == other.vertices and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.vertices, self._adj))

    def __repr__(self) -> str:
        return f"PrimeGraph(vertices={self.vertices}, edges={self.sorted_edges()})"


@dataclass(frozen=True)
class CycleWitness:
    """A simple cycle given by its vertices in traversal order."""

    vertices_in_order: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices_in_order", tuple(self.vertices_in_order))
        if len(self.vertices_in_order) < 3:
            raise BadParameter("a cycle has at least 3 vertices")
        if set(map(type, self.vertices_in_order)) != {int}:
            raise BadParameter(f"cycle vertices must be integers, got {self.vertices_in_order!r}")
        if len(set(self.vertices_in_order)) != len(self.vertices_in_order):
            raise BadParameter("cycle vertices must be distinct")

    @property
    def length(self) -> int:
        return len(self.vertices_in_order)

    def validates_in(self, g: PrimeGraph) -> bool:
        """True when every consecutive pair (cyclically) is an edge of g."""
        vs = self.vertices_in_order
        return all(g.has_edge(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))


class KnFreeResult(NamedTuple):
    is_free: bool
    witness: tuple[int, ...] | None


class BipartiteResult(NamedTuple):
    is_bipartite: bool
    parts: tuple[tuple[int, ...], tuple[int, ...]] | None
    odd_cycle: CycleWitness | None


class HamiltonResult(NamedTuple):
    is_hamiltonian: bool
    cycle: CycleWitness | None


def complement(g: PrimeGraph) -> PrimeGraph:
    """Same vertices; an edge exactly where g has none."""
    full = (1 << g.order) - 1
    return PrimeGraph._trusted(g.vertices, (full ^ mask ^ (1 << i) for i, mask in enumerate(g._adj)))


def induced_subgraph(g: PrimeGraph, subset: Iterable[int]) -> PrimeGraph:
    subset = tuple(subset)
    for v in subset:  # before set(): 3.0, True or [3] is absent, as membership says
        if type(v) is not int:
            raise UnknownVertex(f"vertex {v!r} is not in the graph")
    sub = set(subset)
    missing = sorted(sub - set(g.vertices))
    if missing:
        raise UnknownVertex(f"vertices {missing} are not in the graph")
    verts = tuple(sorted(sub))
    old = [g.vertices.index(v) for v in verts]
    bit = [0] * g.order  # a vertex outside the subset maps to no bit
    for k, i in enumerate(old):
        bit[i] = 1 << k
    return PrimeGraph._trusted(verts, _relabel_masks((g._adj[i] for i in old), bit))


def join(*graphs: PrimeGraph) -> PrimeGraph:
    """Disjoint union of the graphs plus every edge between two of them.

    The vertices are merged once, and each graph's masks are relabeled
    through its own table of new bits.  Empty graphs add nothing and are
    skipped; a single non-empty graph is returned as it is, since graphs
    are immutable."""
    graphs = tuple(g for g in graphs if g.order)
    if len(graphs) < 2:
        return graphs[0] if graphs else PrimeGraph._trusted((), ())
    verts = tuple(sorted(itertools.chain.from_iterable(g.vertices for g in graphs)))
    # sorting puts a vertex held by several graphs next to its copies
    overlap = sorted({a for a, b in zip(verts, verts[1:]) if a == b})
    if overlap:
        raise VertexClash(f"vertex sets overlap on {overlap}")
    index = {v: k for k, v in enumerate(verts)}
    full = (1 << len(verts)) - 1
    adj = [0] * len(verts)
    for g in graphs:
        bit = [1 << index[v] for v in g.vertices]
        cross = full ^ sum(bit)
        for v, mask in zip(g.vertices, _relabel_masks(g._adj, bit)):
            adj[index[v]] = mask | cross
    return PrimeGraph._trusted(verts, adj)


def _relabel_masks(masks: Iterable[int], bit: list[int]) -> list[int]:
    """Each mask with every set bit i replaced by the one-bit mask bit[i]."""
    out = []
    for mask in masks:
        new = 0
        while mask:
            low = mask & -mask
            new |= bit[low.bit_length() - 1]
            mask ^= low
        out.append(new)
    return out


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _max_clique_above(g: PrimeGraph, floor: int) -> tuple[int, ...]:
    """max_clique(g) when it has more than floor vertices, else ().

    One branch and bound, in lexicographic order.  At each node the
    candidates are greedy-colored one class at a time, as bitsets: a class
    takes, from the highest remaining vertex down, every vertex with no
    neighbor already in it.  These are the classes of first-fit coloring
    from the highest vertex down, and the classes whose top vertex is at or
    above v bound the clique that v and the candidates above it can add.
    Candidates branch in ascending order, and the node returns at the first
    v whose bound cannot beat the best size, since the bound only shrinks as
    v grows.  The search starts with floor as its best size and meets
    cliques in lexicographic order; a prefix of the least maximum clique K
    is cut only when an earlier clique already has K's size, and none has,
    so the first maximum clique recorded is K.
    """
    if g.order > MAX_CLIQUE_VERTICES:
        raise TooLarge(f"clique search is capped at {MAX_CLIQUE_VERTICES} vertices, got {g.order}")
    adj = g._adj
    best, best_mask = floor, 0

    def expand(size: int, chosen: int, cand: int) -> None:
        nonlocal best, best_mask
        if cand == 0:
            if size > best:
                best, best_mask = size, chosen
            return
        tops: list[int] = []  # the top vertex of each color class, descending
        rest = cand
        while rest:
            tops.append(rest.bit_length() - 1)
            avail = rest
            while avail:
                v = avail.bit_length() - 1
                avail &= ~adj[v] ^ (1 << v)  # drop v and its neighbors
                rest ^= 1 << v
        bound = len(tops)  # classes whose top is at or above the next candidate
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            while tops[bound - 1] < v:
                bound -= 1
            if size + bound <= best:
                return
            cand ^= low
            expand(size + 1, chosen | low, cand & adj[v])

    expand(0, 0, (1 << g.order) - 1)
    # expand refers to itself through its closure; dropping the name frees it
    # at once, not in a later pass of the cycle collector
    del expand
    return tuple(g.vertices[i] for i in _bits(best_mask))


def max_clique(g: PrimeGraph) -> tuple[int, ...]:
    """Lexicographically least maximum clique, as an ascending tuple."""
    return _max_clique_above(g, 0)


def is_kn_free(g: PrimeGraph, n: int) -> KnFreeResult:
    """Whether g contains no clique on n vertices; witness clique when it does.

    The witness is max_clique(g)[:n].  The clique search starts from n - 1 as
    its best size, so when g is K_n-free it ends without finding or computing
    a maximum clique.
    """
    if require_int("n", n) < 2:
        raise BadParameter(f"clique-freeness needs n >= 2, got {n}")
    clique = _max_clique_above(g, n - 1)
    if not clique:
        return KnFreeResult(True, None)
    return KnFreeResult(False, clique[:n])


def is_bipartite(g: PrimeGraph) -> BipartiteResult:
    """2-colorability with certificate: the parts, or an odd cycle.

    One breadth-first walk per component checks each vertex for a
    same-colored neighbor as it visits it.  The check is final: such a
    neighbor lies in the vertex's own layer, all discovered before the
    layer's first visit.
    """
    verts, adj = g.vertices, g._adj
    parent = [0] * len(verts)
    seen = odd = 0  # odd: vertices colored 1, at odd depth in their tree
    for seed in range(len(verts)):
        if seen >> seed & 1:
            continue
        seen |= 1 << seed
        queue = [seed]
        for v in queue:  # the loop also visits what it appends
            same = adj[v] & seen & (odd if odd >> v & 1 else ~odd)
            if same:
                # odd cycle: v up to the lowest common ancestor of v and w,
                # then down to w; equal colors mean equal depths, so walking
                # both ends up in step meets at that ancestor
                up, down = [v], [(same & -same).bit_length() - 1]
                while up[-1] != down[-1]:
                    up.append(parent[up[-1]])
                    down.append(parent[down[-1]])
                return BipartiteResult(False, None, CycleWitness(tuple(verts[i] for i in up + down[-2::-1])))
            new = adj[v] & ~seen
            seen |= new
            if not odd >> v & 1:
                odd |= new
            for w in _bits(new):
                parent[w] = v
                queue.append(w)
    part0 = tuple(verts[i] for i in _bits(seen & ~odd))
    part1 = tuple(verts[i] for i in _bits(odd))
    return BipartiteResult(True, (part0, part1), None)


def longest_odd_cycle_at_least(g: PrimeGraph, min_length: int) -> CycleWitness | None:
    """First odd simple cycle of length >= min_length in canonical search
    order (ascending start vertex, ascending neighbor), or None.

    min_length must be an odd integer >= 3; even values are a caller error.
    """
    if type(min_length) is not int or min_length < 3 or min_length % 2 == 0:
        raise BadParameter(f"cycle length target must be an odd integer >= 3, got {min_length!r}")
    if min_length > g.order:
        return None
    return _first_cycle(g, min_length, is_bipartite(g))


def is_hamiltonian(g: PrimeGraph, *, _bipartite: BipartiteResult | None = None) -> HamiltonResult:
    """Exact Hamiltonian-cycle search: the first cycle through all vertices
    in canonical search order, so it starts at the least vertex, under the
    cycle search's cap.

    _bipartite is library-internal: a caller that also needs is_bipartite(g)
    passes its result, so that the walk runs once."""
    cycle = _first_cycle(g, g.order, is_bipartite(g) if _bipartite is None else _bipartite)
    return HamiltonResult(cycle is not None, cycle)


def _first_cycle(g: PrimeGraph, min_length: int, bipartite: BipartiteResult) -> CycleWitness | None:
    """First simple cycle of length >= min_length and of the same parity as
    min_length, in canonical search order (ascending least vertex, then
    ascending neighbor), or None.

    The depth-first search cuts a subtree only when it holds no qualifying
    cycle, or when a subtree searched before it holds one, so the returned
    witness is the one the unpruned search would return.  Four rules cut:
    - reachability: no free vertex reachable from the path's end through
      free vertices is a neighbor of the start;
    - degree: too few of those reachable vertices have two neighbors among
      themselves, the path's end and the start to reach min_length;
    - twins: vertices whose neighborhoods agree apart from each other are
      swapped by an automorphism, so a neighbor is skipped while a lower twin
      of it is free, and a start with a lower twin is skipped;
    - forced edges: when the path plus every free vertex is exactly
      min_length long (slack 0, which holds along the whole search from the
      start s with order - s = min_length), every free vertex lies on the
      cycle, and a free vertex with only two usable neighbors fixes both of
      its cycle edges (_forced_candidates).  The node is cut when these
      edges cannot all be part of one cycle, and a tight neighbor of the
      path's end is its only candidate, since every other branch lacks a
      forced edge.  A twin the search skips is tight whenever its lower twin
      is, so the skip never drops the forced candidate.
    At min_length = order only start 0 is tried, and the first two rules cut
    exactly when some unvisited vertex is cut off from the path's end or has
    fewer than two usable neighbors.  A bipartite graph, as bipartite
    (is_bipartite(g)) tells, is answered before the search: its cycles are
    even, each at most twice its smaller part.  Any other graph on more than
    MAX_CYCLE_VERTICES vertices raises TooLarge.
    """
    if bipartite.is_bipartite and (min_length % 2 or min_length > 2 * min(map(len, bipartite.parts))):
        return None
    if g.order > MAX_CYCLE_VERTICES:
        raise TooLarge(f"cycle search is capped at {MAX_CYCLE_VERTICES} vertices, got {g.order}")
    verts, adj = g.vertices, g._adj
    n = len(verts)
    twins_below = _twins_below(adj)
    path: list[int] = []

    def dfs(start: int, v: int, visited: int, allowed: int, length: int) -> bool:
        if length >= min_length and (length - min_length) % 2 == 0 and (adj[v] >> start) & 1:
            return True
        free = allowed & ~visited
        reach = _reach(adj, v, free)
        if not reach & adj[start]:
            return False
        cand = adj[v] & free
        if length + free.bit_count() > min_length:
            around = reach | (1 << v) | (1 << start)
            usable = sum((adj[u] & around).bit_count() >= 2 for u in _bits(reach))
            if length + usable < min_length:
                return False
        elif reach != free:  # slack 0: every free vertex lies on the cycle
            return False
        else:
            cand = _forced_candidates(adj, start, v, free, cand)
        while cand:
            w = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if twins_below[w] & free:
                continue
            path.append(w)
            if dfs(start, w, visited | (1 << w), allowed, length + 1):
                return True
            path.pop()
        return False

    full = (1 << n) - 1
    cycle = None
    for s in range(n):
        if n - s < min_length:
            break
        if twins_below[s]:
            continue
        allowed = full & ~((1 << s) - 1)  # cycles whose least vertex is s
        path.clear()
        path.append(s)
        if dfs(s, s, 1 << s, allowed, 1):
            cycle = CycleWitness(tuple(verts[i] for i in path))
            break
    del dfs  # see _max_clique_above
    return cycle


def _forced_candidates(adj: tuple[int, ...], start: int, v: int, free: int, cand: int) -> int:
    """The candidates worth trying at a search node where every free vertex
    must lie on the cycle, given the neighbors cand of the path's end v
    among them; 0 when no such cycle extends the path.

    A free vertex's usable neighbors are its neighbors among the free
    vertices, v and start; one with exactly two is tight, and both its cycle
    edges are forced.  The cycle still needs two edges at each free vertex, one at v
    and one at start, or two at v = start at the root.  The node has no
    cycle when a free vertex has fewer than two usable neighbors, when a
    vertex is forced more edges than it needs, or when a tight vertex joins
    v to start while other free vertices wait.  Otherwise a tight neighbor
    of v is the next vertex."""
    around = free | (1 << v) | (1 << start)
    ends = 0 if v == start else (1 << v) | (1 << start)
    tight = one = two = three = 0  # one, two, three: vertices with at least that many tight neighbors
    rest = free
    while rest:
        low = rest & -rest
        nbrs = adj[low.bit_length() - 1] & around
        rest ^= low
        count = nbrs.bit_count()
        if count > 2:
            continue
        if count < 2 or nbrs == ends and free != low:
            return 0
        tight |= low
        three |= two & nbrs
        two |= one & nbrs
        one |= nbrs
    if three or two & ends:
        return 0
    at_v = cand & tight
    return at_v if at_v and ends else cand


def _reach(adj: tuple[int, ...], seed: int, within: int) -> int:
    """Mask of the vertices of `within` reachable from vertex seed, which
    lies outside it, through `within`."""
    seen = 0
    frontier = adj[seed] & within
    while frontier:
        seen |= frontier
        nxt = 0
        while frontier:  # _bits inlined: this runs at every search node
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & within & ~seen
    return seen


def _twins_below(adj: tuple[int, ...]) -> list[int]:
    """Per vertex, the mask of its lower-indexed twins: vertices whose
    neighborhoods equal its own apart from each other, that is, equal open
    neighborhoods (non-adjacent twins) or equal closed ones (adjacent twins).
    Each is an equivalence, and no open mask equals a closed one (that vertex
    would be its own neighbor), so one table groups by both."""
    groups: dict[int, int] = {}
    below = []
    for i, mask in enumerate(adj):
        keys = (mask, mask | (1 << i))
        below.append(groups.get(keys[0], 0) | groups.get(keys[1], 0))
        for key in keys:
            groups[key] = groups.get(key, 0) | (1 << i)
    return below


def connected_components(g: PrimeGraph) -> list[tuple[int, ...]]:
    """Maximal connected vertex sets, ordered by least element."""
    adj, rest = g._adj, (1 << g.order) - 1
    components = []
    while rest:
        seed = (rest & -rest).bit_length() - 1
        component = _reach(adj, seed, rest & ~(1 << seed)) | 1 << seed
        components.append(tuple(g.vertices[i] for i in _bits(component)))
        rest &= ~component
    return components


def isomorphic_small(g1: PrimeGraph, g2: PrimeGraph) -> bool:
    """Isomorphism by brute force, which is capped at 8 vertices."""
    if g1.order != g2.order or g1.size != g2.size:
        return False
    if sorted(a.bit_count() for a in g1._adj) != sorted(a.bit_count() for a in g2._adj):
        return False
    if g1.order > MAX_ISO_VERTICES:
        raise TooLarge(f"isomorphism check is capped at {MAX_ISO_VERTICES} vertices")
    edges1 = g1.sorted_edges()
    for perm in itertools.permutations(g2.vertices):
        mapping = dict(zip(g1.vertices, perm))
        if all(g2.has_edge(mapping[a], mapping[b]) for a, b in edges1):
            return True
    return False
