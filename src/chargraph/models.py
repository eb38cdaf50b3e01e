"""Character-graph constructors for the modeled group families.

The graph of a degree set joins two primes exactly when their product divides
some degree, so the prime support of each degree is a clique and every graph
built here is a union of cliques.  Every model carries its graph, built and
validated once, when the model is constructed.  PSL2(q) and the Suzuki family
2B2(q^2) build theirs as the union of the supports of a few of their degrees,
cross-checked by a degree-set oracle; a model whose graph cannot be built is
refused with OutOfRange.  An abstract solvable model is its label and its
graph, whose vertices are its degree primes; the label fixes the graph:
empty for Abelian, two non-adjacent primes for Type1/Type4, the 4-cycle for
C4Product.  PAIRS_OF_LABEL counts the disconnected groups each label is a
product of, the count the extremal catalog sorts by.  A direct product is
flat, its factors none of them a product, and holds one join of the graphs
of the factors it was given, so a product factor's graph is reused.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Union

from .errors import BadParameter, ModelError, OutOfRange, require_int
from .graphs import PrimeGraph, join, require_graph
from .numtheory import FACTOR_LIMIT, PrimePower, as_prime_power, prime_divisors

# solvable label -> number of disconnected groups (Type1/Type4 pairs) it is a product of
PAIRS_OF_LABEL = {"Type1": 1, "Type4": 1, "C4Product": 2, "Abelian": 0}
SOLVABLE_LABELS = tuple(PAIRS_OF_LABEL)
# the largest m whose q^4 + 1 = 2^(4m+2) + 1 lies below FACTOR_LIMIT, a power of 2
_SUZUKI_M_MAX = (FACTOR_LIMIT.bit_length() - 4) // 4


@dataclass(frozen=True)
class DegreeSet:
    """A set of character degrees; always contains 1, all entries positive ints,
    each checked before the set merges them (a set the caller built has merged True into 1)."""

    degrees: frozenset[int]

    def __post_init__(self) -> None:
        degrees = tuple(self.degrees)  # checked before frozenset(), which would merge True into 1
        if not degrees or not all(type(d) is int and d >= 1 for d in degrees):
            raise BadParameter("character degrees are positive integers")
        object.__setattr__(self, "degrees", frozenset(degrees))
        if 1 not in degrees:
            raise BadParameter("every degree set contains 1")

    @classmethod
    def of(cls, *degrees: int) -> DegreeSet:
        return cls(degrees)

    def sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.degrees))


@dataclass(frozen=True)
class PSL2:
    """The family PSL2(q), q a prime power >= 4, with pi_minus = pi(q - 1)
    and pi_plus = pi(q + 1), ascending, and the graph they make (psl2_graph);
    none of the three takes part in ==, hash or repr.  PSL2(5) is built as the
    isomorphic PSL2(4): it carries (3,) and (5,), not pi(4) and pi(6)."""

    q: PrimePower
    pi_minus: tuple[int, ...] = field(init=False, repr=False, compare=False)
    pi_plus: tuple[int, ...] = field(init=False, repr=False, compare=False)
    graph: PrimeGraph = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # the graph factors q +- 1; checked before _psl2_prime_power, so PSL2 names this cap for an int q too
        value = self.q.value if isinstance(self.q, PrimePower) else self.q
        if require_int("q", value) + 1 >= FACTOR_LIMIT:
            raise OutOfRange(f"PSL2 needs q + 1 < 2**96 to factor q +- 1, got q = {self.q}")
        q = _psl2_prime_power(self.q)
        object.__setattr__(self, "q", q)
        base, exponent = (2, 2) if q.value == 5 else (q.base, q.exponent)
        for name, fact in zip(("pi_minus", "pi_plus", "graph"), _psl2_facts(base, exponent)):
            object.__setattr__(self, name, fact)


def _psl2_prime_power(q: PrimePower | int) -> PrimePower:
    """q as a prime power, refused unless q is an int or a PrimePower, a prime power and >= 4."""
    value = q.value if isinstance(q, PrimePower) else q
    if require_int("q", value) < 4:  # before factoring, which would refuse q < 2 as out of range
        raise BadParameter(f"PSL2 needs q >= 4, got {value}")
    if isinstance(q, PrimePower):
        return q
    if value >= FACTOR_LIMIT:  # as_prime_power's own refusal names neither PSL2 nor this cap
        raise OutOfRange(f"PSL2 reads an int q as a prime power only below 2**96, got q = {value}")
    prime_power = as_prime_power(value)
    if prime_power is None:
        raise BadParameter(f"{value} is not a prime power")
    return prime_power


@dataclass(frozen=True)
class Suzuki:
    """The Suzuki family with q^2 = 2^(2m+1), 1 <= m <= 23."""

    m: int
    graph: PrimeGraph = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if require_int("m", self.m) < 1:
            raise BadParameter(f"Suzuki needs m >= 1, got {self.m}")
        if self.m > _SUZUKI_M_MAX:
            raise OutOfRange(f"Suzuki needs m <= {_SUZUKI_M_MAX}, got {self.m}")
        q2 = 2 ** (2 * self.m + 1)
        pi_small = prime_divisors(q2 - 1)
        graph = _clique_union((2, *pi_small), pi_small + prime_divisors(q2 * q2 + 1))
        object.__setattr__(self, "graph", graph)


@dataclass(frozen=True)
class AbstractSolvable:
    """A solvable group modeled only through its character graph, whose
    vertices are its degree primes.

    The label fixes the graph: Abelian has no degree primes, Type1/Type4
    two nonadjacent ones (the internals of these disconnected groups stay
    opaque), and C4Product the 4-cycle, the product of two disconnected
    groups.  Each of these has a bipartite complement, and the 4-cycle is the
    only one on four or more vertices, so the solvable constraints hold.
    """

    label: str
    graph: PrimeGraph

    def __post_init__(self) -> None:
        if self.label not in SOLVABLE_LABELS:
            raise ModelError(f"unknown solvable label {self.label!r}; expected one of {SOLVABLE_LABELS}")
        g = require_graph(self.graph)
        if self.label == "Abelian" and g.order:
            raise ModelError("an abelian model has no degree primes")
        if PAIRS_OF_LABEL[self.label] == 1 and (g.order != 2 or g.size != 0):
            raise ModelError(f"{self.label} needs exactly two nonadjacent degree primes")
        # the only 2-regular graph on four vertices is the 4-cycle
        is_c4 = g.order == 4 and all(len(g.neighbors(v)) == 2 for v in g.vertices)
        if self.label == "C4Product" and not is_c4:
            raise ModelError("C4Product needs a 4-cycle graph")


@dataclass(frozen=True)
class Product:
    """Direct product of models with pairwise disjoint prime supports; join
    refuses overlapping supports (VertexClash) as it builds their graph.

    A product is flat: the direct product is associative, so the factors of
    a Product factor are spliced into the factor list, and a nested product
    equals, hashes and describes as its flat form.  Join is associative too,
    so the graph is the join of the given factors' graphs."""

    factors: tuple[CharModel, ...]
    graph: PrimeGraph = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.factors, (tuple, list)):
            raise BadParameter(f"a product's factors are a tuple or list of models, got {self.factors!r}")
        given = tuple(self.factors)
        if not given:
            raise BadParameter("a product needs at least one factor")
        object.__setattr__(self, "graph", join(*map(model_graph, given)))
        # a Product factor is already flat, so one level of splicing suffices
        factors = tuple(leaf for f in given for leaf in (f.factors if isinstance(f, Product) else (f,)))
        object.__setattr__(self, "factors", factors)


CharModel = Union[PSL2, Suzuki, AbstractSolvable, Product]


def abelian() -> AbstractSolvable:
    return AbstractSolvable("Abelian", PrimeGraph(()))


def disconnected_pair(label: str, p: int, q: int) -> AbstractSolvable:
    """Type1/Type4 model: two degree primes, no edge."""
    return AbstractSolvable(label, PrimeGraph((p, q)))


def c4_product(p1: int, p2: int, q1: int, q2: int) -> AbstractSolvable:
    """Solvable product whose graph is the 4-cycle joining pairs {p1,p2} and {q1,q2}."""
    return AbstractSolvable("C4Product", join(PrimeGraph((p1, p2)), PrimeGraph((q1, q2))))


def graph_from_degrees(degrees: DegreeSet) -> PrimeGraph:
    """Graph on the primes dividing some degree; p and q are adjacent exactly
    when p*q divides some degree."""
    if not isinstance(degrees, DegreeSet):
        raise BadParameter(f"degrees must be a DegreeSet, got {degrees!r}")
    return _clique_union(*map(prime_divisors, degrees.sorted()))


def _clique_union(*cliques: tuple[int, ...]) -> PrimeGraph:
    """The graph on the primes of the cliques, two primes adjacent when some
    clique holds both.

    Every clique holds primes already proven by is_prime: prime_divisors
    output, 2, or the base of a PrimePower.  So the masks are built
    directly, each vertex's the OR of the cliques that hold it, without it."""
    verts = tuple(sorted(set(itertools.chain.from_iterable(cliques))))
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for clique in cliques:
        mask = 0
        for p in clique:
            mask |= 1 << index[p]
        for p in clique:
            adj[index[p]] |= mask
    return PrimeGraph._trusted(verts, [mask & ~(1 << i) for i, mask in enumerate(adj)])


def psl2_graph(q: PrimePower | int) -> PrimeGraph:
    """Character graph of PSL2(q) for a prime power q = p^f >= 4: the union
    of the cliques {p}, pi(q-1) and pi(q+1) that PSL2 carries, the supports of
    the degrees q, q-1 and q+1.  It has three components for even q; for odd
    q, the isolated p beside pi(q^2 - 1), where 2 lies in both cliques and so
    is adjacent to every other prime."""
    return PSL2(q).graph


@lru_cache(maxsize=None)
def _psl2_facts(base: int, exponent: int) -> tuple[tuple[int, ...], tuple[int, ...], PrimeGraph]:
    q = base**exponent
    pi_minus, pi_plus = prime_divisors(q - 1), prime_divisors(q + 1)
    return pi_minus, pi_plus, _clique_union((base,), pi_minus, pi_plus)


def suzuki_graph(m: int) -> PrimeGraph:
    """Character graph of the Suzuki group with q^2 = 2^(2m+1): the union of
    the cliques {2} + pi(q^2 - 1) and pi(q^2 - 1) + pi(q^4 + 1), so every odd
    vertex is adjacent to every other odd vertex, and 2 is adjacent exactly
    to the primes dividing q^2 - 1."""
    return Suzuki(m).graph


def psl2_degree_oracle(q: PrimePower | int) -> DegreeSet:
    """Degree set of PSL2(q), used as an independent cross-check of the
    structural constructor: {1, q-1, q, q+1} for even q, plus (q+e)/2 with
    e = +1 for q = 1 mod 4 and e = -1 otherwise, for odd q.  q = 5 routes
    through q = 4.  q is validated without building the graph it checks."""
    value = _psl2_prime_power(q).value
    if value == 5:
        value = 4
    if value % 2 == 0:
        return DegreeSet.of(1, value - 1, value, value + 1)
    eps = 1 if value % 4 == 1 else -1
    return DegreeSet.of(1, value - 1, value, value + 1, (value + eps) // 2)


def model_graph(model: CharModel) -> PrimeGraph:
    """The character graph a model describes."""
    if isinstance(model, CharModel):
        return model.graph
    raise BadParameter(f"not a model: {model!r}")


def describe_model(model: CharModel) -> str:
    match model:
        case PSL2(q=q):
            return f"PSL2({q.value})"
        case Suzuki(m=m):
            return f"Suzuki(m={m})"
        case AbstractSolvable(label=label, graph=graph):
            return label if not graph.order else f"{label}{{{', '.join(map(str, graph.vertices))}}}"
        case Product(factors=factors):
            return f"Product[{', '.join(describe_model(f) for f in factors)}]"
    return repr(model)
