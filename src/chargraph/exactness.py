"""The n-exactness decision procedure, extremality classification, and
instance-level verification of the order bound and the extremal catalog.

A graph is n-exact (n >= 4) when it is K_n-free and its complement has an odd
cycle of length at least 2n-5.  For character-graph models the order of an
n-exact graph is at most 2n-1; the minimum possible order is 2n-5, forced by
the witness cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .errors import AsymmetricPiSizes, BadParameter, ShapeMismatch, TooLarge, require_int
from .graphs import (
    MAX_CYCLE_VERTICES,
    CycleWitness,
    PrimeGraph,
    _first_cycle,
    complement,
    is_bipartite,
    is_kn_free,
    longest_odd_cycle_at_least,
    require_graph,
)
from .models import (
    PAIRS_OF_LABEL,
    PSL2,
    CharModel,
    Product,
    describe_model,
    model_graph,
)
from .numtheory import PrimePower

MIN_EXTREMAL = "MinExtremal"
MAX_EXTREMAL = "MaxExtremal"
INTERIOR = "Interior"
NOT_EXACT = "NotExact"

# the extremal catalog of PSL2(2^a) x R, k = |pi(2^a +- 1)|: case -> (k - n,
# disconnected pairs in R counted by PAIRS_OF_LABEL, order - 2n); "a" has the
# minimum order 2n-5 with abelian R, the "b" cases the maximum order 2n-1
CATALOG = {"a": (-3, 0, -5), "b.i": (-3, 2, -1), "b.ii": (-2, 1, -1), "b.iii": (-1, 0, -1)}
# the swept solvable parts, indexed by their number of disconnected pairs
SOLVABLE_SHAPES = ("abelian", "one_pair", "two_pairs")


@dataclass(frozen=True)
class ExactnessReport:
    """Verdict of the n-exact test with its certificates."""

    n: int
    order: int
    is_kn_free: bool
    clique_witness: tuple[int, ...] | None
    odd_cycle: CycleWitness | None
    verdict: bool
    extremal_class: str


@dataclass(frozen=True)
class VerificationRecord:
    check: str
    description: str
    passed: bool
    details: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ExtremalCase:
    """Which extremal catalog case a product model instantiates."""

    case: str
    alpha: int
    k: int
    expected_order: int | None
    report: ExactnessReport | None
    verified: bool | None


def check_n_domain(n: int) -> None:
    """Refuse an n outside the domain of n-exactness."""
    if require_int("n", n) < 4:
        raise BadParameter(f"n-exactness is defined for n >= 4, got {n}")


def check_n_exact(g: PrimeGraph, n: int, *, character_model: bool = False) -> ExactnessReport:
    """Decide n-exactness of g with certificates attached.

    MaxExtremal is only claimed for graphs tagged as character-graph models:
    the 2n-1 ceiling is a fact about character graphs, not about arbitrary
    graphs.
    """
    require_graph(g)
    check_n_domain(n)
    if g.order > MAX_CYCLE_VERTICES:
        raise TooLarge(f"n-exact check is capped at {MAX_CYCLE_VERTICES} vertices, got {g.order}")
    free, clique_witness = is_kn_free(g, n)
    odd_cycle = None
    if free:
        odd_cycle = longest_odd_cycle_at_least(complement(g), 2 * n - 5)
    verdict = free and odd_cycle is not None
    if not verdict:
        extremal_class = NOT_EXACT
    elif g.order == 2 * n - 5:
        extremal_class = MIN_EXTREMAL
    elif character_model and g.order == 2 * n - 1:
        extremal_class = MAX_EXTREMAL
    else:
        extremal_class = INTERIOR
    return ExactnessReport(
        n=n,
        order=g.order,
        is_kn_free=free,
        clique_witness=clique_witness,
        odd_cycle=odd_cycle,
        verdict=verdict,
        extremal_class=extremal_class,
    )


def alternating_cycle_witness(u: int, minus_part, plus_part) -> CycleWitness:
    """Odd cycle (u, m1, p1, ..., mk, pk) alternating between the two parts,
    k = min of the part sizes.

    When the parts are the odd prime divisors of q-1 and q+1 for q = u^a,
    consecutive entries always lie in different components of the PSL2(q)
    graph, so the cycle is valid in that graph's complement.
    """
    minus_part, plus_part = tuple(minus_part), tuple(plus_part)
    for v in (u, *minus_part, *plus_part):  # before set(), which needs hashable entries
        require_int("cycle vertex", v)
    minus = tuple(sorted(set(minus_part)))
    plus = tuple(sorted(set(plus_part)))
    if not minus or not plus:
        raise BadParameter("both parts must be nonempty")
    if set(minus) & set(plus):
        raise BadParameter("the two parts must be disjoint")
    if u in minus or u in plus:
        raise BadParameter(f"the characteristic prime {u} cannot appear in either part")
    k = min(len(minus), len(plus))
    sequence = [u]
    for i in range(k):
        sequence.append(minus[i])
        sequence.append(plus[i])
    return CycleWitness(tuple(sequence))


def verify_order_bound(model: CharModel, n: int) -> VerificationRecord:
    """PASS when the model's graph is not n-exact, or its order is <= 2n-1."""
    report = check_n_exact(model_graph(model), n, character_model=True)
    return _order_bound_record(describe_model(model), report)


def _order_bound_record(name: str, report: ExactnessReport, **extra: Any) -> VerificationRecord:
    """The order-bound record of a model's report, extra entries appended to its details."""
    n = report.n
    bound = 2 * n - 1
    return VerificationRecord(
        check="order_bound",
        description=f"{name}: n = {n}, order {report.order} vs bound {bound}",
        passed=(not report.verdict) or report.order <= bound,
        details={
            "model": name,
            "n": n,
            "order": report.order,
            "bound": bound,
            "n_exact": report.verdict,
            "extremal_class": report.extremal_class,
            "clique_witness": list(report.clique_witness) if report.clique_witness else None,
            "odd_cycle": list(report.odd_cycle.vertices_in_order) if report.odd_cycle else None,
            **extra,
        },
    )


def _catalog_case(psl2: PSL2, pairs: int, n: int) -> tuple[str, int | None]:
    """The CATALOG case of PSL2(2^a) x R, R with this many disconnected pairs,
    and its expected order; "asymmetric", "not_covered" or "shape_mismatch"
    with None when no row fits, checked in that order."""
    k = len(psl2.pi_minus)
    if k != len(psl2.pi_plus):
        return "asymmetric", None
    rows = {p: (case, offset) for case, (dk, p, offset) in CATALOG.items() if dk == k - n}
    if not rows:
        return "not_covered", None
    if pairs not in rows:
        return "shape_mismatch", None
    case, offset = rows[pairs]
    return case, 2 * n + offset


def classify_extremal_case(model: CharModel, n: int) -> ExtremalCase:
    """Match a product model against the extremal catalog.

    The model must be a product of exactly one even-characteristic PSL2
    factor with abstract solvable factors.  With k the common size of its
    pi_minus = pi(2^a - 1) and pi_plus (AsymmetricPiSizes when they differ) and p
    the sum of PAIRS_OF_LABEL over the solvable factors (a C4Product counts
    two), the case is the CATALOG row with this k - n and p (_catalog_case).
    A k - n in no row is not covered; a k - n in some row whose p does not
    fit is a ShapeMismatch.  Covered cases are verified on the spot: the
    graph must be n-exact with the row's order.
    """
    check_n_domain(n)
    if not isinstance(model, Product):
        raise ShapeMismatch("expected a product model")
    psl2_factors = [f for f in model.factors if isinstance(f, PSL2)]
    rest = [f for f in model.factors if not isinstance(f, PSL2)]
    if len(psl2_factors) != 1:
        raise ShapeMismatch(f"expected exactly one PSL2 factor, got {len(psl2_factors)}")
    # a flat product holds no Product factor, and a Suzuki or second PSL2 graph
    # holds the prime 2, which join refuses to share: the rest is abstract solvable
    psl2 = psl2_factors[0]
    if psl2.q.base != 2:
        raise ShapeMismatch(f"the extremal catalog needs an even-characteristic PSL2 factor, got q = {psl2.q.value}")
    alpha, k = psl2.q.exponent, len(psl2.pi_minus)
    pairs = sum(PAIRS_OF_LABEL[f.label] for f in rest)
    case, expected_order = _catalog_case(psl2, pairs, n)
    if case == "asymmetric":
        raise AsymmetricPiSizes(f"|pi(2^{alpha} - 1)| = {k} differs from |pi(2^{alpha} + 1)| = {len(psl2.pi_plus)}")
    if case == "shape_mismatch":
        raise ShapeMismatch(f"{pairs} disconnected pair(s) do not fit any case with |pi(2^alpha +- 1)| = n {k - n:+d}")
    if expected_order is None:
        return ExtremalCase(case, alpha, k, None, None, None)
    report = check_n_exact(model_graph(model), n, character_model=True)
    return ExtremalCase(case, alpha, k, expected_order, report, report.verdict and report.order == expected_order)


def _sweep_records(model: Product, psl2: PSL2, pairs: int, n: int) -> list[VerificationRecord]:
    """The records of one swept model, built from psl2 and R with this many
    pairs (its SOLVABLE_SHAPES index): its extremal-case record when the
    catalog covers it, then its order-bound record, whose details end with
    alpha, the shape and the case.  Each model is decided once."""
    name = describe_model(model)
    alpha = psl2.q.exponent
    case, expected_order = _catalog_case(psl2, pairs, n)
    report = check_n_exact(model.graph, n, character_model=True)
    records = []
    if expected_order is not None:
        records.append(
            VerificationRecord(
                check="extremal_case",
                description=f"{name}: case {case} at alpha = {alpha}, expected order {expected_order}",
                passed=report.verdict and report.order == expected_order,
                details={
                    "model": name,
                    "n": n,
                    "alpha": alpha,
                    "case": case,
                    "k": len(psl2.pi_minus),
                    "expected_order": expected_order,
                    "order": report.order,
                    "n_exact": report.verdict,
                },
            )
        )
    records.append(_order_bound_record(name, report, alpha=alpha, shape=SOLVABLE_SHAPES[pairs], case=case))
    return records


def verify_hamilton_characterization(f: int) -> VerificationRecord:
    """Check, for q = 2^f, that the complement of the PSL2(q) graph is
    non-bipartite and Hamiltonian exactly when the sizes of pi(q-1) and
    pi(q+1) differ by at most 1; the graph and both sets come from one
    PSL2(q) model.  Only factoring caps f: PSL2 refuses q from 2^96 on
    (OutOfRange); below it no complement has more than 22 vertices, within
    the cycle search's cap."""
    if require_int("f", f) < 2:
        raise BadParameter(f"f must be at least 2, got {f}")
    psl2 = PSL2(PrimePower(2, f))
    comp = complement(psl2.graph)
    bipartite = is_bipartite(comp)
    cycle = _first_cycle(comp, comp.order, bipartite)  # is_hamiltonian(comp), on the same walk
    graph_side = (not bipartite.is_bipartite) and cycle is not None
    k_minus, k_plus = len(psl2.pi_minus), len(psl2.pi_plus)
    balanced = abs(k_plus - k_minus) <= 1
    return VerificationRecord(
        check="hamilton_characterization",
        description=f"complement of the PSL2(2^{f}) graph: non-bipartite Hamiltonian <=> balanced divisor counts",
        passed=graph_side == balanced,
        details={
            "f": f,
            "pi_minus_size": k_minus,
            "pi_plus_size": k_plus,
            "balanced": balanced,
            "non_bipartite": not bipartite.is_bipartite,
            "hamiltonian": cycle is not None,
            "hamilton_cycle": list(cycle.vertices_in_order) if cycle else None,
        },
    )
