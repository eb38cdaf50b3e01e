"""Exponent sweeps realizing the extremal parameter constraints, and batch
verification of the constructed model space.

Everything here is deterministic: exponents ascend, fresh primes are the
smallest ones available, and records come back in construction order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AsymmetricPiSizes, BadParameter, OutOfRange, ShapeMismatch
from .exactness import (
    CASE_MAX_ABELIAN,
    CASE_MAX_ONE_PAIR,
    CASE_MAX_TWO_PAIRS,
    CASE_MIN_ABELIAN,
    CASE_NOT_COVERED,
    VerificationRecord,
    _catalog_case,
    _order_bound_record,
    check_n_exact,
)
from .models import PSL2, AbstractSolvable, Product, abelian, describe_model, disconnected_pair, model_graph
from .numtheory import PrimePower, is_prime, prime_divisors

# 2^90 + 1 stays inside the factorization range, with headroom
ALPHA_CAP = 90

SOLVABLE_SHAPES = ("abelian", "one_pair", "two_pairs")


@dataclass(frozen=True)
class AlphaRealization:
    alpha: int
    pi_minus: tuple[int, ...]
    pi_plus: tuple[int, ...]


@dataclass(frozen=True)
class SearchResult:
    """Exponents alpha with |pi(2^alpha - 1)| = |pi(2^alpha + 1)| = k_target.

    near_misses lists exponents where exactly one side hits the target.
    """

    n: int
    k_target: int
    case: str
    realizations: tuple[AlphaRealization, ...]
    exhausted_range: tuple[int, int]
    near_misses: tuple[int, ...]


def _check_alpha_range(alpha_range: tuple[int, int]) -> tuple[int, int]:
    lo, hi = alpha_range
    if lo < 2 or hi > ALPHA_CAP:
        raise OutOfRange(f"alpha range must lie within [2, {ALPHA_CAP}], got [{lo}, {hi}]")
    return lo, hi


def find_alphas(n: int, k_target: int, alpha_range: tuple[int, int]) -> SearchResult:
    """All alpha in the range whose two prime-divisor counts both equal k_target."""
    if n < 4:
        raise BadParameter(f"n must be at least 4, got {n}")
    if k_target not in (n - 3, n - 2, n - 1):
        raise BadParameter(f"k target must be one of n-3, n-2, n-1, got {k_target}")
    lo, hi = _check_alpha_range(alpha_range)
    case = {n - 3: f"{CASE_MIN_ABELIAN}/{CASE_MAX_TWO_PAIRS}", n - 2: CASE_MAX_ONE_PAIR, n - 1: CASE_MAX_ABELIAN}[k_target]
    realizations = []
    near_misses = []
    for alpha in range(lo, hi + 1):
        pi_minus = prime_divisors(2**alpha - 1)
        pi_plus = prime_divisors(2**alpha + 1)
        hit_minus = len(pi_minus) == k_target
        hit_plus = len(pi_plus) == k_target
        if hit_minus and hit_plus:
            realizations.append(AlphaRealization(alpha, pi_minus, pi_plus))
        elif hit_minus or hit_plus:
            near_misses.append(alpha)
    return SearchResult(
        n=n,
        k_target=k_target,
        case=case,
        realizations=tuple(realizations),
        exhausted_range=(lo, hi),
        near_misses=tuple(near_misses),
    )


def fresh_primes(count: int, exclude) -> tuple[int, ...]:
    """The count smallest odd primes outside exclude."""
    out: list[int] = []
    banned = set(exclude) | {2}
    candidate = 3
    while len(out) < count:
        if candidate not in banned and is_prime(candidate):
            out.append(candidate)
        candidate += 2
    return tuple(out)


def _solvable_factors(shape: str, exclude) -> list[AbstractSolvable]:
    if shape == "abelian":
        return [abelian()]
    if shape == "one_pair":
        p1, p2 = fresh_primes(2, exclude)
        return [disconnected_pair("Type1", p1, p2)]
    if shape == "two_pairs":
        p1, p2, p3, p4 = fresh_primes(4, exclude)
        return [disconnected_pair("Type1", p1, p2), disconnected_pair("Type4", p3, p4)]
    raise BadParameter(f"unknown solvable shape {shape!r}; expected one of {SOLVABLE_SHAPES}")


def sweep_models(n: int, alpha_range: tuple[int, int], solvable_shapes=SOLVABLE_SHAPES) -> list[VerificationRecord]:
    """Build PSL2(2^alpha) x (solvable shape) for every alpha in the range and
    every shape, verify the order bound on each, and classify each against the
    extremal catalog.  Covered catalog cases are certificate-checked; a failed
    certificate surfaces as its own FAIL record."""
    if n < 4:
        raise BadParameter(f"n must be at least 4, got {n}")
    lo, hi = _check_alpha_range(alpha_range)
    records: list[VerificationRecord] = []
    for alpha in range(lo, hi + 1):
        exclude = set(prime_divisors(2 ** (2 * alpha) - 1)) | {2}
        for shape in solvable_shapes:
            factors = _solvable_factors(shape, exclude)
            model = Product((PSL2(PrimePower(2, alpha)), *factors))
            name = describe_model(model)
            report = check_n_exact(model_graph(model), n, character_model=True)
            try:
                case, _, k, expected_order = _catalog_case(model, n)
            except AsymmetricPiSizes:
                case = "asymmetric"
            except ShapeMismatch:
                case = "shape_mismatch"
            else:
                if case != CASE_NOT_COVERED:
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
                                "k": k,
                                "expected_order": expected_order,
                                "order": report.order,
                                "n_exact": report.verdict,
                            },
                        )
                    )
            records.append(_order_bound_record(name, report, alpha=alpha, shape=shape, case=case))
    return records
