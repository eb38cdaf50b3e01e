"""Exponent sweeps realizing the extremal parameter constraints, and batch
verification of the constructed model space.

Everything here is deterministic: exponents ascend, fresh primes are the
smallest ones available, and records come back in construction order.  The
swept models of each alpha do not depend on n, so they are built once per
process and shared by every n of a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import BadParameter, OutOfRange, require_int
from .exactness import CATALOG, SOLVABLE_SHAPES, VerificationRecord, _sweep_records, check_n_domain
from .models import PSL2, Product, abelian, disconnected_pair
from .numtheory import PrimePower, is_prime, prime_divisors

# 2^90 + 1 stays inside the factorization range, with headroom
ALPHA_CAP = 90


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
    alpha_range: tuple[int, int]
    near_misses: tuple[int, ...]


def _check_alpha_range(alpha_range: tuple[int, int]) -> tuple[int, int]:
    """(lo, hi), refused when the range is not a pair of ints, and when it is
    empty (no vacuous pass) or outside [2, ALPHA_CAP]."""
    if not isinstance(alpha_range, (tuple, list)) or len(alpha_range) != 2:
        raise BadParameter(f"an alpha range is a 2-element tuple or list, got {alpha_range!r}")
    lo, hi = require_int("alpha range start", alpha_range[0]), require_int("alpha range end", alpha_range[1])
    if lo < 2 or hi > ALPHA_CAP or hi < lo:
        raise OutOfRange(f"alpha range must lie within [2, {ALPHA_CAP}], got [{lo}, {hi}]")
    return lo, hi


def find_alphas(n: int, k_target: int, alpha_range: tuple[int, int]) -> SearchResult:
    """All alpha in the range whose two prime-divisor counts both equal
    k_target, read from the pi_minus and pi_plus of PSL2(2^alpha)."""
    lo, hi = _check_alpha_range(alpha_range)
    check_n_domain(n)
    require_int("k target", k_target)
    # the catalog cases at this k, in table order ("a/b.i" at k = n-3)
    case = "/".join(c for c, (dk, _, _) in CATALOG.items() if k_target - n == dk)
    if not case:
        raise BadParameter(f"k target must be one of n-3, n-2, n-1, got {k_target}")
    realizations = []
    near_misses = []
    for alpha in range(lo, hi + 1):
        psl2 = PSL2(PrimePower(2, alpha))
        hit_minus = len(psl2.pi_minus) == k_target
        hit_plus = len(psl2.pi_plus) == k_target
        if hit_minus and hit_plus:
            realizations.append(AlphaRealization(alpha, psl2.pi_minus, psl2.pi_plus))
        elif hit_minus or hit_plus:
            near_misses.append(alpha)
    return SearchResult(
        n=n,
        k_target=k_target,
        case=case,
        realizations=tuple(realizations),
        alpha_range=(lo, hi),
        near_misses=tuple(near_misses),
    )


def fresh_primes(count: int, exclude) -> tuple[int, ...]:
    """The count smallest odd primes outside exclude."""
    if require_int("count", count) < 0:
        raise BadParameter(f"count must be non-negative, got {count}")
    out: list[int] = []
    banned = set(exclude) | {2}
    candidate = 3
    while len(out) < count:
        if candidate not in banned and is_prime(candidate):
            out.append(candidate)
        candidate += 2
    return tuple(out)


@lru_cache(maxsize=None)
def _swept_models(alpha: int) -> tuple[PSL2, tuple[Product, Product, Product]]:
    """PSL2(2^alpha) and its products with R for each of SOLVABLE_SHAPES, on
    the smallest odd primes outside pi(2^(2 alpha) - 1); the two-pair model is
    the one-pair model times the Type4 pair, so its graph is one join more."""
    exclude = set(prime_divisors(2 ** (2 * alpha) - 1)) | {2}
    p1, p2, p3, p4 = fresh_primes(4, exclude)
    psl2 = PSL2(PrimePower(2, alpha))
    one_pair = Product((psl2, disconnected_pair("Type1", p1, p2)))
    return psl2, (Product((psl2, abelian())), one_pair, Product((one_pair, disconnected_pair("Type4", p3, p4))))


def sweep_models(n: int, alpha_range: tuple[int, int]) -> list[VerificationRecord]:
    """Check PSL2(2^alpha) x R for every alpha in the range, with R abelian,
    one Type1 pair and a Type1 plus a Type4 pair (0, 1 and 2 pairs, named by
    SOLVABLE_SHAPES).  Each alpha's models are built once per process
    (`_swept_models`) and shared by every n.  Each model's catalog case is
    read from the PSL2 and pair count it was built from, and the model is
    checked against the order bound, deciding it once.  A covered case is
    certificate-checked; a failed certificate surfaces as its own FAIL record."""
    lo, hi = _check_alpha_range(alpha_range)
    check_n_domain(n)
    records: list[VerificationRecord] = []
    for alpha in range(lo, hi + 1):
        psl2, models = _swept_models(alpha)
        for pairs, model in enumerate(models):
            records += _sweep_records(model, psl2, pairs, n)
    return records
