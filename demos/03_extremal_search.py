#!/usr/bin/env python3
"""Search for and verify the extremal n-exact model families.

For n-exact character graphs the order lives in [2n-5, 2n-1].  Both ends are
realized by direct products PSL2(2^a) x R where R is solvable, subject to
divisor-count constraints on 2^a -+ 1.  This script sweeps the exponent
range, realizes every catalog case it can, and confirms the order bound on
every constructed model.
"""

from chargraph import (
    PSL2,
    PrimePower,
    Product,
    abelian,
    classify_extremal_case,
    describe_model,
    disconnected_pair,
    find_alphas,
    fresh_primes,
    model_graph,
    sweep_models,
    verify_hamilton_characterization,
)

N = 5


def main() -> None:
    print("=" * 72)
    print(f"exponent search for n = {N}: which alpha give balanced divisor")
    print("counts |pi(2^a - 1)| = |pi(2^a + 1)| = k?")
    print("=" * 72)
    results = {k: find_alphas(N, k, (2, 40)) for k in (N - 3, N - 2, N - 1)}
    for k, result in results.items():
        alphas = [r.alpha for r in result.realizations]
        print(f"  k = {k} (case {result.case}): alpha in {alphas}; "
              f"near misses {list(result.near_misses)}")

    print()
    print("=" * 72)
    print("building one model per catalog case and verifying its certificates")
    print("=" * 72)
    # the first alpha realizing each k; fresh primes avoid the PSL2 graph's vertices
    psl2_min, psl2_mid, psl2_max = (
        PSL2(PrimePower(2, result.realizations[0].alpha)) for result in results.values()
    )
    p1, p2, p3, p4 = fresh_primes(4, psl2_min.graph.vertices)
    q1, q2 = fresh_primes(2, psl2_mid.graph.vertices)
    candidates = [
        Product((psl2_min, abelian())),
        Product((psl2_min, disconnected_pair("Type1", p1, p2), disconnected_pair("Type4", p3, p4))),
        Product((psl2_mid, disconnected_pair("Type1", q1, q2))),
        Product((psl2_max, abelian())),
    ]

    for model in candidates:
        outcome = classify_extremal_case(model, N)
        g = model_graph(model)
        print(f"  {describe_model(model)}")
        print(f"    case {outcome.case}: order {g.order} (expected {outcome.expected_order}), "
              f"verified {outcome.verified}")

    print()
    print("=" * 72)
    print(f"order-bound sweep: every n-exact model built for alpha <= 40 stays")
    print(f"within 2n-1 = {2 * N - 1} vertices")
    print("=" * 72)
    records = sweep_models(N, (2, 40))
    order_records = [r for r in records if r.check == "order_bound"]
    failures = [r for r in records if not r.passed]
    exact = [r for r in order_records if r.details["n_exact"]]
    largest = max((r.details["order"] for r in exact), default=0)
    print(f"  {len(order_records)} models built, {len(exact)} of them {N}-exact, "
          f"largest n-exact order {largest}, {len(failures)} bound violations")

    print()
    print("=" * 72)
    print("the Hamiltonian-complement characterization across f in [2, 12]")
    print("=" * 72)
    print(f"  {'f':>3} {'|pi(2^f-1)|':>12} {'|pi(2^f+1)|':>12} {'balanced':>9} {'hamiltonian':>12}")
    for f in range(2, 13):
        record = verify_hamilton_characterization(f)
        d = record.details
        print(f"  {f:>3} {d['pi_minus_size']:>12} {d['pi_plus_size']:>12} "
              f"{str(d['balanced']):>9} {str(d['hamiltonian']):>12}   "
              f"{'ok' if record.passed else 'MISMATCH'}")


if __name__ == "__main__":
    main()
