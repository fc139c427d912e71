"""Quasi-symmetric refinements of the order polynomials.

Each tree gets a quasi-symmetric function in the monomial basis; setting
the first m variables to 1 and the rest to 0 recovers the order
polynomial at m.  The finer invariant separates trees that plain vertex
counts cannot, and a collision search shows it separates everything
small.
"""

from forestinv import (
    built_in_spec,
    collision_report,
    parse_tree,
    pretty,
    principal_specialization,
    qsym_strict,
    qsym_weak,
    strict_order_poly,
    strict_order_spec,
)


def main():
    chain = parse_tree("((()))")
    cherry = parse_tree("(()())")
    print("monomial expansions on 3 vertices:")
    for tree in (chain, cherry):
        print(f"  {tree.key:10s} strict {pretty(qsym_strict(tree))}")
        print(f"  {'':10s} weak   {pretty(qsym_weak(tree))}")

    print()
    print("principal specialization recovers the order polynomial:")
    for m in range(0, 5):
        via_qsym = principal_specialization(qsym_strict(cherry), m)
        via_poly = strict_order_poly(cherry)(m)
        print(f"  m={m}: specialized {via_qsym}, polynomial {via_poly}")

    print()
    print("the order polynomial is not a complete invariant; the first")
    print("collision appears on 5 vertices:")
    pairs = collision_report(5, strict_order_spec())
    for pair in pairs:
        a, b = parse_tree(pair.tree_a), parse_tree(pair.tree_b)
        print(f"  {pair.tree_a} and {pair.tree_b}")
        print(f"  shared polynomial: {pretty(strict_order_poly(a))}")
        print(f"  automorphism orders differ: {pair.alpha_a} vs {pair.alpha_b}")
        assert strict_order_poly(a) == strict_order_poly(b)

    print()
    print("the quasi-symmetric refinement separates those two trees and")
    print("every other pair in range:")
    colliding = parse_tree(pairs[0].tree_a), parse_tree(pairs[0].tree_b)
    print("  strict qsym values differ:", qsym_strict(colliding[0]) != qsym_strict(colliding[1]))
    for n_max in (5, 6, 7):
        found = collision_report(n_max, built_in_spec("lambda-bar"))
        polys = collision_report(n_max, strict_order_spec())
        print(f"  n <= {n_max}: qsym {len(found)} collisions, polynomial {len(polys)}")


if __name__ == "__main__":
    main()
