"""
Classifying the orbit foliations up to leafwise homeomorphism
=============================================================

Applies the coordinate changes that straighten every family onto one of the
two topological types, then inspects the complete leaf invariants and the
plane action on the second type.
"""

import math

import numpy as np

from md53c import (
    apply_equivalence,
    equivalence_map,
    family_spec,
    fibration_check,
    leaf_invariant,
    orbit_chart,
    printed_u_submersion,
    rho_apply,
    same_leaf,
    verify_classification,
)

# Each family maps onto a representative: F4 for the untwisted type, the
# rotation family at (1, pi/2) for the twisted one.
spec = family_spec("F1", 2.0, 3.0)
emap = equivalence_map(spec)
print(f"{emap.name}: {spec.label()} -> {emap.target.label()}")

p = np.array([1.0, 0.0, 4.0, 8.0, 2.0])
hp = apply_equivalence(emap, p)
back = apply_equivalence(emap, hp, "inv")
print(f"p = {p} -> {np.round(hp, 12)} -> back {np.round(back, 12)}")

# Two points on one source leaf stay on one target leaf.
chart = orbit_chart(spec, np.array([0.2, 0.0, 0.9, 0.6, 0.5]))
a, b = chart.eval(0.7, 0.4), chart.eval(-1.1, -0.3)
print("leaf preserved?",
      same_leaf(emap.target, apply_equivalence(emap, a), apply_equivalence(emap, b), tol=1e-6))

# The sampled verifier does this wholesale: positive pairs, negative pairs,
# and round-trips, for any grid entry.
rep = verify_classification((spec, emap.target), n=300, seed=7)
print(f"verify_classification: n={rep.n}, ok={rep.ok}, failures={rep.failures_total}")

# Type one has a complete invariant (x + z, ray of (z, t, s)); type two is
# governed by the R^2-action rho and its twisted invariant.
inv = leaf_invariant("F1", [1.0, 0.0, 1.0, 0.0, 0.0])
print(f"\ntype-1 invariant: c={inv.c}, u={np.round(inv.u, 6)}")

q = np.array([0.0, 0.0, 1.0, 0.0, 1.0])
moved = rho_apply((3.0, math.pi), q)
print(f"rho((3, pi)) sends {q} to {np.round(moved, 12)}")
print("invariants agree?", leaf_invariant("F2", q).approx_eq(leaf_invariant("F2", moved)))

# The untwisted projection (x - t, z, t, sgn s) is strictly finer than the
# leaf partition: it separates points that rho identifies.
print("\nprinted projection of q:     ", printed_u_submersion(q))
print("printed projection of rho(q):", tuple(round(v, 6) for v in printed_u_submersion(moved)))

# fibration_check records that disagreement as a discrepancy, exactly once.
rep2 = fibration_check("F2", n=200, seed=7)
print(f"\nfibration check: ok={rep2.ok}, discrepancies={len(rep2.discrepancies)}")
print("->", rep2.discrepancies[0]["observed"])
