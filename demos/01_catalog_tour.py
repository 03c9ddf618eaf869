"""
A tour of the eight algebra families
====================================

Builds every catalog entry, checks the structure equations, and shows the
spectral data that tells the families apart.
"""

import numpy as np

from md53c import (
    ad2_block,
    ad_matrix,
    build_algebra,
    default_grid,
    derived_subalgebra,
    family_spec,
    jacobi_defect,
    jordan_signature_grid,
)

# The catalog is parametrized: two eigenvalues for F1, one for F2/F3/F5/F6,
# none for F4/F7, and a (lambda, phi) rotation pair for F8.
grid = default_grid()
print(f"default grid: {len(grid)} entries")
for spec in grid[:6]:
    print(" ", spec.label())
print("  ...")

# Every entry is a 5-dimensional solvable algebra whose derived ideal is
# 3-dimensional and commutative; the Jacobi identity holds to machine zero.
worst = max(jacobi_defect(build_algebra(spec)) for spec in grid)
print(f"\nworst Jacobi defect across the grid: {worst:.2e}")

spec = family_spec("F1", -2.0, 3.0)
sc = build_algebra(spec)
rank, basis = derived_subalgebra(sc)
print(f"{spec.label()}: derived ideal rank {rank}, basis rows:\n{np.round(basis, 12)}")

# The action of the second generator on the derived ideal is the printed
# 3 x 3 matrix of each family; for F1 it is the diagonal of eigenvalues.
print(f"\nad restricted to the derived ideal for {spec.label()}:")
print(ad2_block(spec))
print("\nfull ad matrix of X2:")
print(ad_matrix(sc, 2))

# Families can share eigenvalues yet differ as algebras: F2(1/2) is
# diagonalizable, F3(1/2) too, but their eigenvalue multiplicities differ,
# and F5/F6/F7 carry genuine Jordan blocks.  The signature captures this;
# one grid call derives it for all five members together.
members = [family_spec("F2", 0.5), family_spec("F3", 0.5), family_spec("F5", 0.5),
           family_spec("F6", 0.5), family_spec("F7")]
for s, (blocks, weights) in zip(members, jordan_signature_grid(members)):
    shown = ", ".join(f"{re:g}{'' if im == 0 else f'{im:+g}i'} x{size}" for re, im, size in blocks)
    lead = ", ".join(f"{re:g}{'' if im == 0 else f'{im:+g}i'}" for re, im in weights)
    print(f"{s.label():8s} blocks [{shown}]  first-generator weight [{lead}]")
