"""
Coadjoint orbits: ranks, flows, and closed-form charts
======================================================

Shows the point/plane dichotomy of orbit dimensions, pushes a functional
along the coadjoint flow, and compares against the closed-form orbit chart.
"""

import math

import numpy as np

from md53c import (
    build_algebra,
    coadjoint_flow,
    family_spec,
    kirillov_form_rank,
    md_property_grid,
    orbit_chart,
    same_leaf,
)

spec = family_spec("F1", 2.0, 3.0)
sc = build_algebra(spec)

# The Kirillov form B_F(X, Y) = <F, [X, Y]> decides the orbit dimension:
# rank 0 exactly when the derived-ideal part (gamma, delta, sigma) vanishes.
for F in ([1.0, 0.0, 1.0, 0.0, 0.0], [7.0, -2.0, 0.0, 0.0, 0.0]):
    form, rank = kirillov_form_rank(sc, F)
    print(f"F = {F}: rank {rank} -> {'plane' if rank else 'point'} orbit")

# Flowing F along exp(t X2) rescales the derived coordinates and feeds the
# alpha coordinate; the result stays on the same leaf by construction.
start = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
flowed = coadjoint_flow(sc, start, [(2, math.log(2.0))])
print(f"\nflow of {start} along (X2, ln 2): {np.round(flowed, 12)}")
print("same leaf?", same_leaf(spec, start, flowed))

# The orbit chart parametrizes the 2-dimensional orbit through a base point
# in closed form; evaluating it reproduces the matrix-exponential flow.
chart = orbit_chart(spec, start)
print(f"\nchart dim {chart.dim}; eval(b=5, a=ln 2) = {np.round(chart.eval(5.0, math.log(2.0)), 12)}")
for a in (-1.0, 0.0, 1.0):
    via_chart = chart.eval(start[1], a)
    via_flow = coadjoint_flow(sc, start, [(2, -a)])
    print(f"a={a:+.1f}: |chart - flow| = {np.abs(via_chart - via_flow).max():.2e}")

# At lambda = 0 family F3 degenerates: each leaf is a full (alpha, beta)
# half-plane over a fixed gamma, and the decision procedure handles it.
half = family_spec("F3", 0.0)
print("\nF3(0) half-plane leaf:",
      same_leaf(half, [0.3, -0.5, 1.2, 0.0, 0.0], [9.0, 4.0, 1.2, 0.0, 0.0]))

# The randomized dichotomy check: every sampled functional lands on a point
# (rank 0) or a plane (rank 2), never anything else.  The check takes a grid
# of members; here the grid is the one member.
[rep] = md_property_grid([spec], n=5000, seed=1729)
print(f"\ndichotomy check on {rep.n} samples: ok={rep.ok}, failures={rep.failures_total}")
