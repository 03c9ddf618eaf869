"""Acceptance gate: the nine end-to-end criteria at their stated sample
sizes, tolerances, and runtime budgets.  Each test covers one criterion and
prints a single PASS line with its elapsed time."""

import itertools
import json
import math
import time

import numpy as np
import pytest

from md53c.catalog import build_algebra, default_grid
from md53c.cli import main
from md53c.coadjoint import coadjoint_flow, md_property_grid, same_leaf
from md53c.errors import InconsistentInput
from md53c.foliation import equivalence_map, fibration_check, rho_apply, verify_classification
from md53c.ktheory import (
    AbGroup,
    B_CROSSED,
    DELTA0_DEFAULT,
    Euclid,
    J_DESCRIPTOR,
    Product,
    Punctured,
    Sphere,
    StableFunctions,
    ZMat,
    descriptor_k_groups,
    index_invariant,
    smith_normal_form,
    space_k_groups,
)

ZERO = AbGroup(0)
Z = AbGroup(1)
Z2 = AbGroup(2)


def _halfplane(spec):
    return spec.family in ("F3", "F5") and spec.lam == 0.0


def _printed_matrix(spec):
    l1, l2, lam, phi = spec.lambda1, spec.lambda2, spec.lam, spec.phi
    if spec.family == "F1":
        return [[l1, 0.0, 0.0], [0.0, l2, 0.0], [0.0, 0.0, 1.0]]
    if spec.family == "F2":
        return [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, lam]]
    if spec.family == "F3":
        return [[lam, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    if spec.family == "F4":
        return [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    if spec.family == "F5":
        return [[lam, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]
    if spec.family == "F6":
        return [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, lam]]
    if spec.family == "F7":
        return [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]
    c, s = math.cos(phi), math.sin(phi)
    return [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, lam]]


def test_criterion_1_catalog_integrity():
    from md53c.catalog import ad2_block
    from md53c.lie_core import derived_subalgebra, jacobi_defect

    start = time.perf_counter()
    grid = default_grid()
    assert len(grid) == 36
    for spec in grid:
        sc = build_algebra(spec)
        assert jacobi_defect(sc) <= 1e-12, spec.label()
        rank, basis = derived_subalgebra(sc)
        assert rank == 3, spec.label()
        # derived ideal is spanned by the last three coordinates ...
        assert np.abs(basis[:, :2]).max() <= 1e-12, spec.label()
        # ... and is commutative: no structure constants inside it
        assert np.abs(sc.c[2:5, 2:5, :]).max() == 0.0, spec.label()
        assert np.array_equal(
            ad2_block(spec), np.array(_printed_matrix(spec), dtype=float)
        ), spec.label()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: catalog integrity on 36 grid entries ({elapsed:.2f}s)")


def test_criterion_2_md_dichotomy():
    start = time.perf_counter()
    for spec in default_grid():
        rep = md_property_grid([spec])[0]
        assert rep["ok"], (spec.label(), rep["failures"])
        assert rep["failures"] == [] and len(rep["minor"]) == 3
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS criterion 2: orbit-dimension dichotomy certified exactly on 36 entries "
          f"({elapsed:.2f}s)")


def test_criterion_3_orbit_closed_forms():
    start = time.perf_counter()
    bad = 0
    for spec in default_grid():
        sc = build_algebra(spec)
        rng = np.random.default_rng(1729)
        for _ in range(1000):
            point = rng.uniform(-2.0, 2.0, 5)
            word = [
                (int(d), float(t))
                for d, t in zip(
                    rng.integers(1, 6, int(rng.integers(1, 7))),
                    rng.uniform(-1.0, 1.0, 6),
                )
            ]
            flowed = coadjoint_flow(sc, point, word)
            if not same_leaf(spec, point, flowed, tol=1e-8):
                bad += 1
    elapsed = time.perf_counter() - start
    assert bad == 0
    print(f"PASS criterion 3: flows land on the predicted leaf, 10^3 words x 36 entries ({elapsed:.1f}s)")


def test_criterion_4_classification_maps():
    start = time.perf_counter()
    checked = 0
    for spec in default_grid():
        if spec.family == "F4" or _halfplane(spec):
            continue
        emap = equivalence_map(spec)
        rep = verify_classification((spec, emap.target), n=1000, seed=1729, tol=1e-6)
        assert rep.ok, (spec.label(), rep.failures[:3])
        checked += 1
    assert checked == 33
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 4: leaf equivalences verified on {checked} entries x 10^3 pairs ({elapsed:.1f}s)")


def test_criterion_5_leaf_invariants():
    start = time.perf_counter()
    rep1 = fibration_check("F1", n=1000, seed=1729, tol=1e-8)
    assert rep1.ok and rep1.discrepancies == []
    rep2 = fibration_check("F2", n=1000, seed=1729, tol=1e-8)
    assert rep2.ok, rep2.failures[:3]
    assert len(rep2.discrepancies) == 1  # the untwisted projection, reported once
    # action axioms directly, at the strict tolerance
    rng = np.random.default_rng(1729)
    for _ in range(200):
        p = rng.uniform(-2.0, 2.0, 5)
        g1 = (float(rng.uniform(-2, 2)), float(rng.uniform(-1.5, 1.5)))
        g2 = (float(rng.uniform(-2, 2)), float(rng.uniform(-1.5, 1.5)))
        scale = max(1.0, float(np.abs(p).max()))
        assert np.abs(rho_apply((0.0, 0.0), p) - p).max() <= 1e-12 * scale
        lhs = rho_apply(g1, rho_apply(g2, p))
        rhs = rho_apply((g1[0] + g2[0], g1[1] + g2[1]), p)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, float(np.abs(rhs).max()))
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 5: complete invariants + action axioms, 10^3 samples each ({elapsed:.1f}s)")


def test_criterion_6_k_group_fixtures():
    start = time.perf_counter()
    assert descriptor_k_groups(J_DESCRIPTOR) == (ZERO, Z2)
    assert descriptor_k_groups(B_CROSSED) == (Z, Z)
    assert space_k_groups(Punctured(3)) == (ZERO, Z2)
    assert descriptor_k_groups(StableFunctions(Product(Euclid(1), Sphere(2)))) == (ZERO, Z2)
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 6: K-group fixtures for the three leaf spaces ({elapsed:.2f}s)")


def _expansion_det(a):
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if a[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in a[1:]]
            total += (-1) ** j * a[0][j] * _expansion_det(minor)
    return total


def _minor_gcd_factors(m):
    rows = [list(r) for r in m.entries]
    prev = 1
    out = []
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for ri in itertools.combinations(range(m.rows), k):
            for ci in itertools.combinations(range(m.cols), k):
                g = math.gcd(g, abs(_expansion_det([[rows[i][j] for j in ci] for i in ri])))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def test_criterion_7_smith_forms_against_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1729)
    for _ in range(500):
        r = int(rng.integers(1, 5))
        c = int(rng.integers(1, 5))
        m = ZMat.from_rows([[int(v) for v in rng.integers(-9, 10, c)] for _ in range(r)])
        d, u, v = smith_normal_form(m)
        assert abs(_expansion_det([list(x) for x in u.entries])) == 1
        assert abs(_expansion_det([list(x) for x in v.entries])) == 1
        assert u.mul(m).mul(v).entries == d.entries
        diag = [d.entries[i][i] for i in range(min(r, c))]
        nonzero = tuple(x for x in diag if x != 0)
        assert nonzero == _minor_gcd_factors(m)
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 7: Smith forms match the minor-gcd oracle on 500 matrices ({elapsed:.1f}s)")


def test_criterion_8_extension_class(tmp_path):
    start = time.perf_counter()
    rep = index_invariant(J_DESCRIPTOR, B_CROSSED, DELTA0_DEFAULT, ZMat.zeros(0, 1))
    assert rep.ext_group == Z2
    assert rep.delta0.entries == ((1,), (1,))
    assert rep.delta0_factors == (1,)
    with pytest.raises(InconsistentInput):
        index_invariant(J_DESCRIPTOR, B_CROSSED, ZMat.from_rows([[2], [2]]), ZMat.zeros(0, 1))
    out = tmp_path / "ktheory.json"
    assert main(["ktheory", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    middles = {d["scenario"]: d["middle"] for d in doc["scenarios"]}
    assert middles["paper"]["K0"] == {"free": 0, "torsion": []}
    assert middles["paper"]["K1"] == {"free": 2, "torsion": []}
    assert middles["fibration"]["K0"] == {"free": 0, "torsion": []}
    assert middles["fibration"]["K1"] == {"free": 1, "torsion": []}
    assert "Z^2 or Z" in doc["ambiguity"]
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 8: extension class pinned, doubled map rejected, both middles reported ({elapsed:.2f}s)")


def test_criterion_9_claims_report(tmp_path):
    start = time.perf_counter()
    first = tmp_path / "claims1.json"
    second = tmp_path / "claims2.json"
    assert main(["verify-claims", "-o", str(first)]) == 0
    assert main(["verify-claims", "-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    assert doc["summary"]["failures"] == 0
    discrepancies = sorted(c["id"] for c in doc["claims"] if c["status"] == "discrepancy")
    assert discrepancies == [
        "family8-printed-orbit",
        "orbit-rank2-condition",
        "printed-u-submersion",
        "quotient-k1",
    ]
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"PASS criterion 9: claims report reproducible with exactly 4 discrepancies ({elapsed:.1f}s)")
