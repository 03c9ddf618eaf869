"""Leaf-to-leaf coordinate changes, the plane action, leaf invariants, and
the sampled classification verifiers."""

import math
import warnings

import numpy as np
import pytest

from md53c.catalog import default_grid, family_spec
from md53c.coadjoint import flow_check_grid, orbit_chart, same_leaf
from md53c.errors import DomainError, InvalidParams, UnsupportedMap
from md53c.foliation import (
    apply_equivalence,
    equivalence_map,
    fibration_check,
    in_V,
    leaf_invariant,
    printed_u_submersion,
    rho_apply,
    verify_classification,
    verify_classification_grid,
)

F8_REP = family_spec("F8", 1.0, math.pi / 2)


def _halfplane(spec):
    return spec.family in ("F3", "F5") and spec.lam == 0.0


def test_in_V():
    assert not in_V([0.0, 0.0, 0.0, 0.0, 0.0])
    assert not in_V([1.0, 2.0, 0.0, 0.0, 0.0])
    assert in_V([0.0, 0.0, 1e-12, 0.0, 0.0])
    assert in_V([0.0, 0.0, 0.0, -0.2, 0.0])
    # no coordinate is squared: tiny coordinates, down to the smallest
    # subnormal, and huge ones lie in V, the huge ones without an overflow
    # warning; NaN does not
    assert in_V([0.0, 0.0, 1e-200, 0.0, 0.0]) and in_V([0.0, 0.0, 0.0, 0.0, -5e-324])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert in_V([0.0, 0.0, 1e200, 0.0, 0.0]) and in_V([0.0, 0.0, 1e308, -1e308, 1e308])
    assert not in_V([0.0, 0.0, np.nan, 0.0, 0.0]) and not in_V([0.0, 0.0, np.nan, 1.0, 0.0])
    assert in_V(np.array([[0, 0, 1e-200, 0, 0], [0, 0, 1e200, 0, 0],
                          [0, 0, np.nan, 0, 0], [1, 1, 0, 0, 0]])).tolist() == [
        True, True, False, False]


def test_equivalence_map_targets_and_names():
    emap = equivalence_map(family_spec("F1", 2.0, 3.0))
    assert emap.target == family_spec("F4")
    assert emap.name == "h1(2, 3)"
    assert equivalence_map(family_spec("F4")).name == "h4"
    assert equivalence_map(family_spec("F8", 2.0, math.pi / 6)).target == F8_REP


def test_map_fixtures():
    cases = [
        (family_spec("F1", 2.0, 3.0), (1.0, 0.0, 4.0, 8.0, 2.0), (4.0, 0.0, 2.0, 2.0, 2.0)),
        (family_spec("F2", 2.0), (1.0, 2.0, 3.0, 4.0, 9.0), (1.0, 2.0, 3.0, 4.0, 3.0)),
        (family_spec("F3", -2.0), (1.0, 0.0, 1.0, 2.0, 3.0), (-2.0, 0.0, 1.0, 2.0, 3.0)),
        (family_spec("F4"), (0.1, 0.2, 0.3, 0.4, 0.5), (0.1, 0.2, 0.3, 0.4, 0.5)),
        (family_spec("F5", 2.0), (1.0, 2.0, 4.0, 0.0, 3.0), (4.0, 2.0, 2.0, 0.0, 3.0)),
        (family_spec("F6", 0.5), (1.0, 2.0, 1.0, 3.0, 4.0), (1.0, 2.0, 1.0, 3.0, 16.0)),
        (family_spec("F7"), (0.5, 1.0, 0.0, 0.0, 2.0), (0.5, 1.0, 0.0, 0.0, 2.0)),
        (
            family_spec("F7"),
            (0.0, 0.0, 0.0, math.e, 1.0),
            (0.0, 0.0, 0.0, math.e, 1.0 - math.e),
        ),
        (F8_REP, (0.3, -0.7, 1.1, 0.4, 0.8), (0.3, -0.7, 1.1, 0.4, 0.8)),
    ]
    for spec, point, want in cases:
        emap = equivalence_map(spec)
        got = apply_equivalence(emap, point)
        assert np.allclose(got, want, atol=1e-12), emap.name
        back = apply_equivalence(emap, got, "inv")
        assert np.allclose(back, point, atol=1e-12), emap.name


def test_map_round_trips_on_grid():
    rng = np.random.default_rng(19)
    for spec in default_grid():
        if _halfplane(spec):
            continue
        emap = equivalence_map(spec)
        for _ in range(10):
            p = rng.uniform(0.2, 1.5, 5) * rng.choice([-1.0, 1.0], 5)
            got = apply_equivalence(emap, apply_equivalence(emap, p), "inv")
            assert np.abs(got - p).max() <= 1e-9 * max(1.0, float(np.abs(p).max())), emap.name


def test_unsupported_halfplane_maps():
    for name in ("F3", "F5"):
        emap = equivalence_map(family_spec(name, 0.0))
        with pytest.raises(UnsupportedMap):
            apply_equivalence(emap, [0.0, 0.0, 1.0, 0.0, 0.0])


def test_map_domain_and_direction_errors():
    emap = equivalence_map(family_spec("F2", 2.0))
    with pytest.raises(DomainError):
        apply_equivalence(emap, [1.0, 1.0, 0.0, 0.0, 0.0])
    with pytest.raises(InvalidParams):
        apply_equivalence(emap, [0.0, 0.0, 1.0, 0.0, 0.0], "sideways")
    with pytest.raises(InvalidParams):
        apply_equivalence(emap, [0.0, 0.0, 1.0])


def test_maps_send_leaves_to_leaves():
    cases = [
        (family_spec("F1", 2.0, 3.0), (0.2, 0.0, 0.9, 0.6, 0.5)),
        (family_spec("F2", -0.5), (0.2, 0.0, 0.9, 0.6, 0.5)),
        (family_spec("F3", -2.0), (-0.4, 0.1, 0.8, 0.3, 0.9)),
        (family_spec("F5", 2.0), (0.5, -0.2, 1.1, 0.4, 0.6)),
        (family_spec("F6", 0.5), (0.5, -0.2, 1.1, 0.4, 0.6)),
        (family_spec("F7"), (0.5, -0.2, 1.1, 0.4, 0.6)),
        (family_spec("F8", 2.0, math.pi / 6), (0.1, 0.2, 0.8, 0.0, 0.7)),
    ]
    for spec, base in cases:
        emap = equivalence_map(spec)
        chart = orbit_chart(spec, np.array(base))
        p = chart.eval(0.7, 0.4)
        q = chart.eval(-1.1, -0.3)
        hp = apply_equivalence(emap, p)
        hq = apply_equivalence(emap, q)
        assert same_leaf(emap.target, hp, hq, tol=1e-6), emap.name
        # and different leaves stay different
        off = np.array(base)
        off[0] += 1.0
        hr = apply_equivalence(emap, orbit_chart(spec, off).eval(0.7, 0.4))
        assert not same_leaf(emap.target, hp, hr, tol=1e-6), emap.name


def test_verify_classification_small():
    for spec in default_grid():
        if _halfplane(spec):
            continue
        emap = equivalence_map(spec)
        rep = verify_classification((spec, emap.target), n=40, seed=9, tol=1e-6)
        assert rep.ok, (spec.label(), rep.failures[:2])
        doc = rep.to_json()
        assert doc["check"] == "classification" and doc["n"] == 40


def test_verify_classification_rejects_wrong_target():
    with pytest.raises(InvalidParams):
        verify_classification((family_spec("F2", 2.0), F8_REP), n=2)


def test_rho_fixture_and_axioms():
    p = np.array([0.0, 0.0, 1.0, 0.0, 1.0])
    out = rho_apply((3.0, math.pi), p)
    assert np.allclose(out, [0.0, 3.0, -1.0, 0.0, math.exp(math.pi)], atol=1e-12)
    assert np.allclose(rho_apply((0.0, 0.0), p), p, atol=1e-15)
    g1, g2 = (0.4, -1.1), (-2.0, 0.7)
    lhs = rho_apply(g1, rho_apply(g2, p))
    rhs = rho_apply((g1[0] + g2[0], g1[1] + g2[1]), p)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_rho_orbits_are_representative_leaves():
    rng = np.random.default_rng(23)
    hits = 0
    while hits < 40:
        p = rng.uniform(-2.0, 2.0, 5)
        if p[2] ** 2 + p[3] ** 2 + p[4] ** 2 < 0.1:
            continue
        g = (float(rng.uniform(-2, 2)), float(rng.uniform(-1.5, 1.5)))
        assert same_leaf(F8_REP, p, rho_apply(g, p))
        hits += 1


def test_leaf_invariant_fixtures():
    inv = leaf_invariant("F1", [1.0, 0.0, 1.0, 0.0, 0.0])
    assert inv.kind == "F1" and inv.eps == 0
    assert inv.c == pytest.approx(2.0)
    assert inv.u == pytest.approx((1.0, 0.0, 0.0))
    p = np.array([0.0, 0.0, 1.0, 0.0, 1.0])
    a = leaf_invariant("F2", p)
    b = leaf_invariant("F2", rho_apply((3.0, math.pi), p))
    assert a.kind == "F2" and a.eps == 1
    assert a.approx_eq(b)
    w = leaf_invariant("F2", [0.0, 0.0, 0.0, 2.0, 0.0])
    assert w.kind == "F2" and w.eps == 0
    assert w.c == pytest.approx(-2.0)
    assert w.u == pytest.approx(2.0)


def test_leaf_invariant_separates():
    base = leaf_invariant("F1", [1.0, 0.0, 1.0, 0.0, 0.0])
    assert not base.approx_eq(leaf_invariant("F1", [1.5, 0.0, 1.0, 0.0, 0.0]))
    assert not base.approx_eq(leaf_invariant("F1", [1.0, 0.0, 0.0, 1.0, 0.0]))
    # region types never compare equal
    u = leaf_invariant("F2", [0.0, 0.0, 1.0, 0.0, 1.0])
    w = leaf_invariant("F2", [0.0, 0.0, 1.0, 0.0, 0.0])
    assert not u.approx_eq(w) and not w.approx_eq(u)
    assert not u.approx_eq(leaf_invariant("F2", [0.0, 0.0, 1.0, 0.0, -1.0]))


def test_f1_invariant_is_scale_free_on_a_ray():
    # the norm of (z, t, s) used to underflow at 1e-200 and overflow at 1e200
    ray = np.array([[-r, 0.0, r, 0.0, 0.0] for r in (1e-200, 1.0, 1e200)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        invs = [leaf_invariant("F1", p) for p in ray]
        stacked = leaf_invariant("F1", ray)
    for inv in invs:
        assert np.array_equal(inv.u, [1.0, 0.0, 0.0]) and inv.c == 0.0
        assert all(inv.approx_eq(other) for other in invs)
    assert np.array_equal(stacked.u, np.tile([1.0, 0.0, 0.0], (3, 1)))


def test_leaf_invariant_errors():
    with pytest.raises(DomainError):
        leaf_invariant("F1", [1.0, 1.0, 0.0, 0.0, 0.0])
    with pytest.raises(InvalidParams):
        leaf_invariant("F3", [0.0, 0.0, 1.0, 0.0, 0.0])


def test_printed_projection_is_finer_than_leaves():
    assert printed_u_submersion([0.0, 0.0, 1.0, 0.0, 1.0]) == (0.0, 1.0, 0.0, 1)
    assert printed_u_submersion([0.0, 0.0, 1.0, 0.0, 0.0])[3] == 0
    base = np.array([0.3, -0.7, 1.1, 0.4, 0.8])
    q = orbit_chart(F8_REP, base).eval(0.5, 1.0)
    assert same_leaf(F8_REP, base, q)
    pa = printed_u_submersion(base)
    pb = printed_u_submersion(q)
    assert pa[0] == pytest.approx(pb[0], abs=1e-8)  # x - t really is invariant
    assert abs(pa[1] - pb[1]) > 1e-3 or abs(pa[2] - pb[2]) > 1e-3


def test_fibration_checks_small():
    rep1 = fibration_check("F1", n=120, seed=31, tol=1e-8)
    assert rep1.ok and rep1.discrepancies == []
    rep2 = fibration_check("F2", n=120, seed=31, tol=1e-8)
    assert rep2.ok
    assert len(rep2.discrepancies) == 1
    entry = rep2.discrepancies[0]
    assert "paper_location" in entry and entry["paper_location"]
    doc = rep2.to_json()
    assert doc["discrepancies"][0] == entry
    with pytest.raises(InvalidParams):
        fibration_check("F3")


def test_empty_sample_rejected():
    # a check over no samples would pass vacuously
    for kind in ("F1", "F2"):
        with pytest.raises(InvalidParams):
            fibration_check(kind, n=0)
    with pytest.raises(InvalidParams):
        verify_classification((family_spec("F2", 2.0), family_spec("F4")), n=0)
    with pytest.raises(InvalidParams):
        verify_classification_grid([family_spec("F2", 2.0)], n=0)
    for n in (0, -3):
        with pytest.raises(InvalidParams):
            flow_check_grid([family_spec("F2", 2.0)], n=n)
