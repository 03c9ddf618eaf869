"""Kirillov form ranks, coadjoint flows against the closed-form charts, and
the leaf-membership decision."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from md53c.catalog import build_algebra, default_grid, family_spec
from md53c.coadjoint import (
    coadjoint_flow,
    kirillov_form_rank,
    md_property_grid,
    orbit_chart,
    same_leaf,
)
from md53c.errors import InvalidParams

F1_23 = family_spec("F1", 2.0, 3.0)
F8_REP = family_spec("F8", 1.0, math.pi / 2)


def test_kirillov_rank_fixtures():
    sc = build_algebra(F1_23)
    _, rank = kirillov_form_rank(sc, [1.0, 0.0, 1.0, 0.0, 0.0])
    assert rank == 2
    _, rank = kirillov_form_rank(sc, [0.0, 5.0, 0.0, 0.0, 0.0])
    assert rank == 0
    _, rank = kirillov_form_rank(sc, [7.0, -2.0, 0.0, 0.0, 0.0])
    assert rank == 0
    form, rank = kirillov_form_rank(sc, [0.0, 0.0, 0.0, 1e-3, 0.0])
    assert rank == 2
    assert np.allclose(form, -form.T, atol=1e-15)


def test_flow_fixtures():
    sc = build_algebra(F1_23)
    start = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
    # exp(-ln 2 * ad_{X2})^T scales gamma by 2^{-lambda1} and feeds alpha
    out = coadjoint_flow(sc, start, [(2, math.log(2.0))])
    assert np.allclose(out, [1.375, 0.0, 0.25, 0.0, 0.0], atol=1e-12)
    # the X1 direction only shears beta by -t*gamma
    out = coadjoint_flow(sc, [1.0, 2.0, 3.0, 0.0, 0.0], [(1, 1.0)])
    assert np.allclose(out, [1.0, -1.0, 3.0, 0.0, 0.0], atol=1e-12)
    assert np.array_equal(coadjoint_flow(sc, start, []), start)


def test_flow_word_composes():
    sc = build_algebra(family_spec("F6", -2.0))
    start = np.array([0.4, -1.0, 0.7, 0.2, 0.9])
    word = [(2, 0.3), (1, -0.8), (2, 0.5), (1, 0.1)]
    step = start
    for piece in word:
        step = coadjoint_flow(sc, step, [piece])
    assert np.allclose(coadjoint_flow(sc, start, word), step, atol=1e-12)


def test_flow_bad_direction():
    sc = build_algebra(F1_23)
    with pytest.raises(InvalidParams):
        coadjoint_flow(sc, np.zeros(5), [(6, 1.0)])
    with pytest.raises(InvalidParams):
        coadjoint_flow(sc, np.zeros(5), [(0, 1.0)])


def test_chart_fixtures():
    chart = orbit_chart(F1_23, [1.0, 0.0, 1.0, 0.0, 0.0])
    assert chart.dim == 2
    got = chart.eval(5.0, math.log(2.0))
    assert np.allclose(got, [-0.5, 5.0, 4.0, 0.0, 0.0], atol=1e-12)
    # at a = 0 the chart returns the base with beta replaced
    c7 = orbit_chart(family_spec("F7"), [0.2, -1.0, 0.4, 0.5, 0.6])
    assert np.allclose(c7.eval(-1.0, 0.0), [0.2, -1.0, 0.4, 0.5, 0.6], atol=1e-15)
    c8 = orbit_chart(F8_REP, [0.0, 0.0, 1.0, 0.0, 1.0])
    got = c8.eval(3.0, math.pi)
    assert np.allclose(got, [0.0, 3.0, -1.0, 0.0, math.exp(math.pi)], atol=1e-12)


def test_point_orbit_chart():
    chart = orbit_chart(F1_23, [1.0, 2.0, 0.0, 0.0, 0.0])
    assert chart.dim == 0
    assert np.array_equal(chart.eval(9.0, 3.0), [1.0, 2.0, 0.0, 0.0, 0.0])
    for bad in ([1.0, 2.0, 0.0], np.zeros((2, 5))):
        with pytest.raises(InvalidParams):
            orbit_chart(F1_23, bad)


def test_chart_matches_flow_on_grid():
    # the closed forms against the matrix exponential, every grid entry
    rng = np.random.default_rng(1729)
    for spec in default_grid():
        sc = build_algebra(spec)
        for _ in range(20):
            base = rng.uniform(-2.0, 2.0, 5)
            a = float(rng.uniform(-1.5, 1.5))
            want = coadjoint_flow(sc, base, [(2, -a)])
            got = orbit_chart(spec, base).eval(base[1], a)
            scale = max(1.0, float(np.abs(want).max()))
            assert np.abs(got - want).max() <= 1e-10 * scale, spec.label()


def test_x1_flow_is_the_b_direction():
    rng = np.random.default_rng(3)
    for spec in (F1_23, family_spec("F6", 0.5), F8_REP):
        sc = build_algebra(spec)
        base = rng.uniform(-2.0, 2.0, 5)
        t = 0.7
        want = coadjoint_flow(sc, base, [(1, t)])
        got = orbit_chart(spec, base).eval(base[1] - t * base[2], 0.0)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, float(np.abs(want).max()))


def test_same_leaf_basic():
    start = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
    chart = orbit_chart(F1_23, start)
    other = chart.eval(-2.0, 0.9)
    assert same_leaf(F1_23, start, other)
    assert same_leaf(F1_23, other, start)
    assert same_leaf(F1_23, start, start)
    off = other.copy()
    off[0] += 1e-3
    assert not same_leaf(F1_23, start, off)


@pytest.mark.parametrize("steps", [1, 2, 3, 4])
def test_same_leaf_across_scales(steps):
    # three X2 steps of 2.4 scale delta by about 1e9 and sigma by about 1e-3;
    # the points differ in scale by more than 1/tol, so each point's zero
    # tests must use its own scale, not the larger one
    spec = family_spec("F1", -0.5, -3.0)
    p = np.array([0.3, -0.2, 0.7, 0.5, -0.4])
    q = coadjoint_flow(build_algebra(spec), p, [(2, 2.4)] * steps)
    assert same_leaf(spec, p, q)
    assert same_leaf(spec, q, p)
    off = p.copy()
    off[0] += 0.1
    assert not same_leaf(spec, off, q)
    assert not same_leaf(spec, q, off)


def test_same_leaf_point_orbits():
    fixed = [1.0, 2.0, 0.0, 0.0, 0.0]
    assert same_leaf(F1_23, fixed, fixed)
    assert not same_leaf(F1_23, fixed, [1.5, 2.0, 0.0, 0.0, 0.0])
    assert not same_leaf(F1_23, fixed, [1.0, 2.0, 1.0, 0.0, 0.0])


def test_same_leaf_halfplane_slices():
    for name in ("F3", "F5"):
        spec = family_spec(name, 0.0)
        p = [0.3, -0.5, 1.2, 0.0, 0.0]
        # the whole (alpha, beta) plane at fixed gamma is one leaf
        assert same_leaf(spec, p, [9.0, 4.0, 1.2, 0.0, 0.0])
        assert not same_leaf(spec, p, [9.0, 4.0, 1.3, 0.0, 0.0])
        assert not same_leaf(spec, p, [9.0, 4.0, 1.2, 0.1, 0.0])


def test_same_leaf_conditional_candidates():
    # a Jordan-coupled coordinate gives the flow time only where the
    # coordinates feeding it vanish: sigma for F5(0) with delta = 0 (gamma
    # is frozen), delta for F6 and F7 with gamma = 0, sigma for F7 with
    # gamma = delta = 0
    cases = [
        (family_spec("F5", 0.0), [0.3, -0.5, 1.2, 0.0, 0.7]),
        (family_spec("F6", 2.0), [0.3, -0.5, 0.0, 0.9, 0.0]),
        (family_spec("F7"), [0.3, -0.5, 0.0, 0.0, -0.7]),
        (family_spec("F7"), [0.3, -0.5, 0.0, 0.4, -0.7]),
    ]
    for spec, base in cases:
        chart = orbit_chart(spec, base)
        for a in (-1.2, 0.4, 1.5):
            q = chart.eval(2.0, a)
            assert same_leaf(spec, base, q) and same_leaf(spec, q, base), (spec.label(), a)
            q[0] += 0.3
            assert not same_leaf(spec, base, q), (spec.label(), a)


def test_same_leaf_transitive_sample():
    specs = (family_spec("F2", -0.5), family_spec("F5", 2.0), family_spec("F8", 2.0, math.pi / 6))
    for spec in specs:
        chart = orbit_chart(spec, np.array([0.3, -0.7, 1.1, 0.4, 0.8]))
        p = chart.eval(1.0, 0.5)
        q = chart.eval(-0.5, -1.2)
        r = chart.eval(2.0, 1.4)
        assert same_leaf(spec, p, q) and same_leaf(spec, q, r) and same_leaf(spec, p, r)


def test_same_leaf_separates_orbits_per_family():
    rng = np.random.default_rng(11)
    for spec in default_grid():
        base = rng.uniform(0.1, 2.0, 5) * rng.choice([-1.0, 1.0], 5)
        chart = orbit_chart(spec, base)
        p = chart.eval(float(rng.uniform(-2, 2)), float(rng.uniform(-1.2, 1.2)))
        q = chart.eval(float(rng.uniform(-2, 2)), float(rng.uniform(-1.2, 1.2)))
        assert same_leaf(spec, p, q), spec.label()
        off = base.copy()
        off[0] += 0.5
        r = orbit_chart(spec, off).eval(0.3, 0.4)
        assert not same_leaf(spec, p, r), spec.label()


def test_chart_base_independence():
    spec = family_spec("F6", -2.0)
    base = np.array([0.4, 1.0, 0.7, -0.3, 0.9])
    p = orbit_chart(spec, base).eval(2.0, 1.1)
    q = orbit_chart(spec, p).eval(-1.0, -0.6)
    assert same_leaf(spec, base, q)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_same_leaf_symmetric_property(seed):
    rng = np.random.default_rng(seed)
    grid = default_grid()
    spec = grid[int(rng.integers(len(grid)))]
    base = rng.uniform(0.1, 2.0, 5) * rng.choice([-1.0, 1.0], 5)
    chart = orbit_chart(spec, base)
    p = chart.eval(float(rng.uniform(-2, 2)), float(rng.uniform(-1.2, 1.2)))
    q = chart.eval(float(rng.uniform(-2, 2)), float(rng.uniform(-1.2, 1.2)))
    assert same_leaf(spec, p, q)
    assert same_leaf(spec, q, p)


def test_md_property_grid_report():
    # the certificate of F1(2, 3): the ad_X2 block diag(2, 3, 1) is
    # invertible, so its own rows X3, X4, X5 give the nonzero minor
    assert md_property_grid([F1_23]) == [{"check": "dichotomy", "source": "F1(2, 3)",
                                          "minor": [3, 4, 5], "failures": [], "ok": True}]
    # at lambda = 0 the block is singular, and [X2, X1] = -X3 stands in
    [rep] = md_property_grid([family_spec("F3", 0.0)])
    assert rep["ok"] and rep["minor"] == [1, 4, 5]


def test_md_property_grid_member_by_member():
    for spec in default_grid()[::5]:
        assert md_property_grid([spec])[0]["ok"], spec.label()
