"""Kirillov form ranks, coadjoint flows against the closed-form charts, and
the leaf-membership decision."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from md53c.catalog import _FAMILIES, ad2_block, build_algebra, default_grid, family_spec
from md53c.coadjoint import (
    _chart,
    coadjoint_flow,
    kirillov_form_rank,
    md_property_grid,
    orbit_chart,
    same_leaf,
)
from md53c.errors import InvalidParams
from md53c.lie_core import StructureConstants

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
    # the rank is exact: sigma = 1.5e-9 is off the zero slice, so 2, as the
    # certificate says, where a relative SVD threshold of 1e-9 read 0
    f2 = build_algebra(family_spec("F2", -0.5))
    assert kirillov_form_rank(f2, [0.0, 0.0, 0.0, 0.0, 1.5e-9])[1] == 2
    # the form is ranked in integers built from c and F: here every product
    # of B underflows to 0.0, yet the form has rank 2
    tiny = StructureConstants.from_array(sc.c * 2.0 ** -600)
    form, rank = kirillov_form_rank(tiny, [0.0, 0.0, 2.0 ** -600, 0.0, 0.0])
    assert not form.any() and rank == 2
    assert list(inspect.signature(kirillov_form_rank).parameters) == ["sc", "F"]
    for bad in ([0.0, 0.0, math.inf, 0.0, 0.0], [math.nan] * 5):
        with pytest.raises(InvalidParams):
            kirillov_form_rank(sc, bad)


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
    # a non-finite point is rejected as kirillov_form_rank rejects it, not
    # read as a plane orbit that evaluates to NaN
    for k in range(5):
        for v in (math.nan, math.inf, -math.inf):
            F = np.zeros(5)
            F[k] = v
            with pytest.raises(InvalidParams, match="need a finite point of 5 coordinates"):
                orbit_chart(F1_23, F)


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
        # at gamma = 1e-3 the points are a = -/+5300 apart, and e^a overflows
        # for delta and sigma, which are 0 and stay 0
        p = [0.3, -0.5, 1e-3, 0.0, 0.0]
        for alpha in (-5.0, 5.0):
            assert same_leaf(spec, p, [alpha, 4.0, 1e-3, 0.0, 0.0]), (name, alpha)
            assert not same_leaf(spec, p, [alpha, 4.0, 1.1e-3, 0.0, 0.0]), (name, alpha)


def test_same_leaf_conditional_candidates():
    # a Jordan-coupled coordinate gives the flow time where the coordinates
    # feeding it vanish: sigma for F5(0) with delta = 0 (gamma is frozen),
    # delta for F6 and F7 with gamma = 0, sigma for F7 with gamma = delta = 0;
    # where they do not, as for sigma in F7's last case, another one gives it
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


def test_same_leaf_reads_no_point_threshold():
    # (gamma, delta, sigma) = (2.06e-9, 0, 0) is small but not 0: the point
    # flowed by X2 for time 10 is on the plane orbit of (1, 0, 1, 0, 0), and
    # a threshold of tol * max(1, max |F|) read it as a point orbit
    p = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
    q = coadjoint_flow(build_algebra(F1_23), p, [(2, 10.0)])
    assert q[2] == pytest.approx(2.06e-9, rel=0.01)
    assert same_leaf(F1_23, p, q) and same_leaf(F1_23, q, p)
    q[0] += 0.1
    assert not same_leaf(F1_23, p, q) and not same_leaf(F1_23, q, p)
    assert list(inspect.signature(same_leaf).parameters) == ["spec", "p", "q", "tol"]
    # gamma = 1e-300 charted to a = 345 grows to 0.46; e^{3a} overflows for
    # delta and sigma, which are 0 and stay 0
    p = np.array([1.5, 0.0, 1e-300, 0.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        q = _chart(ad2_block(F1_23), p, 0.0, 345.0)
    assert q[2] == pytest.approx(0.46, rel=0.01) and q[3] == q[4] == 0.0
    assert same_leaf(F1_23, p, q) and same_leaf(F1_23, q, p)


@pytest.mark.parametrize("phi,reach", [
    (math.pi / 2 - 1e-11, 1.5), (math.pi / 2 - 1e-9, 30.0), (math.pi / 2 - 1e-8, 100.0),
    (1e-10, 3.0), (math.pi - 1e-8, 3.0),
])
def test_same_leaf_on_rotations_near_the_seams(phi, reach):
    # F8 with sigma = 0: gamma + i delta scales by e^{a cos(phi)} and turns by
    # -a sin(phi).  Just below pi/2 the modulus moves too little to give the
    # time to tol, and the angle gives it only up to whole turns, so the
    # modulus picks the turn; near 0 and pi the angle moves too little, and
    # the modulus gives the time
    spec = family_spec("F8", 1.0, phi)
    rng = np.random.default_rng(23)
    for _ in range(200):
        base = rng.uniform(0.1, 2.0, 5) * rng.choice([-1.0, 1.0], 5)
        base[4] = 0.0
        q = orbit_chart(spec, base).eval(float(rng.uniform(-2, 2)),
                                         float(rng.uniform(-reach, reach)))
        assert same_leaf(spec, base, q) and same_leaf(spec, q, base), (base, q)
        q[0] += 0.3
        assert not same_leaf(spec, base, q) and not same_leaf(spec, q, base), (base, q)


def _contracting_cases():
    # (spec, a, the (gamma, delta, sigma) coordinates of rate r with r a < 0)
    # for the grid members that are not half-planes, where no factor
    # e^{r a} of the chart overflows or underflows
    cases = []
    for spec in default_grid():
        rates = ad2_block(spec).diagonal()
        for a in (-300.0, -60.0, 60.0, 300.0):
            shrink = np.flatnonzero(rates * a < 0.0) + 2
            if not spec.is_halfplane and len(shrink) and np.abs(rates * a).max() < 700.0:
                cases.append((spec, a, shrink.tolist()))
    return cases


_CONTRACTING = _contracting_cases()


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_same_leaf_after_long_contracting_flows(data):
    # a point whose only nonzero (gamma, delta, sigma) coordinates contract
    # along X2, charted far along it: the chart keeps the leaf however small
    # they get, and alpha + 0.3 leaves it
    spec, a, shrink = data.draw(st.sampled_from(_CONTRACTING))
    p = np.zeros(5)
    p[:2] = data.draw(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
    for k in data.draw(st.lists(st.sampled_from(shrink), min_size=1, unique=True)):
        p[k] = data.draw(st.floats(0.1, 2.0)) * data.draw(st.sampled_from([1.0, -1.0]))
    q = orbit_chart(spec, p).eval(data.draw(st.floats(-2.0, 2.0)), a)
    assert same_leaf(spec, p, q) and same_leaf(spec, q, p), (spec, a, p, q)
    q[0] += 0.3
    assert not same_leaf(spec, p, q) and not same_leaf(spec, q, p), (spec, a, p, q)


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


# parameters where a float rule would be weakest: magnitudes from 1e-300 to
# 1e300 of either sign, lambda within a few ulps of 0 and of 1, lambda2 next
# to lambda1, and phi near 0, pi/2 and pi
_MAGNITUDES = st.builds(lambda x, sign: sign * x, st.floats(1e-300, 1e300),
                        st.sampled_from([1.0, -1.0]))
_ULPS = st.integers(-4, 4)
_NEAR_0 = st.builds(lambda k: k * 5e-324, _ULPS) | st.floats(-1e-12, 1e-12)
_NEAR_1 = st.builds(lambda k: 1.0 + k * 2.0 ** -52, _ULPS) | st.floats(1 - 1e-12, 1 + 1e-12)
_LAMBDAS = _MAGNITUDES | _NEAR_0 | _NEAR_1
_PHIS = (st.floats(0.0, 1e-6) | st.floats(math.pi / 2 - 1e-9, math.pi / 2 + 1e-9)
         | st.floats(math.pi - 1e-6, math.pi) | st.floats(0.0, math.pi))
_PARAMS = {
    "F1": _LAMBDAS.flatmap(lambda l1: st.tuples(
        st.just(l1), _LAMBDAS | st.sampled_from([math.nextafter(l1, math.inf),
                                                 math.nextafter(l1, -math.inf),
                                                 l1 * (1.0 + 1e-12)]))),
    "F8": st.tuples(_LAMBDAS, _PHIS),
}


@pytest.mark.parametrize("name", list(_FAMILIES))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_every_valid_spec_certifies(name, data):
    # the certificate holds for every spec the family's constraints allow,
    # not only on the grid: [X2, X1] = -X3, and the (delta, sigma) rows of
    # each block have rank 2; so the exact rule of orbit_chart holds for any
    # valid spec
    fam = _FAMILIES[name]
    params = _PARAMS.get(name, st.tuples(*[_LAMBDAS] * len(fam.params)))
    spec = family_spec(name, *data.draw(params.filter(lambda p: fam.allowed(*p))))
    [rep] = md_property_grid([spec])
    assert rep["ok"] and rep["failures"] == [], (spec, rep)


def test_dimension_rule_reads_no_tolerance():
    # one exact rule: (gamma, delta, sigma) != 0, however small
    assert list(inspect.signature(orbit_chart).parameters) == ["spec", "F"]
    assert list(inspect.signature(md_property_grid).parameters) == ["grid"]
    for F in ([0.0, 0.0, 5e-324, 0.0, 0.0], [1e300, 0.0, 0.0, 0.0, 1e-300]):
        assert orbit_chart(F1_23, F).dim == 2
    assert orbit_chart(F1_23, [1e300, -1e300, 0.0, -0.0, 0.0]).dim == 0
