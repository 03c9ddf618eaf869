"""The array kernels against their single-point calls: same_leaf, the
equivalence maps and rho_apply on stacks give, row for row, what one point at
a time gives, and raise for the same inputs; the batched checks, run on the
points of the old one-sample-at-a-time stream (the flow check on its own
stream, read as tuple words), give the failure entries of their old
one-sample loops, and the array samplers keep each field's range
and rates; mat_exp, coadjoint_flow and jacobi_defect give what their old
loops gave, the stacked leaf invariant gives what the three one-point
invariant classes gave, and the closed-form Kirillov rank gives what the SVD
rule gave; the grid calls (the dichotomy and structure checks of the whole
grid, the classification check of all sources, the flat flow words) give
what their per-member loops and the tuple words gave, all kept here as
oracles."""

import cmath
import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from md53c import cli, coadjoint, float_commands, foliation
from md53c.catalog import ad2_block, build_algebra, default_grid, family_spec
from md53c.coadjoint import _chart, coadjoint_flow, flow_check_grid, orbit_chart, same_leaf
from md53c.errors import DomainError, InvalidParams, UnsupportedMap
from md53c.coadjoint import CheckReport
from md53c.foliation import (apply_equivalence, equivalence_map, fibration_check, leaf_invariant,
                             rho_apply, verify_classification_grid)
from md53c.lie_core import (StructureConstants, ad_matrix, derived_subalgebra, exact_rank,
                            jacobi_defect, mat_exp)

GRID = default_grid()
MAPPED = [s for s in GRID if not (s.family in ("F3", "F5") and s.lam == 0.0)]
# the first grid member of each family, as the flow check picks them
FAMILY_REPS = [next(s for s in GRID if s.family == f) for f in sorted({s.family for s in GRID})]
seeds = st.integers(0, 2**32 - 1)


def _zero_patterns(rng, pts, share=0.4):
    # set (gamma, delta, sigma) entries exactly to zero in some rows, keeping
    # at least one nonzero so every row stays on a two-dimensional orbit
    for row in pts:
        if rng.random() < share:
            k = int(rng.integers(0, 3))
            row[2 + k] = 0.0
            if rng.random() < 0.5:
                row[2 + (k + 1) % 3] = 0.0
    return pts


def _pairs(rng, spec, n):
    """Rows of p and q that hit every same_leaf branch: chart points on one
    orbit, alpha-shifted points, point orbits, exact zero patterns and, for
    the half-plane families, the frozen (gamma, 0, 0) slice."""
    p = _zero_patterns(rng, rng.uniform(0.1, 2.0, (n, 5)) * rng.choice([-1.0, 1.0], (n, 5)))
    q = np.empty_like(p)
    for i in range(n):
        chart = orbit_chart(spec, p[i])
        q[i] = chart.eval(float(rng.uniform(-2, 2)), float(rng.uniform(-1.5, 1.5)))
        kind = rng.random()
        if kind < 0.25:
            q[i, 0] += rng.uniform(0.1, 1.0)
        elif kind < 0.35:
            p[i, 2:] = 0.0
            if rng.random() < 0.5:
                q[i] = p[i]
        elif kind < 0.45:
            p[i, 3:] = 0.0
            q[i] = [rng.uniform(-2, 2), rng.uniform(-2, 2), p[i, 2], 0.0, 0.0]
    return p, q


@given(seeds, st.sampled_from(GRID))
@settings(max_examples=60, deadline=None)
def test_stacked_same_leaf_matches_rows(seed, spec):
    rng = np.random.default_rng(seed)
    p, q = _pairs(rng, spec, 24)
    for a, b in ((p, q), (q, p)):
        got = same_leaf(spec, a, b)
        assert got.shape == (len(a),) and got.dtype == bool
        assert list(got) == [same_leaf(spec, x, y) for x, y in zip(a, b)]
    # the rho-action and the leaf-invariant comparison on the same stacks;
    # reversed rows pair points of different leaves and signs of s, and the
    # rho-images, s negated and 1e-9 perturbations pair rows with s = 0 on
    # one side, on both or on neither
    g = rng.uniform(-2.0, 2.0, (len(p), 2))
    assert rho_apply(g[0], p[0]).shape == (5,)
    np.testing.assert_allclose(rho_apply(g, p), [rho_apply(h, x) for h, x in zip(g, p)],
                               rtol=1e-14, atol=1e-14)
    in_v = foliation.in_V(p) & foliation.in_V(q)
    a = p[in_v]
    for b in (q[in_v], q[in_v][::-1], rho_apply(g[in_v], a), a * [1.0, 1.0, 1.0, 1.0, -1.0],
              a + 1e-9 * rng.standard_normal(a.shape)):
        for kind in ("F1", "F2"):
            got = leaf_invariant(kind, a).approx_eq(leaf_invariant(kind, b), 1e-8)
            assert list(got) == [_scalar_invariant(kind, x).approx_eq(
                _scalar_invariant(kind, y), 1e-8) for x, y in zip(a, b)]


def test_stacked_leaf_invariant_errors():
    pts = np.array([[1.0, 0.0, 1.0, 0.0, 0.0], [0.0, 2.0, 0.0, 1.0, 1.0],
                    [0.5, 0.0, 0.0, 0.0, -2.0]])
    for kind in ("F1", "F2"):
        inv = leaf_invariant(kind, pts)
        assert inv.approx_eq(inv).tolist() == [True, True, True]
        # any one row outside V rejects the whole stack
        for i in range(len(pts)):
            bad = pts.copy()
            bad[i, 2:] = 0.0
            with pytest.raises(DomainError):
                leaf_invariant(kind, bad)
    with pytest.raises(InvalidParams):
        leaf_invariant("F3", pts)
    with pytest.raises(InvalidParams):
        leaf_invariant("F1", pts).approx_eq(leaf_invariant("F2", pts))


@given(seeds, st.sampled_from(GRID))
@settings(max_examples=60, deadline=None)
def test_flow_words_stay_on_the_leaf(seed, spec):
    rng = np.random.default_rng(seed)
    sc = build_algebra(spec)
    p = rng.uniform(-2.0, 2.0, (12, 5))
    q = np.array([
        coadjoint_flow(sc, f, [(int(rng.integers(1, 6)), float(rng.uniform(-1.0, 1.0)))
                               for _ in range(int(rng.integers(1, 7)))])
        for f in p
    ])
    assert same_leaf(spec, p, q).all()
    assert same_leaf(spec, q, p).all()
    # alpha shifted well above the tolerance at the point's own scale
    off = q.copy()
    off[:, 0] += rng.uniform(0.1, 1.0, len(q)) * np.maximum(1.0, np.abs(q).max(axis=1))
    assert not same_leaf(spec, p, off).any()
    assert not same_leaf(spec, off, p).any()


def _map_points(rng, spec, n):
    pts = _zero_patterns(rng, rng.uniform(0.05, 2.0, (n, 5)) * rng.choice([-1.0, 1.0], (n, 5)))
    if spec.family == "F7":
        # rows on the seams t = z log|z| (u = 0 forward) and t = 0 (inverse)
        z = pts[: n // 4, 2]
        z[z == 0.0] = 0.5
        pts[: n // 4, 3] = z * np.log(np.abs(z))
    return pts


@given(seeds, st.sampled_from(MAPPED))
@settings(max_examples=60, deadline=None)
def test_stacked_maps_match_rows(seed, spec):
    rng = np.random.default_rng(seed)
    emap = equivalence_map(spec)
    pts = _map_points(rng, spec, 32)
    for direction in ("fwd", "inv"):
        stacked = apply_equivalence(emap, pts, direction)
        rows = np.array([apply_equivalence(emap, p, direction) for p in pts])
        assert stacked.shape == pts.shape
        # vectorized and one-element transcendental loops may round apart in
        # the last bits; the exact-zero branches must agree exactly
        scale = np.maximum(1.0, np.abs(rows).max(axis=1, keepdims=True))
        assert np.all(np.abs(stacked - rows) <= 1e-14 * scale)
        assert np.array_equal(stacked == 0.0, rows == 0.0)
    back = apply_equivalence(emap, apply_equivalence(emap, pts), "inv")
    assert np.all(np.isfinite(back))


@pytest.mark.parametrize("family", sorted({s.family for s in GRID}))
@given(seed=seeds)
@settings(max_examples=10, deadline=None)
def test_stacked_blocks_match_members(family, seed):
    # one _chart call on a (member, row) stack of every grid member of a
    # family, each member's rows reading its own ad_X2 block, gives each
    # member's chart bit for bit, the lambda = 0 rows of F3(0) and F5(0)
    # included; so does one map call per direction on the mapped members,
    # against apply_equivalence
    rng = np.random.default_rng(seed)
    members = [s for s in GRID if s.family == family]
    blocks = np.array([ad2_block(s) for s in members])[:, None]
    base = _map_points(rng, members[0], 20 * len(members)).reshape(len(members), 20, 5)
    b, a = rng.uniform(-2.0, 2.0, base.shape[:2]), rng.uniform(-1.5, 1.5, base.shape[:2])
    got = coadjoint._chart(blocks, base, b, a)
    for spec, m, *rows in zip(members, blocks, got, base, b, a):
        pts, base_j, b_j, a_j = rows
        assert np.array_equal(pts, coadjoint._chart(m[0], base_j, b_j, a_j))
        if spec.family == "F8":
            # e^{i phi} as the block holds it is the chart's rotation
            assert m[0, 0, 0] + 1j * m[0, 1, 0] == cmath.exp(1j * spec.phi)
        if spec.is_halfplane:
            # (1 - e^{lambda a}) / lambda continued to -a
            assert np.array_equal(pts[:, 0], base_j[:, 0] - a_j * base_j[:, 2])
    mapped = [s for s in members if s in MAPPED]
    if not mapped:
        return
    fwd, inv = foliation._MAPS[family]
    m = np.array([ad2_block(s) for s in mapped])[:, None]
    pts = _map_points(rng, mapped[0], 20 * len(mapped)).reshape(len(mapped), 20, 5)
    for fn, direction in ((fwd, "fwd"), (inv, "inv")):
        want = [apply_equivalence(equivalence_map(s), rows, direction)
                for s, rows in zip(mapped, pts)]
        assert np.array_equal(foliation._equivalence(fn, m, pts), want, equal_nan=True)


# every member of families 1..6, the half-plane ones included, with F4 first
TRIANGULAR = sorted((s for s in GRID if s.family in ("F1", "F2", "F3", "F4", "F5", "F6")),
                    key=lambda s: s.family != "F4")


def _edge_rows(rng, n):
    # points with exact zeros, -0.0 coordinates, and coordinates from 5e-324
    # to 1e308, where a step that is an identity on paper still moves bits
    pts = _zero_patterns(rng, rng.uniform(0.05, 2.0, (n, 5)) * rng.choice([-1.0, 1.0], (n, 5)))
    pts[::3] *= rng.choice([-0.0, 5e-324, 1e-200, 1.0, 1e200, 5e307], (len(pts[::3]), 5))
    return pts


@pytest.mark.parametrize("order", ["F4-first", "shuffled"])
def test_mixed_stacks_match_per_block_calls(order):
    # one call on a stack of the blocks of families 1..6 gives, bit for bit,
    # what one call per block gives: the straightening maps, the triangular
    # chart and same_leaf.  A step applied through an
    # arithmetic identity (a rate of 1, a coupling of 0) or read off the
    # first block for every row moves bits of some rows here
    rng = np.random.default_rng(29)
    members = list(TRIANGULAR)
    if order == "shuffled":
        members = [members[i] for i in rng.permutation(len(members))]
    k = 40
    blocks = np.array([ad2_block(s) for s in members])
    mapped = [i for i, s in enumerate(members) if not s.is_halfplane]
    pts = np.array([_edge_rows(rng, k) for _ in members])
    m = blocks[mapped, None]
    with np.errstate(all="ignore"):
        for fn in (foliation._straighten, foliation._unstraighten):
            got = foliation._equivalence(fn, m, pts[mapped])
            for j, i in enumerate(mapped):
                want = foliation._equivalence(fn, blocks[i], pts[i])
                assert got[j].tobytes() == want.tobytes(), (fn.__name__, members[i].label())
    # same_leaf pairs: chart points, alpha shifts, point orbits, the frozen
    # gamma slice of the half-plane members, and the edge rows; rows whose
    # sigma grows from 1e-300 to 1e300 put an m12 = 0 block at an infinite
    # candidate time
    p, q = map(np.array, zip(*(_pairs(rng, s, k) for s in members)))
    p[:, :10], q[:, :10] = pts[:, :10], _edge_rows(rng, 10)
    p[:, 10:13, 2:], q[:, 10:13, 2:] = [0.0, -0.0, 1e-300], [0.0, -0.0, 1e300]
    flat = np.repeat(blocks, k, axis=0)
    with np.errstate(all="ignore"):
        got = coadjoint._same_leaf(flat, p.reshape(-1, 5), q.reshape(-1, 5), 1e-8)
    want = np.concatenate([same_leaf(s, p_j, q_j) for s, p_j, q_j in zip(members, p, q)])
    assert got.tobytes() == want.tobytes()
    # the chart at the candidate times of those pairs, one block per row as
    # _same_leaf reads them, and one per member
    with np.errstate(all="ignore"):
        times = coadjoint._leaf_times(flat, np.stack((p, q)).reshape(2, -1, 5))
        assert np.isinf(times).any()
        for a in times:
            a = np.where(np.isnan(a), rng.uniform(-1.5, 1.5, a.shape), a)
            got = coadjoint._chart(flat, p.reshape(-1, 5), q[..., 1].ravel(), a)
            stacked = coadjoint._chart(blocks[:, None], p, q[..., 1], a.reshape(len(members), k))
            assert got.tobytes() == stacked.reshape(-1, 5).tobytes()
            for i, rows in enumerate(got.reshape(len(members), k, 5)):
                want = coadjoint._chart(blocks[i], p[i], q[i, :, 1], a[i * k:(i + 1) * k])
                assert rows.tobytes() == want.tobytes(), members[i].label()


@given(seeds, st.sampled_from(GRID))
@settings(max_examples=30, deadline=None)
def test_map_errors_match_rows(seed, spec):
    rng = np.random.default_rng(seed)
    emap = equivalence_map(spec)
    pts = _map_points(rng, spec, 8)
    outside = rng.random(8) < 0.2
    pts[outside, 2:] = 0.0

    def raised(p):
        try:
            apply_equivalence(emap, p)
        except (DomainError, UnsupportedMap) as e:
            return type(e)
        return None

    # a lone point outside V raises DomainError before the map is looked up
    halfplane = UnsupportedMap if spec.family in ("F3", "F5") and spec.lam == 0.0 else None
    assert [raised(p) for p in pts] == [DomainError if o else halfplane for o in outside]
    assert raised(pts) is (DomainError if outside.any() else halfplane)


def test_stack_shapes_rejected():
    spec = family_spec("F4")
    emap = equivalence_map(spec)
    with pytest.raises(InvalidParams):
        same_leaf(spec, np.zeros((3, 5)), np.zeros((2, 5)))
    with pytest.raises(InvalidParams):
        same_leaf(spec, np.zeros((2, 2, 5)), np.zeros((2, 2, 5)))
    with pytest.raises(InvalidParams):
        apply_equivalence(emap, np.ones((3, 4)))
    with pytest.raises(InvalidParams):
        apply_equivalence(emap, np.ones((3, 5)), "sideways")
    assert same_leaf(spec, np.zeros((0, 5)), np.zeros((0, 5))).shape == (0,)


def test_f8_principal_angle_stack():
    spec = family_spec("F8", 1.0, math.pi / 2)
    chart = orbit_chart(spec, np.array([0.3, -0.7, 1.1, 0.4, 0.8]))
    q = np.array([chart.eval(0.5, a) for a in (-1.4, -0.2, 0.0, 0.9, 1.5)])
    p = np.repeat(q[:1], len(q), axis=0)
    assert same_leaf(spec, p, q).all()
    q[:, 0] += 0.5
    assert not same_leaf(spec, p, q).any()


# The old sample stream: sample by sample, a base point, b1..b3, a1..a3 and
# the alpha offset, and each flow word step by step.
# The array samplers replaced it.  It stays here so that the batched checks
# run on its points, against the one-sample loops that replay it.


def _old_sample_base(rng, spec):
    """One random base point of a two-dimensional orbit, on the old stream."""
    x, y = rng.uniform(-2.0, 2.0, 2)
    if spec.family == "F8":
        u = rng.random()
        if u < 0.1:
            # pure-sigma leaf, w = 0
            s = math.copysign(rng.uniform(0.1, 2.0), rng.uniform(-1, 1))
            return np.array([x, y, 0.0, 0.0, s])
        th_max = math.pi - foliation._CUT_MARGIN - foliation._AMAX * math.sin(spec.phi)
        th = rng.uniform(-th_max, th_max)
        w = rng.uniform(0.05, 2.0) * cmath.exp(1j * th)
        s = 0.0 if u < 0.3 else math.copysign(rng.uniform(0.05, 2.0), rng.uniform(-1, 1))
        return np.array([x, y, w.real, w.imag, s])
    f = rng.uniform(0.05, 2.0, 3) * np.where(rng.random(3) < 0.5, -1.0, 1.0)
    if rng.random() < 0.3:
        k = int(rng.integers(0, 3))
        f[k] = 0.0
        if rng.random() < 0.3:
            f[(k + 1) % 3] = 0.0
    return np.array([x, y, f[0], f[1], f[2]])


def _old_draw_samples(rng, spec, n):
    """_draw_samples on the old stream, sample by sample.  The same fields
    as _draw_samples: the chart inputs of p, q and r."""
    if int(n) < 1:
        raise InvalidParams("n must be >= 1")
    bases, bs, avals, offs = [], [], [], []
    for _ in range(int(n)):
        bases.append(_old_sample_base(rng, spec))
        bs.append(rng.uniform(-2.0, 2.0, 3))
        avals.append(rng.uniform(-foliation._AMAX, foliation._AMAX, 3))
        offs.append(math.copysign(rng.uniform(0.1, 1.0), rng.uniform(-1, 1)))
    base = np.array(bases)
    shifted = base.copy()
    shifted[:, 0] += offs
    return (np.concatenate((base, base, shifted)), np.array(bs).T.ravel(),
            np.array(avals).T.ravel())


def _flat_words(words):
    # the (directions, times, lengths) form of a list of (i, t) words
    steps = np.array([st for w in words for st in w]).reshape(-1, 2)
    return steps[:, 0].astype(int), steps[:, 1], np.array([len(w) for w in words])


@pytest.fixture
def old_stream(monkeypatch):
    """The batched checks drawing their chart inputs from the old stream."""
    monkeypatch.setattr(foliation, "_draw_samples", _old_draw_samples)


def _fits(image):
    return np.isfinite(image).all(axis=-1) & foliation.in_V(image)


def _scalar_classification(spec, n, seed, tol):
    """The one-sample-at-a-time classification loop, kept as the oracle for
    the batched check: old stream, same order, same failure entries.  h(q)
    is compared with the target's chart point of h(p) at q's beta and time
    a2 - a1, and h(p) with h(r) by the one-point invariant classes."""
    emap = equivalence_map(spec)
    kind = "F2" if emap.target.family == "F8" else "F1"
    rng = np.random.default_rng(seed)
    failures = []
    for _ in range(n):
        base = _old_sample_base(rng, spec)
        chart = orbit_chart(spec, base)
        b1, b2, b3 = rng.uniform(-2.0, 2.0, 3)
        a1, a2, a3 = rng.uniform(-foliation._AMAX, foliation._AMAX, 3)
        p, q = chart.eval(b1, a1), chart.eval(b2, a2)
        hp = apply_equivalence(emap, p)
        moved = _chart(ad2_block(emap.target), hp, b2, a2 - a1)
        if not coadjoint._close(apply_equivalence(emap, q), moved, tol):
            failures.append({"kind": "positive", "p": list(p), "q": list(q)})
        off = math.copysign(rng.uniform(0.1, 1.0), rng.uniform(-1, 1))
        base2 = base.copy()
        base2[0] += off
        r = orbit_chart(spec, base2).eval(b3, a3)
        hr = apply_equivalence(emap, r)
        if _fits(hp) and _fits(hr) and _scalar_invariant(kind, hp).approx_eq(
                _scalar_invariant(kind, hr), tol):
            failures.append({"kind": "negative", "p": list(p), "q": list(r)})
        # the image of each chart point, and the round trip of those the
        # printed inverse undoes
        for pt in (p, q, r):
            image = apply_equivalence(emap, pt)
            if not _fits(image):
                failures.append({"kind": "range", "p": list(pt), "image": list(image)})
                continue
            if not _branch_safe_oracle(spec, pt):
                continue
            back = apply_equivalence(emap, image, "inv")
            if np.abs(back - pt).max() > 1e-9 * max(1.0, np.abs(pt).max()):
                failures.append({"kind": "roundtrip", "p": list(pt), "back": list(back)})
    return failures


def _assert_same_failures(got, want):
    assert [f["kind"] for f in got] == [f["kind"] for f in want]
    for g, w in zip(got, want):
        for key in set(g) - {"kind"}:
            np.testing.assert_allclose(g[key], w[key], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("spec", [s for s in MAPPED if s.family != "F4"][::3],
                         ids=lambda s: s.label())
def test_batched_classification_matches_scalar_loop(spec, old_stream):
    rep = verify_classification_grid([spec], n=30, seed=41, tol=1e-6)[0]
    assert rep.failures == [] == _scalar_classification(spec, 30, 41, 1e-6)


_F2_MAPS = foliation._MAPS["F2"]
CLASSIFICATION_CASES = [
    # a forward map that drops x sends gamma != 0 pairs off their leaf
    # (positive failures), merges gamma = 0 pairs with their alpha-shifted
    # twins (negative failures), and never inverts (round-trip failures)
    ("fwd", {"positive", "negative", "roundtrip"}),
    # an inverse shifted in x fails only the round trips
    ("inv", {"roundtrip"}),
]


def _break_map(monkeypatch, broken):
    fwd, inv = _F2_MAPS
    if broken == "fwd":
        maps = (lambda sp, x, y, z, t, s: fwd(sp, 0.0 * x, y, z, t, s), inv)
    else:
        maps = (fwd, lambda sp, x, y, z, t, s: inv(sp, x + 1e-6, y, z, t, s))
    monkeypatch.setitem(foliation._MAPS, "F2", maps)


@pytest.mark.parametrize("broken,kinds", CLASSIFICATION_CASES)
def test_batched_classification_failures_keep_scalar_order(broken, kinds, monkeypatch,
                                                           old_stream):
    spec = family_spec("F2", 2.0)
    _break_map(monkeypatch, broken)
    rep = verify_classification_grid([spec], n=40, seed=5, tol=1e-6)[0]
    want = _scalar_classification(spec, 40, 5, 1e-6)
    assert {f["kind"] for f in want} == kinds
    _assert_same_failures(rep.failures, want)


@pytest.mark.parametrize("broken,kinds", CLASSIFICATION_CASES)
def test_classification_mutations_caught_on_the_array_stream(broken, kinds, monkeypatch):
    _break_map(monkeypatch, broken)
    rep = verify_classification_grid([family_spec("F2", 2.0)], n=200, seed=3)[0]
    assert {f["kind"] for f in rep.failures} == kinds


def test_round_trip_fails_closed_on_nan(monkeypatch):
    # an inverse that gives NaN in x wherever x > 0: each round-tripped chart
    # row with x > 0 fails, since a NaN drift is not within the bound, and no
    # other row does
    spec = family_spec("F2", 2.0)
    emap = equivalence_map(spec)
    pqr = coadjoint._chart(ad2_block(spec),
                           *foliation._draw_samples(np.random.default_rng(3), spec, 200))
    # sample by sample, then p, q and r: the order of the failure entries
    rows = pqr.reshape(3, -1, 5).swapaxes(0, 1).reshape(-1, 5)
    rt = rows[[_branch_safe_oracle(spec, row) for row in rows]]
    want = rt[apply_equivalence(emap, apply_equivalence(emap, rt), "inv")[:, 0] > 0.0]
    fwd, inv = _F2_MAPS

    def nan_inverse(m, *image):
        x, *rest = inv(m, *image)
        return (np.where(x > 0.0, np.nan, x), *rest)

    monkeypatch.setitem(foliation._MAPS, "F2", (fwd, nan_inverse))
    rep = verify_classification_grid([spec], n=200, seed=3)[0]
    assert {f["kind"] for f in rep.failures} == {"roundtrip"} and len(want) > 0
    np.testing.assert_array_equal([f["p"] for f in rep.failures], want)
    assert all(f["back"][0] == "nan" for f in rep.failures)


def _one_source_classification(source, n, seed, tol):
    """The classification check of one source, as it ran before the grid
    call, kept as the oracle for verify_classification_grid: h(q) against
    the target's chart point of h(p) at (b2, a2 - a1), h(p) against h(r) by
    the target's leaf invariant on the rows whose images fit, and the range
    and round trip of each chart point.  It calls the kernels through the
    module, so a patched map, chart or invariant reaches it too."""
    emap = equivalence_map(source)
    target = emap.target
    rep = CheckReport("classification", source.label(), target.label(), n, seed, tol)
    bases, b, a = foliation._draw_samples(np.random.default_rng(seed), source, n)
    b, a = b.reshape(3, -1), a.reshape(3, -1)
    pqr = [foliation._chart(ad2_block(source), *v) for v in zip(bases.reshape(3, -1, 5), b, a)]
    hp, hq, hr = (apply_equivalence(emap, v, "fwd") for v in pqr)
    kind = "F2" if target.family == "F8" else "F1"
    both = _fits(hp) & _fits(hr)
    neg = np.zeros(n, dtype=bool)
    with np.errstate(invalid="ignore", over="ignore"):
        moved = foliation._chart(ad2_block(target), hp, b[1], a[1] - a[0])
        pos = foliation._close(hq, moved, tol)
        neg[both] = foliation.leaf_invariant(kind, hp[both]).approx_eq(
            foliation.leaf_invariant(kind, hr[both]), tol)
    checks = [("positive", ~pos, {"p": pqr[0], "q": pqr[1]}),
              ("negative", neg, {"p": pqr[0], "q": pqr[2]})]
    # the range of each of p, q and r, and the round trip of its rows whose
    # images fit and that the printed inverse undoes
    for v, image in zip(pqr, (hp, hq, hr)):
        off = ~_fits(image)
        rt = ~off & foliation._roundtrip_safe(source.family, ad2_block(source), v)
        back = np.full_like(v, np.nan)
        back[rt] = apply_equivalence(emap, image[rt], "inv")
        drift = np.abs(back - v).max(axis=1) > 1e-9 * np.maximum(1.0, np.abs(v).max(axis=1))
        checks += [("range", off, {"p": v, "image": image}),
                   ("roundtrip", drift, {"p": v, "back": back})]
    foliation._collect(rep, checks)
    return rep


@pytest.mark.parametrize("stack", [60, 150, foliation._STACK_SAMPLES])
@pytest.mark.parametrize("broken,kinds", [(None, set()), *CLASSIFICATION_CASES,
                                          ("pairs", {"positive", "negative"})])
def test_grid_classification_matches_per_source_loop(broken, kinds, stack, monkeypatch):
    # every mapped member, so both targets, against the per-source loop: the
    # same failure entries, on the same source, in the same order, with one
    # source, two sources or every source of a map kind in one call.  The
    # pair kernels, the chart and the leaf invariant, broken in the rows
    # whose beta exceeds 1, fail positive and negative pairs
    monkeypatch.setattr(foliation, "_STACK_SAMPLES", stack)
    if broken == "pairs":
        monkeypatch.setattr(foliation, "_chart", _broken_chart)
        monkeypatch.setattr(foliation, "leaf_invariant", _broken_leaf_invariant)
    elif broken:
        _break_map(monkeypatch, broken)
    got = [r.to_json() for r in verify_classification_grid(MAPPED, n=60, seed=5, tol=1e-6)]
    assert got == [_one_source_classification(s, 60, 5, 1e-6).to_json() for s in MAPPED]
    assert {f["kind"] for r in got for f in r["failures"]} == kinds
    if broken in ("fwd", "inv"):
        assert {r["source"] for r in got if r["failures"]} == \
            {s.label() for s in MAPPED if s.family == "F2"}
    assert verify_classification_grid([], n=60) == []


def _cut_invariant(kind, field):
    # leaf_invariant, with the field c or u of one kind read as 0: what is
    # left is still constant on each leaf, but no longer tells every two
    # leaves apart
    def cut(k, p):
        inv = leaf_invariant(k, p)
        if k != kind:
            return inv
        return replace(inv, **{field: np.zeros_like(getattr(inv, field))})
    return cut


@pytest.mark.parametrize("field,kinds", [("c", {"negative"}), ("u", {"hard-negative"})])
@pytest.mark.parametrize("kind", ["F1", "F2"])
def test_cut_target_invariant_fails_only_negative_rows(kind, field, kinds, monkeypatch):
    # a target's invariant cut down to u and eps matches h(p) and h(r), so
    # the negative pairs of every source mapped onto that target fail, and
    # the fibration check's negative pairs too; cut down to c it matches
    # only the fibration check's hard negatives.  No positive row fails:
    # the classification reads the chart for them, and the cut invariant is
    # still constant on leaves
    monkeypatch.setattr(foliation, "leaf_invariant", _cut_invariant(kind, field))
    target = "F8(1, 1.5708)" if kind == "F2" else "F4"
    reports = verify_classification_grid(MAPPED, n=40, seed=5)
    for rep in reports:
        want = {"negative"} if field == "c" and rep.target == target else set()
        assert {f["kind"] for f in rep.failures} == want, rep.source
    assert {f["kind"] for f in fibration_check(kind, n=200, seed=3).failures} == kinds
    other = "F2" if kind == "F1" else "F1"
    assert fibration_check(other, n=200, seed=3).ok


def _target_chart_at(mutation):
    # _chart, but the one call with a single (3, 3) block, the target's
    # chart of the positive pairs, at a1 - a2 in place of a2 - a1, or at
    # h(p)'s beta b1 in place of b2
    def chart(m, base, b, a):
        if m.ndim == 2:
            b, a = (b, -a) if mutation == "time" else (base[..., 1], a)
        return _chart(m, base, b, a)
    return chart


@pytest.mark.parametrize("mutation", ["time", "beta"])
def test_positive_pairs_read_the_drawn_time_and_beta(mutation, monkeypatch):
    # every positive pair of every mapped source fails, and nothing else
    monkeypatch.setattr(foliation, "_chart", _target_chart_at(mutation))
    for rep in verify_classification_grid(MAPPED, n=40, seed=5):
        assert [f["kind"] for f in rep.failures] == ["positive"] * 40, rep.source


@pytest.mark.parametrize("seed", [5, 7])
def test_pair_rules_agree_with_same_leaf(seed):
    # the chart at the drawn time and the target's leaf invariant give the
    # leaf search's verdict on every pair of every mapped source: h(q) and
    # h(r) each against h(p), at (b2, a2 - a1) and (b3, a3 - a1)
    for source in MAPPED:
        emap = equivalence_map(source)
        target, kind = emap.target, "F2" if emap.target.family == "F8" else "F1"
        bases, b, a = foliation._draw_samples(np.random.default_rng(seed), source, 60)
        b, a = b.reshape(3, -1), a.reshape(3, -1)
        hp, hq, hr = (apply_equivalence(emap, _chart(ad2_block(source), *v))
                      for v in zip(bases.reshape(3, -1, 5), b, a))
        for k, h in ((1, hq), (2, hr)):
            searched = same_leaf(target, hp, h, 1e-6)
            chart = coadjoint._close(h, _chart(ad2_block(target), hp, b[k], a[k] - a[0]), 1e-6)
            invariant = leaf_invariant(kind, hp).approx_eq(leaf_invariant(kind, h), 1e-6)
            assert searched.tolist() == chart.tolist() == invariant.tolist() == [k == 1] * 60, \
                source.label()


@pytest.mark.parametrize("n", [1, 60, 1500])
def test_member_draw_equals_the_shared_draw(n):
    # the grid draws once per phi (families 1..7 share one draw) and lends
    # that draw to every member of the key; a member's own draw must be the
    # same, bit for bit, so a future seam or sampler that reads lambda or the
    # family shows here
    shared = {}
    for spec in MAPPED:
        key = spec.phi
        first = shared.setdefault(key, (spec, foliation._draw_samples(
            np.random.default_rng(5), spec, n)))[1]
        own = foliation._draw_samples(np.random.default_rng(5), spec, n)
        assert all(np.array_equal(a, b) for a, b in zip(own, first)), spec.label()
    assert len(shared) == 4


@pytest.mark.parametrize("n", [1, 1500])
def test_grid_classification_matches_per_source_loop_at_sizes(n):
    # one sample per source, and more samples than a stack holds, so that a
    # key's draw is carried across stacks of one source each
    got = [r.to_json() for r in verify_classification_grid(MAPPED, n=n, seed=5, tol=1e-6)]
    assert got == [_one_source_classification(s, n, 5, 1e-6).to_json() for s in MAPPED]


def test_grid_draws_once_per_stream(monkeypatch, tmp_path):
    # classify maps 34 members drawn from 4 streams, verify-claims 33 from 4:
    # one for families 1..7 and one per phi of family 8
    draw, grid = foliation._draw_samples, foliation.verify_classification_grid
    calls, keys = [], []

    def counted_draw(rng, spec, n):
        keys.append((spec.family, spec.phi))
        return draw(rng, spec, n)

    def counted_grid(sources, *args, **kwargs):
        keys.clear()
        out = grid(sources, *args, **kwargs)
        calls.append((len(sources), len(keys), len(set(keys))))
        return out

    monkeypatch.setattr(foliation, "_draw_samples", counted_draw)
    monkeypatch.setattr(float_commands, "verify_classification_grid", counted_grid)
    for cmd in ("classify", "verify-claims"):
        cli.main([cmd, "--samples", "5", "-o", str(tmp_path / cmd)])
    assert calls == [(34, 4, 4), (33, 4, 4)]


def test_grid_checks_call_kernels_once_per_family(monkeypatch, tmp_path):
    # verify-claims flows its 8 members in one mat_exp call and tests them
    # against their charts; classify maps its 34 members with one chart,
    # one forward-map and one inverse-map call per map kind and stack, h1..h6
    # and h7 onto F4 and h8 onto F8(1, pi/2), all in one stack, or one source
    # per stack when a stack holds 5 samples; verify-claims maps the same but
    # F4.  Each map kind then makes one chart call on its target for the
    # positive pairs, and one leaf-invariant call each on h(p) and h(r).
    # Each fibration check reads the invariant of p, q, r and the paired
    # points; F2 adds one chart call for its recovery and rho-image tests and
    # two invariants for the probe of the untwisted projection.  No check
    # calls same_leaf
    counts, calls = {}, []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    def recorded(name, *kernels, key=len):
        check = getattr(float_commands, name)

        def wrapper(first, *args, **kwargs):
            counts.clear()
            out = check(first, *args, **kwargs)
            calls.append((key(first), *(counts.get(k, 0) for k in kernels)))
            return out
        monkeypatch.setattr(float_commands, name, wrapper)

    counted(coadjoint, "mat_exp")
    counted(foliation, "_chart")
    counted(foliation, "_equivalence")
    counted(foliation, "leaf_invariant")
    counted(coadjoint, "_same_leaf")
    recorded("flow_check_grid", "mat_exp", "_same_leaf")
    recorded("verify_classification_grid", "_chart", "_equivalence", "leaf_invariant",
             "_same_leaf")
    recorded("fibration_check", "_chart", "leaf_invariant", "_same_leaf", key=str)
    fibrations = [("F1", 1, 4, 0), ("F2", 2, 6, 0)]
    for cmd in ("verify-claims", "classify"):
        cli.main([cmd, "--samples", "5", "-o", str(tmp_path / cmd)])
    monkeypatch.setattr(foliation, "_STACK_SAMPLES", 5)
    cli.main(["classify", "--samples", "5", "-o", str(tmp_path / "one")])
    assert calls == [(8, 1, 0), (33, 6, 6, 6, 0), *fibrations, (34, 6, 6, 6, 0), *fibrations,
                     (34, 68, 68, 68, 0), *fibrations]


@pytest.mark.parametrize("source", [family_spec("F3", 0.0), family_spec("F5", 0.0)])
def test_grid_rejects_halfplane_sources(source, monkeypatch):
    # the half-plane members have no map, as apply_equivalence says; the grid
    # check raises the same, alone or among mapped sources, before it draws
    def no_draw(*args):
        raise AssertionError("drew samples")

    monkeypatch.setattr(foliation, "_draw_samples", no_draw)
    emap = equivalence_map(source)
    with pytest.raises(UnsupportedMap, match=re.escape(emap.name)):
        verify_classification_grid([source], n=5)
    with pytest.raises(UnsupportedMap, match=re.escape(emap.name)):
        verify_classification_grid([MAPPED[0], source], n=5)


def test_grid_rejects_chart_points_off_V(monkeypatch):
    # a chart point with (z, t, s) = 0 raises DomainError, as apply_equivalence
    # raises on it, not a report built from the map's poles
    chart = foliation._chart

    def flattened(*args):
        out = chart(*args)
        out[..., 0, 2:] = 0.0
        return out

    monkeypatch.setattr(foliation, "_chart", flattened)
    with pytest.raises(DomainError):
        verify_classification_grid(MAPPED, n=5)


@pytest.mark.parametrize("args", [("F2", 1e-3), ("F3", 1e-3), ("F3", -1e-3)])
def test_map_out_of_range_is_a_failure(args):
    # |v|^(1/lambda) under- or overflows: the image of a chart point leaves
    # V or is not finite; it is reported as a range failure of its source,
    # and the other points are still inverted
    spec = family_spec(*args)
    emap = equivalence_map(spec)
    rep = verify_classification_grid([spec], n=300, seed=5)[0]
    pqr = coadjoint._chart(ad2_block(spec),
                           *foliation._draw_samples(np.random.default_rng(5), spec, 300))
    # sample by sample, then p, q and r: the order of the failure entries
    rows = pqr.reshape(3, -1, 5).swapaxes(0, 1).reshape(-1, 5)
    rt = rows[[_branch_safe_oracle(spec, row) for row in rows]]
    image = apply_equivalence(emap, rt)
    off = ~(np.isfinite(image).all(axis=1) & foliation.in_V(image))
    assert off.any() and not off.all()
    out = [f for f in rep.failures if f["kind"] == "range"]
    np.testing.assert_array_equal([f["p"] for f in out], rt[off])
    # a non-finite coordinate of an image is written as its marker
    assert [f["image"] for f in out] == [[x if math.isfinite(x) else str(x) for x in row]
                                         for row in image[off].tolist()]
    assert any(isinstance(x, str) for f in out for x in f["image"]) == \
        (not np.isfinite(image[off]).all())
    assert {tuple(f["p"]) for f in out}.isdisjoint(
        tuple(f["p"]) for f in rep.failures if f["kind"] == "roundtrip")
    assert any(f["kind"] == "roundtrip" for f in rep.failures)


def _near_a_plane(p):
    # (z, t or s) within 1e-3 of 0: every seam of h1..h6 and two of h7's lie
    # on those planes, and the round trip once skipped every such row
    return (np.abs(p[..., 2:]) < 1e-3).any(axis=-1)


def _break_inverses(mp, near_only):
    # every mapped family's inverse, moved by 1 in x on each row, or only on
    # the rows of h1..h7 whose true preimage lies near a coordinate plane
    for family in {s.family for s in MAPPED}:
        fwd, inv = foliation._MAPS[family]

        def broken(m, *image, family=family, inv=inv):
            back = np.broadcast_arrays(*inv(m, *image))
            bad = (family != "F8") & _near_a_plane(np.stack(back, axis=-1)) if near_only else True
            return (back[0] + bad, *back[1:])
        mp.setitem(foliation._MAPS, family, (fwd, broken))


def test_every_source_round_trips_n_chart_rows():
    # with every inverse broken, each round-tripped chart row is a roundtrip
    # failure: all 3n chart points p, q and r of every source of h1..h7, and
    # at least n of every F8 source, at n = 20
    with pytest.MonkeyPatch.context() as mp:
        _break_inverses(mp, near_only=False)
        for seed in range(50):
            for rep in verify_classification_grid(MAPPED, n=20, seed=seed):
                assert {f["kind"] for f in rep.failures} == {"roundtrip"}
                if rep.source.startswith("F8"):
                    assert rep.failures_total >= 20, (seed, rep.source)
                else:
                    assert rep.failures_total == 60, (seed, rep.source)


@pytest.mark.parametrize("seed", [5, 11])
def test_round_trip_reads_exactly_the_safe_chart_rows(seed):
    # an inverse broken only near the coordinate planes, where the seams of
    # h1..h6 lie, fails exactly the chart rows of h1..h7 there, which the
    # round trip skipped while it kept 1e-3 from every seam; one broken on
    # every row fails exactly the chart rows the cut oracle passes.  Sample
    # by sample, then p, q and r
    n = 60
    for near_only in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            _break_inverses(mp, near_only)
            reports = verify_classification_grid(MAPPED, n=n, seed=seed)
        for source, rep in zip(MAPPED, reports):
            pqr = coadjoint._chart(ad2_block(source), *foliation._draw_samples(
                np.random.default_rng(seed), source, n))
            rows = pqr.reshape(3, n, 5).swapaxes(0, 1).reshape(-1, 5)
            if near_only:
                rows = rows[_near_a_plane(rows)] if source.family != "F8" else rows[:0]
                assert len(rows) > 0 or source.family == "F8", source.label()
            else:
                rows = rows[[_branch_safe_oracle(source, row) for row in rows]]
            assert [f["kind"] for f in rep.failures] == ["roundtrip"] * len(rows), \
                source.label()
            np.testing.assert_array_equal(np.reshape([f["p"] for f in rep.failures], (-1, 5)),
                                          rows)


@dataclass(frozen=True)
class InvariantF1:
    """Leaf invariant for the type-one representative: c = x + z and the ray
    direction of (z, t, s)."""

    c: float
    u: tuple

    def approx_eq(self, other, tol=1e-8):
        if not isinstance(other, InvariantF1):
            return False
        return bool(foliation._rel_ok(self.c, other.c, tol)) and all(
            abs(a - b) <= tol for a, b in zip(self.u, other.u)
        )


@dataclass(frozen=True)
class InvariantF2U:
    """Leaf invariant on the s != 0 region: c = x - t, the twisted complex
    coordinate (z + it) e^{i ln|s|}, and the sign of s."""

    c: float
    w: complex
    eps: int

    def approx_eq(self, other, tol=1e-8):
        if not isinstance(other, InvariantF2U):
            return False
        return self.eps == other.eps and bool(
            foliation._rel_ok(self.c, other.c, tol) & foliation._rel_ok(self.w, other.w, tol))


@dataclass(frozen=True)
class InvariantF2W:
    """Leaf invariant on the s = 0 region: c = x - t and r = |z + it|."""

    c: float
    r: float

    def approx_eq(self, other, tol=1e-8):
        if not isinstance(other, InvariantF2W):
            return False
        return bool(foliation._rel_ok(self.c, other.c, tol)
                    & foliation._rel_ok(self.r, other.r, tol))


def _scalar_invariant(kind, p):
    """The one-point leaf invariant as three classes, kept as the oracle for
    the stacked LeafInvariant: the F2 class is chosen by s != 0 versus s = 0,
    and classes of different regions never compare equal."""
    p = np.asarray(p, dtype=float)
    if not foliation.in_V(p):
        raise DomainError("point lies outside V: (z, t, s) = 0")
    x, _, z, t, s = (float(v) for v in p)
    if kind == "F1":
        v = np.array([z, t, s])
        v = v / np.linalg.norm(v)
        return InvariantF1(x + z, tuple(float(c) for c in v))
    if kind == "F2":
        if s != 0.0:
            tw = complex(z, t) * cmath.exp(1j * math.log(abs(s)))
            return InvariantF2U(x - t, tw, 1 if s > 0 else -1)
        return InvariantF2W(x - t, abs(complex(z, t)))
    raise InvalidParams("invariant kind must be 'F1' or 'F2'")


def _scalar_hard_negative(kind, p):
    # the point of the same c on another leaf: (z, t, s) cycled keeping
    # x + z, or s negated, or where s = 0 z + it doubled keeping x - t
    x, y, z, t, s = p
    if kind == "F1":
        return np.array([x + z - t, y, t, s, z])
    return np.array([x, y, z, t, -s] if s != 0.0 else [x + t, y, 2.0 * z, 2.0 * t, s])


def _scalar_fibration(kind, n, seed, tol):
    """The one-sample-at-a-time fibration loop, kept as the oracle for the
    batched check: old stream, same order, same failure entries.  The F2
    group elements and recovery chart parameters of every sample are drawn
    after all chart inputs, as the batched check draws them.  It calls
    leaf_invariant and rho_apply through the module, one point at a time, so
    a patched kernel reaches it too; the pairs' truth comes from how they are
    built, so only the invariant decides them, and rho's image is compared
    with the chart point of p at (y + r, a)."""
    spec = family_spec("F4") if kind == "F1" else family_spec("F8", 1.0, math.pi / 2)
    rng = np.random.default_rng(seed)
    itol = max(tol, 1e-8)
    rho = foliation.rho_apply
    failures, draws = [], []
    for _ in range(n):
        base = _old_sample_base(rng, spec)
        b, a = rng.uniform(-2.0, 2.0, 3), rng.uniform(-foliation._AMAX, foliation._AMAX, 3)
        draws.append((base, b, a, math.copysign(rng.uniform(0.1, 1.0), rng.uniform(-1, 1))))
    # per sample g1, g2 and the recovery chart's (b, a)
    extras = [[float(rng.uniform(lo, hi)) for lo, hi in [(-2, 2), (-1.5, 1.5)] * 3]
              for _ in range(n if kind == "F2" else 0)]
    for k, (base, (b1, b2, b3), (a1, a2, a3), off) in enumerate(draws):
        chart = orbit_chart(spec, base)
        p, q = chart.eval(b1, a1), chart.eval(b2, a2)
        ip = foliation.leaf_invariant(kind, p)
        if not ip.approx_eq(foliation.leaf_invariant(kind, q), itol):
            failures.append({"kind": "positive", "p": list(p), "q": list(q)})
        base2 = base.copy()
        base2[0] += off
        r = orbit_chart(spec, base2).eval(b3, a3)
        if ip.approx_eq(foliation.leaf_invariant(kind, r), itol):
            failures.append({"kind": "negative", "p": list(p), "q": list(r)})
        h = _scalar_hard_negative(kind, p)
        if ip.approx_eq(foliation.leaf_invariant(kind, h), itol):
            failures.append({"kind": "hard-negative", "p": list(p), "q": list(h)})
        if kind == "F1":
            continue
        scale = max(1.0, float(np.abs(p).max()))
        g1, g2, (b, a) = extras[k][0:2], extras[k][2:4], extras[k][4:6]
        if float(np.abs(rho((0.0, 0.0), p) - p).max()) > 1e-12 * scale:
            failures.append({"kind": "identity-axiom", "p": list(p)})
        lhs = rho(g1, rho(g2, p))
        rhs = rho((g1[0] + g2[0], g1[1] + g2[1]), p)
        if float(np.abs(lhs - rhs).max()) > 1e-12 * max(scale, float(np.abs(rhs).max())):
            failures.append({"kind": "additivity-axiom", "p": list(p)})
        moved = orbit_chart(spec, p).eval(p[1] + g1[0], g1[1])
        if not coadjoint._close(rho(g1, p), moved, itol):
            failures.append({"kind": "rho-image", "p": list(p), "g": list(g1)})
        q = orbit_chart(spec, p).eval(b, a)
        if p[4] != 0.0:
            a_rec = math.log(q[4] / p[4])
        else:
            a_rec = -cmath.phase(complex(q[2], q[3]) / complex(p[2], p[3]))
        q2 = rho((float(q[1] - p[1]), a_rec), p)
        if float(np.abs(q2 - q).max()) > itol * max(1.0, float(np.abs(q).max())):
            failures.append({"kind": "recovery", "p": list(p), "q": list(q)})
    return failures


def _broken_leaf_invariant(kind, p):
    # the true invariant, but one constant in the rows whose beta exceeds 1
    inv = leaf_invariant(kind, p)
    hit = np.asarray(p)[..., 1] > 1.0
    u = np.where(hit[..., None] if kind == "F1" else hit, 0.0, inv.u)
    return foliation.LeafInvariant(kind, np.where(hit, 0.0, inv.c), u, np.where(hit, 0.0, inv.eps))


def _broken_rho(g, p):
    # the true action, moved off the leaf by 1e-6 in x in the rows where x > 0
    shift = np.where(np.asarray(p)[..., :1] > 0.0, [1e-6, 0.0, 0.0, 0.0, 0.0], 0.0)
    return rho_apply(g, p) + shift


FIBRATION_CASES = [
    ("F1", set()),
    ("F2", set()),
    ("F1", {"positive", "negative", "hard-negative"}),
    ("F2", {"positive", "negative", "hard-negative", "identity-axiom", "additivity-axiom",
            "rho-image", "recovery"}),
]


def _break_kernels(monkeypatch):
    monkeypatch.setattr(foliation, "leaf_invariant", _broken_leaf_invariant)
    monkeypatch.setattr(foliation, "rho_apply", _broken_rho)


@pytest.mark.parametrize("seed", [1729, 5])
@pytest.mark.parametrize("kind,broken", FIBRATION_CASES)
def test_batched_fibration_matches_scalar_loop(kind, broken, seed, monkeypatch, old_stream):
    if broken:
        _break_kernels(monkeypatch)
    rep = fibration_check(kind, n=60, seed=seed, tol=1e-8)
    want = _scalar_fibration(kind, 60, seed, 1e-8)
    assert {f["kind"] for f in want} == broken
    _assert_same_failures(rep.failures, want)
    assert len(rep.discrepancies) == (kind == "F2")


def _scalar_flow_failures(spec, n, seed, tol):
    """The one-word-at-a-time flow check, kept as the oracle for
    flow_check_grid: its stream read as (i, t) tuples, the per-step flow, and
    point by point the chart of the start through the coadjoint module, at
    the flowed beta and at minus the sum of the word's X2 step times, so a
    patched kernel reaches it."""
    sc = build_algebra(spec)
    start, words = _tuple_flow_words(np.random.default_rng(seed), n)
    failures = []
    for f, w in zip(start, words):
        g = _scalar_flow(sc, f, w)
        chart = coadjoint.orbit_chart(spec, f).eval(g[1], -sum(t for i, t in w if i == 2))
        gap, scale = np.abs(g - chart), np.maximum(1.0, np.maximum(abs(g), abs(chart)))
        if not (np.isfinite(gap) & (gap <= tol * scale)).all():
            failures.append({"kind": "flow", "p": list(f), "q": list(g)})
    return failures


def _broken_chart(m, base, b, a):
    # the true chart point, moved by 1 in alpha in the rows whose base beta
    # exceeds 1
    return _chart(m, base, b, a) + np.where(np.asarray(base)[..., 1:2] > 1.0, np.eye(5)[0], 0.0)


@pytest.mark.parametrize("broken", [False, True])
def test_batched_flow_check_matches_scalar_loop(broken, monkeypatch):
    if broken:
        monkeypatch.setattr(coadjoint, "_chart", _broken_chart)
    want = [_scalar_flow_failures(spec, 40, 1729, 1e-8) for spec in FAMILY_REPS]
    # the whole grid in one _flow call, then in blocks of 7 samples, the last
    # one short, which must give the same bits
    payloads = []
    for block in (coadjoint._STACK_SAMPLES, 60):
        monkeypatch.setattr(coadjoint, "_STACK_SAMPLES", block)
        got = flow_check_grid(FAMILY_REPS, 40, 1729, 1e-8)
        for spec, rep, failures in zip(FAMILY_REPS, got, want, strict=True):
            _assert_same_failures(rep.failures, failures)
            assert rep.failures_total == len(failures)
            assert (rep.failures_total > 0) == broken, spec.label()
        payloads.append([rep.to_json() for rep in got])
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize("kind,broken", FIBRATION_CASES)
def test_fibration_mutations_caught_on_the_array_stream(kind, broken, monkeypatch):
    if broken:
        _break_kernels(monkeypatch)
    assert {f["kind"] for f in fibration_check(kind, n=200, seed=3).failures} == broken


@pytest.mark.parametrize("moved", [0, 4, 7], ids=lambda k: FAMILY_REPS[k].label())
def test_flow_mutation_of_one_member_fails_only_its_report(moved, monkeypatch):
    # one member's structure constants moved off its ad_X2 block: its flows
    # leave the leaves of its chart, and its report alone fails
    structure = coadjoint._structure_grid

    def one_moved(grid):
        c = structure(grid)
        c[moved, 1, 4, 4] *= 1.5
        c[moved, 4, 1, 4] *= 1.5
        return c

    monkeypatch.setattr(coadjoint, "_structure_grid", one_moved)
    reports = flow_check_grid(FAMILY_REPS, 60, 1729, 1e-8)
    assert [rep.ok for rep in reports] == [k != moved for k in range(len(FAMILY_REPS))]


@pytest.mark.parametrize("doubled", [0, 3, 6, 7], ids=lambda k: FAMILY_REPS[k].label())
def test_flow_check_reads_the_chart_time(doubled, monkeypatch):
    # one member's whole ad_X2 doubled: its flows stay on their leaves, but
    # reach each chart point at twice the word's X2 time, so each word with
    # an X2 step fails its report and no other
    structure = coadjoint._structure_grid

    def one_doubled(grid):
        c = structure(grid)
        c[doubled, 1] *= 2
        c[doubled, :, 1] *= 2
        return c

    monkeypatch.setattr(coadjoint, "_structure_grid", one_doubled)
    reports = flow_check_grid(FAMILY_REPS, 60, 1729, 1e-8)
    assert [rep.ok for rep in reports] == [k != doubled for k in range(len(FAMILY_REPS))]
    words = _tuple_flow_words(np.random.default_rng(1729), 60)[1]
    assert reports[doubled].failures_total == sum(any(i == 2 for i, _ in w) for w in words)


def _c_only_approx_eq(self, other, tol=1e-8):
    # an incomplete invariant: c = x + z ("F1") or x - t ("F2") alone
    return foliation._rel_ok(self.c, other.c, tol)


@given(seeds, st.sampled_from(["F1", "F2"]))
@settings(max_examples=10, deadline=None)
def test_hard_negatives_catch_an_incomplete_invariant(seed, kind):
    # the pairs share c but lie on different leaves: the true checks never
    # match them, and an invariant cut down to c matches every one
    assert fibration_check(kind, n=500, seed=seed).ok
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(foliation.LeafInvariant, "approx_eq", _c_only_approx_eq)
        rep = fibration_check(kind, n=500, seed=seed)
    assert {f["kind"] for f in rep.failures} == {"hard-negative"}
    assert len(rep.failures) == 500


def _branch_safe_oracle(spec, p):
    """The round-trip rule of _roundtrip_safe, point by point, kept as its
    reference: every row of h1..h7, and the rows of h8 whose image angle,
    Im(Log w * -i e^{i phi}), lies inside (-pi, pi), Log 0 read as 0."""
    if spec.family != "F8":
        return True
    _, _, z, t, _ = (float(v) for v in p)
    w = complex(z, t)
    log = complex(math.log(abs(w)), cmath.phase(w)) if w else 0j
    return abs((log * (-1j * cmath.exp(1j * spec.phi))).imag) < math.pi


@given(seeds, st.sampled_from(GRID))
@settings(max_examples=60, deadline=None)
def test_roundtrip_margin_matches_oracle(seed, spec):
    # points on, near and away from every seam, the principal-argument cuts
    # included (on them too, from either side of the real axis), and |w| from
    # 1e-6 to 1e6 so the image angle of family 8 passes its cut; one call on
    # the stack, row by row against the oracle, then one call on the stack
    # under the blocks of every member of the family.  Only h8 skips rows
    rng = np.random.default_rng(seed)
    pts = _map_points(rng, spec, 64)
    pts[::3, 2:] *= rng.choice([1e-3, 1.0005e-3, 0.9995e-3, 1e-6, 1e6], (len(pts[::3]), 3))
    angle = rng.uniform(math.pi - 3e-3, math.pi, 16) * rng.choice([-1.0, 1.0], 16)
    pts[-16:, 2], pts[-16:, 3] = np.cos(angle), np.sin(angle)
    pts[-18:-16, 2:4] = [[-1.0, 0.0], [-1.0, -0.0]]
    got = foliation._roundtrip_safe(spec.family, ad2_block(spec), pts)
    assert got.shape == (len(pts),) and got.dtype == bool
    assert list(got) == [_branch_safe_oracle(spec, p) for p in pts]
    members = [s for s in GRID if s.family == spec.family]
    m = np.array([ad2_block(s) for s in members])[:, None]
    got = foliation._roundtrip_safe(spec.family, m,
                                    np.broadcast_to(pts, (len(members), *pts.shape)))
    assert got.shape == (len(members), len(pts))
    for member, row in zip(members, got):
        assert list(row) == [_branch_safe_oracle(member, p) for p in pts]
    assert got.all() == (spec.family != "F8")


def _within_5_sigma(hits, n, rate):
    return abs(np.count_nonzero(hits) - n * rate) <= 5.0 * math.sqrt(n * rate * (1.0 - rate))


@pytest.mark.parametrize("spec", FAMILY_REPS, ids=lambda s: s.label())
@given(seed=seeds)
@settings(max_examples=4, deadline=None)
def test_array_sampler_fields_and_rates(spec, seed):
    n = 20000
    rng = np.random.default_rng(seed)
    base = foliation._sample_base(rng, spec, n)
    assert base.shape == (n, 5) and foliation.in_V(base).all()
    assert (np.abs(base[:, :2]) <= 2.0).all()
    if spec.family == "F8":
        w, s = base[:, 2] + 1j * base[:, 3], base[:, 4]
        pure, flat = w == 0.0, s == 0.0
        th_max = math.pi - foliation._CUT_MARGIN - foliation._AMAX * math.sin(spec.phi)
        # |w| and arg w come back from cos and sin up to rounding
        assert ((np.abs(w) >= 0.05 * (1 - 1e-12)) & (np.abs(w) < 2.0 * (1 + 1e-12)))[~pure].all()
        assert (np.abs(np.angle(w[~pure])) <= th_max + 1e-12).all()
        assert ((np.abs(s) >= np.where(pure, 0.1, 0.05)) & (np.abs(s) < 2.0))[~flat].all()
        assert _within_5_sigma(pure, n, 0.1) and _within_5_sigma(flat, n, 0.2)
    else:
        zero = base[:, 2:] == 0.0
        assert ((np.abs(base[:, 2:]) >= 0.05) & (np.abs(base[:, 2:]) < 2.0))[~zero].all()
        assert _within_5_sigma(zero.any(axis=1), n, 0.3)
        assert _within_5_sigma(zero.sum(axis=1) == 2, n, 0.09)
    # the rows the round trip checks: every row of families 1..7; on F8(-1,
    # pi/6) those whose image angle stays inside h8's cut, 0.99694 of 10^7
    # draws
    rate = 0.99694 if spec.family == "F8" else 1.0
    safe = foliation._roundtrip_safe(spec.family, ad2_block(spec), base)
    assert _within_5_sigma(safe, n, rate)


@pytest.mark.parametrize("spec", FAMILY_REPS, ids=lambda s: s.label())
def test_draw_follows_the_stream_order(spec):
    # the base points, b1..b3, a1..a3, then the alpha offsets; the chart
    # inputs of p, q and r are stacked in that order, and a caller's extras
    # come next from the same generator
    rng = np.random.default_rng(11)
    base = foliation._sample_base(rng, spec, 50)
    b = rng.uniform(-2.0, 2.0, (50, 3))
    a = rng.uniform(-foliation._AMAX, foliation._AMAX, (50, 3))
    shifted = base.copy()
    shifted[:, 0] += foliation._signed(rng, 0.1, 1.0, 50)
    extra = rng.random(50)
    rng = np.random.default_rng(11)
    chart_in = foliation._draw_samples(rng, spec, 50)
    got = rng.random(50)
    m = ad2_block(spec)
    pqr = coadjoint._chart(m, *chart_in).reshape(3, -1, 5)
    for k, start in enumerate((base, base, shifted)):
        np.testing.assert_array_equal(pqr[k], coadjoint._chart(m, start, b[:, k], a[:, k]))
    np.testing.assert_array_equal(got, extra)


@pytest.mark.parametrize("spec", FAMILY_REPS, ids=lambda s: s.label())
def test_array_draws_repeat_per_seed(spec):
    def draw(seed, n=500):
        chart_in = foliation._draw_samples(np.random.default_rng(seed), spec, n)
        return coadjoint._chart(ad2_block(spec), *chart_in).reshape(3, -1, 5)

    first = draw(7)
    assert all(np.array_equal(a, b) for a, b in zip(first, draw(7)))
    assert not np.array_equal(first[0], draw(8)[0])
    assert all(v.shape == (500, 5) and foliation.in_V(v).all() for v in first)
    words = _flow_check_words(spec, 500, 7)[1][:4]
    again = _flow_check_words(spec, 500, 7)[1][:4]
    assert all(np.array_equal(a, b) for a, b in zip(words, again))
    start, i, t, lengths = words
    assert start.shape == (500, 5) and set(lengths) == set(range(1, 7))
    assert len(i) == len(t) == lengths.sum()
    assert set(i) == {1, 2, 3, 4, 5} and (np.abs(t) <= 1.0).all()
    for n in (0, -3):
        with pytest.raises(InvalidParams):
            foliation._draw_samples(np.random.default_rng(7), spec, n)
        with pytest.raises(InvalidParams):
            verify_classification_grid([spec], n=n)
def _scalar_mat_exp(m, t=1.0):
    """The one-matrix exponential, kept as the oracle for the stacked one."""
    a = t * np.asarray(m, dtype=float)
    n = a.shape[0]
    norm = float(np.linalg.norm(a, np.inf))
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
        a = a / (2.0**squarings)
    x = np.eye(n)
    term = np.eye(n)
    for k in range(1, 14):
        term = term @ a / k
        x = x + term
    for _ in range(squarings):
        x = x @ x
    return x


def _scalar_flow(sc, F, word):
    """The one-step-at-a-time flow, kept as the oracle for the stacked one."""
    F = np.asarray(F, dtype=float).copy()
    for i, t in word:
        F = _scalar_mat_exp(ad_matrix(sc, int(i)), -float(t)).T @ F
    return F


def _scalar_jacobi_defect(sc):
    """The triple loop, kept as the oracle for the one-einsum defect."""
    c = sc.c
    worst = 0.0
    for i in range(sc.dim):
        for j in range(i + 1, sc.dim):
            for k in range(j + 1, sc.dim):
                cyc = c[j, k] @ c[i] + c[k, i] @ c[j] + c[i, j] @ c[k]
                worst = max(worst, float(np.max(np.abs(cyc))))
    return worst


@given(seeds, st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_stacked_mat_exp_matches_per_matrix(seed, n):
    # zero matrices, t = 0, inf-norms just under, at and over 1/2 and large
    # ones, so the scaling counts differ within one stack
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(40, n, n))
    m /= np.linalg.norm(m, np.inf, axis=(1, 2))[:, None, None]
    m *= rng.choice([0.0, 1e-3, 0.5 * (1 - 1e-15), 0.5, 0.5 * (1 + 1e-15), 1.0, 3.0, 100.0],
                    (40, 1, 1))
    t = rng.choice([0.0, 1.0, -1.0, 0.3, -2.5], 40)
    for tt in (t, 1.0, -0.7):
        got = mat_exp(m, tt)
        assert got.shape == m.shape
        for a, b, c in zip(got, m, np.broadcast_to(tt, 40)):
            assert np.array_equal(a, _scalar_mat_exp(b, c))
    assert mat_exp(m[0], t[0]).shape == (n, n)
    assert np.array_equal(mat_exp(m[0], t[0]), _scalar_mat_exp(m[0], t[0]))
    assert np.array_equal(mat_exp(m.reshape(8, 5, n, n), t.reshape(8, 5)).reshape(m.shape),
                          mat_exp(m, t))


def _words(rng, n, steps=(0, 7)):
    return [[(int(rng.integers(1, 6)), float(rng.uniform(-1.5, 1.5)))
             for _ in range(int(rng.integers(*steps)))] for _ in range(n)]


@given(seeds, st.sampled_from(GRID))
@settings(max_examples=60, deadline=None)
def test_stacked_flow_matches_per_step_loop(seed, spec):
    rng = np.random.default_rng(seed)
    sc = build_algebra(spec)
    F = rng.uniform(-2.0, 2.0, (24, 5))
    words = _words(rng, len(F))
    got = coadjoint_flow(sc, F, words)
    assert got.shape == F.shape
    for f, w, g in zip(F, words, got):
        want = _scalar_flow(sc, f, w)
        assert np.array_equal(g, want)
        assert np.array_equal(coadjoint_flow(sc, f, w), want)
    assert np.array_equal(coadjoint_flow(sc, F, [[]] * len(F)), F)
    assert coadjoint_flow(sc, np.zeros((0, 5)), []).shape == (0, 5)


def test_flow_bad_direction_names_it():
    sc = build_algebra(family_spec("F4"))
    rng = np.random.default_rng(3)
    words = _words(rng, 6, (1, 7))
    words[4] = [*words[4], (7, 0.5)]
    with pytest.raises(InvalidParams, match="flow direction 7 outside 1..5"):
        coadjoint_flow(sc, rng.uniform(-1.0, 1.0, (6, 5)), words)
    with pytest.raises(InvalidParams):
        coadjoint_flow(sc, np.zeros((6, 5)), words[:5])
    with pytest.raises(InvalidParams):
        coadjoint_flow(sc, np.zeros((2, 6, 5)), [[]] * 2)


def _flow_check_words(spec, n, seed):
    """flow_check_grid's report of [spec], and the start points, flat words
    and flowed points of its one _flow call: (start, i, t, lengths, flowed)."""
    calls = []
    flow = coadjoint._flow

    def spy(c, *args):
        out = flow(c, *args)
        calls.append((*args, out[0]))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coadjoint, "_flow", spy)
        [rep] = flow_check_grid([spec], n, seed)
    (call,) = calls
    return rep, call


def test_grid_flow_matches_member_flows():
    # one _flow call under the grid's stacked structures flows each member's
    # points as that member's own call does, bit for bit
    c = np.array([build_algebra(spec).c for spec in GRID])
    rng = np.random.default_rng(5)
    start = rng.uniform(-2.0, 2.0, (200, 5))
    lengths = rng.integers(0, 7, 200)
    i = rng.integers(1, 6, lengths.sum())
    t = rng.uniform(-1.5, 1.5, lengths.sum())
    got = coadjoint._flow(c, start, i, t, lengths)
    assert got.shape == (len(GRID), 200, 5)
    for member, flowed in zip(c, got):
        assert np.array_equal(flowed, coadjoint._flow(member, start, i, t, lengths))


def _tuple_flow_words(rng, n):
    """The flow words as (i, t) tuples, drawn from the stream of
    flow_check_grid, as the flow check read them before it took them flat."""
    start = rng.uniform(-2.0, 2.0, (n, 5))
    ends = np.cumsum(rng.integers(1, 7, n)).tolist()
    steps = list(zip(rng.integers(1, 6, ends[-1]).tolist(),
                     rng.uniform(-1.0, 1.0, ends[-1]).tolist()))
    return start, [steps[i:j] for i, j in zip([0, *ends[:-1]], ends)]


@given(seeds, st.sampled_from(GRID))
@settings(max_examples=30, deadline=None)
def test_flat_flow_words_match_the_tuple_path(seed, spec):
    sc = build_algebra(spec)
    start, i, t, lengths, flowed = _flow_check_words(spec, 300, seed)[1]
    start2, words = _tuple_flow_words(np.random.default_rng(seed), 300)
    assert np.array_equal(start, start2) and _flat_words(words)[2].tolist() == lengths.tolist()
    assert np.array_equal(flowed, coadjoint_flow(sc, start, words))
    # and the per-step loop, word by word
    assert all(np.array_equal(g, _scalar_flow(sc, f, w))
               for f, w, g in zip(start[:40], words, flowed))


@given(seeds, st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_jacobi_defect_matches_triple_loop(seed, dim):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(dim, dim, dim)) * rng.choice([0.0, 1.0], (dim, dim, dim))
    sc = StructureConstants.from_array(c - c.transpose(1, 0, 2))
    assert jacobi_defect(sc) == pytest.approx(_scalar_jacobi_defect(sc), rel=1e-12, abs=0.0)


def test_jacobi_defect_vanishes_on_the_grid():
    for spec in GRID:
        sc = build_algebra(spec)
        assert jacobi_defect(sc) == 0.0 == _scalar_jacobi_defect(sc), spec.label()


def _member_derived_dim(sc, tol=1e-9):
    """The derived-subalgebra dimension of one algebra from its list of
    brackets, kept as the oracle for the stacked one."""
    rows = np.array([sc.c[i, j] for i in range(sc.dim) for j in range(i + 1, sc.dim)])
    if not rows.any():
        return 0
    s = np.linalg.svd(rows, compute_uv=False)
    return int(np.count_nonzero(s > tol * max(1.0, s[0])))


@given(seeds, st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_stacked_structure_checks_match_members(seed, dim):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(12, dim, dim, dim)) * rng.choice([0.0, 1.0], (12, dim, dim, dim))
    c[::4] = 0.0
    c = c - c.transpose(0, 2, 1, 3)
    members = [StructureConstants.from_array(a) for a in c]
    assert jacobi_defect(c).tolist() == [jacobi_defect(sc) for sc in members]
    dims, bases = derived_subalgebra(c)
    assert dims.tolist() == [_member_derived_dim(sc) for sc in members]
    iu, ju = np.triu_indices(dim, 1)
    for sc, r, v in zip(members, dims, bases):
        brackets = sc.c[iu, ju]
        assert r == (_exact_rank(brackets) if len(brackets) else 0)
        # the basis: r independent brackets, then zero rows
        assert np.array_equal(derived_subalgebra(sc)[1], v[:r]) and not v[r:].any()
        assert all((brackets == row).all(axis=1).any() for row in v[:r])
        assert exact_rank(v[:r]) == r
    grid = np.array([build_algebra(spec).c for spec in GRID])
    assert jacobi_defect(grid).tolist() == [0.0] * len(GRID)
    assert derived_subalgebra(grid)[0].tolist() == [3] * len(GRID)


def _exact_rank(rows):
    """The rank of a matrix of floats by Gaussian elimination in Fraction
    arithmetic, kept as the oracle for the certificate's integer minors."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _member_certificate(spec):
    """The dichotomy certificate of one member, from its brackets one pair
    at a time and Fraction arithmetic, kept as the oracle for
    md_property_grid.  It builds the algebra through the module, so a
    patched build reaches it."""
    sc = StructureConstants.from_array(coadjoint._structure_grid([spec])[0])
    failures = []
    for i in range(5):
        for j in range(i + 1, 5):
            bracket = sc.c[i, j]
            # on X2's row only the X1 and X2 components must vanish
            kind, watched = ("kernel", bracket[:2]) if 1 in (i, j) else ("bracket", bracket)
            if watched.any():
                failures.append({"kind": kind, "pair": [i + 1, j + 1],
                                 "bracket": bracket.tolist()})
    # the (gamma, delta, sigma) components of [X2, X1], [X2, X3], [X2, X4], [X2, X5]
    rows = {k: sc.c[1, k, 2:].tolist() for k in (0, 2, 3, 4)}
    minor = None
    if _exact_rank(list(rows.values())) == 3:
        minor = next([a + 1 for a in r] for r in ((2, 3, 4), (0, 3, 4), (0, 2, 4), (0, 2, 3))
                     if _exact_rank([rows[a] for a in r]) == 3)
    else:
        failures.append({"kind": "kernel", "minor": 0.0})
    return {"check": "dichotomy", "source": spec.label(), "minor": minor,
            "failures": failures, "ok": not failures}


def test_md_grid_matches_member_loop():
    # the grid call gives each member its oracle certificate, and what the
    # member gets alone
    got = coadjoint.md_property_grid(GRID)
    assert got == [_member_certificate(spec) for spec in GRID]
    assert got == [coadjoint.md_property_grid([spec])[0] for spec in GRID]
    assert all(r["ok"] for r in got)
    # the certificate draws nothing
    state = np.random.get_state()[1].copy()
    coadjoint.md_property_grid(GRID)
    assert np.array_equal(np.random.get_state()[1], state)


def test_certificate_minors_are_exact(monkeypatch):
    # F4 with its ad_X2 block scaled by 2**-400: the block's own minor is
    # 2**-1200, which a float determinant rounds to 0, but it is not 0
    spec = family_spec("F4")
    c = build_algebra(spec).c
    c[1, 2:, 2:] *= 2.0 ** -400
    c[2:, 1, 2:] *= 2.0 ** -400
    monkeypatch.setattr(coadjoint, "_structure_grid", lambda _: c[None])
    [rep] = coadjoint.md_property_grid([spec])
    assert rep == _member_certificate(spec)
    assert rep["minor"] == [3, 4, 5] and np.linalg.det(c[1, 2:, 2:]) == 0.0


def _dichotomy(pts):
    # the rank the dichotomy predicts at each row of pts: 2 off the zero slice
    return np.where(pts[:, 2:].any(axis=1), 2, 0)


def _numeric_rank(m, tol=1e-9):
    """Number of singular values above tol * max(1, largest singular value)
    per matrix of a stack: the float rank rule exact_rank replaced, kept as
    an oracle on sampled points, where it is much faster."""
    s = np.linalg.svd(m, compute_uv=False)
    return np.count_nonzero(s > tol * np.maximum(1.0, s[..., :1]), axis=-1)


@given(seeds)
@settings(max_examples=2, deadline=None)
def test_numeric_rank_gives_the_dichotomy_on_the_grid(seed):
    # the sampled evidence that the certificate replaced: the float rank of
    # B(F) on random points and on the thin slices (full zero, gamma = 0,
    # delta = sigma = 0) is 2 exactly off the zero slice, for every member
    rng = np.random.default_rng(seed)
    for spec in GRID:
        pts = rng.uniform(-3.0, 3.0, (2000, 5))
        pts[:100, 2:] = 0.0
        pts[100:200, 2] = 0.0
        pts[200:300, 3:] = 0.0
        B = np.einsum("ijk,nk->nij", build_algebra(spec).c, pts)
        assert np.array_equal(_numeric_rank(B, 1e-9), _dichotomy(pts)), spec.label()
    # kirillov_form_rank is that rule at one point
    sc = build_algebra(GRID[0])
    assert [coadjoint.kirillov_form_rank(sc, p)[1] for p in pts[::97]] == \
        _dichotomy(pts[::97]).tolist()


def test_rank4_kirillov_form_is_reported(monkeypatch):
    # [X3, X4] = X5 pairs gamma with sigma: the form at gamma, sigma != 0 has
    # rank 4, which the certificate must report as the bracket that breaks it
    spec = family_spec("F1", 2.0, 3.0)
    sc = build_algebra(spec)
    sc.c[2, 3, 4], sc.c[3, 2, 4] = 1.0, -1.0
    monkeypatch.setattr(coadjoint, "_structure_grid", lambda _: sc.c[None])
    [rep] = coadjoint.md_property_grid([spec])
    assert not rep["ok"] and rep["minor"] == [3, 4, 5]
    assert rep["failures"] == [{"kind": "bracket", "pair": [3, 4],
                                "bracket": [0.0, 0.0, 0.0, 0.0, 1.0]}]
    assert coadjoint.kirillov_form_rank(sc, [0.0, 0.0, 1.0, 0.0, 1.0])[1] == 4
    assert coadjoint.kirillov_form_rank(sc, [0.0, 0.0, 1.0, 1.0, 0.0])[1] == 2
    # a form of any size is ranked; the point must fit the algebra
    assert coadjoint.kirillov_form_rank(StructureConstants(4), np.zeros(4))[1] == 0
    with pytest.raises(InvalidParams):
        coadjoint.kirillov_form_rank(sc, np.zeros(4))


def _rank4(c):
    # [X3, X4] = X5 pairs gamma with sigma: rank 4 where both are nonzero
    c[2, 3, 4], c[3, 2, 4] = 1.0, -1.0


def _jacobi_broken(c):
    # [X2, X3] gains an X2 component: J(X1, X2, X3) = X3 + ... != 0
    c[1, 2, 1], c[2, 1, 1] = 1.0, -1.0


def _kernel_broken(c):
    # no [X2, Xk] has an X5 component, so sigma leaves the Kirillov form
    c[1, :, 4], c[:, 1, 4] = 0.0, 0.0


# per mutation: a point where the mutated form breaks the dichotomy, with
# its rank, and the certificate's failures
_BROKEN = {
    _rank4: ([0.0, 0.0, 1.0, 0.0, 1.0], 4, lambda c: [
        {"kind": "bracket", "pair": [3, 4], "bracket": [0.0, 0.0, 0.0, 0.0, 1.0]}]),
    _jacobi_broken: ([0.0, 1.0, 0.0, 0.0, 0.0], 2, lambda c: [
        {"kind": "kernel", "pair": [2, 3], "bracket": c[1, 2].tolist()}]),
    _kernel_broken: ([0.0, 0.0, 0.0, 0.0, 1.0], 0, lambda c: [
        {"kind": "kernel", "minor": 0.0}]),
}


@pytest.mark.parametrize("member", [0, 17, 35])
@pytest.mark.parametrize("breaks", [_rank4, _jacobi_broken, _kernel_broken])
def test_md_grid_reports_a_broken_member_only(breaks, member, monkeypatch):
    build = coadjoint._structure_grid

    def patched(grid):
        c = build(grid)
        for spec, member_c in zip(grid, c):
            if spec == GRID[member]:
                breaks(member_c)
        return c

    monkeypatch.setattr(coadjoint, "_structure_grid", patched)
    reps = coadjoint.md_property_grid(GRID)
    assert reps == [_member_certificate(s) for s in GRID]
    assert [r["ok"] for r in reps] == [i != member for i in range(len(GRID))]
    # the failure names the fact that broke, and the form at the witness
    # point shows the dichotomy broken indeed
    point, rank, failures = _BROKEN[breaks]
    c = patched([GRID[member]])[0]
    assert reps[member]["failures"] == failures(c)
    B, got = coadjoint.kirillov_form_rank(StructureConstants.from_array(c), point)
    assert got == rank != _dichotomy(np.array([point]))[0]
    if breaks is _jacobi_broken:
        assert jacobi_defect(c[None])[0] >= 1.0


def _float_structure(c):
    """The MD(5,3C) structure of one structure array, read with floats to
    1e-12 as md_property_grid once checked it beside the certificate: the
    Jacobi identity, and a derived ideal span{X3, X4, X5} that is
    commutative and killed by ad_X1.  Kept as an oracle of the certificate,
    which implies it."""
    sc = StructureConstants.from_array(c)
    dim, basis = derived_subalgebra(sc)
    return bool(_scalar_jacobi_defect(sc) <= 1e-12 and _member_derived_dim(sc) == dim == 3
                and np.abs(basis[:, :2]).max() <= 1e-12
                and np.abs(c[2:, 2:]).max() <= 1e-12 and np.abs(c[0, 2:]).max() <= 1e-12)


@pytest.mark.parametrize("breaks", [None, _rank4, _jacobi_broken, _kernel_broken])
def test_float_structure_facts_agree_with_the_certificate(breaks, monkeypatch):
    # on the 36 members, and with members 0, 17 and 35 broken, the float
    # facts hold exactly where the certificate does, and so do the numbers
    # that catalog reports: jacobi_defect <= 1e-12 and derived_dim == 3
    c = coadjoint._structure_grid(GRID)
    for m in ([] if breaks is None else [0, 17, 35]):
        breaks(c[m])
    monkeypatch.setattr(coadjoint, "_structure_grid", lambda _: c)
    ok = [r["ok"] for r in coadjoint.md_property_grid(GRID)]
    assert ok == [i not in (0, 17, 35) or breaks is None for i in range(len(GRID))]
    assert [_float_structure(member_c) for member_c in c] == ok
    catalog = (jacobi_defect(c) <= 1e-12) & (derived_subalgebra(c)[0] == 3)
    assert catalog.tolist() == ok
