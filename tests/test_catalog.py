"""The eight families: parameter validation, printed matrices, and the
spectral signature that tells members apart."""

import collections
import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from md53c import catalog
from md53c.catalog import (
    FAMILIES,
    FamilySpec,
    ad2_block,
    build_algebra,
    default_grid,
    family_spec,
    jordan_signature_grid,
)
from md53c.errors import InvalidParams
from md53c.lie_core import StructureConstants, ad_matrix, jacobi_defect


def test_families_tuple():
    assert FAMILIES == ("F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8")


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid) == 36
    labels = [s.label() for s in grid]
    assert labels.count("F4") == 1
    assert labels.count("F7") == 1
    assert "F3(0)" in labels and "F5(0)" in labels  # lambda = 0 allowed here
    assert "F6(0)" not in labels
    assert any(s.family == "F8" and s.lam == 1.0 and s.phi == math.pi / 2 for s in grid)
    assert default_grid() == grid


@pytest.mark.parametrize(
    "family,args",
    [
        ("F1", (1.0, 2.0)),
        ("F1", (0.0, 2.0)),
        ("F1", (2.0, 2.0)),  # needs distinct eigenvalues
        ("F2", (1.0,)),
        ("F2", (0.0,)),
        ("F3", (1.0,)),
        ("F5", (1.0,)),
        ("F6", (0.0,)),
        ("F6", (1.0,)),
        ("F8", (0.0, 1.0)),
        ("F8", (1.0, 0.0)),
        ("F8", (1.0, math.pi)),  # phi is strictly interior
        ("F1", (2.0, 1.0)),  # the constraints on lambda2
        ("F1", (2.0, 0.0)),
    ],
)
def test_invalid_parameters(family, args):
    with pytest.raises(InvalidParams):
        family_spec(family, *args)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters(bad):
    with pytest.raises(InvalidParams):
        family_spec("F1", bad, 2.0)
    with pytest.raises(InvalidParams):
        family_spec("F2", bad)
    with pytest.raises(InvalidParams):
        family_spec("F8", bad, 1.0)
    with pytest.raises(InvalidParams):
        family_spec("F8", 1.0, bad)


def test_spec_is_checked_when_built():
    # the constructor runs the checks, so no later call has to repeat them
    with pytest.raises(InvalidParams, match="F2 requires"):
        FamilySpec("F2", lam=1.0)
    spec = family_spec("F2", 2.0)
    with pytest.raises(InvalidParams, match="F2 requires"):
        dataclasses.replace(spec, lam=0.0)
    with pytest.raises(InvalidParams, match="F4: unexpected parameter lambda$"):
        FamilySpec("F4", lam=2.0)
    assert spec.validate() is spec


def test_wrong_arity_and_unknown_family():
    with pytest.raises(InvalidParams):
        family_spec("F1", 2.0)
    with pytest.raises(InvalidParams):
        family_spec("F4", 1.0)
    with pytest.raises(InvalidParams):
        family_spec("F9")


def test_parameter_errors_name_what_the_user_types():
    # an unknown family is named as such, with or without parameters
    for args in ((), (1.0,)):
        with pytest.raises(InvalidParams, match="unknown family 'F9'"):
            family_spec("F9", *args)
    # the single eigenvalue is the attribute lam, but the JSON key and the
    # CLI flag are both "lambda"
    with pytest.raises(InvalidParams, match="F2: missing parameter lambda$"):
        family_spec("F2")
    with pytest.raises(InvalidParams, match="F4: unexpected parameter lambda$"):
        family_spec("F4", lam=1.0)
    with pytest.raises(InvalidParams, match="F8: missing parameter phi$"):
        FamilySpec.from_json({"family": "F8", "lambda": 1.0})


def test_is_halfplane_on_the_grid():
    assert [s.label() for s in default_grid() if s.is_halfplane] == ["F3(0)", "F5(0)"]
    assert not family_spec("F3", 0.5).is_halfplane


def test_printed_matrices():
    cases = {
        family_spec("F1", -2.0, 3.0): [[-2, 0, 0], [0, 3, 0], [0, 0, 1]],
        family_spec("F2", 0.5): [[1, 0, 0], [0, 1, 0], [0, 0, 0.5]],
        family_spec("F3", 0.0): [[0, 0, 0], [0, 1, 0], [0, 0, 1]],
        family_spec("F4"): [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        family_spec("F5", -2.0): [[-2, 0, 0], [0, 1, 1], [0, 0, 1]],
        family_spec("F6", 3.0): [[1, 1, 0], [0, 1, 0], [0, 0, 3]],
        family_spec("F7"): [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
    }
    for spec, want in cases.items():
        assert np.array_equal(ad2_block(spec), np.array(want, dtype=float)), spec.label()
    phi = math.pi / 6
    rot = ad2_block(family_spec("F8", 2.0, phi))
    want = [
        [math.cos(phi), -math.sin(phi), 0.0],
        [math.sin(phi), math.cos(phi), 0.0],
        [0.0, 0.0, 2.0],
    ]
    assert np.array_equal(rot, np.array(want))


def test_build_algebra_structure():
    for spec in default_grid():
        sc = build_algebra(spec)
        assert sc.dim == 5
        assert jacobi_defect(sc) <= 1e-12, spec.label()
        # [X1, X2] = X3 and ad_{X1} kills the derived ideal
        e3 = np.zeros(5)
        e3[2] = 1.0
        assert np.array_equal(ad_matrix(sc, 1)[:, 1], e3)
        assert np.array_equal(ad_matrix(sc, 1)[:, 2:], np.zeros((5, 3)))
        assert np.array_equal(ad_matrix(sc, 2)[2:, 2:], ad2_block(spec))


def _entry_structure(block):
    # the structure array written entry by entry, skipping zeros, as the
    # bracket table reads: [X1, X2] = X3 and [X2, X_{col+3}] from column col
    return StructureConstants(5, [(1, 2, 3, 1.0)] + [
        (2, col + 3, row + 3, float(block[row, col]))
        for col in range(3) for row in range(3) if block[row, col] != 0.0]).c


def _bits_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_structure_grid_matches_the_entry_table(monkeypatch):
    # the stacked build is bit for bit each member's build_algebra and the
    # entry table, signs of zero included, also for blocks holding -0.0
    specs = default_grid() + list(catalog._REPRESENTATIVE.values())
    got = catalog._structure_grid(specs)
    assert got.shape == (len(specs), 5, 5, 5) == (44, 5, 5, 5)
    for spec, c in zip(specs, got):
        assert _bits_equal(c, build_algebra(spec).c), spec.label()
        assert _bits_equal(c, _entry_structure(ad2_block(spec))), spec.label()
    block = catalog.ad2_block
    monkeypatch.setattr(catalog, "ad2_block", lambda spec: -block(spec))
    negated = catalog._structure_grid(specs)
    assert np.signbit(negated[:, 1:3, 1:3]).any()  # -X3 in [X2, X3]
    for spec, c in zip(specs, negated):
        assert not np.signbit(c[c == 0.0]).any(), spec.label()
        assert _bits_equal(c, _entry_structure(-block(spec))), spec.label()
        assert _bits_equal(c, build_algebra(spec).c), spec.label()
    assert catalog._structure_grid([]).shape == (0, 5, 5, 5)


def test_shared_data_is_copied():
    # ad2_block is built once per spec and read-only; build_algebra and
    # default_grid hand out copies the caller may write
    spec = family_spec("F6", 0.5)
    block = ad2_block(spec)
    assert ad2_block(spec) is block and not block.flags.writeable
    with pytest.raises(ValueError):
        block[0, 0] = 7.0
    sc = build_algebra(spec)
    assert sc.c.flags.writeable and not np.shares_memory(sc.c, block)
    sc.c[1, 2:, 2:] = 7.0
    assert np.array_equal(ad2_block(spec), [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]])
    assert np.array_equal(build_algebra(spec).c[1, 2:, 2:], block.T)
    grid = default_grid()
    assert default_grid() is not grid and default_grid() == grid
    grid.clear()
    assert len(default_grid()) == 36


def test_labels():
    assert family_spec("F1", -2.0, 3.0).label() == "F1(-2, 3)"
    assert family_spec("F4").label() == "F4"
    assert family_spec("F8", 1.0, math.pi / 2).label() == "F8(1, 1.5708)"


def test_json_round_trip():
    for spec in default_grid():
        doc = spec.to_json()
        assert doc["family"] == spec.family
        assert FamilySpec.from_json(doc) == spec
    doc = family_spec("F2", 0.5).to_json()
    assert doc["lambda"] == 0.5


def test_jordan_signature_separates_members():
    # same eigenvalues, different block structure
    f2, f3, f5, f6, f4, f7, (blocks, _) = jordan_signature_grid([
        family_spec("F2", 0.5), family_spec("F3", 0.5), family_spec("F5", 0.5),
        family_spec("F6", 0.5), family_spec("F4"), family_spec("F7"),
        family_spec("F8", 1.0, math.pi / 2)])
    assert f2 != f3
    assert f5 != f6
    assert f4 != f7
    assert any(im != 0.0 for _, im, _ in blocks)


def test_jordan_signature_fixture():
    blocks, weights = jordan_signature_grid([family_spec("F5", -2.0)])[0]
    assert set(blocks) == {(-2.0, 0.0, 1), (1.0, 0.0, 2)}
    # the first derived generator is an eigenvector, so its weight list
    # carries just its own eigenvalue
    assert weights == ((-2.0, 0.0),)


def _rounded(z):
    # rounded as the payload is, by np.round
    return tuple(np.round([float(sp.re(z)), float(sp.im(z))], 6).tolist())


def _exact_signature(mat):
    """The Jordan data of an exact sympy matrix: the blocks read off sympy's
    Jordan form, the X3 weights as the eigenvalues of mat restricted to the
    span of e1, mat e1, mat^2 e1."""
    _, j = mat.jordan_form()
    blocks, start = [], 0
    for i in range(3):
        if i == 2 or j[i, i + 1] == 0:
            blocks.append((*_rounded(j[i, i]), i - start + 1))
            start = i + 1
    e1 = sp.Matrix([1, 0, 0])
    k = sp.Matrix.hstack(e1, mat * e1, mat**2 * e1)
    k = k[:, :k.rank()]
    restricted = (k.T * k).inv() * k.T * mat * k
    weights = [_rounded(z) for z, mult in restricted.eigenvals().items() for _ in range(mult)]
    return tuple(sorted(blocks)), tuple(sorted(weights))


def _near_one_specs():
    # eigenvalue gaps 1e-1 .. 1e-5 at 1, the eigenvalue every F1..F7 block has
    for k in range(1, 6):
        for gap in (sp.Rational(1, 10**k), -sp.Rational(1, 10**k)):
            yield "F1", (1 + gap, 1 - gap)
            yield "F1", (2 + gap, 2)
            for fam in ("F2", "F3", "F5", "F6"):
                yield fam, (1 + gap,)
    # a gap below 1e-6, where eigenvalues once merged into one cluster
    for fam in ("F5", "F6"):
        yield fam, (1 - sp.Rational(6, 10**7),)


def _oracle_cases():
    for fam, params in [*_near_one_specs(), ("F4", ()), ("F7", ())]:
        spec = family_spec(fam, *(float(v) for v in params))
        yield spec, sp.Matrix(3, 3, [sp.Rational(v) for v in ad2_block(spec).flat])
    for spec in default_grid():
        if spec.family == "F8":
            phi = {math.pi / 6: sp.pi / 6, math.pi / 2: sp.pi / 2,
                   3 * math.pi / 4: 3 * sp.pi / 4}[spec.phi]
            yield spec, sp.Matrix([[sp.cos(phi), -sp.sin(phi), 0],
                                   [sp.sin(phi), sp.cos(phi), 0],
                                   [0, 0, sp.Rational(spec.lam)]])


def test_jordan_signature_matches_exact_jordan_form():
    specs, expected = zip(*[(spec, _exact_signature(exact)) for spec, exact in _oracle_cases()])
    for spec, want in zip(specs, expected):
        assert jordan_signature_grid([spec])[0] == want, spec.label()
    # the same cases in one grid: X3 weights of one and of two values, one
    # to three distinct eigenvalues per member, real and complex members
    assert {len(weights) for _, weights in expected} == {1, 2}
    assert {len({b[:2] for b in blocks}) for blocks, _ in expected} == {1, 2, 3}
    assert jordan_signature_grid(specs) == list(expected)


def test_jordan_signature_grid_empty():
    assert jordan_signature_grid([]) == []


def test_jordan_signature_grid_makes_no_lapack_call(monkeypatch):
    # the data are read off the blocks and ranked exactly: no eigenvalue
    # solver, SVD or QR, and no tolerance
    assert list(inspect.signature(jordan_signature_grid).parameters) == ["grid"]
    counts = collections.Counter()
    for name in ("eigvals", "eig", "svd", "qr"):
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    jordan_signature_grid(default_grid())
    assert not counts


def test_jordan_keys_round_as_numpy_does():
    # 2.0000005 * 10**6 rounds half to even under np.round, which is what
    # round() on a numpy float does; Python's round of a float gives 2.000001
    blocks, _ = jordan_signature_grid([family_spec("F2", 2.0000005)])[0]
    assert (2.0, 0.0, 1) in blocks


@pytest.mark.parametrize("spec,expected", [
    (family_spec("F2", 1e305), (((1.0, 0.0, 1), (1.0, 0.0, 1), (1e305, 0.0, 1)), ((1.0, 0.0),))),
    (family_spec("F1", 1e305, 3), (((1.0, 0.0, 1), (3.0, 0.0, 1), (1e305, 0.0, 1)),
                                   ((1e305, 0.0),))),
])
def test_jordan_keys_of_huge_eigenvalues_keep_their_value(spec, expected):
    # scaling by 1e6 to round overflows to inf past about 1.8e302, with a
    # warning; a float that large has no fractional digits to round
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert jordan_signature_grid([spec]) == [expected]


def test_jordan_signature_close_eigenvalues():
    # close eigenvalues stay apart, and the block sizes add up to 3
    assert jordan_signature_grid([family_spec("F2", 1.001)])[0] == (
        ((1.0, 0.0, 1), (1.0, 0.0, 1), (1.001, 0.0, 1)), ((1.0, 0.0),))
    assert jordan_signature_grid([family_spec("F6", 1.001)])[0] == (
        ((1.0, 0.0, 2), (1.001, 0.0, 1)), ((1.0, 0.0),))


_PARAM = st.one_of(st.floats(-4.0, 4.0), st.floats(-1e-2, 1e-2).map(lambda d: 1.0 + d),
                   st.sampled_from([-2.0, -0.5, 0.0, 0.5, 2.0, 3.0]))


@given(st.sampled_from(FAMILIES), _PARAM, _PARAM, st.floats(1e-3, math.pi - 1e-3))
@settings(max_examples=300, deadline=None)
def test_jordan_blocks_partition_the_block(family, a, b, phi):
    params = {"F1": (a, b), "F4": (), "F7": (), "F8": (a, phi)}.get(family, (a,))
    try:
        spec = family_spec(family, *params)
    except InvalidParams:
        assume(False)
    blocks, weights = jordan_signature_grid([spec])[0]
    assert all(size >= 1 for *_, size in blocks)
    assert sum(size for *_, size in blocks) == 3
    assert 1 <= len(weights) <= 3


# a few ulps or 1e-12 from 1, the eigenvalue every F1..F7 block has; from
# 0 and from pi for phi
_NEAR = (st.builds(lambda k: 1.0 + k * 2.0 ** -52, st.integers(-4, 4))
         | st.floats(1 - 1e-12, 1 + 1e-12) | st.floats(-1e300, 1e300))
_PHI = st.floats(0.0, 1e-6) | st.floats(math.pi - 1e-6, math.pi) | st.floats(0.0, math.pi)


@pytest.mark.parametrize("family", FAMILIES)
@given(_PARAM | _NEAR, _PARAM | _NEAR, _PHI)
@settings(max_examples=20, deadline=None)
def test_jordan_signature_matches_sympy_on_allowed_params(family, a, b, phi):
    # the rule read off the block against sympy's Jordan form of the block's
    # exact rational entries, over each family's allowed parameters
    params = {"F1": (a, b), "F4": (), "F7": (), "F8": (a, phi)}.get(family, (a,))
    try:
        spec = family_spec(family, *params)
    except InvalidParams:
        assume(False)
    exact = sp.Matrix(3, 3, [sp.Rational(v) for v in ad2_block(spec).flat])
    assert jordan_signature_grid([spec])[0] == _exact_signature(exact), spec.label()
