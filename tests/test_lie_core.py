"""Structure constants, brackets, ad-matrices, and the matrix exponential."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from md53c import lie_core
from md53c.catalog import build_algebra, default_grid
from md53c.errors import DomainError
from md53c.lie_core import (
    StructureConstants,
    ad_matrix,
    bracket,
    derived_subalgebra,
    jacobi_defect,
    mat_exp,
    numeric_rank,
)

HEISENBERG = StructureConstants(3, [(1, 2, 3, 1.0)])


def test_bracket_table():
    e = np.eye(3)
    assert np.array_equal(bracket(HEISENBERG, e[0], e[1]), e[2])
    assert np.array_equal(bracket(HEISENBERG, e[1], e[0]), -e[2])
    assert np.array_equal(bracket(HEISENBERG, e[0], e[2]), np.zeros(3))
    assert np.array_equal(bracket(HEISENBERG, e[2], e[2]), np.zeros(3))


def test_bracket_bilinear():
    rng = np.random.default_rng(0)
    u, v, w = rng.normal(size=(3, 3))
    lhs = bracket(HEISENBERG, 2.0 * u + v, w)
    rhs = 2.0 * bracket(HEISENBERG, u, w) + bracket(HEISENBERG, v, w)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_entry_validation():
    with pytest.raises(ValueError):
        StructureConstants(3, [(2, 1, 3, 1.0)])  # needs i < j
    with pytest.raises(ValueError):
        StructureConstants(3, [(1, 1, 3, 1.0)])
    with pytest.raises(ValueError):
        StructureConstants(3, [(1, 2, 4, 1.0)])  # k out of range
    with pytest.raises(ValueError):
        StructureConstants(-1, [])


def test_from_array_checks_antisymmetry():
    sc = StructureConstants.from_array(HEISENBERG.c)
    assert sc == HEISENBERG
    assert repr(sc) == "StructureConstants(dim=3, entries=1)"
    bad = np.zeros((3, 3, 3))
    bad[0, 1, 2] = 1.0  # missing the mirrored entry
    with pytest.raises(ValueError):
        StructureConstants.from_array(bad)
    for shape in ((3, 3), (3, 3, 2)):
        with pytest.raises(ValueError, match="dim x dim x dim"):
            StructureConstants.from_array(np.zeros(shape))


def test_ad_matrix_columns():
    ad1 = ad_matrix(HEISENBERG, 1)
    e = np.eye(3)
    # ad_{X1} X2 = X3, everything else dies
    assert np.array_equal(ad1 @ e[1], e[2])
    assert np.array_equal(ad1 @ e[0], np.zeros(3))
    assert np.array_equal(ad1 @ e[2], np.zeros(3))
    with pytest.raises(ValueError):
        ad_matrix(HEISENBERG, 0)
    with pytest.raises(ValueError):
        ad_matrix(HEISENBERG, 4)


def test_ad_matrix_is_bracket():
    rng = np.random.default_rng(1)
    v = rng.normal(size=3)
    for i in (1, 2, 3):
        e = np.zeros(3)
        e[i - 1] = 1.0
        assert np.allclose(ad_matrix(HEISENBERG, i) @ v, bracket(HEISENBERG, e, v))


def test_jacobi_defect():
    assert jacobi_defect(HEISENBERG) <= 1e-15
    # [X1,X2]=X3 with [X2,X3]=X2 breaks Jacobi: J(1,2,3) = -X3
    broken = StructureConstants(3, [(1, 2, 3, 1.0), (2, 3, 2, 1.0)])
    assert jacobi_defect(broken) == pytest.approx(1.0)


def test_derived_subalgebra():
    rank, basis = derived_subalgebra(HEISENBERG)
    assert rank == 1
    assert np.allclose(np.abs(basis[0]), [0.0, 0.0, 1.0], atol=1e-12)
    rank0, basis0 = derived_subalgebra(StructureConstants(4, []))
    assert rank0 == 0 and basis0.shape == (0, 4)


def test_mat_exp_fixtures():
    d = np.diag([2.0, 3.0, 1.0])
    assert np.allclose(mat_exp(d, np.log(2.0)), np.diag([4.0, 8.0, 2.0]), atol=1e-12)
    jordan = np.array([[0.7, 1.0], [0.0, 0.7]])
    want = np.exp(0.7) * np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.allclose(mat_exp(jordan), want, atol=1e-12)
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(mat_exp(nil, 3.0), [[1.0, 3.0], [0.0, 1.0]], atol=1e-15)
    assert np.array_equal(mat_exp(np.zeros((3, 3))), np.eye(3))


def test_mat_exp_out_of_range_is_a_domain_error():
    m = np.array([[0.0, 3.0], [0.0, 0.0]])
    with pytest.raises(DomainError, match="out of range"):
        mat_exp(m, 1e308)
    with pytest.raises(DomainError):
        mat_exp(np.stack([m, m]), [1.0, np.nan])


def test_mat_exp_against_scipy():
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        m = rng.normal(size=(n, n))
        t = float(rng.uniform(-2.0, 2.0))
        want = scipy.linalg.expm(t * m)
        got = mat_exp(m, t)
        assert np.abs(got - want).max() <= 1e-11 * max(1.0, np.abs(want).max())


def _grid_ads():
    # ad_X1..ad_X5 of every grid member, shape (36, 5, 5, 5)
    return np.array([[ad_matrix(build_algebra(spec), i) for i in range(1, 6)]
                     for spec in default_grid()])


def test_mat_exp_on_the_grid_against_scipy():
    ad = _grid_ads()
    for t in (-1.5, -0.3, 0.7, 2.0):
        got = mat_exp(ad, t).reshape(-1, 5, 5)
        for a, g in zip(ad.reshape(-1, 5, 5), got):
            want = scipy.linalg.expm(t * a)
            assert np.abs(g - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_square_zero_steps_are_exact(monkeypatch):
    # ad_X1, ad_X3, ad_X4 and ad_X5 square to zero on every grid member, and
    # ad_X2 on none, so a stack of all five mixes both paths; only the ad_X2
    # steps take the Taylor path
    ad = _grid_ads()
    nil = ~(ad @ ad).any(axis=(-2, -1))
    assert nil[:, [0, 2, 3, 4]].all() and not nil[:, 1].any()
    rng = np.random.default_rng(3)
    t = rng.uniform(-2.0, 2.0, nil.shape)
    taylor, seen = lie_core._taylor_exp, []
    monkeypatch.setattr(lie_core, "_taylor_exp", lambda a: seen.append(len(a)) or taylor(a))
    got = mat_exp(ad, t)
    assert seen == [len(ad)]
    monkeypatch.undo()
    assert np.array_equal(got[nil], np.eye(5) + t[nil][:, None, None] * ad[nil])
    # on these sparse matrices the Taylor path gives the same bits, so no
    # flow moved when the exact steps came in
    assert np.array_equal(got[nil], lie_core._taylor_exp(t[nil][:, None, None] * ad[nil]))
    for a, tt, g in zip(ad.reshape(-1, 5, 5), t.ravel(), got.reshape(-1, 5, 5)):
        assert np.array_equal(g, mat_exp(a, tt))
    # the finiteness check comes first, on square-zero matrices too
    with pytest.raises(DomainError):
        mat_exp(ad[0, 0], np.inf)
    bad = ad.copy()
    bad[5, 3, 0, 4] = np.nan
    with pytest.raises(DomainError):
        mat_exp(bad, t)


@st.composite
def exp_args(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    m = rng.normal(0.0, 0.8, (4, 4))
    s = draw(st.floats(-1.0, 1.0, allow_nan=False))
    t = draw(st.floats(-1.0, 1.0, allow_nan=False))
    return m, s, t


@given(exp_args())
@settings(max_examples=60, deadline=None)
def test_mat_exp_group_law(args):
    m, s, t = args
    lhs = mat_exp(m, s) @ mat_exp(m, t)
    rhs = mat_exp(m, s + t)
    scale = max(1.0, np.abs(rhs).max())
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale


@given(exp_args())
@settings(max_examples=60, deadline=None)
def test_mat_exp_inverse(args):
    m, s, _ = args
    prod = mat_exp(m, s) @ mat_exp(m, -s)
    assert np.abs(prod - np.eye(4)).max() <= 1e-12 * max(1.0, np.abs(mat_exp(m, s)).max()) * max(
        1.0, np.abs(mat_exp(m, -s)).max()
    )


def test_numeric_rank():
    noisy = np.diag([1.0, 1.0, 0.0]) + 1e-13 * np.ones((3, 3))
    cases = [(np.zeros((4, 4)), 0), (np.eye(5), 5), (noisy, 2),
             (1e6 * noisy, 2),  # relative threshold
             (np.zeros((0, 3)), 0)]
    for m, rank in cases:
        assert numeric_rank(m) == rank
        assert type(numeric_rank(m)) is int
        # a stack gives one rank per matrix, shaped as its leading axes
        stack = np.stack([m, 0 * m, m]).reshape(3, 1, *m.shape)
        assert numeric_rank(stack).tolist() == [[rank], [0], [rank]]
    mixed = np.stack([np.zeros((3, 3)), np.eye(3), noisy, 1e6 * noisy])
    assert numeric_rank(mixed).tolist() == [0, 3, 2, 2]
    assert numeric_rank(np.zeros((0, 3, 3))).shape == (0,)


def test_numeric_rank_skew_pair():
    # rank of a skew form built from one hyperbolic pair stays 2 under noise
    e = np.eye(5)
    b = np.outer(e[0], e[1]) - np.outer(e[1], e[0])
    rng = np.random.default_rng(7)
    noise = rng.normal(size=(5, 5)) * 1e-12
    assert numeric_rank(b + noise - noise.T) == 2
    # a second pair makes rank 4, also where the squares of the entries
    # leave the float range; below 1 the threshold is tol itself
    b4 = b + np.outer(e[2], e[3]) - np.outer(e[3], e[2])
    assert [numeric_rank(k * b4) for k in (1.0, 1e150, 1e-150)] == [4, 4, 0]
    assert numeric_rank(np.stack([b4, b])).tolist() == [4, 2]
