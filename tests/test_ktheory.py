"""Integer matrix normal forms, K-groups of the model spaces, the six-term
solver, and the extension invariant."""

import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import invariant_factors

from md53c.errors import InconsistentInput, InvalidParams, UnsupportedExpr
from md53c.ktheory import (
    B_CROSSED,
    B_FIBRATION,
    J_DESCRIPTOR,
    MIDDLE_DESCRIPTOR,
    AbGroup,
    CrossedByRn,
    DisjointUnion,
    Euclid,
    ExtensionClass,
    Functions,
    HalfLine,
    Point,
    Product,
    Punctured,
    Sphere,
    StableFunctions,
    ZMat,
    _ext_class,
    _invariant_factors,
    descriptor_k_groups,
    hom_kernel_cokernel,
    index_invariant,
    scenario_input,
    six_term_solve,
    smith_normal_form,
    space_k_groups,
)

Z = AbGroup(1)
Z2 = AbGroup(2)
ZERO = AbGroup(0)


# --- independent integer linear algebra for cross-checking ---------------


def _det(a):
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if a[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in a[1:]]
            total += (-1) ** j * a[0][j] * _det(minor)
    return total


def _minor_gcd_factors(m):
    # d_k = gcd of all k x k minors; k-th invariant factor is d_k / d_{k-1}
    rows = [list(r) for r in m.entries]
    prev = 1
    out = []
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for ri in itertools.combinations(range(m.rows), k):
            for ci in itertools.combinations(range(m.cols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = math.gcd(g, abs(_det(sub)))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def _mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _bareiss_det(rows):
    # determinant by fraction-free elimination, in which every division is exact
    a = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(len(a)):
        piv = next((i for i in range(k, len(a)) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev


def _product(x, y):
    # x * y for ZMats, with any dimension 0
    return ZMat(x.rows, y.cols, [[sum(x.entries[i][k] * y.entries[k][j] for k in range(x.cols))
                                  for j in range(y.cols)] for i in range(x.rows)])


def _old_chain(factors):
    # the invariant-factor chain of a multiset of cyclic orders by repeated
    # (gcd, lcm) replacement, as AbGroup.direct_sum computed it before
    ds = sorted(abs(int(d)) for d in factors if abs(int(d)) > 1)
    changed = True
    while changed:
        changed = False
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                if ds[j] % ds[i]:
                    g = math.gcd(ds[i], ds[j])
                    ds[i], ds[j] = g, ds[i] * ds[j] // g
                    changed = True
        ds = sorted(d for d in ds if d > 1)
    return tuple(ds)


def test_zmat_basics():
    m = ZMat.from_rows([[1, 2], [3, 4]])
    assert (m.rows, m.cols) == (2, 2)
    assert not m.is_unimodular()  # determinant -2
    assert ZMat.identity(3).is_unimodular()
    assert ZMat.identity(0).is_unimodular()
    assert not ZMat.from_rows([[1, 0]]).is_unimodular()  # not square
    prod = ZMat.from_rows([[0, 1], [1, 0]]).mul(m)
    assert prod.entries == ((3, 4), (1, 2))
    assert ZMat.zeros(2, 3).entries == ((0, 0, 0), (0, 0, 0))
    with pytest.raises(InvalidParams):
        ZMat(2, 2, ((1, 2), (3,)))
    with pytest.raises(InvalidParams):
        ZMat(2, 2, ((1, 2.5), (3, 4)))
    with pytest.raises(InvalidParams):
        ZMat(-1, 0, ())
    with pytest.raises(InvalidParams):
        ZMat.zeros(2, 3).mul(ZMat.zeros(2, 3))


def _elementary(n, rng):
    # I plus q at one off-diagonal place, a row swap, or a sign flip
    e = [[int(i == j) for j in range(n)] for i in range(n)]
    i, j = (int(v) for v in rng.integers(0, n, 2))
    kind = int(rng.integers(3))
    if i != j and kind == 0:
        e[i][j] = int(rng.integers(-5, 6))
    elif i != j and kind == 1:
        e[i], e[j] = e[j], e[i]
    else:
        e[i][i] = -1
    return ZMat.from_rows(e)


def test_is_unimodular_matches_cofactor_det():
    rng = np.random.default_rng(8)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        rows = [[int(v) for v in rng.integers(-9, 10, n)] for _ in range(n)]
        assert ZMat.from_rows(rows).is_unimodular() == (abs(_det(rows)) == 1)
        # a product of elementary matrices is unimodular; scaling a row by 2 is not
        u = ZMat.identity(n)
        for _ in range(6):
            u = u.mul(_elementary(n, rng))
        rows = [list(r) for r in u.entries]
        assert abs(_det(rows)) == 1 and u.is_unimodular()
        i = int(rng.integers(n))
        rows[i] = [2 * v for v in rows[i]]
        assert abs(_det(rows)) == 2 and not ZMat.from_rows(rows).is_unimodular()


def test_snf_fixtures():
    d, _, _ = smith_normal_form(ZMat.from_rows([[1], [1]]))
    assert d.entries == ((1,), (0,))
    d, _, _ = smith_normal_form(ZMat.from_rows([[2, 4], [6, 8]]))
    assert (d.entries[0][0], d.entries[1][1]) == (2, 4)
    d, _, _ = smith_normal_form(ZMat.from_rows([[2, 0], [0, 3]]))
    assert (d.entries[0][0], d.entries[1][1]) == (1, 6)
    d, _, _ = smith_normal_form(ZMat.zeros(3, 2))
    assert all(v == 0 for row in d.entries for v in row)
    d, _, _ = smith_normal_form(ZMat.zeros(0, 3))
    assert (d.rows, d.cols) == (0, 3)


def test_snf_against_minor_gcd_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(120):
        r = int(rng.integers(1, 5))
        c = int(rng.integers(1, 5))
        m = ZMat.from_rows([[int(v) for v in rng.integers(-9, 10, c)] for _ in range(r)])
        d, u, v = smith_normal_form(m)
        # D = U m V exactly
        assert _mul(_mul([list(x) for x in u.entries], [list(x) for x in m.entries]),
                    [list(x) for x in v.entries]) == [list(x) for x in d.entries]
        assert abs(_det([list(x) for x in u.entries])) == 1
        assert abs(_det([list(x) for x in v.entries])) == 1
        diag = [d.entries[i][i] for i in range(min(r, c))]
        nonzero = tuple(x for x in diag if x != 0)
        assert nonzero == _minor_gcd_factors(m)
        assert all(x == 0 for x in diag[len(nonzero):])
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0


def _assert_smith_form(m):
    # D = U m V with U and V unimodular, D in Smith form with sympy's factors,
    # the factors path agreeing, and the kernel and cokernel read off them
    r, c = m.rows, m.cols
    d, u, v = smith_normal_form(m)
    assert _product(_product(u, m), v) == d
    assert abs(_bareiss_det(u.entries)) == 1 and abs(_bareiss_det(v.entries)) == 1
    assert all(x == 0 for i, row in enumerate(d.entries) for j, x in enumerate(row) if i != j)
    diag = [d.entries[i][i] for i in range(min(r, c))]
    factors = tuple(x for x in diag if x)
    assert all(x > 0 for x in factors) and not any(diag[len(factors):])
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    assert _invariant_factors(m.entries) == factors
    ker, coker = hom_kernel_cokernel(m)
    assert (ker.free_rank, coker.free_rank) == (c - len(factors), r - len(factors))
    assert coker.torsion == tuple(x for x in factors if x > 1)
    flat = [x for row in m.entries for x in row]
    assert tuple(abs(int(x)) for x in invariant_factors(Matrix(r, c, flat)) if x) == factors
    return d, u, v


@given(st.integers(0, 2**32 - 1), st.integers(0, 12), st.integers(0, 12),
       st.floats(0.3, 1.0), st.sampled_from([1, 9, 100, 2**70]))
@example(7, 12, 12, 1.0, 9)
@example(7, 12, 12, 1.0, 2**70)
@example(7, 0, 5, 1.0, 9)
@example(7, 5, 0, 1.0, 9)
@settings(max_examples=40, deadline=None)
def test_snf_at_workload_sizes(seed, r, c, density, bound):
    rng = random.Random(seed)
    m = ZMat(r, c, [[rng.randint(-bound, bound) if rng.random() < density else 0
                     for _ in range(c)] for _ in range(r)])
    _assert_smith_form(m)


@pytest.mark.parametrize("m, factors", [
    # column 0 is zero, so the first pivot is brought in from a later column
    pytest.param(ZMat.from_rows([[0, 0, 2], [0, 3, 0]]), (1, 6), id="zero-leading-column"),
    # a remainder left in row t swaps its column into t
    pytest.param(ZMat.from_rows([[2, 3]]), (1,), id="row-remainder-1x2"),
    pytest.param(ZMat.from_rows([[4, 6, 9]]), (1,), id="row-remainder-1x3"),
    # a clean diagonal whose pivot does not divide the rest
    pytest.param(ZMat.from_rows([[4, 0, 0], [0, 6, 0], [0, 0, 10]]), (2, 2, 60),
                 id="divisibility-fix"),
    pytest.param(ZMat.from_rows([[-3]]), (3,), id="negative-1x1"),
    pytest.param(ZMat.from_rows([[-4, 0], [0, -6]]), (2, 12), id="negative-diagonal"),
    pytest.param(ZMat.from_rows([[0, -5], [-10, 0]]), (5, 10), id="negative-antidiagonal"),
    pytest.param(ZMat.zeros(3, 2), (), id="zero-3x2"),
    pytest.param(ZMat.zeros(0, 3), (), id="zero-0x3"),
    pytest.param(ZMat.zeros(3, 0), (), id="zero-3x0"),
    pytest.param(ZMat.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 1]]), (1,), id="one-in-the-corner"),
    pytest.param(ZMat.from_rows([[0, 0, 0, 0], [0, 0, 0, 1]]), (1,), id="one-in-the-corner-2x4"),
])
def test_snf_branch_fixtures(m, factors):
    d, _, _ = _assert_smith_form(m)
    diag = [d.entries[i][i] for i in range(min(d.rows, d.cols))]
    assert tuple(x for x in diag if x) == factors


def test_snf_transforms_stay_small():
    # dense 12 x 12 matrices with 70-bit entries: U and V reach 3,835-4,673 bits
    rng = random.Random(0)
    for _ in range(3):
        m = ZMat(12, 12, [[rng.randint(-2**70, 2**70) for _ in range(12)] for _ in range(12)])
        _, u, v = _assert_smith_form(m)
        assert max(abs(x).bit_length() for w in (u, v) for row in w.entries for x in row) <= 8000


def test_hom_kernel_cokernel():
    ker, coker = hom_kernel_cokernel(ZMat.from_rows([[1], [1]]))
    assert ker == ZERO and coker == Z
    ker, coker = hom_kernel_cokernel(ZMat.zeros(0, 1))
    assert ker == Z and coker == ZERO
    ker, coker = hom_kernel_cokernel(ZMat.from_rows([[2, 0], [0, 3]]))
    assert ker == ZERO
    assert coker == AbGroup(0, (6,))
    ker, coker = hom_kernel_cokernel(ZMat.zeros(2, 3))
    assert ker == AbGroup(3) and coker == Z2


def test_abgroup_validation_and_sum():
    with pytest.raises(InvalidParams):
        AbGroup(-1)
    with pytest.raises(InvalidParams):
        AbGroup(0, (1,))
    with pytest.raises(InvalidParams):
        AbGroup(0, (3, 2))  # not a divisor chain
    assert AbGroup(0, (2,)).direct_sum(AbGroup(0, (3,))) == AbGroup(0, (6,))
    assert AbGroup(0, (2, 4)).torsion == (2, 4)
    assert AbGroup(0, (4,)).direct_sum(AbGroup(0, (6,))) == AbGroup(0, (2, 12))
    assert Z.direct_sum(AbGroup(1, (2,))) == AbGroup(2, (2,))
    assert AbGroup(0, (2,)).is_zero is False and ZERO.is_zero


_ORDERS = st.one_of(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12, 25, 2**64, 3 * 2**64, 2**64 + 1]),
                    st.integers(2, 2**70))


@given(st.lists(_ORDERS, max_size=6), st.lists(_ORDERS, max_size=6))
@example([2, 2, 3], [3, 4])
@example([2**64 + 1, 2**64], [2**64, 3 * 2**64])
@settings(max_examples=80, deadline=None)
def test_direct_sum_matches_the_gcd_lcm_chain(xs, ys):
    a, b = AbGroup(1, _old_chain(xs)), AbGroup(2, _old_chain(ys))
    assert a.direct_sum(b) == AbGroup(3, _old_chain(xs + ys))
    cyclic = functools.reduce(lambda g, d: g.direct_sum(AbGroup(0, (d,))), xs + ys, AbGroup())
    assert cyclic == AbGroup(0, _old_chain(xs + ys))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), None, 2.5, 1.5, "3"])
def test_one_integer_rule(bad):
    # a space dimension too: a fractional or non-finite one gave a K-group by
    # its parity, and Sphere("3") raised TypeError
    plane = StableFunctions(Euclid(2))
    for make in (Euclid, Sphere, Punctured, lambda n: CrossedByRn(plane, n)):
        with pytest.raises(InvalidParams):
            make(bad)
    with pytest.raises(InvalidParams):
        ZMat(1, 2, ((1, bad),))
    with pytest.raises(InvalidParams):
        ZMat(bad, 0, ())
    with pytest.raises(InvalidParams):
        AbGroup(bad)
    with pytest.raises(InvalidParams):
        AbGroup(0, (2, bad))


def test_integer_values_are_stored_as_plain_ints():
    with pytest.raises(InvalidParams):
        AbGroup(0, (2.7,))
    g = AbGroup(True, (np.int64(2), 4.0))
    assert g.to_json() == {"free": 1, "torsion": [2, 4]}
    assert type(g.free_rank) is int and all(type(d) is int for d in g.torsion)
    assert str(g) == "Z + Z/2 + Z/4"
    m = ZMat(2.0, np.int64(1), ((True,), (np.int64(-3),)))
    assert (m.rows, m.cols, m.entries) == (2, 1, ((1,), (-3,)))
    assert all(type(x) is int for x in (m.rows, m.cols, *m.entries[0], *m.entries[1]))
    plane = StableFunctions(Euclid(2))
    nodes = (Euclid(np.int64(3)), Sphere(2.0), Punctured(True), CrossedByRn(plane, np.int64(2)))
    assert [node.n for node in nodes] == [3, 2, 1, 2]
    assert all(type(node.n) is int for node in nodes)
    assert Sphere(2.0) == Sphere(2) and hash(Sphere(2.0)) == hash(Sphere(2))


def test_abgroup_str():
    assert str(ZERO) == "0"
    assert str(Z) == "Z"
    assert str(Z2) == "Z^2"
    assert str(AbGroup(0, (6,))) == "Z/6"
    assert str(AbGroup(1, (2,))) == "Z + Z/2"
    assert AbGroup.from_json(AbGroup(1, (2, 4)).to_json()) == AbGroup(1, (2, 4))


def test_space_fixtures():
    assert space_k_groups(Point()) == (Z, ZERO)
    assert space_k_groups(Euclid(1)) == (ZERO, Z)
    assert space_k_groups(Euclid(2)) == (Z, ZERO)
    assert space_k_groups(HalfLine()) == (ZERO, Z)
    assert space_k_groups(Sphere(2)) == (Z2, ZERO)
    assert space_k_groups(Sphere(1)) == (Z, Z)
    assert space_k_groups(Sphere(0)) == (Z2, ZERO)
    assert space_k_groups(Punctured(3)) == (ZERO, Z2)
    assert space_k_groups(Punctured(2)) == (Z, Z)
    with pytest.raises(InvalidParams):
        Euclid(0)
    with pytest.raises(InvalidParams):
        Sphere(-1)
    with pytest.raises(InvalidParams):
        Punctured(0)


def test_bott_shift():
    for x in (Point(), Sphere(2), Punctured(3), HalfLine()):
        assert space_k_groups(Product(x, Euclid(2))) == space_k_groups(x)
        k0, k1 = space_k_groups(x)
        assert space_k_groups(Product(x, Euclid(1))) == (k1, k0)


def test_punctured_matches_product_rule():
    for n in (1, 2, 3, 4):
        direct = space_k_groups(Punctured(n))
        via_product = space_k_groups(Product(Sphere(n - 1), Euclid(1)))
        assert direct == via_product
        if n % 2 == 1:
            assert direct == (ZERO, Z2)
        else:
            assert direct == (Z, Z)


def test_disjoint_union_adds():
    k0, k1 = space_k_groups(DisjointUnion(Euclid(3), Euclid(3)))
    assert (k0, k1) == (ZERO, Z2)
    k0, k1 = space_k_groups(DisjointUnion(Point(), Sphere(2)))
    assert k0 == AbGroup(3) and k1 == ZERO


def test_kunneth_needs_free_factors():
    # every rule gives free groups, so the Kunneth formula needs no Tor term
    assert space_k_groups(Product(Sphere(2), Sphere(2))) == (AbGroup(4), ZERO)
    leaves = [Point(), Euclid(1), Euclid(2), Sphere(0), Sphere(1), Punctured(3), HalfLine()]
    for a, b in itertools.product(leaves, repeat=2):
        for x in (Product(a, b), DisjointUnion(a, b), Product(Product(a, b), DisjointUnion(b, a))):
            assert all(g.is_free for g in space_k_groups(x))
    with pytest.raises(UnsupportedExpr):
        space_k_groups("not a space")


def _group_recursion(x):
    # the AbGroup-valued recursion that space_k_groups ran before it read free
    # ranks: a group per node, a direct sum per union, a product node per
    # punctured space
    if isinstance(x, Point):
        return AbGroup(1), AbGroup(0)
    if isinstance(x, Euclid):
        return (AbGroup(1), AbGroup(0)) if x.n % 2 == 0 else (AbGroup(0), AbGroup(1))
    if isinstance(x, HalfLine):
        return AbGroup(0), AbGroup(1)
    if isinstance(x, Sphere):
        return (AbGroup(2), AbGroup(0)) if x.n % 2 == 0 else (AbGroup(1), AbGroup(1))
    if isinstance(x, Punctured):
        return _group_recursion(Product(Sphere(x.n - 1), Euclid(1)))
    a0, a1 = _group_recursion(x.a)
    b0, b1 = _group_recursion(x.b)
    if isinstance(x, Product):
        return (AbGroup(a0.free_rank * b0.free_rank + a1.free_rank * b1.free_rank),
                AbGroup(a0.free_rank * b1.free_rank + a1.free_rank * b0.free_rank))
    return a0.direct_sum(b0), a1.direct_sum(b1)


def _descriptor_recursion(d):
    if isinstance(d, CrossedByRn):
        k0, k1 = _descriptor_recursion(d.inner)
        return (k0, k1) if d.n % 2 == 0 else (k1, k0)
    return _group_recursion(d.space)


_LEAVES = st.one_of(st.builds(Point), st.builds(HalfLine), st.builds(Euclid, st.integers(1, 9)),
                    st.builds(Sphere, st.integers(0, 9)), st.builds(Punctured, st.integers(1, 9)))


def _space_trees(depth):
    # every space of the seven node kinds whose tree is at most depth deep
    if depth == 1:
        return _LEAVES
    sub = _space_trees(depth - 1)
    return st.one_of(_LEAVES, st.builds(Product, sub, sub), st.builds(DisjointUnion, sub, sub))


@given(_space_trees(4))
@example(Punctured(1))
@example(DisjointUnion(Product(Sphere(0), Punctured(4)), Product(HalfLine(), Point())))
@settings(max_examples=300, deadline=None)
def test_free_rank_calculus_matches_the_group_recursion(x):
    assert space_k_groups(x) == _group_recursion(x)
    assert descriptor_k_groups(Functions(x)) == _group_recursion(x)
    crossed = CrossedByRn(StableFunctions(x), 1)
    assert descriptor_k_groups(crossed) == _descriptor_recursion(crossed)


def test_constant_descriptor_groups():
    constants = {J_DESCRIPTOR: (ZERO, Z2), B_CROSSED: (Z, Z), B_FIBRATION: (Z, ZERO),
                 MIDDLE_DESCRIPTOR: (ZERO, Z2)}
    for d, groups in constants.items():
        assert descriptor_k_groups(d) == _descriptor_recursion(d) == groups
    paper, fibration = scenario_input("paper"), scenario_input("fibration")
    for inp, b in ((paper, B_CROSSED), (fibration, B_FIBRATION)):
        assert (inp.k0_j, inp.k1_j) == constants[J_DESCRIPTOR]
        assert (inp.k0_b, inp.k1_b) == constants[b]
        assert inp.delta1 == ZMat.zeros(0, inp.k1_b.free_rank)
    assert paper.expected_middle == constants[MIDDLE_DESCRIPTOR]
    assert fibration.expected_middle is None


def test_descriptor_k_groups():
    space = Product(Euclid(1), HalfLine())
    assert descriptor_k_groups(StableFunctions(space)) == descriptor_k_groups(Functions(space))
    assert descriptor_k_groups(StableFunctions(space)) == (Z, ZERO)
    inner = StableFunctions(Product(Euclid(2), Punctured(2)))
    assert descriptor_k_groups(inner) == (Z, Z)
    plane = StableFunctions(Euclid(2))
    assert descriptor_k_groups(plane) == (Z, ZERO)
    assert descriptor_k_groups(CrossedByRn(plane, 1)) == (ZERO, Z)  # crossing flips parity
    assert descriptor_k_groups(CrossedByRn(plane, 2)) == (Z, ZERO)
    with pytest.raises(InvalidParams):
        CrossedByRn(CrossedByRn(CrossedByRn(plane, 1), 1), 1)
    with pytest.raises(InvalidParams):
        CrossedByRn(plane, 0)
    with pytest.raises(UnsupportedExpr):
        descriptor_k_groups("not a descriptor")


def test_extension_class_descriptor():
    j = StableFunctions(DisjointUnion(Euclid(3), Euclid(3)))
    b = StableFunctions(Product(Euclid(1), HalfLine()))
    ext = ExtensionClass(j, b, ZMat.from_rows([[1], [1]]), ZMat.zeros(0, 0))
    k0, k1 = descriptor_k_groups(ext)
    assert k0 == ZERO and k1 == Z
    # an extension can genuinely produce torsion in the middle
    twisted = ExtensionClass(
        StableFunctions(Euclid(1)),
        StableFunctions(Point()),
        ZMat.from_rows([[2]]),
        ZMat.zeros(0, 0),
    )
    assert descriptor_k_groups(twisted) == (ZERO, AbGroup(0, (2,)))


def test_six_term_scenarios():
    sol = six_term_solve(scenario_input("paper"))
    assert sol.k0_mid == ZERO and sol.k1_mid == Z2
    sol = six_term_solve(scenario_input("fibration"))
    assert sol.k0_mid == ZERO and sol.k1_mid == Z
    doc = sol.to_json()
    assert doc["middle"] == {"K0": {"free": 0, "torsion": []}, "K1": {"free": 1, "torsion": []}}
    with pytest.raises(InvalidParams):
        scenario_input("unknown")


def test_six_term_middle_against_minor_gcd_oracle():
    # random free corners and connecting maps; the middle ranks and torsion
    # come from the minor-gcd invariant factors, not from a Smith form
    from md53c.ktheory import SixTermInput

    rng = np.random.default_rng(53)
    for _ in range(200):
        k0_j, k1_j, k0_b, k1_b = (int(v) for v in rng.integers(0, 5, 4))
        d0 = ZMat(k1_j, k0_b, rng.integers(-4, 5, (k1_j, k0_b)).tolist())
        d1 = ZMat(k0_j, k1_b, rng.integers(-4, 5, (k0_j, k1_b)).tolist())
        sol = six_term_solve(SixTermInput(AbGroup(k0_j), AbGroup(k1_j), AbGroup(k0_b),
                                          AbGroup(k1_b), d0, d1))
        f0, f1 = _minor_gcd_factors(d0), _minor_gcd_factors(d1)
        # K0 = coker(delta1) + ker(delta0), K1 = coker(delta0) + ker(delta1)
        assert sol.k0_mid == AbGroup(k0_j - len(f1) + k0_b - len(f0),
                                     tuple(f for f in f1 if f > 1))
        assert sol.k1_mid == AbGroup(k1_j - len(f0) + k1_b - len(f1),
                                     tuple(f for f in f0 if f > 1))
        assert sol.consistency == ()


def test_six_term_zero_ring():
    from md53c.ktheory import SixTermInput

    inp = SixTermInput(ZERO, ZERO, ZERO, ZERO, ZMat.zeros(0, 0), ZMat.zeros(0, 0))
    sol = six_term_solve(inp)
    assert sol.k0_mid == ZERO and sol.k1_mid == ZERO


def test_six_term_input_checks():
    from md53c.ktheory import SixTermInput

    with pytest.raises(InvalidParams):
        six_term_solve(SixTermInput(ZERO, Z2, Z, Z, ZMat.zeros(3, 1), ZMat.zeros(0, 1)))
    with pytest.raises(InvalidParams, match="delta1 shape"):
        six_term_solve(SixTermInput(ZERO, Z2, Z, Z, ZMat.zeros(2, 1), ZMat.zeros(1, 1)))
    with pytest.raises(UnsupportedExpr):
        six_term_solve(
            SixTermInput(AbGroup(0, (2,)), Z2, Z, Z, ZMat.zeros(2, 1), ZMat.zeros(0, 1))
        )
    good = scenario_input("paper")
    with pytest.raises(InconsistentInput):
        six_term_solve(
            SixTermInput(
                good.k0_j,
                good.k1_j,
                good.k0_b,
                good.k1_b,
                good.delta0,
                good.delta1,
                scenario="paper",
                expected_middle=(Z, Z),
            )
        )


def test_index_invariant_default():
    j = StableFunctions(DisjointUnion(Euclid(3), Euclid(3)))
    b = CrossedByRn(StableFunctions(Product(Euclid(2), Punctured(2))), 2)
    rep = index_invariant(j, b, ZMat.from_rows([[1], [1]]), ZMat.zeros(0, 1))
    assert rep.ext_group == Z2
    assert rep.delta0_factors == (1,)
    doc = rep.to_json()
    assert doc["ext_class"]["invariant_factors"]["delta0"] == [1]
    assert doc["middle"]["K1"] == {"free": 2, "torsion": []}
    assert [entry["node"] for entry in doc["consistency"]] == ["delta0", "delta1"]


def test_index_invariant_rejects_doubled_map():
    j = StableFunctions(DisjointUnion(Euclid(3), Euclid(3)))
    b = CrossedByRn(StableFunctions(Product(Euclid(2), Punctured(2))), 2)
    doubled = ZMat.from_rows([[2], [2]])
    with pytest.raises(InconsistentInput):
        index_invariant(j, b, doubled, ZMat.zeros(0, 1))
    middle = descriptor_k_groups(
        CrossedByRn(StableFunctions(Product(Euclid(2), Punctured(3))), 2)
    )
    with pytest.raises(InconsistentInput):
        index_invariant(j, b, doubled, ZMat.zeros(0, 1), middle=middle)
    # delta1 is checked too: K1(R) = Z -> K0(point) = Z by 2
    with pytest.raises(InconsistentInput, match=r"^coker\(delta1\) = Z/2 has torsion"):
        index_invariant(StableFunctions(Point()), StableFunctions(Euclid(1)), ZMat.zeros(0, 0),
                        ZMat.from_rows([[2]]))


def test_index_invariant_gl_equivalence():
    j = StableFunctions(DisjointUnion(Euclid(3), Euclid(3)))
    b = CrossedByRn(StableFunctions(Product(Euclid(2), Punctured(2))), 2)
    rep_a = index_invariant(j, b, ZMat.from_rows([[1], [1]]), ZMat.zeros(0, 1))
    rep_b = index_invariant(j, b, ZMat.from_rows([[1], [0]]), ZMat.zeros(0, 1))
    assert rep_a.delta0_factors == rep_b.delta0_factors == (1,)


def test_extension_class_over_the_delta0_box():
    # "the class is ((1,1)^t, 0) up to basis change", computed: for every
    # delta0 in [-4, 4]^2 the paper reading accepts exactly the primitive
    # vectors, the fibration reading also the zero map, and each refusal
    # says why
    for a, b in itertools.product(range(-4, 5), repeat=2):
        g = math.gcd(a, b)
        delta0 = ZMat(2, 1, ((a,), (b,)))
        for name, bdesc in (("paper", B_CROSSED), ("fibration", B_FIBRATION)):
            inp = scenario_input(name, delta0)
            if g == 1 or (name == "fibration" and g == 0):
                sol = _ext_class(inp)
                if name == "paper":
                    middle = (ZERO, Z2)
                else:
                    middle = (ZERO, Z) if g else (Z, Z2)
                assert sol.delta0_factors == (1,) * g and sol.delta1_factors == ()
                assert (sol.k0_mid, sol.k1_mid) == middle
                assert [c["node"] for c in sol.consistency] == ["delta0", "delta1"]
                via = index_invariant(J_DESCRIPTOR, bdesc, delta0, inp.delta1,
                                      middle=inp.expected_middle)
                assert via.to_json() == {**sol.to_json(), "scenario": ""}
                continue
            if name == "paper":
                got = "(Z, Z^3)" if g == 0 else f"(0, Z^2 + Z/{g})"
                message = f"middle K-groups {got} contradict the known middle (0, Z^2)"
            else:
                message = (f"coker(delta0) = Z + Z/{g} has torsion, but it must embed in a "
                           "free middle K-group by exactness")
            with pytest.raises(InconsistentInput) as err:
                _ext_class(inp)
            assert str(err.value) == message
    # two solutions, and two payloads of one solution, share no dict
    sol_a, sol_b = (_ext_class(scenario_input("paper")) for _ in range(2))
    assert sol_a.consistency[0] is not sol_b.consistency[0]
    doc_a, doc_b = sol_a.to_json(), sol_a.to_json()
    assert doc_a == doc_b and doc_a["consistency"][0] is not doc_b["consistency"][0]


def test_index_invariant_refuses_torsion_corner():
    twisted = ExtensionClass(
        StableFunctions(Euclid(1)),
        StableFunctions(Point()),
        ZMat.from_rows([[2]]),
        ZMat.zeros(0, 0),
    )
    with pytest.raises(UnsupportedExpr):
        index_invariant(twisted, StableFunctions(Point()), ZMat.zeros(0, 1), ZMat.zeros(0, 0))
