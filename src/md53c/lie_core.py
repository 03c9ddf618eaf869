"""Shared kernel: structure constants, adjoint matrices, matrix exponentials
and exact ranks.  jacobi_defect and derived_subalgebra take one algebra or a
stack of structure arrays, so a grid is checked in one call.

Basis vectors are written X1..X5 in docstrings and tables.  Coordinate
vectors are plain numpy arrays (0-based); public functions that take a basis
index (ad_matrix, flow directions) use the 1-based X-numbering so the code
reads like the bracket tables it implements.
"""

import itertools
import math

import numpy as np

from .errors import DomainError

__all__ = [
    "StructureConstants",
    "bracket",
    "ad_matrix",
    "jacobi_defect",
    "derived_subalgebra",
    "mat_exp",
    "exact_rank",
]


class StructureConstants:
    """Structure constants of a real Lie algebra in a fixed basis.

    ``c[i, j, k]`` is the X_{k+1}-coefficient of [X_{i+1}, X_{j+1}] (the
    array is 0-based).  The constructor takes 1-based entries
    (i, j, k, value) with i < j and fills the lower triangle by
    antisymmetry; from_array takes the full array.
    """

    def __init__(self, dim, entries=()):
        c = np.zeros((dim, dim, dim))
        for i, j, k, value in entries:
            if not (1 <= i < j <= dim and 1 <= k <= dim):
                raise ValueError(f"bad structure entry ({i}, {j}, {k}): need 1 <= i < j <= {dim}")
            c[i - 1, j - 1, k - 1] = value
            c[j - 1, i - 1, k - 1] = -value
        self.dim = dim
        self.c = c

    @classmethod
    def from_array(cls, c):
        c = np.asarray(c, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise ValueError("structure array must be dim x dim x dim")
        if not np.array_equal(c, -c.transpose(1, 0, 2)):
            raise ValueError("structure array is not antisymmetric in (i, j)")
        sc = cls(c.shape[0])
        sc.c = c.copy()
        return sc

    def __eq__(self, other):
        return (
            isinstance(other, StructureConstants)
            and self.dim == other.dim
            and np.array_equal(self.c, other.c)
        )

    def __repr__(self):
        n = np.count_nonzero(self.c[np.triu_indices(self.dim, 1)])
        return f"StructureConstants(dim={self.dim}, entries={n})"


def bracket(sc, u, v):
    """[u, v] for coordinate vectors u, v."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.einsum("ijk,i,j->k", sc.c, u, v)


def ad_matrix(sc, i):
    """Matrix of ad_{Xi} (column j holds the coordinates of [Xi, X_{j+1}]).

    The basis index i is 1-based: ad_matrix(sc, 2) is ad_{X2}.
    """
    if not 1 <= i <= sc.dim:
        raise ValueError(f"basis index {i} out of range 1..{sc.dim}")
    return sc.c[i - 1].T.copy()


def _structure_array(sc):
    # the array of a StructureConstants, or a stack (..., n, n, n) as given
    return sc.c if isinstance(sc, StructureConstants) else np.asarray(sc, dtype=float)


def jacobi_defect(sc):
    """Largest violation of the Jacobi identity over basis triples.

    Returns max over i<j<k of the sup-norm of
    [Xi,[Xj,Xk]] + [Xj,[Xk,Xi]] + [Xk,[Xi,Xj]]; zero for a Lie algebra.  For
    a stack (..., n, n, n) of structure arrays, one defect per array.  Each
    of the three cyclic terms of all C(n, 3) triples comes from one batched
    product: [Xa, [Xb, Xc]] is the row c[b, c] times the matrix c[a].
    """
    c = _structure_array(sc)
    ijk = np.array(list(itertools.combinations(range(c.shape[-1]), 3)), dtype=int).reshape(-1, 3).T
    # the triples as (i, j, k), then as (j, k, i) and as (k, i, j)
    a, b, e = np.concatenate([np.roll(ijk, -r, axis=0) for r in range(3)], axis=1)
    terms = np.split((c[..., b, e, None, :] @ c[..., a, :, :])[..., 0, :], 3, axis=-2)
    out = np.abs(sum(terms)).max(axis=(-2, -1), initial=0.0)
    return float(out) if out.ndim == 0 else out


def derived_subalgebra(sc):
    """Dimension and a basis (rows) of span{[Xi, Xj]}, exact: the brackets,
    i < j in order, independent of those before them.  For a stack (..., n,
    n, n) of structure arrays, the dimensions as an array and the bases
    (..., n, n), each zero past its first dimension rows."""
    c = _structure_array(sc)
    n = c.shape[-1]
    iu, ju = np.triu_indices(n, 1)
    rows = c.reshape(-1, n, n, n)[:, iu, ju]
    rows = rows[:, rows.any(axis=(0, 2))]  # a bracket zero in every member is no pivot
    m, i, k = np.array([(m, i, k) for m, member in enumerate(_integers(rows))
                        for i, k in enumerate(_pivots(member))], dtype=int).reshape(-1, 3).T
    basis = np.zeros(c.shape[:-1])
    basis.reshape(-1, n, n)[m, i] = rows[m, k]
    dims = basis.any(axis=-1).sum(axis=-1)
    return (int(dims), basis[:dims]) if c.ndim == 3 else (dims, basis)


def mat_exp(m, t=1.0):
    """exp(t*m) for one matrix or a stack (..., n, n), t broadcasting against
    the leading axes.  Where a = t*m squares to exactly zero the series stops
    at I + a, which is returned as it is.  Every other matrix is scaled by its
    own power of two to an inf-norm of at most 1/2, where the degree-13 Taylor
    polynomial is accurate to full double precision, and squared back; no
    eigendecomposition is used."""
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.asarray(t, dtype=float)[..., None, None] * np.asarray(m, dtype=float)
        taylor = (a @ a).any(axis=(-2, -1))
    if not np.isfinite(a).all():
        raise DomainError("the matrix exponential is out of range: t*m has a non-finite entry")
    x = np.eye(a.shape[-1]) + a
    if taylor.any():
        x[taylor] = _taylor_exp(a[taylor])
    return x


def _taylor_exp(a):
    # exp of each matrix of the stack a (k, n, n) by scaling and squaring
    squarings = np.ceil(np.log2(np.maximum(np.linalg.norm(a, np.inf, axis=(-2, -1)), 0.5) / 0.5))
    a = a / np.ldexp(1.0, squarings.astype(int))[..., None, None]
    x = term = np.eye(a.shape[-1])
    for k in range(1, 14):
        term = term @ a / k
        x = x + term
    for r in range(int(squarings.max(initial=0))):
        sq = squarings > r
        x[sq] = x[sq] @ x[sq]
    return x


def _integers(a):
    """Each matrix of the float array a (..., r, c) times a power of two that
    makes it whole, as lists of Python ints: a float is m * 2**(e - 53), m whole."""
    if not np.isfinite(a).all():
        raise DomainError("an exact rank needs finite entries")
    m, e = np.frexp(a)
    m = np.ldexp(m, 53).astype(np.int64)
    e -= e.min(axis=(-2, -1), keepdims=True, initial=0)  # a zero's e = 0 only adds shift
    if e.max(initial=0) > 9:  # m << e could overflow int64
        m, e = m.astype(object), e.astype(object)
    return (m << e).tolist()


def _pivots(rows):
    """Indices of the rows of an integer matrix (lists of Python ints) that
    are independent of the rows before them, as many as its rank: each row
    is reduced by the kept rows in fraction-free steps, p * row - f * top at
    top's leading column, and divided by its gcd so the integers stay small."""
    kept = []  # (index, leading column, row) of each kept row
    for k, row in enumerate(rows):
        for _, col, top in kept:
            f = row[col]
            if f:
                p = top[col]
                row = [p * x - f * y for x, y in zip(row, top)]
                g = math.gcd(*row) or 1
                row = [x // g for x in row]
        if any(row):
            kept.append((k, list(map(bool, row)).index(True), row))
    return [k for k, _, _ in kept]


def exact_rank(rows):
    """The exact rank of a float array, or of rows (lists) of Python ints of
    any size: a float matrix times a power of two is whole, so no tolerance."""
    return len(_pivots(_integers(rows) if isinstance(rows, np.ndarray) else rows))
