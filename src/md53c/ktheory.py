"""Exact integer K-theory bookkeeping: Smith normal form with tracked
unimodular factors, finitely generated abelian groups, a compositional
K-group calculus for function algebras of simple spaces, descriptor rewriting
for crossed products and stabilization, the six-term solver, and the index
invariant of the boundary extension.

All arithmetic is over Python integers; nothing here is floating point.
"""

import math
from dataclasses import dataclass, replace

from .errors import InconsistentInput, InvalidParams, UnsupportedExpr

__all__ = [
    "ZMat",
    "AbGroup",
    "smith_normal_form",
    "hom_kernel_cokernel",
    "Point",
    "Euclid",
    "Sphere",
    "Punctured",
    "HalfLine",
    "Product",
    "DisjointUnion",
    "space_k_groups",
    "StableFunctions",
    "Functions",
    "CrossedByRn",
    "ExtensionClass",
    "descriptor_k_groups",
    "SixTermInput",
    "SixTermSolution",
    "six_term_solve",
    "index_invariant",
    "J_DESCRIPTOR",
    "B_CROSSED",
    "B_FIBRATION",
    "MIDDLE_DESCRIPTOR",
    "DELTA0_DEFAULT",
    "scenario_input",
]


@dataclass(frozen=True)
class ZMat:
    """Dense integer matrix; rows x cols, entries as a tuple of row tuples."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise InvalidParams("matrix dimensions must be nonnegative")
        ent = tuple(tuple(int(x) for x in row) for row in self.entries)
        if any(v != x for vr, xr in zip(ent, self.entries) for v, x in zip(vr, xr)):
            raise InvalidParams("matrix entries must be integers")
        if len(ent) != self.rows or any(len(r) != self.cols for r in ent):
            raise InvalidParams("entry grid does not match declared shape")
        object.__setattr__(self, "entries", ent)

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        return cls(len(rows), len(rows[0]) if rows else 0, rows)

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def mul(self, other):
        if self.cols != other.rows:
            raise InvalidParams("dimension mismatch in matrix product")
        out = [
            [sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
             for j in range(other.cols)]
            for i in range(self.rows)
        ]
        return ZMat(self.rows, other.cols, out)

    def det(self):
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise InvalidParams("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(r) for r in self.entries]
        sign, prev = 1, 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def is_unimodular(self):
        return self.rows == self.cols and abs(self.det()) == 1

    def to_json(self):
        return {"rows": self.rows, "cols": self.cols,
                "entries": [list(r) for r in self.entries]}


def _chain(factors):
    # canonicalize a multiset of cyclic orders into the invariant-factor
    # chain d1 | d2 | ... by repeated (gcd, lcm) replacement
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


@dataclass(frozen=True)
class AbGroup:
    """Finitely generated abelian group: free rank plus the invariant-factor
    chain (each factor >= 2, each dividing the next)."""

    free_rank: int = 0
    torsion: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise InvalidParams("free rank must be nonnegative")
        tor = tuple(int(d) for d in self.torsion)
        for d in tor:
            if d < 2:
                raise InvalidParams("torsion invariant factors must be >= 2")
        for a, b in zip(tor, tor[1:]):
            if b % a:
                raise InvalidParams("torsion factors must form a divisibility chain")
        object.__setattr__(self, "torsion", tor)

    @property
    def is_zero(self):
        return self.free_rank == 0 and not self.torsion

    @property
    def is_free(self):
        return not self.torsion

    def direct_sum(self, other):
        return AbGroup(self.free_rank + other.free_rank,
                       _chain(self.torsion + other.torsion))

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        return {"free": self.free_rank, "torsion": list(self.torsion)}

    @classmethod
    def from_json(cls, d):
        return cls(d["free"], tuple(d.get("torsion", ())))


def smith_normal_form(m):
    """Smith normal form with tracked transforms: returns (D, U, V) with
    D = U * m * V, U and V unimodular, D diagonal with d1 | d2 | ..."""
    r, c = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    v = [[int(i == j) for j in range(c)] for i in range(c)]

    def row_sub(i, j, q):
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(i, j, q):
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    for t in range(min(r, c)):
        while True:
            best, pos = None, None
            for i in range(t, r):
                for j in range(t, c):
                    x = abs(a[i][j])
                    if x and (best is None or x < best):
                        best, pos = x, (i, j)
            if pos is None:
                break
            if pos[0] != t:
                a[t], a[pos[0]] = a[pos[0]], a[t]
                u[t], u[pos[0]] = u[pos[0]], u[t]
            if pos[1] != t:
                for row in a:
                    row[t], row[pos[1]] = row[pos[1]], row[t]
                for row in v:
                    row[t], row[pos[1]] = row[pos[1]], row[t]
            clean = True
            for i in range(t + 1, r):
                if a[i][t]:
                    row_sub(i, t, a[i][t] // a[t][t])
                    if a[i][t]:
                        clean = False
            for j in range(t + 1, c):
                if a[t][j]:
                    col_sub(j, t, a[t][j] // a[t][t])
                    if a[t][j]:
                        clean = False
            if not clean:
                continue
            offender = None
            for i in range(t + 1, r):
                if any(a[i][j] % a[t][t] for j in range(t + 1, c)):
                    offender = i
                    break
            if offender is None:
                break
            row_sub(t, offender, -1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
    return ZMat(r, c, a), ZMat(r, r, u), ZMat(c, c, v)


def _invariant_factors(m):
    # the nonzero diagonal of one Smith form of m
    d, _, _ = smith_normal_form(m)
    return tuple(d.entries[i][i] for i in range(min(d.rows, d.cols)) if d.entries[i][i])


def _kernel_cokernel(m, factors):
    return AbGroup(m.cols - len(factors)), AbGroup(m.rows - len(factors), _chain(factors))


def hom_kernel_cokernel(m):
    """Kernel and cokernel of the map Z^cols -> Z^rows given by m."""
    return _kernel_cokernel(m, _invariant_factors(m))


# ---------------------------------------------------------------------------
# spaces and their K-groups


class SpaceExpr:
    pass


@dataclass(frozen=True)
class Point(SpaceExpr):
    pass


@dataclass(frozen=True)
class Euclid(SpaceExpr):
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParams("Euclid requires n >= 1")


@dataclass(frozen=True)
class Sphere(SpaceExpr):
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise InvalidParams("Sphere requires n >= 0")


@dataclass(frozen=True)
class Punctured(SpaceExpr):
    """R^n with the origin removed."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParams("Punctured requires n >= 1")


@dataclass(frozen=True)
class HalfLine(SpaceExpr):
    """The open half line (0, oo), homeomorphic to R."""


@dataclass(frozen=True)
class Product(SpaceExpr):
    a: SpaceExpr
    b: SpaceExpr


@dataclass(frozen=True)
class DisjointUnion(SpaceExpr):
    a: SpaceExpr
    b: SpaceExpr


def space_k_groups(x):
    """(K0, K1) of the function algebra vanishing at infinity on x.

    Rules: a point gives (Z, 0); Euclidean factors Bott-shift by their
    dimension; spheres use the unital convention (Z^2, 0) / (Z, Z); a
    punctured R^n is rewritten as S^{n-1} x R; products use the torsion-free
    Kunneth formula; disjoint unions add componentwise.
    """
    if isinstance(x, Point):
        return AbGroup(1), AbGroup(0)
    if isinstance(x, Euclid):
        return (AbGroup(1), AbGroup(0)) if x.n % 2 == 0 else (AbGroup(0), AbGroup(1))
    if isinstance(x, HalfLine):
        return AbGroup(0), AbGroup(1)
    if isinstance(x, Sphere):
        return (AbGroup(2), AbGroup(0)) if x.n % 2 == 0 else (AbGroup(1), AbGroup(1))
    if isinstance(x, Punctured):
        return space_k_groups(Product(Sphere(x.n - 1), Euclid(1)))
    if isinstance(x, Product):
        a0, a1 = space_k_groups(x.a)
        b0, b1 = space_k_groups(x.b)
        if not (a0.is_free and a1.is_free and b0.is_free and b1.is_free):
            raise UnsupportedExpr("Kunneth rule implemented for torsion-free factors only")
        k0 = a0.free_rank * b0.free_rank + a1.free_rank * b1.free_rank
        k1 = a0.free_rank * b1.free_rank + a1.free_rank * b0.free_rank
        return AbGroup(k0), AbGroup(k1)
    if isinstance(x, DisjointUnion):
        a0, a1 = space_k_groups(x.a)
        b0, b1 = space_k_groups(x.b)
        return a0.direct_sum(b0), a1.direct_sum(b1)
    raise UnsupportedExpr(f"unknown space expression {x!r}")


# ---------------------------------------------------------------------------
# C*-algebra descriptors


class CStarDescriptor:
    pass


@dataclass(frozen=True)
class StableFunctions(CStarDescriptor):
    """C0(X) tensored with the compacts; K-theory ignores the stabilization."""

    space: SpaceExpr


@dataclass(frozen=True)
class Functions(CStarDescriptor):
    space: SpaceExpr


@dataclass(frozen=True)
class CrossedByRn(CStarDescriptor):
    """Crossed product by R^n; K-theory shifts degree by n."""

    inner: CStarDescriptor
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParams("CrossedByRn requires n >= 1")
        depth, d = 1, self.inner
        while isinstance(d, CrossedByRn):
            depth += 1
            d = d.inner
        if depth > 2:
            raise InvalidParams("crossed-product nesting deeper than 2 is not supported")


@dataclass(frozen=True)
class ExtensionClass(CStarDescriptor):
    """The middle algebra of an extension, known through its connecting maps."""

    J: CStarDescriptor
    B: CStarDescriptor
    delta0: ZMat
    delta1: ZMat


def descriptor_k_groups(d):
    if isinstance(d, (StableFunctions, Functions)):
        return space_k_groups(d.space)
    if isinstance(d, CrossedByRn):
        k0, k1 = descriptor_k_groups(d.inner)
        return (k0, k1) if d.n % 2 == 0 else (k1, k0)
    if isinstance(d, ExtensionClass):
        j0, j1 = descriptor_k_groups(d.J)
        b0, b1 = descriptor_k_groups(d.B)
        sol = six_term_solve(SixTermInput(j0, j1, b0, b1, d.delta0, d.delta1))
        return sol.k0_mid, sol.k1_mid
    raise UnsupportedExpr(f"unknown descriptor {d!r}")


# ---------------------------------------------------------------------------
# six-term solver and the index invariant


@dataclass(frozen=True)
class SixTermInput:
    k0_j: AbGroup
    k1_j: AbGroup
    k0_b: AbGroup
    k1_b: AbGroup
    delta0: ZMat  # K0(B) -> K1(J)
    delta1: ZMat  # K1(B) -> K0(J)
    scenario: str = ""
    expected_middle: tuple = None


@dataclass(frozen=True)
class SixTermSolution:
    """The middle K-groups of a six-term sequence and the extension class
    (delta0, delta1) in Ext(B, J) = Hom(K0(B), K1(J)) + Hom(K1(B), K0(J)),
    with the invariant factors of its basis-change canonical form.
    ``consistency`` lists the checks that ran on top of the solve."""

    input: SixTermInput
    k0_mid: AbGroup
    k1_mid: AbGroup
    delta0_factors: tuple
    delta1_factors: tuple
    consistency: tuple = ()

    @property
    def delta0(self):
        return self.input.delta0

    @property
    def delta1(self):
        return self.input.delta1

    @property
    def ext_group(self):
        inp = self.input
        return AbGroup(inp.k0_b.free_rank * inp.k1_j.free_rank
                       + inp.k1_b.free_rank * inp.k0_j.free_rank)

    @property
    def corners(self):
        inp = self.input
        return {"K0(J)": inp.k0_j, "K1(J)": inp.k1_j, "K0(B)": inp.k0_b, "K1(B)": inp.k1_b,
                "K0(middle)": self.k0_mid, "K1(middle)": self.k1_mid}

    def to_json(self):
        return {
            "scenario": self.input.scenario,
            "corners": {k: g.to_json() for k, g in self.corners.items() if "middle" not in k},
            "delta0": self.delta0.to_json(),
            "delta1": self.delta1.to_json(),
            "middle": {"K0": self.k0_mid.to_json(), "K1": self.k1_mid.to_json()},
            "ext_class": {
                "ext_group": self.ext_group.to_json(),
                "delta0": self.delta0.to_json(),
                "delta1": self.delta1.to_json(),
                "invariant_factors": {"delta0": list(self.delta0_factors),
                                      "delta1": list(self.delta1_factors)},
            },
            "consistency": list(self.consistency),
        }


def six_term_solve(inp):
    """Middle K-groups of the cyclic six-term sequence with the given corner
    groups and connecting maps: K0 = coker(delta1) + ker(delta0) and K1 =
    coker(delta0) + ker(delta1) (the quotients by free subgroups split).
    An expected middle, when supplied, is enforced."""
    for g in (inp.k0_j, inp.k1_j, inp.k0_b, inp.k1_b):
        if not g.is_free:
            raise UnsupportedExpr("six-term solver requires free corner groups")
    if inp.delta0.rows != inp.k1_j.free_rank or inp.delta0.cols != inp.k0_b.free_rank:
        raise InvalidParams("delta0 shape must be rank K1(J) x rank K0(B)")
    if inp.delta1.rows != inp.k0_j.free_rank or inp.delta1.cols != inp.k1_b.free_rank:
        raise InvalidParams("delta1 shape must be rank K0(J) x rank K1(B)")
    f0, f1 = _invariant_factors(inp.delta0), _invariant_factors(inp.delta1)
    ker0, cok0 = _kernel_cokernel(inp.delta0, f0)
    ker1, cok1 = _kernel_cokernel(inp.delta1, f1)
    k0_mid = cok1.direct_sum(ker0)
    k1_mid = cok0.direct_sum(ker1)
    if inp.expected_middle is not None:
        e0, e1 = inp.expected_middle
        if (k0_mid, k1_mid) != (e0, e1):
            raise InconsistentInput(
                f"middle K-groups ({k0_mid}, {k1_mid}) contradict the known "
                f"middle ({e0}, {e1})"
            )
    return SixTermSolution(inp, k0_mid, k1_mid, f0, f1)


def index_invariant(J, B, delta0, delta1, middle=None):
    """The class of the extension 0 -> J -> A -> B -> 0 in Ext(B, J).

    Requires all corner K-groups free (the Hom decomposition hypothesis).
    The middle algebra's K-groups are free for every leaf-space algebra in
    scope, so connecting maps whose cokernels carry torsion are rejected;
    passing ``middle`` = (K0, K1) additionally enforces full equality.
    """
    j0, j1 = descriptor_k_groups(J)
    b0, b1 = descriptor_k_groups(B)
    return _ext_class(SixTermInput(j0, j1, b0, b1, delta0, delta1, expected_middle=middle))


def _ext_class(inp):
    # index_invariant on a six-term input: the solution, with the
    # torsion-free cokernels that a free middle forces checked and listed
    sol = six_term_solve(inp)
    checked = []
    for name, m, factors in (("delta0", sol.delta0, sol.delta0_factors),
                             ("delta1", sol.delta1, sol.delta1_factors)):
        cok = _kernel_cokernel(m, factors)[1]
        if not cok.is_free:
            raise InconsistentInput(
                f"coker({name}) = {cok} has torsion, but it must embed in a free "
                "middle K-group by exactness"
            )
        checked.append({"node": name, "relation": f"coker({name}) torsion-free"})
    return replace(sol, consistency=tuple(checked))


# ---------------------------------------------------------------------------
# the two concrete scenarios for the boundary extension

J_DESCRIPTOR = StableFunctions(DisjointUnion(Euclid(3), Euclid(3)))
# quotient over the s = 0 region, as a crossed product (Thom route) ...
B_CROSSED = CrossedByRn(StableFunctions(Product(Euclid(2), Punctured(2))), 2)
# ... and as the printed fibration over R x R_+
B_FIBRATION = StableFunctions(Product(Euclid(1), HalfLine()))
# the middle algebra over all of V, via the crossed-product description
MIDDLE_DESCRIPTOR = CrossedByRn(StableFunctions(Product(Euclid(2), Punctured(3))), 2)

DELTA0_DEFAULT = ZMat(2, 1, ((1,), (1,)))


def scenario_input(name, delta0=None):
    """Six-term input for scenario "paper" (crossed-product reading of the
    quotient, middle enforced) or "fibration" (printed fibration reading,
    middle left free).  The two disagree in K1 of the quotient: Z versus 0."""
    j0, j1 = descriptor_k_groups(J_DESCRIPTOR)
    if delta0 is None:
        delta0 = DELTA0_DEFAULT
    if name == "paper":
        b0, b1 = descriptor_k_groups(B_CROSSED)
        expected = descriptor_k_groups(MIDDLE_DESCRIPTOR)
    elif name == "fibration":
        b0, b1 = descriptor_k_groups(B_FIBRATION)
        expected = None
    else:
        raise InvalidParams("scenario must be 'paper' or 'fibration'")
    delta1 = ZMat.zeros(j0.free_rank, b1.free_rank)
    return SixTermInput(j0, j1, b0, b1, delta0, delta1,
                        scenario=name, expected_middle=expected)
