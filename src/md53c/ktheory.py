"""Exact integer K-theory bookkeeping: Smith normal form with tracked
unimodular factors, finitely generated abelian groups, a compositional
K-group calculus for function algebras of simple spaces, descriptor rewriting
for crossed products and stabilization, the six-term solver, and the index
invariant of the boundary extension.

All arithmetic is over Python integers; nothing here is floating point.
"""

from dataclasses import dataclass

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
        rows, cols = _ints((self.rows, self.cols), "matrix dimensions")
        if rows < 0 or cols < 0:
            raise InvalidParams("matrix dimensions must be nonnegative")
        ent = tuple(_ints(row, "matrix entries") for row in self.entries)
        if len(ent) != rows or any(len(r) != cols for r in ent):
            raise InvalidParams("entry grid does not match declared shape")
        for name, value in (("rows", rows), ("cols", cols), ("entries", ent)):
            object.__setattr__(self, name, value)

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

    def is_unimodular(self):
        """Square with every invariant factor 1, so invertible over Z."""
        return self.rows == self.cols and _invariant_factors(self.entries) == (1,) * self.rows

    def to_json(self):
        return {"rows": self.rows, "cols": self.cols,
                "entries": [list(r) for r in self.entries]}


def _ints(values, what):
    # the one integer rule: accept x exactly when int(x) equals x, keep int(x)
    values = tuple(values)
    try:
        ints = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != values:
        raise InvalidParams(f"{what} must be integers")
    return ints


@dataclass(frozen=True)
class AbGroup:
    """Finitely generated abelian group: free rank plus the invariant-factor
    chain (each factor >= 2, each dividing the next)."""

    free_rank: int = 0
    torsion: tuple = ()

    def __post_init__(self):
        ints = _ints((self.free_rank, *self.torsion), "free rank and torsion factors")
        free, tor = ints[0], ints[1:]
        if free < 0:
            raise InvalidParams("free rank must be nonnegative")
        for d in tor:
            if d < 2:
                raise InvalidParams("torsion invariant factors must be >= 2")
        for a, b in zip(tor, tor[1:]):
            if b % a:
                raise InvalidParams("torsion factors must form a divisibility chain")
        object.__setattr__(self, "free_rank", free)
        object.__setattr__(self, "torsion", tor)

    @property
    def is_zero(self):
        return self.free_rank == 0 and not self.torsion

    @property
    def is_free(self):
        return not self.torsion

    def direct_sum(self, other):
        # the invariant factors of the diagonal matrix of both torsion lists
        tor = self.torsion + other.torsion
        diag = [[d * (i == j) for j in range(len(tor))] for i, d in enumerate(tor)]
        return AbGroup(self.free_rank + other.free_rank,
                       tuple(d for d in _invariant_factors(diag) if d > 1))

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
    vt = [[int(i == j) for j in range(c)] for i in range(c)]
    _eliminate(a, (u,), (vt,))
    return ZMat(r, c, a), ZMat(r, r, u), ZMat(c, c, tuple(zip(*vt)))


def _eliminate(a, left, right):
    # Smith elimination of the list of rows a, in place: each row step is also
    # made on every matrix in left, and each column step as a row step on every
    # matrix in right (V transposed). At step t, the rows and columns before t
    # are zero off the diagonal, so the steps touch a only from (t, t) on.
    # Step t runs Euclid on column t by row steps, then reduces row t, where a
    # column step changes only a[t] and right. The pivot is the first entry of
    # least modulus in column t; its modulus falls from pass to pass, except
    # after a bring-in or an added row, whose next pass makes it fall.
    r, c = len(a), len(a[0]) if a else 0
    for t in range(min(r, c)):
        j = t
        while True:
            if j != t:
                for row in a[t:]:
                    row[t], row[j] = row[j], row[t]
                for w in right:
                    w[t], w[j] = w[j], w[t]
                j = t
            i, p = t, a[t][t]
            for k in range(t + 1, r):
                x = a[k][t]
                if x and (not p or abs(x) < abs(p)):
                    i, p = k, x
            if not p:
                # bring in the first column that is nonzero from row t down
                j = next((j for j in range(t + 1, c) if any(row[j] for row in a[t:])), None)
                if j is None:
                    return
                continue
            for w in (a, *left):
                w[t], w[i] = w[i], w[t]
            top, clean = a[t][t:], True
            for i in range(t + 1, r):
                row = a[i]
                if row[t]:
                    q = row[t] // p
                    row[t:] = [x - q * y for x, y in zip(row[t:], top)]
                    for w in left:
                        w[i] = [x - q * y for x, y in zip(w[i], w[t])]
                    clean = clean and not row[t]
            if not clean:
                continue
            top = a[t]
            for k in range(t + 1, c):
                if top[k]:
                    q, top[k] = divmod(top[k], p)
                    for w in right:
                        w[k] = [x - q * y for x, y in zip(w[k], w[t])]
                    if top[k] and (j == t or abs(top[k]) < abs(top[j])):
                        j = k
            if j != t:
                continue
            # add the first row that p does not divide; a unit divides every row
            rest = () if p in (1, -1) else range(t + 1, r)
            i = next((i for i in rest if any(x % p for x in a[i][t + 1:])), None)
            if i is None:
                break
            a[t][t:] = [x + y for x, y in zip(a[t][t:], a[i][t:])]
            for w in left:
                w[t] = [x + y for x, y in zip(w[t], w[i])]
        if a[t][t] < 0:
            for w in (a, *left):
                w[t] = [-x for x in w[t]]


def _invariant_factors(rows):
    # the nonzero diagonal of one Smith form of the matrix with these rows,
    # with no transforms built
    a = [list(row) for row in rows]
    _eliminate(a, (), ())
    return tuple(row[i] for i, row in enumerate(a) if i < len(row) and row[i])


def _kernel_cokernel(m, factors):
    # the factors of a Smith form already form a positive divisibility chain
    return (AbGroup(m.cols - len(factors)),
            AbGroup(m.rows - len(factors), tuple(d for d in factors if d > 1)))


def hom_kernel_cokernel(m):
    """Kernel and cokernel of the map Z^cols -> Z^rows given by m."""
    return _kernel_cokernel(m, _invariant_factors(m.entries))


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
        _dimension(self, 1)


@dataclass(frozen=True)
class Sphere(SpaceExpr):
    n: int

    def __post_init__(self):
        _dimension(self, 0)


@dataclass(frozen=True)
class Punctured(SpaceExpr):
    """R^n with the origin removed."""

    n: int

    def __post_init__(self):
        _dimension(self, 1)


def _dimension(node, least):
    # the one integer rule on node.n, kept as a plain int, and n >= least
    name = type(node).__name__
    (n,) = _ints((node.n,), f"{name} dimension")
    if n < least:
        raise InvalidParams(f"{name} requires n >= {least}")
    object.__setattr__(node, "n", n)


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
    punctured R^n is S^{n-1} x R; products use the Kunneth formula without
    Tor terms, as every rule gives free groups; disjoint unions add
    componentwise.  So the rules run on free ranks alone.
    """
    k0, k1 = _space_ranks(x)
    return AbGroup(k0), AbGroup(k1)


def _space_ranks(x):
    # the free ranks of space_k_groups(x), rule by rule
    if isinstance(x, Product):
        a0, a1 = _space_ranks(x.a)
        b0, b1 = _space_ranks(x.b)
        return a0 * b0 + a1 * b1, a0 * b1 + a1 * b0
    if isinstance(x, DisjointUnion):
        a0, a1 = _space_ranks(x.a)
        b0, b1 = _space_ranks(x.b)
        return a0 + b0, a1 + b1
    if isinstance(x, Euclid):
        return (0, 1) if x.n % 2 else (1, 0)
    if isinstance(x, Point):
        return 1, 0
    if isinstance(x, HalfLine):
        return 0, 1
    if isinstance(x, Sphere):
        return (1, 1) if x.n % 2 else (2, 0)
    if isinstance(x, Punctured):
        # the ranks of S^{n-1}, Bott-shifted by the factor R
        return (1, 1) if x.n % 2 == 0 else (0, 2)
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
        _dimension(self, 1)
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
            "consistency": [dict(c) for c in self.consistency],
        }


def six_term_solve(inp):
    """Middle K-groups of the cyclic six-term sequence with the given corner
    groups and connecting maps: K0 = coker(delta1) + ker(delta0) and K1 =
    coker(delta0) + ker(delta1) (the quotients by free subgroups split).
    An expected middle, when supplied, is enforced."""
    return SixTermSolution(inp, *_solve(inp))


def _solve(inp):
    # six_term_solve's middle groups and the invariant factors of delta0 and
    # delta1; each kernel is free, so a middle group's torsion is that of its
    # cokernel: the factors of the other map that are above 1
    for g in (inp.k0_j, inp.k1_j, inp.k0_b, inp.k1_b):
        if not g.is_free:
            raise UnsupportedExpr("six-term solver requires free corner groups")
    d0, d1 = inp.delta0, inp.delta1
    if d0.rows != inp.k1_j.free_rank or d0.cols != inp.k0_b.free_rank:
        raise InvalidParams("delta0 shape must be rank K1(J) x rank K0(B)")
    if d1.rows != inp.k0_j.free_rank or d1.cols != inp.k1_b.free_rank:
        raise InvalidParams("delta1 shape must be rank K0(J) x rank K1(B)")
    f0, f1 = _invariant_factors(d0.entries), _invariant_factors(d1.entries)
    k0_mid = AbGroup(d1.rows - len(f1) + d0.cols - len(f0), tuple(d for d in f1 if d > 1))
    k1_mid = AbGroup(d0.rows - len(f0) + d1.cols - len(f1), tuple(d for d in f0 if d > 1))
    if inp.expected_middle is not None:
        e0, e1 = inp.expected_middle
        if (k0_mid, k1_mid) != (e0, e1):
            raise InconsistentInput(
                f"middle K-groups ({k0_mid}, {k1_mid}) contradict the known "
                f"middle ({e0}, {e1})"
            )
    return k0_mid, k1_mid, f0, f1


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
    # torsion-free cokernels that a free middle forces checked and listed; a
    # cokernel is free exactly when every invariant factor of its map is 1
    k0_mid, k1_mid, f0, f1 = _solve(inp)
    for name, m, factors in (("delta0", inp.delta0, f0), ("delta1", inp.delta1, f1)):
        if factors != (1,) * len(factors):
            raise InconsistentInput(
                f"coker({name}) = {_kernel_cokernel(m, factors)[1]} has torsion, but it "
                "must embed in a free middle K-group by exactness"
            )
    checked = tuple({"node": name, "relation": f"coker({name}) torsion-free"}
                    for name in ("delta0", "delta1"))
    return SixTermSolution(inp, k0_mid, k1_mid, f0, f1, checked)


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


def _scenario(b, middle):
    # the fixed part of a scenario's six-term input: the quotient's groups,
    # the zero delta1 from K1(B) to K0(J) and the middle to enforce
    groups = descriptor_k_groups(b)
    return groups, ZMat.zeros(_J_GROUPS[0].free_rank, groups[1].free_rank), middle


_J_GROUPS = descriptor_k_groups(J_DESCRIPTOR)
_PAPER = _scenario(B_CROSSED, descriptor_k_groups(MIDDLE_DESCRIPTOR))
_FIBRATION = _scenario(B_FIBRATION, None)


def scenario_input(name, delta0=None):
    """Six-term input for scenario "paper" (crossed-product reading of the
    quotient, middle enforced) or "fibration" (printed fibration reading,
    middle left free).  The two disagree in K1 of the quotient: Z versus 0.
    The groups of the four descriptors above are computed once, at import."""
    if name == "paper":
        (b0, b1), delta1, expected = _PAPER
    elif name == "fibration":
        (b0, b1), delta1, expected = _FIBRATION
    else:
        raise InvalidParams("scenario must be 'paper' or 'fibration'")
    if delta0 is None:
        delta0 = DELTA0_DEFAULT
    return SixTermInput(*_J_GROUPS, b0, b1, delta0, delta1,
                        scenario=name, expected_middle=expected)
