"""The eight families of five-dimensional solvable real Lie algebras whose
derived ideal is commutative and three-dimensional (the MD(5,3C) class).

Every family has basis X1..X5 with

    [X1, X2] = X3,   [X1, G1] = 0,   G1 = span{X3, X4, X5} commutative,

and ad_X2 restricted to G1 given by the family's 3x3 matrix below.  The
families are:

    F1(l1, l2)  diag(l1, l2, 1)        l1, l2 not in {0, 1}, l1 != l2
    F2(l)       diag(1, 1, l)          l not in {0, 1}
    F3(l)       diag(l, 1, 1)          l != 1
    F4          identity
    F5(l)       [[l,0,0],[0,1,1],[0,0,1]]   l != 1
    F6(l)       [[1,1,0],[0,1,0],[0,0,l]]   l not in {0, 1}
    F7          [[1,1,0],[0,1,1],[0,0,1]]
    F8(l, phi)  [[cos,-sin,0],[sin,cos,0],[0,0,l]]   l != 0, phi in (0, pi)
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams
from .lie_core import StructureConstants, numeric_rank

__all__ = [
    "FAMILIES",
    "FamilySpec",
    "family_spec",
    "ad2_block",
    "build_algebra",
    "default_grid",
    "list_catalog",
    "jordan_signature",
]

FAMILIES = ("F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8")

# which named parameters each family takes
_PARAMS = {
    "F1": ("lambda1", "lambda2"),
    "F2": ("lam",),
    "F3": ("lam",),
    "F4": (),
    "F5": ("lam",),
    "F6": ("lam",),
    "F7": (),
    "F8": ("lam", "phi"),
}


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus its parameters.  The attribute for the single
    eigenvalue parameter is ``lam``; it serializes as "lambda"."""

    family: str
    lambda1: float = None
    lambda2: float = None
    lam: float = None
    phi: float = None

    def validate(self):
        if self.family not in FAMILIES:
            raise InvalidParams(f"unknown family {self.family!r}")
        want = _PARAMS[self.family]
        for name in ("lambda1", "lambda2", "lam", "phi"):
            have = getattr(self, name) is not None
            if have != (name in want):
                verb = "missing" if name in want else "unexpected"
                raise InvalidParams(f"{self.family}: {verb} parameter {name}")
        if not all(math.isfinite(v) for v in self.params()):
            raise InvalidParams(f"{self.family}: parameters must be finite")
        f = self.family
        if f == "F1":
            if self.lambda1 in (0.0, 1.0) or self.lambda2 in (0.0, 1.0):
                raise InvalidParams("F1 requires lambda1, lambda2 outside {0, 1}")
            if self.lambda1 == self.lambda2:
                raise InvalidParams("F1 requires lambda1 != lambda2")
        elif f in ("F2", "F6") and self.lam in (0.0, 1.0):
            raise InvalidParams(f"{f} requires lambda outside {{0, 1}}")
        elif f in ("F3", "F5") and self.lam == 1.0:
            raise InvalidParams(f"{f} requires lambda != 1")
        elif f == "F8":
            if self.lam == 0.0:
                raise InvalidParams("F8 requires lambda != 0")
            if not 0.0 < self.phi < math.pi:
                raise InvalidParams("F8 requires phi strictly inside (0, pi)")
        return self

    def params(self):
        return tuple(getattr(self, n) for n in _PARAMS[self.family])

    def label(self):
        if not _PARAMS[self.family]:
            return self.family
        return f"{self.family}({', '.join(f'{v:g}' for v in self.params())})"

    def to_json(self):
        out = {"family": self.family}
        for attr, key in (("lambda1", "lambda1"), ("lambda2", "lambda2"), ("lam", "lambda"), ("phi", "phi")):
            v = getattr(self, attr)
            if v is not None:
                out[key] = float(v)
        return out

    @classmethod
    def from_json(cls, d):
        return family_spec(
            d["family"],
            lambda1=d.get("lambda1"),
            lambda2=d.get("lambda2"),
            lam=d.get("lambda"),
            phi=d.get("phi"),
        )


def family_spec(family, *args, lambda1=None, lambda2=None, lam=None, phi=None):
    """Build and validate a FamilySpec.

    Positional parameters follow the family signature:
    family_spec("F1", -2, 3), family_spec("F6", 0.5), family_spec("F8", 2, math.pi/6).
    """
    if args:
        names = _PARAMS.get(family, ())
        if len(args) != len(names):
            raise InvalidParams(f"{family} takes {len(names)} parameter(s), got {len(args)}")
        given = dict(zip(names, args))
        lambda1 = given.get("lambda1", lambda1)
        lambda2 = given.get("lambda2", lambda2)
        lam = given.get("lam", lam)
        phi = given.get("phi", phi)

    def as_float(v):
        return None if v is None else float(v)

    fs = FamilySpec(family, as_float(lambda1), as_float(lambda2), as_float(lam), as_float(phi))
    return fs.validate()


def ad2_block(spec):
    """The 3x3 matrix of ad_X2 on the derived ideal span{X3, X4, X5}."""
    spec.validate()
    f = spec.family
    if f == "F1":
        return np.diag([spec.lambda1, spec.lambda2, 1.0])
    if f == "F2":
        return np.diag([1.0, 1.0, spec.lam])
    if f == "F3":
        return np.diag([spec.lam, 1.0, 1.0])
    if f == "F4":
        return np.eye(3)
    if f == "F5":
        return np.array([[spec.lam, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    if f == "F6":
        return np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, spec.lam]])
    if f == "F7":
        return np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    c, s = math.cos(spec.phi), math.sin(spec.phi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, spec.lam]])


def build_algebra(spec):
    """Structure constants of the algebra: [X1,X2]=X3 plus the ad_X2 block."""
    block = ad2_block(spec)
    entries = [(1, 2, 3, 1.0)]
    for col in range(3):
        for row in range(3):
            v = block[row, col]
            if v != 0.0:
                entries.append((2, col + 3, row + 3, float(v)))
    return StructureConstants(5, entries)


def default_grid():
    """The fixed verification grid used by the batch checks and the CLI."""
    grid = []
    for l1, l2 in ((-2.0, 3.0), (0.5, 2.0), (-0.5, -3.0)):
        grid.append(family_spec("F1", l1, l2))
    for lam in (-2.0, -0.5, 0.5, 2.0, 3.0):
        grid.append(family_spec("F2", lam))
    for lam in (-2.0, -0.5, 0.0, 0.5, 2.0, 3.0):
        grid.append(family_spec("F3", lam))
    grid.append(family_spec("F4"))
    for lam in (-2.0, -0.5, 0.0, 0.5, 2.0, 3.0):
        grid.append(family_spec("F5", lam))
    for lam in (-2.0, -0.5, 0.5, 2.0, 3.0):
        grid.append(family_spec("F6", lam))
    grid.append(family_spec("F7"))
    for lam in (-1.0, 1.0, 2.0):
        for phi in (math.pi / 6, math.pi / 2, 3 * math.pi / 4):
            grid.append(family_spec("F8", lam, phi))
    return grid


def list_catalog(grid=None):
    """The grid (default if None), validated so every entry builds."""
    grid = list(grid) if grid is not None else default_grid()
    for spec in grid:
        spec.validate()
    return grid


def _eigen_clusters(m, tol):
    eigs = sorted(np.linalg.eigvals(m), key=lambda z: (z.real, z.imag))
    clusters = []
    for z in eigs:
        if clusters and abs(z - clusters[-1][0]) <= tol:
            clusters[-1][1] += 1
        else:
            clusters.append([z, 1])
    return clusters


def jordan_signature(spec, tol=1e-6):
    """Numeric Jordan data of the ad_X2 block, refined by the weight of X3.

    Returns (blocks, x3_weights): ``blocks`` lists (re, im, size) of the
    Jordan blocks; ``x3_weights`` lists the generalized eigenvalues acting on
    the cyclic subspace generated by X3 = [X1, X2].  The weights are needed
    because the Jordan type alone coincides for pairs such as diag(1,1,l)
    and diag(l,1,1), which differ in where the derived generator sits.
    """
    m = ad2_block(spec).astype(complex)
    n = m.shape[0]
    blocks = []
    for z, mult in _eigen_clusters(m, tol):
        shifted = m - z * np.eye(n)
        ranks = [n]
        power = np.eye(n, dtype=complex)
        for _ in range(mult):
            power = power @ shifted
            ranks.append(numeric_rank(power, tol))
        # number of blocks of size >= k is rank((m-z)^{k-1}) - rank((m-z)^k)
        for k in range(1, mult + 1):
            geq_k = ranks[k - 1] - ranks[k]
            geq_next = ranks[k] - ranks[k + 1] if k < mult else 0
            for _ in range(geq_k - geq_next):
                blocks.append((round(z.real, 6), round(z.imag, 6), k))
    # minimal polynomial of m on e1 via the Krylov chain e1, m e1, ...
    krylov = [np.zeros(n, dtype=complex)]
    krylov[0][0] = 1.0
    degree = n
    for d in range(1, n + 1):
        krylov.append(m @ krylov[-1])
        if numeric_rank(np.array(krylov[: d + 1]), tol) == d:
            degree = d
            break
    basis = np.array(krylov[:degree]).T
    coeffs, *_ = np.linalg.lstsq(basis, krylov[degree], rcond=None)
    monic = np.concatenate(([1.0], -coeffs[::-1]))
    weights = sorted((round(z.real, 6), round(z.imag, 6)) for z in np.roots(monic))
    return tuple(sorted(blocks)), tuple(weights)
