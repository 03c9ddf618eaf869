"""The eight families of five-dimensional solvable real Lie algebras whose
derived ideal is commutative and three-dimensional (the MD(5,3C) class).

Every family has basis X1..X5 with

    [X1, X2] = X3,   [X1, G1] = 0,   G1 = span{X3, X4, X5} commutative,

and ad_X2 restricted to G1 given by the family's 3x3 matrix.  The table
``_FAMILIES`` is the one place a family is defined: its parameters and their
spellings, their constraints, the matrix, the catalog notes, the default-grid
values, and the type representative its foliation maps onto (F4 for
families 1..7, F8(1, pi/2) for family 8).  Everything else about a family is
derived from its record.
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


@dataclass(frozen=True)
class _Family:
    """One family.  The callables take the parameters in ``params`` order."""

    params: tuple  # (FamilySpec attribute, JSON key and CLI flag) per parameter
    block: object  # the ad_X2 block, as rows
    action: str  # the block in words, for the catalog payload
    grid: tuple  # parameter tuples of the default grid
    allowed: object = lambda *params: True
    constraints: str = ""  # what ``allowed`` requires, in words
    target: tuple = ("F4",)  # family and parameters of the type representative
    # at lambda = 0 the leaves are half-planes and the map onto the
    # representative, which uses the exponent 1/lambda, has no formula
    halfplane: bool = False


_FAMILIES = {
    "F1": _Family(
        params=(("lambda1", "lambda1"), ("lambda2", "lambda2")),
        block=lambda l1, l2: np.diag([l1, l2, 1.0]),
        action="diag(lambda1, lambda2, 1)",
        grid=((-2.0, 3.0), (0.5, 2.0), (-0.5, -3.0)),
        allowed=lambda l1, l2: l1 not in (0.0, 1.0) and l2 not in (0.0, 1.0) and l1 != l2,
        constraints="lambda1, lambda2 outside {0, 1} and distinct",
    ),
    "F2": _Family(
        params=(("lam", "lambda"),),
        block=lambda lam: np.diag([1.0, 1.0, lam]),
        action="diag(1, 1, lambda)",
        grid=tuple((lam,) for lam in (-2.0, -0.5, 0.5, 2.0, 3.0)),
        allowed=lambda lam: lam not in (0.0, 1.0),
        constraints="lambda outside {0, 1}",
    ),
    "F3": _Family(
        params=(("lam", "lambda"),),
        block=lambda lam: np.diag([lam, 1.0, 1.0]),
        action="diag(lambda, 1, 1)",
        grid=tuple((lam,) for lam in (-2.0, -0.5, 0.0, 0.5, 2.0, 3.0)),
        allowed=lambda lam: lam != 1.0,
        constraints="lambda != 1 (zero allowed)",
        halfplane=True,
    ),
    "F4": _Family(params=(), block=lambda: np.eye(3), action="identity", grid=((),)),
    "F5": _Family(
        params=(("lam", "lambda"),),
        block=lambda lam: [[lam, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]],
        action="diag(lambda, 1, 1) with a nilpotent unit above the repeated 1",
        grid=tuple((lam,) for lam in (-2.0, -0.5, 0.0, 0.5, 2.0, 3.0)),
        allowed=lambda lam: lam != 1.0,
        constraints="lambda != 1",
        halfplane=True,
    ),
    "F6": _Family(
        params=(("lam", "lambda"),),
        block=lambda lam: [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, lam]],
        action="diag(1, 1, lambda) with a nilpotent unit above the repeated 1",
        grid=tuple((lam,) for lam in (-2.0, -0.5, 0.5, 2.0, 3.0)),
        allowed=lambda lam: lam not in (0.0, 1.0),
        constraints="lambda outside {0, 1}",
    ),
    "F7": _Family(
        params=(),
        block=lambda: [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]],
        action="full 3x3 Jordan block at 1",
        grid=((),),
    ),
    "F8": _Family(
        params=(("lam", "lambda"), ("phi", "phi")),
        block=lambda lam, phi: [[math.cos(phi), -math.sin(phi), 0.0],
                                [math.sin(phi), math.cos(phi), 0.0],
                                [0.0, 0.0, lam]],
        action="rotation by phi on the first two coordinates, lambda on the third",
        grid=tuple((lam, phi) for lam in (-1.0, 1.0, 2.0)
                   for phi in (math.pi / 6, math.pi / 2, 3 * math.pi / 4)),
        allowed=lambda lam, phi: lam != 0.0 and 0.0 < phi < math.pi,
        constraints="lambda != 0, phi strictly between 0 and pi",
        target=("F8", 1.0, math.pi / 2),
    ),
}

FAMILIES = tuple(_FAMILIES)

# every parameter attribute with its JSON key and CLI flag, in a fixed order
_SPELLING = {attr: key for fam in _FAMILIES.values() for attr, key in fam.params}


def _family(name):
    fam = _FAMILIES.get(name)
    if fam is None:
        raise InvalidParams(f"unknown family {name!r}")
    return fam


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus its parameters, checked when built.  The attribute
    for the single eigenvalue parameter is ``lam``; it serializes as "lambda"."""

    family: str
    lambda1: float = None
    lambda2: float = None
    lam: float = None
    phi: float = None

    def validate(self):
        fam = _family(self.family)
        want = dict(fam.params)
        for attr, key in _SPELLING.items():
            if (getattr(self, attr) is not None) != (attr in want):
                verb = "missing" if attr in want else "unexpected"
                raise InvalidParams(f"{self.family}: {verb} parameter {key}")
        params = self.params()
        if not all(math.isfinite(v) for v in params):
            raise InvalidParams(f"{self.family}: parameters must be finite")
        if not fam.allowed(*params):
            raise InvalidParams(f"{self.family} requires {fam.constraints}")
        return self

    __post_init__ = validate

    @property
    def is_halfplane(self):
        """True for the members whose leaves are half-planes (F3 and F5 at
        lambda = 0), which no equivalence map covers."""
        return _FAMILIES[self.family].halfplane and self.lam == 0.0

    def params(self):
        return tuple(getattr(self, attr) for attr, _ in _FAMILIES[self.family].params)

    def label(self):
        if not _FAMILIES[self.family].params:
            return self.family
        return f"{self.family}({', '.join(f'{v:g}' for v in self.params())})"

    def to_json(self):
        out = {"family": self.family}
        for attr, key in _SPELLING.items():
            v = getattr(self, attr)
            if v is not None:
                out[key] = float(v)
        return out

    @classmethod
    def from_json(cls, d):
        return family_spec(d["family"], **{attr: d.get(key) for attr, key in _SPELLING.items()})


def family_spec(family, *args, lambda1=None, lambda2=None, lam=None, phi=None):
    """Build a FamilySpec.

    Positional parameters follow the family signature:
    family_spec("F1", -2, 3), family_spec("F6", 0.5), family_spec("F8", 2, math.pi/6).
    """
    given = {"lambda1": lambda1, "lambda2": lambda2, "lam": lam, "phi": phi}
    if args:
        names = [attr for attr, _ in _family(family).params]
        if len(args) != len(names):
            raise InvalidParams(f"{family} takes {len(names)} parameter(s), got {len(args)}")
        given.update(zip(names, args))
    given = {k: None if v is None else float(v) for k, v in given.items()}
    return FamilySpec(family, **given)


# the type representative that each family's foliation maps onto
_REPRESENTATIVE = {name: family_spec(*fam.target) for name, fam in _FAMILIES.items()}


def ad2_block(spec):
    """The 3x3 matrix of ad_X2 on the derived ideal span{X3, X4, X5}."""
    return np.array(_FAMILIES[spec.family].block(*spec.params()), dtype=float)


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
    return [family_spec(name, *params) for name, fam in _FAMILIES.items() for params in fam.grid]


def list_catalog(grid=None):
    """The grid (default if None) as a list."""
    return list(grid) if grid is not None else default_grid()


def jordan_signature(spec, tol=1e-6):
    """Numeric Jordan data of the ad_X2 block, refined by the weight of X3.

    Returns (blocks, x3_weights): ``blocks`` lists (re, im, size) of the
    Jordan blocks; ``x3_weights`` lists the eigenvalues of the block on the
    cyclic subspace generated by X3 = [X1, X2].  The weights are needed
    because the Jordan type alone coincides for pairs such as diag(1,1,l)
    and diag(l,1,1), which differ in where the derived generator sits.
    The block must be 3x3: only up to that size do the multiplicity of an
    eigenvalue and its number g of eigenvectors fix the block sizes.
    """
    m = ad2_block(spec)
    clusters = []  # [eigenvalue, multiplicity]: the eigenvalues within tol of it
    for z in sorted(np.linalg.eigvals(m), key=lambda z: (z.real, z.imag)):
        if clusters and abs(z - clusters[-1][0]) <= tol:
            clusters[-1][1] += 1
        else:
            clusters.append([z, 1])
    blocks = []
    for z, mult in clusters:
        # close but distinct eigenvalues can show more eigenvectors than mult
        g = min(mult, 3 - numeric_rank(m - z * np.eye(3), tol))
        key = (round(z.real, 6), round(z.imag, 6))
        blocks += [(*key, mult - g + 1)] + [(*key, 1)] * (g - 1)
    # m compressed onto the Krylov space of e1 = X3
    krylov = np.stack([np.eye(3)[0], m[:, 0], m @ m[:, 0]], axis=1)
    q, _ = np.linalg.qr(krylov[:, :numeric_rank(krylov, tol)])
    weights = sorted((round(z.real, 6), round(z.imag, 6))
                     for z in np.linalg.eigvals(q.T @ m @ q))
    return tuple(sorted(blocks)), tuple(weights)
