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

The table and the specs are plain Python, for the command-line parser to read
without numpy; the four functions that build arrays import it when called.
"""

import functools
import math
from dataclasses import dataclass

from .errors import InvalidParams

__all__ = [
    "FAMILIES",
    "FamilySpec",
    "family_spec",
    "ad2_block",
    "build_algebra",
    "default_grid",
    "jordan_signature_grid",
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
        block=lambda l1, l2: [[l1, 0.0, 0.0], [0.0, l2, 0.0], [0.0, 0.0, 1.0]],
        action="diag(lambda1, lambda2, 1)",
        grid=((-2.0, 3.0), (0.5, 2.0), (-0.5, -3.0)),
        allowed=lambda l1, l2: l1 not in (0.0, 1.0) and l2 not in (0.0, 1.0) and l1 != l2,
        constraints="lambda1, lambda2 outside {0, 1} and distinct",
    ),
    "F2": _Family(
        params=(("lam", "lambda"),),
        block=lambda lam: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, lam]],
        action="diag(1, 1, lambda)",
        grid=tuple((lam,) for lam in (-2.0, -0.5, 0.5, 2.0, 3.0)),
        allowed=lambda lam: lam not in (0.0, 1.0),
        constraints="lambda outside {0, 1}",
    ),
    "F3": _Family(
        params=(("lam", "lambda"),),
        block=lambda lam: [[lam, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        action="diag(lambda, 1, 1)",
        grid=tuple((lam,) for lam in (-2.0, -0.5, 0.0, 0.5, 2.0, 3.0)),
        allowed=lambda lam: lam != 1.0,
        constraints="lambda != 1 (zero allowed)",
        halfplane=True,
    ),
    "F4": _Family(params=(), block=lambda: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                  action="identity", grid=((),)),
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


@functools.lru_cache(maxsize=64)
def ad2_block(spec):
    """The 3x3 matrix of ad_X2 on the derived ideal span{X3, X4, X5}, built
    once per spec and cached: the array is read-only, so copy it to write."""
    import numpy as np
    m = np.array(_FAMILIES[spec.family].block(*spec.params()), dtype=float)
    m.flags.writeable = False
    return m


def _structure_grid(grid):
    """Structure arrays (M, 5, 5, 5) of the members of grid, a list of
    FamilySpecs, from their stacked ad_X2 blocks: bit for bit build_algebra's."""
    import numpy as np
    blocks = np.array([ad2_block(spec) for spec in grid]).reshape(-1, 3, 3).transpose(0, 2, 1)
    c = np.zeros((len(blocks), 5, 5, 5))
    c[:, 0, 1, 2], c[:, 1, 0, 2] = 1.0, -1.0
    # [X2, X_{col+3}] is column col of the block; a zero entry, -0.0 too, is +0.0
    c[:, 1, 2:, 2:], c[:, 2:, 1, 2:] = blocks + 0.0, 0.0 - blocks
    return c


def build_algebra(spec):
    """Structure constants of the algebra: [X1,X2]=X3 plus the ad_X2 block,
    in a writable array of its own."""
    from .lie_core import StructureConstants
    return StructureConstants.from_array(_structure_grid([spec])[0])


# the fixed verification grid, built once
_GRID = tuple(family_spec(name, *params) for name, fam in _FAMILIES.items()
              for params in fam.grid)


def default_grid():
    """The fixed verification grid: the members that the batch checks and
    every CLI subcommand run on, as a new list of the specs built at import."""
    return list(_GRID)


def jordan_signature_grid(grid):
    """Jordan data of each grid member's ad_X2 block, refined by the weight
    of X3, read off the block exactly; one spec is the grid [spec].

    Each member gets (blocks, x3_weights): ``blocks`` lists (re, im, size) of
    the Jordan blocks; ``x3_weights`` lists the eigenvalues of the block on
    the cyclic subspace generated by X3 = [X1, X2], which tell apart blocks
    of one Jordan type such as diag(1,1,l) and diag(l,1,1).  The F1..F7
    blocks are upper triangular, with X3 an eigenvector of the first
    diagonal entry; F8's, with a (1, 0) entry, have the simple pair
    m00 +- i m10, whose plane holds X3, and m22.  A repeated z has
    3 - exact_rank(m - zI) blocks, which with its multiplicity fixes their
    sizes on a 3x3 block.  Values are rounded by np.round(x, 6), half to
    even after scaling: 2.0000005 gives 2.0, where round gives 2.000001.  A
    value past about 1.8e302, where the scaling by 1e6 overflows, has no
    fractional digits and keeps its value."""
    import numpy as np
    from .lie_core import _integers, exact_rank
    mats = np.array([ad2_block(spec) for spec in grid]).reshape(-1, 3, 3)
    members = []
    # a: the block times a power of two, in integers, so m - zI is exact
    for m, a in zip(mats.tolist(), _integers(mats)):
        if m[1][0]:
            pair = [(m[0][0], m[1][0]), (m[0][0], -m[1][0])]
            members.append(([(*z, 1) for z in pair] + [(m[2][2], 0.0, 1)], pair))
            continue
        d = [m[0][0], m[1][1], m[2][2]]
        blocks = []
        for z in set(d):
            mult, i = d.count(z), d.index(z)
            g = 1 if mult == 1 else 3 - exact_rank(
                [[x - a[i][i] * (j == k) for k, x in enumerate(row)] for j, row in enumerate(a)])
            blocks += [(z, 0.0, mult - g + 1)] + [(z, 0.0, 1)] * (g - 1)
        members.append((blocks, [(d[0], 0.0)]))
    vals = np.array([x for b, w in members for z in (*b, *w) for x in z[:2]])
    with np.errstate(over="ignore"):
        rounded = np.round(vals, 6)
    keys = iter(np.where(np.isfinite(rounded), rounded, vals).tolist())
    return [(tuple(sorted((next(keys), next(keys), z[2]) for z in b)),
             tuple(sorted((next(keys), next(keys)) for _ in w))) for b, w in members]
