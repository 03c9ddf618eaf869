"""Verification toolkit for the five-dimensional solvable Lie algebras whose
derived ideal is three-dimensional and commutative: builds the eight
parameterized families, checks the coadjoint orbit-dimension dichotomy,
cross-checks closed orbit charts against integrated flows, verifies the
two-type topological classification of the orbit foliations, and computes the
K-theory and index invariant of the associated leaf-space C*-algebras with
exact integer arithmetic.
"""

from . import catalog, coadjoint, errors, foliation, ktheory, lie_core
from .catalog import *  # noqa: F401,F403
from .coadjoint import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .foliation import *  # noqa: F401,F403
from .ktheory import *  # noqa: F401,F403
from .lie_core import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (catalog, coadjoint, errors, foliation, ktheory, lie_core)
    for name in module.__all__
] + ["__version__"]
