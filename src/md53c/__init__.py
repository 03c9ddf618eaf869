"""Verification toolkit for the five-dimensional solvable Lie algebras whose
derived ideal is three-dimensional and commutative: builds the eight
parameterized families, checks the coadjoint orbit-dimension dichotomy,
cross-checks closed orbit charts against integrated flows, verifies the
two-type topological classification of the orbit foliations, and computes the
K-theory and index invariant of the associated leaf-space C*-algebras with
exact integer arithmetic.

Importing the package loads none of its layers, so ``md53c.cli`` and the
integer commands start without numpy.  The first lookup of a name the package
does not hold imports the six layers and binds their public names here, as
star-imports of each would; from then on every name is a plain attribute.
The name of a submodule is left to the import system, so that
``from md53c import cli`` loads only the CLI.
"""

__version__ = "0.1.0"

_LAYERS = ("catalog", "coadjoint", "errors", "foliation", "ktheory", "lie_core")


def __getattr__(name):
    from importlib import import_module
    from pkgutil import iter_modules

    names = globals()
    # "from md53c import cli" looks the submodule up before it imports it, so
    # the name of a submodule loads nothing
    if "__all__" not in names and all(m.name != name for m in iter_modules(__path__)):
        public = []
        for layer in _LAYERS:
            module = import_module(f".{layer}", __name__)
            names.update({n: getattr(module, n) for n in module.__all__})
            public += module.__all__
        names["__all__"] = public + ["__version__"]
    if name not in names:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return names[name]
