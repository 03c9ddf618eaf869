"""The package surface: md53c re-exports exactly the public names of its
submodules, and every one of them resolves."""

import md53c
from md53c import catalog, coadjoint, errors, foliation, ktheory, lie_core


def test_all_is_the_union_of_the_submodules():
    names = [n for m in (catalog, coadjoint, errors, foliation, ktheory, lie_core)
             for n in m.__all__]
    assert len(names) == len(set(names))
    assert sorted(md53c.__all__) == sorted(names + ["__version__"])
    assert len(md53c.__all__) == 65
    for name in md53c.__all__:
        assert getattr(md53c, name) is not None, name
    # names the benchmark harness reads through the package
    for name in ("ZMat", "AbGroup", "SixTermInput", "scenario_input", "B_CROSSED",
                 "smith_normal_form", "family_spec", "verify_classification_grid"):
        assert name in md53c.__all__
