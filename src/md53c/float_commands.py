"""The five subcommands that compute in floats: catalog, verify-md, orbit,
classify and verify-claims.  cli.main imports this module, and numpy with
it, on the first dispatch of one of them, so that the ktheory command and
--help start without numpy.

Every sampled check reports as one CheckReport record; the MD structure and
the orbit-dimension dichotomy are certified exactly, one record per grid
member, so an orbit's dimension, 2 where (gamma, delta, sigma) != 0, reads no
tolerance.  Each command runs under one np.errstate guard: an overflow
surfaces as a non-finite payload value, which cli._emit reports as an error.
"""

import math
from dataclasses import replace

import numpy as np

from .catalog import (_FAMILIES, _REPRESENTATIVE, _SPELLING, _structure_grid, ad2_block,
                      build_algebra, default_grid, family_spec, jordan_signature_grid)
from .coadjoint import (coadjoint_flow, flow_check_grid, kirillov_form_rank, md_property_grid,
                        orbit_chart, same_leaf)
from .errors import DomainError, InconsistentInput, InvalidParams
from .foliation import fibration_check, verify_classification_grid
from .ktheory import (B_CROSSED, J_DESCRIPTOR, MIDDLE_DESCRIPTOR, AbGroup, Euclid, Product,
                      Punctured, Sphere, ZMat, _ext_class, descriptor_k_groups, index_invariant,
                      scenario_input, space_k_groups)
from .lie_core import derived_subalgebra, jacobi_defect


def run(config, args):
    """The payload and exit code of the float command args.command."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _COMMANDS[args.command](config, args)


def _finite(text):
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"not finite: {text!r}")
    return v


def _parse_reals(text, n, what):
    parts = text.split(",")
    if len(parts) != n:
        raise InvalidParams(f"{what} must be {n} comma-separated reals")
    try:
        return [_finite(v) for v in parts]
    except ValueError:
        raise InvalidParams(f"{what} needs finite numeric entries: {text!r}")


def _parse_word(text):
    word = []
    if not text:
        return word
    for step in text.split(","):
        try:
            i, t = step.split(":")
            word.append((int(i), _finite(t)))
        except ValueError:
            raise InvalidParams(f"flow word steps look like i:t with finite t, got {step!r}")
    return word


def cmd_catalog(config, args):
    grid = default_grid()
    # the structure checks and the Jordan data of the whole grid, one call each
    c = _structure_grid(grid)
    defects, dims = jacobi_defect(c), derived_subalgebra(c)[0]
    signatures = jordan_signature_grid(grid)
    entries = []
    for spec, defect, dim, (blocks, weights) in zip(grid, defects, dims, signatures):
        entry = dict(spec.to_json())
        entry.update({
            "label": spec.label(),
            "matrix": ad2_block(spec).tolist(),
            "jacobi_defect": float(defect),
            "derived_dim": int(dim),
            "jordan_blocks": [list(b) for b in blocks],
            "derived_generator_weights": [list(w) for w in weights],
        })
        entries.append(entry)
    families = [{"family": name, "params": [key for _, key in fam.params],
                 "action": fam.action, "constraints": fam.constraints}
                for name, fam in _FAMILIES.items()]
    return {"families": families, "grid": entries}, 0


def _classifications(config, grid):
    """The classification check of each grid member against its type
    representative, in one grid call, and the labels of the half-plane
    members, which no map covers and which are skipped."""
    checks = verify_classification_grid([spec for spec in grid if not spec.is_halfplane],
                                        n=config.samples, seed=config.seed, tol=config.tol_map)
    return checks, [spec.label() for spec in grid if spec.is_halfplane]


def _fibrations(config):
    return [fibration_check(kind, n=config.samples, seed=config.seed, tol=config.tol_leaf)
            for kind in ("F1", "F2")]


def _total(reports):
    # every failure of the CheckReports, not only those their payloads list
    return sum(r.failures_total for r in reports)


def cmd_verify_md(config, args):
    reports = md_property_grid(default_grid())
    bad = sum(len(r["failures"]) for r in reports)
    payload = {
        "entries": reports,
        "summary": {"grid_entries": len(reports), "failures": bad},
    }
    return payload, 0 if bad == 0 else 1


def cmd_orbit(config, args):
    spec = family_spec(args.family, **{attr: getattr(args, attr) for attr in _SPELLING})
    point = np.array(_parse_reals(args.point, 5, "--point"))
    chart = orbit_chart(spec, point)
    payload = {
        "spec": spec.to_json(),
        "label": spec.label(),
        "point": [float(v) for v in point],
        "orbit_dim": chart.dim,
        "chart_base": [float(v) for v in chart.base],
    }
    if args.word is not None:
        word = _parse_word(args.word)
        flowed = coadjoint_flow(build_algebra(spec), point, word)
        # a flow keeps the orbit, so a plane orbit flowed to (gamma, delta,
        # sigma) = 0 has underflowed, and same_leaf would read a point orbit
        if chart.dim == 2 and not flowed[2:].any():
            raise DomainError("the flow underflowed (gamma, delta, sigma) of a point on a "
                              "plane orbit to 0, so same_leaf cannot decide whether the "
                              "points share a leaf")
        payload["flow_word"] = [[i, t] for i, t in word]
        payload["flowed"] = [float(v) for v in flowed]
        payload["flowed_same_leaf"] = bool(
            same_leaf(spec, point, flowed, tol=config.tol_leaf))
    if args.eval_at is not None:
        b, a = _parse_reals(args.eval_at, 2, "--eval")
        payload["chart_eval"] = {"b": b, "a": a,
                                 "point": [float(v) for v in chart.eval(b, a)]}
    return payload, 0


def cmd_classify(config, args):
    grid = default_grid()
    members = {}
    for spec in grid:
        members.setdefault(_REPRESENTATIVE[spec.family].label(), []).append(spec.label())
    checks, halfplane = _classifications(config, grid)
    skipped = [{"source": label,
                "reason": "half-plane leaves at lambda = 0: the coordinate change "
                          "is undefined there and no map is checked for these leaves"}
               for label in halfplane]
    fib = _fibrations(config)
    bad = _total(checks + fib)
    payload = {
        "types": [{"representative": rep, "members": m} for rep, m in members.items()],
        "checks": [c.to_json() for c in checks],
        "fibration": [f.to_json() for f in fib],
        "skipped": skipped,
        "summary": {"checked": len(checks), "skipped": len(skipped), "failures": bad},
    }
    return payload, 0 if bad == 0 else 1


# ---------------------------------------------------------------------------
# the consolidated claims run


def cmd_verify_claims(config, args):
    claims = []
    failures = []

    def add(cid, location, status, details, evidence=None, failed=()):
        # a claim with failure details is marked failed and each detail is
        # listed under failures
        entry = {"id": cid, "paper_location": location,
                 "status": "failed" if failed else status, "details": details}
        if evidence is not None:
            entry["evidence"] = evidence
        claims.append(entry)
        failures.extend({"claim": cid, "detail": d} for d in failed)

    def counted(cid, location, details, evidence, bad, what):
        # a claim on checks that count failures: their count, and one
        # failure detail with it when any failed
        add(cid, location, "verified", details, {**evidence, "failures": bad},
            [f"{bad} {what}"] if bad else ())

    grid = default_grid()

    # structure and orbit dichotomy across the grid
    md_reports = md_property_grid(grid)
    uncertified = [r["source"] for r in md_reports if not r["ok"]]
    add("md-structure",
        "family definitions (the eight five-dimensional structures)",
        "verified",
        "every grid member satisfies the bracket identities and has a "
        "three-dimensional commutative derived ideal",
        {"grid_entries": len(grid)},
        [f"the certificate failed for {uncertified}"] if uncertified else ())
    counted("orbit-dimension-dichotomy",
            "orbit description proposition (dimension dichotomy)",
            "every functional has Kirillov rank 0 or 2, rank 2 exactly where "
            "(gamma, delta, sigma) are not all zero, certified exactly per member",
            {"grid_entries": len(grid)},
            sum(len(r["failures"]) for r in md_reports),
            "certificate failures")

    # the printed rank-2 condition names the wrong coordinates
    probe = np.array([0.0, 5.0, 0.0, 0.0, 0.0])
    sc1 = build_algebra(grid[0])
    _, rank_probe = kirillov_form_rank(sc1, probe)
    _, rank_good = kirillov_form_rank(sc1, np.array([0.0, 0.0, 1.0, 0.0, 0.0]))
    ok = rank_probe == 0 and rank_good == 2
    add("orbit-rank2-condition",
        "orbit description proposition, two-dimensional case condition",
        "discrepancy",
        ("the printed condition beta^2 + gamma^2 + delta^2 + sigma^2 != 0 "
         "includes beta, but a functional with only beta nonzero has a "
         "zero-dimensional orbit; the correct condition is "
         "gamma^2 + delta^2 + sigma^2 != 0") if ok else "probe did not behave",
        {"probe": [float(v) for v in probe], "kirillov_rank": int(rank_probe),
         "source": grid[0].label()} if ok else None,
        () if ok else [f"expected ranks (0, 2), got ({rank_probe}, {rank_good})"])

    # closed orbit charts agree with the integrated flow, on each family's
    # first grid member
    flows = flow_check_grid([family_spec(name, *fam.grid[0]) for name, fam in _FAMILIES.items()],
                            config.samples, config.seed, config.tol_leaf)
    counted("orbit-closed-forms",
            "orbit description proposition (orbit formulas per family)",
            "points moved by random coadjoint flow words of up to six steps stay "
            "on the leaf predicted by the closed-form chart",
            {"families": len(flows), "samples_per_family": config.samples},
            _total(flows), "flow/chart mismatches")

    # the printed rotation-family orbit frees the wrong coordinate
    spec8 = _REPRESENTATIVE["F8"]
    p8 = np.array([0.4, 0.0, 1.0, 0.0, 1.0])
    alpha_shift = bool(same_leaf(spec8, p8, p8 + np.eye(5)[0], tol=config.tol_leaf))
    beta_shift = bool(same_leaf(spec8, p8, p8 + np.eye(5)[1], tol=config.tol_leaf))
    sc8 = build_algebra(spec8)
    _, rank_sigma = kirillov_form_rank(sc8, np.array([0.0, 0.0, 0.0, 0.0, 1.0]))
    ok = (not alpha_shift) and beta_shift and rank_sigma == 2
    add("family8-printed-orbit",
        "orbit description proposition, rotation-family case",
        "discrepancy",
        ("the printed orbit leaves the first coordinate free and conditions "
         "on beta^2 + gamma^2 != 0 != sigma; in fact the flow determines the "
         "first coordinate (shifting it leaves the leaf) while the second is "
         "free, and a functional with only sigma nonzero still has a "
         "two-dimensional orbit") if ok else "probes did not behave",
        {"alpha_shift_same_leaf": alpha_shift,
         "beta_shift_same_leaf": beta_shift,
         "rank_at_pure_sigma": int(rank_sigma)} if ok else None,
        () if ok else [f"probes gave ({alpha_shift}, {beta_shift}, {rank_sigma})"])

    # two topological types via the coordinate changes; F4 maps onto itself
    # by the identity, so it is not a source here
    checks, skipped = _classifications(config, [s for s in grid if s.family != "F4"])
    add("two-topological-types",
        "classification theorem (exactly two topological types)",
        "verified",
        "the per-family coordinate changes carry leaves to leaves of the type "
        "representative in both directions on sampled same-leaf and "
        "different-leaf pairs, and invert to round trips",
        {"sources": [c.source for c in checks], "samples_per_source": config.samples,
         "failures": _total(checks)},
        [f"{c.source}: {c.failures_total} failures" for c in checks if not c.ok])

    add("halfplane-families",
        "classification theorem, first type at lambda = 0",
        "out_of_scope",
        "at lambda = 0 the printed coordinate change uses the exponent "
        "1/lambda and is undefined; those foliations contain plane and "
        "half-plane leaves, and no map is checked for those leaves",
        {"skipped": skipped})

    # fibration structure for the first type; action structure for the
    # second type, plus the printed-p probe
    fib1, fib2 = _fibrations(config)
    counted("type-f1-fibration",
            "classification theorem proof, item 2.1 (fibration over the invariant base)",
            "the (x + z, unit direction) invariant separates leaves of the "
            "identity-action family exactly",
            {"samples": config.samples}, fib1.failures_total, "failures")
    counted("rho-action",
            "classification theorem proof, item 2.2 (plane action on V)",
            "the (r, a) plane action is an abelian action whose orbits are exactly "
            "the rotation-family leaves; (r, a) is recovered from coordinates",
            {"samples": config.samples}, fib2.failures_total, "failures")
    # the same failures, listed once under rho-action
    add("leaf-invariants-complete",
        "classification theorem proof, item 2.2 (leaf space of the two regions)",
        "verified" if fib2.ok else "failed",
        "the twisted invariant on the region s != 0 and the (x - t, radius) "
        "invariant on s = 0 are complete leaf invariants",
        {"samples": config.samples})
    for d in fib2.discrepancies:
        add("printed-u-submersion", d["paper_location"], "discrepancy",
            d["observed"], {"claim": d["claim"]})
    if not fib2.discrepancies:
        failures.append({"claim": "printed-u-submersion",
                         "detail": "the printed-projection probe did not run"})

    # K-theory fixtures
    fixtures = {
        "C0(R^2 x (R minus 0))": (Product(Euclid(2), Punctured(1)), (0, 2)),
        "C0(R^2 minus 0)": (Punctured(2), (1, 1)),
        "C0(R^3 minus 0)": (Punctured(3), (0, 2)),
        "C0(R x S^2) x K": (Product(Euclid(1), Sphere(2)), (0, 2)),
    }
    fixture_report, fixture_bad = {}, []
    for name, (space, want) in sorted(fixtures.items()):
        k0, k1 = space_k_groups(space)
        fixture_report[name] = [str(k0), str(k1)]
        if (k0, k1) != (AbGroup(want[0]), AbGroup(want[1])):
            fixture_bad.append(f"{name}: got ({k0}, {k1})")
    add("k-group-fixtures",
        "K-group lemma, parts a-c, and the leaf-space corollary for the first type",
        "verified",
        "the boundary slice, punctured plane, punctured 3-space, and the "
        "first-type leaf space have the stated K-groups",
        fixture_report, fixture_bad)

    j0, j1 = descriptor_k_groups(J_DESCRIPTOR)
    ideal_ok = (j0, j1) == (AbGroup(0), AbGroup(2))
    add("boundary-ideal-k",
        "leaf-space algebra analysis (ideal of the two open half-spaces)",
        "verified",
        "the ideal carried by the two saturated half-spaces is stably the "
        "functions on two copies of R^3, with K-groups (0, Z^2)",
        {"K0": str(j0), "K1": str(j1)},
        () if ideal_ok else [f"got ({j0}, {j1})"])

    # the two readings of the quotient and the middle algebra; the paper
    # reading is solved with its middle left free, so that six-term-middle
    # can read failed instead of the solve raising
    paper_doc = _ext_class(replace(scenario_input("paper"), expected_middle=None)).to_json()
    fib_doc = _ext_class(scenario_input("fibration")).to_json()
    add("quotient-k1",
        "quotient algebra description versus the final diagram (K1 position)",
        "discrepancy",
        "the quotient is described as stable functions on R x (0, inf), giving "
        "K1 = 0, while the final diagram places Z at that position (the "
        "crossed-product reading); the middle K1 is then Z or Z^2 accordingly, "
        "and only K0 = 0 and the Ext class are reading-independent",
        {"crossed": {"K1(B)": paper_doc["corners"]["K1(B)"],
                     "middle_K1": paper_doc["middle"]["K1"]},
         "fibration": {"K1(B)": fib_doc["corners"]["K1(B)"],
                       "middle_K1": fib_doc["middle"]["K1"]}})

    mid0, mid1 = descriptor_k_groups(MIDDLE_DESCRIPTOR)
    six_ok = paper_doc["middle"] == {"K0": mid0.to_json(), "K1": mid1.to_json()}
    add("six-term-middle",
        "final theorem (six-term diagram)",
        "verified",
        "with the crossed-product corners the six-term sequence yields middle "
        "K-groups (0, Z^2), matching the direct crossed-product computation",
        {"middle": paper_doc["middle"]},
        () if six_ok else [f"middle was {paper_doc['middle']}"])

    ext_ok = (paper_doc["ext_class"]["ext_group"] == {"free": 2, "torsion": []}
              and paper_doc["ext_class"]["invariant_factors"]["delta0"] == [1])
    try:
        _ext_class(scenario_input("paper", ZMat(2, 1, ((2,), (2,)))))
        rejected = False
    except InconsistentInput:
        rejected = True
    alt = index_invariant(J_DESCRIPTOR, B_CROSSED, ZMat(2, 1, ((1,), (0,))),
                          ZMat.zeros(0, 1))
    equivalent = list(alt.delta0_factors) == \
        paper_doc["ext_class"]["invariant_factors"]["delta0"]
    add("ext-class",
        "final theorem (index invariant of the extension)",
        "verified",
        "the extension class is ((1,1)^t, 0) in Ext = Hom(Z, Z^2); exactness "
        "forces the class primitive (doubled entries are rejected), and "
        "(1,0)^t is the same class after a basis change",
        {"ext_group": paper_doc["ext_class"]["ext_group"],
         "doubled_rejected": rejected,
         "unimodular_equivalent": equivalent},
        () if ext_ok and rejected and equivalent else ["index-invariant expectations not met"])
    n_disc = sum(1 for c in claims if c["status"] == "discrepancy")
    payload = {
        "claims": claims,
        "failures": failures,
        "summary": {
            "claims": len(claims),
            "verified": sum(1 for c in claims if c["status"] == "verified"),
            "discrepancies": n_disc,
            "out_of_scope": sum(1 for c in claims if c["status"] == "out_of_scope"),
            "failures": len(failures),
        },
    }
    return payload, 0 if not failures else 1


_COMMANDS = {"catalog": cmd_catalog, "verify-md": cmd_verify_md, "orbit": cmd_orbit,
             "classify": cmd_classify, "verify-claims": cmd_verify_claims}
