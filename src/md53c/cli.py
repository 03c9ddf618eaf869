"""Command-line driver: catalog listing, batch verification runs, orbit
evaluation, classification and fibration checks, K-theory reports, and the
consolidated claims run.

Every flag is mirrored by an MD53C_-prefixed environment variable; explicit
flags win.  Reports carry "schema": 3 and are byte-deterministic for a fixed
configuration (keys sorted, no timestamps, seeded sampling only).  Every
sampled check reports as one CheckReport record; the orbit-dimension
dichotomy is certified exactly, with one record per grid member.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .catalog import (_FAMILIES, _REPRESENTATIVE, _SPELLING, _structure_grid, ad2_block,
                      build_algebra, default_grid, family_spec, jordan_signature_grid)
from .coadjoint import (coadjoint_flow, flow_check_grid, kirillov_form_rank, md_property_grid,
                        orbit_chart, same_leaf)
from .errors import DomainError, InconsistentInput, InvalidParams, UnsupportedExpr, UnsupportedMap
from .foliation import fibration_check, verify_classification_grid
from .ktheory import (
    AbGroup,
    B_CROSSED,
    DELTA0_DEFAULT,
    J_DESCRIPTOR,
    MIDDLE_DESCRIPTOR,
    ZMat,
    _ext_class,
    descriptor_k_groups,
    Euclid,
    index_invariant,
    Product,
    Punctured,
    scenario_input,
    space_k_groups,
    Sphere,
)
from .lie_core import derived_subalgebra, jacobi_defect

_ENV_PREFIX = "MD53C_"


@dataclass
class RunConfig:
    seed: int = 1729
    samples: int = 1000
    tol_rank: float = 1e-9
    tol_leaf: float = 1e-8
    tol_map: float = 1e-6
    output: str = None
    format: str = "json"

    def validate(self):
        if self.seed < 0:
            raise InvalidParams("seed must be >= 0")
        if self.samples < 1:
            raise InvalidParams("samples must be >= 1")
        tols = (self.tol_rank, self.tol_leaf, self.tol_map)
        if not all(math.isfinite(t) and t > 0.0 for t in tols):
            raise InvalidParams("tolerances must be finite and positive")
        if self.format not in ("json", "text"):
            raise InvalidParams("format must be 'json' or 'text'")

    def to_json(self):
        # every field but where and how the payload is written
        return {k: v for k, v in asdict(self).items() if k not in ("output", "format")}


def _setting(args, f):
    # RunConfig field f from its flag if given, else from its MD53C_ variable,
    # else its default; a variable that f cannot read fails even under a flag
    name = _ENV_PREFIX + f.name.upper()
    raw = os.environ.get(name)
    try:
        env = f.default if raw is None else f.type(raw)
    except ValueError:
        raise InvalidParams(f"bad value for {name}: {raw!r}")
    flag = getattr(args, f.name)
    return env if flag is None else flag


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


def _parse_delta0(text):
    try:
        vals = [int(v) for v in text.split(",")]
    except ValueError:
        raise InvalidParams(f"delta0 entries must be integers: {text!r}")
    return ZMat(len(vals), 1, tuple((v,) for v in vals))


# ---------------------------------------------------------------------------
# subcommands


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
    sc = build_algebra(spec)
    _, rank = kirillov_form_rank(sc, point, tol=config.tol_rank)
    chart = orbit_chart(spec, point, tol=config.tol_rank)
    payload = {
        "spec": spec.to_json(),
        "label": spec.label(),
        "point": [float(v) for v in point],
        "kirillov_rank": int(rank),
        "orbit_dim": chart.dim,
        "chart_base": [float(v) for v in chart.base],
    }
    if args.word is not None:
        word = _parse_word(args.word)
        flowed = coadjoint_flow(sc, point, word)
        # a flow keeps the orbit dimension: a plane point that reads as a
        # point orbit after the flow has underflowed to zero or overflowed
        if chart.dim == 2 and orbit_chart(spec, flowed, tol=config.tol_rank).dim == 0:
            raise DomainError("the flow left the floating-point range: the flowed "
                              "point reads as a point orbit")
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


def _scenario_doc(name, delta0):
    return _ext_class(scenario_input(name, delta0)).to_json()


def cmd_ktheory(config, args):
    delta0 = DELTA0_DEFAULT if args.delta0 is None else _parse_delta0(args.delta0)
    names = ("paper", "fibration") if args.scenario == "both" else (args.scenario,)
    docs = [_scenario_doc(name, delta0) for name in names]
    payload = {"scenarios": docs}
    if len(docs) == 2:
        payload["ambiguity"] = (
            "K1 of the quotient is Z under the crossed-product reading but 0 under "
            "the printed fibration reading, so K1 of the middle algebra is Z^2 or Z; "
            "K0 (= 0) and the Ext class agree either way"
        )
    return payload, 0


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
    bad_structure = [r["source"] for r in md_reports if {"kind": "structure"} in r["failures"]]
    add("md-structure",
        "family definitions (the eight five-dimensional structures)",
        "verified",
        "every grid member satisfies the bracket identities and has a "
        "three-dimensional commutative derived ideal",
        {"grid_entries": len(grid)},
        [f"structure checks failed for {bad_structure}"] if bad_structure else ())
    counted("orbit-dimension-dichotomy",
            "orbit description proposition (dimension dichotomy)",
            "every functional has Kirillov rank 0 or 2, rank 2 exactly where "
            "(gamma, delta, sigma) are not all zero, certified exactly per member",
            {"grid_entries": len(grid)},
            sum(len(r["failures"]) for r in md_reports) - len(bad_structure),
            "certificate failures")

    # the printed rank-2 condition names the wrong coordinates
    probe = np.array([0.0, 5.0, 0.0, 0.0, 0.0])
    sc1 = build_algebra(grid[0])
    _, rank_probe = kirillov_form_rank(sc1, probe, tol=config.tol_rank)
    _, rank_good = kirillov_form_rank(
        sc1, np.array([0.0, 0.0, 1.0, 0.0, 0.0]), tol=config.tol_rank)
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
    _, rank_sigma = kirillov_form_rank(
        sc8, np.array([0.0, 0.0, 0.0, 0.0, 1.0]), tol=config.tol_rank)
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
    fib_doc = _scenario_doc("fibration", DELTA0_DEFAULT)
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
        _scenario_doc("paper", ZMat(2, 1, ((2,), (2,))))
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


# ---------------------------------------------------------------------------
# rendering


def _render_six_term(doc):
    g = {k: AbGroup.from_json(v) for k, v in doc["corners"].items()}
    g.update({f"{k}(A)": AbGroup.from_json(v) for k, v in doc["middle"].items()})
    top = [f"{k} = {g[k]}" for k in ("K0(J)", "K0(A)", "K0(B)")]
    bot = [f"{k} = {g[k]}" for k in ("K1(B)", "K1(A)", "K1(J)")]
    w = max(len(c) for c in top + bot) + 2
    d0 = doc["delta0"]["entries"]
    d1 = doc["delta1"]["entries"]
    return [
        f"scenario: {doc['scenario']}",
        "  " + "  -->  ".join(c.ljust(w) for c in top).rstrip(),
        "  " + "^".ljust(w + 7) + "".ljust(w + 7) + "|",
        "  " + f"| delta1 = {d1}".ljust(w + 7) + "".ljust(w + 7)
        + f"| delta0 = {d0}",
        "  " + "|".ljust(w + 7) + "".ljust(w + 7) + "v",
        "  " + "  <--  ".join(c.ljust(w) for c in bot).rstrip(),
        f"  ext class: delta0 = {d0}, invariant factors "
        f"{doc['ext_class']['invariant_factors']['delta0']}, "
        f"Ext(B, J) = {AbGroup.from_json(doc['ext_class']['ext_group'])}",
    ]


def _dump_text(obj, indent, lines):
    # a dict item reads "key: value" in key order, a list item "- value"; a
    # nested value follows on its own lines, one level deeper
    pad = "  " * indent
    items = ([(f"{k}:", obj[k]) for k in sorted(obj)] if isinstance(obj, dict)
             else [("-", v) for v in obj])
    for head, v in items:
        if isinstance(v, (dict, list)):
            lines.append(pad + head)
            _dump_text(v, indent + 1, lines)
        else:
            lines.append(f"{pad}{head} {v}")


def _render_text(payload):
    lines = []
    if payload.get("command") == "ktheory" and "scenarios" in payload:
        for doc in payload["scenarios"]:
            lines.extend(_render_six_term(doc))
            lines.append("")
        if "ambiguity" in payload:
            lines.append(f"note: {payload['ambiguity']}")
    else:
        _dump_text(payload, 0, lines)
    return "\n".join(lines).rstrip() + "\n"


def _emit(payload, config):
    if config.format == "json":
        try:
            text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
        except ValueError:
            raise DomainError("the result overflowed: the payload holds a non-finite value")
    else:
        text = _render_text(payload)
    if config.output in (None, "-"):
        try:
            print(text, end="", flush=True)
        except OSError as e:
            # drop the stream, or its buffer fails again in the flush at exit
            sys.stdout = None
            raise InvalidParams(f"cannot write stdout: {e.strerror}")
    else:
        try:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise InvalidParams(f"cannot write {config.output}: {e.strerror}")


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    # one flag per RunConfig field, None when not given: _setting settles it
    for f in fields(RunConfig):
        flags = ["--" + f.name.replace("_", "-")] + (["-o"] if f.name == "output" else [])
        common.add_argument(*flags, type=f.type)
    # accepted and ignored for the benchmark's audit arguments, until ROADMAP item 10
    common.add_argument("--md-samples", type=int, help=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="md53c",
        description="verification toolkit for the five-dimensional solvable "
                    "families: orbit geometry, leaf classification, and "
                    "leaf-space K-theory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand carries the function that runs it
    for name, run, text in (
        ("catalog", cmd_catalog, "list the families and the verification grid"),
        ("verify-md", cmd_verify_md, "orbit-dimension dichotomy across the grid"),
        ("orbit", cmd_orbit, "Kirillov rank, orbit chart, and flows at a point"),
        ("classify", cmd_classify, "coordinate-change and fibration checks for both types"),
        ("ktheory", cmd_ktheory, "six-term diagrams and the extension class"),
        ("verify-claims", cmd_verify_claims,
         "run the whole battery and aggregate the claim ledger"),
    ):
        sub.add_parser(name, parents=[common], help=text).set_defaults(run=run)
    orbit = sub.choices["orbit"]
    orbit.add_argument("--family", required=True)
    for attr, key in _SPELLING.items():
        orbit.add_argument(f"--{key}", dest=attr, type=float, default=None)
    orbit.add_argument("--point", required=True,
                       help="comma-separated coordinates a,b,c,d,e")
    orbit.add_argument("--word", default=None,
                       help="flow word i:t,i:t,... (1-based generator indices)")
    orbit.add_argument("--eval", dest="eval_at", default=None,
                       help="evaluate the chart at b,a")
    kt = sub.choices["ktheory"]
    kt.add_argument("--scenario", choices=("paper", "fibration", "both"),
                    default="both")
    kt.add_argument("--delta0", default=None,
                    help="integer column for the exponential connecting map, "
                         "e.g. 1,1")
    return parser


_PARSER = _build_parser()


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
        config = RunConfig(**{f.name: _setting(args, f) for f in fields(RunConfig)})
        config.validate()
        # an overflow surfaces as a non-finite payload value, which _emit
        # reports as an error; inconsistent input is reported in the payload
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                payload, code = args.run(config, args)
        except InconsistentInput as e:
            payload, code = {"error": str(e)}, 1
        _emit({"schema": 3, "command": args.command,
               "config": config.to_json(), **payload}, config)
    except (InvalidParams, DomainError, UnsupportedMap, UnsupportedExpr) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
