"""Command-line driver: catalog listing, batch verification runs, orbit
evaluation, classification and fibration checks, K-theory reports, and the
consolidated claims run.

Every flag is mirrored by an MD53C_-prefixed environment variable; explicit
flags win.  Reports carry "schema": 4 and are byte-deterministic for a fixed
configuration (keys sorted, no timestamps, seeded sampling only).

The ktheory command runs here, in integers.  The other five compute in floats
and live in float_commands, which main imports on the first dispatch of one
of them, so that importing this module, --help and ktheory load no numpy.

One recursive writer, _write_json, writes every JSON payload.  Its bytes are
those of json.dumps(payload, sort_keys=True, indent=2, allow_nan=False),
which with an indent runs the stdlib's pure-Python encoder.
"""

import argparse
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from json.encoder import encode_basestring_ascii

from .catalog import _SPELLING
from .errors import DomainError, InconsistentInput, InvalidParams, UnsupportedExpr, UnsupportedMap
from .ktheory import DELTA0_DEFAULT, AbGroup, ZMat, _ext_class, scenario_input

_ENV_PREFIX = "MD53C_"


@dataclass
class RunConfig:
    seed: int = 1729
    samples: int = 1000
    tol_leaf: float = 1e-8
    tol_map: float = 1e-6
    output: str = None
    format: str = "json"

    def validate(self):
        if self.seed < 0:
            raise InvalidParams("seed must be >= 0")
        if self.samples < 1:
            raise InvalidParams("samples must be >= 1")
        if not all(math.isfinite(t) and t > 0.0 for t in (self.tol_leaf, self.tol_map)):
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


def _parse_delta0(text):
    try:
        vals = [int(v) for v in text.split(",")]
    except ValueError:
        raise InvalidParams(f"delta0 entries must be integers: {text!r}")
    return ZMat(len(vals), 1, tuple((v,) for v in vals))


# ---------------------------------------------------------------------------
# subcommands


def cmd_ktheory(config, args):
    delta0 = DELTA0_DEFAULT if args.delta0 is None else _parse_delta0(args.delta0)
    names = ("paper", "fibration") if args.scenario == "both" else (args.scenario,)
    docs = [_ext_class(scenario_input(name, delta0)).to_json() for name in names]
    payload = {"scenarios": docs}
    if len(docs) == 2:
        payload["ambiguity"] = (
            "K1 of the quotient is Z under the crossed-product reading but 0 under "
            "the printed fibration reading, so K1 of the middle algebra is Z^2 or Z; "
            "K0 (= 0) and the Ext class agree either way"
        )
    return payload, 0


def _float_command(config, args):
    # the other five commands compute in floats: their module, and numpy with
    # it, is imported on the first dispatch of one of them
    from .float_commands import run

    return run(config, args)


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
        elif isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"{head} {v}")  # _emit reports it as an overflow
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


def _write_json(obj, pad, out):
    # json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) as chunks of
    # out, with the stdlib's scalar encoders in its isinstance order: a bool
    # writes as true/false, a float subclass such as np.float64 as a float;
    # pad is the newline and indent of obj's own line
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        out.append(float.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        head = "[" + inner
        for v in obj:
            out.append(head)
            _write_json(v, inner, out)
            head = "," + inner
        out.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        head = "{" + inner
        for k in sorted(obj):
            out.append(head + encode_basestring_ascii(k) + ": ")
            _write_json(obj[k], inner, out)
            head = "," + inner
        out.append(pad + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _render_json(payload):
    out = []
    _write_json(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _emit(payload, config):
    try:
        text = (_render_json if config.format == "json" else _render_text)(payload)
    except ValueError:
        raise DomainError("the result overflowed: the payload holds a non-finite value")
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
        ("catalog", _float_command, "list the families and the verification grid"),
        ("verify-md", _float_command, "orbit-dimension dichotomy across the grid"),
        ("orbit", _float_command, "orbit dimension, orbit chart, and flows at a point"),
        ("classify", _float_command, "coordinate-change and fibration checks for both types"),
        ("ktheory", cmd_ktheory, "six-term diagrams and the extension class"),
        ("verify-claims", _float_command,
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
        # inconsistent input is reported in the payload
        try:
            payload, code = args.run(config, args)
        except InconsistentInput as e:
            payload, code = {"error": str(e)}, 1
        _emit({"schema": 4, "command": args.command,
               "config": config.to_json(), **payload}, config)
    except (InvalidParams, DomainError, UnsupportedMap, UnsupportedExpr) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
