"""The command-line surface: payload schemas, exit codes, determinism, and
the environment-variable mirror of every flag."""

import argparse
import errno
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from md53c import coadjoint, foliation, ktheory
from md53c.catalog import family_spec
from md53c.cli import RunConfig, _render_json, main


def run_json(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main([*args, "-o", str(out)])
    return code, json.loads(out.read_text())


def test_catalog_payload(tmp_path):
    code, doc = run_json(["catalog"], tmp_path)
    assert code == 0
    assert doc["schema"] == 4
    assert doc["command"] == "catalog"
    assert len(doc["grid"]) == 36
    assert len(doc["families"]) == 8
    entry = doc["grid"][0]
    for key in ("label", "matrix", "jacobi_defect", "derived_dim", "jordan_blocks"):
        assert key in entry
    assert entry["derived_dim"] == 3


def test_orbit_payload(tmp_path):
    code, doc = run_json(
        [
            "orbit",
            "--family", "F1", "--lambda1", "2", "--lambda2", "3",
            "--point", "1,0,1,0,0",
            "--word", "2:0.6931471805599453",
            "--eval", "5,0.6931471805599453",
        ],
        tmp_path,
    )
    assert code == 0
    assert doc["orbit_dim"] == 2 and "kirillov_rank" not in doc
    assert doc["flowed_same_leaf"] is True
    assert doc["flowed"] == pytest.approx([1.375, 0.0, 0.25, 0.0, 0.0])
    assert doc["chart_eval"]["point"] == pytest.approx([-0.5, 5.0, 4.0, 0.0, 0.0])


def test_no_subcommand_searches_for_a_leaf(tmp_path, monkeypatch):
    # classify, verify-claims and orbit --word read the chart at a known
    # time or a complete leaf invariant: with the leaf search made to raise,
    # each writes the same bytes, and neither float module binds same_leaf
    from md53c import float_commands

    runs = [["classify", "--samples", "20", "--seed", "3"],
            ["verify-claims", "--samples", "20", "--seed", "3"],
            ["orbit", "--family", "F8", "--lambda", "2", "--phi", "0.5",
             "--point", "1,0,1,0.3,0.2", "--word", "2:0.7,4:0.3,2:-1.5,1:2"]]

    def written(name):
        out = [tmp_path / f"{name}{k}.json" for k in range(len(runs))]
        assert [main([*args, "-o", str(o)]) for args, o in zip(runs, out)] == [0, 0, 0]
        return [o.read_bytes() for o in out]

    want = written("free")

    def no_search(*args):
        raise AssertionError("a subcommand searched for a leaf")

    monkeypatch.setattr(coadjoint, "_same_leaf", no_search)
    assert written("patched") == want
    assert not hasattr(foliation, "same_leaf") and not hasattr(float_commands, "same_leaf")


def test_orbit_usage_errors(capsys):
    assert main(["orbit", "--family", "F1", "--lambda1", "2", "--lambda2", "3",
                 "--point", "1,2"]) == 2
    assert main(["orbit", "--family", "F2", "--lambda", "1", "--point", "0,0,1,0,0"]) == 2
    capsys.readouterr()
    # argparse requires --family; an empty one is an unknown family
    assert main(["orbit", "--family", "", "--point", "0,0,1,0,0"]) == 2
    assert capsys.readouterr().err == "error: unknown family ''\n"


def test_verify_md_small(tmp_path):
    code, doc = run_json(["verify-md"], tmp_path)
    assert code == 0
    assert doc["summary"] == {"failures": 0, "grid_entries": 36}
    assert len(doc["entries"]) == 36
    # the certificate draws nothing, so it has no samples, seed or tolerance
    assert all(set(e) == {"check", "source", "minor", "failures", "ok"} for e in doc["entries"])
    assert "md_samples" not in doc["config"]


def test_md_samples_is_accepted_and_ignored(tmp_path, monkeypatch, capsys):
    # the benchmark's audit arguments still pass --md-samples; it changes no
    # byte, and neither does the variable that used to mirror it
    assert main(["verify-md", "-o", str(tmp_path / "plain.json")]) == 0
    assert main(["verify-md", "--md-samples", "7", "-o", str(tmp_path / "flag.json")]) == 0
    monkeypatch.setenv("MD53C_MD_SAMPLES", "junk")
    assert main(["verify-md", "-o", str(tmp_path / "env.json")]) == 0
    plain = (tmp_path / "plain.json").read_bytes()
    assert (tmp_path / "flag.json").read_bytes() == plain == (tmp_path / "env.json").read_bytes()
    # it is still parsed as an integer, and the help does not list it
    with pytest.raises(SystemExit) as exit_info:
        main(["verify-md", "--md-samples", "many"])
    assert exit_info.value.code == 2
    with pytest.raises(SystemExit):
        main(["verify-md", "--help"])
    assert "--md-samples" not in capsys.readouterr().out


def test_classify_small(tmp_path):
    code, doc = run_json(["classify", "--samples", "25"], tmp_path)
    assert code == 0
    assert [t["representative"] for t in doc["types"]] == ["F4", "F8(1, 1.5708)"]
    assert doc["summary"] == {"checked": 34, "failures": 0, "skipped": 2}
    assert len(doc["skipped"]) == 2
    assert {f["check"] for f in doc["fibration"]} == {"fibration-F1", "fibration-F2"}
    assert len(doc["fibration"]) == 2


# the payload keys of a CheckReport, the one record of every sampled check
REPORT_KEYS = {"check", "source", "target", "n", "seed", "tol", "failures", "failures_total",
               "discrepancies", "ok"}


def test_every_sampled_check_reports_one_record(tmp_path):
    _, cl = run_json(["classify", "--samples", "10"], tmp_path, "cl.json")
    [flow] = coadjoint.flow_check_grid([family_spec("F1", -2, 3)], 10)
    flow = json.loads(json.dumps(flow.to_json()))
    records = cl["checks"] + cl["fibration"] + [flow]
    assert len(records) == 34 + 2 + 1
    assert all(set(r) == REPORT_KEYS for r in records)
    assert {r["check"] for r in records} == {"classification", "fibration-F1", "fibration-F2",
                                             "flow"}


def test_verify_md_counts_every_certificate_failure(tmp_path, monkeypatch):
    # [X3, X4] = X5 on F4 leaves a bracket off X2's row: verify-md and
    # verify-claims fail, and count it once
    build = coadjoint._structure_grid

    def rank4_on_f4(grid):
        c = build(grid)
        for spec, member_c in zip(grid, c):
            if spec.family == "F4":
                member_c[2, 3, 4], member_c[3, 2, 4] = 1.0, -1.0
        return c

    monkeypatch.setattr(coadjoint, "_structure_grid", rank4_on_f4)
    code, doc = run_json(["verify-md"], tmp_path)
    assert code == 1
    (bad,) = [e for e in doc["entries"] if not e["ok"]]
    assert bad["source"] == "F4" and bad["minor"] == [3, 4, 5]
    assert bad["failures"] == [{"kind": "bracket", "pair": [3, 4],
                                "bracket": [0.0, 0.0, 0.0, 0.0, 1.0]}]
    assert doc["summary"]["failures"] == 1
    # verify-claims reads the same certificate: md-structure names the
    # member, the dichotomy counts its failure
    code, doc = run_json(["verify-claims", "--samples", "10"], tmp_path, "claims.json")
    claims = {c["id"]: c for c in doc["claims"]}
    assert code == 1 and claims["md-structure"]["status"] == "failed"
    assert {"claim": "md-structure",
            "detail": "the certificate failed for ['F4']"} in doc["failures"]
    dichotomy = claims["orbit-dimension-dichotomy"]
    assert dichotomy["status"] == "failed" and dichotomy["evidence"] == {
        "grid_entries": 36, "failures": 1}
    assert {"claim": "orbit-dimension-dichotomy",
            "detail": "1 certificate failures"} in doc["failures"]


def _inf_past(forward):
    # forward, but every image coordinate is inf where |s| > 1.5
    def patched(m, x, y, z, t, s):
        return [np.where(np.abs(s) > 1.5, np.inf, col) for col in forward(m, x, y, z, t, s)]
    return patched


def test_classify_counts_failures_past_the_cap(tmp_path, monkeypatch):
    # F2's forward map overflows on a large share of samples: each F2
    # record lists 50 failures and counts every one, and so does the summary
    fwd, inv = foliation._MAPS["F2"]
    monkeypatch.setitem(foliation._MAPS, "F2", (_inf_past(fwd), inv))
    code, doc = run_json(["classify", "--samples", "300"], tmp_path)
    assert code == 1
    bad = [c for c in doc["checks"] if not c["ok"]]
    assert {c["source"][:2] for c in bad} == {"F2"} and len(bad) == 5
    assert all(c["failures_total"] > 50 == len(c["failures"]) for c in bad)
    assert doc["summary"]["failures"] == sum(c["failures_total"] for c in bad)


def test_non_finite_failure_fields_are_markers(tmp_path, monkeypatch):
    # a range failure's image can hold inf or NaN: the payload writes the
    # markers "inf", "-inf" and "nan" and the run exits 1, where it used to
    # fail on the whole payload with exit 2
    fwd, inv = foliation._MAPS["F2"]
    monkeypatch.setitem(foliation._MAPS, "F2", (_inf_past(fwd), inv))
    code, doc = run_json(["classify", "--samples", "20"], tmp_path)
    assert code == 1
    failures = [f for c in doc["checks"] for f in c["failures"]]
    ranges = [f for f in failures if f["kind"] == "range"]
    assert ranges and all(f["image"] == ["inf"] * 5 for f in ranges)
    assert all(isinstance(v, float) for f in ranges for v in f["p"])
    # the round trip of an off-V image is not taken: NaN, written as a marker
    assert {v for f in failures if f["kind"] == "roundtrip" for v in f["back"]} <= {"nan"}


def test_halfplane_texts_claim_no_comparison(tmp_path):
    # no check compares the lambda = 0 half-plane leaves, so neither payload
    # may say they are compared
    for args in (["classify", "--samples", "25"],
                 ["verify-claims", "--samples", "30"]):
        out = tmp_path / "out.json"
        assert main([*args, "-o", str(out)]) == 0
        text = out.read_text()
        assert "compared" not in text
        assert "no map is checked" in text


def test_ktheory_scenarios(tmp_path):
    code, doc = run_json(["ktheory"], tmp_path)
    assert code == 0
    middles = {d["scenario"]: d["middle"] for d in doc["scenarios"]}
    assert middles["paper"] == {
        "K0": {"free": 0, "torsion": []},
        "K1": {"free": 2, "torsion": []},
    }
    assert middles["fibration"]["K1"] == {"free": 1, "torsion": []}
    assert "Z^2 or Z" in doc["ambiguity"]
    for scen in doc["scenarios"]:
        assert scen["ext_class"]["invariant_factors"]["delta0"] == [1]


def test_ktheory_single_scenario(tmp_path):
    code, doc = run_json(["ktheory", "--scenario", "paper"], tmp_path)
    assert code == 0
    assert [d["scenario"] for d in doc["scenarios"]] == ["paper"]


def test_ktheory_doubled_map_rejected(tmp_path):
    out = tmp_path / "doubled.json"
    code = main(["ktheory", "--delta0", "2,2", "-o", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert "error" in doc and doc["schema"] == 4


def test_ktheory_empty_delta0_rejected(tmp_path, capsys):
    # an empty column used to fall back to the default class
    out = tmp_path / "out.json"
    assert main(["ktheory", "--delta0=", "-o", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: delta0 entries must be integers: ''\n"


def test_ktheory_text_grid(capsys):
    assert main(["ktheory", "--format", "text"]) == 0
    txt = capsys.readouterr().out
    assert "-->" in txt and "<--" in txt
    assert "K1(A) = Z^2" in txt
    assert "ext class" in txt


def test_generic_text_rendering(tmp_path):
    # every payload but ktheory's is dumped key by key
    args = ["verify-md", "--format", "text", "-o"]
    assert main([*args, str(tmp_path / "a.txt")]) == 0
    assert main([*args, str(tmp_path / "b.txt")]) == 0
    text = (tmp_path / "a.txt").read_bytes()
    assert text == (tmp_path / "b.txt").read_bytes()
    lines = text.decode().splitlines()
    top = [line.split(":")[0] for line in lines if not line.startswith(" ")]
    assert top == ["command", "config", "entries", "schema", "summary"]
    assert "schema: 4" in lines
    # each certificate record is one "-" item with its keys sorted beneath it
    starts = [i for i, line in enumerate(lines) if line == "  -"]
    assert len(starts) == 36
    for i in starts:
        keys = []
        for line in lines[i + 1:]:
            if not line.startswith("    "):
                break
            if not line.startswith("     "):
                keys.append(line.split(":")[0].strip())
        assert keys == sorted(keys) and "minor" in keys and "source" in keys


def test_text_lists_scalars_one_per_line(tmp_path):
    # a list of numbers, such as the orbit payload's point, is one "- value"
    # line per entry under its key
    out = tmp_path / "orbit.txt"
    assert main(["orbit", "--family", "F1", "--lambda1", "2", "--lambda2", "3",
                 "--point", "1,0,-1.5,0,2", "--format", "text", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    i = lines.index("point:")
    assert lines[i + 1:i + 7] == ["  - 1.0", "  - 0.0", "  - -1.5", "  - 0.0", "  - 2.0",
                                  "schema: 4"]
    assert "orbit_dim: 2" in lines and "  family: F1" in lines


def test_env_mirror(tmp_path, monkeypatch):
    monkeypatch.setenv("MD53C_SEED", "7")
    monkeypatch.setenv("MD53C_SAMPLES", "300")
    code, doc = run_json(["verify-md"], tmp_path)
    assert code == 0
    assert doc["config"]["seed"] == 7
    assert doc["config"]["samples"] == 300
    # flags still win over the environment
    code, doc = run_json(["verify-md", "--samples", "250"], tmp_path, "flag.json")
    assert doc["config"]["samples"] == 250


def test_readme_flag_table_matches_run_config():
    # the Configuration table of README lists exactly the flags, variables
    # and defaults generated from the fields of RunConfig, in field order
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("### Configuration", 1)[1].split("\n\n")[2].splitlines()
    assert table[:2] == ["| Flag | Env var | Default | Meaning |", "| --- | --- | --- | --- |"]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table[2:]]
    assert all(meaning for *_, meaning in rows)
    want = []
    for f in fields(RunConfig):
        flags = ["--" + f.name.replace("_", "-")] + (["-o"] if f.name == "output" else [])
        want.append((", ".join(f"`{flag}`" for flag in flags), f"`MD53C_{f.name.upper()}`",
                     f.default))
    got = [(flag, env, None if default == "stdout" else f.type(default.strip("`")))
           for (flag, env, default, _), f in zip(rows, fields(RunConfig))]
    assert len(rows) == len(want) and got == want


# per RunConfig field: an environment value and a different flag value, each
# spelled as the run reports it back
_SETTINGS = {
    "seed": ("7", "11"),
    "samples": ("5", "6"),
    "tol_leaf": ("1e-07", "1e-05"),
    "tol_map": ("1e-05", "0.0001"),
    "output": ("env.out", "flag.out"),
    "format": ("text", "json"),
}


@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
def test_env_sets_each_setting_and_the_flag_wins(name, tmp_path, monkeypatch):
    env_value, flag_value = _SETTINGS[name]
    for f in fields(RunConfig):
        monkeypatch.delenv(f"MD53C_{f.name.upper()}", raising=False)
    monkeypatch.setenv(f"MD53C_{name.upper()}", env_value)
    monkeypatch.chdir(tmp_path)

    def observe(*flag):
        # the setting as the run saw it: the file written, the format of
        # the payload, or the payload's config block
        for p in tmp_path.iterdir():
            p.unlink()
        if name == "output":
            assert main(["ktheory", *flag]) == 0
            return " ".join(p.name for p in tmp_path.iterdir())
        assert main(["ktheory", *flag, "-o", "out"]) == 0
        text = (tmp_path / "out").read_text()
        if name == "format":
            return "json" if text.startswith("{") else "text"
        return str(json.loads(text)["config"][name])

    assert observe() == env_value
    assert observe("--" + name.replace("_", "-"), flag_value) == flag_value


def test_bad_config_rejected(monkeypatch, capsys):
    assert main(["verify-md", "--samples", "0"]) == 2
    assert main(["verify-md", "--tol-leaf", "-1"]) == 2
    capsys.readouterr()
    # the orbit dimension reads no tolerance, so there is no rank flag
    with pytest.raises(SystemExit) as exit_info:
        main(["orbit", "--family", "F4", "--point", "0,0,1,0,0", "--tol-rank", "1e-9"])
    assert exit_info.value.code == 2
    capsys.readouterr()
    # RunConfig.validate is the one check on the format, from flag or environment
    assert main(["catalog", "--format", "xml"]) == 2
    monkeypatch.setenv("MD53C_FORMAT", "xml")
    assert main(["catalog"]) == 2
    assert capsys.readouterr().err == "error: format must be 'json' or 'text'\n" * 2
    # a value of an MD53C_ variable that its setting cannot read, also when
    # the flag gives the setting
    monkeypatch.setenv("MD53C_SAMPLES", "many")
    assert main(["catalog"]) == 2
    assert main(["catalog", "--samples", "5"]) == 2
    assert capsys.readouterr().err == "error: bad value for MD53C_SAMPLES: 'many'\n" * 2


def test_parser_is_built_once(tmp_path, monkeypatch):
    # main parses with the parser built at import: no call builds another
    made = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    out = str(tmp_path / "out")
    for args in (["catalog"], ["ktheory", "--scenario", "paper"], ["verify-md"],
                 ["orbit", "--family", "F4", "--point", "1,0,1,0,0"]):
        assert main([*args, "-o", out]) == 0
    assert main(["catalog", "--samples", "0"]) == 2
    assert made == []


def test_emit_runs_no_stdlib_encoder(tmp_path, monkeypatch):
    # json.dumps with an indent builds the stdlib's pure-Python encoder; the
    # payloads are written by cli._write_json, so no report builds one
    made = []
    make = json.encoder._make_iterencode

    def counted(*args, **kwargs):
        made.append(args)
        return make(*args, **kwargs)

    monkeypatch.setattr(json.encoder, "_make_iterencode", counted)
    out = str(tmp_path / "out")
    for command in ("catalog", "verify-md", "classify", "ktheory", "verify-claims"):
        assert main([command, "--samples", "3", "-o", out]) == 0
    assert made == []


# keys and strings with non-ASCII characters, quotes, backslashes, control
# characters and a lone surrogate, which encode_basestring_ascii escapes
_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\n\té€\u2028\ud800😀')))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(2**64, 2**200).flatmap(lambda n: st.sampled_from([n, -n])),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.sampled_from([-0.0, 1e-08, 1e16, 5e-324, 1.7976931348623157e308, np.float64(-1e-300)]),
    _TEXT, st.builds(dict), st.builds(list), st.builds(tuple),
)
_TREES = st.recursive(
    _SCALARS,
    lambda kids: st.one_of(st.lists(kids, max_size=5), st.tuples(kids, kids),
                           st.dictionaries(_TEXT, kids, max_size=5)),
    max_leaves=40,
)


def _nest(x, depth):
    # x at the given depth, under alternating lists and dicts
    for i in range(depth):
        x = {"level": x, "": None} if i % 2 else [True, x]
    return x


@given(_TREES, st.integers(0, 8))
@settings(max_examples=300, deadline=None)
def test_json_writer_matches_stdlib(tree, depth):
    # the stdlib call the writer replaces is the oracle, byte for byte
    for x in (tree, _nest(tree, depth), _nest(tree, 6)):
        assert _render_json(x) == json.dumps(x, sort_keys=True, indent=2, allow_nan=False) + "\n"


@given(_TREES, st.integers(0, 8),
       st.sampled_from([float("nan"), float("inf"), -float("inf"), np.float64("-inf")]))
@settings(max_examples=100, deadline=None)
def test_json_writer_rejects_non_finite(tree, depth, bad):
    x = [tree, _nest(bad, depth)]
    with pytest.raises(ValueError):
        json.dumps(x, sort_keys=True, indent=2, allow_nan=False)
    with pytest.raises(ValueError):
        _render_json(x)


@pytest.mark.parametrize("command", ["verify-md", "classify", "verify-claims", "ktheory"])
def test_negative_seed_rejected(command, monkeypatch, capsys):
    # numpy used to die on it with a traceback, and ktheory wrote it out
    assert main([command, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0\n"
    monkeypatch.setenv("MD53C_SEED", "-3")
    assert main([command]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0\n"


@pytest.mark.parametrize("target", ["missing/x.json", "."])
@pytest.mark.parametrize("args", [["catalog"], ["ktheory", "--delta0", "2,2"]])
def test_unwritable_output_is_a_usage_error(target, args, tmp_path, capsys):
    # a missing directory, or a directory itself; the error payload of
    # inconsistent input (exit 1 when written) fails the same way
    assert main([*args, "-o", str(tmp_path / target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path / target}: ")
    assert "Traceback" not in err


class _FullStdout:
    # every write and flush fails as on a full device
    def write(self, *args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    flush = write


def test_failed_stdout_write_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    assert main(["catalog"]) == 2
    assert capsys.readouterr().err == "error: cannot write stdout: No space left on device\n"


def _src_env():
    # the environment of a child interpreter that imports md53c from src/
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_on_a_full_device_exits_2(tmp_path):
    # the interpreter's flush at exit must not add a traceback or change the code
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "md53c.cli", "catalog"], cwd=tmp_path,
                              env=_src_env(), stdout=full, stderr=subprocess.PIPE, text=True,
                              timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: No space left on device\n"


def test_package_runs_as_a_module(tmp_path):
    out = tmp_path / "catalog.json"
    proc = subprocess.run([sys.executable, "-m", "md53c", "catalog", "-o", str(out)],
                          cwd=tmp_path, env=_src_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(out.read_text())["grid"]) == 36


_STARTUP = """
import sys
import md53c.cli

def no_numpy(after):
    assert "numpy" not in sys.modules, "numpy loaded by " + after

no_numpy("import md53c.cli")
assert md53c.cli.main(["ktheory", "-o", sys.argv[1]]) == 0
no_numpy("ktheory")
try:
    md53c.cli.main(["--help"])
except SystemExit as e:
    assert e.code == 0, e.code
else:
    raise AssertionError("--help did not exit")
no_numpy("--help")

import md53c

assert md53c.cli.main(["catalog", "-o", sys.argv[1]]) == 0
assert "numpy" in sys.modules, "catalog ran without numpy"
assert "ZMat" not in vars(md53c)
md53c.ZMat
public = md53c.__all__
assert len(public) == 65 and set(public) <= set(vars(md53c)), public
star = {}
exec("from md53c import *", star)
assert sorted(k for k in star if k != "__builtins__") == sorted(public)
assert all(star[k] is vars(md53c)[k] for k in public)
assert not hasattr(md53c, "no_such_name")
"""


def test_integer_path_starts_without_numpy(tmp_path):
    # a fresh interpreter: importing the CLI, ktheory and --help load no
    # numpy; the first lookup of a package name binds every public name
    proc = subprocess.run([sys.executable, "-c", _STARTUP, str(tmp_path / "out.json")],
                          cwd=tmp_path, env=_src_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_from_import_of_the_cli_starts_without_numpy(tmp_path):
    # the import system looks a from-list submodule up on the package before
    # it imports it; that lookup must not load the layers
    code = ("import sys\nfrom md53c import cli\n"
            "assert 'numpy' not in sys.modules and 'md53c.coadjoint' not in sys.modules\n"
            "assert cli.main(['ktheory', '-o', sys.argv[1]]) == 0\n"
            "assert 'numpy' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out.json")],
                          cwd=tmp_path, env=_src_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module,args", [
    ("md53c", ["ktheory"]),
    ("md53c.cli", ["catalog", "--samples", "3"]),
    ("md53c", ["orbit", "--family", "F1", "--lambda1", "2", "--lambda2", "3",
               "--point", "1,0,1,0,0", "--word", "2:0.693", "--eval", "5,0.693"]),
], ids=["ktheory", "catalog", "orbit"])
def test_cold_start_writes_the_in_process_bytes(module, args, tmp_path, monkeypatch):
    # a fresh interpreter makes the first dispatch into float_commands, and
    # under -m md53c.cli runs the CLI as __main__
    env = {k: v for k, v in _src_env().items() if not k.startswith("MD53C_")}
    proc = subprocess.run([sys.executable, "-m", module, *args], cwd=tmp_path, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for f in fields(RunConfig):
        monkeypatch.delenv(f"MD53C_{f.name.upper()}", raising=False)
    out = tmp_path / "in_process.json"
    assert main([*args, "-o", str(out)]) == 0
    assert proc.stdout == out.read_bytes()


@pytest.mark.parametrize("flag", ["--tol-leaf", "--tol-map"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_rejected(flag, value, tmp_path, capsys):
    # a NaN tolerance would pass every comparison against it
    out = tmp_path / "out.json"
    assert main(["verify-md", flag, value, "-o", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_non_finite_tolerance_from_env_rejected(monkeypatch, capsys):
    monkeypatch.setenv("MD53C_TOL_LEAF", "nan")
    assert main(["catalog"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("extra", [
    ["--family", "F2", "--lambda", "nan", "--point", "1,2,3,4,5"],
    ["--family", "F8", "--lambda", "1", "--phi", "inf", "--point", "1,2,3,4,5"],
    ["--family", "F4", "--point", "1,2,nan,4,5"],
    ["--family", "F4", "--point", "1,2,3,4,-inf"],
    ["--family", "F4", "--point", "1,2,3,4,5", "--word", "2:0.5,1:nan"],
    ["--family", "F4", "--point", "1,2,3,4,5", "--eval", "inf,0.5"],
    ["--family", "F4", "--point", "1,2,3,4,5", "--eval", "0.5,nan"],
])
def test_orbit_non_finite_input_rejected(extra, capsys):
    assert main(["orbit", *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_orbit_overflow_is_an_error(fmt, tmp_path, capsys):
    # a finite input whose chart value overflows: exit 2 and no file, never
    # NaN or Infinity in the JSON, nor nan or -inf in the text
    out = tmp_path / "out.json"
    args = ["orbit", "--family", "F4", "--point", "1,0,1,0,0", "--eval", "0,1000"]
    assert main([*args, "--format", fmt, "-o", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: the result overflowed")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_orbit_flow_overflow_is_an_error(fmt, tmp_path, capsys):
    # t * ad_X2 has an infinite entry: exit 2 with one error line
    out = tmp_path / "out.json"
    args = ["orbit", "--family", "F1", "--lambda1", "2", "--lambda2", "3",
            "--point", "1,0,1,0,0", "--word", "2:1e308"]
    assert main([*args, "--format", fmt, "-o", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: the matrix exponential is out of range")
    assert err.count("\n") == 1


def test_orbit_underflow_is_an_error(tmp_path, capsys):
    # the flow underflows (gamma, delta, sigma) to zero; a plane orbit cannot
    # flow to a point orbit, so this is an error, not "left the leaf"
    out = tmp_path / "out.json"
    args = ["orbit", "--family", "F1", "--lambda1", "2", "--lambda2", "3",
            "--point", "1,0,1,0,0", "--word", "2:1000"]
    assert main([*args, "-o", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "error: the flow underflowed (gamma, delta, sigma) of a point on a plane orbit "
        "to 0, a point orbit, so whether the flowed point stays on the leaf cannot be "
        "decided\n")


_F1_23_AT_1 = ["--family", "F1", "--lambda1", "2", "--lambda2", "3", "--point", "1,0,1,0,0"]


@pytest.mark.parametrize("args,gamma", [
    ([*_F1_23_AT_1, "--word", "2:9"], 1.52e-8),
    ([*_F1_23_AT_1, "--word", "2:10"], 2.06e-9),
    ([*_F1_23_AT_1, "--word", "2:12"], 3.78e-11),
    (["--family", "F1", "--lambda1", "-2", "--lambda2", "3", "--point", "0,0,7e-10,0,0",
      "--word", "2:10"], 0.339),
], ids=["2:9", "2:10", "2:12", "start"])
def test_orbit_flow_guard_asks_what_same_leaf_needs(args, gamma, tmp_path):
    # F1(2, 3) scales gamma by e^{-2t}: from (1, 0, 1, 0, 0) the flowed point
    # stays on the plane orbit, with gamma = 1.52e-8, 2.06e-9 or 3.78e-11 at
    # alpha near 1.5; on F1(-2, 3) gamma = 7e-10 grows to 0.339.  The guard
    # reads a point orbit only where (gamma, delta, sigma) is exactly 0, so
    # however small gamma gets the flowed point is compared with its chart
    # point, and the flow keeps the leaf
    code, doc = run_json(["orbit", *args], tmp_path)
    assert code == 0 and doc["orbit_dim"] == 2 and doc["flowed_same_leaf"] is True
    assert doc["flowed"][2] == pytest.approx(gamma, rel=0.01)


@pytest.mark.parametrize("args", [
    ["--family", "F1", "--lambda1", "-2", "--lambda2", "3", "--point", "0,0,7e-10,0,0"],
    ["--family", "F2", "--lambda", "-0.5", "--point", "0,0,0,0,1.5e-9"],
])
def test_orbit_dim_is_exact_near_the_point_orbits(args, tmp_path):
    # (gamma, delta, sigma) != 0, so the orbit is a plane however small they
    # are; two float rules used to read these two points as point orbits
    code, doc = run_json(["orbit", *args], tmp_path)
    assert code == 0 and doc["orbit_dim"] == 2 and "kirillov_rank" not in doc
    assert "tol_rank" not in doc["config"]


def test_missing_parameter_names_the_flag(capsys):
    assert main(["orbit", "--family", "F2", "--point", "0,0,1,0,0"]) == 2
    assert capsys.readouterr().err == "error: F2: missing parameter lambda\n"


def test_flow_failures_are_all_counted(tmp_path, monkeypatch):
    # every flow sample is counted, not the first 20 per family
    chart = coadjoint._chart
    monkeypatch.setattr(coadjoint, "_chart", lambda m, base, b, a: chart(m, base, b, a) + np.eye(5)[0])
    code, doc = run_json(["verify-claims", "--samples", "30"], tmp_path)
    assert code == 1
    claim = next(c for c in doc["claims"] if c["id"] == "orbit-closed-forms")
    assert claim["status"] == "failed"
    assert claim["evidence"]["failures"] == 8 * 30
    line = {"claim": "orbit-closed-forms", "detail": "240 flow/chart mismatches"}
    assert line in doc["failures"]


def test_output_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["verify-claims", "--samples", "30"]
    assert main([*args, "-o", str(a)]) == 0
    assert main([*args, "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_six_term_middle_can_fail(tmp_path, monkeypatch):
    # kernels with one generator too many give the middle (Z, Z^3): the
    # claim reads failed with the middle it got, and the ledger is whole
    solve = ktheory._solve

    def one_more(inp):
        k0_mid, k1_mid, f0, f1 = solve(inp)
        return (ktheory.AbGroup(k0_mid.free_rank + 1), ktheory.AbGroup(k1_mid.free_rank + 1),
                f0, f1)

    monkeypatch.setattr(ktheory, "_solve", one_more)
    code, doc = run_json(["verify-claims", "--samples", "10"], tmp_path)
    assert code == 1
    assert doc["summary"]["claims"] == len(doc["claims"]) == 16
    claim = next(c for c in doc["claims"] if c["id"] == "six-term-middle")
    middle = {"K0": {"free": 1, "torsion": []}, "K1": {"free": 3, "torsion": []}}
    assert claim["status"] == "failed" and claim["evidence"] == {"middle": middle}
    assert doc["failures"] == [{"claim": "six-term-middle", "detail": f"middle was {middle}"}]


def test_claims_payload(tmp_path):
    code, doc = run_json(["verify-claims", "--samples", "30"], tmp_path)
    assert code == 0
    assert doc["summary"]["claims"] == 16
    assert doc["summary"]["failures"] == 0
    discrepancies = sorted(c["id"] for c in doc["claims"] if c["status"] == "discrepancy")
    assert discrepancies == [
        "family8-printed-orbit",
        "orbit-rank2-condition",
        "printed-u-submersion",
        "quotient-k1",
    ]
    assert all(c["paper_location"] for c in doc["claims"])
    assert any(c["status"] == "out_of_scope" for c in doc["claims"])
