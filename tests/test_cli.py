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

from md53c import coadjoint, ktheory
from md53c.catalog import family_spec
from md53c.cli import RunConfig, main


def run_json(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main([*args, "-o", str(out)])
    return code, json.loads(out.read_text())


def test_catalog_payload(tmp_path):
    code, doc = run_json(["catalog"], tmp_path)
    assert code == 0
    assert doc["schema"] == 2
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
    assert doc["kirillov_rank"] == 2 and doc["orbit_dim"] == 2
    assert doc["flowed_same_leaf"] is True
    assert doc["flowed"] == pytest.approx([1.375, 0.0, 0.25, 0.0, 0.0])
    assert doc["chart_eval"]["point"] == pytest.approx([-0.5, 5.0, 4.0, 0.0, 0.0])


def test_orbit_usage_errors(capsys):
    assert main(["orbit", "--family", "F1", "--lambda1", "2", "--lambda2", "3",
                 "--point", "1,2"]) == 2
    assert main(["orbit", "--family", "F2", "--lambda", "1", "--point", "0,0,1,0,0"]) == 2
    capsys.readouterr()
    # argparse requires --family; an empty one is an unknown family
    assert main(["orbit", "--family", "", "--point", "0,0,1,0,0"]) == 2
    assert capsys.readouterr().err == "error: unknown family ''\n"


def test_verify_md_small(tmp_path):
    code, doc = run_json(["verify-md", "--md-samples", "400"], tmp_path)
    assert code == 0
    assert doc["summary"] == {"failures": 0, "grid_entries": 36}
    assert len(doc["entries"]) == 36


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
    _, md = run_json(["verify-md", "--md-samples", "100"], tmp_path, "md.json")
    _, cl = run_json(["classify", "--samples", "10"], tmp_path, "cl.json")
    [flow] = coadjoint.flow_check_grid([family_spec("F1", -2, 3)], 10)
    flow = json.loads(json.dumps(flow.to_json()))
    records = md["entries"] + cl["checks"] + cl["fibration"] + [flow]
    assert len(records) == 36 + 34 + 2 + 1
    assert all(set(r) == REPORT_KEYS for r in records)
    assert {r["check"] for r in records} == {"dichotomy", "classification", "fibration-F1",
                                             "fibration-F2", "flow"}


def test_verify_md_counts_failures_past_the_cap(tmp_path, monkeypatch):
    # a member that fails more than 50 times: its record lists 50 failures,
    # and the summary counts every one
    build = coadjoint._structure_grid

    def rank4_on_f4(grid):
        # [X3, X4] = X5 on F4: its form at gamma, sigma != 0 has rank 4
        c = build(grid)
        for spec, member_c in zip(grid, c):
            if spec.family == "F4":
                member_c[2, 3, 4], member_c[3, 2, 4] = 1.0, -1.0
        return c

    monkeypatch.setattr(coadjoint, "_structure_grid", rank4_on_f4)
    code, doc = run_json(["verify-md", "--md-samples", "400"], tmp_path)
    assert code == 1
    (bad,) = [e for e in doc["entries"] if not e["ok"]]
    assert bad["source"] == "F4" and bad["failures_total"] > 50
    assert len(bad["failures"]) == 50
    assert doc["summary"]["failures"] == sum(e["failures_total"] for e in doc["entries"])
    assert doc["summary"]["failures"] == bad["failures_total"]
    # verify-claims counts the same: one structure failure, the rest ranks
    code, doc = run_json(["verify-claims", "--samples", "10", "--md-samples", "400"], tmp_path,
                         "claims.json")
    claims = {c["id"]: c for c in doc["claims"]}
    assert code == 1 and claims["md-structure"]["status"] == "failed"
    dichotomy = claims["orbit-dimension-dichotomy"]
    assert dichotomy["evidence"]["failures"] == bad["failures_total"] - 1 > 50
    assert {"claim": "orbit-dimension-dichotomy",
            "detail": f"{bad['failures_total'] - 1} rank mismatches"} in doc["failures"]


def test_halfplane_texts_claim_no_comparison(tmp_path):
    # no check compares the lambda = 0 half-plane leaves, so neither payload
    # may say they are compared
    for args in (["classify", "--samples", "25"],
                 ["verify-claims", "--samples", "30", "--md-samples", "300"]):
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
    assert "error" in doc and doc["schema"] == 2


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
    args = ["verify-md", "--md-samples", "40", "--format", "text", "-o"]
    assert main([*args, str(tmp_path / "a.txt")]) == 0
    assert main([*args, str(tmp_path / "b.txt")]) == 0
    text = (tmp_path / "a.txt").read_bytes()
    assert text == (tmp_path / "b.txt").read_bytes()
    lines = text.decode().splitlines()
    top = [line.split(":")[0] for line in lines if not line.startswith(" ")]
    assert top == ["command", "config", "entries", "schema", "summary"]
    assert "schema: 2" in lines
    # each CheckReport record is one "-" item with its keys sorted beneath it
    starts = [i for i, line in enumerate(lines) if line == "  -"]
    assert len(starts) == 36
    for i in starts:
        keys = []
        for line in lines[i + 1:]:
            if not line.startswith("    "):
                break
            if not line.startswith("     "):
                keys.append(line.split(":")[0].strip())
        assert keys == sorted(keys) and "failures_total" in keys and "source" in keys


def test_text_lists_scalars_one_per_line(tmp_path):
    # a list of numbers, such as the orbit payload's point, is one "- value"
    # line per entry under its key
    out = tmp_path / "orbit.txt"
    assert main(["orbit", "--family", "F1", "--lambda1", "2", "--lambda2", "3",
                 "--point", "1,0,-1.5,0,2", "--format", "text", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    i = lines.index("point:")
    assert lines[i + 1:i + 7] == ["  - 1.0", "  - 0.0", "  - -1.5", "  - 0.0", "  - 2.0",
                                  "schema: 2"]
    assert "orbit_dim: 2" in lines and "  family: F1" in lines


def test_env_mirror(tmp_path, monkeypatch):
    monkeypatch.setenv("MD53C_SEED", "7")
    monkeypatch.setenv("MD53C_MD_SAMPLES", "300")
    code, doc = run_json(["verify-md"], tmp_path)
    assert code == 0
    assert doc["config"]["seed"] == 7
    assert doc["config"]["md_samples"] == 300
    # flags still win over the environment
    code, doc = run_json(["verify-md", "--md-samples", "250"], tmp_path, "flag.json")
    assert doc["config"]["md_samples"] == 250


# per RunConfig field: an environment value and a different flag value, each
# spelled as the run reports it back
_SETTINGS = {
    "seed": ("7", "11"),
    "samples": ("5", "6"),
    "md_samples": ("300", "250"),
    "tol_rank": ("1e-07", "1e-05"),
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
    assert main(["verify-md", "--tol-rank", "-1"]) == 2
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
    for args in (["catalog"], ["ktheory", "--scenario", "paper"], ["verify-md", "--md-samples", "20"],
                 ["orbit", "--family", "F4", "--point", "1,0,1,0,0"]):
        assert main([*args, "-o", out]) == 0
    assert main(["catalog", "--samples", "0"]) == 2
    assert made == []


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


@pytest.mark.parametrize("flag", ["--tol-rank", "--tol-leaf", "--tol-map"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_rejected(flag, value, tmp_path, capsys):
    # a NaN rank tolerance used to pass every rank check and write NaN
    out = tmp_path / "out.json"
    assert main(["verify-md", "--md-samples", "50", flag, value, "-o", str(out)]) == 2
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


def test_orbit_overflow_is_an_error(tmp_path, capsys):
    # a finite input whose chart value overflows: exit 2, never NaN or
    # Infinity in the JSON
    out = tmp_path / "out.json"
    args = ["orbit", "--family", "F4", "--point", "1,0,1,0,0", "--eval", "0,1000"]
    assert main([*args, "-o", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: the result overflowed")


def test_orbit_flow_overflow_is_an_error(tmp_path, capsys):
    # t * ad_X2 has an infinite entry: exit 2 with one error line
    out = tmp_path / "out.json"
    args = ["orbit", "--family", "F1", "--lambda1", "2", "--lambda2", "3",
            "--point", "1,0,1,0,0", "--word", "2:1e308"]
    assert main([*args, "-o", str(out)]) == 2
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
    assert capsys.readouterr().err.startswith("error: the flow left the floating-point range")


def test_missing_parameter_names_the_flag(capsys):
    assert main(["orbit", "--family", "F2", "--point", "0,0,1,0,0"]) == 2
    assert capsys.readouterr().err == "error: F2: missing parameter lambda\n"


def test_flow_failures_are_all_counted(tmp_path, monkeypatch):
    # every flow sample is counted, not the first 20 per family
    monkeypatch.setattr(coadjoint, "same_leaf", lambda spec, p, q, tol: np.zeros(len(p), bool))
    code, doc = run_json(["verify-claims", "--samples", "30", "--md-samples", "300"], tmp_path)
    assert code == 1
    claim = next(c for c in doc["claims"] if c["id"] == "orbit-closed-forms")
    assert claim["status"] == "failed"
    assert claim["evidence"]["failures"] == 8 * 30
    line = {"claim": "orbit-closed-forms", "detail": "240 flow/chart mismatches"}
    assert line in doc["failures"]


def test_output_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["verify-claims", "--samples", "30", "--md-samples", "300"]
    assert main([*args, "-o", str(a)]) == 0
    assert main([*args, "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_six_term_middle_can_fail(tmp_path, monkeypatch):
    # a kernel with one generator too many gives the middle (Z, Z^3): the
    # claim reads failed with the middle it got, and the ledger is whole
    kernel_cokernel = ktheory._kernel_cokernel

    def one_more(m, factors):
        ker, cok = kernel_cokernel(m, factors)
        return ktheory.AbGroup(ker.free_rank + 1), cok

    monkeypatch.setattr(ktheory, "_kernel_cokernel", one_more)
    code, doc = run_json(["verify-claims", "--samples", "10", "--md-samples", "100"], tmp_path)
    assert code == 1
    assert doc["summary"]["claims"] == len(doc["claims"]) == 16
    claim = next(c for c in doc["claims"] if c["id"] == "six-term-middle")
    middle = {"K0": {"free": 1, "torsion": []}, "K1": {"free": 3, "torsion": []}}
    assert claim["status"] == "failed" and claim["evidence"] == {"middle": middle}
    assert doc["failures"] == [{"claim": "six-term-middle", "detail": f"middle was {middle}"}]


def test_claims_payload(tmp_path):
    code, doc = run_json(["verify-claims", "--samples", "30", "--md-samples", "300"], tmp_path)
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
