"""Tests of the benchmark itself: span arithmetic, the rebinding tracer, a
small pass of each workload, and the runner's output contract.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import md53c  # noqa: E402
import md53c.cli  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from stats import percentile, quiet  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _fake_module(clock):
    """top -> mid -> (leaf, leaf), each advancing a fake clock."""
    mod = types.ModuleType("fake")

    def leaf(d):
        clock[0] += d

    def mid():
        clock[0] += 1.0
        mod.leaf(2.0)
        mod.leaf(3.0)
        clock[0] += 1.0

    def top():
        clock[0] += 0.5
        mod.mid()
        clock[0] += 0.5

    mod.leaf, mod.mid, mod.top = leaf, mid, top
    return mod


def test_self_time_on_nested_call_tree():
    now = [0.0]
    tr = tracer.Tracer(clock=lambda: now[0])
    mod = _fake_module(now)
    for name in ("leaf", "mid", "top"):
        setattr(mod, name, tr.wrap(name, getattr(mod, name)))
    mod.top()
    mod.leaf(4.0)
    s = tr.summary()
    assert (s.calls("top"), s.calls("mid"), s.calls("leaf")) == (1, 1, 3)
    assert s.total_s("top") == 8.0 and s.self_s("top") == 1.0
    assert s.total_s("mid") == 7.0 and s.self_s("mid") == 2.0
    assert s.self_s("leaf") == 9.0
    assert s.calls_under_parent("leaf", "mid") == 2
    assert s.calls_within("leaf", ["top"]) == 2
    assert s.outermost(["top", "mid"]) == 1
    assert s.calls("absent") == 0 and s.self_s("absent") == 0.0


def test_recursive_spans_count_once_as_outermost():
    now = [0.0]
    tr = tracer.Tracer(clock=lambda: now[0])
    mod = types.ModuleType("rec")

    def solve(k):
        now[0] += 1.0
        if k:
            mod.solve(k - 1)

    mod.solve = tr.wrap("solve", solve)
    mod.solve(3)
    s = tr.summary()
    assert s.calls("solve") == 4 and s.outermost(["solve"]) == 1
    assert s.total_s("solve") == 10.0 and s.self_s("solve") == 4.0


def _bindings(fn):
    return {(m.__name__, attr) for m in list(sys.modules.values())
            if isinstance(m, types.ModuleType)
            for attr, v in list(vars(m).items()) if v is fn}


def test_wrappers_rebind_every_binding_and_are_removed(tmp_path):
    originals = dict(tracer.public_functions())
    same_leaf = originals["coadjoint.same_leaf"]
    where = _bindings(same_leaf)
    assert {("md53c", "same_leaf"), ("md53c.coadjoint", "same_leaf"),
            ("md53c.foliation", "same_leaf"), ("md53c.cli", "same_leaf")} <= where
    before = {label: _bindings(fn) for label, fn in originals.items()}
    eval_fn = md53c.OrbitChart.eval

    tr = tracer.Tracer()
    with tracer.traced(tr) as patches:
        assert len(patches) == sum(map(len, before.values())) + len(tracer.METHODS)
        for label, fn in originals.items():
            assert not _bindings(fn), label
        assert md53c.foliation.same_leaf.__traced__ is same_leaf
        assert md53c.OrbitChart.eval.__traced__ is eval_fn
        spec = md53c.family_spec("F4")
        md53c.verify_classification((spec, spec), n=3, seed=5)
        assert md53c.cli.main(["ktheory", "-o", str(tmp_path / "k.json")]) == 0

    for label, fn in originals.items():
        assert _bindings(fn) == before[label], label
    assert md53c.OrbitChart.eval is eval_fn
    s = tr.summary()
    # calls made through a layer's own module globals are seen
    assert s.calls_under_parent("coadjoint.same_leaf", "foliation.verify_classification") == 6
    assert s.calls_under_parent("coadjoint.OrbitChart.eval", "coadjoint.same_leaf") > 0
    assert s.calls("cli.ktheory") == 1
    assert s.calls_within("ktheory.smith_normal_form", ["cli.ktheory"]) > 0
    assert tr.counters["foliation.verify_classification.failures"] == 0


SMALL = {
    "audit": lambda seed, wd: workloads.Audit(seed, wd, ["--samples", "5", "--md-samples", "100"]),
    "ktheory": lambda seed, wd: workloads.KTheory(seed, wd),
}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_small_pass_of_each_workload(name, tmp_path):
    wl = SMALL[name](3, tmp_path)
    wl.warm_up()
    lat = wl.run_pass()
    attempted, failed = wl.check_pass()
    assert attempted >= 1 and failed == 0
    assert len(lat) >= 1 and all(t > 0 for t in lat)
    # a traced repeat gives the same payloads: the digest check would fail
    wl.repeat_last()
    with tracer.traced(tracer.Tracer()):
        wl.run_pass()
    assert wl.check_pass() == (attempted, 0)


def test_audit_passes_use_fresh_seeds_and_check_repeats(tmp_path):
    wl = SMALL["audit"](3, tmp_path)
    wl.warm_up()
    seeds = {wl.pass_seed(i) for i in range(50)}
    assert wl.pass_seed(0) == 3 and len(seeds) == 50
    assert wl.run_pass() and wl.check_pass() == (5, 0)
    assert set(wl.digests) == set(wl.COMMANDS)
    wl.run_pass()
    assert wl.check_pass() == (5, 0)
    assert len(wl.seen) == 10
    # a payload that differs from an earlier one at the same seed fails
    wl.repeat_last()
    wl.run_pass()
    (tmp_path / "catalog.json").write_text(json.dumps({"grid": [0] * 36}))
    assert wl.check_pass() == (5, 1)


class _Steady:
    """A workload whose passes take no time and record their inputs."""

    def __init__(self):
        self.inputs, self._next, self._repeat = [], 0, False

    def repeat_last(self):
        self._repeat = True

    def run_pass(self):
        if not self._repeat:
            self._next += 1
        self._repeat = False
        self.inputs.append(self._next)
        return [0.001]

    def check_pass(self):
        return 1, 0


def test_setups_are_spread_over_the_run():
    start = run.time.perf_counter()
    at = []
    m = run.measure(_Steady(), 0.2, setup=lambda: at.append(run.time.perf_counter() - start) or 1.0)
    assert m.setups == [1.0] * run.SETUP_REPEATS
    assert at[0] < 0.01 and 0.1 < at[run.SETUP_REPEATS // 2 + 1] < 0.2
    assert len(m.passes) > 10 and m.failed == 0


def test_traced_passes_repeat_the_plain_ones():
    wl = _Steady()
    plain, traced = run.measure_traced(wl, 0.2, tracer.Tracer())
    assert len(plain.passes) == len(traced.passes) > 3
    assert wl.inputs[0::2] == wl.inputs[1::2] == list(range(1, len(plain.passes) + 1))


def test_ktheory_gates_catch_a_wrong_answer():
    m = md53c.ZMat(2, 2, ((2, 4), (6, 8)))
    d, u, v = md53c.smith_normal_form(m)
    assert workloads.KTheory._ok("snf", m, (d, u, v))
    assert d.entries == ((2, 0), (0, 4))
    wrong = md53c.ZMat(2, 2, ((1, 0), (0, 8)))
    assert not workloads.KTheory._ok("snf", m, (wrong, u, v))
    assert workloads.KTheory._ok("cli", (2, 2), (1, {"error": "x"}))
    assert not workloads.KTheory._ok("cli", (2, 2), (0, {"scenarios": []}))


def test_quiet_and_percentile():
    assert percentile([3, 1, 2], 50) == 2
    assert percentile(range(1, 101), 99) == 99
    assert percentile(range(1, 11), 99) == 10
    assert quiet([5.0, 1.0, 9.0]) == 1.0


def test_end_to_end_rebuilds_a_pass_from_quiet_calls():
    m = run.Measured()
    # 20 passes of three calls; each call is quiet in a different pass
    m.passes = [3.0] * 20
    m.latencies = [[1.0, 1.0, 1.0] for _ in range(20)]
    m.latencies[2][0], m.latencies[7][1], m.latencies[11][2] = 0.2, 0.5, 0.9
    m.latencies[7][0] = 0.3
    stats = run.end_to_end(m)
    assert stats["wall_s"] == pytest.approx(0.2 + 0.5 + 0.9)
    assert (stats["op_p50_us"], stats["op_p99_us"]) == (0.5e6, 0.9e6)


def test_setup_s_is_the_median_of_groups_dealt_over_the_run():
    # launch i goes to group i % SETUP_GROUPS; group k's fastest is 0.1 * k,
    # reached by one launch late in the run
    times = [1.0] * run.SETUP_REPEATS
    for k in range(run.SETUP_GROUPS):
        times[run.SETUP_REPEATS - run.SETUP_GROUPS + k] = 0.1 * k
    assert run.setup_s(times) == pytest.approx(0.1 * (run.SETUP_GROUPS // 2))
    assert run.setup_once(dict(run.os.environ, PYTHONPATH=str(run.SRC))) > 0


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_runner_prints_the_declared_metrics(trace, key):
    out = _run(ROOT, "--workload", "ktheory", "--seed", "2", "--seconds", "1",
               "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert not (ROOT / "perfbench" / "out").exists() or \
        not any((ROOT / "perfbench" / "out").iterdir())


def test_runner_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", "tests"))
    out = _run(tmp_path, "--workload", "audit", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert out.returncode != 0
    assert "correct" not in out.stdout
