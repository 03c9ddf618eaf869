"""md53c benchmark runner: one workload per process.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports md53c from ``src/`` of that
checkout.  ``--trace 0`` measures the end-to-end metrics with nothing
wrapped.  ``--trace 1`` makes plain and traced passes (see tracer.py) in
turn, each traced pass on the inputs of the plain one before it, and reports
the per-layer metrics of the traced passes and the tracing overhead.  Either
way the outputs are checked outside the timed region.

Standard output is a short report (environment, payload digests, the
workload's named metrics) and, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from stats import percentile, quiet

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("audit", "ktheory")
# load comes from one process, and BLAS gets one thread, so the process never
# runs more compute threads than the 2 cores of the machine it was tuned on
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_GROUPS = 7
SETUP_REPEATS = 4 * SETUP_GROUPS

# the stats reported for each span label; a metric is "<label>.<stat>"
LAYER_STATS = {
    "lie_core.mat_exp": ("calls", "self_s"),
    "catalog.build_algebra": ("calls", "self_s"),
    "coadjoint.same_leaf": ("calls", "self_s", "us_per_call", "evals_per_call"),
    "coadjoint.OrbitChart.eval": ("calls", "self_s"),
    "coadjoint.orbit_chart": ("calls", "self_s"),
    "coadjoint.coadjoint_flow": ("calls", "self_s"),
    "coadjoint.md_property_check": ("calls", "self_s"),
    "foliation.verify_classification": ("calls", "self_s", "failures"),
    "foliation.apply_equivalence": ("calls", "self_s"),
    "foliation.in_V": ("calls",),
    "foliation.fibration_check": ("self_s",),
    "foliation.leaf_invariant": ("calls",),
    "ktheory.smith_normal_form": ("calls", "self_s", "per_solve"),
    "ktheory.six_term_solve": ("self_s",),
    "ktheory.index_invariant": ("self_s",),
    **{f"cli.{cmd}": ("self_s",)
       for cmd in ("catalog", "verify-md", "classify", "ktheory", "verify-claims")},
}
STAT_UNITS = {"calls": "count", "self_s": "s", "failures": "count",
              "us_per_call": "us", "evals_per_call": "1", "per_solve": "1"}
_SOLVES = ("ktheory.six_term_solve", "ktheory.index_invariant")


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(s, counters, passes):
    """Per-layer metrics of a traced run.  Counts and times are per traced
    pass; ``us_per_call`` is the whole span per call; ``evals_per_call`` is
    chart evaluations whose parent span is the label, per call of it;
    ``per_solve`` is calls inside a six-term solve or index invariant, per
    outermost such solve."""
    out = {}
    for label, stats in LAYER_STATS.items():
        calls = s.calls(label)
        values = {
            "calls": lambda: calls / passes,
            "self_s": lambda: s.self_s(label) / passes,
            "failures": lambda: counters.get(f"{label}.failures", 0) / passes,
            "us_per_call": lambda: 1e6 * _ratio(s.total_s(label), calls),
            "evals_per_call": lambda: _ratio(
                s.calls_under_parent("coadjoint.OrbitChart.eval", label), calls),
            "per_solve": lambda: _ratio(s.calls_within(label, _SOLVES), s.outermost(_SOLVES)),
        }
        for stat in stats:
            out[f"{label}.{stat}"] = (values[stat](), STAT_UNITS[stat])
    return out


class Measured:
    def __init__(self):
        self.passes, self.latencies, self.setups = [], [], []
        self.attempted = self.failed = 0


def _one_pass(workload, m):
    t0 = time.perf_counter()
    m.latencies.append(workload.run_pass())
    m.passes.append(time.perf_counter() - t0)
    attempted, failed = workload.check_pass()
    m.attempted += attempted
    m.failed += failed


def measure(workload, seconds, setup=None):
    """Passes until the next one would end after ``seconds``; at least one.
    Each pass keeps its own list of call latencies.  With ``setup``, the run
    also times SETUP_REPEATS calls of it, spread evenly over the run between
    passes, so that they meet the same states of the machine as the passes."""
    m = Measured()
    setups = SETUP_REPEATS if setup else 0
    start = time.perf_counter()
    while True:
        if len(m.setups) < setups and \
                time.perf_counter() - start >= len(m.setups) * seconds / setups:
            m.setups.append(setup())
        _one_pass(workload, m)
        if time.perf_counter() - start + statistics.median(m.passes) > seconds:
            break
    while len(m.setups) < setups:
        m.setups.append(setup())
    return m


def measure_traced(workload, seconds, tr):
    """Plain and traced passes in turn, each traced pass repeating the inputs
    of the plain pass before it, until the next pair would end after
    ``seconds``.  A pair meets one state of the machine, so the ratio of its
    two times is the tracing overhead, and the traced payloads must match
    the plain ones."""
    plain, traced = Measured(), Measured()
    start = time.perf_counter()
    while True:
        _one_pass(workload, plain)
        workload.repeat_last()
        with tracer.traced(tr):
            _one_pass(workload, traced)
        pair = statistics.median(plain.passes) + statistics.median(traced.passes)
        if time.perf_counter() - start + pair > seconds:
            return plain, traced


def end_to_end(m):
    """Every pass of a workload makes the same calls in the same order, so
    each call is read with ``stats.quiet`` over the passes, and ``wall_s``
    is the sum of those: a pass rebuilt from its quiet calls, which needs
    quiet stretches only as long as one call.  The latency percentiles are
    over the quiet calls."""
    calls = [quiet(times) for times in zip(*m.latencies)]
    wall = sum(calls)
    return {
        "wall_s": wall,
        "op_p50_us": 1e6 * percentile(calls, 50),
        "op_p99_us": 1e6 * percentile(calls, 99),
    }


def setup_once(env):
    """Time for a fresh interpreter to import md53c and its CLI."""
    t0 = time.perf_counter()
    # no timeout: with one, subprocess polls the child at up to 50 ms steps
    subprocess.run([sys.executable, "-c", "import md53c.cli"], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def setup_s(times):
    """The launches, in the order made, are dealt into SETUP_GROUPS groups,
    so each group holds launches from across the whole run.  Each group is
    read with ``stats.quiet``, and ``setup_s`` is the median of those: it
    needs a quiet moment in a few of the run's stretches, not in most."""
    return statistics.median(quiet(times[k::SETUP_GROUPS]) for k in range(SETUP_GROUPS))


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None.  Git does
    not look for a repository above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args, np):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run(args):
    import numpy as np

    import workloads

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.BY_NAME[args.workload](args.seed, workdir)
        wl.warm_up()
        if args.trace:
            tr = tracer.Tracer()
            plain, traced = measure_traced(wl, args.seconds, tr)
            metrics = layer_metrics(tr.summary(), tr.counters, len(traced.passes))
            overhead = statistics.median(t / p for t, p in zip(traced.passes, plain.passes)) - 1
            metrics["trace.overhead_frac"] = (overhead, "1")
            runs = (plain, traced)
            named = {}
        else:
            env = dict(os.environ, PYTHONPATH=str(SRC))
            m = measure(wl, args.seconds, setup=lambda: setup_once(env))
            stats = end_to_end(m)
            metrics = {
                "setup_s": (setup_s(m.setups), "s"),
                "wall_s": (stats["wall_s"], "s"),
                "op_p50_us": (stats["op_p50_us"], "us"),
                "op_p99_us": (stats["op_p99_us"], "us"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            runs = (m,)
            named = wl.named_metrics(stats)
    finally:
        for f in workdir.iterdir():
            f.unlink()
        workdir.rmdir()

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    named["failed_frac"] = (failed / attempted, "1")
    print(f"# env {json.dumps(environment(args, np), sort_keys=True)}")
    if wl.digests:
        print(f"# payload sha256 {json.dumps(wl.digests, sort_keys=True)}")
    print(f"# passes {[len(r.passes) for r in runs]}"
          f"  ops {[sum(map(len, r.latencies)) for r in runs]}"
          f"  op = {wl.unit_op}")
    setups = [round(t, 4) for r in runs for t in r.setups]
    if setups:
        print(f"# setup_s {setups}")
    for name, (value, unit) in {**named, **metrics}.items():
        print(f"{name:45s} {value!r:>24} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "md53c" / "__init__.py").is_file():
        print(f"error: no md53c package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    for key in [k for k in os.environ if k.startswith("MD53C_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import md53c

    if Path(md53c.__file__).resolve().parent != SRC / "md53c":
        print(f"error: md53c was imported from {md53c.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
