"""The benchmark workloads.

Each workload is a closed loop with one caller: ``run_pass()`` makes one
pass of timed calls into md53c's public API and returns the latency of each
call; ``check_pass()`` then checks the outputs of that pass, outside the
timed region, and returns (attempted, failed).  Refusals that the inputs
provoke on purpose (``InconsistentInput`` or exit 1 for a non-primitive
delta0) count as successes; an unexpected exception, exit code or answer
counts as a failure.  ``repeat_last()`` makes the next pass repeat the
inputs of the last one.

Inputs come only from the benchmark seed.  Library calls go through module
attributes (``md53c.smith_normal_form``), so the tracer's rebinding sees
them.
"""

import hashlib
import json
import math
import random
import sys
import time
import traceback

import numpy as np

import md53c
import md53c.cli
from stats import quiet

clock = time.perf_counter
GRID_ENTRIES = 36  # the README's default grid
_MAX_TRACEBACKS = 5
_tracebacks = [0]


def _unexpected():
    """Report an unexpected exception from a timed call; the caller counts
    the call as failed and the run goes on."""
    if _tracebacks[0] < _MAX_TRACEBACKS:
        _tracebacks[0] += 1
        traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------------
# audit: the reader's run of every report subcommand


class Audit:
    """``catalog``, ``verify-md``, ``classify``, ``ktheory`` and
    ``verify-claims`` through ``md53c.cli.main``, in README order, each
    written to a file.  About 90% of the time is scalar foliation/coadjoint
    loops and mat_exp, so batching or pass-sharing shows here.

    The sample counts are a fiftieth of the defaults: a default pass takes
    about 20 s on two cores, one pass a run, and the machine's slow spells
    then decide the figure.  A fiftieth keeps the default's shape (classify
    and verify-claims dominate) at about 0.35 s a pass, so a run times every
    subcommand 70 to 110 times and no call is longer than about 0.2 s.

    The first pass runs at the benchmark seed, and each later pass at a seed
    drawn from it, so no pass repeats another's inputs and a cache of results
    kept across calls cannot pass for a speed-up.  ``warm_up()`` runs the
    first pass once untimed, so every run checks that a repeat at one seed
    writes the same bytes."""

    name = "audit"
    COMMANDS = ("catalog", "verify-md", "classify", "ktheory", "verify-claims")
    ARGS = ("--samples", "20", "--md-samples", "200")
    unit_op = "subcommand"

    def __init__(self, seed, workdir, extra_args=ARGS):
        self.seed = seed
        self.workdir = workdir
        self.extra_args = list(extra_args)
        self.times = {c: [] for c in self.COMMANDS}
        self.seen = {}  # (pass seed, command) -> sha256 of the payload
        self.discrepancies = None
        self._index = 0
        self._last = []

    @property
    def digests(self):
        """Payload digests at the benchmark seed."""
        return {cmd: d for (seed, cmd), d in self.seen.items() if seed == self.seed}

    def pass_seed(self, i):
        return self.seed if i == 0 else random.Random(f"{self.seed}/{i}").randrange(2**31)

    def repeat_last(self):
        self._index -= 1

    def _call(self, cmd, seed):
        path = self.workdir / f"{cmd}.json"
        t0 = clock()
        try:
            rc = md53c.cli.main([cmd, "--seed", str(seed), *self.extra_args, "-o", str(path)])
        except Exception:
            rc = None
            _unexpected()
        return rc, path, clock() - t0

    def warm_up(self):
        self.run_pass()
        self.check_pass()
        self.times = {c: [] for c in self.COMMANDS}
        self._index = 0

    def run_pass(self):
        seed = self.pass_seed(self._index)
        self._index += 1
        self._last, lat = [], []
        for cmd in self.COMMANDS:
            rc, path, dt = self._call(cmd, seed)
            self._last.append((cmd, seed, rc, path))
            self.times[cmd].append(dt)
            lat.append(dt)
        return lat

    def check_pass(self):
        failed = 0
        for cmd, seed, rc, path in self._last:
            if rc != 0:
                failed += 1
                continue
            raw = path.read_bytes()
            digest = hashlib.sha256(raw).hexdigest()
            ok = self.seen.setdefault((seed, cmd), digest) == digest
            doc = json.loads(raw)
            if cmd in ("verify-md", "classify", "verify-claims"):
                ok = ok and doc["summary"]["failures"] == 0
            if cmd == "verify-claims":
                # recorded, not gated: a new finding may add a discrepancy
                self.discrepancies = doc["summary"]["discrepancies"]
            if cmd == "catalog":
                ok = ok and len(doc["grid"]) == GRID_ENTRIES
            if cmd == "ktheory":
                ok = ok and doc["scenarios"][0]["middle"] == _PAPER_MIDDLE
            failed += not ok
        return len(self._last), failed

    def named_metrics(self, stats):
        out = {f"{c.replace('-', '_')}_s": (quiet(self.times[c]), "s")
               for c in self.COMMANDS}
        out["discrepancies"] = (self.discrepancies, "count")
        return out


_PAPER_MIDDLE = {"K0": {"free": 0, "torsion": []}, "K1": {"free": 2, "torsion": []}}


# ---------------------------------------------------------------------------
# ktheory: the exact-arithmetic layer


def _bareiss(rows):
    """Rank and (for square input) determinant by fraction-free elimination,
    independent of md53c's own Smith form."""
    a = [list(r) for r in rows]
    n_rows, n_cols = len(a), len(a[0]) if a else 0
    rank, prev, sign = 0, 1, 1
    for col in range(n_cols):
        piv = next((i for i in range(rank, n_rows) if a[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        for i in range(rank + 1, n_rows):
            for j in range(col + 1, n_cols):
                a[i][j] = (a[i][j] * a[rank][col] - a[i][col] * a[rank][j]) // prev
            a[i][col] = 0
        prev = a[rank][col]
        rank += 1
    det = sign * prev if rank == n_rows == n_cols else 0
    return rank, det


def _matmul(x, y):
    return [[sum(xi * yk for xi, yk in zip(row, col)) for col in zip(*y)] for row in x]


_UNEXPECTED = object()


def _int_matrix(rng, rows, cols, lo, hi, density=1.0):
    vals = rng.integers(lo, hi + 1, (rows, cols)) * (rng.random((rows, cols)) < density)
    return md53c.ZMat(rows, cols, tuple(tuple(int(v) for v in r) for r in vals))


class KTheory:
    """Seeded exact-arithmetic operations: Smith forms (square and
    rectangular, up to 12x12), kernels and cokernels, six-term solves with
    random connecting maps, the index invariant with random delta0 (some
    non-primitive), and the ``ktheory --delta0=a,b`` subcommand.  This layer
    is about 1 ms of ``audit``, so without this workload it goes unmeasured.

    A pass runs a fixed template of operation kinds and shapes, in a seeded
    order, filled with fresh entries drawn before the pass.  Every seed and
    every pass then does the same mix of work, the i-th call of every pass
    of a run is of one kind and shape, and no input repeats, so a cache of
    results cannot pass for a speed-up."""

    name = "ktheory"
    # (kind, shape): matrix rows, cols and density for snf and hom; the free
    # ranks of K0(J), K1(J), K0(B), K1(B) for six_term; the reading for index
    TEMPLATE = (
        [("snf", (n, n, d)) for n, d in ((2, 1.0), (4, 0.6), (6, 1.0), (8, 0.3),
                                          (8, 1.0), (10, 0.6), (12, 0.3), (12, 1.0))]
        + [("snf", (r, c, d)) for r, c, d in ((1, 5, 1.0), (5, 1, 1.0), (3, 7, 0.6),
                                               (7, 3, 0.6), (5, 12, 1.0), (12, 5, 0.3),
                                               (9, 11, 0.6), (11, 9, 1.0))]
        + [("hom", (r, c, d)) for r, c, d in ((2, 3, 1.0), (3, 2, 0.6), (4, 6, 1.0),
                                               (6, 4, 0.3), (8, 8, 0.6), (12, 7, 1.0),
                                               (7, 12, 0.6), (10, 10, 1.0))]
        + [("six_term", r) for r in ((0, 2, 1, 1), (2, 2, 2, 2), (1, 3, 2, 0),
                                     (3, 1, 0, 3), (4, 4, 4, 4), (2, 0, 3, 1))]
        + [("index", "paper")] * 3 + [("index", "fibration")] * 3
        + [("cli", None)] * 4
    )
    unit_op = "operation"

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)
        self.path = workdir / "ktheory.json"
        self.template = [self.TEMPLATE[i] for i in self.rng.permutation(len(self.TEMPLATE))]
        self.digests = {}
        self._ops, self._results = [], []
        self._next = self._draw()

    def _draw_op(self, kind, shape):
        rng = self.rng
        if kind in ("snf", "hom"):
            return kind, _int_matrix(rng, *shape[:2], -9, 9, shape[2])
        if kind == "six_term":
            k0j, k1j, k0b, k1b = shape
            d0 = _int_matrix(rng, k1j, k0b, -4, 4)
            d1 = _int_matrix(rng, k0j, k1b, -4, 4)
            ab = md53c.AbGroup
            return kind, md53c.SixTermInput(ab(k0j), ab(k1j), ab(k0b), ab(k1b), d0, d1)
        a, b = (int(v) for v in rng.integers(-4, 5, 2))
        if kind == "index":
            return kind, (shape, md53c.scenario_input(shape, md53c.ZMat(2, 1, ((a,), (b,)))))
        return kind, (a, b)

    def _draw(self):
        return [self._draw_op(kind, shape) for kind, shape in self.template]

    def repeat_last(self):
        self._next = self._ops

    def _run_op(self, kind, arg):
        if kind == "snf":
            return md53c.smith_normal_form(arg)
        if kind == "hom":
            return md53c.hom_kernel_cokernel(arg)
        if kind == "six_term":
            return md53c.six_term_solve(arg)
        if kind == "index":
            scenario, inp = arg
            b = md53c.B_CROSSED if scenario == "paper" else md53c.B_FIBRATION
            try:
                return md53c.index_invariant(md53c.J_DESCRIPTOR, b, inp.delta0, inp.delta1,
                                             middle=inp.expected_middle)
            except md53c.InconsistentInput:
                return None
        # "--delta0=-1,1": argparse would read "--delta0 -1,1" as an option
        return md53c.cli.main(["ktheory", f"--delta0={arg[0]},{arg[1]}",
                               "-o", str(self.path)])

    def warm_up(self):
        for kind, arg in self._draw():
            self._run_op(kind, arg)

    def run_pass(self):
        self._ops = self._next
        lat, results = [], []
        for kind, arg in self._ops:
            t0 = clock()
            try:
                res = self._run_op(kind, arg)
            except Exception:
                res = _UNEXPECTED
                _unexpected()
            lat.append(clock() - t0)
            if kind == "cli" and res in (0, 1):
                # the payload is read back outside the timed region
                res = (res, json.loads(self.path.read_text()))
            results.append(res)
        self._results = results
        return lat

    def check_pass(self):
        failed = sum(1 for (kind, arg), res in zip(self._ops, self._results)
                     if res is _UNEXPECTED or not self._ok(kind, arg, res))
        # the next pass's inputs are drawn here, outside the timed region
        self._next = self._draw()
        return len(self._ops), failed

    @staticmethod
    def _ok(kind, arg, res):
        if kind == "snf":
            d, u, v = res
            m = [list(r) for r in arg.entries]
            diag = [d.entries[i][i] for i in range(min(d.rows, d.cols))]
            nonzero = [x for x in diag if x]
            return (_matmul(_matmul(u.entries, m), v.entries) == [list(r) for r in d.entries]
                    and abs(_bareiss(u.entries)[1]) == 1 and abs(_bareiss(v.entries)[1]) == 1
                    and all(x > 0 for x in nonzero) and diag[:len(nonzero)] == nonzero
                    and all(b % a == 0 for a, b in zip(nonzero, nonzero[1:])))
        if kind == "hom":
            ker, coker = res
            rank = _bareiss(arg.entries)[0]
            return ker.free_rank == arg.cols - rank and coker.free_rank == arg.rows - rank
        if kind == "six_term":
            inp, sol = arg, res
            r0, r1 = _bareiss(inp.delta0.entries)[0], _bareiss(inp.delta1.entries)[0]
            # K0 = coker(delta1) + ker(delta0), K1 = coker(delta0) + ker(delta1)
            tor0 = md53c.hom_kernel_cokernel(inp.delta1)[1].torsion
            tor1 = md53c.hom_kernel_cokernel(inp.delta0)[1].torsion
            return (sol.k0_mid.free_rank == (inp.k0_j.free_rank - r1) + (inp.k0_b.free_rank - r0)
                    and sol.k1_mid.free_rank == (inp.k1_j.free_rank - r0) + (inp.k1_b.free_rank - r1)
                    and sol.k0_mid.torsion == tor0 and sol.k1_mid.torsion == tor1)
        if kind == "index":
            scenario, inp = arg
            a, b = inp.delta0.entries[0][0], inp.delta0.entries[1][0]
            g = math.gcd(a, b)
            # exactness forces a primitive class; the fibration reading also
            # accepts the zero map, whose cokernel Z^2 is free
            expect = g == 1 or (scenario == "fibration" and g == 0)
            if res is None:
                return not expect
            mid = (res.corners["K0(middle)"], res.corners["K1(middle)"])
            paper_mid = (mid[0].to_json(), mid[1].to_json()) == \
                (_PAPER_MIDDLE["K0"], _PAPER_MIDDLE["K1"])
            return expect and (scenario == "fibration" or paper_mid)
        if not isinstance(res, tuple):  # an exit code other than 0 or 1
            return False
        (a, b), (rc, doc) = arg, res
        if math.gcd(a, b) == 1:
            return rc == 0 and doc["scenarios"][0]["middle"] == _PAPER_MIDDLE
        return rc == 1 and "error" in doc

    def named_metrics(self, stats):
        return {"kt_ops_per_s": (len(self.template) / stats["wall_s"], "1/s"),
                "kt_op_p50_us": (stats["op_p50_us"], "us"),
                "kt_op_p99_us": (stats["op_p99_us"], "us")}


BY_NAME = {cls.name: cls for cls in (Audit, KTheory)}
