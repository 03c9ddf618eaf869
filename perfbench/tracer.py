"""Outside-in tracing of the six md53c layers.

The program has no spans of its own, so the benchmark makes them: every
public function of a layer is replaced, at every module binding that holds
it (``md53c.same_leaf``, ``md53c.foliation.same_leaf``,
``md53c.cli.same_leaf`` ...), by a wrapper that records one span per call.
Calls a layer makes to another layer's function look the name up in the
caller's module globals, so they are caught too.  ``traced()`` puts every
original binding back on exit.

Spans are kept in memory as flat arrays (name, parent span, start, end) and
reduced to per-function counts and self times by ``Tracer.summary()``.
"""

import contextlib
import functools
import inspect
import sys
import time
import types
from array import array

import numpy as np

PACKAGE = "md53c"
LAYERS = ("lie_core", "catalog", "coadjoint", "foliation", "ktheory", "cli")
# cli has no __all__; main is its only public entry point
_CLI_PUBLIC = ("main",)
# public methods traced on top of the module-level functions
METHODS = (("coadjoint", "OrbitChart", "eval"),)


class Tracer:
    """Records one span per wrapped call; spans nest by call stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.labels = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {}
        self._stack = [-1]

    def label_id(self, label):
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def wrap(self, label, fn, on_result=None):
        """Wrapper of fn that records a span named ``label``.  ``label`` may
        be a callable of the call's arguments; ``on_result(tracer, result)``
        may add counters."""
        fixed = None if callable(label) else self.label_id(label)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self.label_id(label(*args, **kwargs))
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__traced__ = fn
        return traced

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def summary(self):
        """The spans recorded so far, reduced for querying."""
        return SpanSummary(self.labels, self.name, self.parent, self.start, self.end)


class SpanSummary:
    """Per-label calls, total and self seconds of a set of spans.  A span's
    self time is its duration minus the durations of its direct children."""

    def __init__(self, labels, name, parent, start, end):
        self.labels = list(labels)
        self.name = np.array(name, dtype=np.int64)
        self.parent = np.array(parent, dtype=np.int64)
        dur = np.array(end, dtype=float) - np.array(start, dtype=float)
        k = len(self.labels)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self.self_time = dur - child
        self.calls_by = np.bincount(self.name, minlength=k)
        self.total_by = np.bincount(self.name, weights=dur, minlength=k)
        self.self_by = np.bincount(self.name, weights=self.self_time, minlength=k)

    def _id(self, label):
        return self.labels.index(label) if label in self.labels else -1

    def calls(self, label):
        i = self._id(label)
        return int(self.calls_by[i]) if i >= 0 else 0

    def total_s(self, label):
        i = self._id(label)
        return float(self.total_by[i]) if i >= 0 else 0.0

    def self_s(self, label):
        i = self._id(label)
        return float(self.self_by[i]) if i >= 0 else 0.0

    def calls_under_parent(self, label, parent_label):
        """Calls of ``label`` whose direct parent span is ``parent_label``."""
        i, j = self._id(label), self._id(parent_label)
        if i < 0 or j < 0:
            return 0
        has_parent = self.parent >= 0
        pname = np.full(len(self.name), -1)
        pname[has_parent] = self.name[self.parent[has_parent]]
        return int(np.count_nonzero((self.name == i) & (pname == j)))

    def inside(self, labels):
        """Boolean per span: some strict ancestor is named in ``labels``.
        Parents are recorded before their children, so the flag is filled
        in one pass per nesting level."""
        ids = [self._id(lb) for lb in labels if self._id(lb) >= 0]
        marked = np.isin(self.name, ids)
        has_parent = self.parent >= 0
        flag = np.zeros(len(self.name), dtype=bool)
        while True:
            new = np.zeros_like(flag)
            p = self.parent[has_parent]
            new[has_parent] = marked[p] | flag[p]
            if np.array_equal(new, flag):
                return flag
            flag = new

    def calls_within(self, label, ancestors):
        i = self._id(label)
        if i < 0:
            return 0
        return int(np.count_nonzero((self.name == i) & self.inside(ancestors)))

    def outermost(self, labels):
        """Spans named in ``labels`` that no other such span encloses."""
        ids = [self._id(lb) for lb in labels if self._id(lb) >= 0]
        return int(np.count_nonzero(np.isin(self.name, ids) & ~self.inside(labels)))


def public_functions():
    """(label, function) for each public function of each layer: the names
    in the layer's ``__all__`` that are functions defined in that layer."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for attr in getattr(mod, "__all__", _CLI_PUBLIC):
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out.append((f"{layer}.{attr}", fn))
    return out


def _cli_label(argv=None, *args, **kwargs):
    cmd = argv[0] if argv else "main"
    return f"cli.{cmd}"


def _count_failures(tracer, report):
    tracer.count("foliation.verify_classification.failures", len(report.failures))


_SPECIAL = {
    "cli.main": {"label": _cli_label},
    "foliation.verify_classification": {"on_result": _count_failures},
}


def install(tracer):
    """Rebind every binding of every public layer function, in every loaded
    module, to a tracing wrapper.  Returns the patches for ``uninstall``."""
    wrappers = {}
    for label, fn in public_functions():
        extra = _SPECIAL.get(label, {})
        wrappers[id(fn)] = (fn, tracer.wrap(extra.get("label", label), fn,
                                            extra.get("on_result")))
    patches = []
    for mod in list(sys.modules.values()):
        if not isinstance(mod, types.ModuleType):
            continue
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                patches.append((mod, attr, val))
    for layer, cls_name, meth in METHODS:
        cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
        fn = vars(cls)[meth]
        setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", fn))
        patches.append((cls, meth, fn))
    return patches


def uninstall(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


@contextlib.contextmanager
def traced(tracer):
    patches = install(tracer)
    try:
        yield patches
    finally:
        uninstall(patches)
