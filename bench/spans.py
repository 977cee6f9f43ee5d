"""In-memory span tracing around hfree's layer boundaries.

The tracer replaces module-level names that each layer is called through
(``hfree.process.step``, ``hfree.density._max_edges_connected``, ...) with
wrappers that record a span: name, start, end, parent span and an optional
count taken from the return value.  Nothing inside ``src/`` changes; the
wrappers are installed for one traced command and removed after it.

A layer's self time is its spans' duration minus the time covered by their
child spans.  A wrapped name that no longer exists in any namespace (a
rename in hfree) makes the metrics built on it ``None`` with a note, rather
than failing the run.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from collections import defaultdict


def _bnb_nodes(result) -> int:
    return result[2]


# (module under hfree, attribute path, span name, count taken from result).
# A function bound in several namespaces is wrapped in each one that calls it.
WRAPS = [
    ("process", "pair_from_index", "graphs.pair_from_index", None),
    ("harness", "pair_from_index", "graphs.pair_from_index", None),
    ("analysis", "pair_from_index", "graphs.pair_from_index", None),
    ("harness", "init_process", "process.init", None),
    ("analysis", "init_process", "process.init", None),
    ("process", "step", "process.step", None),
    ("process", "ProcessState._closure_scan", "process.closure_scan", len),
    ("process", "compute_C_uv", "process.compute_C_uv", len),
    ("analysis", "compute_C_uv", "process.compute_C_uv", len),
    ("harness", "monitor_trajectory", "analysis.monitor", None),
    ("analysis", "_checkpoint", "analysis.checkpoint", None),
    ("cli", "bounded_density_scan", "density.scan", None),
    ("harness", "bounded_density_scan", "density.scan", None),
    ("density", "is_triangle_free", "density.is_triangle_free", None),
    ("density", "_degeneracy_rank", "density.degeneracy_rank", None),
    ("density", "bipartite_pocket_warm", "density.pocket_warm", None),
    ("density", "local_search_warm", "density.local_search_warm", None),
    ("density", "_bipartite_above_floors", "density.anchor", None),
    ("density", "_max_edges_connected", "density.bnb", _bnb_nodes),
    ("harness", "run_trial", "harness.run_trial", None),
    ("harness", "_write_csv", "harness.write_csv", None),
    ("harness", "write_edge_list", "graphs.write_edge_list", None),
    ("cli", "read_edge_list", "graphs.read_edge_list", None),
]

COMMAND = "bench.command"   # root span of one timed command


class Tracer:
    """Spans kept in parallel arrays; index -1 is "no parent"."""

    def __init__(self):
        self.names: list[str] = [COMMAND]
        self._ids = {COMMAND: 0}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []
        self.present: set[str] = set()
        self.notes: list[str] = []
        self._resolve()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _resolve(self) -> None:
        """Find each wrapped name once; note the ones hfree lacks."""
        self._targets = []
        for module, path, name, counter in WRAPS:
            owner = importlib.import_module(f"hfree.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or not callable(getattr(owner, attr, None)):
                self.notes.append(f"hfree.{module}.{path} not found; "
                                  f"span {name} not recorded there")
                continue
            self.present.add(name)
            self._targets.append((owner, attr, self._id(name), counter))

    def open(self, sid: int) -> int:
        idx = len(self.name)
        self.name.append(sid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.count.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, count: int = 0) -> None:
        self.end[idx] = time.perf_counter()
        self.count[idx] = count
        self._stack.pop()

    def _wrapper(self, fn, sid: int, counter):
        # open/close inlined with bound locals: the hot wrappers run once
        # per process step, so their cost is most of the tracing overhead
        name, parent, start, end, count = (self.name, self.parent, self.start,
                                           self.end, self.count)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(sid)
            parent.append(stack[-1])
            end.append(0.0)
            count.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                count[idx] = counter(result)
            return result
        return traced

    def install(self) -> None:
        for owner, attr, sid, counter in self._targets:
            fn = getattr(owner, attr)
            self._installed.append((owner, attr, fn))
            setattr(owner, attr, self._wrapper(fn, sid, counter))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, fn = self._installed.pop()
            setattr(owner, attr, fn)

    def __len__(self) -> int:
        return len(self.name)

    def write(self, path: str) -> None:
        """One tab-separated line per span: index, name, parent, start,
        end (perf_counter seconds) and count."""
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tparent\tstart\tend\tcount\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t"
                         f"{self.start[i]!r}\t{self.end[i]!r}\t{self.count[i]}\n")


class _Agg:
    __slots__ = ("calls", "s", "self_s", "count")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.count = 0


def aggregate(tr: Tracer, lo: int, hi: int) -> defaultdict[str, _Agg]:
    """Per span name totals over spans lo..hi-1; closure scans are split by
    whether a process step or a C_uv query caused them."""
    dur = [tr.end[i] - tr.start[i] for i in range(lo, hi)]
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        p = tr.parent[i]
        if p >= lo:
            child[p - lo] += dur[i - lo]
    out: defaultdict[str, _Agg] = defaultdict(_Agg)
    scan = tr._ids.get("process.closure_scan")
    step = tr._ids.get("process.step")
    for i in range(lo, hi):
        sid = tr.name[i]
        name = tr.names[sid]
        if sid == scan:
            p = tr.parent[i]
            via = "step" if p >= 0 and tr.name[p] == step else "other"
            name = f"{name}@{via}"
        agg = out[name]
        agg.calls += 1
        agg.s += dur[i - lo]
        agg.self_s += dur[i - lo] - child[i - lo]
        agg.count += tr.count[i]
    return out


# metric name -> (unit, span names it is built from, value from the totals)
def _calls(name):
    return lambda a: a[name].calls


def _s(name):
    return lambda a: a[name].s


def _self(*names):
    return lambda a: sum(a[n].self_s for n in names)


def _count(name):
    return lambda a: a[name].count


def _per_scan(a):
    scans = a["process.closure_scan@step"]
    return scans.count / scans.calls if scans.calls else 0.0


LAYER_METRICS = {
    "graphs.pair_from_index.calls": ("count", ["graphs.pair_from_index"], _calls("graphs.pair_from_index")),
    "graphs.pair_from_index.s": ("s", ["graphs.pair_from_index"], _s("graphs.pair_from_index")),
    "process.init_s": ("s", ["process.init"], _s("process.init")),
    "process.step.calls": ("count", ["process.step"], _calls("process.step")),
    "process.step.self_s": ("s", ["process.step"], _self("process.step")),
    "process.closure_scan.calls": ("count", ["process.closure_scan", "process.step"],
                                   _calls("process.closure_scan@step")),
    "process.closure_scan.s": ("s", ["process.closure_scan", "process.step"],
                               _s("process.closure_scan@step")),
    "process.pairs_closed": ("count", ["process.closure_scan", "process.step"],
                             _count("process.closure_scan@step")),
    "process.closed_per_scan": ("ratio", ["process.closure_scan", "process.step"], _per_scan),
    "process.compute_C_uv.calls": ("count", ["process.compute_C_uv"], _calls("process.compute_C_uv")),
    "process.compute_C_uv.s": ("s", ["process.compute_C_uv"], _s("process.compute_C_uv")),
    "process.compute_C_uv.self_s": ("s", ["process.compute_C_uv"], _self("process.compute_C_uv")),
    "process.compute_C_uv.pairs": ("count", ["process.compute_C_uv"], _count("process.compute_C_uv")),
    "analysis.checkpoints": ("count", ["analysis.checkpoint"], _calls("analysis.checkpoint")),
    "analysis.monitor.self_s": ("s", ["analysis.monitor", "analysis.checkpoint"],
                                _self("analysis.monitor", "analysis.checkpoint")),
    "density.scan.s": ("s", ["density.scan"], _s("density.scan")),
    "density.is_triangle_free.s": ("s", ["density.is_triangle_free"], _s("density.is_triangle_free")),
    "density.degeneracy_rank.s": ("s", ["density.degeneracy_rank"], _s("density.degeneracy_rank")),
    "density.pocket_warm.s": ("s", ["density.pocket_warm"], _s("density.pocket_warm")),
    "density.local_search_warm.self_s": ("s", ["density.local_search_warm"],
                                         _self("density.local_search_warm")),
    "density.anchor.s": ("s", ["density.anchor"], _s("density.anchor")),
    "density.bnb.calls": ("count", ["density.bnb"], _calls("density.bnb")),
    "density.bnb.s": ("s", ["density.bnb"], _s("density.bnb")),
    "density.bnb.nodes": ("count", ["density.bnb"], _count("density.bnb")),
    "harness.run_trial.s": ("s", ["harness.run_trial"], _s("harness.run_trial")),
    "harness.io.self_s": ("s", ["harness.run_trial", "harness.write_csv", "graphs.write_edge_list"],
                          _self("harness.run_trial", "harness.write_csv", "graphs.write_edge_list")),
    "graphs.write_edge_list.s": ("s", ["graphs.write_edge_list"], _s("graphs.write_edge_list")),
    "graphs.read_edge_list.s": ("s", ["graphs.read_edge_list"], _s("graphs.read_edge_list")),
}


def layer_values(tr: Tracer, lo: int, hi: int) -> dict[str, object]:
    """Every layer metric over spans lo..hi-1; None where a span it needs
    could not be installed."""
    totals = aggregate(tr, lo, hi)
    out = {}
    for metric, (_unit, needs, fn) in LAYER_METRICS.items():
        out[metric] = fn(totals) if all(n in tr.present for n in needs) else None
    return out
