"""Trajectory monitors, subgraph-count experiments and diagnostics.

Monitors are report-first: each checkpoint records its counts next to
their reference bounds rather than aborting, since the underlying
estimates are asymptotic and finite-n excursions are informative, not bugs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence, Union

from .graphs import SimpleGraph, pair_from_index
from .patterns import Pattern, contains_copy, count_automorphisms, count_embeddings
from .process import (ProcessState, co_closure_masks, compute_C_uv, count_common_pairs,
                      count_pairs, init_process, run_until, OPEN, EDGE, CLOSED)
from .theory import Constants, open_fraction, step_horizon

# ── trajectory monitors ──────────────────────────────────────────────────

@dataclass
class CheckpointRecord:
    step: int
    t: float
    open_count: int
    open_bound: float            # q(t) * n^2
    open_ratio: float            # open_count / open_bound
    in_nominal_window: bool      # n^2 p <= step <= m_steps
    edge_count: int
    max_degree: int
    closed_count: int
    cuv_sizes: list[int] = field(default_factory=list)
    cuv_reference: float = 0.0   # beta * (2t)^(e_H-2) * q(t) / p
    intersection_sizes: list[int] = field(default_factory=list)
    intersection_reference: float = 0.0  # n^(-1/e_H) / p

    def as_row(self) -> dict:
        return {
            "step": self.step,
            "t": f"{self.t:.9g}",
            "open": self.open_count,
            "open_bound": f"{self.open_bound:.9g}",
            "open_ratio": f"{self.open_ratio:.9g}",
            "in_range": int(self.in_nominal_window),
            "edges": self.edge_count,
            "max_degree": self.max_degree,
            "closed": self.closed_count,
            "cuv_min": min(self.cuv_sizes) if self.cuv_sizes else "",
            "cuv_mean": (f"{sum(self.cuv_sizes) / len(self.cuv_sizes):.9g}"
                         if self.cuv_sizes else ""),
            "cuv_reference": f"{self.cuv_reference:.9g}",
            "ix_max": max(self.intersection_sizes) if self.intersection_sizes else "",
            "ix_reference": f"{self.intersection_reference:.9g}",
        }


def monitor_trajectory(states: Iterator[ProcessState], constants: Constants,
                       checkpoints: Sequence[int], cuv_samples: int = 0,
                       intersection_samples: int = 100, sample_seed: int = 0
                       ) -> tuple[list[CheckpointRecord], list[str]]:
    """Consume a state stream and record monitor data at each checkpoint.

    Sampling uses its own seeded generator so that observing a trajectory
    never perturbs it.  Returns (records, notices): checkpoints beyond the
    stream's lifetime are reported as notices, not errors.
    """
    marks = set(checkpoints)
    records: list[CheckpointRecord] = []
    srng = random.Random(sample_seed)
    n2p = constants.n * constants.n * constants.p
    for state in states:               # each step is yielded once
        if state.step in marks:
            records.append(_checkpoint(state, constants, cuv_samples,
                                       intersection_samples, srng, n2p))
    reached = {rec.step for rec in records}
    notices = [f"checkpoint {m} beyond process lifetime; skipped"
               for m in sorted(marks - reached)]
    return records, notices


def _checkpoint(state: ProcessState, constants: Constants, cuv_samples: int,
                intersection_samples: int, srng: random.Random,
                n2p: float) -> CheckpointRecord:
    i = state.step
    t = constants.t(i)
    bound = constants.open_bound(i)
    open_count = state.open_count()
    # independent checks: no pair is both an edge and open, and the masks
    # hold each of the counter's open pairs at both of its ends
    for u in range(state.n):
        both = state.graph.adj[u] & state.open_nbr[u]
        if both:
            raise RuntimeError(f"step {i}: pair ({u},{both.bit_length() - 1}) "
                               f"is both an edge and open")
    mask_ends = sum(m.bit_count() for m in state.open_nbr)
    if mask_ends != 2 * open_count:
        raise RuntimeError(f"step {i}: open-neighbour masks hold {mask_ends} "
                           f"pair ends, expected {2 * open_count}")
    eh = constants.pattern.edge_count
    rec = CheckpointRecord(
        step=i, t=t, open_count=open_count, open_bound=bound,
        open_ratio=open_count / bound if bound > 0 else math.inf,
        in_nominal_window=(n2p <= i <= constants.m_steps),
        edge_count=state.graph.edge_count,
        max_degree=max(state.graph.degrees),
        closed_count=state.closed_count(),
    )
    # C_uv as partner masks, counted in place; the two samples draw from
    # ``srng`` in this order
    cache: dict[tuple[int, int], dict[int, int]] = {}
    if cuv_samples > 0 and open_count > 0:
        rec.cuv_reference = (float(constants.beta) * (2 * t) ** (eh - 2)
                             * open_fraction(t, constants.pattern) / constants.p)
        for uv in state.sample_open(srng, cuv_samples):
            cache[uv] = co_closure_masks(state, uv)
            rec.cuv_sizes.append(count_pairs(cache[uv]))
    if intersection_samples > 0 and open_count >= 2:
        rec.intersection_reference = state.n ** (-1.0 / eh) / constants.p
        for _ in range(intersection_samples):
            a, b = state.sample_open(srng, 2)
            for uv in (a, b):
                if uv not in cache:
                    cache[uv] = co_closure_masks(state, uv)
            rec.intersection_sizes.append(count_common_pairs(cache[a], cache[b]))
    return rec


def default_checkpoints(constants: Constants) -> list[int]:
    """An even grid of 12 steps over the tracked phase [1, m].  The nominal
    monitor range [n^2 p, m] is empty at desk scale (n^2 p exceeds m for
    every reachable n), so the grid spans the realizable prefix instead and
    each record carries an in-range flag."""
    m = constants.m_steps
    lo = min(int(constants.n * constants.n * constants.p), m)
    lo = max(1, min(lo, max(1, m // 2)))
    span = [lo + round(j * (m - lo) / 11) for j in range(12)]
    return sorted(set(max(1, s) for s in span))


# ── small-subgraph counts at the step horizon ────────────────────────────

def count_copies_at_m(pattern: Pattern, target: Pattern, n: int, mu,
                      trials: int, base_seed: int = 0, presence_only: bool = True
                      ) -> Optional[list[tuple[int, Union[bool, int]]]]:
    """Run the process to its step horizon and detect (or count) copies of
    the target: one (steps run, present) per trial, or (steps run, copies)
    when not ``presence_only``.  None for a target containing the forbidden
    graph, which cannot appear; nothing is simulated then."""
    if contains_copy(pattern, target.to_graph()):
        return None
    steps = step_horizon(n, pattern, mu)
    runs: list[tuple[int, Union[bool, int]]] = []
    for trial in range(trials):
        state = run_until(init_process(n, pattern, base_seed + trial), steps)
        if presence_only:
            value = contains_copy(target, state.graph)
        else:
            value = count_embeddings(target, state.graph) // count_automorphisms(target)
        runs.append((state.step, value))
    return runs


def baseline_uniform_process(n: int, steps: int, seed: int) -> SimpleGraph:
    """The unconstrained uniform random graph process after the given
    number of steps (reference model for side-by-side subgraph counts)."""
    npairs = n * (n - 1) // 2
    if steps > npairs:
        raise ValueError(f"steps {steps} exceeds the {npairs} available pairs")
    rng = random.Random(seed)
    chosen = rng.sample(range(npairs), steps)
    g = SimpleGraph(n)
    for pid in chosen:
        u, v = pair_from_index(pid, n)
        g.add_edge(u, v)
    return g


# ── key-inequality diagnostic ────────────────────────────────────────────

def check_key_inequality(state: ProcessState, vertices: Iterable[int],
                         f: Iterable[int], constants: Constants) -> dict:
    """For a vertex set A and a set F of pairs inside A (pair ids): exact
    |O_F|, its inclusion-exclusion lower bound sum |C_uv| - sum of pairwise
    intersections, and the reference value 13 a ln(n)/m * |O(i)|, a = |A|.
    All are recorded; an out-of-range step (outside m/2 <= i <= m) is
    computed anyway and flagged.  ``f_open_identity`` is
    |F∩Open| == |F| - |F∩Edge| when F has no closed pair, else None."""
    n = state.n
    i = state.step
    m = constants.m_steps
    verts = set(vertices)
    pids = set(f)
    by_class: dict[int, list[int]] = {OPEN: [], EDGE: [], CLOSED: []}
    for pid in pids:
        u, v = pair_from_index(pid, n)
        if u not in verts or v not in verts:
            raise ValueError(f"pair ({u},{v}) of F is not inside the vertex set")
        by_class[state.class_of(u, v)].append(pid)
    open_pids, edge_pids, closed_pids = by_class.values()
    cuv = {pid: compute_C_uv(state, pair_from_index(pid, n)) for pid in open_pids}
    o_f = set().union(*cuv.values())
    sum_sizes = sum(len(s) for s in cuv.values())
    pairwise = sum(len(a & b) for a, b in combinations(cuv.values(), 2))
    bound = sum_sizes - pairwise
    open_count = state.open_count()
    reference = 13.0 * len(verts) * math.log(n) / m * open_count
    f_open_identity = None
    if not closed_pids:
        f_open_identity = len(open_pids) == len(pids) - len(edge_pids)
    return {
        "step": i, "in_step_range": m / 2 <= i <= m, "a": len(verts),
        "f_size": len(pids), "f_open": len(open_pids), "f_edges": len(edge_pids),
        "f_closed": len(closed_pids), "o_f_size": len(o_f), "sum_cuv": sum_sizes,
        "sum_pairwise_intersections": pairwise, "inclusion_exclusion_bound": bound,
        "reference": reference, "open_count": open_count,
        "meets_reference": len(o_f) >= reference,
        "identity_holds": len(o_f) >= bound,
        "f_open_identity": f_open_identity,
    }


# ── final-edge exponent fit ──────────────────────────────────────────────

def fit_edge_exponent(counts: Iterable[tuple[int, float]]) -> tuple[float, float]:
    """Least-squares slope of ln(mean count) vs ln(n) and its standard error.

    Input is (n, count) records; needs at least 4 distinct n values with at
    least 3 records each.
    """
    by_n: dict[int, list[float]] = {}
    for n, c in counts:
        by_n.setdefault(n, []).append(float(c))
    if len(by_n) < 4:
        raise ValueError(f"need at least 4 distinct n values, got {len(by_n)}")
    for n, vals in by_n.items():
        if len(vals) < 3:
            raise ValueError(f"need at least 3 trials per n, got {len(vals)} at n={n}")
        if any(v <= 0 for v in vals):
            raise ValueError(f"counts must be positive for the log fit (n={n})")
    xs = []
    ys = []
    for n in sorted(by_n):
        xs.append(math.log(n))
        ys.append(math.log(sum(by_n[n]) / len(by_n[n])))
    k = len(xs)
    xbar = sum(xs) / k
    ybar = sum(ys) / k
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    resid = sum((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys))
    return slope, math.sqrt(resid / (k - 2) / sxx)
