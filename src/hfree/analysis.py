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
from typing import Iterable, Iterator, Optional, Sequence

from .graphs import SimpleGraph, pair_from_index
from .patterns import Pattern, contains_copy, count_automorphisms, count_embeddings
from .process import (EdgeSetF, ProcessState, compute_C_uv,
                      init_process, run_until, OPEN, EDGE, CLOSED)
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


@dataclass
class TrajectoryStats:
    records: list[CheckpointRecord] = field(default_factory=list)
    notices: list[str] = field(default_factory=list)

    def max_open_ratio(self) -> float:
        return max((r.open_ratio for r in self.records), default=0.0)


def monitor_trajectory(states: Iterator[ProcessState], constants: Constants,
                       checkpoints: Sequence[int], cuv_samples: int = 0,
                       intersection_samples: int = 100,
                       sample_seed: int = 0) -> TrajectoryStats:
    """Consume a state stream and record monitor data at each checkpoint.

    Sampling uses its own seeded generator so that observing a trajectory
    never perturbs it.  Checkpoints beyond the stream's lifetime are
    reported as notices, not errors.
    """
    marks = set(checkpoints)
    stats = TrajectoryStats()
    srng = random.Random(sample_seed)
    n2p = constants.n * constants.n * constants.p
    for state in states:               # each step is yielded once
        if state.step in marks:
            stats.records.append(_checkpoint(state, constants, cuv_samples,
                                             intersection_samples, srng, n2p))
    reached = {rec.step for rec in stats.records}
    stats.notices = [f"checkpoint {m} beyond process lifetime; skipped"
                     for m in sorted(marks - reached)]
    return stats


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
    if cuv_samples > 0 and open_count > 0:
        rec.cuv_reference = (float(constants.beta) * (2 * t) ** (eh - 2)
                             * open_fraction(t, constants.pattern) / constants.p)
        picks = state.sample_open(srng, cuv_samples)
        rec.cuv_sizes = [len(compute_C_uv(state, uv)) for uv in picks]
        if intersection_samples > 0 and open_count >= 2:
            rec.intersection_reference = state.n ** (-1.0 / eh) / constants.p
            cache: dict[tuple[int, int], set[int]] = {}
            for _ in range(intersection_samples):
                a, b = state.sample_open(srng, 2)
                for uv in (a, b):
                    if uv not in cache:
                        cache[uv] = compute_C_uv(state, uv)
                rec.intersection_sizes.append(len(cache[a] & cache[b]))
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

@dataclass
class CopyCountTrial:
    seed: int
    steps_run: int
    present: bool
    count: Optional[int]


@dataclass
class CopyCountResult:
    pattern: str
    target: str
    n: int
    impossible: bool             # target contains the forbidden graph
    trials: list[CopyCountTrial] = field(default_factory=list)

    def presence_rate(self) -> float:
        if not self.trials:
            return 0.0
        return sum(1 for t in self.trials if t.present) / len(self.trials)


def count_copies_at_m(pattern: Pattern, target: Pattern, n: int, mu,
                      trials: int, base_seed: int = 0,
                      presence_only: bool = True) -> CopyCountResult:
    """Run the process to its step horizon and count (or just detect)
    copies of the target.  A target containing the forbidden graph is
    flagged impossible and not simulated."""
    result = CopyCountResult(pattern=pattern.name, target=target.name, n=n,
                             impossible=contains_copy(pattern, target.to_graph()))
    if result.impossible:
        return result
    steps = step_horizon(n, pattern, mu)
    for trial in range(trials):
        state = run_until(init_process(n, pattern, base_seed + trial), steps)
        if presence_only:
            present = contains_copy(target, state.graph)
            count = None
        else:
            count = count_embeddings(target, state.graph) // count_automorphisms(target)
            present = count > 0
        result.trials.append(CopyCountTrial(seed=base_seed + trial,
                                            steps_run=state.step,
                                            present=present, count=count))
    return result


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

@dataclass
class KeyInequalityRecord:
    step: int
    in_step_range: bool          # m/2 <= i <= m
    a: int                       # |A|
    f_size: int
    f_open: int
    f_edges: int
    f_closed: int
    o_f_size: int
    sum_cuv: int
    sum_pairwise_intersections: int
    inclusion_exclusion_bound: int
    reference: float             # 13 a ln(n) / m * |O(i)|
    open_count: int
    meets_reference: bool
    identity_holds: bool         # |O_F| >= sum - pairwise
    f_open_identity: Optional[bool]  # |F∩Open| == |F| - |F∩Edge| when F∩Closed empty

    def as_dict(self) -> dict:
        return self.__dict__.copy()


def check_key_inequality(state: ProcessState, f: EdgeSetF,
                         constants: Constants) -> KeyInequalityRecord:
    """Exact |O_F|, its inclusion-exclusion lower bound, and the reference
    value 13 a ln(n)/m * |O(i)|, all recorded (out-of-range steps are
    computed anyway and flagged)."""
    n = state.n
    i = state.step
    m = constants.m_steps
    verts = f.vertex_span(n)
    a = len(verts)
    by_class: dict[int, list[int]] = {OPEN: [], EDGE: [], CLOSED: []}
    for pid in f.pairs:
        by_class[state.class_of(*pair_from_index(pid, n))].append(pid)
    open_pids, edge_pids, closed_pids = by_class.values()
    cuv = {pid: compute_C_uv(state, pair_from_index(pid, n)) for pid in open_pids}
    o_f = set().union(*cuv.values())
    sum_sizes = sum(len(s) for s in cuv.values())
    pairwise = sum(len(a & b) for a, b in combinations(cuv.values(), 2))
    bound = sum_sizes - pairwise
    open_count = state.open_count()
    reference = 13.0 * a * math.log(n) / m * open_count
    f_open_identity = None
    if not closed_pids:
        f_open_identity = len(open_pids) == len(f.pairs) - len(edge_pids)
    return KeyInequalityRecord(
        step=i, in_step_range=(m / 2 <= i <= m), a=a,
        f_size=len(f.pairs), f_open=len(open_pids), f_edges=len(edge_pids),
        f_closed=len(closed_pids), o_f_size=len(o_f), sum_cuv=sum_sizes,
        sum_pairwise_intersections=pairwise, inclusion_exclusion_bound=bound,
        reference=reference, open_count=open_count,
        meets_reference=len(o_f) >= reference,
        identity_holds=len(o_f) >= bound,
        f_open_identity=f_open_identity)


# ── final-edge exponent fit ──────────────────────────────────────────────

@dataclass
class ExponentFit:
    slope: float
    intercept: float
    stderr: float
    n_points: int

    def band(self, width: float = 2.0) -> tuple[float, float]:
        return (self.slope - width * self.stderr, self.slope + width * self.stderr)


def fit_edge_exponent(counts: Iterable[tuple[int, float]]) -> ExponentFit:
    """Least-squares slope of ln(mean count) vs ln(n).

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
    if k > 2:
        resid = sum((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys))
        stderr = math.sqrt(resid / (k - 2) / sxx)
    else:
        stderr = 0.0
    return ExponentFit(slope=slope, intercept=intercept, stderr=stderr, n_points=k)
