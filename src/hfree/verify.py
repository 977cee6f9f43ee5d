"""Fast-vs-oracle equivalence checks on random seeded instances.

Each check returns a list of mismatch descriptions carrying full
reproduction info (pattern, n, seed, step); an empty list means the fast
paths agree with the brute-force definitions everywhere they were tried.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from .graphs import SimpleGraph
from .patterns import count_automorphisms, count_embeddings, parse_pattern
from .density import bounded_density_scan
from .oracle import (naive_C_uv, naive_closed_set, naive_count_copies,
                     naive_is_maximal_free, naive_max_density)
from .process import StepCount, compute_C_uv, init_process, run_until, step

DEFAULT_CLOSURE_PATTERNS = ("C3", "C4")
DEFAULT_COUNT_PATTERNS = ("C3", "C4", "C5", "K1,3")


def verify_closure(n: int = 12, seeds: int = 5,
                   patterns: tuple[str, ...] = DEFAULT_CLOSURE_PATTERNS,
                   mutate: Optional[Callable] = None) -> list[str]:
    """Run processes to exhaustion comparing the incremental classification
    against definitional recomputation at every step, then check that the
    final graph is maximal.  ``mutate(state, step_no)`` is a test hook that
    lets callers corrupt the state to exercise the failure path."""
    mismatches = []
    for spec in patterns:
        pattern = parse_pattern(spec)
        for seed in range(seeds):
            state = init_process(n, pattern, seed)
            while not state.is_exhausted():
                step(state)
                if mutate is not None:
                    mutate(state, state.step)
                want = naive_closed_set(state.graph, pattern)
                got = state.closed_pair_ids()
                if got != want:
                    mismatches.append(
                        f"closure mismatch: pattern={spec} n={n} seed={seed} "
                        f"step={state.step}: incremental {sorted(got)} vs "
                        f"oracle {sorted(want)}")
                    break
            else:
                if not naive_is_maximal_free(state.graph, pattern):
                    mismatches.append(
                        f"final graph not maximal: pattern={spec} n={n} seed={seed}")
    return mismatches


def verify_cuv(n: int = 12, seeds: int = 5, samples: int = 3,
               patterns: tuple[str, ...] = DEFAULT_CLOSURE_PATTERNS) -> list[str]:
    """Spot-check compute_C_uv against the definitional pair scan on
    mid-trajectory states."""
    mismatches = []
    for spec in patterns:
        pattern = parse_pattern(spec)
        for seed in range(seeds):
            state = init_process(n, pattern, seed)
            rng = random.Random(seed + 1)
            run_until(state, StepCount(max(1, rng.randrange(1, max(2, n)))))
            for uv in state.sample_open(rng, samples):
                got = compute_C_uv(state, uv)
                want = naive_C_uv(state.graph, pattern, uv)
                if got != want:
                    mismatches.append(
                        f"C_uv mismatch: pattern={spec} n={n} seed={seed} "
                        f"step={state.step} uv={uv}: {sorted(got)} vs {sorted(want)}")
    return mismatches


def _random_graph(n: int, p: float, rng: random.Random) -> SimpleGraph:
    g = SimpleGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def verify_density(n: int = 10, seeds: int = 20) -> list[str]:
    """Exact density scans vs the subset-enumeration oracle on random
    graphs; the heuristic scan must stay at or below the oracle."""
    mismatches = []
    for seed in range(seeds):
        rng = random.Random(seed)
        g = _random_graph(n, rng.choice([0.2, 0.4, 0.6]), rng)
        want, _ = naive_max_density(g)
        report = bounded_density_scan(g, min(n, 12), mode="exact")
        if report.density != want:
            mismatches.append(
                f"density scan mismatch: n={n} seed={seed}: "
                f"scan {report.density} vs oracle {want}")
        heur = bounded_density_scan(g, min(n, 12), mode="heuristic")
        if heur.density > want:
            mismatches.append(
                f"heuristic exceeded exact: n={n} seed={seed}: "
                f"{heur.density} > {want}")
    return mismatches


def verify_counts(n: int = 10, seeds: int = 10,
                  patterns: tuple[str, ...] = DEFAULT_COUNT_PATTERNS) -> list[str]:
    """Embedding counts / aut vs the naive copy counter on random hosts."""
    mismatches = []
    for seed in range(seeds):
        rng = random.Random(seed)
        g = _random_graph(n, rng.choice([0.3, 0.5]), rng)
        for spec in patterns:
            pattern = parse_pattern(spec)
            fast = count_embeddings(pattern, g) // count_automorphisms(pattern)
            want = naive_count_copies(pattern, g)
            if fast != want:
                mismatches.append(
                    f"copy count mismatch: pattern={spec} n={n} seed={seed}: "
                    f"fast {fast} vs oracle {want}")
    return mismatches


def run_verification(scope: str = "all", size: int = 12, seeds: int = 5) -> list[str]:
    mismatches = []
    if scope in ("closure", "all"):
        mismatches += verify_closure(n=min(size, 25), seeds=seeds)
        mismatches += verify_cuv(n=min(size, 25), seeds=seeds)
    if scope in ("density", "all"):
        mismatches += verify_density(n=min(size, 12), seeds=max(seeds, 10))
    if scope in ("counts", "all"):
        mismatches += verify_counts(n=min(size, 12), seeds=seeds)
    return mismatches
