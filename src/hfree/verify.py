"""Fast-vs-oracle equivalence checks on random seeded instances.

Each check returns a list of mismatch descriptions carrying full
reproduction info (pattern, n, seed, step), and the number of comparisons
it made; an empty list means the fast paths agree with the brute-force
definitions everywhere they were tried, and the count shows how many
places that was.
"""

from __future__ import annotations

import random
import sys

from .graphs import SimpleGraph
from .patterns import contains_copy, count_automorphisms, count_embeddings, parse_pattern
from .density import biclique_sides, bounded_density_scan, contains_biclique
from .oracle import (naive_C_uv, naive_closed_set, naive_count_copies,
                     naive_is_maximal_free, naive_max_density)
from .process import (co_closure_masks, compute_C_uv, count_common_pairs, count_pairs,
                      init_process, run_until, step)

DEFAULT_CLOSURE_PATTERNS = ("C3", "C4")
DEFAULT_COUNT_PATTERNS = ("C3", "C4", "C5", "K1,3", "K2,3", "K3,3")


def verify_closure(n: int = 12, seeds: int = 5,
                   patterns: tuple[str, ...] = DEFAULT_CLOSURE_PATTERNS,
                   ) -> tuple[list[str], int]:
    """Run processes to exhaustion comparing the incremental classification
    against definitional recomputation at every step, then check that the
    final graph is maximal."""
    mismatches = []
    compared = 0
    for spec in patterns:
        pattern = parse_pattern(spec)
        for seed in range(seeds):
            state = init_process(n, pattern, seed)
            while not state.is_exhausted():
                step(state)
                want = naive_closed_set(state.graph, pattern)
                got = state.closed_pair_ids()
                compared += 1
                if got != want:
                    mismatches.append(
                        f"closure mismatch: pattern={spec} n={n} seed={seed} "
                        f"step={state.step}: incremental {sorted(got)} vs "
                        f"oracle {sorted(want)}")
                    break
            else:
                compared += 1
                if not naive_is_maximal_free(state.graph, pattern):
                    mismatches.append(
                        f"final graph not maximal: pattern={spec} n={n} seed={seed}")
    return mismatches, compared


def verify_cuv(n: int = 12, seeds: int = 5, samples: int = 3,
               patterns: tuple[str, ...] = DEFAULT_CLOSURE_PATTERNS,
               ) -> tuple[list[str], int]:
    """Spot-check compute_C_uv and the monitors' mask counts of |C_uv| and
    of its intersection with the previous sample's set against the
    definitional pair scan on mid-trajectory states; a state with no open
    pair compares nothing."""
    mismatches = []
    compared = 0
    for spec in patterns:
        pattern = parse_pattern(spec)
        for seed in range(seeds):
            state = init_process(n, pattern, seed)
            rng = random.Random(seed + 1)
            run_until(state, max(1, rng.randrange(1, max(2, n))))
            prev: tuple = ({}, set())      # the previous sample's masks and set
            for uv in state.sample_open(rng, samples):
                masks, want = co_closure_masks(state, uv), naive_C_uv(state.graph, pattern, uv)
                got = (sorted(compute_C_uv(state, uv)), count_pairs(masks),
                       count_common_pairs(masks, prev[0]))
                need = (sorted(want), len(want), len(want & prev[1]))
                compared += 1
                if got != need:
                    mismatches.append(
                        f"C_uv mismatch: pattern={spec} n={n} seed={seed} step={state.step} "
                        f"uv={uv}: (C_uv, mask size, mask common with previous) {got} vs {need}")
                prev = masks, want
    return mismatches, compared


def _random_graph(n: int, p: float, rng: random.Random) -> SimpleGraph:
    g = SimpleGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def verify_density(n: int = 10, seeds: int = 20) -> tuple[list[str], int]:
    """Exact density scans vs the subset-enumeration oracle per seed on a
    random graph and on the C3 and C4 processes run to exhaustion, each
    scanned with its pattern (the pocket warm start and the bipartite
    anchor pass settle the C3 host, ex(s, C4) rows cap the C4 host); the
    heuristic scan must stay at or below the oracle."""
    mismatches = []
    compared = 0
    for seed in range(seeds):
        rng = random.Random(seed)
        hosts = [("random", _random_graph(n, rng.choice([0.2, 0.4, 0.6]), rng), None)]
        for h in map(parse_pattern, ("C3", "C4")):
            if n >= h.n:    # the H process needs as many vertices as H
                state = init_process(n, h, seed)
                run_until(state)
                hosts.append((f"{h.name}-process", state.graph, h))
        for host, g, h in hosts:
            want, _ = naive_max_density(g)
            report = bounded_density_scan(g, min(n, 12), mode="exact", pattern=h)
            if report.density != want:
                mismatches.append(
                    f"density scan mismatch: host={host} n={n} seed={seed}: "
                    f"scan {report.density} vs oracle {want}")
            heur = bounded_density_scan(g, min(n, 12), mode="heuristic")
            if heur.density > want:
                mismatches.append(
                    f"heuristic exceeded exact: host={host} n={n} seed={seed}: "
                    f"{heur.density} > {want}")
            compared += 2
    return mismatches, compared


def verify_counts(n: int = 10, seeds: int = 10,
                  patterns: tuple[str, ...] = DEFAULT_COUNT_PATTERNS,
                  ) -> tuple[list[str], int]:
    """Embedding counts / aut and copy detection vs the naive copy counter;
    a complete bipartite pattern's copy is also sought by contains_biclique."""
    mismatches = []
    compared = 0
    for seed in range(seeds):
        rng = random.Random(seed)
        g = _random_graph(n, rng.choice([0.3, 0.5]), rng)
        for spec in patterns:
            pattern = parse_pattern(spec)
            fast = count_embeddings(pattern, g) // count_automorphisms(pattern)
            found = contains_copy(pattern, g)
            sides = biclique_sides(pattern)
            biclique = contains_biclique(g, *sides) if sides else found
            want = naive_count_copies(pattern, g)
            compared += 1
            if fast != want or found != (want > 0) or biclique != found:
                mismatches.append(
                    f"copy count mismatch: pattern={spec} n={n} seed={seed}: fast "
                    f"{fast} (copy found: {found}, biclique: {biclique}) vs oracle {want}")
    return mismatches, compared


def run_verification(scope: str = "all", size: int = 12, seeds: int = 5,
                     ) -> tuple[list[str], dict[str, int]]:
    """Every check of the scope; returns the mismatches and, per check,
    the number of comparisons it made.  A closure pattern with more
    vertices than the host size is skipped with a notice on stderr."""
    checks = {}
    if scope in ("closure", "all"):
        n = min(size, 25)
        fits = tuple(s for s in DEFAULT_CLOSURE_PATTERNS if parse_pattern(s).n <= n)
        for spec in (s for s in DEFAULT_CLOSURE_PATTERNS if s not in fits):
            print(f"notice: closure and C_uv checks skip {spec}, which has more"
                  f" vertices than n={n}", file=sys.stderr)
        checks["closure"] = verify_closure(n=n, seeds=seeds, patterns=fits)
        checks["cuv"] = verify_cuv(n=n, seeds=seeds, patterns=fits)
    if scope in ("density", "all"):
        checks["density"] = verify_density(n=min(size, 12), seeds=max(seeds, 10))
    if scope in ("counts", "all"):
        checks["counts"] = verify_counts(n=min(size, 12), seeds=seeds)
    mismatches = [m for found, _ in checks.values() for m in found]
    return mismatches, {name: compared for name, (_, compared) in checks.items()}
