"""Brute-force reference implementations used as ground truth.

Everything here recomputes definitions directly: containment checks walk
pattern vertices in fixed index order over set-based adjacency (no bitset
intersections, no precompiled templates), densities come from explicit
subset enumeration.  The one symmetry used: a copy through a host edge
needs only one pattern arc per automorphism orbit as the edge's preimage.
The automorphisms, which also give aut(p) for copy counting, are found
here as the copies of the pattern in itself.
Size limits are hard errors -- an oracle must never silently approximate.

These ship in the production package so the `verify` CLI can run fast-vs-
oracle equivalence end to end.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterator

from .graphs import SimpleGraph, pair_index
from .patterns import Pattern

HOST_LIMIT = 25
COPY_PATTERN_LIMIT = 6
SUBSET_SCAN_LIMIT = 20


def _adj_sets(g: SimpleGraph) -> list[set[int]]:
    return [set(g.neighbors(v)) for v in range(g.n)]


def _check_host(g: SimpleGraph) -> None:
    if g.n > HOST_LIMIT:
        raise ValueError(f"oracle host limit is {HOST_LIMIT} vertices, got {g.n}")


def _extensions(p: Pattern, adj: list[set[int]],
                img: dict[int, int]) -> Iterator[dict[int, int]]:
    """Yield every completion of the injective partial map ``img`` (pattern
    vertex -> host vertex) to a copy of ``p``: the unassigned pattern
    vertices are placed in index order, each on every unused host vertex
    adjacent to the images of its assigned pattern neighbours.  ``img`` is
    filled in place and each yielded map is valid until the generator
    resumes."""
    pv = next((w for w in range(p.n) if w not in img), None)
    if pv is None:
        yield img
        return
    nbr_imgs = [img[b] if a == pv else img[a] for a, b in p.edges
                if (a == pv and b in img) or (b == pv and a in img)]
    used = set(img.values())
    for hv in (adj[nbr_imgs[0]] if nbr_imgs else range(len(adj))):
        if hv in used or any(x not in adj[hv] for x in nbr_imgs):
            continue
        img[pv] = hv
        yield from _extensions(p, adj, img)
        del img[pv]


@lru_cache(maxsize=None)
def _automorphisms(p: Pattern) -> tuple[tuple[int, ...], ...]:
    """Aut(p) as vertex-image tuples: the copies of ``p`` in its own
    adjacency, since an injective homomorphism of a graph into itself is
    an automorphism."""
    return tuple(tuple(img[v] for v in range(p.n))
                 for img in _extensions(p, _adj_sets(p.to_graph()), {}))


@lru_cache(maxsize=None)
def _arc_orbit_reps(p: Pattern) -> tuple[tuple[int, int], ...]:
    """One ordered edge (arc) of ``p`` per orbit of Aut(p) on arcs."""
    auts = _automorphisms(p)
    reps, seen = [], set()
    for a, b in p.edges:
        for arc in ((a, b), (b, a)):
            if arc not in seen:
                reps.append(arc)
                seen.update((s[arc[0]], s[arc[1]]) for s in auts)
    return tuple(reps)


def _copies_through(p: Pattern, adj: list[set[int]],
                    u: int, v: int) -> Iterator[dict[int, int]]:
    """Every copy of ``p`` that uses the host edge {u,v}, found at least
    once: each orbit's representative arc in turn is the preimage of
    (u, v).  An embedding that maps some arc to (u, v), composed with an
    automorphism, is an embedding of the same copy that maps the arc's
    orbit representative to (u, v)."""
    for a, b in _arc_orbit_reps(p):
        yield from _extensions(p, adj, {a: u, b: v})


def naive_contains(p: Pattern, g: SimpleGraph) -> bool:
    """Definitional containment check (any copy, not anchored)."""
    _check_host(g)
    return next(_extensions(p, _adj_sets(g), {}), None) is not None


def naive_closed_set(g: SimpleGraph, p: Pattern) -> set[int]:
    """Pair ids of all non-edges whose addition would complete a copy of
    ``p`` through them (the definitional closed set)."""
    _check_host(g)
    adj = _adj_sets(g)
    closed = set()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if v in adj[u]:
                continue
            adj[u].add(v)
            adj[v].add(u)
            if next(_copies_through(p, adj, u, v), None) is not None:
                closed.add(pair_index(u, v, g.n))
            adj[u].remove(v)
            adj[v].remove(u)
    return closed


def naive_C_uv(g: SimpleGraph, p: Pattern, uv: tuple[int, int]) -> set[int]:
    """Pair ids xy (non-edges distinct from uv, themselves not closed) such
    that adding both uv and xy creates a copy of ``p`` using both."""
    _check_host(g)
    u, v = uv
    if g.has_edge(u, v):
        raise ValueError(f"pair ({u},{v}) is already an edge")
    closed = naive_closed_set(g, p)
    if pair_index(u, v, g.n) in closed:
        raise ValueError(f"pair ({u},{v}) is closed")
    adj = _adj_sets(g)
    adj[u].add(v)
    adj[v].add(u)
    out = set()
    for x in range(g.n):
        for y in range(x + 1, g.n):
            if y in adj[x] or pair_index(x, y, g.n) in closed:
                continue
            adj[x].add(y)
            adj[y].add(x)
            if any({img[a], img[b]} == {x, y}
                   for img in _copies_through(p, adj, u, v)
                   for a, b in p.edges):
                out.add(pair_index(x, y, g.n))
            adj[x].remove(y)
            adj[y].remove(x)
    return out


def naive_is_maximal_free(g: SimpleGraph, p: Pattern) -> bool:
    """True iff g has no copy of p and every non-edge addition creates one."""
    _check_host(g)
    if naive_contains(p, g):
        return False
    want = {pair_index(u, v, g.n)
            for u in range(g.n) for v in range(u + 1, g.n)
            if not g.has_edge(u, v)}
    return naive_closed_set(g, p) == want


def naive_max_density(g: SimpleGraph) -> tuple[Fraction, tuple[int, ...]]:
    """Exact max of e(A)/|A| by explicit enumeration of every subset, for
    hosts up to 20 vertices."""
    n = g.n
    if n == 0:
        raise ValueError("max density is undefined on a host with no vertices")
    if n > SUBSET_SCAN_LIMIT:
        raise ValueError(f"full subset scan limited to {SUBSET_SCAN_LIMIT} vertices")
    best = Fraction(0)
    best_wit = (0,)     # the first subset scanned; density 0
    for size in range(1, n + 1):
        for sub in combinations(range(n), size):
            dens = Fraction(g.induced_edge_count(sub), size)
            if dens > best or (dens == best and sub < best_wit):
                best, best_wit = dens, sub
    return best, best_wit


def naive_count_copies(p: Pattern, g: SimpleGraph) -> int:
    """Number of distinct copies of ``p`` in ``g``: labeled embeddings
    counted by fixed-order extension, divided by aut(p), the number of
    copies of ``p`` in itself."""
    _check_host(g)
    if p.n > COPY_PATTERN_LIMIT:
        raise ValueError(f"copy counting limited to patterns on {COPY_PATTERN_LIMIT} vertices")
    labeled = sum(1 for _ in _extensions(p, _adj_sets(g), {}))
    aut = len(_automorphisms(p))
    if labeled % aut:
        raise RuntimeError(
            f"{labeled} labeled copies of {p.name} is not a multiple of "
            f"aut = {aut}")
    return labeled // aut
