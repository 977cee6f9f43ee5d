"""Simple undirected graphs on vertex set {0, ..., n-1} backed by bitsets.

Adjacency is one Python int per vertex used as a bitmask, which gives
constant-time edge tests and cheap common-neighborhood intersections
(`adj[u] & adj[v]`).  Vertices are 0-based everywhere in code; text formats
and logs present them 1-based.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, TextIO


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


class SimpleGraph:
    """Mutable simple graph; supports edge insertion only (no deletion)."""

    __slots__ = ("n", "adj", "edge_count")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        self.n = n
        self.adj = [0] * n
        self.edge_count = 0

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool((self.adj[u] >> v) & 1)

    def add_edge(self, u: int, v: int) -> None:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"loop edge ({u},{v}) rejected")
        if (self.adj[u] >> v) & 1:
            raise ValueError(f"duplicate edge ({u},{v}) rejected")
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u
        self.edge_count += 1

    @property
    def degrees(self) -> list[int]:
        return [a.bit_count() for a in self.adj]

    def neighbors(self, v: int) -> Iterator[int]:
        self._check_vertex(v)
        return iter_bits(self.adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            mask = self.adj[u] >> (u + 1)
            while mask:
                lsb = mask & -mask
                yield (u, u + 1 + lsb.bit_length() - 1)
                mask ^= lsb

    def induced_edge_count(self, vertices: Iterable[int]) -> int:
        """e(A): number of edges with both endpoints in A."""
        mask = 0
        for v in vertices:
            self._check_vertex(v)
            mask |= 1 << v
        total = 0
        m = mask
        while m:
            lsb = m & -m
            total += (self.adj[lsb.bit_length() - 1] & mask).bit_count()
            m ^= lsb
        return total // 2

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, edges={self.edge_count})"


# ── unordered pair indexing ─────────────────────────────────────────────

def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(u: int, v: int, n: int) -> int:
    """Canonical index of the unordered pair {u,v} in [0, n(n-1)/2)."""
    if u == v:
        raise ValueError(f"pair must have distinct vertices, got ({u},{v})")
    if u > v:
        u, v = v, u
    if u < 0 or v >= n:
        raise ValueError(f"pair ({u},{v}) out of range for n={n}")
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def pair_from_index(pid: int, n: int) -> tuple[int, int]:
    """Inverse of pair_index; returns (u, v) with u < v.

    Closed form: counted back from the last id, m = n(n-1)/2 - 1 - pid,
    the last k rows hold the last T(k) = k(k+1)/2 ids.  So pid lies in row
    n - 2 - k for the largest k with T(k) <= m, which is
    k = (isqrt(8m + 1) - 1) // 2; integer isqrt makes this exact, with no
    rounding to correct."""
    npairs = pair_count(n)
    if not 0 <= pid < npairs:
        raise ValueError(f"pair id {pid} out of range for n={n}")
    m = npairs - 1 - pid
    k = (math.isqrt(8 * m + 1) - 1) // 2
    return (n - 2 - k, n - 1 - m + k * (k + 1) // 2)


def pair_row_offsets(n: int) -> list[int]:
    """off[u] such that pair_index(u, v, n) = off[u] + v - u - 1 for u < v."""
    return [u * (2 * n - u - 1) // 2 for u in range(n)]


# ── edge-list text format ───────────────────────────────────────────────
# One edge per line, "u v" 1-based; '#'-prefixed comment lines ignored.
# Writers emit a "# n = <count>" comment so graphs with trailing isolated
# vertices survive a round trip; readers fall back to the max vertex label
# without one, and reject a label above it.

def write_edge_list(g: SimpleGraph, fh: TextIO) -> None:
    fh.write(f"# n = {g.n}\n")
    for u, v in g.edges():
        fh.write(f"{u + 1} {v + 1}\n")


def read_edge_list(fh: TextIO) -> SimpleGraph:
    """Parse the edge-list format; an error names its line, 1-based."""
    masks: dict[int, int] = {}      # label -> bitmask of neighbour labels
    n_hint = None
    max_label = 0
    for lineno, line in enumerate(fh, 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].replace("=", " ").split()
            if len(body) == 2 and body[0] == "n" and body[1].isdigit():
                n_hint = int(body[1])
            continue
        try:
            u, v = map(int, line.split())
        except ValueError:
            raise ValueError(f"line {lineno} ({line!r}): expected two integer "
                             f"labels 'u v'") from None
        mu = masks.get(u, 0)
        if u < 1 or v < 1 or u == v or (mu >> v) & 1:
            why = ("vertices are 1-based" if u < 1 or v < 1 else
                   "loop edge rejected" if u == v else "duplicate edge rejected")
            raise ValueError(f"line {lineno} ({line!r}): {why}")
        masks[u] = mu | 1 << v
        masks[v] = masks.get(v, 0) | 1 << u
        if u > max_label or v > max_label:
            max_label, label_line = max(u, v), f"line {lineno} ({line!r})"
    if n_hint is not None and max_label > n_hint:
        raise ValueError(f"{label_line} exceeds the header's n = {n_hint}")
    g = SimpleGraph(max(n_hint or 0, max_label, 1))
    for u, m in masks.items():
        g.adj[u - 1] = m >> 1
    g.edge_count = sum(m.bit_count() for m in masks.values()) // 2
    return g
