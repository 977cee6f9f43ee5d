"""Density-workload hosts and output predicates, independent of hfree.

The hosts are made by the random-order greedy H-free process: shuffle all
vertex pairs, then add each pair whose addition closes no copy of H.  Its
final graph has the same law as the H-free process run to exhaustion, but
none of its code is shared with hfree, so a change to hfree's engine or RNG
cannot change a density workload's input.  Stdlib only.

Graphs are lists of Python-int bitmasks, one per vertex (0-based).
"""

from __future__ import annotations

import random
from array import array

PATTERNS = ("C3", "C4")


def closes_copy(adj: list[int], u: int, v: int, pattern: str) -> bool:
    """Would adding the non-edge uv create a copy of the pattern?"""
    if pattern == "C3":
        return bool(adj[u] & adj[v])
    if pattern == "C4":
        # a path u-w-x-v with four distinct vertices
        au, av = adj[u], adj[v] & ~(1 << u)
        while au:
            lsb = au & -au
            if adj[lsb.bit_length() - 1] & av:
                return True
            au ^= lsb
        return False
    raise ValueError(f"unsupported pattern {pattern!r} (expected one of {PATTERNS})")


def greedy_free_graph(n: int, pattern: str, seed: int) -> list[int]:
    """Maximal pattern-free graph from the random-order greedy process."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    pairs = array("I", (u * n + v for u in range(n) for v in range(u + 1, n)))
    random.Random(seed).shuffle(pairs)
    adj = [0] * n
    for code in pairs:
        u, v = divmod(code, n)
        if not closes_copy(adj, u, v, pattern):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


def edges(adj: list[int]) -> list[tuple[int, int]]:
    """All edges (u, v), u < v, in lexicographic order."""
    out = []
    for u, mask in enumerate(adj):
        mask >>= u + 1
        while mask:
            lsb = mask & -mask
            out.append((u, u + lsb.bit_length()))
            mask ^= lsb
    return out


def write_edge_list(adj: list[int], path: str) -> None:
    """1-based 'u v' lines after a '# n = <count>' header."""
    lines = [f"# n = {len(adj)}\n"]
    lines += [f"{u + 1} {v + 1}\n" for u, v in edges(adj)]
    with open(path, "w") as fh:
        fh.writelines(lines)


def read_edge_list(path: str) -> list[int]:
    """Inverse of write_edge_list; also reads hfree's edge-list files."""
    n = 0
    pairs = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                body = line[1:].replace("=", " ").split()
                if len(body) == 2 and body[0] == "n":
                    n = max(n, int(body[1]))
            elif line:
                u, v = (int(tok) - 1 for tok in line.split())
                if u == v or min(u, v) < 0:
                    raise ValueError(f"{path}: bad edge line {line!r}")
                pairs.append((u, v))
                n = max(n, u + 1, v + 1)
    adj = [0] * n
    for u, v in pairs:
        if adj[u] >> v & 1:
            raise ValueError(f"{path}: duplicate edge {u + 1} {v + 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def is_free(adj: list[int], pattern: str) -> bool:
    """No copy of the pattern: for C3 no edge has a common neighbour, for C4
    no two vertices have two common neighbours."""
    n = len(adj)
    if pattern == "C3":
        return all(not (adj[u] & adj[v]) for u, v in edges(adj))
    if pattern == "C4":
        return all((adj[u] & adj[v]).bit_count() <= 1
                   for u in range(n) for v in range(u + 1, n))
    raise ValueError(f"unsupported pattern {pattern!r} (expected one of {PATTERNS})")


def is_maximal_free(adj: list[int], pattern: str) -> bool:
    """Pattern-free, and every non-edge would close a copy."""
    n = len(adj)
    return is_free(adj, pattern) and all(
        closes_copy(adj, u, v, pattern)
        for u in range(n) for v in range(u + 1, n) if not adj[u] >> v & 1)


def has_biclique(adj: list[int], s: int) -> bool:
    """Does the graph contain K_{s,s}: s vertices with s common neighbours?"""
    def grow(common: int, cands: list[int], need: int) -> bool:
        if need == 0:
            return True
        for i, v in enumerate(cands):
            narrowed = common & adj[v]
            if narrowed.bit_count() < s:
                continue
            rest = [w for w in cands[i + 1:] if (adj[w] & narrowed).bit_count() >= s]
            if len(rest) >= need - 1 and grow(narrowed, rest, need - 1):
                return True
        return False

    n = len(adj)
    return any(grow(adj[u], [v for v in range(u + 1, n)
                             if (adj[u] & adj[v]).bit_count() >= s], s - 1)
               for u in range(n))


def induced_edges(adj: list[int], vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return sum((adj[v] & mask).bit_count() for v in set(vertices)) // 2
