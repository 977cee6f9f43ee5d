"""Size-bounded densest-subgraph search.

`bounded_density_scan` is the one entry point.  Both modes build the warm
record, the best edge count found per size; heuristic mode reports it as a
flagged lower bound, and exact mode raises every size to its proven
maximum, which proves max e(A)/|A| over vertex sets of size at most k.

Warm start: a beam search over complete-bipartite pockets, then randomized
greedy growths with swaps.  Both count for every row at once with bit
planes (`_plane_add`, `_plane_ge`): bit w of plane i is bit i of row w's
count of neighbours in a set, kept by a ripple carry.  In triangle-free
hosts the pockets often reach the ceiling outright.

Anchor pass: in a triangle-free host any sigma-set above the non-bipartite
ceiling floor((sigma-1)^2/4) + 1 induces a bipartite graph with enough
rows complete to its right side that one pass over tuples of those rows,
anchored on their common neighbourhood, settles every size at once.  Its
partner table reads codegrees from the same bit planes.

Branch and bound: the maximum ratio is attained on a connected set
(splitting a disconnected set cannot increase it), so each size left open
gets the exact maximum edge count over connected sigma-sets, rooted in
degeneracy-rank order; the host is ranked once, when a size first needs a
node.  The bound for a partial set A with room for r more vertices is

    e(A) + (sum of the r largest edge-counts into A over frontier
    candidates) + UB(r)

where UB(r) is a sound upper bound on the edges among any r host vertices,
derived from the already-settled smaller sizes plus a host-level ceiling:
Mantel's s^2/4 when the host is verified triangle-free, and, when the scan
is given the forbidden pattern H, the extremal number ex(s, H) for s <= 7
from a small table.  The table is used only after a copy search shows
the host is H-free (`contains_biclique` for C4, K2,3 and K3,3, else
`contains_copy`), so a host that holds a copy is scanned exactly as
without the pattern.  The rows are the maxima over all graphs on s
vertices in the networkx graph atlas, and the tests recompute every entry.

The report records, per size, which stage proved the maximum: the warm
start, the anchor pass or branch-and-bound.  The paper's check e(A) < c|A|
is one comparison on it (`hfree density --threshold`); with the derived
constants it covers only |A| <= `theory.Constants.size_limit`, which is 1.
"""

from __future__ import annotations

import heapq
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .graphs import SimpleGraph, iter_bits
from .patterns import Pattern, contains_copy, parse_pattern

EXACT_CAP_LIMIT = 12
POCKET_BEAM = 6          # children kept per pocket in the warm start's beam
WARM_RESTARTS = 24       # randomized greedy growths after the pockets

# ex(s, H) for s = 1..7: the most edges on s vertices without a copy of H,
# taken over every graph in the networkx graph atlas (all graphs on at most
# 7 vertices).  C3 has no row: Mantel's bound comes from is_triangle_free.
EXTREMAL_ROWS = {
    "C4": (0, 1, 3, 4, 6, 7, 9),
    "C5": (0, 1, 3, 6, 7, 9, 12),
    "K4": (0, 1, 3, 5, 8, 12, 16),
    "K2,3": (0, 1, 3, 6, 7, 10, 12),
    "K3,3": (0, 1, 3, 6, 10, 12, 16),
}


class SearchBudgetExceeded(RuntimeError):
    """Raised when an exact scan exceeds its node budget; the scan never
    silently degrades to an approximation."""


@dataclass
class DensityReport:
    size_cap: int
    density: Fraction
    witness: tuple[int, ...]
    method: str                     # "exact-branch-and-bound" | "local-search-heuristic"
    optimal: bool                   # proof of optimality flag
    nodes_explored: int = 0
    max_edges_by_size: dict = field(default_factory=dict)
    # per size: which stage proved the max ("warm" | "anchor" | "bnb"), and
    # the branch-and-bound nodes spent on it
    settled_by: dict[int, str] = field(default_factory=dict)
    nodes_by_size: dict[int, int] = field(default_factory=dict)
    # budget units of the anchor pass (anchor tuples and row sets); a node
    # budget covers nodes_explored + anchor_units.  None of the last three
    # fields goes into as_row().
    anchor_units: int = 0

    def as_row(self) -> dict:
        return {
            "size_cap": self.size_cap,
            "density": str(self.density),
            "density_float": float(self.density),
            "witness": " ".join(str(v + 1) for v in self.witness),
            "method": self.method,
            "optimal": int(self.optimal),
            "nodes": self.nodes_explored,
        }


# ── host-level ceilings ──────────────────────────────────────────────────

def is_triangle_free(g: SimpleGraph) -> bool:
    adj = g.adj
    for u in range(g.n):
        mu = adj[u]
        for v in iter_bits(mu):
            if v > u and mu & adj[v]:
                return False
    return True


def extremal_row(p: Pattern) -> Optional[tuple[int, ...]]:
    """ex(s, p) for s = 1..7 from EXTREMAL_ROWS, or None without a row.  A
    row matches by isomorphism: same vertex and edge counts, and the row's
    pattern embeds in p."""
    g = p.to_graph()
    for spec, row in EXTREMAL_ROWS.items():
        q = parse_pattern(spec)
        if q.n == p.n and q.edge_count == p.edge_count and contains_copy(q, g):
            return row
    return None


def biclique_sides(p: Pattern) -> Optional[tuple[int, int]]:
    """(s, t) when p is K_{s,t} (vertex 0's neighbours on one side, all
    the rest on the other) with 2 <= s <= t <= s + 1, else None; a larger
    t would add the jobs of more balanced splits of s + t."""
    right = p.adj[0]
    left = ((1 << p.n) - 1) & ~right
    if any(a != (left if right >> v & 1 else right) for v, a in enumerate(p.adj)):
        return None
    s, t = sorted((left.bit_count(), right.bit_count()))
    return (s, t) if 2 <= s <= t <= s + 1 else None


def contains_biclique(g: SimpleGraph, s: int, t: int) -> bool:
    """Whether g has a K_{s,t} subgraph, (s, t) from biclique_sides: the
    anchor pass's (s, t) job with M = 0, alone, on any host; no budget."""
    return s + t in _bipartite_above_floors(g, {s + t: s * t - 1})


# ── warm starts ──────────────────────────────────────────────────────────

def _plane_add(planes: list[int], adj: list[int], rows: int) -> list[int]:
    """Add adj[c] for every c in rows into the bit planes and return them:
    bit w of planes[i] is bit i of row w's count, |N(w) & rows| when the
    planes start empty, kept by a ripple carry."""
    while rows:
        lsb = rows & -rows
        x = adj[lsb.bit_length() - 1]
        rows ^= lsb
        for i, p in enumerate(planes):
            planes[i] = p ^ x
            x &= p
            if not x:
                break
        else:
            planes.append(x)
    return planes


def _plane_ge(planes: list[int], k: int) -> int:
    """The rows whose bit-sliced count is at least k (every row, as -1,
    when k is 0), by a comparison from the top plane down."""
    if k.bit_length() > len(planes):
        return 0
    above, equal = 0, -1
    for i in range(len(planes) - 1, -1, -1):
        if k >> i & 1:
            equal &= planes[i]
        else:
            above |= equal & planes[i]
    return above | equal


def bipartite_pocket_warm(g: SimpleGraph, cap: int,
                          ) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Beam search for complete-bipartite pockets K_{s,t}; returns, per
    total size sigma <= cap, the best (s*t, witness) found.  A lower bound
    on the true max edge count at each size.

    A beam entry is a left side, its common neighbourhood C and a pool
    bitmask of rows that may qualify (at least two neighbours in C).  C
    only shrinks down the beam, so a child's pool is its parent's
    qualifying set.  An entry counts |N(w) & C| for every row w at once:
    adding adj[c] for each c in C into bit planes with a ripple carry
    leaves bit i of that count in bit w of plane i.  The qualifying rows
    are the pool rows with a count of at least two, and the children are
    the POCKET_BEAM of them with the highest count, ties to the highest
    row, found by a descent over the planes.

    An entry with s left rows is dead when |C| < live[s] = min(need[s+1:]):
    C only shrinks down the beam and need never falls, so no descendant
    can offer.  Dead entries are dropped when appended and skipped when
    processed.  An entry still live when its level ends has |C| above every
    dropped one, so it sorts ahead of them; the beam processes the same
    live entries in the same order and makes the same offers."""
    n = g.n
    adj = g.adj
    best: dict[int, tuple[int, tuple[int, ...]]] = {}
    top_e = [0] * (cap + 1)         # best[sigma][0], 0 while unset
    need = [1] * cap + [n]          # least |common| at which s rows better top_e
    live = [1] * (cap - 1) + [n]    # live[s] = min(need[s + 1:])

    def offer(left: list[int], common: int, size: int) -> None:
        s = len(left)
        tmax = min(size, cap - s)
        rs = []
        m = common
        while len(rs) < tmax:
            lsb = m & -m
            rs.append(lsb.bit_length() - 1)
            m ^= lsb
        for t in range(1, tmax + 1):
            if s * t > top_e[s + t]:
                top_e[s + t] = s * t
                best[s + t] = (s * t, tuple(sorted(left + rs[:t])))
        for r in range(1, cap):
            need[r] = next((t for t in range(1, cap - r + 1) if r * t > top_e[r + t]), n)
        live[:] = [min(need[r + 1:]) for r in range(cap)]

    for u in range(n):
        au = adj[u]
        size = au.bit_count()
        if size >= need[1]:
            offer([u], au, size)
        two_hop = 0
        for c in iter_bits(au):
            two_hop |= adj[c]
        # (left, common, |common|, pool)
        frontier = [([u], au, size, two_hop & ~(1 << u))]
        for _ in range(min(cap - 1, 5) - 1):
            nxt = []
            for left, common, size, pool in frontier:
                if size < max(2, live[len(left)]):
                    continue
                planes = _plane_add([], adj, common)
                qual = _plane_ge(planes, 2) & pool & ~(1 << left[-1])
                rest = qual
                room = POCKET_BEAM
                while rest and room:
                    top = rest
                    for p in reversed(planes):
                        if top & p:
                            top &= p
                    rest ^= top
                    while top and room:
                        w = top.bit_length() - 1
                        top ^= 1 << w
                        room -= 1
                        left2 = left + [w]
                        com2 = common & adj[w]
                        size2 = com2.bit_count()
                        if size2 >= need[len(left2)]:
                            offer(left2, com2, size2)
                        if size2 >= live[len(left2)]:
                            nxt.append((left2, com2, size2, qual))
            # every left side in nxt has the same length, so |common| alone
            # orders the entries by the edge count of their full pocket
            nxt.sort(key=lambda it: -it[2])
            frontier = nxt[: POCKET_BEAM * 2]
    return best


def _greedy_grow(g: SimpleGraph, cap: int, rng: random.Random,
                 record: dict[int, tuple[int, tuple[int, ...]]]) -> None:
    """One randomized greedy growth to size cap, recording the best edge
    count seen at every size, followed by swap sweeps at the final size.
    Bit planes hold |N(w) & cur| for every row w, one add per grown vertex:
    the max-gain rows come from a descent over them, and a swap partner
    for v is the lowest row outside cur whose count without v beats v's."""
    n = g.n
    adj = g.adj
    start = rng.randrange(n)
    cur = [start]
    cur_mask = 1 << start
    planes = _plane_add([], adj, cur_mask)
    e = 0

    def offer(size: int, edges: int, mask: int) -> None:
        if edges > record.get(size, (-1, ()))[0]:
            record[size] = (edges, tuple(iter_bits(mask)))

    offer(1, 0, cur_mask)
    while len(cur) < min(cap, n):
        top = _plane_ge(planes, 1) & ~cur_mask
        if not top:
            break
        for p in reversed(planes):
            if top & p:
                top &= p
        w = rng.choice(list(iter_bits(top)))
        e += (adj[w] & cur_mask).bit_count()
        cur.append(w)
        cur_mask |= 1 << w
        _plane_add(planes, adj, 1 << w)
        offer(len(cur), e, cur_mask)
    # swap sweeps at the final size
    for _ in range(2):
        for v in cur:
            loss = (adj[v] & cur_mask).bit_count()
            # counts without v: a row on N(v) needs loss + 2 in the planes
            av = adj[v]
            up = (_plane_ge(planes, loss + 1) & ~av
                  | _plane_ge(planes, loss + 2) & av) & ~cur_mask
            if up:
                w = (up & -up).bit_length() - 1
                cur.remove(v)
                cur.append(w)
                cur_mask ^= 1 << v | 1 << w
                e += (adj[w] & cur_mask).bit_count() - loss
                offer(len(cur), e, cur_mask)
                planes = _plane_add([], adj, cur_mask)
                break
        else:
            break


def local_search_warm(g: SimpleGraph, cap: int, seed: int = 0,
                      ) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Best edge count per size from pockets + randomized greedy restarts."""
    record = bipartite_pocket_warm(g, cap)
    record.setdefault(1, (0, (0,)))
    rng = random.Random(seed)
    for _ in range(WARM_RESTARTS):
        _greedy_grow(g, cap, rng, record)
    return record


# ── exact engine ─────────────────────────────────────────────────────────

def _nonbipartite_ceiling(sigma: int) -> int:
    """Max edges of a non-bipartite triangle-free graph on sigma vertices:
    floor((sigma-1)^2/4) + 1 for sigma >= 5 (odd cycles need 5 vertices, so
    smaller sets are always bipartite)."""
    if sigma < 5:
        return 0
    return (sigma - 1) ** 2 // 4 + 1


def _bipartite_above_floors(g: SimpleGraph, floors: dict[int, int],
                            budget: Optional[list[int]] = None,
                            ) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Exact max over sigma-sets whose induced graph is bipartite with more
    than floors[sigma] edges, for triangle-free hosts with each floor at
    least the non-bipartite ceiling.  Returns {sigma: (edges, witness)} for
    the sigmas where an improvement over the floor exists.  When every job
    has M = 0 (below) neither condition is needed: C never meets the
    anchors, so an anchor tuple with |C| >= t is a K_{s,t} subgraph on any
    host, which is how `contains_biclique` uses it.

    Soundness: a bipartition (L, R), |L| = s <= |R| = t, with e > floor
    misses at most M = s*t - floor - 1 of its s*t cross slots, so at least
    r = s - M rows of L are complete to R, and R lies in their common
    neighbourhood.  The floor precondition makes M <= s - 2, so r >= 2.
    Each (sigma, s, t) job therefore enumerates increasing r-tuples of
    anchor rows, grown by nested intersection of neighbourhoods and cut as
    soon as the common neighbourhood C has fewer than t members.  Any two
    anchors have codegree >= t, so the next anchor always comes from the
    partner table, built once for all jobs: for each u, the v > u with
    codeg(u, v) >= the smallest t of any job, read from bit planes over
    N(u).  For M = 0 an anchor tuple with |C| >= t is a K_{s,t} outright,
    and the job ends at the lexicographically first one, T, with the t
    least members of C as its right side.  When also s = t, the first
    anchor's C keeps only vertices above it, and the job still ends at T:
    were some member of C below min T, the s least members of C would be
    an earlier tuple with T in their common neighbourhood.  For M > 0 the
    M remaining rows are picked among candidates whose common-neighbourhood
    weight can still cover the required contribution (a prefix-prunable
    condition); given the full left side, the best R is exactly the top-t
    members of C by left-degree.

    A job fixes r from the best value when it starts.  This stays sound as
    best rises during the job: an improving configuration then misses
    fewer slots, so it has at least as many complete rows, and any r of
    them form an anchor tuple the job visits.  Every reported value is the
    cross-edge count of a genuine vertex set, so the maxima are exact.
    Each evaluated anchor tuple or row set takes one unit of budget.
    """
    n = g.n
    adj = g.adj
    best = dict(floors)
    wits: dict[int, tuple[int, ...]] = {}
    jobs: list[tuple[int, int, int]] = []   # (sigma, s, t)
    for sigma, floor in floors.items():
        for s in range(2, sigma // 2 + 1):
            t = sigma - s
            if s * t <= floor:
                continue
            if s * t - (floor + 1) > s - 2:
                raise SearchBudgetExceeded(
                    f"bipartite anchor precondition violated at sigma={sigma}"
                    f" split ({s},{t}) floor {floor}")
            jobs.append((sigma, s, t))
    if not jobs:
        return wits
    min_t = min(t for _, _, t in jobs)

    # partners[u]: bit v set iff v > u and codeg(u, v) >= min_t
    partners = [_plane_ge(_plane_add([], adj, adj[u]), min_t) & -2 << u
                for u in range(n)]

    deg = [a.bit_count() for a in adj]

    def tick(sigma: int) -> None:
        if budget is not None:
            budget[0] -= 1
            if budget[0] < 0:
                raise SearchBudgetExceeded(
                    f"node budget exhausted in bipartite scan at sigma={sigma}")

    for sigma, s, t in jobs:
        if s * t <= best[sigma]:
            continue
        extra = s * t - best[sigma] - 1     # M, fixed for this job
        r = s - extra

        def settle(anchors: list[int], common: int) -> bool:
            """Best completion of one anchor tuple; True ends the job."""
            tick(sigma)
            if extra == 0:
                rverts = []
                m = common
                while len(rverts) < t:
                    lsb = m & -m
                    rverts.append(lsb.bit_length() - 1)
                    m ^= lsb
                best[sigma] = s * t
                wits[sigma] = tuple(sorted(anchors + rverts))
                return True
            codeg = common.bit_count()
            base = r * t
            anchor_mask = 0
            for a in anchors:
                anchor_mask |= 1 << a
            need = best[sigma] + 1 - base   # extra rows must supply this
            # the strongest row has |N(w) & C| >= ceil(need/extra); such
            # rows live in the union of codeg - ceil(need/extra) + 1
            # lowest-degree members of C, so a lean scan over that
            # shrunk pool bounds the top row counts (rows outside it
            # count below the threshold and are padded in)
            x1 = max(1, min(t, -(-need // extra)))
            members = sorted(iter_bits(common), key=lambda c: deg[c])
            pool_mask = 0
            for c in members[: codeg - x1 + 1]:
                pool_mask |= adj[c]
            pool_mask &= ~anchor_mask
            tops = [0] * extra
            m = pool_mask
            while m:
                lsb = m & -m
                w = lsb.bit_length() - 1
                m ^= lsb
                c_w = (adj[w] & common).bit_count()
                if c_w > tops[-1]:
                    tops[-1] = c_w
                    tops.sort(reverse=True)
            pad = x1 - 1
            capped = []
            ti = 0
            for _ in range(extra):
                if ti < len(tops) and tops[ti] >= pad:
                    capped.append(min(tops[ti], t))
                    ti += 1
                else:
                    capped.append(min(pad, t))
            if base + sum(capped) <= best[sigma]:
                return False
            pool_mask = 0
            for c in members:
                pool_mask |= adj[c]
            pool_mask &= ~anchor_mask
            cnts = sorted((((adj[w] & common).bit_count(), w)
                           for w in iter_bits(pool_mask)), reverse=True)
            if base + sum(min(c, t) for c, _ in cnts[:extra]) <= best[sigma]:
                return False
            # enumerate the extra-row sets among candidates with enough
            # common-neighborhood weight; given the rows, the best R is
            # simply the top-t common neighbors scored against the full
            # left side, so no R enumeration is needed
            w_min = max(1, need - (extra - 1) * t)
            cand = [(c_w, w) for c_w, w in cnts if c_w >= w_min]

            def eval_rows(rows: list[int]) -> None:
                tick(sigma)
                lmask = anchor_mask
                for w in rows:
                    lmask |= 1 << w
                rowset = set(rows)
                scores = sorted(((adj[c] & lmask).bit_count(), c)
                                for c in members if c not in rowset)
                if len(scores) < t:
                    return
                top = scores[-t:]
                cross = sum(sc for sc, _ in top)
                if cross > best[sigma]:
                    best[sigma] = cross
                    wits[sigma] = tuple(sorted(
                        anchors + rows + [c for _, c in top]))

            def pick_rows(start: int, rows: list[int], have: int) -> None:
                if len(rows) == extra:
                    eval_rows(rows)
                    return
                slots = extra - len(rows)
                for i in range(start, len(cand) - slots + 1):
                    c_w, w = cand[i]
                    # prefix bound: this row plus best-case later rows
                    rest = sum(min(c2, t) for c2, _ in cand[i + 1:i + slots])
                    if have + min(c_w, t) + rest < best[sigma] + 1 - base:
                        break  # cand sorted desc: later rows only weaker
                    pick_rows(i + 1, rows + [w], have + min(c_w, t))

            pick_rows(0, [], 0)
            return s * t <= best[sigma]

        def grow(anchors: list[int], common: int, nxt: int) -> bool:
            """Extend an anchor tuple by partners above its last member;
            True ends the job."""
            if len(anchors) == r:
                return settle(anchors, common)
            if len(anchors) > 1 and nxt:
                # keep the candidates adjacent to >= t members of C;
                # within[j]: those missing at most j of the members seen.
                # A single anchor's C is its whole neighbourhood, too big
                # for this; its partners already have codegree >= min_t.
                slack = common.bit_count() - t
                within = [nxt] * (slack + 1)
                down = range(slack, 0, -1)
                m = common
                while m:
                    lsb = m & -m
                    x = adj[lsb.bit_length() - 1]
                    m ^= lsb
                    for j in down:
                        within[j] = (within[j] & x) | within[j - 1]
                    within[0] &= x
                nxt = within[slack]
            while nxt:
                lsb = nxt & -nxt
                v = lsb.bit_length() - 1
                nxt ^= lsb
                com2 = common & adj[v]
                if com2.bit_count() >= t and grow(
                        anchors + [v], com2, nxt & partners[v]):
                    return True
            return False

        for u in range(n):
            common = adj[u]
            if extra == 0 and s == t:
                common &= -2 << u       # one-sided: see the docstring
            if common.bit_count() >= t and grow([u], common, partners[u]):
                break
    return {sigma: (best[sigma], wits[sigma]) for sigma in wits}


def _degeneracy_rank(g: SimpleGraph) -> list[int]:
    """Peel order rank; high rank = removed late = denser core."""
    n = g.n
    adj = g.adj
    deg = [a.bit_count() for a in adj]
    removed = [False] * n
    heap = [(deg[u], u) for u in range(n)]
    heapq.heapify(heap)
    rank = [0] * n
    i = 0
    while heap:
        du, u = heapq.heappop(heap)
        if removed[u] or du != deg[u]:
            continue
        removed[u] = True
        rank[u] = i
        i += 1
        for w in iter_bits(adj[u]):
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return rank


def _max_edges_connected(g: SimpleGraph, sigma: int, warm_e: int,
                         warm_wit: tuple[int, ...], ub_small: list[int],
                         ceiling: int, rank: Optional[list[int]], budget: list[int],
                         ) -> tuple[int, tuple[int, ...], int]:
    """Exact max edge count over connected sigma-sets (>= warm), with the
    warm witness kept when nothing beats it.  Returns (e, witness, nodes)."""
    n = g.n
    adj = g.adj
    best = warm_e
    best_wit = warm_wit
    nodes = 0
    if best >= ceiling:
        return best, best_wit, nodes
    roots = sorted(range(n), key=lambda u: -rank[u])

    def extend(cur: list[int], cur_mask: int, e_cur: int,
               ext: list[int], root_rank: int) -> bool:
        nonlocal best, best_wit, nodes
        nodes += 1
        budget[0] -= 1
        if budget[0] < 0:
            raise SearchBudgetExceeded(f"node budget exhausted at size {sigma}")
        a = len(cur)
        if a == sigma:
            if e_cur > best:
                best, best_wit = e_cur, tuple(sorted(cur))
                return best >= ceiling
            return False
        rem = sigma - a
        scored = sorted((((adj[v] & cur_mask).bit_count(), v) for v in ext),
                        reverse=True)
        ub = e_cur + sum(t for t, _ in scored[:rem]) + ub_small[rem]
        if ub <= best:
            return False
        ext_mask = 0
        for v in ext:
            ext_mask |= 1 << v
        forbidden = 0
        for idx, (t_v, v) in enumerate(scored):
            vb = 1 << v
            fresh = adj[v] & ~cur_mask & ~ext_mask & ~forbidden & ~vb
            new_ext = [w for _, w in scored[idx + 1:]]
            for w in iter_bits(fresh):
                if rank[w] > root_rank:
                    new_ext.append(w)
            cur.append(v)
            hit = extend(cur, cur_mask | vb, e_cur + t_v, new_ext, root_rank)
            cur.pop()
            if hit:
                return True
            forbidden |= vb
        return False

    for u in roots:
        ext0 = [w for w in iter_bits(adj[u]) if rank[w] > rank[u]]
        if extend([u], 1 << u, 0, ext0, rank[u]):
            break
    return best, best_wit, nodes


def _check_witness(g: SimpleGraph, density: Fraction,
                   witness: tuple[int, ...]) -> None:
    """Raise unless the witness induces exactly density * |witness| edges."""
    got = g.induced_edge_count(witness)
    if got != density * len(witness):
        raise RuntimeError(
            f"density witness {witness} induces {got} edges, not "
            f"{density} * {len(witness)}")


def bounded_density_scan(g: SimpleGraph, k: int, mode: str = "exact",
                         node_budget: Optional[int] = None,
                         seed: int = 0,
                         pattern: Optional[Pattern] = None) -> DensityReport:
    """Max of e(A)/|A| over |A| <= k, with a witness.  Both modes start
    from the warm record, the best edge count found per size.  Heuristic
    mode (any k) reports the record's best ratio, a lower bound.  Exact
    mode (k <= 12) first raises every size to its proven maximum; it raises
    SearchBudgetExceeded if a node budget is given and the proof would need
    more search.  The budget covers the report's nodes_explored +
    anchor_units, so that sum always suffices.  With the forbidden
    ``pattern`` of an H-free host, each exact size s <= 7 is also capped at
    ex(s, H) where EXTREMAL_ROWS has H."""
    if k < 1:
        raise ValueError("size cap must be >= 1")
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"unknown mode {mode!r} (expected 'exact' or 'heuristic')")
    exact = mode == "exact"
    if exact and k > EXACT_CAP_LIMIT:
        raise ValueError(f"exact mode limited to caps <= {EXACT_CAP_LIMIT}")
    cap = min(k, g.n)
    record = local_search_warm(g, cap, seed=seed)
    proof = {}
    if exact:
        # raise every size of the warm record to its proven maximum
        tri_free = is_triangle_free(g)
        ceiling = [s * s // 4 if tri_free else s * (s - 1) // 2 for s in range(cap + 1)]
        ex_row = extremal_row(pattern) if pattern is not None else None
        # ex(s, H) bounds only H-free hosts; the copy search runs only when
        # some row entry up to the cap is below the default ceiling
        if ex_row and any(map(int.__lt__, ex_row, ceiling[1:])):
            sides = biclique_sides(pattern)
            if not (contains_biclique(g, *sides) if sides else contains_copy(pattern, g)):
                ceiling[1:len(ex_row) + 1] = map(min, ceiling[1:], ex_row)

        rank = None     # ranked once, when branch-and-bound first has work
        # anchor units and B&B nodes draw on one budget; without a node budget
        # it only counts
        budget = [sys.maxsize if node_budget is None else node_budget]

        settled_by = {1: "warm"}
        nodes_by_size = {1: 0}
        ub_small = [0, 0]  # UB(r): sound upper bound on edges among any r vertices
        total_nodes = 0
        anchor_units = 0
        bip_results: dict[int, tuple[int, tuple[int, ...]]] = {}
        if tri_free and cap >= 5:
            # any set beating the non-bipartite ceiling induces a bipartite
            # graph, which one anchored pass settles exactly for every size
            floors = {sigma: max(_nonbipartite_ceiling(sigma),
                                 record.get(sigma, (0, ()))[0])
                      for sigma in range(5, cap + 1)}
            left = budget[0]
            bip_results = _bipartite_above_floors(g, floors, budget)
            anchor_units = left - budget[0]
        for sigma in range(2, cap + 1):
            we, ww = record.get(sigma, (0, ()))
            nb = _nonbipartite_ceiling(sigma)
            e, wit = we, ww
            nodes = 0
            settled = None
            if tri_free and sigma >= 5:
                if sigma in bip_results:
                    e, wit = bip_results[sigma]
                    settled = "anchor"      # improvements above nb are bipartite-only
                elif we > nb:
                    settled = "warm"        # warm witness already proven maximal
            if settled is None:
                caps = [ceiling[sigma], ub_small[sigma - 1] + sigma - 1]
                if tri_free and sigma >= 5:
                    caps.append(nb)  # bipartite range already ruled out above
                if rank is None and we < min(caps):
                    rank = _degeneracy_rank(g)
                e, wit, nodes = _max_edges_connected(
                    g, sigma, we, ww, ub_small, min(caps), rank, budget)
                total_nodes += nodes
                # no node at all: the warm start already reached the cap
                settled = "bnb" if nodes else "warm"
            settled_by[sigma] = settled
            nodes_by_size[sigma] = nodes
            record[sigma] = (e, wit)
            ub = max(e, max((ub_small[j] + ub_small[sigma - j]
                             for j in range(1, sigma)), default=0))
            ub_small.append(min(ub, ceiling[sigma]))
        proof = dict(nodes_explored=total_nodes,
                     max_edges_by_size={s: record[s][0] for s in sorted(record)},
                     settled_by=settled_by, nodes_by_size=nodes_by_size,
                     anchor_units=anchor_units)
    best, wit = Fraction(0), (0,)
    for size in sorted(record):
        e, w = record[size]
        dens = Fraction(e, size)
        if dens > best:
            best, wit = dens, w
    _check_witness(g, best, wit)
    return DensityReport(
        size_cap=k, density=best, witness=wit,
        method="exact-branch-and-bound" if exact else "local-search-heuristic",
        optimal=exact, **proof)

