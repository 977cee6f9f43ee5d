"""Fixed pattern graphs: parsing, automorphisms, density functionals,
embedding enumeration and closure templates.

A Pattern is an immutable small graph used either as the forbidden graph of
the constrained process (must be connected and strictly 2-balanced) or as a
target subgraph for counting (arbitrary simple graph).  All densities are
exact `Fraction`s so strict inequalities are never blurred by floats.
Automorphisms are the embeddings of a pattern into its own graph, so the
one plan executor, ``_run_plan``, answers every search question here.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Optional, Sequence

from .graphs import SimpleGraph, iter_bits

AUT_VERTEX_LIMIT = 16          # exact automorphism counting regime
BALANCE_VERTEX_LIMIT = 12      # subgraph enumeration regime
AUT_LIST_LIMIT = 500_000       # max automorphisms we are willing to list


class Pattern:
    """Immutable simple graph on vertices {0..n-1} with cached invariants."""

    def __init__(self, n: int, edges: Sequence[tuple[int, int]], name: str = ""):
        if n < 1:
            raise ValueError("pattern needs at least one vertex")
        seen = set()
        norm = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop edge ({u},{v}) in pattern")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            e = (min(u, v), max(u, v))
            if e in seen:
                raise ValueError(f"duplicate edge {e} in pattern")
            seen.add(e)
            norm.append(e)
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(norm))
        self.name = name or f"({n}v{len(norm)}e)"
        self.adj = [0] * n
        for u, v in self.edges:
            self.adj[u] |= 1 << v
            self.adj[v] |= 1 << u
        self.degrees = [a.bit_count() for a in self.adj]
        self._aut: Optional[int] = None
        self._templates: Optional[list["ClosureTemplate"]] = None

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        seen = 1
        stack = [0]
        count = 1
        while stack:
            u = stack.pop()
            for w in iter_bits(self.adj[u] & ~seen):
                seen |= 1 << w
                count += 1
                stack.append(w)
        return count == self.n

    def to_graph(self) -> SimpleGraph:
        g = SimpleGraph(self.n)
        for u, v in self.edges:
            g.add_edge(u, v)
        return g

    def __repr__(self) -> str:
        return f"Pattern({self.name!r}, n={self.n}, e={self.edge_count})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Pattern) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))


# ── parsing ──────────────────────────────────────────────────────────────
# Grammar: family token C<k> | K<k> | K<a>,<b> | Q3, or "edges: u-v,u-v,…"
# with 1-based vertex labels in the explicit form.

_FAMILY_RE = re.compile(r"^(C|K|Q)(\d+)(?:,(\d+))?$")


def parse_pattern(spec: str) -> Pattern:
    spec = spec.strip()
    if spec.lower().startswith("edges:"):
        body = spec[len("edges:"):].strip()
        if not body:
            raise ValueError("empty edge list in pattern spec")
        edges = []
        maxv = 0
        for tok in body.split(","):
            tok = tok.strip()
            m = re.match(r"^(\d+)-(\d+)$", tok)
            if not m:
                raise ValueError(f"malformed edge token {tok!r} (expected u-v)")
            u, v = int(m.group(1)), int(m.group(2))
            if u < 1 or v < 1:
                raise ValueError(f"vertices are 1-based in edge specs: {tok!r}")
            edges.append((u - 1, v - 1))
            maxv = max(maxv, u, v)
        return Pattern(maxv, edges, name=f"edges:{body.replace(' ', '')}")
    m = _FAMILY_RE.match(spec)
    if not m:
        raise ValueError(f"unrecognized pattern spec {spec!r}")
    fam, a, b = m.group(1), int(m.group(2)), m.group(3)
    if fam == "C":
        if b is not None or a < 3:
            raise ValueError(f"cycle spec needs C<k> with k >= 3, got {spec!r}")
        return Pattern(a, [(i, (i + 1) % a) for i in range(a)], name=f"C{a}")
    if fam == "Q":
        if a != 3 or b is not None:
            raise ValueError(f"only Q3 (the 3-cube) is supported, got {spec!r}")
        edges = [(x, x ^ (1 << i)) for x in range(8) for i in range(3) if x < x ^ (1 << i)]
        return Pattern(8, edges, name="Q3")
    if b is None:
        if a < 1:
            raise ValueError(f"complete graph spec needs K<k> with k >= 1, got {spec!r}")
        return Pattern(a, list(combinations(range(a), 2)), name=f"K{a}")
    bb = int(b)
    if a < 1 or bb < 1:
        raise ValueError(f"bipartite spec needs positive part sizes, got {spec!r}")
    edges = [(i, a + j) for i in range(a) for j in range(bb)]
    return Pattern(a + bb, edges, name=f"K{a},{bb}")


def validate_as_constraint(p: Pattern) -> None:
    """Raise unless ``p`` can serve as the forbidden graph of the process."""
    if p.edge_count == 0:
        raise ValueError(f"{p.name}: empty pattern cannot be the forbidden graph")
    if not p.is_connected():
        raise ValueError(f"{p.name}: forbidden graph must be connected")
    if not is_strictly_two_balanced(p):
        raise ValueError(f"{p.name}: forbidden graph must be strictly 2-balanced")


# ── automorphisms ────────────────────────────────────────────────────────

def count_automorphisms(p: Pattern) -> int:
    """aut(p), counted as the embeddings of ``p`` into its own graph: an
    injective homomorphism of a finite graph into itself is an automorphism."""
    if p.n > AUT_VERTEX_LIMIT:
        raise ValueError(f"automorphism counting limited to {AUT_VERTEX_LIMIT} vertices")
    if p._aut is None:
        p._aut = count_embeddings(p, p.to_graph())
    return p._aut


# ── density functionals ──────────────────────────────────────────────────

def two_density(p: Pattern) -> Fraction:
    """(e-1)/(v-2); defined only for patterns on at least 3 vertices."""
    if p.n < 3:
        raise ValueError("2-density requires at least 3 vertices")
    return Fraction(p.edge_count - 1, p.n - 2)


def is_strictly_two_balanced(p: Pattern) -> bool:
    """True iff v,e >= 3 and every proper subgraph on >= 3 vertices has
    strictly smaller 2-density.  Checked over proper induced subgraphs,
    which dominate all subgraphs on the same vertex set."""
    if p.n > BALANCE_VERTEX_LIMIT:
        raise ValueError(f"balance check limited to {BALANCE_VERTEX_LIMIT} vertices")
    if p.n < 3 or p.edge_count < 3:
        return False
    d2 = two_density(p)
    g = p.to_graph()
    for size in range(3, p.n):
        for sub in combinations(range(p.n), size):
            e = g.induced_edge_count(sub)
            if e >= 1 and Fraction(e - 1, size - 2) >= d2:
                return False
    return True


# ── embedding enumeration ────────────────────────────────────────────────

def _extension_order(p: Pattern, start: Sequence[int]) -> list[int]:
    """Vertex order starting with ``start``, then greedily maximizing edges
    to already-ordered vertices (ties to higher degree, then lower index),
    so an empty ``start`` begins at the lowest vertex of maximum degree."""
    placed = list(start)
    placed_mask = 0
    for v in placed:
        placed_mask |= 1 << v
    while len(placed) < p.n:
        best_v, best_key = -1, None
        for v in range(p.n):
            if (placed_mask >> v) & 1:
                continue
            key = ((p.adj[v] & placed_mask).bit_count(), p.degrees[v], -v)
            if best_key is None or key > best_key:
                best_v, best_key = v, key
        placed.append(best_v)
        placed_mask |= 1 << best_v
    return placed


def _compile_plan(p: Pattern, order: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """For each position of ``order``, the positions of the pattern
    vertex's neighbours that are placed before it."""
    pos_of = {v: i for i, v in enumerate(order)}
    return tuple(tuple(pos_of[w] for w in iter_bits(p.adj[v]) if pos_of[w] < i)
                 for i, v in enumerate(order))


def _run_plan(parents: Sequence[tuple[int, ...]], adj: list[int],
              img: list[int], used: int, start: int) -> Iterator[int]:
    """The plan executor.  ``img[i]`` is the host image of plan position i,
    already filled below ``start``, and ``used`` holds their bits.  Every
    position but the last is filled by iterative backtracking, each with an
    unused host vertex adjacent to the images of its ``parents`` (any unused
    vertex when it has none).  Per partial embedding the generator yields
    the last position's candidate mask unless it is empty; ``img`` stays
    valid below the last position until the generator resumes.  When
    ``start`` already covers every position, the one candidate is the last
    position's own image.  Folded callers (see ``_fold``) pass a plan
    without its last position."""
    last = len(parents) - 1
    if start > last:
        yield 1 << img[last]
        return
    rest = [0] * last               # untried candidates per filled position
    i = start
    while True:
        ps = parents[i]
        if ps:
            cand = adj[img[ps[0]]]
            for pp in ps[1:]:
                cand &= adj[img[pp]]
            cand &= ~used
        else:
            cand = ((1 << len(adj)) - 1) & ~used
        if i == last:
            if cand:
                yield cand
            cand = 0
        while not cand:             # back up to an untried candidate
            i -= 1
            if i < start:
                return
            used ^= 1 << img[i]
            cand = rest[i]
        lsb = cand & -cand
        rest[i] = cand ^ lsb
        img[i] = lsb.bit_length() - 1
        used |= lsb
        i += 1


def enumerate_embeddings(p: Pattern, g: SimpleGraph) -> Iterator[tuple[int, ...]]:
    """Yield every injective homomorphism of ``p`` into ``g`` as a tuple
    ``img`` with ``img[pattern_vertex] = host_vertex``."""
    if p.n > g.n:
        return
    order = _extension_order(p, ())
    img, out = [-1] * p.n, [-1] * p.n
    for cand in _run_plan(_compile_plan(p, order), g.adj, img, 0, 0):
        for v, h in zip(order, img):
            out[v] = h
        for w in iter_bits(cand):
            out[order[-1]] = w
            yield tuple(out)


def _fold(parents: Sequence[tuple[int, ...]]) -> tuple:
    """A plan of two or more positions as it runs folded, with mask
    operations finishing its last two positions L-1 and L: the plan but L,
    L's parents but L-1, and whether L-1 is a parent of L."""
    last = len(parents) - 1
    return parents[:-1], tuple(q for q in parents[last] if q != last - 1), last - 1 in parents[last]


def _fold_masks(p: Pattern, g: SimpleGraph) -> Iterator[tuple[bool, int, int]]:
    """Run ``p``'s plan (two or more positions) folded over ``g``, yielding
    ``(adjc, cands, base)`` per partial embedding of the positions below
    L-1: L-1's candidates, and L's candidates before L-1 is placed."""
    head, rest, adjc = _fold(_compile_plan(p, _extension_order(p, ())))
    adj = g.adj
    img = [0] * len(head)
    for cands in _run_plan(head, adj, img, 0, 0):
        base = (1 << g.n) - 1
        for q in rest:
            base &= adj[img[q]]
        for i in range(len(head) - 1):
            base &= ~(1 << img[i])
        yield adjc, cands, base


def contains_copy(p: Pattern, g: SimpleGraph) -> bool:
    if p.n == 1:
        return True
    adj = g.adj
    for adjc, cands, base in _fold_masks(p, g):
        if adjc:
            near = 0
            while cands:
                c = cands.bit_length() - 1
                near |= adj[c]
                cands ^= 1 << c
            if base & near:
                return True
        elif base if cands & (cands - 1) else base & ~cands:
            return True     # an image of L-1 that leaves L a candidate
    return False


def count_embeddings(p: Pattern, g: SimpleGraph) -> int:
    if p.n == 1:
        return g.n
    total = 0
    for adjc, cands, base in _fold_masks(p, g):
        if adjc:
            total += sum((base & g.adj[c]).bit_count() for c in iter_bits(cands))
        else:           # L's candidates are base less the image of L-1
            total += cands.bit_count() * base.bit_count() - (base & cands).bit_count()
    return total


# ── closure templates ────────────────────────────────────────────────────

class ClosureTemplate:
    """One edge-orbit of the forbidden graph H: the pattern H minus a
    representative edge f, the roles of f's endpoints (the pair that a
    matching embedding would close), and the base-edge roles that need to
    be anchored at a newly added host edge: one per orbit of base edges
    under the stabiliser of f in Aut(H).  That stabiliser is also the
    stabiliser of the pair {f0, f1} in Aut(H - f): an automorphism of H
    fixing f maps E(H) - f onto itself, and an automorphism of H - f fixing
    {f0, f1} maps E(H - f) + f onto itself."""

    __slots__ = ("base", "missing_pair", "anchor_roles", "_folds")

    def __init__(self, base: Pattern, missing_pair: tuple[int, int],
                 anchor_roles: tuple[int, ...], stab: list[tuple[int, ...]]):
        self.base = base
        self.missing_pair = missing_pair
        self.anchor_roles = anchor_roles
        # per anchor role, for the closure scan of the process engine: the
        # plan's _fold, then whether the missing pair has an end at L-1, the
        # closed pair's positions (the other end and -1, L's candidates, if
        # one end is the last position L), and 1 anchor orientation if an
        # automorphism in ``stab`` (those fixing the missing pair) swaps the
        # anchor edge's ends, else 2.
        self._folds = []
        for role in anchor_roles:
            a, b = base.edges[role]
            order = _extension_order(base, (a, b))
            mp = (order.index(missing_pair[0]), order.index(missing_pair[1]))
            last = len(order) - 1
            leaf_other = mp[1] if mp[0] == last else mp[0] if mp[1] == last else -1
            swap = any(s[a] == b and s[b] == a for s in stab)
            self._folds.append((*_fold(_compile_plan(base, order)), last - 1 in mp,
                                *((leaf_other, -1) if leaf_other >= 0 else mp), 2 - swap))


def _edge_orbits(perms: list[tuple[int, ...]],
                 edges: Sequence[tuple[int, int]]) -> list[list[int]]:
    """The orbits of ``perms`` on ``edges``, as sorted edge indices, in
    order of their smallest index."""
    index_of = {e: i for i, e in enumerate(edges)}
    orbits: list[list[int]] = []
    seen: set[int] = set()
    for i, (u, v) in enumerate(edges):
        if i not in seen:
            images = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for perm in perms}
            orbits.append(sorted(index_of[e] for e in images))
            seen.update(orbits[-1])
    return orbits


def closure_templates(p: Pattern) -> list[ClosureTemplate]:
    """Templates for incremental closure detection, one per orbit of edges
    of ``p`` under its automorphism group, which is listed once."""
    validate_as_constraint(p)
    if p._templates is not None:
        return p._templates
    if count_automorphisms(p) > AUT_LIST_LIMIT:
        raise ValueError(f"{p.name}: too many automorphisms to list")
    perms = list(enumerate_embeddings(p, p.to_graph()))
    templates = []
    for orbit in _edge_orbits(perms, p.edges):
        f = p.edges[orbit[0]]
        base_edges = [e for i, e in enumerate(p.edges) if i != orbit[0]]
        base = Pattern(p.n, base_edges, name=f"{p.name}-minus-{f}")
        if not base.is_connected():
            raise ValueError(f"{p.name}: template base unexpectedly disconnected")
        stab = [perm for perm in perms if {perm[f[0]], perm[f[1]]} == {f[0], f[1]}]
        base_orbits = _edge_orbits(stab, base.edges)
        anchor_roles = tuple(orb[0] for orb in base_orbits)
        templates.append(ClosureTemplate(base, f, anchor_roles, stab))
    p._templates = templates
    return templates
