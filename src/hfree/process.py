"""The constrained random-edge process engine.

State is the full Edge/Open/Closed tripartition of vertex pairs, maintained
incrementally: when an edge is added, the pairs it newly closes are found by
enumerating embeddings of each closure template's base anchored at that
edge and reading off the image of the missing pair.  Uniform sampling from
the open pairs draws ids from a sequence that holds each open pair once and
accepts an id iff its mask bit is set.  It starts as ``range(pair_count(n))``
and is never edited, only replaced once over half of it is dead by a
snapshot of the open masks, ``rows[u] = open_nbr[u] >> (u + 1)``, and the
running count of their bits, ``cum``.  Entry i is the (i - cum[u])-th set
bit of row u = bisect_right(cum, i) - 1, so the snapshot holds the open
ids in id order, as a list of them would, in at most n^2/16 bytes where a
4-byte id array needed up to n^2; ``draw_open`` selects the bit in place.

The classification is two bitmasks per vertex: bit v of ``graph.adj[u]`` is
set iff uv is an edge, bit v of ``open_nbr[u]`` iff uv is open, and a pair
with neither bit is closed.  The closure scan runs each compiled plan
folded: the candidates of position L-1 come from the plan executor
``patterns._run_plan``, or directly when L-1 is the anchor's end (then the
scan reads the closed pairs straight off the masks) or the one free
position (an AND of ``adj``), and L's candidates are ``base``, the AND
of ``adj`` over L's parents other than L-1, minus the placed images.  It has
three fold shapes.  When the missing pair has no end at L-1, all of L-1's
candidates are finished at once, through the OR of their ``adj`` masks, and
close L's candidates ANDed with the open neighbours of the pair's other
end, or the one missing pair if L has a candidate.  When it is {L-1, L},
each candidate c closes ``open_nbr[c] & base``.  Otherwise it joins L-1 to
an earlier position, and each c closes that pair if L has a candidate.  The
scan returns a partner mask per vertex, which may hold a pair at both ends:
the step retires each mask with one AND against ``open_nbr``, and the
monitors count C_uv and its intersections on the masks, with no pair ids.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from itertools import accumulate, chain, compress, count
from typing import Iterable, Iterator, Optional, Union

from .graphs import SimpleGraph, pair_count, pair_from_index, pair_row_offsets
from .patterns import (Pattern, _run_plan, closure_templates,
                       validate_as_constraint)

OPEN, EDGE, CLOSED = 0, 1, 2
CLASS_NAMES = {OPEN: "open", EDGE: "edge", CLOSED: "closed"}

RNG_ID = "python-random-mt19937+draw-array"
_BITS = bytes.maketrans(b"01", b"\0\1")


def _ids(rows: Iterable[int], off: list[int]) -> Iterator[int]:
    """Pair ids of the set bits of ``rows[u]``, whose bit k is the pair
    {u, u + 1 + k}, in increasing order."""
    return chain.from_iterable(
        compress(count(o), bin(m)[:1:-1].encode().translate(_BITS))
        for o, m in zip(off, rows))


class _Snapshot:
    """The open pair ids at a rebuild, in increasing order, read off the
    open masks without listing them: ``rows[u] = open_nbr[u] >> (u + 1)``,
    and ``cum[u]`` ids lie in the rows before u."""

    __slots__ = ("rows", "cum", "off")

    def __init__(self, open_nbr: list[int], off: list[int]):
        self.rows = [m >> u + 1 for u, m in enumerate(open_nbr)]
        self.cum = array("Q", accumulate(map(int.bit_count, self.rows), initial=0))
        self.off = off

    def __len__(self) -> int:
        return self.cum[-1]

    def __iter__(self) -> Iterator[int]:
        return _ids(self.rows, self.off)


class ProcessState:
    """Process state after some number of steps; confined to one worker."""

    def __init__(self, n: int, pattern: Pattern, seed: int):
        validate_as_constraint(pattern)
        if n < pattern.n:
            raise ValueError(f"n={n} smaller than the forbidden graph ({pattern.n} vertices)")
        self.n = n
        self.pattern = pattern
        self.seed = seed
        self.rng = random.Random(seed)
        self.graph = SimpleGraph(n)
        full = (1 << n) - 1
        self.open_nbr = [full ^ (1 << u) for u in range(n)]
        self._open = pair_count(n)
        self._draw: Union[range, _Snapshot] = range(self._open)
        self.step = 0
        self.last_step: Optional[tuple[int, int, int]] = None  # (u, v, closed)
        self._folds = [fold for tmpl in closure_templates(pattern)
                       for fold in tmpl._folds]
        self._off = pair_row_offsets(n)

    # -- bookkeeping ------------------------------------------------------

    def class_of(self, u: int, v: int) -> int:
        if (self.graph.adj[u] >> v) & 1:
            return EDGE
        return OPEN if (self.open_nbr[u] >> v) & 1 else CLOSED

    def open_count(self) -> int:
        return self._open

    def closed_count(self) -> int:
        return pair_count(self.n) - self.step - self._open

    def is_exhausted(self) -> bool:
        return not self._open

    def _row_ids(self, masks: Iterable[int]) -> Iterator[int]:
        """Ids of the pairs {u, v}, u < v, with bit v of ``masks[u]`` set,
        in increasing order."""
        return _ids((m >> u + 1 for u, m in enumerate(masks)), self._off)

    def open_pair_ids(self) -> list[int]:
        return list(self._row_ids(self.open_nbr))

    def closed_pair_ids(self) -> set[int]:
        full = (1 << self.n) - 1
        return set(self._row_ids(full & ~(a | o) for a, o in
                                 zip(self.graph.adj, self.open_nbr)))

    def draw_open(self, rng: random.Random) -> tuple[int, int]:
        """Endpoints of a uniformly random open pair: entries of ``_draw``
        are drawn until one is open; it is not changed."""
        if not self._open:
            raise RuntimeError("process exhausted: no open pair remains")
        draw, open_nbr = self._draw, self.open_nbr
        if type(draw) is not _Snapshot:
            n = self.n
            while True:
                u, v = pair_from_index(draw[rng.randrange(len(draw))], n)
                if (open_nbr[u] >> v) & 1:
                    return u, v
        rows, cum = draw.rows, draw.cum
        while True:
            i = rng.randrange(cum[-1])
            u = bisect_right(cum, i) - 1
            j, m, v = i - cum[u], rows[u], u + 1
            h = 1 << m.bit_length().bit_length()
            while j and h:              # set bit j of m, from the lowest:
                h >>= 1                 # halve m's span until it is m's lowest
                low = m & ((1 << h) - 1)
                c = low.bit_count()
                if j < c:
                    m = low
                else:
                    j -= c
                    m >>= h
                    v += h
            v += (m & -m).bit_length() - 1
            if (open_nbr[u] >> v) & 1:
                return u, v

    def sample_open(self, rng: random.Random, k: int) -> list[tuple[int, int]]:
        """min(k, open) distinct open pairs (endpoints), drawn with ``rng``."""
        picks: dict[tuple[int, int], None] = {}
        while len(picks) < min(k, self._open):
            picks[self.draw_open(rng)] = None
        return list(picks)

    def _pair_ids(self, masks: dict[int, int]) -> set[int]:
        """Pair ids of the pairs {a, w}, w in ``masks[a]``."""
        off = self._off
        ids: set[int] = set()
        add = ids.add
        for a, m in masks.items():
            row = off[a] - a - 1
            while m:
                w = m.bit_length() - 1
                m ^= 1 << w
                add(row + w if a < w else off[w] + a - w - 1)
        return ids

    # -- the step ---------------------------------------------------------

    def _closure_scan(self, x: int, y: int) -> dict[int, int]:
        """Currently-open pairs that some template base embedding anchored
        at the edge (x, y) of the state's graph would close, as a partner
        mask per vertex; a pair may be held at both ends.  The graph must
        contain the edge (x, y)."""
        adj = self.graph.adj
        open_nbr = self.open_nbr
        out: dict[int, int] = {}
        for head, rest, adjc, per_c, ap, bp, ways in self._folds:
            cp = len(head) - 1                  # position L-1
            if cp == 1:                         # L-1 is the anchor's end hy,
                for hx, hy in ((x, y), (y, x))[:ways]:  # L's other parent hx
                    base = ~((1 << hx) | (1 << hy)) & (adj[hx] if rest else -1)
                    a = hy if per_c else hx     # the missing pair is {a, L}
                    hits = open_nbr[a] & base & (adj[hy] if adjc else -1)
                    if hits:
                        out[a] = out.get(a, 0) | hits
                continue
            img = [0] * (cp + 1)
            for hx, hy in ((x, y), (y, x))[:ways]:
                img[0], img[1] = hx, hy
                anchor = (1 << hx) | (1 << hy)
                if cp == 2:                     # L-1 is the one free position
                    cands = ~anchor
                    for p in head[2]:
                        cands &= adj[img[p]]
                    heads: Iterable[int] = (cands,) if cands else ()
                else:
                    heads = _run_plan(head, adj, img, anchor, 2)
                for cands in heads:
                    base = ~anchor
                    for p in range(2, cp):
                        base &= ~(1 << img[p])
                    for p in rest:
                        base &= adj[img[p]]
                    if not per_c:               # every image of L-1 at once
                        if adjc:
                            last, m = 0, cands
                            while m:
                                w = m.bit_length() - 1
                                last |= adj[w]
                                m ^= 1 << w
                            last &= base
                        else:
                            last = base if cands & (cands - 1) else base & ~cands
                        a = img[ap]
                        # L's candidates, or the missing pair's bit if any
                        hits = open_nbr[a] & (last if bp < 0 else last and 1 << img[bp])
                        if hits:
                            out[a] = out.get(a, 0) | hits
                    elif bp < 0:                # the missing pair is {L-1, L}
                        while cands:            # (open_nbr[c] never holds c)
                            c = cands.bit_length() - 1
                            cands ^= 1 << c
                            hits = open_nbr[c] & base
                            if hits:
                                out[c] = out.get(c, 0) | hits
                    else:                       # one end at L-1, one before it
                        while cands:
                            c = cands.bit_length() - 1
                            cands ^= 1 << c
                            if base & adj[c] if adjc else base & ~(1 << c):
                                img[cp] = c
                                a = img[ap]
                                hits = open_nbr[a] & 1 << img[bp]
                                if hits:
                                    out[a] = out.get(a, 0) | hits
        return out


def init_process(n: int, pattern: Pattern, seed: int) -> ProcessState:
    """Fresh state: empty graph, every pair open (no pair can be closed in
    the empty graph since the forbidden graph has at least 3 edges)."""
    return ProcessState(n, pattern, seed)


def newly_closed_after(state: ProcessState, e: tuple[int, int]) -> set[int]:
    """Pair ids that moved Open -> Closed because of the edge ``e`` that
    was just added to the state's graph (exact set)."""
    x, y = e
    if not state.graph.has_edge(x, y):
        raise ValueError(f"({x},{y}) is not an edge of the current graph")
    return state._pair_ids(state._closure_scan(x, y))


def step(state: ProcessState) -> tuple[int, int]:
    """Add one uniformly random open pair as an edge; update the
    classification; record the pair and how many pairs it closed in
    ``state.last_step``; return the pair."""
    left = state._open
    if not left:
        raise RuntimeError("process exhausted: no open pair remains")
    if len(state._draw) > 2 * left:
        state._draw = range(0)      # the old draw is freed first
        state._draw = _Snapshot(state.open_nbr, state._off)
    u, v = state.draw_open(state.rng)
    open_nbr, adj = state.open_nbr, state.graph.adj
    open_nbr[u] ^= 1 << v           # an open pair: the edge bits are clear
    open_nbr[v] ^= 1 << u
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    state.graph.edge_count += 1
    state.step += 1
    closed = 0
    for a, mask in state._closure_scan(u, v).items():
        mask &= open_nbr[a]         # retire the pairs {a, w} still open
        open_nbr[a] ^= mask
        closed += mask.bit_count()
        while mask:
            w = mask.bit_length() - 1
            mask ^= 1 << w
            open_nbr[w] ^= 1 << a
    state._open = left - 1 - closed
    state.last_step = (u, v, closed)
    return (u, v)


def iter_process(state: ProcessState, steps: Optional[int] = None) -> Iterator[ProcessState]:
    """Advance the state one step at a time, yielding it after each step,
    until it has ``steps`` edges or, when that is None, until exhaustion."""
    if steps is not None and steps < 0:
        raise ValueError("step count must be >= 0")
    while state._open and (steps is None or state.step < steps):
        step(state)
        yield state


def run_until(state: ProcessState, steps: Optional[int] = None) -> ProcessState:
    """Advance until the state has ``steps`` edges, or to exhaustion when
    that is None.  If ``steps`` exceeds the process lifetime the exhausted
    state is returned, with fewer edges, instead of raising."""
    for _ in iter_process(state, steps):
        pass
    return state


# ── on-demand co-closure sets ────────────────────────────────────────────

def co_closure_masks(state: ProcessState, uv: tuple[int, int]) -> dict[int, int]:
    """C_uv as the closure scan's partner masks: the scan runs with the
    open pair uv added to the state's graph for the duration of the call
    (adjacency bits only; they are cleared again even if the scan raises)."""
    u, v = uv
    cls = state.class_of(u, v)
    if cls != OPEN:
        raise ValueError(f"pair ({u},{v}) is {CLASS_NAMES[cls]}, not open")
    adj = state.graph.adj
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    try:
        return state._closure_scan(u, v)
    finally:
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u


def compute_C_uv(state: ProcessState, uv: tuple[int, int]) -> set[int]:
    """Exact set of open pair ids xy such that adding both uv and xy would
    create a forbidden copy using both."""
    return state._pair_ids(co_closure_masks(state, uv))


def count_pairs(masks: dict[int, int]) -> int:
    """|C_uv| from its partner masks, as their intersection with themselves."""
    return count_common_pairs(masks, masks)


def count_common_pairs(a_masks: dict[int, int], b_masks: dict[int, int]) -> int:
    """|C_a & C_b| from partner masks: each pair {a, w} of ``a_masks`` is
    counted once, at its lower end if both ends (then both keys) hold it,
    and is common if ``b_masks`` holds it at either end."""
    keys = b_keys = b_ends = 0
    for a in a_masks:
        keys |= 1 << a
    for b, m in b_masks.items():
        b_keys |= 1 << b
        b_ends |= m
    total = 0
    for a, m in a_masks.items():
        twice = m & keys & ((1 << a) - 1)   # counted at the lower end w
        while twice:
            w = twice.bit_length() - 1
            twice ^= 1 << w
            m ^= (a_masks[w] >> a & 1) << w
        hit = m & b_masks.get(a, 0)
        total += hit.bit_count()
        if b_ends >> a & 1:                 # b_masks holds a as a partner
            far = m & b_keys & ~hit
            while far:
                w = far.bit_length() - 1
                far ^= 1 << w
                total += b_masks[w] >> a & 1
    return total


def compute_O_F(state: ProcessState, f: Iterable[int]) -> set[int]:
    """Union of compute_C_uv over the pairs of F (pair ids) that are
    currently open: the open pairs whose selection as the next edge would
    close at least one pair of F."""
    out: set[int] = set()
    for pid in f:
        uv = pair_from_index(pid, state.n)
        if state.class_of(*uv) == OPEN:
            out |= compute_C_uv(state, uv)
    return out
