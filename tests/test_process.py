import hashlib
import io
import os
import random
import subprocess
import sys
import tracemalloc
from array import array
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as hs

import hfree
from hfree.graphs import (SimpleGraph, pair_count, pair_from_index, pair_index,
                          write_edge_list)
from hfree.oracle import naive_C_uv, naive_closed_set, naive_is_maximal_free
from hfree.patterns import (Pattern, _run_plan, closure_templates, contains_copy,
                            parse_pattern, validate_as_constraint)
from hfree.process import (CLOSED, EDGE, OPEN, RNG_ID, co_closure_masks, compute_C_uv,
                           compute_O_F, count_common_pairs, count_pairs, init_process,
                           _Snapshot, iter_process, newly_closed_after, run_until, step)
from hfree.theory import step_horizon

from conftest import retire

C3 = parse_pattern("C3")
C5 = parse_pattern("C5")


def step_records(state, steps=None):
    """(step, pair id, pairs closed) of every step to ``steps`` edges, or
    to exhaustion."""
    return [(st.step, pair_index(*st.last_step[:2], st.n), st.last_step[2])
            for st in iter_process(state, steps)]


def force_edge(state, u, v):
    """Add uv as an edge by hand, keeping the bookkeeping but closing
    nothing."""
    retire(state, u, 1 << v)
    state.graph.add_edge(u, v)


def assert_draw_holds_each_open_pair_once(state):
    """Every open pair's id is in the draw array exactly once, and the
    masks hold each open pair at both ends."""
    in_draw = Counter(state._draw)
    want = [0] * state.n
    for pid in state.open_pair_ids():
        assert in_draw[pid] == 1, pid
        u, v = pair_from_index(pid, state.n)
        want[u] |= 1 << v
        want[v] |= 1 << u
    assert state.open_nbr == want


def test_init_all_open():
    st = init_process(10, C3, 0)
    assert st.open_count() == 45
    assert st.graph.edge_count == 0 and st.step == 0
    assert init_process(3, C3, 0).open_count() == 3


def test_init_rejections():
    with pytest.raises(ValueError):
        init_process(2, C3, 0)       # n below the pattern size
    with pytest.raises(ValueError):
        init_process(10, parse_pattern("edges: 1-2,2-3,1-3,3-4"), 0)


def test_same_seed_identical():
    a = init_process(12, C3, 5)
    b = init_process(12, C3, 5)
    assert step_records(a) == step_records(b)
    assert list(a.graph.edges()) == list(b.graph.edges())


def test_n3_terminates_after_two_steps():
    st = init_process(3, C3, 1)
    step(st)
    step(st)
    assert st.is_exhausted()
    assert st.graph.edge_count == 2
    assert st.closed_count() == 1


def test_n4_all_seeds_maximal_triangle_free():
    for seed in range(100):
        st = init_process(4, C3, seed)
        run_until(st)
        assert naive_is_maximal_free(st.graph, C3), seed


def test_first_step_uniformity():
    # over many seeds, each of the 6 pairs at n=4 is drawn nearly 1/6 of the time
    counts = Counter()
    draws = 60000
    for seed in range(draws):
        st = init_process(4, C3, seed)
        counts[step(st)] += 1
    assert len(counts) == 6
    for pair, c in counts.items():
        assert abs(c / draws - 1 / 6) <= 0.01, (pair, c)


def _run_to(state, done):
    """Step until ``done(state)``; the process must not run out first."""
    while not done(state):
        assert not state.is_exhausted()
        step(state)


def test_draw_open_uniform_with_dead_entries():
    st = init_process(8, C3, 3)
    _run_to(st, lambda s: 3 * (len(s._draw) - s.open_count()) >= len(s._draw))
    open_pairs = {pair_from_index(pid, st.n) for pid in st.open_pair_ids()}
    assert len(open_pairs) >= 5
    draw = st._draw[:]
    rng = random.Random(0)
    draws = 60000
    counts = Counter(st.draw_open(rng) for _ in range(draws))
    assert set(counts) == open_pairs
    for pair, c in counts.items():
        assert abs(c / draws - 1 / len(open_pairs)) <= 0.01, (pair, c)
    assert st._draw == draw


def test_rebuild_holds_the_open_ids_in_order():
    st = init_process(10, C3, 1)
    assert st._draw == range(pair_count(10))
    _run_to(st, lambda s: len(s._draw) > 2 * s.open_count())
    assert type(st._draw) is range  # no snapshot before the first rebuild
    before = st.open_pair_ids()
    pid = pair_index(*step(st), st.n)
    assert type(st._draw) is _Snapshot
    assert len(st._draw) == len(before) and list(st._draw) == before
    assert pid in before and st.class_of(*pair_from_index(pid, st.n)) == EDGE


class _Pick:
    """An rng whose one draw is entry ``i``; a second draw means entry i
    was not open."""

    def __init__(self, i):
        self.i = i

    def randrange(self, k):
        i, self.i = self.i, None
        assert i is not None, "the entry drawn was not open"
        assert 0 <= i < k
        return i


@pytest.mark.parametrize("spec,n", [("C3", 40), ("C4", 30), ("K4", 20)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_snapshot_draws_the_open_ids_in_order(spec, n, seed):
    # at each rebuild, entry i of the snapshot is the i-th open id, both
    # iterated and as draw_open selects it, through empty rows and up to
    # the last entry; the snapshot is made here, as the step would make
    # it, so that a wrong select fails before the step draws from it
    st = init_process(n, parse_pattern(spec), seed)
    rebuilds = gaps = 0
    while not st.is_exhausted():
        if len(st._draw) > 2 * st.open_count():
            snap = st._draw = _Snapshot(st.open_nbr, st._off)
            ids = st.open_pair_ids()
            assert len(snap) == len(ids) and list(snap) == ids
            for i, pid in enumerate(ids):
                assert st.draw_open(_Pick(i)) == pair_from_index(pid, n), i
            rows = [u for u, m in enumerate(snap.rows) if m]
            gaps += rows[-1] - rows[0] + 1 > len(rows)
            rebuilds += 1
            step(st)
            assert st._draw is snap
        else:
            step(st)
    assert rebuilds >= 3 and gaps


def test_draw_open_refuses_an_exhausted_state():
    # the exhausted state still holds dead draw entries; run in a child
    # process so that a draw loop that never ends fails instead of hanging
    src = os.path.dirname(os.path.dirname(os.path.abspath(hfree.__file__)))
    probe = (f"import sys, random; sys.path.insert(0, {src!r})\n"
             "from hfree.patterns import parse_pattern\n"
             "from hfree.process import init_process, run_until\n"
             "st = run_until(init_process(12, parse_pattern('C3'), 0))\n"
             "assert st.is_exhausted() and len(st._draw) > 0\n"
             "try:\n"
             "    st.draw_open(random.Random(0))\n"
             "except RuntimeError as exc:\n"
             "    print(exc)\n")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, timeout=20)
    assert out.returncode == 0, out.stderr
    assert "exhausted" in out.stdout


def _full_array_step(state):
    """``step`` as it was with the draw array allocated in full at the start
    and emptied in place at each rebuild."""
    if len(state._draw) > 2 * state._open:
        del state._draw[:]
        state._draw.extend(state._row_ids(state.open_nbr))
    u, v = state.draw_open(state.rng)
    retire(state, u, 1 << v)
    state.graph.add_edge(u, v)
    state.step += 1
    closed = sum(retire(state, a, m) for a, m in state._closure_scan(u, v).items())
    state.last_step = (u, v, closed)


@pytest.mark.parametrize("spec,n", [("C3", 40), ("C4", 30), ("K4", 20)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lazy_draw_steps_like_the_full_array(spec, n, seed):
    pattern = parse_pattern(spec)
    lazy, full = init_process(n, pattern, seed), init_process(n, pattern, seed)
    full._draw = array("I", range(pair_count(n)))
    got, want = [], []
    while not lazy.is_exhausted():
        step(lazy)
        got.append(lazy.last_step)
    while not full.is_exhausted():
        _full_array_step(full)
        want.append(full.last_step)
    assert got == want


def test_sample_open_draws_distinct_open_pairs():
    st = init_process(12, parse_pattern("C4"), 2)
    run_until(st, 8)
    assert len(st._draw) > st.open_count() > 6  # dead entries present
    draw, state = st._draw[:], st.rng.getstate()
    rng = random.Random(5)
    picks = st.sample_open(rng, 6)
    assert len(set(picks)) == 6
    assert all(st.class_of(*uv) == OPEN for uv in picks)
    every = st.sample_open(rng, st.open_count() + 3)
    assert sorted(pair_index(u, v, st.n) for u, v in every) == st.open_pair_ids()
    assert st._draw == draw and st.rng.getstate() == state


def test_init_process_memory_per_pair():
    # the masks' quarter byte per pair: no draw array before the first
    # rebuild, and no per-pair objects
    n = 2000
    tracemalloc.start()
    try:
        init_process(n, C3, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < pair_count(n) / 2


def test_process_memory_per_pair_to_exhaustion():
    # above the level after init: the adjacency masks grow to about n^2/8
    # bytes (a quarter byte per pair) and a draw snapshot holds n^2/16
    # bytes, two of them if both were alive at a rebuild; with slack on
    # top of that half byte, 1 byte per pair
    n = 1000
    tracemalloc.start()
    try:
        st = init_process(n, C3, 0)
        base = tracemalloc.get_traced_memory()[0]
        run_until(st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st.is_exhausted()
    assert peak - base < pair_count(n)


def reference_edges(n, pattern, seed):
    """Edge sequence of a reference process: the fast process's draw and
    rebuild protocol on a plain list of ids, with "open" decided afresh at
    every step as neither an edge nor in ``naive_closed_set``."""
    rng = random.Random(seed)
    g = SimpleGraph(n)
    draw = list(range(pair_count(n)))
    edges = []
    while True:
        closed = naive_closed_set(g, pattern)
        open_ids = [pid for pid in range(pair_count(n)) if pid not in closed
                    and not g.has_edge(*pair_from_index(pid, n))]
        if not open_ids:
            return edges
        if len(draw) > 2 * len(open_ids):
            draw = open_ids
        pid = draw[rng.randrange(len(draw))]
        while pid not in open_ids:
            pid = draw[rng.randrange(len(draw))]
        edges.append(pair_from_index(pid, n))
        g.add_edge(*edges[-1])


@pytest.mark.parametrize("spec,n", [("C3", 10), ("C4", 10), ("K4", 10)])
def test_reference_process_edge_sequences(spec, n):
    pattern = parse_pattern(spec)
    for seed in range(10):
        states = iter_process(init_process(n, pattern, seed))
        fast = [st.last_step[:2] for st in states]
        assert fast == reference_edges(n, pattern, seed), seed


def test_newly_closed_path():
    st = init_process(3, C3, 0)
    force_edge(st, 0, 1)
    force_edge(st, 1, 2)
    assert newly_closed_after(st, (1, 2)) == {pair_index(0, 2, 3)}


def test_newly_closed_first_edge_empty():
    st = init_process(6, C3, 0)
    pair = step(st)
    assert st.last_step == (*pair, 0)  # nothing closes after the first edge
    assert newly_closed_after(st, pair) == set()


def test_newly_closed_c5_path():
    st = init_process(5, C5, 0)
    for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4)]:
        force_edge(st, u, v)
    assert newly_closed_after(st, (3, 4)) == {pair_index(0, 4, 5)}


# K2,3 is the one pattern here with a plan whose last position is not an
# endpoint of the missing pair (a per-c single-bit fold); the fold census
# below shows that the property test over CONSTRAINT_PATTERNS reaches every
# fold shape
@pytest.mark.parametrize("spec,n,seed", [("C3", 12, 0), ("C4", 12, 1),
                                         ("C5", 10, 2), ("K4", 10, 3),
                                         ("K2,3", 9, 4), ("Q3", 9, 5)])
def test_incremental_classes_match_oracle(spec, n, seed):
    pattern = parse_pattern(spec)
    st = init_process(n, pattern, seed)
    while not st.is_exhausted():
        step(st)
        assert st.closed_pair_ids() == naive_closed_set(st.graph, pattern)
        assert_draw_holds_each_open_pair_once(st)
        # partition invariant
        counts = Counter(st.class_of(u, v) for u in range(n) for v in range(u + 1, n))
        assert counts[EDGE] == st.step
        assert counts[OPEN] == st.open_count()
        assert counts[CLOSED] == st.closed_count()
        assert not contains_copy(pattern, st.graph)
    assert naive_is_maximal_free(st.graph, pattern)


def _constraint_patterns(max_n=6):
    """Every connected strictly 2-balanced graph on at most ``max_n``
    vertices (25 of them for 6), from the networkx graph atlas."""
    out = []
    for g in nx.graph_atlas_g():
        if 0 < g.number_of_nodes() <= max_n:
            p = Pattern(g.number_of_nodes(), list(g.edges()))
            try:
                validate_as_constraint(p)
            except ValueError:
                continue
            out.append(p)
    return out


CONSTRAINT_PATTERNS = _constraint_patterns()


def test_constraint_pattern_census():
    assert len(CONSTRAINT_PATTERNS) == 25


def test_closure_fold_census():
    """Every reachable fold shape of the closure scan occurs among
    CONSTRAINT_PATTERNS: (per-c or union) x (leaf or single bit) x (L-1 a
    parent of L or not).  A per-c leaf never has L-1 as a parent of L,
    because the missing pair joins L-1 and L.  Both one and two anchor
    orientations occur."""
    shapes, ways = set(), set()
    for p in CONSTRAINT_PATTERNS:
        for tmpl in closure_templates(p):
            for head, rest, adjc, per_c, ap, bp, n_ways in tmpl._folds:
                shapes.add((per_c, bp < 0, adjc))
                ways.add(n_ways)
    everything = {(c, leaf, adj) for c in (False, True) for leaf in (False, True)
                  for adj in (False, True)}
    assert shapes == everything - {(True, True, True)}
    assert ways == {1, 2}


@given(hs.sampled_from(CONSTRAINT_PATTERNS), hs.integers(7, 9),
       hs.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_closed_set_matches_oracle_property(pattern, n, seed):
    st = init_process(n, pattern, seed)
    while not st.is_exhausted():
        step(st)
        assert st.closed_pair_ids() == naive_closed_set(st.graph, pattern), st.step


def test_closed_monotone_along_run():
    st = init_process(14, C3, 9)
    prev = set()
    while not st.is_exhausted():
        step(st)
        cur = st.closed_pair_ids()
        assert prev <= cur
        prev = cur


def test_closure_trigger():
    # a pair closes at the next step iff the chosen edge is in its co-closure set
    rng = random.Random(4)
    st = init_process(12, C3, 4)
    for _ in range(10):
        pool = st.open_pair_ids()
        probes = rng.sample(pool, min(4, len(pool)))
        cuv = {pid: compute_C_uv(st, pair_from_index(pid, st.n)) for pid in probes}
        chosen = step(st)
        chosen_pid = pair_index(*chosen, st.n)
        closed = st.closed_pair_ids()
        for pid, cset in cuv.items():
            if pid == chosen_pid:
                continue
            assert (pid in closed) == (chosen_pid in cset)
        if st.is_exhausted():
            break


def test_compute_C_uv_examples():
    st = init_process(4, C3, 0)
    force_edge(st, 0, 1)
    assert compute_C_uv(st, (0, 2)) == {pair_index(1, 2, 4)}
    fresh = init_process(5, C3, 0)
    assert compute_C_uv(fresh, (0, 3)) == set()
    with pytest.raises(ValueError):
        compute_C_uv(st, (0, 1))  # an edge, not open


# C3 keeps five steps; the others stop about half way to exhaustion at n = 9
@pytest.mark.parametrize("spec,steps", [("C3", 5), ("C4", 7), ("C5", 9),
                                        ("K4", 12), ("K2,3", 10)],
                         ids=["C3", "C4", "C5", "K4", "K2,3"])
def test_compute_C_uv_matches_oracle_and_symmetry(spec, steps):
    pattern = parse_pattern(spec)
    for seed in range(6):
        st = init_process(9, pattern, seed)
        for _ in range(steps):
            if st.is_exhausted():
                break
            step(st)
        rng = random.Random(seed)
        pool = st.open_pair_ids()
        for pid in rng.sample(pool, min(4, len(pool))):
            uv = pair_from_index(pid, st.n)
            got = compute_C_uv(st, uv)
            assert got == naive_C_uv(st.graph, pattern, uv)
            for xy_pid in got:
                xy = pair_from_index(xy_pid, st.n)
                assert pid in compute_C_uv(st, xy)


def _per_image_closure_scan(state, x, y):
    """The closure scan as it was with every fold run through one loop:
    ``_run_plan`` for L-1's candidates, then each image of L-1 in turn, or
    all of them at once, with the same mask operations."""
    adj, open_nbr, out = state.graph.adj, state.open_nbr, {}
    for head, rest, adjc, per_c, ap, bp, ways in state._folds:
        cp = len(head) - 1
        img = [0] * (cp + 2)
        for hx, hy in ((x, y), (y, x))[:ways]:
            img[0], img[1] = hx, hy
            anchor = (1 << hx) | (1 << hy)
            for cands in _run_plan(head, adj, img, anchor, 2):
                base = ~anchor
                for p in range(2, cp):
                    base &= ~(1 << img[p])
                for p in rest:
                    base &= adj[img[p]]
                while cands:
                    c = cands.bit_length() - 1
                    cs = 1 << c if per_c else cands
                    cands ^= cs
                    if adjc:
                        last, m = 0, cs
                        while m:
                            w = m.bit_length() - 1
                            last |= adj[w]
                            m ^= 1 << w
                        last &= base
                    else:
                        last = base if cs & (cs - 1) else base & ~cs
                    img[cp] = c
                    a = img[ap]
                    hits = open_nbr[a] & (last if bp < 0 else last and 1 << img[bp])
                    if hits:
                        out[a] = out.get(a, 0) | hits
    return out


@pytest.mark.parametrize("spec,n", [("C3", 12), ("C4", 12), ("C5", 12), ("C6", 12),
                                    ("K4", 10), ("K2,3", 10), ("K3,3", 10), ("Q3", 10)])
def test_closure_scan_matches_the_per_image_loop(spec, n):
    """Each fold shape's loop returns the masks of the one general loop, in
    the same order, on every step and with a temporary edge (the C_uv
    scan) on sampled open pairs; Q3's head still runs through _run_plan."""
    st = init_process(n, parse_pattern(spec), 4)
    scan, found = st._closure_scan, []

    def both(x, y):
        got = scan(x, y)
        assert list(got.items()) == list(_per_image_closure_scan(st, x, y).items())
        found.append(bool(got))
        return got

    st._closure_scan = both
    rng = random.Random(4)
    while not st.is_exhausted():
        step(st)
        for uv in st.sample_open(rng, 3):
            co_closure_masks(st, uv)
    assert any(found) and not all(found)


def _twice_held(masks):
    return sum(masks.get(w, 0) >> a & 1 for a, m in masks.items()
               for w in range(a + 1, m.bit_length()) if m >> w & 1)


@pytest.mark.parametrize("spec,n", [("C3", 14), ("C4", 14), ("C5", 14), ("C6", 14),
                                    ("K4", 12), ("K2,3", 12), ("K3,3", 12)])
def test_mask_counts_match_the_pair_id_sets(spec, n):
    """count_pairs is |C_uv| and count_common_pairs is |C_a & C_b| for every
    ordered pair of sampled open pairs, at several steps of two runs."""
    twice = 0
    for seed in range(2):
        st = init_process(n, parse_pattern(spec), seed)
        rng = random.Random(seed)
        for steps in (4, 10, 18):
            run_until(st, steps)
            picks = st.sample_open(rng, 12)
            masks = [co_closure_masks(st, uv) for uv in picks]
            sets = [compute_C_uv(st, uv) for uv in picks]
            for a, ids_a in zip(masks, sets):
                twice += _twice_held(a)
                assert count_pairs(a) == len(ids_a)
                assert count_common_pairs(a, {}) == count_common_pairs({}, a) == 0
                for b, ids_b in zip(masks, sets):
                    assert count_common_pairs(a, b) == len(ids_a & ids_b)
    # some of the C5, C6, K4 and K2,3 scans find a pair from both its ends
    assert twice > 0 or spec in ("C3", "C4", "K3,3")


def test_mask_counts_of_pairs_held_at_both_ends():
    twice = {0: 0b1110, 1: 0b0001, 3: 0b0101}       # {0,1} and {0,3} twice
    assert count_pairs(twice) == 4 == len({(0, 1), (0, 2), (0, 3), (2, 3)})
    assert count_pairs({}) == 0
    assert count_common_pairs(twice, twice) == 4
    assert count_common_pairs(twice, {2: 0b1001}) == 2     # {0,2}, {2,3} at 2
    assert count_common_pairs({2: 0b1001}, twice) == 2


def test_compute_C_uv_leaves_graph_unchanged(monkeypatch):
    st = init_process(10, parse_pattern("C4"), 3)
    run_until(st, 12)
    adj, edges = list(st.graph.adj), st.graph.edge_count
    for pid in st.open_pair_ids()[:5]:
        compute_C_uv(st, pair_from_index(pid, st.n))
        assert st.graph.adj == adj and st.graph.edge_count == edges

    def boom(x, y):
        assert st.graph.has_edge(x, y)  # uv is present while the scan runs
        raise RuntimeError("scan failed")

    monkeypatch.setattr(st, "_closure_scan", boom)
    with pytest.raises(RuntimeError, match="scan failed"):
        compute_C_uv(st, pair_from_index(st.open_pair_ids()[0], st.n))
    assert st.graph.adj == adj and st.graph.edge_count == edges


def test_compute_O_F():
    st = init_process(5, C3, 0)
    for (u, v) in [(0, 1), (2, 3)]:
        force_edge(st, u, v)
    f = [pair_index(0, 2, 5), pair_index(1, 3, 5)]
    want = compute_C_uv(st, (0, 2)) | compute_C_uv(st, (1, 3))
    assert compute_O_F(st, f) == want
    assert want  # this instance genuinely closes something
    # union of one set
    assert compute_O_F(st, [pair_index(0, 2, 5)]) == compute_C_uv(st, (0, 2))
    # F with no open pairs
    assert compute_O_F(st, [pair_index(0, 1, 5), pair_index(2, 3, 5)]) == set()


def test_run_until_step_count():
    st = init_process(10, C3, 0)
    run_until(st, 0)
    assert st.step == 0
    run_until(st, 5)
    assert st.step == 5
    # overshooting a terminated process stops at exhaustion instead of raising
    run_until(st, 10**6)
    assert st.is_exhausted() and st.step < 10**6


def test_run_until_horizon():
    st = init_process(100, C3, 3)
    run_until(st, step_horizon(100, C3, "0.01"))
    assert st.step == 21  # floor(0.01 * 100^2 * 0.1 * sqrt(ln 100))


def test_negative_step_count_raises():
    st = init_process(10, C3, 0)
    with pytest.raises(ValueError, match="step count must be >= 0"):
        next(iter_process(st, -1))
    with pytest.raises(ValueError, match="step count must be >= 0"):
        run_until(st, -1)
    assert st.step == 0


def test_last_step_records():
    st = init_process(8, C3, 2)
    assert st.last_step is None
    records = step_records(st, 4)
    assert [r[0] for r in records] == [1, 2, 3, 4]
    for _, pid, closed in records:
        assert 0 <= pid < pair_count(8)
        assert st.class_of(*pair_from_index(pid, 8)) == EDGE
        assert closed >= 0
    assert st.closed_count() == sum(r[2] for r in records)


def _trajectory_digests(spec, n, seed):
    st = init_process(n, parse_pattern(spec), seed)
    history = "".join(f"{s} {p} {c}\n" for s, p, c in step_records(st))
    edges = io.StringIO()
    write_edge_list(st.graph, edges)
    return (st.step, hashlib.sha256(history.encode()).hexdigest(),
            hashlib.sha256(edges.getvalue().encode()).hexdigest())


# Digests of the per-step records and final edge list, recorded under the
# sampler id below; any change to sampling, decoding or closure order shows
# up here, and a change that is meant must come with a new RNG_ID.
@pytest.mark.parametrize("spec,n,seed,want", [
    ("C3", 60, 0, (395,
                   "71313231fc9288f160fc48c40264237ae887c3aa1cc0e31007e226143cc33315",
                   "e0eb6794b2e43316293300cdfdbc0cd29d04dc94c3d4419e4beabd6e05fdd795")),
    ("C4", 40, 1, (102,
                   "47e0e22bf83dc19dfbca412275c0f2841e4b6789c9dda07429b54aee688b7053",
                   "54da3a6aae9a989caf5f65f5e21955fdca545bbb04fca03cf642edb4911253b1")),
])
def test_golden_trajectories(spec, n, seed, want):
    assert RNG_ID == "python-random-mt19937+draw-array"
    assert _trajectory_digests(spec, n, seed) == want
