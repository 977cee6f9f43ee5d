import hashlib
import io
import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as hs

from hfree.graphs import pair_count, pair_from_index, pair_index, write_edge_list
from hfree.oracle import naive_C_uv, naive_closed_set, naive_is_maximal_free
from hfree.patterns import (Pattern, contains_copy, parse_pattern,
                            validate_as_constraint)
from hfree.process import (CLOSED, EDGE, OPEN, EdgeSetF, Exhaustion, Horizon,
                           StepCount, compute_C_uv, compute_O_F, init_process,
                           iter_process, newly_closed_after, run_until, step)

C3 = parse_pattern("C3")
C5 = parse_pattern("C5")


def step_records(state, stop):
    """(step, pair id, pairs closed) of every step to the stop rule."""
    return [(st.step, pair_index(*st.last_step[:2], st.n), st.last_step[2])
            for st in iter_process(state, stop)]


def force_edge(state, u, v):
    """Add uv as an edge by hand, keeping the bookkeeping but closing
    nothing."""
    state._retire({pair_index(u, v, state.n): (u, v)})
    state.graph.add_edge(u, v)


def assert_open_masks_match_open_list(state):
    want = [0] * state.n
    for pid in state.open_list:
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
    assert step_records(a, Exhaustion()) == step_records(b, Exhaustion())
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
        run_until(st, Exhaustion())
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
# endpoint of the missing pair, so it covers the scan's single-bit leaf
@pytest.mark.parametrize("spec,n,seed", [("C3", 12, 0), ("C4", 12, 1),
                                         ("C5", 10, 2), ("K4", 10, 3),
                                         ("K2,3", 9, 4), ("Q3", 9, 5)])
def test_incremental_classes_match_oracle(spec, n, seed):
    pattern = parse_pattern(spec)
    st = init_process(n, pattern, seed)
    while not st.is_exhausted():
        step(st)
        assert st.closed_pair_ids() == naive_closed_set(st.graph, pattern)
        assert_open_masks_match_open_list(st)
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


def test_compute_C_uv_matches_oracle_and_symmetry():
    for seed in range(6):
        st = init_process(9, C3, seed)
        for _ in range(5):
            if st.is_exhausted():
                break
            step(st)
        rng = random.Random(seed)
        pool = st.open_pair_ids()
        for pid in rng.sample(pool, min(4, len(pool))):
            uv = pair_from_index(pid, st.n)
            got = compute_C_uv(st, uv)
            assert got == naive_C_uv(st.graph, C3, uv)
            for xy_pid in got:
                xy = pair_from_index(xy_pid, st.n)
                assert pid in compute_C_uv(st, xy)


def test_compute_C_uv_leaves_graph_unchanged(monkeypatch):
    st = init_process(10, parse_pattern("C4"), 3)
    run_until(st, StepCount(12))
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
    f = EdgeSetF.from_vertex_pairs([(0, 2), (1, 3)], 5)
    want = compute_C_uv(st, (0, 2)) | compute_C_uv(st, (1, 3))
    assert compute_O_F(st, f) == want
    assert want  # this instance genuinely closes something
    # union of one set
    f1 = EdgeSetF.from_vertex_pairs([(0, 2)], 5)
    assert compute_O_F(st, f1) == compute_C_uv(st, (0, 2))
    # F with no open pairs
    f_edges = EdgeSetF.from_vertex_pairs([(0, 1), (2, 3)], 5)
    assert compute_O_F(st, f_edges) == set()


def test_run_until_step_count():
    st = init_process(10, C3, 0)
    run_until(st, StepCount(0))
    assert st.step == 0
    run_until(st, StepCount(5))
    assert st.step == 5
    # overshooting a terminated process flags instead of raising
    run_until(st, StepCount(10**6))
    assert st.is_exhausted() and st.stopped_early


def test_run_until_horizon():
    st = init_process(100, C3, 3)
    run_until(st, Horizon(mu="0.01"))
    assert st.step == 21  # floor(0.01 * 100^2 * 0.1 * sqrt(ln 100))


def test_last_step_records():
    st = init_process(8, C3, 2)
    assert st.last_step is None
    records = step_records(st, StepCount(4))
    assert [r[0] for r in records] == [1, 2, 3, 4]
    for _, pid, closed in records:
        assert 0 <= pid < pair_count(8)
        assert st.class_of(*pair_from_index(pid, 8)) == EDGE
        assert closed >= 0
    assert st.closed_count() == sum(r[2] for r in records)


def test_edge_set_f_constructors():
    rng = random.Random(0)
    f = EdgeSetF.random_in_vertex_set([1, 3, 5, 7], 4, 10, rng)
    assert len(f.pairs) == 4
    assert f.vertex_span(10) == (1, 3, 5, 7)
    with pytest.raises(ValueError):
        EdgeSetF.random_in_vertex_set([1, 2, 3], 4, 10, rng)
    with pytest.raises(ValueError):
        EdgeSetF.scaled([1, 2, 3, 4], 100.0, 10, rng)
    f2 = EdgeSetF.scaled(range(8), 1.5, 10, rng)
    assert len(f2.pairs) == 12  # ceil(1.5 * 8)


def _trajectory_digests(spec, n, seed):
    st = init_process(n, parse_pattern(spec), seed)
    history = "".join(f"{s} {p} {c}\n" for s, p, c in step_records(st, Exhaustion()))
    edges = io.StringIO()
    write_edge_list(st.graph, edges)
    return (st.step, hashlib.sha256(history.encode()).hexdigest(),
            hashlib.sha256(edges.getvalue().encode()).hexdigest())


# Digests of the per-step records and final edge list, recorded with the
# row-walk pair decode and the per-pair recursive closure scan; any change
# to sampling, decoding or closure order shows up here.
@pytest.mark.parametrize("spec,n,seed,want", [
    ("C3", 60, 0, (413,
                   "5fa00720b7c41dbb36ca7a7e8c65252db5226411cf5ba1e691d6194ad362b796",
                   "d5064fa8c5b282a373fa0058d0140f700453655af56309ef2f19f72d4bb12331")),
    ("C4", 40, 1, (106,
                   "21534e4952bda5480ade6b0ce9d8163601b3a8f5bee72e6ceb214106db6b1d71",
                   "ca5859b0b6fe1ea0593c4f62cb6cd653d55b22df7f76b72a1bac63ee8617cff1")),
])
def test_golden_trajectories(spec, n, seed, want):
    assert _trajectory_digests(spec, n, seed) == want
