"""Self-test of the benchmark's own host generator, predicates and tracer.

    PYTHONPATH=src python -m pytest bench
"""

import random
from itertools import combinations

import pytest

import hfree.density
from hfree.graphs import SimpleGraph, read_edge_list
from hfree.oracle import naive_contains, naive_is_maximal_free
from hfree.patterns import parse_pattern

import hosts
import spans


def to_graph(adj: list[int]) -> SimpleGraph:
    g = SimpleGraph(len(adj))
    for u, v in hosts.edges(adj):
        g.add_edge(u, v)
    return g


@pytest.mark.parametrize("pattern", hosts.PATTERNS)
@pytest.mark.parametrize("n", [4, 9, 17, 25])
def test_generated_hosts_are_maximal_free(pattern, n):
    for seed in range(3):
        adj = hosts.greedy_free_graph(n, pattern, seed)
        assert naive_is_maximal_free(to_graph(adj), parse_pattern(pattern))
        assert hosts.is_maximal_free(adj, pattern)


@pytest.mark.parametrize("pattern", hosts.PATTERNS)
def test_predicates_agree_with_oracle(pattern):
    rng = random.Random(7)
    p = parse_pattern(pattern)
    verdicts = []
    for trial in range(60):
        n = rng.randrange(4, 11)
        adj = hosts.greedy_free_graph(n, pattern, trial)
        # a maximal graph, one with a pair flipped, or a sparse random graph
        for _ in range(trial % 3 if trial % 4 else 0):
            u, v = rng.sample(range(n), 2)
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
        if trial % 4 == 0:
            adj = [0] * n
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.3:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
        g = to_graph(adj)
        want = naive_is_maximal_free(g, p)
        assert hosts.is_maximal_free(adj, pattern) == want
        assert hosts.is_free(adj, pattern) == (not naive_contains(p, g))
        verdicts.append(want)
    assert True in verdicts and False in verdicts


def test_same_seed_gives_identical_files(tmp_path):
    for pattern in hosts.PATTERNS:
        paths = []
        for name, seed in (("a", 5), ("b", 5), ("c", 6)):
            path = tmp_path / f"{pattern}-{name}.txt"
            hosts.write_edge_list(hosts.greedy_free_graph(30, pattern, seed), str(path))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]
        assert paths[0] != paths[2]


def test_edge_list_round_trip_and_hfree_reads_it(tmp_path):
    adj = hosts.greedy_free_graph(20, "C4", 3)
    adj.append(0)                        # trailing isolated vertex survives
    path = tmp_path / "host.txt"
    hosts.write_edge_list(adj, str(path))
    assert hosts.read_edge_list(str(path)) == adj
    with open(path) as fh:
        assert read_edge_list(fh).adj == adj


def test_has_biclique_matches_brute_force():
    rng = random.Random(3)
    seen = set()
    for trial in range(30):
        n = rng.randrange(4, 10)
        adj = hosts.greedy_free_graph(n, "C4" if trial % 2 else "C3", trial)
        for u in range(n):                  # add some noise edges
            v = rng.randrange(n)
            if u != v:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        for s in (2, 3):
            want = any(
                sum(all(adj[x] >> r & 1 for x in left) for r in range(n)) >= s
                for left in combinations(range(n), s))
            assert hosts.has_biclique(adj, s) == want
            seen.add((s, want))
    assert len(seen) == 4


def test_induced_edges():
    adj = hosts.greedy_free_graph(12, "C3", 1)
    g = to_graph(adj)
    for verts in ([0, 1, 2, 3], list(range(12)), [5]):
        assert hosts.induced_edges(adj, verts) == g.induced_edge_count(verts)


def test_self_time_subtracts_children(monkeypatch):
    clock = iter([0.0, 1.0, 3.0, 4.0, 4.5, 6.0])
    monkeypatch.setattr(spans.time, "perf_counter", lambda: next(clock))
    tr = spans.Tracer()
    sid = tr._id("outer")
    kid = tr._id("inner")
    root = tr.open(sid)                  # 0.0
    a = tr.open(kid)                     # 1.0
    tr.close(a, 5)                       # 3.0
    b = tr.open(kid)                     # 4.0
    tr.close(b, 2)                       # 4.5
    tr.close(root)                       # 6.0
    agg = spans.aggregate(tr, 0, len(tr))
    assert (agg["outer"].s, agg["outer"].self_s) == (6.0, 3.5)
    assert (agg["inner"].calls, agg["inner"].s, agg["inner"].count) == (2, 2.5, 7)


def test_traced_density_scan_counts_nodes():
    adj = hosts.greedy_free_graph(40, "C4", 2)
    original = hfree.density._max_edges_connected
    tr = spans.Tracer()
    tr.install()
    try:
        report = hfree.density.bounded_density_scan(to_graph(adj), 5)
    finally:
        tr.uninstall()
    vals = spans.layer_values(tr, 0, len(tr))
    assert vals["density.bnb.nodes"] == report.nodes_explored > 0
    assert vals["density.bnb.s"] > 0
    assert hfree.density._max_edges_connected is original


def test_missing_name_gives_null_metrics(monkeypatch):
    monkeypatch.delattr(hfree.density, "_max_edges_connected")
    tr = spans.Tracer()
    assert any("_max_edges_connected" in note for note in tr.notes)
    vals = spans.layer_values(tr, 0, 0)
    assert vals["density.bnb.nodes"] is None
    assert vals["density.scan.s"] == 0
