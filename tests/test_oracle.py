from fractions import Fraction

import pytest

from hfree import oracle
from hfree.graphs import SimpleGraph, pair_index
from hfree.oracle import (naive_C_uv, naive_closed_set, naive_contains,
                          naive_count_copies, naive_is_maximal_free,
                          naive_max_density)
from hfree.patterns import parse_pattern

from conftest import random_graph

C3 = parse_pattern("C3")
C5 = parse_pattern("C5")


def path(n):
    g = SimpleGraph(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def test_naive_closed_set_path():
    g = path(3)
    assert naive_closed_set(g, C3) == {pair_index(0, 2, 3)}
    assert naive_closed_set(SimpleGraph(4), C3) == set()


def test_cycle_chords_do_not_close_cycle_pattern():
    # adding a chord to a 5-cycle creates no new 5-cycle through the chord,
    # so every chord stays open (hand-checked: the only cycle through a
    # chord would need all five vertices, and the chord's endpoints already
    # have their two cycle neighbors)
    g = SimpleGraph(5)
    for i in range(5):
        g.add_edge(i, (i + 1) % 5)
    assert naive_closed_set(g, C5) == set()


def test_naive_contains():
    assert not naive_contains(C3, path(4))
    tri = path(3)
    tri.add_edge(0, 2)
    assert naive_contains(C3, tri)


def test_naive_C_uv_example():
    g = SimpleGraph(4)
    g.add_edge(0, 1)
    assert naive_C_uv(g, C3, (0, 2)) == {pair_index(1, 2, 4)}
    assert naive_C_uv(SimpleGraph(5), C3, (0, 3)) == set()
    with pytest.raises(ValueError):
        naive_C_uv(g, C3, (0, 1))


def test_naive_C_uv_excludes_closed_pairs():
    # 0-1-2 path: (0,2) is closed; C_uv sets may not contain it
    g = path(3)
    g2 = SimpleGraph(5)
    g2.add_edge(0, 1)
    g2.add_edge(1, 2)
    got = naive_C_uv(g2, C3, (0, 3))
    assert pair_index(0, 2, 5) not in got


def test_naive_max_density_examples():
    k4 = parse_pattern("K4").to_graph()
    assert naive_max_density(k4) == (Fraction(3, 2), (0, 1, 2, 3))
    star = parse_pattern("K1,5").to_graph()
    dens, wit = naive_max_density(star)
    assert dens == Fraction(5, 6) and len(wit) == 6
    dens, wit = naive_max_density(SimpleGraph(3))
    assert dens == 0 and wit == (0,)


def test_naive_max_density_limits():
    with pytest.raises(ValueError):
        naive_max_density(SimpleGraph(21))


def test_naive_max_density_rejects_empty_host():
    # SimpleGraph refuses n = 0, so the host is built around its constructor
    g = SimpleGraph.__new__(SimpleGraph)
    g.n, g.adj, g.edge_count = 0, [], 0
    with pytest.raises(ValueError, match="no vertices"):
        naive_max_density(g)


def test_naive_count_copies():
    k4 = parse_pattern("K4").to_graph()
    assert naive_count_copies(C3, k4) == 4
    edge = parse_pattern("K2")
    g = random_graph(8, 0.5, 1)
    assert naive_count_copies(edge, g) == g.edge_count


def test_naive_count_copies_petersen(petersen):
    assert naive_count_copies(C5, petersen.to_graph()) == 12


def test_naive_count_copies_limits():
    with pytest.raises(ValueError):
        naive_count_copies(parse_pattern("C7"), SimpleGraph(10))
    with pytest.raises(ValueError):
        naive_closed_set(SimpleGraph(26), C3)


def test_naive_count_copies_checks_aut_divides(monkeypatch):
    k4 = parse_pattern("K4").to_graph()
    images = [dict(img) for img in oracle._extensions(C3, oracle._adj_sets(k4), {})]
    assert len(images) == 24
    monkeypatch.setattr(oracle, "_extensions",
                        lambda p, adj, img: iter(images + images[:1]))
    with pytest.raises(RuntimeError, match="not a multiple"):
        naive_count_copies(C3, k4)


def test_maximality_checker():
    # K_{2,3} plus nothing: maximal triangle-free? every non-edge within a
    # part has the other part as common neighbors -> closed; yes
    g = parse_pattern("K2,3").to_graph()
    assert naive_is_maximal_free(g, C3)
    assert not naive_is_maximal_free(path(4), C3)       # can still add edges
    tri = path(3)
    tri.add_edge(0, 2)
    assert not naive_is_maximal_free(tri, C3)           # contains the pattern


def test_oracles_deterministic():
    g = random_graph(10, 0.3, 9)
    assert naive_closed_set(g, C3) == naive_closed_set(g, C3)
    assert naive_max_density(g) == naive_max_density(g)
