import io

import pytest
from hypothesis import given, strategies as st

from hfree.graphs import (SimpleGraph, pair_count, pair_from_index,
                          pair_index, read_edge_list, write_edge_list)

from conftest import copy_graph, random_graph


def test_new_empty():
    g = SimpleGraph(5)
    assert g.edge_count == 0
    assert g.degrees == [0] * 5
    assert SimpleGraph(1).n == 1
    with pytest.raises(ValueError):
        SimpleGraph(0)


def test_path_degrees():
    g = SimpleGraph(3)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    assert g.degrees == [1, 2, 1]
    assert g.edge_count == 2


def test_add_edge_rejections():
    g = SimpleGraph(4)
    g.add_edge(0, 1)
    with pytest.raises(ValueError):
        g.add_edge(0, 1)
    with pytest.raises(ValueError):
        g.add_edge(1, 0)
    with pytest.raises(ValueError):
        g.add_edge(2, 2)
    with pytest.raises(ValueError):
        g.add_edge(0, 4)


def test_degree_sum_is_twice_edges():
    for seed in range(5):
        g = random_graph(12, 0.4, seed)
        assert sum(g.degrees) == 2 * g.edge_count


def test_induced_edge_count():
    k4 = SimpleGraph(4)
    for u in range(4):
        for v in range(u + 1, 4):
            k4.add_edge(u, v)
    assert k4.induced_edge_count(range(4)) == 6
    assert k4.induced_edge_count([1]) == 0
    c5 = SimpleGraph(5)
    for i in range(5):
        c5.add_edge(i, (i + 1) % 5)
    assert c5.induced_edge_count([0, 1, 2]) == 2
    assert c5.induced_edge_count(range(5)) == c5.edge_count
    with pytest.raises(ValueError):
        c5.induced_edge_count([0, 7])


def test_induced_count_monotone():
    g = random_graph(10, 0.5, 3)
    sets = [list(range(k)) for k in range(1, 11)]
    vals = [g.induced_edge_count(s) for s in sets]
    assert vals == sorted(vals)
    # monotone under edge addition too
    g2 = copy_graph(g)
    nonedges = [(u, v) for u in range(10) for v in range(u + 1, 10)
                if not g2.has_edge(u, v)]
    before = g2.induced_edge_count(range(10))
    g2.add_edge(*nonedges[0])
    assert g2.induced_edge_count(range(10)) == before + 1


@pytest.mark.parametrize("n", [2, 4, 10, 37, 100])
def test_pair_index_bijection(n):
    seen = set()
    for u in range(n):
        for v in range(u + 1, n):
            pid = pair_index(u, v, n)
            assert 0 <= pid < pair_count(n)
            assert pid not in seen
            seen.add(pid)
            assert pair_from_index(pid, n) == (u, v)
    assert len(seen) == pair_count(n)


def test_pair_index_unordered_and_errors():
    assert pair_index(2, 1, 4) == pair_index(1, 2, 4)
    with pytest.raises(ValueError):
        pair_index(3, 3, 5)
    with pytest.raises(ValueError):
        pair_from_index(pair_count(6), 6)


@pytest.mark.parametrize("n", [2, 3, 5, 17, 300])
def test_pair_from_index_exhaustive(n):
    # every id decodes to its pair in row-major order
    row_major = [(u, v) for u in range(n) for v in range(u + 1, n)]
    assert [pair_from_index(pid, n) for pid in range(pair_count(n))] == row_major
    assert pair_from_index(pair_index(1, 3, 4), 4) == (1, 3)
    for pid in (-1, pair_count(n)):
        with pytest.raises(ValueError):
            pair_from_index(pid, n)


@st.composite
def _n_and_pair_id(draw):
    n = draw(st.integers(min_value=2, max_value=10**5))
    return n, draw(st.integers(min_value=0, max_value=pair_count(n) - 1))


@given(_n_and_pair_id())
def test_pair_from_index_inverts_pair_index(n_pid):
    n, pid = n_pid
    u, v = pair_from_index(pid, n)
    assert 0 <= u < v < n
    assert pair_index(u, v, n) == pid


@st.composite
def _n_and_pair(draw):
    n = draw(st.integers(min_value=2, max_value=10**5))
    u = draw(st.integers(min_value=0, max_value=n - 2))
    return n, u, draw(st.integers(min_value=u + 1, max_value=n - 1))


@given(_n_and_pair())
def test_pair_index_inverts_pair_from_index(n_uv):
    n, u, v = n_uv
    assert pair_from_index(pair_index(v, u, n), n) == (u, v)


def test_edge_list_round_trip():
    g = random_graph(9, 0.4, 7)
    buf = io.StringIO()
    write_edge_list(g, buf)
    buf.seek(0)
    g2 = read_edge_list(buf)
    assert g2.n == g.n
    assert list(g2.edges()) == list(g.edges())


@st.composite
def _graphs(draw):
    """Hosts of 1..40 vertices whose edges avoid the last ``tail`` vertices,
    so the highest labels are often isolated."""
    n = draw(st.integers(min_value=1, max_value=40))
    live = n - draw(st.integers(min_value=0, max_value=n - 1))
    g = SimpleGraph(n)
    pairs = [(u, v) for u in range(live) for v in range(u + 1, live)]
    for u, v in draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else ():
        g.add_edge(u, v)
    return g


@given(_graphs())
def test_edge_list_round_trip_property(g):
    buf = io.StringIO()
    write_edge_list(g, buf)
    buf.seek(0)
    g2 = read_edge_list(buf)
    assert (g2.n, g2.adj, g2.edge_count) == (g.n, g.adj, g.edge_count)


def test_edge_list_isolated_vertices_survive():
    g = SimpleGraph(6)
    g.add_edge(0, 1)
    buf = io.StringIO()
    write_edge_list(g, buf)
    buf.seek(0)
    assert read_edge_list(buf).n == 6


def test_edge_list_parsing():
    g = read_edge_list(io.StringIO("# comment\n1 2\n2 3\n"))
    assert g.n == 3 and g.edge_count == 2
    with pytest.raises(ValueError):
        read_edge_list(io.StringIO("1 2 3\n"))
    with pytest.raises(ValueError):
        read_edge_list(io.StringIO("0 1\n"))


@pytest.mark.parametrize("text,message", [
    ("1 2\n3 3\n", "line 2 ('3 3'): loop edge rejected"),
    ("# n = 3\n1 2\n\n2 1\n", "line 4 ('2 1'): duplicate edge rejected"),
    ("1 x\n", "line 1 ('1 x'): expected two integer labels"),
    ("1 2 3\n", "line 1 ('1 2 3'): expected two integer labels"),
    ("2 3\n0 1\n", "line 2 ('0 1'): vertices are 1-based"),
], ids=["loop", "duplicate", "non-integer", "three-labels", "label-0"])
def test_edge_list_errors_name_the_line(text, message):
    with pytest.raises(ValueError) as exc:
        read_edge_list(io.StringIO(text))
    assert str(exc.value).startswith(message)


def test_edge_list_label_above_header_is_rejected():
    with pytest.raises(ValueError, match=r"line 3 \('1 5'\) exceeds the header's n = 3"):
        read_edge_list(io.StringIO("# n = 3\n1 2\n1 5\n2 3\n"))
    # the header may also follow the edges
    with pytest.raises(ValueError, match=r"line 1 \('4 1'\)"):
        read_edge_list(io.StringIO("4 1\n# n = 3\n"))
    with pytest.raises(ValueError, match="n = 0"):
        read_edge_list(io.StringIO("# n = 0\n1 2\n"))
    assert read_edge_list(io.StringIO("# n = 3\n1 3\n")).n == 3
