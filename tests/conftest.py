import random

import pytest

from hfree.graphs import SimpleGraph
from hfree.patterns import Pattern

PETERSEN_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                  (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
                  (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]


@pytest.fixture
def petersen() -> Pattern:
    return Pattern(10, PETERSEN_EDGES, name="petersen")


def random_graph(n: int, p: float, seed: int) -> SimpleGraph:
    rng = random.Random(seed)
    g = SimpleGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def random_triangle_free(n: int, tries: int, seed: int) -> SimpleGraph:
    rng = random.Random(seed)
    g = SimpleGraph(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for (u, v) in pairs[:tries]:
        if not (g.adj[u] & g.adj[v]):
            g.add_edge(u, v)
    return g


def copy_graph(g: SimpleGraph) -> SimpleGraph:
    """An independent copy of ``g``."""
    h = SimpleGraph(g.n)
    h.adj, h.edge_count = g.adj[:], g.edge_count
    return h


def retire(state, a: int, mask: int) -> int:
    """Close each pair {a, w}, w in ``mask``, that is still open in the
    process state (both mask bits); return how many pairs that closed."""
    open_nbr = state.open_nbr
    m = mask = mask & open_nbr[a]
    open_nbr[a] ^= mask
    while m:
        w = m.bit_length() - 1
        m ^= 1 << w
        open_nbr[w] ^= 1 << a
    state._open -= mask.bit_count()
    return mask.bit_count()
