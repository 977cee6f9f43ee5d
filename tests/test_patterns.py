from fractions import Fraction
from itertools import permutations

import networkx
import pytest

from hfree.graphs import SimpleGraph
from hfree.oracle import (COPY_PATTERN_LIMIT, _adj_sets, _automorphisms,
                          _extensions, naive_count_copies)
from hfree.patterns import (Pattern, _compile_plan, _extension_order, _fold,
                            closure_templates, contains_copy,
                            count_automorphisms, count_embeddings,
                            enumerate_embeddings, is_strictly_two_balanced,
                            parse_pattern, two_density,
                            validate_as_constraint)

from conftest import random_graph


# ── parsing ──────────────────────────────────────────────────────────────

@pytest.mark.parametrize("spec,v,e", [
    ("C3", 3, 3), ("C5", 5, 5), ("K4", 4, 6), ("K3,3", 6, 9),
    ("Q3", 8, 12), ("K2", 2, 1), ("K1,4", 5, 4),
])
def test_parse_families(spec, v, e):
    p = parse_pattern(spec)
    assert (p.n, p.edge_count) == (v, e)


def test_parse_edge_list():
    p = parse_pattern("edges: 1-2, 2-3, 1-3, 3-4")
    assert p.n == 4 and p.edge_count == 4


@pytest.mark.parametrize("bad", ["C2", "K0", "Q4", "X7", "edges:", "edges: 1-1",
                                 "edges: 0-1", "edges: 1+2"])
def test_parse_rejections(bad):
    with pytest.raises(ValueError):
        parse_pattern(bad)


def test_constraint_validation():
    validate_as_constraint(parse_pattern("C5"))
    with pytest.raises(ValueError):
        validate_as_constraint(parse_pattern("K1"))       # empty
    with pytest.raises(ValueError):
        validate_as_constraint(parse_pattern("edges: 1-2, 3-4"))  # disconnected
    with pytest.raises(ValueError):
        validate_as_constraint(parse_pattern("edges: 1-2, 2-3, 1-3, 3-4"))  # paw


# ── automorphisms ────────────────────────────────────────────────────────

@pytest.mark.parametrize("spec,aut", [
    ("C3", 6), ("C4", 8), ("C5", 10), ("K4", 24), ("K5", 120),
    ("K3,3", 72), ("K2,3", 12), ("Q3", 48), ("K1,4", 24),
])
def test_automorphism_counts(spec, aut):
    assert count_automorphisms(parse_pattern(spec)) == aut


def test_petersen_automorphisms(petersen):
    assert count_automorphisms(petersen) == 120


def test_aut_divides_factorial():
    import math
    for spec in ("C6", "K2,4", "edges: 1-2,2-3,1-3,3-4"):
        p = parse_pattern(spec)
        assert math.factorial(p.n) % count_automorphisms(p) == 0


def _permutation_scan(p):
    """Aut(p) by definition: the vertex permutations mapping E(p) onto itself."""
    edges = set(p.edges)
    return {perm for perm in permutations(range(p.n))
            if {(min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in p.edges} == edges}


def _orbit_reps(perms, edges):
    """Index of the first edge of each orbit of ``perms`` on ``edges``."""
    reps, seen = [], set()
    for i, (a, b) in enumerate(edges):
        if i not in seen:
            reps.append(i)
            seen |= {edges.index((min(s[a], s[b]), max(s[a], s[b]))) for s in perms}
    return reps


def test_automorphisms_match_permutation_scan():
    constraints = 0
    for g in networkx.graph_atlas_g():
        if not 1 <= g.number_of_nodes() <= 6:
            continue
        p = Pattern(g.number_of_nodes(), list(g.edges()))
        want = _permutation_scan(p)
        assert count_automorphisms(p) == len(want), p
        # the automorphism list closure_templates takes its orbits from
        assert set(enumerate_embeddings(p, p.to_graph())) == want, p
        assert set(_automorphisms(p)) == want, p
        try:
            validate_as_constraint(p)
        except ValueError:
            continue
        constraints += 1
        templates = closure_templates(p)
        assert [t.missing_pair for t in templates] == [p.edges[i] for i in
                                                       _orbit_reps(want, p.edges)]
        for t in templates:
            # anchor roles: orbits of Aut(H - f) fixing the missing pair {f0, f1}
            f = set(t.missing_pair)
            stab = [s for s in _permutation_scan(t.base) if {s[v] for v in f} == f]
            assert list(t.anchor_roles) == _orbit_reps(stab, t.base.edges)
    assert constraints == 25


# ── densities ────────────────────────────────────────────────────────────

def test_two_density_values():
    assert two_density(parse_pattern("C3")) == 2
    assert two_density(parse_pattern("K4")) == Fraction(5, 2)
    assert two_density(parse_pattern("C4")) == Fraction(3, 2)
    with pytest.raises(ValueError):
        two_density(parse_pattern("K2"))


def test_strictly_two_balanced_families():
    for ell in range(3, 9):
        assert is_strictly_two_balanced(parse_pattern(f"C{ell}"))
    for s in range(3, 7):
        assert is_strictly_two_balanced(parse_pattern(f"K{s}"))
    for t in (2, 3):
        assert is_strictly_two_balanced(parse_pattern(f"K{t},{t}"))
    assert is_strictly_two_balanced(parse_pattern("Q3"))


def test_not_strictly_two_balanced():
    # triangle plus pendant edge: its K3 subgraph has 2-density 2 > 3/2
    assert not is_strictly_two_balanced(parse_pattern("edges: 1-2,2-3,1-3,3-4"))
    # path: its sub-path shares the 2-density, strictness fails
    assert not is_strictly_two_balanced(parse_pattern("edges: 1-2,2-3,3-4"))
    assert not is_strictly_two_balanced(parse_pattern("K2"))
    assert not is_strictly_two_balanced(parse_pattern("K1,3"))


# ── embeddings ───────────────────────────────────────────────────────────

def test_embedding_counts():
    c3 = parse_pattern("C3")
    k4 = parse_pattern("K4").to_graph()
    assert count_embeddings(c3, k4) == 24       # 4 triangles x aut 6
    c5 = parse_pattern("C5").to_graph()
    assert count_embeddings(c3, c5) == 0
    three = SimpleGraph(5)
    three.add_edge(0, 1)
    three.add_edge(2, 3)
    three.add_edge(1, 4)
    assert count_embeddings(parse_pattern("K2"), three) == 6


def test_contains_copy():
    c3 = parse_pattern("C3")
    path = SimpleGraph(3)
    path.add_edge(0, 1)
    path.add_edge(1, 2)
    assert not contains_copy(c3, path)
    path.add_edge(0, 2)
    assert contains_copy(c3, path)
    assert contains_copy(parse_pattern("C4"), parse_pattern("K4").to_graph())


def test_labeled_count_equals_copies_times_aut(petersen):
    hosts = [random_graph(8, 0.45, s) for s in range(4)] + [petersen.to_graph()]
    # K1's one position is already the last; the two disjoint edges have a
    # position with no placed neighbour
    for spec in ("C3", "C4", "C5", "K1,3", "K4", "K1", "K2", "edges:1-2,3-4"):
        p = parse_pattern(spec)
        for g in hosts:
            want = naive_count_copies(p, g) * count_automorphisms(p)
            assert count_embeddings(p, g) == want


def test_c5_copies_in_petersen(petersen):
    c5 = parse_pattern("C5")
    g = petersen.to_graph()
    assert count_embeddings(c5, g) // count_automorphisms(c5) == 12


# The folded search runs a plan without its last position L and finishes
# L-1 and L with mask operations; these specs cover every finishing shape,
# K1 and K2 (fewer than three positions), and disconnected patterns.
FOLD_SPECS = ("C3", "C4", "C5", "C6", "K4", "K5", "K1,3", "K2,3", "K3,3", "Q3",
              "K1", "K2", "edges:1-2,3-4", "edges:1-2,2-3,4-5", "edges:1-3",
              "edges:1-2,2-3,3-4")


def _oracle_embeddings(p, g):
    """naive_count_copies x aut, by the oracle's extender itself past the
    oracle's copy-pattern limit (Q3)."""
    if p.n <= COPY_PATTERN_LIMIT:
        return naive_count_copies(p, g) * len(_automorphisms(p))
    return sum(1 for _ in _extensions(p, _adj_sets(g), {}))


def test_fold_shape_census():
    """L-1 a parent of L with and without other parents of L, and L-1 not
    a parent of L with and without other parents, all occur in FOLD_SPECS."""
    shapes = set()
    for spec in FOLD_SPECS:
        p = parse_pattern(spec)
        if p.n >= 2:
            _, rest, adjc = _fold(_compile_plan(p, _extension_order(p, ())))
            shapes.add((adjc, bool(rest)))
    assert shapes == {(a, r) for a in (False, True) for r in (False, True)}


@pytest.mark.parametrize("spec", FOLD_SPECS)
def test_folded_search_matches_oracle(spec):
    # random hosts on 1..10 vertices, and the graphs of FOLD_SPECS: in a
    # pattern's own graph every partial embedding has one way to finish,
    # and a star holds no path on four vertices
    p = parse_pattern(spec)
    hosts = [parse_pattern(s).to_graph() for s in FOLD_SPECS]
    hosts += [random_graph(1 + i % 10, (0.3, 0.5, 0.7)[i % 3], 700 + i) for i in range(30)]
    for g in hosts:
        want = _oracle_embeddings(p, g)
        assert count_embeddings(p, g) == want, (g.n, g.edges())
        assert contains_copy(p, g) == (want > 0), (g.n, g.edges())


# ── closure templates ────────────────────────────────────────────────────

@pytest.mark.parametrize("spec", ["C3", "C4", "C5", "K4", "K3,3", "Q3"])
def test_single_template_for_edge_transitive(spec):
    p = parse_pattern(spec)
    templates = closure_templates(p)
    assert len(templates) == 1
    tmpl = templates[0]
    assert tmpl.base.edge_count == p.edge_count - 1
    assert tmpl.base.is_connected()


def test_c3_template_shape():
    tmpl = closure_templates(parse_pattern("C3"))[0]
    # base is a path of length 2; its endpoints are the missing pair
    assert tmpl.base.edge_count == 2
    u, v = tmpl.missing_pair
    assert tmpl.base.degrees[u] == 1 and tmpl.base.degrees[v] == 1
    assert len(tmpl.anchor_roles) == 1  # path edges are swapped by reversal


def test_two_orbit_template():
    # complete tripartite on parts 2,2,1: strictly 2-balanced, two edge orbits
    p = Pattern(5, [(0, 2), (0, 3), (1, 2), (1, 3),
                    (0, 4), (1, 4), (2, 4), (3, 4)], name="K2,2,1")
    assert is_strictly_two_balanced(p)
    assert len(closure_templates(p)) == 2


# (base edges, missing pair, anchor roles, folded plans) per template;
# pinned so that how Aut(H) is found cannot move the process's closure scan
GOLDEN_TEMPLATES = {'C3': [(((0, 2), (1, 2)),
                            (0, 1),
                            (0,),
                            [(((), (0,)), (), True, False, 0, -1, 2)])],
                    'C4': [(((0, 3), (1, 2), (2, 3)),
                            (0, 1),
                            (0, 2),
                            [(((), (0,), (1,)), (), True, False, 0, -1, 2),
                             (((), (0,), (1,)), (0,), False, True, 2, -1, 1)])],
                    'C5': [(((0, 4), (1, 2), (2, 3), (3, 4)),
                            (0, 1),
                            (0, 2),
                            [(((), (0,), (1,), (2,)), (), True, False, 0, -1, 2),
                             (((), (0,), (1,), (2,)), (0,), False, True, 3, -1, 2)])],
                    'C6': [(((0, 5), (1, 2), (2, 3), (3, 4), (4, 5)),
                            (0, 1),
                            (0, 2, 3),
                            [(((), (0,), (1,), (2,), (3,)), (), True, False, 0, -1, 2),
                             (((), (0,), (1,), (2,), (3,)), (0,), False, True, 4, -1, 2),
                             (((), (0,), (0,), (1,), (3,)), (2,), False, True, 4, -1, 1)])],
                    'C7': [(((0, 6), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)),
                            (0, 1),
                            (0, 2, 3),
                            [(((), (0,), (1,), (2,), (3,), (4,)), (), True, False, 0, -1, 2),
                             (((), (0,), (1,), (2,), (3,), (4,)), (0,), False, True, 5, -1, 2),
                             (((), (0,), (0,), (1,), (3,), (4,)), (2,), False, True, 5, -1, 2)])],
                    'K4': [(((0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
                            (0, 1),
                            (0, 4),
                            [(((), (0,), (0, 1)), (1,), True, False, 0, -1, 2),
                             (((), (0,), (0, 1)), (0, 1), False, True, 2, -1, 1)])],
                    'K5': [(((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)),
                            (0, 1),
                            (0, 6),
                            [(((), (0,), (0, 1), (0, 1, 2)), (1, 2), True, False, 0, -1, 2),
                             (((), (0,), (0, 1), (0, 1, 2)), (0, 1, 2), False, True, 3, -1, 1)])],
                    'K2,3': [(((0, 3), (0, 4), (1, 2), (1, 3), (1, 4)),
                              (0, 2),
                              (0, 2, 3),
                              [(((), (0,), (1,), (0, 2)), (2,), False, False, 0, -1, 2),
                               (((), (0,), (0,), (2,)), (0,), True, True, 3, 1, 2),
                               (((), (0,), (1,), (2, 0)), (0,), False, False, 2, -1, 2)])],
                    'K3,3': [(((0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)),
                              (0, 3),
                              (0, 3),
                              [(((), (0,), (1,), (0, 2), (1, 3)), (2,), True, False, 0, -1, 2),
                               (((), (0,), (1,), (0, 2), (1, 3)), (0, 2), False, True, 4, -1, 1)])],
                    'K3,4': [(((0, 4),
                               (0, 5),
                               (0, 6),
                               (1, 3),
                               (1, 4),
                               (1, 5),
                               (1, 6),
                               (2, 3),
                               (2, 4),
                               (2, 5),
                               (2, 6)),
                              (0, 3),
                              (0, 3, 4),
                              [(((), (0,), (1,), (0, 2), (1, 3), (0, 2, 4)),
                                (2, 4),
                                False,
                                False,
                                0,
                                -1,
                                2),
                               (((), (0,), (1,), (0, 2), (0, 2), (3, 4)),
                                (0, 2),
                                True,
                                True,
                                5,
                                1,
                                2),
                               (((), (0,), (1,), (0, 2), (1, 3), (4, 0, 2)),
                                (0, 2),
                                False,
                                False,
                                4,
                                -1,
                                2)])],
                    'Q3': [(((0, 2),
                             (0, 4),
                             (1, 3),
                             (1, 5),
                             (2, 3),
                             (2, 6),
                             (3, 7),
                             (4, 5),
                             (4, 6),
                             (5, 7),
                             (6, 7)),
                            (0, 1),
                            (0, 4, 5, 10),
                            [(((), (0,), (1,), (0,), (1, 3), (2, 4), (3, 5)),
                              (2,),
                              True,
                              False,
                              0,
                              -1,
                              2),
                             (((), (0,), (0,), (1, 2), (2,), (4, 3), (0, 4)),
                              (1, 5),
                              False,
                              True,
                              6,
                              -1,
                              1),
                             (((), (0,), (0,), (2, 1), (1,), (4, 3), (0, 4)),
                              (2, 5),
                              False,
                              True,
                              6,
                              -1,
                              2),
                             (((), (0,), (0,), (2, 1), (0,), (4, 1), (2, 4)),
                              (3, 5),
                              False,
                              True,
                              6,
                              -1,
                              1)])]}


@pytest.mark.parametrize("spec", list(GOLDEN_TEMPLATES))
def test_golden_closure_templates(spec):
    got = [(t.base.edges, t.missing_pair, t.anchor_roles, t._folds)
           for t in closure_templates(parse_pattern(spec))]
    assert got == GOLDEN_TEMPLATES[spec]


def test_templates_reject_invalid():
    with pytest.raises(ValueError):
        closure_templates(parse_pattern("edges: 1-2,2-3,1-3,3-4"))
    with pytest.raises(ValueError):
        closure_templates(parse_pattern("K2"))
