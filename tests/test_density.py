import hashlib
import itertools
import json
import random
from fractions import Fraction

import networkx
import pytest

from hfree import cli, density
from hfree.density import (EXTREMAL_ROWS, POCKET_BEAM, SearchBudgetExceeded,
                           _bipartite_above_floors, _nonbipartite_ceiling,
                           biclique_sides, bipartite_pocket_warm,
                           bounded_density_scan, contains_biclique,
                           extremal_row, is_triangle_free, local_search_warm)
from hfree.graphs import SimpleGraph, iter_bits, write_edge_list
from hfree.oracle import naive_max_density
from hfree.patterns import Pattern, contains_copy, parse_pattern
from hfree.process import init_process, run_until

from conftest import PETERSEN_EDGES, copy_graph, random_graph, random_triangle_free


def brute_best_density(g, k):
    best = Fraction(0)
    for size in range(1, min(k, g.n) + 1):
        for sub in itertools.combinations(range(g.n), size):
            d = Fraction(g.induced_edge_count(sub), size)
            if d > best:
                best = d
    return best


def test_examples():
    k4 = parse_pattern("K4").to_graph()
    rep = bounded_density_scan(k4, 4)
    assert rep.density == Fraction(3, 2) and rep.witness == (0, 1, 2, 3)
    assert rep.optimal
    assert bounded_density_scan(parse_pattern("C5").to_graph(), 5).density == 1
    pet = Pattern(10, PETERSEN_EDGES).to_graph()
    rep = bounded_density_scan(pet, 10)
    assert rep.density == Fraction(3, 2)
    assert rep.density == naive_max_density(pet)[0]
    assert bounded_density_scan(parse_pattern("K12").to_graph(), 12).density == Fraction(11, 2)


def test_triangle_free_detection():
    assert is_triangle_free(parse_pattern("C5").to_graph())
    assert not is_triangle_free(parse_pattern("K4").to_graph())


@pytest.mark.parametrize("seed", range(25))
def test_exact_scan_matches_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 11)
    if seed % 3 == 0:
        g = random_triangle_free(n, rng.randint(n, 4 * n), seed)
    else:
        g = random_graph(n, rng.choice([0.2, 0.4, 0.6]), seed)
    for k in (min(n, 12), 5):
        rep = bounded_density_scan(g, k)
        assert rep.density == brute_best_density(g, k), (seed, n, k)
        assert g.induced_edge_count(rep.witness) == rep.density * len(rep.witness)


def test_max_edges_by_size_monotone():
    pet = Pattern(10, PETERSEN_EDGES).to_graph()
    for g in (random_triangle_free(20, 60, 3), pet):
        rep = bounded_density_scan(g, 10)
        vals = [rep.max_edges_by_size[s] for s in sorted(rep.max_edges_by_size)]
        assert vals == sorted(vals)
        # so is the density as the cap grows
        dens = [bounded_density_scan(g, k).density for k in range(1, 11)]
        assert dens == sorted(dens) and dens[-1] == rep.density
    assert rep.density == Fraction(3, 2)    # Petersen, the last host


def test_heuristic_is_lower_bound():
    hosts = [random_graph(10, 0.5, seed + 100) for seed in range(10)]
    for g in hosts + [random_graph(40, 0.3, 5)]:
        exact = bounded_density_scan(g, 10, mode="exact")
        heur = bounded_density_scan(g, 10, mode="heuristic")
        assert heur.density <= exact.density
        assert not heur.optimal
        assert 1 <= len(heur.witness) <= 10
        assert g.induced_edge_count(heur.witness) == heur.density * len(heur.witness)


def test_scan_argument_validation():
    g = random_graph(8, 0.4, 0)
    with pytest.raises(ValueError):
        bounded_density_scan(g, 0)
    with pytest.raises(ValueError):
        bounded_density_scan(g, 13, mode="exact")
    with pytest.raises(ValueError):
        bounded_density_scan(g, 5, mode="banana")
    # heuristic mode has no cap limit
    assert bounded_density_scan(g, 30, mode="heuristic").density >= 0


def test_budget_exhaustion_raises():
    g = random_graph(40, 0.5, 7)
    with pytest.raises(SearchBudgetExceeded):
        bounded_density_scan(g, 10, node_budget=10)


def test_heuristic_scan_empty_graph():
    rep = bounded_density_scan(SimpleGraph(4), 4, mode="heuristic")
    dens, wit = rep.density, rep.witness
    assert dens == 0 and len(wit) >= 1


def test_scan_on_process_graph_small():
    c3 = parse_pattern("C3")
    st = init_process(60, c3, 0)
    run_until(st)
    rep = bounded_density_scan(st.graph, 10)
    assert rep.optimal
    assert rep.density == Fraction(23, 10)
    # on triangle-free hosts, Mantel's bound 25/10 at size 10 is met only by K5,5
    assert (rep.density == Fraction(5, 2)) == contains_copy(parse_pattern("K5,5"), st.graph)


def _threshold_check(tmp_path, capsys, g, k, c):
    path = tmp_path / "host.edges"
    with open(path, "w") as fh:
        write_edge_list(g, fh)
    code = cli.main(["density", str(path), "--k", str(k), "--threshold", str(c)])
    return code, json.loads(capsys.readouterr().out.splitlines()[-1])


def test_verify_density_bound_empirical(tmp_path, capsys):
    k12 = parse_pattern("K12").to_graph()
    code, check = _threshold_check(tmp_path, capsys, k12, 12, 2.0)
    assert code == cli.EXIT_VERIFY_FAILED
    assert check["mode"] == "empirical" and not check["passed"]
    assert check["density"] == "11/2"
    st = init_process(60, parse_pattern("C3"), 2)
    run_until(st)
    code, check = _threshold_check(tmp_path, capsys, st.graph, 10, 3.0)
    assert code == cli.EXIT_OK
    assert check["passed"] and check["vacuous"] is False


def test_report_row_shape():
    rep = bounded_density_scan(parse_pattern("K4").to_graph(), 4)
    row = rep.as_row()
    assert row["density"] == "3/2" and row["optimal"] == 1
    assert row["witness"] == "1 2 3 4"  # 1-based in output


def _induces_bipartite(g, sub):
    colour = {}
    for root in sub:
        if root in colour:
            continue
        colour[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for y in sub:
                if g.has_edge(x, y):
                    if y not in colour:
                        colour[y] = 1 - colour[x]
                        stack.append(y)
                    elif colour[y] == colour[x]:
                        return False
    return True


def _brute_bipartite_max(g, sigma):
    return max((g.induced_edge_count(sub)
                for sub in itertools.combinations(range(g.n), sigma)
                if _induces_bipartite(g, sub)), default=0)


def test_bipartite_anchor_scan_matches_brute_force():
    """Every floor from the non-bipartite ceiling up to the true max - 1,
    on sparse random triangle-free hosts and dense random bipartite ones,
    so that the missing-slot count M of the live splits runs over
    0 .. s - 2 for every left size s up to 5."""
    seen = set()
    for seed in range(40):
        rng = random.Random(seed)
        if seed % 2:
            n = rng.randint(8, 12)
            g = random_triangle_free(n, rng.randint(3 * n, 6 * n), seed)
        else:
            n = rng.randint(10, 12)
            g = SimpleGraph(n)
            p = rng.choice([0.7, 0.8, 0.9, 0.95])
            for u in range(n // 2):
                for v in range(n // 2, n):
                    if rng.random() < p:
                        g.add_edge(u, v)
        assert is_triangle_free(g)
        lowest = {}
        for sigma in range(5, n + 1):
            top = _brute_bipartite_max(g, sigma)
            nb = _nonbipartite_ceiling(sigma)
            if top > nb:
                lowest[sigma] = top
            for floor in range(nb, top):
                for s in range(2, sigma // 2 + 1):
                    if s * (sigma - s) > floor:
                        seen.add((s, s * (sigma - s) - floor - 1))
                got = _bipartite_above_floors(g, {sigma: floor})
                assert set(got) == {sigma}, (seed, sigma, floor)
                e, wit = got[sigma]
                assert e == top, (seed, sigma, floor)
                assert len(set(wit)) == sigma and all(0 <= v < n for v in wit)
                assert g.induced_edge_count(wit) == top
        # all sizes at once, each at its ceiling: one shared partner table
        got = _bipartite_above_floors(
            g, {sigma: _nonbipartite_ceiling(sigma) for sigma in range(5, n + 1)})
        assert {sigma: e for sigma, (e, _) in got.items()} == lowest, seed
    assert all((s, m) in seen for s in range(2, 6) for m in range(s - 1)), sorted(seen)


def test_bipartite_anchor_scan_guards():
    g = parse_pattern("K2,3").to_graph()
    # (2, 4) at floor 5 misses up to 2 slots: fewer than two complete rows
    with pytest.raises(SearchBudgetExceeded, match="precondition"):
        _bipartite_above_floors(g, {6: 5})
    # the one anchor pair of K2,3 takes the one unit of budget
    assert _bipartite_above_floors(g, {5: 5}, [1]) == {5: (6, (0, 1, 2, 3, 4))}
    with pytest.raises(SearchBudgetExceeded, match="budget"):
        _bipartite_above_floors(g, {5: 5}, [0])


def test_witness_check_raises(monkeypatch):
    g = random_graph(9, 0.5, 4)
    monkeypatch.setattr(SimpleGraph, "induced_edge_count",
                        lambda self, vertices: -1)
    with pytest.raises(RuntimeError, match="witness"):
        bounded_density_scan(g, 6)
    with pytest.raises(RuntimeError, match="witness"):
        bounded_density_scan(g, 6, mode="heuristic")


ROW_KEYS = {"size_cap", "density", "density_float", "witness", "method",
            "optimal", "nodes"}


def test_settle_path_on_maximal_triangle_free_host():
    st = init_process(60, parse_pattern("C3"), 0)
    run_until(st)
    rep = bounded_density_scan(st.graph, 10)
    sizes = list(range(1, 11))
    assert list(rep.settled_by) == sizes == list(rep.nodes_by_size)
    # every size is proven without a single branch-and-bound node
    assert set(rep.settled_by.values()) <= {"warm", "anchor"}
    assert rep.nodes_by_size == dict.fromkeys(sizes, 0)
    assert rep.nodes_explored == 0
    assert set(rep.as_row()) == ROW_KEYS


def test_settle_path_on_c4_free_host():
    st = init_process(30, parse_pattern("C4"), 0)
    run_until(st)
    assert not is_triangle_free(st.graph)
    rep = bounded_density_scan(st.graph, 6)
    assert "anchor" not in rep.settled_by.values()
    assert sum(rep.nodes_by_size.values()) == rep.nodes_explored > 0
    for size, path in rep.settled_by.items():
        assert (path == "bnb") == (rep.nodes_by_size[size] > 0), size
    assert rep.settled_by[6] == "bnb"
    assert set(rep.as_row()) == ROW_KEYS


def test_settle_paths_all_three():
    g = random_triangle_free(29, 77, 29)
    rep = bounded_density_scan(g, 10)
    assert rep.settled_by[7] == "anchor" and rep.nodes_by_size[7] == 0
    assert {rep.settled_by[s] for s in (8, 9, 10)} == {"bnb"}
    assert sum(rep.nodes_by_size.values()) == rep.nodes_explored


# Digests of the pocket warm start's full result, recorded with the beam
# search that rebuilt each frontier entry's candidates from its common
# neighbourhood; the warm values and witnesses must not move.
@pytest.mark.parametrize("host,cap,want", [
    ("c3-process", 10, "490f4dde6a9515e2755c1996cf64b15a152ec37ec197ccc7f84323ab3f514341"),
    ("triangle-free", 10, "d10d9f1a297be348341551250d7827144c9c2d7084ffa6f991a252f3815e2ad3"),
    ("random", 8, "204b4d49394ea84cdec1f51d3927edef2dd63212bc2adddd6990a6e0e79c21ad"),
])
def test_golden_pocket_warm(host, cap, want):
    if host == "c3-process":
        st = init_process(120, parse_pattern("C3"), 0)
        run_until(st)
        g = st.graph
    elif host == "triangle-free":
        g = random_triangle_free(40, 300, 5)
    else:
        g = random_graph(30, 0.3, 2)
    got = sorted(bipartite_pocket_warm(g, cap).items())
    assert hashlib.sha256(repr(got).encode()).hexdigest() == want


def reference_pocket_warm(g, cap):
    """The pocket beam as a list scan: one popcount per pool row, then a
    full sort of the qualifying rows by (count, row)."""
    n = g.n
    adj = g.adj
    best = {}

    def offer(left, common):
        s = len(left)
        tmax = min(common.bit_count(), cap - s)
        for t in range(1, tmax + 1):
            if s * t > best.get(s + t, (0, ()))[0]:
                break
        else:
            return
        rs = []
        m = common
        while len(rs) < tmax:
            lsb = m & -m
            rs.append(lsb.bit_length() - 1)
            m ^= lsb
        for t in range(1, tmax + 1):
            if s * t > best.get(s + t, (0, ()))[0]:
                best[s + t] = (s * t, tuple(sorted(left + rs[:t])))

    for u in range(n):
        au = adj[u]
        offer([u], au)
        two_hop = 0
        for c in iter_bits(au):
            two_hop |= adj[c]
        # (left, common, pool): pool holds every row that may qualify
        frontier = [([u], au, list(iter_bits(two_hop & ~(1 << u))))]
        for _ in range(min(cap - 1, 5) - 1):
            nxt = []
            for left, common, pool in frontier:
                if common.bit_count() < 2:
                    continue
                last = left[-1]
                scored = []
                for w in pool:
                    c2 = (adj[w] & common).bit_count()
                    if c2 >= 2 and w != last:
                        scored.append((c2, w))
                qual = [w for _, w in scored]
                scored.sort(reverse=True)
                for c2, w in scored[:POCKET_BEAM]:
                    left2 = left + [w]
                    com2 = common & adj[w]
                    offer(left2, com2)
                    nxt.append((left2, com2, qual))
            nxt.sort(key=lambda it: -(it[1].bit_count() * (len(it[0]) + 1)))
            frontier = nxt[: POCKET_BEAM * 2]
    return best


def _pocket_hosts():
    """Seeded hosts of every kind the density scan meets: G(n, p), random
    triangle-free, greedy C4-free, plus a one-vertex and an edgeless host."""
    yield "one-vertex", SimpleGraph(1)
    yield "edgeless", SimpleGraph(9)
    c4 = parse_pattern("C4")
    for seed in range(12):
        rng = random.Random(seed)
        yield f"gnp-{seed}", random_graph(rng.randint(2, 40),
                                          rng.choice([0.1, 0.2, 0.3, 0.5]), seed)
        n = rng.randint(5, 60)
        yield f"tri-free-{seed}", random_triangle_free(n, rng.randint(n, 8 * n), seed)
        if seed < 4:
            yield f"c4-free-{seed}", _random_free_host(c4, rng.randint(10, 18), seed)


def test_pocket_warm_matches_reference():
    for name, g in _pocket_hosts():
        for cap in range(1, 13):
            assert bipartite_pocket_warm(g, cap) == reference_pocket_warm(g, cap), \
                (name, g.n, cap)


def test_plane_helpers_match_popcounts():
    rng = random.Random(0)
    for _ in range(60):
        width = rng.randint(1, 70)
        adj = [rng.getrandbits(width) for _ in range(rng.randint(1, 40))]
        first, second = (rng.getrandbits(len(adj)) for _ in range(2))
        planes = density._plane_add([], adj, first)
        assert density._plane_add(planes, adj, second) is planes
        counts = [sum(adj[c] >> w & 1 for rows in (first, second)
                      for c in iter_bits(rows)) for w in range(width)]
        assert [sum((p >> w & 1) << i for i, p in enumerate(planes))
                for w in range(width)] == counts
        every = (1 << width) - 1
        assert density._plane_ge(planes, 0) == -1
        # k past the widest count the planes can hold gives no row
        for k in range(1, (1 << len(planes)) + 3):
            want = sum(1 << w for w in range(width) if counts[w] >= k)
            assert density._plane_ge(planes, k) & every == want, (adj, k)
        assert density._plane_ge(planes, 1 << len(planes)) == 0


def reference_greedy_grow(g, cap, rng, record):
    """The greedy restart as a list scan: one popcount per candidate row at
    every growth step and every swap."""
    n = g.n
    adj = g.adj
    start = rng.randrange(n)
    cur = [start]
    cur_mask = 1 << start
    e = 0

    def offer(size, edges, mask):
        if edges > record.get(size, (-1, ()))[0]:
            record[size] = (edges, tuple(iter_bits(mask)))

    offer(1, 0, cur_mask)
    while len(cur) < min(cap, n):
        cand_mask = 0
        for v in cur:
            cand_mask |= adj[v]
        cand_mask &= ~cur_mask
        if not cand_mask:
            break
        best_gain, pool = -1, []
        for w in iter_bits(cand_mask):
            gain = (adj[w] & cur_mask).bit_count()
            if gain > best_gain:
                best_gain, pool = gain, [w]
            elif gain == best_gain:
                pool.append(w)
        w = rng.choice(pool)
        cur.append(w)
        cur_mask |= 1 << w
        e += best_gain
        offer(len(cur), e, cur_mask)
    # swap sweeps at the final size
    for _ in range(2):
        improved = False
        for v in list(cur):
            loss = (adj[v] & cur_mask).bit_count()
            reduced = cur_mask & ~(1 << v)
            cand_mask = 0
            for x in iter_bits(reduced):
                cand_mask |= adj[x]
            cand_mask &= ~cur_mask
            for w in iter_bits(cand_mask):
                gain = (adj[w] & reduced).bit_count()
                if gain > loss:
                    cur.remove(v)
                    cur.append(w)
                    cur_mask = reduced | (1 << w)
                    e += gain - loss
                    offer(len(cur), e, cur_mask)
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break


def reference_local_search_warm(g, cap, seed=0):
    record = reference_pocket_warm(g, cap)
    record.setdefault(1, (0, (0,)))
    rng = random.Random(seed)
    for _ in range(density.WARM_RESTARTS):
        reference_greedy_grow(g, cap, rng, record)
    return record


def reference_above_floors(g, floors, budget=None):
    """The anchor pass as it was before the one-sided K_{s,s} anchoring:
    every anchor tuple anchors on its whole common neighbourhood, and the
    partner table takes one popcount per two-hop pair."""
    n = g.n
    adj = g.adj
    best = dict(floors)
    wits = {}
    jobs = []   # (sigma, s, t)
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
    partners = [0] * n
    for u in range(n):
        au = adj[u]
        two_hop = 0
        for c in iter_bits(au):
            two_hop |= adj[c]
        pmask = 0
        for v in iter_bits(two_hop >> (u + 1)):
            v += u + 1
            if (au & adj[v]).bit_count() >= min_t:
                pmask |= 1 << v
        partners[u] = pmask

    deg = [a.bit_count() for a in adj]

    def tick(sigma):
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

        def settle(anchors, common):
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

            def eval_rows(rows):
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

            def pick_rows(start, rows, have):
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

        def grow(anchors, common, nxt):
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
            if deg[u] >= t and grow([u], adj[u], partners[u]):
                break
    return {sigma: (best[sigma], wits[sigma]) for sigma in wits}


def _planted_biclique_host(n, s, seed):
    """A random triangle-free host grown around a K_{s,s} on random
    vertices, so its sides interleave with the rest of the labels."""
    rng = random.Random(seed)
    g = SimpleGraph(n)
    side = rng.sample(range(n), 2 * s)
    for u in side[:s]:
        for v in side[s:]:
            g.add_edge(u, v)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs[: 3 * n]:
        if not g.has_edge(u, v) and not g.adj[u] & g.adj[v]:
            g.add_edge(u, v)
    return g


def _scan_hosts():
    """Random triangle-free hosts, triangle-free hosts around a planted
    K_{s,s}, and dense random hosts with triangles."""
    for seed in range(6):
        rng = random.Random(seed)
        n = rng.randint(12, 40)
        yield f"tri-free-{seed}", random_triangle_free(n, rng.randint(2 * n, 8 * n), seed)
        yield f"planted-{seed}", _planted_biclique_host(rng.randint(14, 36),
                                                        2 + seed % 5, seed)
        yield f"dense-{seed}", random_graph(rng.randint(10, 16),
                                            rng.choice([0.5, 0.6, 0.7]), seed)


def test_local_search_warm_matches_reference():
    for name, g in _scan_hosts():
        for cap in range(1, 13):
            for seed in (0, cap):
                assert local_search_warm(g, cap, seed) == \
                    reference_local_search_warm(g, cap, seed), (name, cap, seed)


def test_anchor_pass_matches_reference():
    """Equal results and budget spent at the floors the scan uses, at the
    non-bipartite ceilings, and one edge below the balanced K_{s,t} at
    every size (an even size is then a one-sided K_{s,s} job)."""
    one_sided_hits = 0
    for name, g in _scan_hosts():
        for cap in range(1, 13):
            warm = local_search_warm(g, cap)
            sizes = range(5, min(cap, g.n) + 1)
            nb = {sigma: _nonbipartite_ceiling(sigma) for sigma in sizes}
            for floors in (
                    {sigma: max(nb[sigma], warm.get(sigma, (0, ()))[0]) for sigma in sizes},
                    nb,
                    {sigma: max(nb[sigma], (sigma // 2) * (sigma - sigma // 2) - 1)
                     for sigma in sizes}):
                got, want = [10 ** 9], [10 ** 9]
                assert _bipartite_above_floors(g, floors, got) == \
                    reference_above_floors(g, floors, want), (name, cap, floors)
                assert got == want, (name, cap, floors)
        s = 2 + int(name.rsplit("-", 1)[1]) % 5
        if name.startswith("planted") and 2 * s <= 12:
            found = _bipartite_above_floors(g, {2 * s: max(s * s - 1, _nonbipartite_ceiling(2 * s))})
            one_sided_hits += found[2 * s][0] == s * s
    assert one_sided_hits >= 4, one_sided_hits


def test_degeneracy_rank_only_for_branch_and_bound(monkeypatch):
    calls = []
    real = density._degeneracy_rank
    monkeypatch.setattr(density, "_degeneracy_rank",
                        lambda g: calls.append(g) or real(g))
    # every size settled by the warm start or the anchor pass: no rank
    assert bounded_density_scan(_process_host("C3", 60), 10).nodes_explored == 0
    assert calls == []
    # sizes 8 to 10 go to branch-and-bound, which ranks the host once
    assert bounded_density_scan(random_triangle_free(29, 77, 29), 10).nodes_explored > 0
    assert len(calls) == 1


def _process_host(spec, n):
    st = init_process(n, parse_pattern(spec), 0)
    run_until(st)
    return st.graph


# sha256 of repr(report) for both modes, recorded before the exact and the
# heuristic scan shared one entry point: (host, cap, pattern) -> digests.
# The last host has sizes settled by the warm start, the anchor pass and
# branch-and-bound.
GOLDEN_REPORTS = {
    "empty-4": (lambda: SimpleGraph(4), 4, None, {
        "exact": "05891b6ba7907cd65cceea1e05a5144813c91be60354198cd8b6015a6057cb63",
        "heuristic": "3ac80e869f6ea680b8d08a2557fc1d26d95800fd1d0ef1aa718a0f329c3fb334"}),
    "petersen": (lambda: Pattern(10, PETERSEN_EDGES).to_graph(), 10, None, {
        "exact": "4cd0e80b1d57ec27f5a72b1bea786954ded595328f4a24306c62ec2cebdd54be",
        "heuristic": "a20dfe5ed7a384f46cd825ff23dcc072601a9e1e1761d691c37bff8133cc5e0f"}),
    "c3-process-60": (lambda: _process_host("C3", 60), 10, None, {
        "exact": "2368e1197e285614f005349ada7c3196bc1fef124d99f821f8044a80e9fee43a",
        "heuristic": "bb68a865bc2c058902e700603021f1fe4d5045455b59b9509c78f6742fef90e0"}),
    "c4-process-30": (lambda: _process_host("C4", 30), 6, "C4", {
        "exact": "4212e4911317a9b90cba3cc63f9806fa017970a543c772d8d00a6927cc0a6a6c",
        "heuristic": "72ad19aecae5620ca11e75e065c6500a133f79ed26c15a789e7619f43f7dd328"}),
    "k4-process-20": (lambda: _process_host("K4", 20), 8, "K4", {
        "exact": "bd66f4d9c9d9078e5bb40e9718936ca7cee1d736f064a46250c136fce8e98e41",
        "heuristic": "4c3607d47a0a41d41bdfe726c1b782d770d860425bd9be8d292c28e0435775f1"}),
    "triangle-free-29": (lambda: random_triangle_free(29, 77, 29), 10, None, {
        "exact": "0eced9c24fa211cbfa0d513191b1fdd69eec786f1cb763e2f3ac2e43389c154d",
        "heuristic": "98e312b8287bff61d1e14ee8c79e88acb143b7361356ff2115a247682dc23a96"}),
}


@pytest.mark.parametrize("host", sorted(GOLDEN_REPORTS))
def test_golden_reports(host):
    make, cap, spec, want = GOLDEN_REPORTS[host]
    g = make()
    pattern = parse_pattern(spec) if spec else None
    for mode in ("exact", "heuristic"):
        rep = bounded_density_scan(g, cap, mode=mode, pattern=pattern)
        assert hashlib.sha256(repr(rep).encode()).hexdigest() == want[mode], mode


def test_node_budget_covers_nodes_and_anchor_units():
    # the anchor pass spends budget that nodes_explored does not count
    g = random_triangle_free(29, 77, 29)
    rep = bounded_density_scan(g, 10)
    assert rep.anchor_units > 0 and rep.nodes_explored > 0
    spent = rep.nodes_explored + rep.anchor_units
    assert bounded_density_scan(g, 10, node_budget=spent) == rep
    with pytest.raises(SearchBudgetExceeded):
        bounded_density_scan(g, 10, node_budget=spent - 1)
    assert "anchor_units" not in rep.as_row()


# ── the ex(s, H) ceiling ─────────────────────────────────────────────────

def test_extremal_rows_match_graph_atlas():
    """Every table entry is the most edges of an atlas graph on s vertices
    (the atlas has every graph on at most 7) with no copy of H."""
    atlas = {}
    for nxg in networkx.graph_atlas_g():
        s = nxg.number_of_nodes()
        if s == 0:
            continue
        g = SimpleGraph(s)
        for u, v in nxg.edges():
            g.add_edge(u, v)
        atlas.setdefault(s, []).append(g)
    assert sorted(atlas) == list(range(1, 8))
    for spec, row in EXTREMAL_ROWS.items():
        h = parse_pattern(spec)
        want = tuple(max(g.edge_count for g in atlas[s] if not contains_copy(h, g))
                     for s in range(1, 8))
        assert row == want, spec


def test_extremal_row_matches_by_isomorphism():
    assert extremal_row(parse_pattern("K3,2")) == EXTREMAL_ROWS["K2,3"]
    assert extremal_row(parse_pattern("edges:1-3,3-2,2-4,4-1")) == EXTREMAL_ROWS["C4"]
    assert extremal_row(parse_pattern("edges:1-2,2-3,3-4,4-5,5-1")) == EXTREMAL_ROWS["C5"]
    # same vertex and edge counts as C4, but a triangle with a pendant edge
    assert extremal_row(parse_pattern("edges:1-2,2-3,3-1,3-4")) is None
    for spec in ("C3", "C6", "K5", "Q3"):
        assert extremal_row(parse_pattern(spec)) is None, spec


def _random_free_host(h, n, seed, triangle_free=False):
    """Random H-free graph: pairs in random order, each kept unless it makes
    a copy of H (or, if asked, a triangle); stops early for one seed in
    four, so not every host is maximal."""
    rng = random.Random(seed)
    g = SimpleGraph(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    if seed % 4 == 3:
        pairs = pairs[: len(pairs) // 2]
    for u, v in pairs:
        if triangle_free and g.adj[u] & g.adj[v]:
            continue
        bigger = copy_graph(g)
        bigger.add_edge(u, v)
        if not contains_copy(h, bigger):
            g = bigger
    return g


@pytest.mark.parametrize("spec", sorted(EXTREMAL_ROWS))
def test_extremal_ceiling_keeps_every_result(spec):
    h = parse_pattern(spec)
    nodes = {"plain": 0, "pattern": 0}
    for seed in range(8):
        g = _random_free_host(h, 7 + seed, seed)
        assert not contains_copy(h, g)
        for cap in range(1, 8):
            plain = bounded_density_scan(g, cap)
            rep = bounded_density_scan(g, cap, pattern=h)
            assert (rep.density, rep.witness, rep.max_edges_by_size) == \
                (plain.density, plain.witness, plain.max_edges_by_size), (seed, cap)
            assert rep.density == brute_best_density(g, cap), (seed, cap)
            nodes["plain"] += plain.nodes_explored
            nodes["pattern"] += rep.nodes_explored
            # a scan's own spend is always a sufficient budget
            again = bounded_density_scan(g, cap, pattern=h,
                                       node_budget=rep.nodes_explored + rep.anchor_units)
            assert again == rep
    assert nodes["pattern"] < nodes["plain"], nodes


@pytest.mark.parametrize("spec", sorted(EXTREMAL_ROWS))
def test_extremal_ceiling_skipped_on_host_with_copy(spec):
    h = parse_pattern(spec)
    for seed in range(3):
        g = random_graph(12, 0.7, seed)
        assert contains_copy(h, g)
        plain = bounded_density_scan(g, 7)
        assert plain.nodes_explored > 0
        assert bounded_density_scan(g, 7, pattern=h) == plain


def test_copy_guard_runs_only_where_a_row_binds(monkeypatch):
    """The copy guard on the host, contains_biclique for K_{s,t} rows, runs
    only when some row entry up to the cap is below the host's default
    ceiling; skipping it leaves the report equal to the scan without the
    pattern."""
    searched = []
    real = density.contains_biclique

    def spy(g, s, t):
        searched.append(g)
        return real(g, s, t)

    monkeypatch.setattr(density, "contains_biclique", spy)
    k33 = parse_pattern("K3,3")
    tri_free = random_triangle_free(29, 77, 29)
    # ex(s, K3,3) >= s^2/4 for every s <= 7: the row never binds here
    assert bounded_density_scan(tri_free, 7, pattern=k33) == bounded_density_scan(tri_free, 7)
    assert not any(g is tri_free for g in searched)
    host = _random_free_host(k33, 12, 0)
    assert not is_triangle_free(host)
    # below C(s, 2) only from s = 6 on
    assert bounded_density_scan(host, 5, pattern=k33) == bounded_density_scan(host, 5)
    assert not any(g is host for g in searched)
    rep = bounded_density_scan(host, 7, pattern=k33)
    assert any(g is host for g in searched)
    plain = bounded_density_scan(host, 7)
    assert (rep.density, rep.max_edges_by_size) == (plain.density, plain.max_edges_by_size)
    # an isomorphic edges: spec takes the same guard and gives the same report
    calls = len(searched)
    iso = parse_pattern("edges:1-4,1-5,1-6,2-4,2-5,2-6,3-4,3-5,3-6")
    assert bounded_density_scan(host, 7, pattern=iso) == rep
    assert len(searched) == calls + 1 and searched[-1] is host
    # a C4-free host with triangles: C4 = K2,2 takes the same guard, from
    # s = 4 on, where ex(4, C4) = 4 < C(4, 2)
    c4 = parse_pattern("C4")
    c4_host = _random_free_host(c4, 12, 1)
    assert not is_triangle_free(c4_host)
    assert bounded_density_scan(c4_host, 3, pattern=c4) == bounded_density_scan(c4_host, 3)
    assert not any(g is c4_host for g in searched)
    rep = bounded_density_scan(c4_host, 7, pattern=c4)
    assert any(g is c4_host for g in searched)
    plain = bounded_density_scan(c4_host, 7)
    assert (rep.density, rep.max_edges_by_size) == (plain.density, plain.max_edges_by_size)
    assert rep.nodes_explored < plain.nodes_explored


def _plant(g, left, right):
    g = copy_graph(g)
    for u in left:
        for v in right:
            if not g.has_edge(u, v):
                g.add_edge(u, v)
    return g


def _biclique_guard_hosts(h, s, t):
    """G(n, p) hosts at several densities, greedy and process hosts free of
    h with and without triangles, and those hosts with a planted K_{s,t}:
    on random vertices, with the small side above every label of the large
    side, and with the small side below it."""
    for seed in range(6):
        for p in (0.15, 0.3, 0.45, 0.6):
            yield random_graph(9 + seed, p, seed)
    free = [_random_free_host(h, 10 + seed, seed, triangle_free=seed % 2 == 0)
            for seed in range(6)]
    free.append(_process_host(h.name, 40))
    for g in free:
        yield g
        rng = random.Random(g.edge_count)
        picked = rng.sample(range(g.n), s + t)
        yield _plant(g, picked[:s], picked[s:])
        yield _plant(g, range(g.n - s, g.n), range(t))
        yield _plant(g, range(s), range(g.n - t, g.n))


@pytest.mark.parametrize("s,t", [(2, 2), (2, 3), (3, 3)])
def test_biclique_guard_matches_contains_copy(s, t):
    """contains_biclique(g, s, t) == contains_copy(K_{s,t}, g) on every host,
    for K_{s,t} and isomorphic relabelled specs alike."""
    h = parse_pattern(f"K{s},{t}")
    edges = [(u, v) for u in range(s) for v in range(s, s + t)]
    perm = random.Random(s * t).sample(range(1, s + t + 1), s + t)
    spec = "edges:" + ",".join(f"{perm[u]}-{perm[v]}" for u, v in edges)
    swapped = parse_pattern(f"K{t},{s}")
    specs = (h, swapped, parse_pattern(spec))
    assert [biclique_sides(p) for p in specs] == [(s, t)] * 3
    found = {True: 0, False: 0}
    for g in _biclique_guard_hosts(h, s, t):
        got = contains_biclique(g, s, t)
        for p in specs:
            assert got == contains_copy(p, g), (p, g)
        found[got] += 1
    assert min(found.values()) >= 10, found
    # K2,4 and K2,5 have more balanced splits with more cross slots, whose
    # jobs would run alongside; K3,4 has none
    assert biclique_sides(parse_pattern("K4,3")) == (3, 4)
    for spec in ("C3", "C5", "C6", "K4", "K1,3", "K1", "Q3", "K2,4", "K5,2",
                 "edges:1-2,2-3,3-1,3-4", "edges:1-3,1-4,1-5,2-3,2-4,2-5,1-2"):
        assert biclique_sides(parse_pattern(spec)) is None, spec


@pytest.mark.parametrize("seed", [1, 2])
def test_scan_stages_match_references_in_the_benchmark_regime(seed):
    """Hosts the size of the density-c3-anchor ones (n = 300, 5,284 and
    5,300 edges, no K5,5) at cap 10: the pocket beam, and the anchor pass
    with its budget spent, at the floors the scan uses.  Seed 1 runs only
    the (10, 5, 5) job with M = 0; seed 2 runs (10, 4, 6) with M = 1 and
    (10, 5, 5) with M = 2."""
    g = random_triangle_free(300, 44850, seed)
    assert bipartite_pocket_warm(g, 10) == reference_pocket_warm(g, 10)
    warm = local_search_warm(g, 10)
    floors = {sigma: max(_nonbipartite_ceiling(sigma), warm.get(sigma, (0, ()))[0])
              for sigma in range(5, 11)}
    got, want = [10 ** 9], [10 ** 9]
    assert _bipartite_above_floors(g, floors, got) == \
        reference_above_floors(g, floors, want)
    assert got == want
