import random

import pytest

from hfree.analysis import (baseline_uniform_process, check_key_inequality,
                            count_copies_at_m, default_checkpoints,
                            fit_edge_exponent, monitor_trajectory)
from hfree.graphs import pair_from_index, pair_index
from hfree.patterns import parse_pattern
from hfree.process import compute_O_F, init_process, iter_process, run_until
from hfree.theory import Constants

C3 = parse_pattern("C3")


def random_pairs_inside(vertices, count, n, rng):
    """``count`` distinct pair ids drawn uniformly from the pairs inside
    ``vertices``."""
    verts = sorted(set(vertices))
    inside = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1:]]
    return {pair_index(u, v, n) for u, v in rng.sample(inside, count)}


def test_monitor_trajectory_records():
    n = 60
    consts = Constants.for_run(C3, n)
    st = init_process(n, C3, 0)
    marks = [2, 5, 9]
    records, notices = monitor_trajectory(iter_process(st, 9), consts, marks,
                                          cuv_samples=3, intersection_samples=5)
    assert [r.step for r in records] == marks
    for rec in records:
        assert rec.open_count > 0
        assert rec.open_ratio == pytest.approx(rec.open_count / rec.open_bound)
        assert len(rec.cuv_sizes) == 3
        assert rec.cuv_reference > 0
        assert len(rec.intersection_sizes) == 5
    assert not notices


def test_intersections_are_sampled_without_cuv_samples():
    c4 = parse_pattern("C4")
    consts = Constants.for_run(c4, 40)
    records, _ = monitor_trajectory(iter_process(init_process(40, c4, 0), 60), consts,
                                    [20, 60], cuv_samples=0, intersection_samples=50)
    for rec in records:
        assert rec.cuv_sizes == [] and rec.cuv_reference == 0
        assert len(rec.intersection_sizes) == 50 and rec.intersection_reference > 0
        assert rec.as_row()["ix_max"] != ""


def test_monitor_skips_dead_checkpoints():
    consts = Constants.for_run(C3, 30)
    st = init_process(30, C3, 1)
    records, notices = monitor_trajectory(iter_process(st), consts,
                                          [5, 10**6], cuv_samples=0)
    assert len(records) == 1
    assert any("beyond process lifetime" in note for note in notices)


def test_monitor_sampling_does_not_perturb():
    a = init_process(40, C3, 7)
    consts = Constants.for_run(C3, 40)
    monitor_trajectory(iter_process(a, 20), consts, [5, 10, 20],
                       cuv_samples=5)
    b = init_process(40, C3, 7)
    run_until(b, 20)
    assert a.graph.adj == b.graph.adj
    assert a._draw == b._draw
    assert a.rng.getstate() == b.rng.getstate()


def _mark_edge_open(st):
    """Move one open pair's mask bits onto an edge: the mask popcount still
    matches the open counter, but that edge now also reads as open."""
    u, v = next(st.graph.edges())
    a, b = pair_from_index(st.open_pair_ids()[0], st.n)
    for x, y in ((u, v), (v, u), (a, b), (b, a)):
        st.open_nbr[x] ^= 1 << y


@pytest.mark.parametrize("corrupt,message", [
    (_mark_edge_open, "both an edge and open"),
    (lambda st: st.open_nbr.__setitem__(0, st.open_nbr[0] ^ 2), "open-neighbour"),
])
def test_checkpoint_rejects_inconsistent_state(corrupt, message):
    def corrupted(states):
        for st in states:
            if st.step == 5:
                corrupt(st)
            yield st

    consts = Constants.for_run(C3, 30)
    st = init_process(30, C3, 2)
    monitor_trajectory(iter_process(st, 4), consts, [4])  # consistent
    with pytest.raises(RuntimeError, match=message):
        monitor_trajectory(corrupted(iter_process(st, 9)), consts, [5])


def test_default_checkpoints_reasonable():
    consts = Constants.for_run(C3, 2000)
    marks = default_checkpoints(consts)
    assert marks[-1] == consts.m_steps
    assert all(1 <= m <= consts.m_steps for m in marks)
    assert marks == sorted(set(marks))


def test_count_copies_impossible_flag():
    assert count_copies_at_m(C3, C3, 30, "0.01", trials=3) is None
    # K4 contains a triangle
    assert count_copies_at_m(C3, parse_pattern("K4"), 30, "0.01", trials=2) is None


def test_count_copies_edge_always_present():
    runs = count_copies_at_m(C3, parse_pattern("K2"), 40, "0.05", trials=3)
    assert runs is not None and len(runs) == 3
    assert all(present is True for _, present in runs)
    assert all(steps_run >= 1 for steps_run, _ in runs)


def test_count_copies_counting_mode():
    runs = count_copies_at_m(C3, parse_pattern("K2"), 30, "0.05", trials=2,
                             presence_only=False)
    for steps_run, count in runs:
        assert count == steps_run  # edge copies = edges present


def test_baseline_uniform_process():
    g = baseline_uniform_process(10, 45, 0)
    assert g.edge_count == 45
    assert baseline_uniform_process(10, 0, 3).edge_count == 0
    with pytest.raises(ValueError):
        baseline_uniform_process(10, 46, 0)
    a = baseline_uniform_process(30, 40, 5)
    b = baseline_uniform_process(30, 40, 5)
    assert list(a.edges()) == list(b.edges())


def test_check_key_inequality_tiny_cases():
    n = 24
    consts = Constants.for_run(C3, n)
    st = init_process(n, C3, 3)
    run_until(st, consts.m_steps)
    # F consisting only of edges of the graph: O_F empty, record consistent
    some_edges = list(st.graph.edges())[:3]
    span = {w for uv in some_edges for w in uv}
    f = [pair_index(u, v, n) for u, v in some_edges]
    rec = check_key_inequality(st, span, f, consts)
    assert rec["a"] == len(span) and rec["f_size"] == len(some_edges)
    assert rec["o_f_size"] == 0 and rec["f_open"] == 0
    assert rec["inclusion_exclusion_bound"] <= 0
    assert rec["identity_holds"]
    assert rec["f_open_identity"] is True  # no closed pair in F
    # singleton open F: |O_F| equals |C_uv| and the bound is exact
    open_pid = st.open_pair_ids()[0]
    rec1 = check_key_inequality(st, pair_from_index(open_pid, n), [open_pid], consts)
    assert rec1["o_f_size"] == rec1["sum_cuv"] == rec1["inclusion_exclusion_bound"]
    assert rec1["identity_holds"]


def test_check_key_inequality_random_states():
    n = 20
    consts = Constants.for_run(C3, n)
    for seed in range(5):
        st = init_process(n, C3, seed)
        run_until(st, max(2, consts.m_steps))
        rng = random.Random(seed)
        verts = rng.sample(range(n), 8)
        f = random_pairs_inside(verts, 6, n, rng)
        rec = check_key_inequality(st, verts, f, consts)
        assert rec["identity_holds"]
        assert rec["a"] == 8
        want = compute_O_F(st, f)
        assert rec["o_f_size"] == len(want)


def test_check_key_inequality_midrange_instance():
    # a = 20 vertex set with 20 random pairs, halfway through the tracked
    # phase: the bound is an identity and must hold; the log-based
    # reference is recorded, not asserted, at this scale
    n = 400
    consts = Constants.for_run(C3, n)
    st = init_process(n, C3, 0)
    run_until(st, (consts.m_steps + 1) // 2)
    rng = random.Random(1)
    verts = rng.sample(range(n), 20)
    f = random_pairs_inside(verts, 20, n, rng)
    rec = check_key_inequality(st, verts, f, consts)
    assert rec["in_step_range"]
    assert rec["a"] == 20 and rec["f_size"] == 20
    assert rec["identity_holds"]
    assert rec["reference"] > 0


def test_check_key_inequality_rejects_pair_outside_vertex_set():
    n = 20
    consts = Constants.for_run(C3, n)
    st = run_until(init_process(n, C3, 0), 5)
    inside = pair_index(1, 2, n)
    assert check_key_inequality(st, [1, 2], [inside], consts)["f_size"] == 1
    with pytest.raises(ValueError, match=r"pair \(1,3\) of F is not inside"):
        check_key_inequality(st, [1, 2], [inside, pair_index(1, 3, n)], consts)


def test_fit_edge_exponent_exact_power_laws():
    data = [(n, float(n) ** 1.5) for n in (100, 200, 400, 800) for _ in range(3)]
    slope, stderr = fit_edge_exponent(data)
    assert slope == pytest.approx(1.5, abs=1e-9)
    assert stderr == pytest.approx(0, abs=1e-12)
    data = [(n, 7.0 * n) for n in (100, 200, 400, 800) for _ in range(3)]
    slope, stderr = fit_edge_exponent(data)
    assert slope == pytest.approx(1.0, abs=1e-9)
    assert stderr == pytest.approx(0, abs=1e-12)


def test_fit_edge_exponent_errors():
    with pytest.raises(ValueError):
        fit_edge_exponent([(100, 10.0)] * 3 + [(200, 20.0)] * 3 + [(400, 40.0)] * 3)
    with pytest.raises(ValueError):
        fit_edge_exponent([(n, 5.0) for n in (100, 200, 400, 800)])  # 1 trial each
    with pytest.raises(ValueError):
        fit_edge_exponent([(n, 0.0) for n in (100, 200, 400, 800) for _ in range(3)])


def test_constrained_vs_uniform_triangle_counts():
    # triangle counts in the constrained process track the unconstrained
    # process early on; generous band, fixed seeds keep it deterministic
    from hfree.patterns import count_embeddings
    from hfree.theory import edge_scale
    c5 = parse_pattern("C5")
    n = 500
    steps = round(n * n * edge_scale(n, c5) / 2)
    for seed in range(10):
        st = init_process(n, c5, seed)
        run_until(st, steps)
        constrained = count_embeddings(C3, st.graph) // 6
        base = baseline_uniform_process(n, steps, seed + 1000)
        unconstrained = count_embeddings(C3, base) // 6
        assert unconstrained > 0
        assert 0.5 <= constrained / unconstrained <= 2.0, seed


def test_fit_stderr_positive_on_noisy_data():
    rng = random.Random(0)
    data = [(n, n ** 1.5 * rng.uniform(0.95, 1.05))
            for n in (100, 200, 400, 800, 1600) for _ in range(3)]
    slope, stderr = fit_edge_exponent(data)
    assert stderr > 0
    assert slope == pytest.approx(1.5, abs=0.05)
