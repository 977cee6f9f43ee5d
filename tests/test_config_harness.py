import json
import math
import os

import pytest
from hypothesis import given, settings, strategies as st

from hfree.config import ExperimentConfig, parse_config
from hfree.density import SearchBudgetExceeded
from hfree.harness import aggregate_stats, read_csv_rows, run_experiment, run_trial
from hfree.patterns import parse_pattern
from hfree.theory import step_horizon


def test_config_round_trip():
    cfg = ExperimentConfig(pattern="C4", n_values=[20, 40], trials=3, seed=11,
                           stop="steps:50", eps="0.1", mu="0.01",
                           checkpoints="5,10", monitors=True, cuv_samples=4,
                           density_k=8, density_mode="heuristic",
                           copy_patterns=["C5"], traj_log="full", workers=2)
    assert parse_config(cfg.to_text()) == cfg
    assert cfg.config_hash() == parse_config(cfg.to_text()).config_hash()


_small = st.integers(min_value=1, max_value=60)
_pattern_specs = st.one_of(
    st.builds("C{}".format, st.integers(min_value=3, max_value=9)),
    st.builds("K{}".format, _small),
    st.builds("K{},{}".format, _small, _small),
    st.just("Q3"),
    st.lists(st.builds("{}-{}".format, _small, _small), min_size=1, max_size=5)
    .map(lambda pairs: "edges:" + ",".join(pairs)),
)
_rationals = st.one_of(st.none(), st.builds("{}/{}".format, _small, _small),
                       st.builds("0.{:03d}".format, st.integers(1, 999)))


@given(st.builds(
    ExperimentConfig,
    pattern=_pattern_specs,
    n_values=st.lists(st.integers(min_value=1, max_value=10**5), min_size=1, unique=True),
    trials=_small, seed=st.integers(min_value=0, max_value=10**9),
    stop=st.one_of(st.sampled_from(["exhaustion", "horizon"]),
                   st.builds("steps:{}".format, st.integers(0, 10**6))),
    eps=_rationals, mu=_rationals,
    checkpoints=st.one_of(st.sampled_from(["auto", "off"]),
                          st.lists(st.integers(1, 10**6), min_size=1)
                          .map(lambda xs: ",".join(map(str, xs)))),
    monitors=st.booleans(), cuv_samples=st.integers(0, 100),
    intersection_samples=st.integers(0, 1000),
    density_k=st.integers(0, 20), density_mode=st.sampled_from(["exact", "heuristic"]),
    density_budget=st.integers(0, 10**6),
    copy_patterns=st.lists(_pattern_specs, max_size=6),
    traj_log=st.sampled_from(["off", "checkpoints", "full"]),
    workers=st.integers(1, 8)))
@settings(max_examples=200)
def test_config_round_trip_property(cfg):
    text = cfg.to_text()
    assert parse_config(text) == cfg
    assert parse_config(text).to_text() == text


def test_config_pattern_list_continuations():
    cfg = parse_config("copy_patterns = K1,3, C5, edges: 1-2, 2-3,K2\n")
    assert cfg.copy_patterns == ["K1,3", "C5", "edges: 1-2,2-3", "K2"]
    for bad in ("3, C5", "K1,3,4", "C5, 1-2", "edges:1-2,3"):
        with pytest.raises(ValueError, match="continues no"):
            parse_config(f"copy_patterns = {bad}\n")
    # a config that parsed before keeps its canonical text and hash
    cfg = parse_config("copy_patterns = C5, C4\n")
    assert cfg.to_text().splitlines()[-3] == "copy_patterns = C5, C4"


def test_config_parse_errors():
    with pytest.raises(ValueError):
        parse_config("pattern = C3\npattern = C4\n")     # duplicate key
    with pytest.raises(ValueError):
        parse_config("frobnicate = 1\n")
    with pytest.raises(ValueError):
        parse_config("stop = sometimes\n")
    with pytest.raises(ValueError):
        parse_config("trials = 0\n")
    with pytest.raises(ValueError):
        parse_config("monitors = maybe\n")
    with pytest.raises(ValueError):
        parse_config("slack = 3\n")
    cfg = parse_config("# comment\npattern = C3\nn = 10, 20\n")
    assert cfg.n_values == [10, 20]


_UNUSABLE = [
    ("n = 20, 20", {"n_values": [20, 20]}, "duplicate n values"),
    ("checkpoints = 0, 5", {"checkpoints": "0,5"}, "steps are >= 1"),
    ("density_budget = -5", {"density_budget": -5}, "density_budget must be >= 0"),
    ("density_k = -1", {"density_k": -1}, "density_k must be >= 0"),
    ("cuv_samples = -1", {"cuv_samples": -1}, "cuv_samples must be >= 0"),
    ("intersection_samples = -2", {"intersection_samples": -2},
     "intersection_samples must be >= 0"),
    ("eps = banana", {"eps": "banana"}, "eps = 'banana': expected a positive rational"),
    ("eps = 0", {"eps": "0"}, "eps = '0': expected a positive rational"),
    ("mu = -2", {"mu": "-2"}, "mu = '-2': expected a positive rational"),
    ("mu = 1/0", {"mu": "1/0"}, "mu = '1/0': expected a positive rational"),
]


@pytest.mark.parametrize("line,fields,message", _UNUSABLE, ids=[u[0] for u in _UNUSABLE])
def test_unusable_values_are_rejected_before_writing(tmp_path, line, fields, message):
    with pytest.raises(ValueError, match=message):
        parse_config(f"pattern = C3\n{line}\n")
    cfg = ExperimentConfig(**{"pattern": "C3", "n_values": [20], **fields})
    out = tmp_path / "run"
    out.mkdir()
    with pytest.raises(ValueError, match=message):
        run_experiment(cfg, str(out))
    assert os.listdir(out) == []


def test_bad_integer_names_its_line():
    with pytest.raises(ValueError, match="line 2: expected an integer, got 'x'"):
        parse_config("pattern = C3\ntrials = x\n")
    with pytest.raises(ValueError, match="line 1: expected an integer, got 'ten'"):
        parse_config("n = 10, ten\n")


def test_trial_seeds_distinct():
    cfg = ExperimentConfig(n_values=[10, 20, 30], trials=4, seed=100)
    seeds = {cfg.trial_seed(i, t) for i in range(3) for t in range(4)}
    assert len(seeds) == 12


def test_run_experiment_outputs(tmp_path):
    cfg = ExperimentConfig(pattern="C3", n_values=[15], trials=2, seed=1,
                           stop="exhaustion", density_k=5,
                           copy_patterns=["C5"], traj_log="full")
    out = tmp_path / "run"
    assert not run_experiment(cfg, str(out))
    manifest = json.load(open(out / "manifest.json"))
    assert manifest["finalized"]
    listed = set(manifest["files"]) | {"manifest.json"}
    actual = set(os.listdir(out))
    assert actual == listed
    stats = read_csv_rows(str(out / "stats.csv"))
    assert len(stats) == 2
    assert all(row["exhausted"] == "1" for row in stats)
    dens = read_csv_rows(str(out / "density.csv"))
    assert len(dens) == 2 and all(r["optimal"] == "1" for r in dens)


def test_run_experiment_write_once(tmp_path):
    cfg = ExperimentConfig(pattern="C3", n_values=[10], trials=1, seed=0)
    out = tmp_path / "run"
    run_experiment(cfg, str(out))
    with pytest.raises(FileExistsError):
        run_experiment(cfg, str(out))
    run_experiment(cfg, str(out), force=True)  # force clears and reruns


def test_rerun_byte_identical(tmp_path):
    # n >= 16: below it C3's step horizon, which the monitors need, is undefined
    cfg = ExperimentConfig(pattern="C3", n_values=[16, 20], trials=2, seed=5,
                           stop="exhaustion", monitors=True, cuv_samples=2,
                           density_k=4, copy_patterns=["C4"], traj_log="full")
    a, b = tmp_path / "a", tmp_path / "b"
    assert not run_experiment(cfg, str(a))
    assert not run_experiment(cfg, str(b))
    files = sorted(os.listdir(a))
    assert files == sorted(os.listdir(b))
    for f in files:
        if f == "manifest.json":
            continue  # carries wall-clock timings
        assert (a / f).read_bytes() == (b / f).read_bytes(), f


def test_serial_equals_parallel(tmp_path):
    cfg = ExperimentConfig(pattern="C3", n_values=[12], trials=4, seed=9,
                           stop="exhaustion", density_k=4)
    a, b = tmp_path / "serial", tmp_path / "parallel"
    run_experiment(cfg, str(a), workers=1)
    run_experiment(cfg, str(b), workers=2)
    for f in sorted(os.listdir(a)):
        if f == "manifest.json":
            continue
        assert (a / f).read_bytes() == (b / f).read_bytes(), f


def test_partial_failure_recorded(tmp_path):
    cfg = ExperimentConfig(pattern="C5", n_values=[3, 20], trials=1, seed=0)
    failures = run_experiment(cfg, str(tmp_path / "run"))   # n=3 below pattern size
    assert any("n=3" in f for f in failures)
    manifest = json.load(open(tmp_path / "run" / "manifest.json"))
    assert manifest["failures"]


@pytest.mark.parametrize("n_values,message", [
    ([2], "every n is smaller than the forbidden graph"),
    ([2, 1], "every n is smaller than the forbidden graph"),
    ([-5], "n values must be >= 1"),
    ([20, 0], "n values must be >= 1"),
], ids=["2", "2,1", "-5", "20,0"])
def test_impossible_n_is_rejected_before_writing(tmp_path, n_values, message):
    cfg = ExperimentConfig(pattern="C3", n_values=n_values, trials=2, seed=0)
    out = tmp_path / "run"
    out.mkdir()
    with pytest.raises(ValueError, match=message):
        run_experiment(cfg, str(out))
    assert os.listdir(out) == []


@pytest.mark.parametrize("pattern,n_values,extra,message", [
    ("C3", [5], {"stop": "horizon"}, r"step horizon 0.142 < 1"),
    ("C3", [5, 4], {"stop": "horizon"}, r"step horizon 0.142 < 1"),
    ("C4", [6], {"stop": "horizon"}, r"step horizon .* < 1"),
    ("C3", [5], {"monitors": True}, r"step horizon 0.142 < 1"),
    ("C3", [50], {"monitors": True, "eps": "1/2", "mu": "1/2"}, "invalid"),
], ids=["C3-5", "C3-5,4", "C4-6", "monitors-C3-5", "monitors-bad-eps"])
def test_every_trial_failing_is_rejected_before_writing(tmp_path, pattern, n_values,
                                                         extra, message):
    cfg = ExperimentConfig(pattern=pattern, n_values=n_values, trials=2, seed=0,
                           **extra)
    out = tmp_path / "run"
    out.mkdir()
    with pytest.raises(ValueError, match=message):
        run_experiment(cfg, str(out))
    assert os.listdir(out) == []


@pytest.mark.parametrize("extra", [{"stop": "horizon"}, {"monitors": True}],
                         ids=["horizon", "monitors"])
def test_horizon_undefined_at_some_n_records_those_trials(tmp_path, extra):
    cfg = ExperimentConfig(pattern="C3", n_values=[5, 60], trials=2, seed=0,
                           **extra)
    failures = run_experiment(cfg, str(tmp_path / "run"))
    assert sorted(failures) == [
        f"trial n=5 t={t}: step horizon 0.142 < 1: n=5 too small for this regime"
        for t in range(2)]
    stats = read_csv_rows(str(tmp_path / "run" / "stats.csv"))
    assert [r["n"] for r in stats] == ["60", "60"]
    if cfg.stop == "horizon":
        assert [r["steps"] for r in stats] == ["9", "9"]


@pytest.mark.parametrize("mu", [None, "1/20"])
def test_horizon_trial_runs_step_horizon_steps(tmp_path, mu):
    cfg = ExperimentConfig(pattern="C4", n_values=[40], trials=1, seed=3,
                           stop="horizon", mu=mu)
    assert not run_experiment(cfg, str(tmp_path / "run"))
    stats = read_csv_rows(str(tmp_path / "run" / "stats.csv"))
    want = step_horizon(40, parse_pattern("C4"), mu)
    assert want > 1 and [r["steps"] for r in stats] == [str(want)]
    assert stats[0]["exhausted"] == "0"


def test_horizon_undefined_at_some_n_leaves_only_listed_files(tmp_path):
    cfg = ExperimentConfig(pattern="C3", n_values=[5, 60], trials=1, seed=0,
                           stop="horizon", traj_log="full")
    out = tmp_path / "run"
    failures = run_experiment(cfg, str(out))
    assert [f.split(":")[0] for f in failures] == ["trial n=5 t=0"]
    manifest = json.load(open(out / "manifest.json"))
    assert sorted(os.listdir(out)) == sorted(manifest["files"] + ["manifest.json"])
    assert not [f for f in os.listdir(out) if f.startswith("trial_n5_")]
    assert "trial_n60_t000.traj.jsonl" in manifest["files"]


def test_failed_trial_leaves_only_listed_files(tmp_path):
    # C4-free hosts contain triangles, so branch-and-bound needs nodes; up
    # to size 7 the ex(s, C4) ceiling settles every size without one, so
    # the cap goes above the table
    cfg = ExperimentConfig(pattern="C4", n_values=[15], trials=1, seed=1,
                           density_k=8, density_budget=1, traj_log="full")
    one = tmp_path / "one"
    one.mkdir()
    with pytest.raises(SearchBudgetExceeded):
        run_trial(cfg.to_text(), 15, 0, 0, str(one))
    assert os.listdir(one) == []   # the edge list and trajectory log are gone
    out = tmp_path / "run"
    assert run_experiment(cfg, str(out))
    manifest = json.load(open(out / "manifest.json"))
    assert sorted(os.listdir(out)) == sorted(manifest["files"] + ["manifest.json"])


def test_unreached_checkpoints_are_manifest_notices(tmp_path):
    cfg = ExperimentConfig(pattern="C4", n_values=[30], trials=2, seed=0,
                           monitors=True, checkpoints="5,10,40,100000")
    assert not run_experiment(cfg, str(tmp_path / "run"))
    manifest = json.load(open(tmp_path / "run" / "manifest.json"))
    assert manifest["failures"] == []
    assert manifest["notices"] == [
        f"trial n=30 t={t}: checkpoint 100000 beyond process lifetime; skipped"
        for t in range(2)]
    rows = read_csv_rows(str(tmp_path / "run" / "monitors.csv"))
    assert sorted({int(r["step"]) for r in rows}) == [5, 10, 40]


def test_comma_pattern_targets_run_end_to_end(tmp_path):
    cfg = ExperimentConfig(pattern="C4", n_values=[12], trials=1, seed=2,
                           copy_patterns=["K1,3", "edges:1-2,2-3"])
    out = tmp_path / "run"
    assert not run_experiment(cfg, str(out))
    assert '"K1,3"' in (out / "copies.csv").read_text()
    rows = read_csv_rows(str(out / "copies.csv"))
    assert [r["target"] for r in rows] == ["K1,3", "edges:1-2,2-3"]
    assert all(r["present"] == "1" for r in rows)


def test_aggregate_stats(tmp_path):
    cfg = ExperimentConfig(pattern="C3", n_values=[12, 16], trials=3, seed=2,
                           stop="exhaustion")
    out = tmp_path / "run"
    run_experiment(cfg, str(out))
    summary = aggregate_stats(str(out))
    assert set(summary["by_n"]) == {12, 16}
    assert summary["by_n"][12]["trials"] == 3
    # C3's edge count scale is n^(3/2) sqrt(ln n)
    for n, row in summary["by_n"].items():
        norm = row["normalised_final_edges"]
        scale = n ** 1.5 * math.sqrt(math.log(n))
        assert norm["mean"] == pytest.approx(row["mean_final_edges"] / scale, rel=1e-12)
        assert norm["min"] == pytest.approx(row["min"] / scale, rel=1e-12)
        assert norm["max"] == pytest.approx(row["max"] / scale, rel=1e-12)
        assert norm["min"] <= norm["mean"] <= norm["max"]
    with pytest.raises(FileNotFoundError):
        aggregate_stats(str(tmp_path / "missing"))


def test_aggregate_identical_trials_zero_spread(tmp_path):
    # same seed for every trial via explicit run_trial calls
    cfg = ExperimentConfig(pattern="C3", n_values=[12], trials=1, seed=4,
                           stop="exhaustion")
    out = tmp_path / "run"
    run_experiment(cfg, str(out))
    summary = aggregate_stats(str(out))
    row = summary["by_n"][12]
    assert row["min"] == row["max"] == row["mean_final_edges"]


def test_aggregate_synthetic_exponent(tmp_path):
    # a crafted stats table with exact n^1.5 counts fits slope 1.5
    out = tmp_path / "fixture"
    out.mkdir()
    cfg = ExperimentConfig()
    manifest = {"finalized": True, "config_hash": "fixture", "files": ["stats.csv"]}
    (out / "manifest.json").write_text(json.dumps(manifest))
    lines = ["# {}", "n,trial,seed,steps,final_edges,exhausted,"
             "max_degree,closed_pairs,open_pairs"]
    for n in (100, 200, 400, 800):
        for t in range(3):
            lines.append(f"{n},{t},{t},0,{round(n ** 1.5)},1,0,0,0")
    (out / "stats.csv").write_text("\n".join(lines) + "\n")
    summary = aggregate_stats(str(out))
    assert abs(summary["edge_exponent"]["slope"] - 1.5) < 1e-4


def test_run_trial_traj_checkpoint_mode(tmp_path):
    cfg = ExperimentConfig(pattern="C3", n_values=[15], trials=1, seed=3,
                           stop="steps:10", checkpoints="3,7",
                           traj_log="checkpoints")
    res = run_trial(cfg.to_text(), 15, 0, 0, str(tmp_path))
    traj = [json.loads(line) for line in
            open(os.path.join(tmp_path, "trial_n15_t000.traj.jsonl"))]
    assert traj[0]["rng"] == "python-random-mt19937+draw-array"
    steps = [rec["step"] for rec in traj[1:]]
    assert steps == [3, 7]
