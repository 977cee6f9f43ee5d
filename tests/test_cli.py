import json
import os
import random
import subprocess
import sys

import pytest

from hfree import cli, density, verify
from hfree.config import ExperimentConfig
from hfree.graphs import write_edge_list
from hfree.harness import run_experiment
from hfree.patterns import parse_pattern
from hfree.process import init_process, run_until
from hfree.verify import run_verification, verify_closure, verify_cuv, verify_density

from conftest import retire


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_import_loads_no_worker_pool_or_openssl():
    # only workers > 1 needs multiprocessing, and only config_hash needs
    # hashlib; a fresh interpreter without site packages sees hfree's own imports
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    heavy = ("multiprocessing", "concurrent.futures.process", "hashlib", "_hashlib")
    probe = (f"import sys; sys.path.insert(0, {src!r}); import hfree.cli; "
             f"print([m for m in {heavy!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", probe],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_params_table(capsys):
    code, out, _ = run_cli(capsys, "params", "C3", "10000")
    assert code == 0
    assert "30348" in out and "0.01" in out
    data = json.loads(out.strip().splitlines()[-1])
    assert data["m_steps"] == 30348 and data["p"] == 0.01
    assert data["eps"] == "1/10" and data["mu"] == "1/100"


def test_params_json_k4(capsys):
    code, out, _ = run_cli(capsys, "params", "K4", "64", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["p"] == pytest.approx(64 ** (-2 / 5))
    assert data["beta"] == "5/4"


def test_params_bad_pattern_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "params", "C99x", "100")
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize("flag,literal", [("--eps", "1/0"), ("--mu", "0/0")])
def test_params_zero_denominator_is_usage_error(capsys, flag, literal):
    code, out, err = run_cli(capsys, "params", "C3", "100", flag, literal)
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("error: ") and repr(literal) in err


def test_params_refuses_a_pattern_simulate_refuses(capsys):
    # K1,2 is not strictly 2-balanced, so no process forbids it
    code, out, err = run_cli(capsys, "params", "K1,2", "50")
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("error: ") and "strictly 2-balanced" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == cli.EXIT_USAGE


def test_verify_cli_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "counts",
                           "--size", "8", "--seeds", "2")
    assert code == 0 and "no mismatches" in out


def test_verify_cli_closure_scope(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "closure",
                           "--size", "10", "--seeds", "2")
    assert code == 0 and "no mismatches" in out


@pytest.mark.parametrize("flag", ["--size", "--seeds"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_verify_nothing_to_compare_is_usage_error(capsys, flag, value):
    code, out, err = run_cli(capsys, "verify", "--scope", "counts", flag, value)
    assert code == cli.EXIT_USAGE and out == ""
    assert f"error: {flag} must be >= 1, got {value}" in err


def test_verify_cli_failure_path(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_verification",
                        lambda **kw: (["synthetic mismatch"], {"counts": 1}))
    code, _, err = run_cli(capsys, "verify", "--scope", "counts")
    assert code == cli.EXIT_VERIFY_FAILED
    assert "synthetic mismatch" in err


def test_verify_library_detects_corruption(monkeypatch):
    from hfree.graphs import pair_from_index
    real_step = verify.step

    def corrupt(state):
        # retire the lowest open pair that nothing closed: it reads as closed
        pair = real_step(state)
        if state.step == 3:
            pid = min(state.open_pair_ids())
            u, v = pair_from_index(pid, state.n)
            retire(state, u, 1 << v)
        return pair

    monkeypatch.setattr(verify, "step", corrupt)
    mismatches, compared = verify_closure(n=8, seeds=1, patterns=("C3",))
    assert mismatches and "closure mismatch" in mismatches[0]
    assert compared == 3    # the corrupted step is the last one compared


def test_verify_prints_comparison_counts(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "verify", "--scope", "counts",
                           "--size", "8", "--seeds", "2")
    # 2 hosts x 6 patterns
    assert code == 0 and out.strip().endswith("(comparisons: counts=12)")
    # a check that compared nothing shows as 0
    monkeypatch.setattr(cli, "run_verification",
                        lambda **kw: ([], {"closure": 5, "cuv": 0}))
    code, out, _ = run_cli(capsys, "verify", "--scope", "closure")
    assert code == 0 and "(comparisons: closure=5 cuv=0)" in out


@pytest.mark.parametrize("size,skipped", [("3", ["C4"]), ("2", ["C3", "C4"])])
def test_verify_skips_closure_patterns_above_size(capsys, size, skipped):
    code, out, err = run_cli(capsys, "verify", "--scope", "all", "--size", size,
                             "--seeds", "1")
    assert code == 0 and "no mismatches" in out
    for spec in ("C3", "C4"):
        assert (f"skip {spec}," in err) == (spec in skipped), spec
    counts = dict(tok.split("=") for tok in
                  out.strip().rsplit("(comparisons: ", 1)[1].rstrip(")").split())
    assert int(counts["density"]) > 0 and int(counts["counts"]) > 0
    # C3 still fits on three vertices
    assert (int(counts["closure"]) > 0) == (size == "3")


def test_verify_cuv_counts_pairs_compared():
    # C3 on 4 vertices: some runs end with no open pair and compare nothing
    n, seeds, samples = 4, 8, 3
    want = 0
    for seed in range(seeds):
        state = init_process(n, parse_pattern("C3"), seed)
        rng = random.Random(seed + 1)
        run_until(state, max(1, rng.randrange(1, n)))
        want += min(samples, state.open_count())
    assert verify_cuv(n=n, seeds=seeds, samples=samples, patterns=("C3",)) == ([], want)
    assert want < seeds * samples


@pytest.mark.parametrize("counter", ["count_pairs", "count_common_pairs"])
def test_verify_cuv_checks_the_mask_counts(monkeypatch, counter):
    real = getattr(verify, counter)
    monkeypatch.setattr(verify, counter, lambda *masks: real(*masks) + 1)
    mismatches, compared = verify_cuv(n=10, seeds=2, samples=3, patterns=("C4",))
    assert compared == 6 and len(mismatches) == 6
    assert "(C_uv, mask size, mask common with previous)" in mismatches[0]


def test_verify_density_covers_triangle_free_hosts():
    # a random host and maximal triangle-free and C4-free ones per seed,
    # exact and heuristic scans each
    assert verify_density(n=8, seeds=2) == ([], 12)
    # the C4 process needs four vertices, the C3 process three
    assert verify_density(n=3, seeds=2) == ([], 8)
    assert verify_density(n=2, seeds=2) == ([], 4)


def test_simulate_analyze_roundtrip(tmp_path, capsys):
    cfg = ExperimentConfig(pattern="C3", n_values=[12], trials=2, seed=7,
                           stop="exhaustion")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(cfg.to_text())
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg_path),
                           "--out", str(out_dir))
    assert code == 0
    assert out == f"ok: outputs in {out_dir} (manifest {out_dir / 'manifest.json'})\n"
    code, out, _ = run_cli(capsys, "analyze", str(out_dir), "--json")
    assert code == 0
    summary = json.loads(out)
    assert summary["by_n"]["12"]["trials"] == 2
    norm = summary["by_n"]["12"]["normalised_final_edges"]
    code, out, _ = run_cli(capsys, "analyze", str(out_dir))
    assert code == 0
    assert (f"normalised={norm['mean']:.4f} ({norm['min']:.4f}-{norm['max']:.4f})"
            in out.splitlines()[1])


def test_simulate_partial_failure_exit(tmp_path, capsys):
    # n = 2 fails its trial; n = 12 runs, so the run goes ahead
    cfg = ExperimentConfig(pattern="C4", n_values=[2, 12], trials=1, seed=0)
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(cfg.to_text())
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                           "--out", str(tmp_path / "out"))
    assert code == cli.EXIT_PARTIAL_FAILURE
    assert "FAILED" in err


@pytest.mark.parametrize("fields,message", [
    ({"density_k": 13}, "exact mode limited"),
    ({"pattern": "K1,3"}, "strictly 2-balanced"),
    ({"copy_patterns": ["C2"]}, "cycle spec"),
    ({"n_values": [2]}, "smaller than the forbidden graph"),
], ids=["exact-density-cap", "invalid-forbidden-pattern", "bad-copy-pattern",
        "n-below-pattern"])
def test_simulate_run_level_error_fails_fast(tmp_path, capsys, fields, message):
    # an error that would fail every trial stops the run before any output
    cfg = ExperimentConfig(**{"pattern": "C3", "n_values": [12], "trials": 2, **fields})
    with pytest.raises(ValueError, match=message):
        run_experiment(cfg, str(tmp_path / "direct"))
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(cfg.to_text())
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                           "--out", str(tmp_path / "out"))
    assert code == cli.EXIT_USAGE and message in err
    assert not (tmp_path / "direct").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", [0, -1])
def test_simulate_workers_below_one_is_rejected_before_writing(tmp_path, capsys, workers):
    cfg = ExperimentConfig(pattern="C3", n_values=[12], trials=2)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_experiment(cfg, str(tmp_path / "direct"), workers=workers)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(cfg.to_text())
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                           "--out", str(tmp_path / "out"), "--workers", str(workers))
    assert code == cli.EXIT_USAGE and "workers must be >= 1" in err
    assert not (tmp_path / "direct").exists() and not (tmp_path / "out").exists()


def test_simulate_force_refuses_a_subdirectory_before_removing_anything(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(ExperimentConfig(pattern="C3", n_values=[8]).to_text())
    out = tmp_path / "out"
    (out / "sub").mkdir(parents=True)
    for name in ("a.txt", "m.txt", "z.txt"):
        (out / name).write_text(name)
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                           "--out", str(out), "--force")
    assert code == cli.EXIT_USAGE and "'sub' is a directory" in err
    assert sorted(os.listdir(out)) == ["a.txt", "m.txt", "sub", "z.txt"]
    assert all((out / name).read_text() == name for name in ("a.txt", "m.txt", "z.txt"))


def test_analyze_missing_dir(tmp_path, capsys):
    code, _, err = run_cli(capsys, "analyze", str(tmp_path / "nope"))
    assert code == cli.EXIT_USAGE


def test_density_subcommand(tmp_path, capsys):
    g = parse_pattern("K4").to_graph()
    path = tmp_path / "k4.edges"
    with open(path, "w") as fh:
        write_edge_list(g, fh)
    code, out, _ = run_cli(capsys, "density", str(path), "--k", "4")
    assert code == 0
    data = json.loads(out.splitlines()[0])
    assert data["density"] == "3/2" and data["optimal"] == 1


def test_density_negative_budget_is_usage_error(tmp_path, capsys):
    path = tmp_path / "k4.edges"
    with open(path, "w") as fh:
        write_edge_list(parse_pattern("K4").to_graph(), fh)
    code, out, err = run_cli(capsys, "density", str(path), "--k", "4", "--budget", "-7")
    assert code == cli.EXIT_USAGE and out == ""
    assert "--budget must be >= 0" in err
    # 0 still means no budget
    code, out, _ = run_cli(capsys, "density", str(path), "--k", "4", "--budget", "0")
    assert code == 0 and json.loads(out)["optimal"] == 1


def test_density_pattern_sets_the_ceiling(tmp_path, capsys):
    st = init_process(30, parse_pattern("C4"), 0)
    run_until(st)
    path = tmp_path / "c4.edges"
    with open(path, "w") as fh:
        write_edge_list(st.graph, fh)
    rows = {}
    for spec in ("C3", "C4", "edges:1-2,2-3,3-4,4-1"):
        code, out, _ = run_cli(capsys, "density", str(path), "--k", "6",
                               "--pattern", spec)
        assert code == 0
        rows[spec] = json.loads(out.splitlines()[0])
    # the host has triangles, so only the C4 ceiling spares branch-and-bound
    assert rows["C3"]["nodes"] > rows["C4"]["nodes"]
    assert rows["C4"] == rows["edges:1-2,2-3,3-4,4-1"]
    assert {**rows["C3"], "nodes": 0} == {**rows["C4"], "nodes": 0}


def test_density_threshold_check(tmp_path, capsys):
    g = parse_pattern("K12").to_graph()
    path = tmp_path / "k12.edges"
    with open(path, "w") as fh:
        write_edge_list(g, fh)
    code, out, _ = run_cli(capsys, "density", str(path), "--k", "12",
                           "--threshold", "2.0")
    assert code == cli.EXIT_VERIFY_FAILED
    check = json.loads(out.splitlines()[-1])
    assert not check["passed"]


def test_density_threshold_scans_once(tmp_path, capsys, monkeypatch):
    st = init_process(60, parse_pattern("C3"), 0)
    run_until(st)
    path = tmp_path / "c3.edges"
    with open(path, "w") as fh:
        write_edge_list(st.graph, fh)
    want = ('{"density": "2", "detail": "max density 2 vs threshold 3.0", '
            '"mode": "empirical", "passed": true, "size_limit": 8, '
            '"threshold_c": 3.0, "vacuous": false, '
            '"witness": "1 12 16 28 35 38 40 53"}')
    calls = []
    real = density.is_triangle_free

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    # the exact stage tests the host for triangles once per scan
    monkeypatch.setattr(density, "is_triangle_free", counted)
    for mode in ("exact", "heuristic"):
        calls.clear()
        code, out, _ = run_cli(capsys, "density", str(path), "--k", "8",
                               "--mode", mode, "--threshold", "3")
        assert code == 0
        # the report is reused when it is the exact scan the check needs
        assert len(calls) == 1, mode
        assert out.splitlines()[-1] == want


def test_density_threshold_rescan_gets_the_pattern(tmp_path, capsys, monkeypatch):
    st = init_process(30, parse_pattern("C4"), 0)
    run_until(st)
    path = tmp_path / "c4.edges"
    with open(path, "w") as fh:
        write_edge_list(st.graph, fh)
    rescans = []
    real = density.bounded_density_scan

    def spy(*args, **kwargs):
        rescans.append(kwargs.get("pattern"))
        return real(*args, **kwargs)

    monkeypatch.setattr(density, "bounded_density_scan", spy)
    checks = []
    for mode in ("exact", "heuristic"):
        code, out, _ = run_cli(capsys, "density", str(path), "--k", "6", "--mode",
                               mode, "--threshold", "3", "--pattern", "C4")
        assert code == 0
        checks.append(out.splitlines()[-1])
    assert checks[0] == checks[1]
    # only the heuristic run rescans, and it scans with the pattern
    assert [p.edges for p in rescans] == [parse_pattern("C4").edges]


def test_full_verification_clean():
    assert run_verification(scope="counts", size=8, seeds=2) == ([], {"counts": 12})
