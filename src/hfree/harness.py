"""Seeded experiment execution, output files and the run manifest.

Trials are independent (one process state per worker, per-trial RNG streams
derived from the base seed), so parallel and serial execution produce
identical files.  All analytical outputs are write-once and deterministic;
wall-clock timings live only in the manifest.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import time
from typing import Iterator, Optional, TextIO

from . import __version__
from .analysis import default_checkpoints, fit_edge_exponent, monitor_trajectory
from .config import ExperimentConfig, parse_config
from .density import EXACT_CAP_LIMIT, bounded_density_scan
from .graphs import write_edge_list
from .patterns import Pattern, contains_copy, parse_pattern, validate_as_constraint
from .process import ProcessState, RNG_ID, init_process, iter_process
from .theory import Constants, LOG_CONVENTION, edge_count_scale, step_horizon

STATS_COLUMNS = ["n", "trial", "seed", "steps", "final_edges", "exhausted",
                 "max_degree", "closed_pairs", "open_pairs"]
MONITOR_COLUMNS = ["n", "trial", "step", "t", "open", "open_bound", "open_ratio",
                   "in_range", "edges", "max_degree", "closed", "cuv_min",
                   "cuv_mean", "cuv_reference", "ix_max", "ix_reference"]
DENSITY_COLUMNS = ["n", "trial", "size_cap", "density", "density_float",
                   "witness", "method", "optimal", "nodes"]
COPY_COLUMNS = ["n", "trial", "target", "present"]


def _step_target(cfg: ExperimentConfig, n: int, pattern: Pattern) -> Optional[int]:
    """The step count at which ``cfg.stop`` ends a run at n; None: exhaustion."""
    if cfg.stop == "exhaustion":
        return None
    if cfg.stop == "horizon":
        return step_horizon(n, pattern, cfg.mu)
    return int(cfg.stop[len("steps:"):])


def _metadata_line(cfg: ExperimentConfig) -> str:
    meta = {
        "artifact": f"hfree {__version__}",
        "config_hash": cfg.config_hash(),
        "rng": RNG_ID,
        "log": LOG_CONVENTION,
        "base_seed": cfg.seed,
    }
    return "# " + json.dumps(meta, sort_keys=True)


def _write_csv(path: str, cfg: ExperimentConfig, columns: list[str],
               rows: list[dict]) -> None:
    with open(path, "x", newline="") as fh:
        fh.write(_metadata_line(cfg) + "\n")
        out = csv.DictWriter(fh, columns, extrasaction="ignore", lineterminator="\n")
        out.writeheader()
        out.writerows(rows)


def _write_manifest(path: str, manifest: dict) -> None:
    """Replace the manifest in one step, so a reader never sees half of it."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    os.replace(tmp, path)


def _log_steps(states: Iterator[ProcessState], fh: TextIO,
               marks: Optional[set[int]]) -> Iterator[ProcessState]:
    """Pass the state stream through, writing one trajectory record for
    each step (each step in ``marks`` when that is not None)."""
    for state in states:
        if marks is None or state.step in marks:
            u, v, closed = state.last_step
            # the bytes of json.dumps(..., sort_keys=True) on this record
            fh.write(f'{{"newly_closed": {closed}, "pair": [{u + 1}, {v + 1}], '
                     f'"step": {state.step}}}\n')
        yield state


def run_trial(cfg_text: str, n: int, n_index: int, trial: int,
              out_dir: str) -> dict:
    """Run one seeded trial and write its per-trial files.  Returns the
    aggregate rows and the monitor notices (picklable) for the parent to
    merge deterministically.
    A trial that fails removes the files it wrote before re-raising."""
    cfg = parse_config(cfg_text)
    pattern = parse_pattern(cfg.pattern)
    seed = cfg.trial_seed(n_index, trial)
    state = init_process(n, pattern, seed)
    target = _step_target(cfg, n, pattern)   # raises before any file opens
    try:
        constants = Constants.for_run(pattern, n, eps=cfg.eps, mu=cfg.mu)
    except ValueError:
        # step horizon undefined at tiny n; fine unless monitors need it
        constants = None
        if cfg.monitors:
            raise

    checkpoints = cfg.checkpoint_list()
    if checkpoints is None:
        checkpoints = default_checkpoints(constants) if constants else []
    stem = os.path.join(out_dir, f"trial_n{n}_t{trial:03d}")
    traj_path = stem + ".traj.jsonl" if cfg.traj_log != "off" else None
    files: list[str] = []
    try:
        # one pass: the step stream goes through the trajectory writer (when
        # the log is on) into the monitors (when they are on), or is drained
        with open(traj_path, "x") if traj_path else contextlib.nullcontext() as fh:
            states = iter_process(state, target)
            if traj_path:
                files.append(traj_path)
                header = {"n": n, "pattern": cfg.pattern, "seed": seed,
                          "rng": RNG_ID, "stop": cfg.stop, "log": LOG_CONVENTION}
                fh.write(json.dumps(header, sort_keys=True) + "\n")
                marks = None if cfg.traj_log == "full" else set(checkpoints)
                states = _log_steps(states, fh, marks)
            monitor_rows = []
            notices = []
            if cfg.monitors:
                records, skipped = monitor_trajectory(
                    states, constants, checkpoints, cuv_samples=cfg.cuv_samples,
                    intersection_samples=cfg.intersection_samples,
                    sample_seed=seed + 7919)
                monitor_rows = [{"n": n, "trial": trial, **rec.as_row()}
                                for rec in records]
                notices = [f"trial n={n} t={trial}: {line}" for line in skipped]
            else:
                for _ in states:
                    pass

        edges_path = stem + ".edges.txt"
        with open(edges_path, "x") as fh:
            files.append(edges_path)
            write_edge_list(state.graph, fh)

        stats_row = {
            "n": n, "trial": trial, "seed": seed, "steps": state.step,
            "final_edges": state.graph.edge_count,
            "exhausted": int(state.is_exhausted()),
            "max_degree": max(state.graph.degrees),
            "closed_pairs": state.closed_count(),
            "open_pairs": state.open_count(),
        }

        density_rows = []
        if cfg.density_k > 0:
            budget = cfg.density_budget if cfg.density_budget > 0 else None
            report = bounded_density_scan(state.graph, cfg.density_k,
                                          mode=cfg.density_mode, node_budget=budget,
                                          seed=seed, pattern=pattern)
            density_rows = [{"n": n, "trial": trial, **report.as_row()}]

        copy_rows = [{"n": n, "trial": trial, "target": spec,
                      "present": int(contains_copy(parse_pattern(spec), state.graph))}
                     for spec in cfg.copy_patterns]
    except BaseException:
        for path in files:
            os.remove(path)
        raise
    return {"stats": [stats_row], "monitors": monitor_rows,
            "density": density_rows, "copies": copy_rows, "files": files,
            "notices": notices}


def run_experiment(cfg: ExperimentConfig, out_dir: str, force: bool = False,
                   workers: Optional[int] = None) -> list[str]:
    """Run every trial of ``cfg`` into ``out_dir`` and return the failed
    trials, one line each.  A config that would fail every trial raises
    ValueError before anything is written."""
    cfg.validate()
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    pattern = parse_pattern(cfg.pattern)
    validate_as_constraint(pattern)
    if max(cfg.n_values) < pattern.n:
        raise ValueError(f"every n is smaller than the forbidden graph "
                         f"({pattern.n} vertices); the largest is {max(cfg.n_values)}")
    # the horizon grows with n: these raise iff they would at every n
    _step_target(cfg, max(cfg.n_values), pattern)
    if cfg.monitors:
        Constants.for_run(pattern, max(cfg.n_values), eps=cfg.eps, mu=cfg.mu)
    for spec in cfg.copy_patterns:
        parse_pattern(spec)
    if cfg.density_mode == "exact" and cfg.density_k > EXACT_CAP_LIMIT:
        raise ValueError(f"density_k = {cfg.density_k}: exact mode limited to "
                         f"caps <= {EXACT_CAP_LIMIT}")
    os.makedirs(out_dir, exist_ok=True)
    existing = [f for f in os.listdir(out_dir) if not f.startswith(".")]
    if existing and not force:
        raise FileExistsError(
            f"output directory {out_dir!r} is not empty (use force to clear)")
    for f in existing:      # refuse before removing anything
        if os.path.isdir(os.path.join(out_dir, f)):
            raise ValueError(f"cannot clear {out_dir!r}: {f!r} is a directory")
    for f in existing:
        os.remove(os.path.join(out_dir, f))

    manifest_path = os.path.join(out_dir, "manifest.json")
    manifest = {
        "artifact": f"hfree {__version__}",
        "config_hash": cfg.config_hash(),
        "config": cfg.to_text(),
        "rng": RNG_ID,
        "log": LOG_CONVENTION,
        "files": [],
        "timings": {},
        "finalized": False,
    }
    _write_manifest(manifest_path, manifest)

    t0 = time.time()
    cfg_text = cfg.to_text()
    jobs = [(n_index, n, trial)
            for n_index, n in enumerate(cfg.n_values)
            for trial in range(cfg.trials)]
    results = {}
    failures: list[str] = []
    nworkers = workers if workers is not None else cfg.workers
    if nworkers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            futs = {pool.submit(run_trial, cfg_text, n, n_index, trial, out_dir):
                    (n, trial) for (n_index, n, trial) in jobs}
            for fut, key in futs.items():
                try:
                    results[key] = fut.result()
                except Exception as exc:  # per-trial failures recorded, not fatal
                    failures.append(f"trial n={key[0]} t={key[1]}: {exc}")
    else:
        for (n_index, n, trial) in jobs:
            try:
                results[(n, trial)] = run_trial(cfg_text, n, n_index, trial, out_dir)
            except Exception as exc:
                failures.append(f"trial n={n} t={trial}: {exc}")

    done = [results[key] for key in sorted(results)]
    files = [path for res in done for path in res["files"]]
    for name, columns in (("stats", STATS_COLUMNS), ("monitors", MONITOR_COLUMNS),
                          ("density", DENSITY_COLUMNS), ("copies", COPY_COLUMNS)):
        rows = [row for res in done for row in res[name]]
        if rows or name == "stats":  # stats.csv is written even if every trial failed
            path = os.path.join(out_dir, f"{name}.csv")
            _write_csv(path, cfg, columns, rows)
            files.append(path)

    manifest["files"] = sorted(os.path.relpath(p, out_dir) for p in files)
    manifest["timings"] = {"wall_seconds": round(time.time() - t0, 3)}
    manifest["failures"] = failures
    # checkpoints the process never reached: worth reading, not errors
    manifest["notices"] = [line for res in done for line in res["notices"]]
    manifest["finalized"] = True
    _write_manifest(manifest_path, manifest)
    return failures


# ── aggregation ──────────────────────────────────────────────────────────

def read_csv_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


def aggregate_stats(out_dir: str) -> dict:
    """Cross-trial means/quantiles, the final edge counts over
    ``theory.edge_count_scale`` and, when the data supports it, the log-log
    exponent fit of the final edge counts."""
    manifest_path = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise FileNotFoundError(f"no manifest in {out_dir!r}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if not manifest.get("finalized"):
        raise ValueError(f"manifest in {out_dir!r} is not finalized")
    rows = read_csv_rows(os.path.join(out_dir, "stats.csv"))
    if not rows:
        raise ValueError(f"no stats rows in {out_dir!r}")
    pattern = parse_pattern(parse_config(manifest.get("config", "")).pattern)
    by_n: dict[int, list[int]] = {}
    for row in rows:
        by_n.setdefault(int(row["n"]), []).append(int(row["final_edges"]))
    summary = {}
    for n in sorted(by_n):
        vals = sorted(by_n[n])
        k = len(vals)
        scale = edge_count_scale(n, pattern)
        summary[n] = {
            "trials": k,
            "mean_final_edges": sum(vals) / k,
            "min": vals[0],
            "median": vals[k // 2] if k % 2 else (vals[k // 2 - 1] + vals[k // 2]) / 2,
            "max": vals[-1],
            "normalised_final_edges": {"mean": sum(vals) / k / scale,
                                       "min": vals[0] / scale, "max": vals[-1] / scale},
        }
    out = {"by_n": summary, "config_hash": manifest["config_hash"]}
    if len(by_n) >= 4 and all(len(v) >= 3 for v in by_n.values()):
        slope, stderr = fit_edge_exponent([(n, v) for n, vals in by_n.items() for v in vals])
        out["edge_exponent"] = {"slope": slope, "stderr": stderr}
    mon_path = os.path.join(out_dir, "monitors.csv")
    if os.path.exists(mon_path):
        mon = read_csv_rows(mon_path)
        ratios = [float(r["open_ratio"]) for r in mon if r.get("open_ratio")]
        if ratios:
            out["monitor"] = {"checkpoints": len(ratios),
                              "max_open_ratio": max(ratios)}
    return out
