"""Seeded experiment execution, output files and the run manifest.

Trials are independent (one process state per worker, per-trial RNG streams
derived from the base seed), so parallel and serial execution produce
identical files.  All analytical outputs are write-once and deterministic;
wall-clock timings live only in the manifest.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from . import __version__
from .analysis import default_checkpoints, monitor_trajectory
from .config import ExperimentConfig, parse_config
from .density import bounded_density_scan
from .graphs import pair_from_index, write_edge_list
from .patterns import contains_copy, parse_pattern
from .process import (Exhaustion, Horizon, RNG_ID, StepCount, init_process,
                      iter_process, run_until)
from .theory import Constants, LOG_CONVENTION

STATS_COLUMNS = ["n", "trial", "seed", "steps", "final_edges", "exhausted",
                 "max_degree", "closed_pairs", "open_pairs"]
MONITOR_COLUMNS = ["n", "trial", "step", "t", "open", "open_bound", "open_ratio",
                   "in_range", "edges", "max_degree", "closed", "cuv_min",
                   "cuv_mean", "cuv_reference", "ix_max", "ix_reference"]
DENSITY_COLUMNS = ["n", "trial", "size_cap", "density", "density_float",
                   "witness", "method", "optimal", "nodes"]
COPY_COLUMNS = ["n", "trial", "target", "present"]


def _stop_rule(cfg: ExperimentConfig):
    if cfg.stop == "exhaustion":
        return Exhaustion()
    if cfg.stop == "horizon":
        return Horizon(mu=cfg.mu)
    return StepCount(int(cfg.stop[len("steps:"):]))


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
    with open(path, "x") as fh:
        fh.write(_metadata_line(cfg) + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(row.get(c, "")) for c in columns) + "\n")


def run_trial(cfg_text: str, n: int, n_index: int, trial: int,
              out_dir: str) -> dict:
    """Run one seeded trial and write its per-trial files.  Returns the
    aggregate rows (picklable) for the parent to merge deterministically."""
    cfg = parse_config(cfg_text)
    pattern = parse_pattern(cfg.pattern)
    seed = cfg.trial_seed(n_index, trial)
    state = init_process(n, pattern, seed)
    try:
        constants = Constants.for_run(pattern, n, eps=cfg.eps, mu=cfg.mu)
    except ValueError:
        # step horizon undefined at tiny n; fine unless monitors need it
        constants = None
        if cfg.monitors:
            raise
    stop = _stop_rule(cfg)

    checkpoints = cfg.checkpoint_list()
    if checkpoints is None:
        checkpoints = default_checkpoints(constants) if constants else []
    monitor_rows: list[dict] = []
    traj_path = None
    traj_records: list[dict] = []

    if cfg.monitors:
        stats = monitor_trajectory(iter_process(state, stop), constants,
                                   checkpoints, cuv_samples=cfg.cuv_samples,
                                   intersection_samples=cfg.intersection_samples,
                                   sample_seed=seed + 7919)
        for rec in stats.records:
            row = {"n": n, "trial": trial}
            row.update(rec.as_row())
            monitor_rows.append(row)
    else:
        run_until(state, stop)

    if cfg.traj_log != "off":
        marks = set(checkpoints)
        traj_path = os.path.join(out_dir, f"trial_n{n}_t{trial:03d}.traj.jsonl")
        with open(traj_path, "x") as fh:
            header = {"n": n, "pattern": cfg.pattern, "seed": seed,
                      "rng": RNG_ID, "stop": cfg.stop, "log": LOG_CONVENTION}
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for (step_no, pid, closed) in state.history:
                if cfg.traj_log == "checkpoints" and step_no not in marks:
                    continue
                u, v = pair_from_index(pid, n)
                # the bytes of json.dumps(..., sort_keys=True) on this record
                fh.write(f'{{"newly_closed": {closed}, "pair": [{u + 1}, {v + 1}], '
                         f'"step": {step_no}}}\n')

    edges_path = os.path.join(out_dir, f"trial_n{n}_t{trial:03d}.edges.txt")
    with open(edges_path, "x") as fh:
        write_edge_list(state.graph, fh)

    stats_row = {
        "n": n, "trial": trial, "seed": seed, "steps": state.step,
        "final_edges": state.graph.edge_count,
        "exhausted": int(state.is_exhausted()),
        "max_degree": max(state.graph.degrees),
        "closed_pairs": state.closed_count(),
        "open_pairs": state.open_count(),
    }

    density_row = None
    if cfg.density_k > 0:
        budget = cfg.density_budget if cfg.density_budget > 0 else None
        report = bounded_density_scan(state.graph, cfg.density_k,
                                      mode=cfg.density_mode, node_budget=budget,
                                      seed=seed, constants=constants)
        density_row = {"n": n, "trial": trial}
        density_row.update(report.as_row())

    copy_rows = []
    for spec in cfg.copy_patterns:
        target = parse_pattern(spec)
        copy_rows.append({"n": n, "trial": trial, "target": spec,
                          "present": int(contains_copy(target, state.graph))})

    files = [edges_path] + ([traj_path] if traj_path else [])
    return {"n": n, "trial": trial, "stats": stats_row, "monitors": monitor_rows,
            "density": density_row, "copies": copy_rows, "files": files}


@dataclass
class RunResult:
    out_dir: str
    manifest_path: str
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_experiment(cfg: ExperimentConfig, out_dir: str, force: bool = False,
                   workers: Optional[int] = None) -> RunResult:
    cfg.validate()
    os.makedirs(out_dir, exist_ok=True)
    existing = [f for f in os.listdir(out_dir) if not f.startswith(".")]
    if existing and not force:
        raise FileExistsError(
            f"output directory {out_dir!r} is not empty (use force to clear)")
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
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)

    t0 = time.time()
    cfg_text = cfg.to_text()
    jobs = [(n_index, n, trial)
            for n_index, n in enumerate(cfg.n_values)
            for trial in range(cfg.trials)]
    results = {}
    failures: list[str] = []
    nworkers = workers if workers is not None else cfg.workers
    if nworkers > 1:
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

    stats_rows, monitor_rows, density_rows, copy_rows, files = [], [], [], [], []
    for key in sorted(results):
        res = results[key]
        stats_rows.append(res["stats"])
        monitor_rows.extend(res["monitors"])
        if res["density"]:
            density_rows.append(res["density"])
        copy_rows.extend(res["copies"])
        files.extend(res["files"])

    stats_path = os.path.join(out_dir, "stats.csv")
    _write_csv(stats_path, cfg, STATS_COLUMNS, stats_rows)
    files.append(stats_path)
    if monitor_rows:
        path = os.path.join(out_dir, "monitors.csv")
        _write_csv(path, cfg, MONITOR_COLUMNS, monitor_rows)
        files.append(path)
    if density_rows:
        path = os.path.join(out_dir, "density.csv")
        _write_csv(path, cfg, DENSITY_COLUMNS, density_rows)
        files.append(path)
    if copy_rows:
        path = os.path.join(out_dir, "copies.csv")
        _write_csv(path, cfg, COPY_COLUMNS, copy_rows)
        files.append(path)

    manifest["files"] = sorted(os.path.relpath(p, out_dir) for p in files)
    manifest["timings"] = {"wall_seconds": round(time.time() - t0, 3)}
    manifest["failures"] = failures
    manifest["finalized"] = True
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return RunResult(out_dir=out_dir, manifest_path=manifest_path,
                     failures=failures)


# ── aggregation ──────────────────────────────────────────────────────────

def read_csv_rows(path: str) -> list[dict]:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body:
        return []
    header = body[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in body[1:] if ln]


def aggregate_stats(out_dir: str) -> dict:
    """Cross-trial means/quantiles and, when the data supports it, the
    log-log exponent fit of the final edge counts."""
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
    by_n: dict[int, list[int]] = {}
    for row in rows:
        by_n.setdefault(int(row["n"]), []).append(int(row["final_edges"]))
    summary = {}
    for n in sorted(by_n):
        vals = sorted(by_n[n])
        k = len(vals)
        summary[n] = {
            "trials": k,
            "mean_final_edges": sum(vals) / k,
            "min": vals[0],
            "median": vals[k // 2] if k % 2 else (vals[k // 2 - 1] + vals[k // 2]) / 2,
            "max": vals[-1],
        }
    out = {"by_n": summary, "config_hash": manifest["config_hash"]}
    if len(by_n) >= 4 and all(len(v) >= 3 for v in by_n.values()):
        from .analysis import fit_edge_exponent
        fit = fit_edge_exponent([(n, v) for n, vals in by_n.items() for v in vals])
        out["edge_exponent"] = {"slope": fit.slope, "stderr": fit.stderr}
    mon_path = os.path.join(out_dir, "monitors.csv")
    if os.path.exists(mon_path):
        mon = read_csv_rows(mon_path)
        ratios = [float(r["open_ratio"]) for r in mon if r.get("open_ratio")]
        if ratios:
            out["monitor"] = {"checkpoints": len(ratios),
                              "max_open_ratio": max(ratios)}
    return out
