"""hfree benchmark: four workloads through the public CLI entry points.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1|both>

Each workload runs a fixed round of `hfree.cli.main([...])` commands in this
process, one at a time (a closed loop with one client, workers = 1), and
repeats the round until --seconds have passed.  The round's inputs depend
only on --seed.  Every command's outputs are checked by code in this
directory, not by hfree; a failed check counts the command's operations
(simulate trials or density scans) as failed and makes the exit code 1.

--trace 0 reports the end-to-end metrics (medians over rounds), --trace 1
the per-layer metrics from span-traced rounds (alternating with untraced
rounds, to report the tracing overhead), --trace both runs one phase after
the other.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, ".work")
PINS = os.path.join(BENCH, "pins.json")
SETUP_PROBES = 7

sys.path.insert(0, SRC)
try:
    import hfree.cli
    from hfree.process import RNG_ID
    from hfree.theory import LOG_CONVENTION
except ImportError as exc:
    sys.exit(f"error: cannot import hfree from {SRC}: {exc}")
if not os.path.abspath(hfree.cli.__file__).startswith(SRC + os.sep):
    sys.exit(f"error: imported hfree from {hfree.cli.__file__}, not from {SRC}")

import hosts  # noqa: E402  (after the path check above)
import spans  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}

# Probe run in a fresh interpreter: everything a user pays before the timed
# command (interpreter start, importing hfree, writing the config).
PROBE = """import sys, time
sys.path.insert(0, sys.argv[1])
import hfree.cli
if sys.argv[2]:
    with open(sys.argv[2], "w") as fh:
        fh.write(sys.argv[3])
print(repr(time.perf_counter()))
"""


# ── workloads ────────────────────────────────────────────────────────────

class Simulate:
    """One `hfree simulate` command per round, on a pinned config."""

    def __init__(self, name: str, pattern: str, n: int, trials: int, extra: str):
        self.name, self.pattern, self.n, self.trials = name, pattern, n, trials
        self.extra = extra

    def prepare(self, work: str, seed: int) -> None:
        self.work = work
        self.cfg_path = os.path.join(work, "sim.cfg")
        self.cfg_text = (f"pattern = {self.pattern}\nn = {self.n}\n"
                         f"trials = {self.trials}\nseed = {seed}\n"
                         f"stop = exhaustion\nworkers = 1\n{self.extra}")
        with open(self.cfg_path, "w") as fh:
            fh.write(self.cfg_text)
        self.first: dict[str, str] | None = None

    def commands(self, rnd: int) -> list[tuple[list[str], int]]:
        out = os.path.join(self.work, f"out{rnd}")
        return [(["simulate", "--config", self.cfg_path, "--out", out], self.trials)]

    def check(self, argv: list[str], rc: int, stdout: str, res: "Result") -> dict:
        """Checks one simulate command; returns per-layer counts of its
        output (files and bytes written, manifest excluded)."""
        out = argv[argv.index("--out") + 1]
        if rc != 0:
            res.fail(self.trials, f"simulate exited {rc}")
            return {}
        files = sorted(f for f in os.listdir(out) if f != "manifest.json")
        digests = {}
        for f in files:
            with open(os.path.join(out, f), "rb") as fh:
                digests[f] = hashlib.sha256(fh.read()).hexdigest()
        counts = {"harness.bytes_written": sum(os.path.getsize(os.path.join(out, f))
                                               for f in files),
                  "harness.files_written": len(files)}
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        if not manifest.get("finalized") or manifest.get("failures"):
            res.fail(self.trials, f"manifest not clean: {manifest.get('failures')}")
        elif sorted(manifest["files"]) != files:
            res.fail(self.trials, "manifest file list differs from the directory")
        elif self.first is None:
            self.first = digests
            res.digests = digests
            failed_before = res.failed
            bad = self._check_content(out)
            for trial in sorted(bad):
                res.fail(1, f"trial {trial} output check failed")
            pins = load_pins().get("sim", {}).get(RNG_ID, {}).get(self.name, {})
            pinned = pins.get(str(res.seed))
            if pinned is None:
                res.note(f"no pinned digests for seed {res.seed} under {RNG_ID}")
            elif pinned != digests:
                wrong = sorted(f for f in set(pinned) | set(digests)
                               if pinned.get(f) != digests.get(f))
                res.fail(self.trials - len(bad), f"files differ from the pins: {wrong}")
            self.first_failed = res.failed - failed_before
        elif digests != self.first:
            res.fail(self.trials, "a repeat wrote different outputs")
        elif self.first_failed:
            res.fail(self.first_failed, "a repeat wrote the same failed outputs")
        shutil.rmtree(out)
        return counts

    def _check_content(self, out: str) -> set[int]:
        """Final graphs H-free and maximal (by this directory's predicate),
        and Edge/Open/Closed bookkeeping exhaustive."""
        bad = set()
        npairs = self.n * (self.n - 1) // 2
        rows = read_csv(os.path.join(out, "stats.csv"))
        if len(rows) != self.trials:
            return set(range(self.trials))
        for row in rows:
            t = int(row["trial"])
            steps, opened = int(row["steps"]), int(row["open_pairs"])
            if (steps + opened + int(row["closed_pairs"]) != npairs or opened
                    or int(row["final_edges"]) != steps):
                bad.add(t)
                continue
            stem = os.path.join(out, f"trial_n{self.n}_t{t:03d}")
            adj = hosts.read_edge_list(stem + ".edges.txt")
            if (len(adj) != self.n or sum(a.bit_count() for a in adj) != 2 * steps
                    or not hosts.is_maximal_free(adj, self.pattern)):
                bad.add(t)
                continue
            if os.path.exists(stem + ".traj.jsonl") and not traj_matches(
                    stem + ".traj.jsonl", adj, steps):
                bad.add(t)
        if os.path.exists(os.path.join(out, "monitors.csv")):
            for row in read_csv(os.path.join(out, "monitors.csv")):
                step = int(row["step"])
                if (int(row["edges"]) != step or not row["cuv_min"]
                        or int(row["open"]) + int(row["closed"]) + step != npairs):
                    bad.add(int(row["trial"]))
        return bad


class Density:
    """One `hfree density` command per host per round, on hosts made here.

    Host candidates come from generator seeds seed*1000, seed*1000+1, ...;
    with ``skip_biclique = s`` a candidate containing K_{s,s} is skipped."""

    def __init__(self, name: str, pattern: str, n: int, k: int, hosts_per_round: int,
                 skip_biclique: int = 0):
        self.name, self.pattern, self.n, self.k = name, pattern, n, k
        self.count = hosts_per_round
        self.skip_biclique = skip_biclique
        self.cfg_text = ""

    def prepare(self, work: str, seed: int) -> None:
        self.hosts = []
        candidate = seed * 1000
        while len(self.hosts) < self.count:
            adj = hosts.greedy_free_graph(self.n, self.pattern, candidate)
            candidate += 1
            if self.skip_biclique and hosts.has_biclique(adj, self.skip_biclique):
                continue
            path = os.path.join(work, f"host{len(self.hosts)}.txt")
            hosts.write_edge_list(adj, path)
            self.hosts.append((path, adj))
        self.first: dict[str, str] = {}

    def commands(self, rnd: int) -> list[tuple[list[str], int]]:
        return [(["density", path, "--k", str(self.k), "--pattern", self.pattern], 1)
                for path, _ in self.hosts]

    def check(self, argv: list[str], rc: int, stdout: str, res: "Result") -> dict:
        path = argv[1]
        adj = dict(self.hosts)[path]
        if rc != 0:
            res.fail(1, f"density on {os.path.basename(path)} exited {rc}")
            return {}
        try:
            rep = json.loads(stdout.splitlines()[0])
            dens = Fraction(rep["density"])
            wit = [int(v) - 1 for v in rep["witness"].split()]
        except (IndexError, KeyError, ValueError) as exc:
            res.fail(1, f"unreadable density report: {exc}")
            return {}
        host = os.path.basename(path)
        problems = []
        if rep["optimal"] != 1:
            problems.append("not proven optimal")
        if (len(set(wit)) != len(wit) or not 0 < len(wit) <= self.k
                or not all(0 <= v < self.n for v in wit)):
            problems.append(f"bad witness {rep['witness']!r}")
        elif hosts.induced_edges(adj, wit) != dens * len(wit):
            problems.append(f"e(witness) != {dens} * {len(wit)}")
        if self.first.setdefault(host, rep["density"]) != rep["density"]:
            problems.append("a repeat found another density")
        pins = load_pins().get("density", {}).get(self.name, {}).get(str(res.seed))
        if pins is not None and pins.get(host) != rep["density"]:
            problems.append(f"density {rep['density']} != pinned {pins.get(host)}")
        if problems:
            res.fail(1, f"{host}: " + "; ".join(problems))
        res.digests[host] = rep["density"]
        return {"harness.bytes_written": 0, "harness.files_written": 0}


# Sizes: a round takes 2-9 s on a 2-core Xeon VM, so a run of 20 s holds
# several rounds and its median rides out the machine's short slow spells.
WORKLOADS = {
    # write path: sampling, pair decoding, closure scan, trajectory I/O
    "sim-c3-exhaust": Simulate("sim-c3-exhaust", "C3", 600, 1,
                               "monitors = off\ncheckpoints = off\ntraj_log = full\n"),
    # read path: C_uv queries on a scratch copy against a small process
    "sim-c4-monitor": Simulate(
        "sim-c4-monitor", "C4", 400, 2,
        "monitors = on\ncuv_samples = 20\nintersection_samples = 200\n"
        "checkpoints = " + ", ".join(str(250 * i) for i in range(1, 11)) + "\n"),
    # triangle-free hosts: warm start and bipartite anchor scan, no B&B.  A
    # host with K_{5,5} (density 5/2; about 1 in 4 at n = 300) ends the
    # anchor search early at a third of the cost, so it is skipped: every
    # scan must prove 12/5 by exhausting the anchor pairs.  Scan cost still
    # differs by about 10% between hosts, hence three per round.
    "density-c3-anchor": Density("density-c3-anchor", "C3", 300, 10, 3, skip_biclique=5),
    # C4-free hosts contain triangles: branch-and-bound does the work
    "density-c4-bnb": Density("density-c4-bnb", "C4", 200, 6, 2),
}


# ── helpers ──────────────────────────────────────────────────────────────

def read_csv(path: str) -> list[dict]:
    with open(path) as fh:
        body = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    header = body[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in body[1:] if ln]


def traj_matches(path: str, adj: list[int], steps: int) -> bool:
    """The full trajectory log lists steps 1..steps and exactly the edges."""
    seen = [0] * len(adj)
    with open(path) as fh:
        lines = fh.readlines()[1:]
    if len(lines) != steps:
        return False
    for i, line in enumerate(lines, start=1):
        rec = json.loads(line)
        u, v = rec["pair"][0] - 1, rec["pair"][1] - 1
        if rec["step"] != i or seen[u] >> v & 1:
            return False
        seen[u] |= 1 << v
        seen[v] |= 1 << u
    return seen == adj


def load_pins() -> dict:
    if not os.path.exists(PINS):
        return {}
    with open(PINS) as fh:
        return json.load(fh)


def git_commit() -> str | None:
    """HEAD of the checkout, read without running git; None outside git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.exists(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def src_digest() -> str:
    """sha256 over hfree's sources, to match a result to its code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "hfree")
    for f in sorted(os.listdir(pkg)):
        if f.endswith(".py"):
            h.update(f.encode() + b"\0")
            with open(os.path.join(pkg, f), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def reference_loop_s() -> float:
    """Median time of a fixed pure-Python loop: how fast this machine ran
    plain bytecode when the run started (shared hosts drift by 1.5x)."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment(workload: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "reference_loop_s": reference_loop_s(),
        "hfree_git_commit": git_commit(),
        "hfree_src_sha256": src_digest(),
        "rng": RNG_ID,
        "log": LOG_CONVENTION,
        "workload": workload,
        "seed": seed,
        "workers": 1,
    }


class Result:
    """Operations attempted and failed, check failures and notes of a run."""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.notes: list[str] = []
        self.digests: dict[str, str] = {}

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        self.failures.append(why)

    def note(self, why: str) -> None:
        if why not in self.notes:
            self.notes.append(why)


def run_command(argv: list[str]) -> tuple[int, str, float, float]:
    """(exit code, stdout, wall s, cpu s) of one in-process CLI command."""
    buf = io.StringIO()
    gc.collect()
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = hfree.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed operation, not a benchmark abort
        print(f"error: {argv[0]} raised {exc!r}", file=sys.stderr)
        rc = -1
    t1 = time.perf_counter()
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return rc, buf.getvalue(), t1 - t0, cpu


def run_round(wl, rnd: int, res: Result, tracer: spans.Tracer | None = None):
    """Runs and checks one round; returns (wall s, cpu s, output counts)."""
    wall = cpu = 0.0
    counts: dict[str, int] = {}
    for argv, ops in wl.commands(rnd):
        res.attempted += ops
        if tracer is not None:
            tracer.install()
            root = tracer.open(0)
        try:
            rc, out, w, c = run_command(argv)
        finally:
            if tracer is not None:
                tracer.close(root)
                tracer.uninstall()
        wall += w
        cpu += c
        for key, val in wl.check(argv, rc, out, res).items():
            counts[key] = counts.get(key, 0) + val
    return wall, cpu, counts


def setup_seconds(wl, work: str) -> float:
    """Median over fresh interpreters of start -> hfree imported and the
    workload's config written."""
    times = []
    for _ in range(SETUP_PROBES):
        cfg = os.path.join(work, "probe.cfg") if wl.cfg_text else ""
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", PROBE, SRC, cfg, wl.cfg_text],
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip()) - t0)
    return statistics.median(times)


# ── phases ───────────────────────────────────────────────────────────────

def end_to_end(wl, seconds: float, res: Result, work: str) -> tuple[dict, dict]:
    walls, cpus = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        w, c, _ = run_round(wl, len(walls), res)
        walls.append(w)
        cpus.append(c)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
               "peak_rss_mib": peak, "setup_s": setup_seconds(wl, work)}
    return metrics, {"rounds": len(walls), "wall_s": walls, "cpu_s": cpus}


def per_layer(wl, seconds: float, res: Result, name: str) -> tuple[dict, dict]:
    """Alternates untraced and traced rounds; layer times are medians over
    traced rounds, counts must repeat exactly in every traced round."""
    tracer = spans.Tracer()
    for line in tracer.notes:
        res.note(line)
    plain, traced, rounds = [], [], []
    start = time.perf_counter()
    rnd = 0
    while not traced or time.perf_counter() - start < seconds:
        if len(plain) <= len(traced):
            plain.append(run_round(wl, rnd, res)[0])
        else:
            lo = len(tracer)
            w, _, counts = run_round(wl, rnd, res, tracer)
            traced.append(w)
            vals = spans.layer_values(tracer, lo, len(tracer))
            vals.update(counts)
            rounds.append(vals)
        rnd += 1
    metrics = {}
    for key in list(spans.LAYER_METRICS) + ["harness.bytes_written", "harness.files_written"]:
        seen = [r.get(key) for r in rounds]
        if None in seen:
            metrics[key] = None
        elif LAYER_UNITS[key] == "count":
            metrics[key] = seen[0]
            if any(v != seen[0] for v in seen):
                res.fail(0, f"count {key} differs between traced rounds: {seen}")
        else:
            metrics[key] = statistics.median(seen)
    metrics["trace.untraced_wall_s"] = statistics.median(plain)
    metrics["trace.traced_wall_s"] = statistics.median(traced)
    metrics["trace.overhead_ratio"] = (metrics["trace.traced_wall_s"]
                                       / metrics["trace.untraced_wall_s"])
    # one file per workload, overwritten by its next traced run (the seed
    # is in the results record), so repeated runs do not fill the disk
    os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
    tracer.write(os.path.join(WORK, "spans", f"{name}.tsv.gz"))
    return metrics, {"rounds": len(traced), "untraced_rounds": len(plain)}


LAYER_UNITS = {k: unit for k, (unit, _, _) in spans.LAYER_METRICS.items()}
LAYER_UNITS.update({"harness.bytes_written": "count", "harness.files_written": "count",
                    "trace.untraced_wall_s": "s", "trace.traced_wall_s": "s",
                    "trace.overhead_ratio": "ratio"})

# What the trace should show if each workload isolates its layer.
ISOLATION = {
    "density-c4-bnb": [("density.bnb.s / density.scan.s >= 0.90",
                        lambda m: m["density.bnb.s"] / m["density.scan.s"] >= 0.90)],
    "density-c3-anchor": [
        ("density.bnb.nodes == 0", lambda m: m["density.bnb.nodes"] == 0),
        ("(density.anchor.s + density.pocket_warm.s) / density.scan.s >= 0.80",
         lambda m: (m["density.anchor.s"] + m["density.pocket_warm.s"])
         / m["density.scan.s"] >= 0.80)],
    "sim-c3-exhaust": [("process.compute_C_uv.calls == 0",
                        lambda m: m["process.compute_C_uv.calls"] == 0)],
    "sim-c4-monitor": [("process.compute_C_uv.s / trace.traced_wall_s >= 0.30",
                        lambda m: m["process.compute_C_uv.s"]
                        / m["trace.traced_wall_s"] >= 0.30)],
}


def run_workload(name: str, seed: int, seconds: float, trace: str) -> dict:
    wl = WORKLOADS[name]
    work = os.path.join(WORK, f"{name}-seed{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    res = Result(seed)
    env = environment(name, seed)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    metrics: dict = {}
    units: dict = {}
    samples: dict = {}
    try:
        wl.prepare(work, seed)
        if trace in ("0", "both"):
            m, samples["end_to_end"] = end_to_end(wl, seconds, res, work)
            metrics.update(m)
            units.update(END_TO_END)
        if trace in ("1", "both"):
            m, samples["per_layer"] = per_layer(wl, seconds, res, name)
            metrics.update(m)
            units.update(LAYER_UNITS)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {name} seed {seed}: {res.attempted} operations, "
          f"{res.failed} failed, failed_frac {res.failed / max(res.attempted, 1):.4g}")
    for key, val in metrics.items():
        shown = "null" if val is None else f"{val:.6g}"
        print(f"  {key} = {shown} {units[key]}")
    if trace in ("1", "both"):
        for label, test in ISOLATION[name]:
            try:
                verdict = "ok" if test(metrics) else "NOT MET"
            except (TypeError, ZeroDivisionError):   # a metric is null or 0
                verdict = "n/a"
            print(f"  isolation {verdict}: {label}")
    for line in res.notes:
        print(f"  note: {line}")
    for line in res.failures:
        print(f"  FAILED: {line}")
    record = {"env": env, "metrics": metrics, "units": units, "samples": samples,
              "attempted": res.attempted, "failed": res.failed,
              "failures": res.failures, "notes": res.notes, "outputs": res.digests}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{name}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return {"correct": not res.failures, "attempted": res.attempted,
            "failed": res.failed, "outputs": res.digests,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", default="0", choices=["0", "1", "both"])
    parser.add_argument("--pin", action="store_true",
                        help="record this seed's checked outputs as its pins")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, args.trace)
               for name in names}
    if args.pin:
        write_pins(results, args.seed)
    if len(results) == 1:
        (only,) = results.values()
        summary = {k: only[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {f"{name}/{k}": v for name, r in results.items()
                               for k, v in r["metrics"].items()}}
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


def write_pins(results: dict, seed: int) -> None:
    """Pins checked outputs of this seed: simulate digests under the current
    RNG id, density values per host.  Refuses a run whose checks failed."""
    pins = load_pins()
    for name, r in results.items():
        if not r["correct"]:
            raise SystemExit(f"not pinning {name}: its checks failed")
        if name.startswith("sim-"):
            pins.setdefault("sim", {}).setdefault(RNG_ID, {}).setdefault(name, {})[str(seed)] = r["outputs"]
        else:
            pins.setdefault("density", {}).setdefault(name, {})[str(seed)] = r["outputs"]
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    raise SystemExit(main())
