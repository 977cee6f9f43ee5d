"""Experiment configuration: a flat, human-editable key-value format.

Grammar: one `key = value` per line; '#' starts a comment; lists are
comma-separated.  In ``copy_patterns`` a comma can also sit inside a
pattern spec: a bare number after ``K<a>`` continues it as ``K<a>,<b>``,
and a ``u-v`` pair after an ``edges:`` spec continues that edge list.  The
format round-trips losslessly through
``ExperimentConfig.to_text`` / ``parse_config``, and the canonical text is
what gets hashed into run manifests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional


@dataclass
class ExperimentConfig:
    pattern: str = "C3"
    n_values: list[int] = field(default_factory=lambda: [50])
    trials: int = 1
    seed: int = 0
    stop: str = "exhaustion"          # exhaustion | horizon | steps:<k>
    eps: Optional[str] = None         # rational literal, e.g. "0.1" or "1/10"
    mu: Optional[str] = None
    checkpoints: str = "auto"         # auto | off | comma list of steps
    monitors: bool = False
    cuv_samples: int = 0
    intersection_samples: int = 100
    density_k: int = 0                # 0 disables the density scan
    density_mode: str = "exact"       # exact | heuristic
    density_budget: int = 0           # 0 = unlimited
    copy_patterns: list[str] = field(default_factory=list)
    traj_log: str = "off"             # off | checkpoints | full
    workers: int = 1

    def validate(self) -> None:
        for key, low in (("trials", 1), ("workers", 1), ("cuv_samples", 0),
                         ("intersection_samples", 0), ("density_k", 0), ("density_budget", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if not self.n_values:
            raise ValueError("need at least one n value")
        if min(self.n_values) < 1:
            raise ValueError(f"n values must be >= 1, got {min(self.n_values)}")
        if len(set(self.n_values)) < len(self.n_values):
            raise ValueError(f"duplicate n values in {self.n_values}: trial files would clash")
        if self.stop not in ("exhaustion", "horizon") and not self.stop.startswith("steps:"):
            raise ValueError(f"bad stop rule {self.stop!r}")
        if self.stop.startswith("steps:") and not self.stop[len("steps:"):].isdigit():
            raise ValueError(f"bad step count in stop rule {self.stop!r}")
        if self.density_mode not in ("exact", "heuristic"):
            raise ValueError(f"bad density mode {self.density_mode!r}")
        if self.traj_log not in ("off", "checkpoints", "full"):
            raise ValueError(f"bad traj_log {self.traj_log!r}")
        if self.checkpoints not in ("auto", "off"):
            for tok in self.checkpoints.split(","):
                if not tok.strip().isdigit() or int(tok) < 1:
                    raise ValueError(f"bad checkpoint list {self.checkpoints!r}: steps are >= 1")
        for key in ("eps", "mu"):
            if (value := getattr(self, key)) is not None and not _positive(value):
                raise ValueError(f"{key} = {value!r}: expected a positive rational "
                                 f"such as 0.1 or 1/10")

    def checkpoint_list(self) -> Optional[list[int]]:
        if self.checkpoints == "auto":
            return None
        if self.checkpoints == "off":
            return []
        return sorted({int(tok.strip()) for tok in self.checkpoints.split(",")})

    def trial_seed(self, n_index: int, trial_index: int) -> int:
        """Deterministic per-trial stream: base + n-index offset + trial."""
        return self.seed + n_index * self.trials + trial_index

    def to_text(self) -> str:
        lines = [
            f"pattern = {self.pattern}",
            f"n = {', '.join(str(x) for x in self.n_values)}",
            f"trials = {self.trials}",
            f"seed = {self.seed}",
            f"stop = {self.stop}",
        ]
        if self.eps is not None:
            lines.append(f"eps = {self.eps}")
        if self.mu is not None:
            lines.append(f"mu = {self.mu}")
        lines += [
            f"checkpoints = {self.checkpoints}",
            f"monitors = {'on' if self.monitors else 'off'}",
            f"cuv_samples = {self.cuv_samples}",
            f"intersection_samples = {self.intersection_samples}",
            f"density_k = {self.density_k}",
            f"density_mode = {self.density_mode}",
            f"density_budget = {self.density_budget}",
            f"copy_patterns = {', '.join(self.copy_patterns) if self.copy_patterns else 'off'}",
            f"traj_log = {self.traj_log}",
            f"workers = {self.workers}",
        ]
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        import hashlib  # loads OpenSSL, which commands that never hash skip
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:16]


_TEXT_KEYS = {"pattern", "stop", "eps", "mu", "density_mode", "traj_log"}
_INT_KEYS = {"trials", "seed", "cuv_samples", "intersection_samples",
             "density_k", "density_budget", "workers"}


def parse_config(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        if key in _TEXT_KEYS:
            setattr(cfg, key, value)
        elif key in _INT_KEYS:
            setattr(cfg, key, _parse_int(value, lineno))
        elif key == "n":
            cfg.n_values = [_parse_int(tok.strip(), lineno) for tok in value.split(",")]
        elif key == "checkpoints":
            cfg.checkpoints = value.replace(" ", "") if value not in ("auto", "off") else value
        elif key == "monitors":
            cfg.monitors = _parse_bool(value, lineno)
        elif key == "copy_patterns":
            cfg.copy_patterns = [] if value == "off" else _split_patterns(value, lineno)
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
    cfg.validate()
    return cfg


def _split_patterns(value: str, lineno: int) -> list[str]:
    """Split a pattern list on commas, re-joining the commas inside a
    ``K<a>,<b>`` or ``edges:`` spec."""
    specs: list[str] = []
    for tok in (tok.strip() for tok in value.split(",")):
        prev = specs[-1] if specs else ""
        if (re.fullmatch(r"\d+", tok) and re.fullmatch(r"K\d+", prev)
                or re.fullmatch(r"\d+-\d+", tok) and prev.lower().startswith("edges:")):
            specs[-1] += "," + tok
        elif re.fullmatch(r"\d+(-\d+)?", tok):
            raise ValueError(f"line {lineno}: {tok!r} in {value!r} continues no "
                             f"K<a> or edges: pattern spec")
        else:
            specs.append(tok)
    return specs


def _positive(value: str) -> bool:
    try:
        return Fraction(value) > 0
    except (ValueError, ZeroDivisionError):
        return False


def _parse_int(value: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"line {lineno}: expected an integer, got {value!r}") from None


def _parse_bool(value: str, lineno: int) -> bool:
    if value in ("on", "true", "1", "yes"):
        return True
    if value in ("off", "false", "0", "no"):
        return False
    raise ValueError(f"line {lineno}: expected on/off, got {value!r}")
