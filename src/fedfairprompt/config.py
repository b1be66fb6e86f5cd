"""Run configuration: flat key=value files, flag overrides, validation.

A config is one frozen dataclass carrying every tunable of the pipeline.
Files are plain text, one ``key=value`` pair per line with ``#`` comments,
so diffs between experiment configs stay readable. Unknown keys are
rejected rather than ignored; a typo silently reverting a field to its
default is the kind of bug that costs a day.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace

from .encoder import GROUP_TEMPLATES

METHODS = ("fvlfp", "fedavg_baseline", "wo-cdfp", "wo-dsop", "wo-fpf")


@dataclass(frozen=True)
class Config:
    """Every knob of a federation run, validated on construction. The
    task (smiling) and the sensitive attribute (gender) are fixed: see
    ``encoder.CLASS_TEMPLATES`` and ``encoder.GROUP_TEMPLATES``."""

    # method and run
    method: str = "fvlfp"
    master_seed: int = 0
    out_dir: str = "runs"

    # federation
    clients: int = 5
    rounds: int = 20
    alpha: float = 0.5
    batch_size: int = 16
    lr: float = 2e-4

    # losses and debiasing
    mu: float = 0.3
    lambda1: float = 1.0
    lambda2: float = 1.0
    subspace_rank: int = 1

    # server refinement
    refine_steps: int = 50
    refine_lr: float = 2e-3
    refine_batch: int = 32

    # data
    n_train: int = 4000
    n_test: int = 400
    n_val: int = 400
    label_signal: float = 0.3
    group_signal: float = 2.0
    noise_sigma: float = 0.3
    spurious_strength: float = 0.8
    minority_attenuation: float = 0.5
    data_dir: str = ""

    # frozen encoder
    encoder_seed: int = 7
    mlp_ratio: int = 2
    prompt_tokens: int = 2

    def __post_init__(self):
        for name, kind in _FIELD_TYPES.items():
            value, (types, noun) = getattr(self, name), _KINDS[kind]
            _require(isinstance(value, types) and not isinstance(value, bool), name,
                     f"must be {noun}", value)
            if kind == "float":  # stored as a float, so config.txt reads back the same text
                _require(math.isfinite(value), name, "must be finite", value)
                object.__setattr__(self, name, float(value))
            _require(kind != "str" or value == value.strip() and not any(c in value for c in "#\r\n"),
                     name, "must hold no '#', line break or edge blank; config.txt drops them", value)
        _require(self.method in METHODS, "method", f"must be one of {METHODS}", self.method)
        _require(self.out_dir != "", "out_dir", "must not be empty", self.out_dir)
        _require(self.master_seed >= 0, "master_seed", "must be >= 0", self.master_seed)
        _require(self.clients >= 1, "clients", "must be >= 1", self.clients)
        _require(self.rounds >= 0, "rounds", "must be >= 0", self.rounds)
        _require(self.alpha > 0.0, "alpha", "must be > 0", self.alpha)
        _require(self.batch_size >= 1, "batch_size", "must be >= 1", self.batch_size)
        _require(self.lr > 0.0, "lr", "must be > 0", self.lr)
        _require(0.0 <= self.mu < 1.0, "mu", "must lie in [0, 1)", self.mu)
        _require(self.lambda1 >= 0.0, "lambda1", "must be >= 0", self.lambda1)
        _require(self.lambda2 >= 0.0, "lambda2", "must be >= 0", self.lambda2)
        _require(1 <= self.subspace_rank <= len(GROUP_TEMPLATES), "subspace_rank",
                 f"must lie in [1, {len(GROUP_TEMPLATES)}]", self.subspace_rank)
        _require(self.refine_steps >= 0, "refine_steps", "must be >= 0", self.refine_steps)
        _require(self.refine_lr > 0.0, "refine_lr", "must be > 0", self.refine_lr)
        _require(self.refine_batch >= 2, "refine_batch", "must be >= 2", self.refine_batch)
        _require(self.n_train >= self.clients, "n_train",
                 f"must cover {self.clients} clients", self.n_train)
        _require(self.n_test >= 4 and self.n_test % 4 == 0, "n_test",
                 "must be a positive multiple of 4", self.n_test)
        _require(self.n_val >= 4 and self.n_val % 4 == 0, "n_val",
                 "must be a positive multiple of 4", self.n_val)
        _require(self.label_signal > 0.0, "label_signal", "must be > 0", self.label_signal)
        _require(self.group_signal >= 0.0, "group_signal", "must be >= 0", self.group_signal)
        _require(self.noise_sigma >= 0.0, "noise_sigma", "must be >= 0", self.noise_sigma)
        _require(0.0 <= self.spurious_strength <= 1.0, "spurious_strength",
                 "must lie in [0, 1]", self.spurious_strength)
        _require(0.0 <= self.minority_attenuation < 1.0, "minority_attenuation",
                 "must lie in [0, 1)", self.minority_attenuation)
        _require(self.mlp_ratio >= 1, "mlp_ratio", "must be >= 1", self.mlp_ratio)
        _require(self.prompt_tokens >= 1, "prompt_tokens", "must be >= 1", self.prompt_tokens)

    # convenience views used by the federation loop
    @property
    def cdfp_enabled(self) -> bool:
        return self.method in ("fvlfp", "wo-dsop", "wo-fpf")

    @property
    def dsop_enabled(self) -> bool:
        return self.method in ("fvlfp", "wo-cdfp", "wo-fpf")

    @property
    def fpf_enabled(self) -> bool:
        """Score-weighted fusion plus server refinement."""
        return self.method in ("fvlfp", "wo-cdfp", "wo-dsop")


def _require(ok: bool, field_name: str, rule: str, value) -> None:
    if not ok:
        raise ValueError(f"config field '{field_name}' {rule}, got {value!r}")


_FIELD_TYPES = {f.name: f.type for f in fields(Config)}
# the values each declared type accepts (never a bool), and their name
_KINDS = {"int": (int, "an integer"), "float": ((int, float), "a real number"), "str": (str, "text")}


def parse_value(key: str, raw: str):
    """Convert one raw string to the declared type of config field ``key``."""
    if key not in _FIELD_TYPES:
        raise ValueError(f"unknown config key '{key}'")
    kind = _FIELD_TYPES[key]
    text = raw.strip()
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        return text
    except ValueError:
        raise ValueError(f"config field '{key}' expects {kind}, got {text!r}") from None


def _parse_file(path: str) -> dict:
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line.rstrip()!r}")
            key, raw = body.split("=", 1)
            key = key.strip()
            try:
                values[key] = parse_value(key, raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return values


def parse_config(path: str | None = None, overrides: dict | None = None) -> Config:
    """Build a Config from an optional file plus override values.

    Overrides (CLI flags) win over file values; both win over defaults.
    Override values may be raw strings or already-typed values.
    """
    values = _parse_file(path) if path else {}
    for key, value in (overrides or {}).items():
        values[key] = parse_value(key, value) if isinstance(value, str) else value
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config key '{key}'")
    return replace(Config(), **values)


def config_lines(config: Config) -> str:
    """Canonical key=value serialization; reparses to an equal Config."""
    out = []
    for f in sorted(fields(Config), key=lambda f: f.name):
        value = getattr(config, f.name)
        out.append(f"{f.name}={value if isinstance(value, str) else repr(value)}")
    return "\n".join(out) + "\n"


def config_hash(config: Config) -> str:
    return hashlib.sha256(config_lines(config).encode("utf-8")).hexdigest()[:16]
