"""Experiment harness: single runs, axis sweeps, and the table presets.

A sweep holds everything constant except one axis and a replicate
index. Replicate sub-seeds are derived from (master_seed, axis,
replicate) only, never from the swept value, so the cells of one
replicate are paired: same data, same partition draw (where the config
allows), same prompt init, different treatment. Re-running any single
cell in isolation reproduces its row bit for bit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .config import Config
from .federation import derive_seed, run_federation
from .metrics import METRIC_NAMES
from .report import FairnessReport, emit_report

SWEEP_AXES = ("alpha", "clients", "method", "mu", "lambda1")

# stable tags for sub-seed derivation; order must never change
_AXIS_TAGS = {axis: 1000 + i for i, axis in enumerate(SWEEP_AXES)}


@dataclass(frozen=True)
class CellResult:
    """One sweep cell: the swept value, replicate index, and outcome."""

    value: object
    replicate: int
    report: FairnessReport | None
    error: str = ""

    @property
    def failed(self) -> bool:
        return self.report is None or self.report.incomplete


@dataclass(frozen=True)
class SweepResult:
    axis: str
    values: tuple
    cells: tuple[CellResult, ...]

    @property
    def failed(self) -> bool:
        return any(c.failed for c in self.cells)

    def mean_summary(self, value) -> dict[str, float]:
        """Across-replicate means of the summary metrics at one value,
        over the cells that did not fail."""
        rows = [
            c.report.summary()
            for c in self.cells
            if c.value == value and not c.failed
        ]
        if not rows:
            raise ValueError(f"no completed cells at {self.axis}={value!r}")
        return {m: float(np.mean([r[m] for r in rows])) for m in METRIC_NAMES}

    def table(self) -> str:
        """Markdown comparison table, one column per swept value."""
        header = [f"{self.axis}={v}" for v in self.values]
        lines = [
            "| metric | " + " | ".join(header) + " |",
            "| --- |" + " --- |" * len(header),
        ]
        columns = []
        for v in self.values:
            try:
                columns.append(self.mean_summary(v))
            except ValueError:
                columns.append(None)
        for metric in METRIC_NAMES:
            cells = [
                "failed" if col is None else f"{col[metric]:.4f}" for col in columns
            ]
            lines.append(f"| {metric} | " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"


def run_experiment(config: Config) -> FairnessReport:
    """One federation run plus file emission under config.out_dir."""
    report = run_federation(config)
    emit_report(report, config.out_dir)
    return report


def _cell_dir(base: str, axis: str, value, replicate: int) -> str:
    return os.path.join(base, f"{axis}={value}", f"rep{replicate}")


def sweep(config: Config, axis: str, values, replicates: int = 3) -> SweepResult:
    """One run per (value, replicate); failures never abort siblings."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis '{axis}'; expected one of {SWEEP_AXES}")
    values = tuple(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    cells = []
    for value in values:
        for rep_index in range(replicates):
            sub_seed = derive_seed(config.master_seed, _AXIS_TAGS[axis], rep_index)
            try:
                cell_cfg = replace(
                    config,
                    master_seed=sub_seed,
                    out_dir=_cell_dir(config.out_dir, axis, value, rep_index),
                    **{axis: value},
                )
                report = run_experiment(cell_cfg)
                error = report.failure
            except Exception as exc:  # isolate the cell, keep siblings running
                report, error = None, f"{type(exc).__name__}: {exc}"
            cells.append(
                CellResult(value=value, replicate=rep_index, report=report, error=error)
            )
    result = SweepResult(axis=axis, values=values, cells=tuple(cells))
    os.makedirs(config.out_dir, exist_ok=True)
    table_path = os.path.join(config.out_dir, f"sweep_{axis}.md")
    with open(table_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(result.table())
    return result


# Table reproduction presets. Each entry: base config overrides, the
# methods to compare, and the single swept axis with its values (method
# sweeps leave axis None). Scales are calibrated so every preset's
# directional claim is measurable inside its runtime budget; table1
# runs the paper's full desk-scale setting.
_TABLE1_TUNING = dict(lr=2e-3)
_SWEEP_SCALE = dict(lr=2e-3, n_train=2000, spurious_strength=0.9)

PRESETS: dict[str, dict] = {
    "table1": dict(
        overrides=_TABLE1_TUNING,
        methods=("fedavg_baseline", "fvlfp"),
        axis=None,
        values=(),
    ),
    "table2": dict(
        overrides=_TABLE1_TUNING,
        methods=("fvlfp", "wo-cdfp", "wo-dsop", "wo-fpf"),
        axis=None,
        values=(),
    ),
    "table3_4": dict(
        overrides=_SWEEP_SCALE,
        methods=("fedavg_baseline", "fvlfp"),
        axis="alpha",
        values=(100.0, 1.0, 0.1),
    ),
    "table5": dict(
        overrides=_TABLE1_TUNING,
        methods=("fvlfp",),
        axis="clients",
        values=(5, 20),
    ),
}


@dataclass(frozen=True)
class PresetResult:
    name: str
    sweeps: dict[str, SweepResult]  # keyed by method

    @property
    def failed(self) -> bool:
        return any(s.failed for s in self.sweeps.values())

    def table(self) -> str:
        """Combined markdown table: one row per (method, swept value)."""
        lines = [
            "| method | cell | " + " | ".join(METRIC_NAMES) + " |",
            "| --- | --- |" + " --- |" * len(METRIC_NAMES),
        ]
        for method, sw in self.sweeps.items():
            for value in sw.values:
                label = f"{sw.axis}={value}"
                try:
                    row = sw.mean_summary(value)
                    cells = [f"{row[m]:.4f}" for m in METRIC_NAMES]
                except ValueError:
                    cells = ["failed"] * len(METRIC_NAMES)
                lines.append(f"| {method} | {label} | " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"


def run_preset(name: str, config: Config, replicates: int = 3) -> PresetResult:
    """Run one named preset; per-method sweeps land in subdirectories.

    Every cell starts from ``config`` with the preset's overrides, its
    method and its swept value applied on top; results go under
    ``config.out_dir/<name>``.
    """
    if name not in PRESETS:
        raise ValueError(f"unknown preset '{name}'; expected one of {sorted(PRESETS)}")
    spec = PRESETS[name]
    out_dir = config.out_dir
    sweeps: dict[str, SweepResult] = {}
    for method in spec["methods"]:
        base = replace(
            config,
            method=method,
            out_dir=os.path.join(out_dir, name, method),
            **spec["overrides"],
        )
        if spec["axis"] is None:
            # a single-point "sweep" over the method axis keeps the cell
            # layout and pairing identical to the real axis sweeps
            sweeps[method] = sweep(base, "method", (method,), replicates)
        else:
            sweeps[method] = sweep(base, spec["axis"], spec["values"], replicates)
    result = PresetResult(name=name, sweeps=sweeps)
    preset_dir = os.path.join(out_dir, name)
    os.makedirs(preset_dir, exist_ok=True)
    with open(
        os.path.join(preset_dir, "summary.md"), "w", encoding="utf-8", newline="\n"
    ) as fh:
        fh.write(f"# preset {name}\n\n" + result.table())
    return result
