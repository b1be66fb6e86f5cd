"""Experiment harness: single runs, and one grid behind the axis sweeps
and the table presets.

A grid runs a list of cells, each a label ``<axis>=<value>`` with the
config fields it overrides, and repeats every cell over replicate
indices. Replicate sub-seeds are derived from (master_seed, axis,
replicate) only, never from the cell, so the cells of one replicate
are paired: same data, same partition draw (where the config allows),
same prompt init, different treatment. A sweep's cells are the values
of one axis; a preset's are its methods times its swept values. Either
is summarised in one markdown table, one row per (method, cell).
Re-running any single cell in isolation reproduces its row bit for bit.
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
    """One run of a grid cell: its label, method, replicate and outcome."""

    label: str  # "<axis>=<value>"
    method: str
    replicate: int
    report: FairnessReport | None
    error: str = ""

    @property
    def failed(self) -> bool:
        return self.report is None or self.report.incomplete


def grid_table(cells) -> str:
    """Markdown table, one row per (method, cell label): each summary
    metric's mean over the replicates that completed, or "failed" where
    none did."""
    rows: dict[tuple[str, str], list] = {}
    for c in cells:
        done = rows.setdefault((c.method, c.label), [])
        if not c.failed:
            done.append(c.report.summary())
    lines = [
        "| method | cell | " + " | ".join(METRIC_NAMES) + " |",
        "| --- | --- |" + " --- |" * len(METRIC_NAMES),
    ]
    for (method, label), done in rows.items():
        means = [f"{np.mean([r[m] for r in done]):.4f}" if done else "failed"
                 for m in METRIC_NAMES]
        lines.append(f"| {method} | {label} | " + " | ".join(means) + " |")
    return "\n".join(lines) + "\n"


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def run_experiment(config: Config) -> FairnessReport:
    """One federation run plus file emission under config.out_dir."""
    report = run_federation(config)
    emit_report(report, config.out_dir)
    return report


def grid(config: Config, axis: str, cells, replicates: int) -> tuple[CellResult, ...]:
    """Run each cell ``replicates`` times; failures never abort siblings.

    A cell is ``(subdir, overrides)``: the config fields it sets on top
    of ``config``, ``axis`` among them, and the directory its label
    ``<axis>=<value>`` sits in. Replicate r of every cell takes the
    sub-seed ``derive_seed(master_seed, axis tag, r)`` and writes to
    ``out_dir/subdir/<axis>=<value>/rep<r>``. Two cells that would share
    that directory (``0.5`` and ``0.50``) raise before any run.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    cells = [(subdir, f"{axis}={overrides[axis]}", overrides) for subdir, overrides in cells]
    where = [os.path.join(subdir, label) for subdir, label, _ in cells]
    repeated = sorted({w for w in where if where.count(w) > 1})
    if repeated:
        raise ValueError(f"repeated grid cell {repeated}: its runs would share one directory")
    results = []
    for subdir, label, overrides in cells:
        method = overrides.get("method", config.method)
        for rep_index in range(replicates):
            sub_seed = derive_seed(config.master_seed, _AXIS_TAGS[axis], rep_index)
            try:
                cell_cfg = replace(
                    config,
                    master_seed=sub_seed,
                    out_dir=os.path.join(config.out_dir, subdir, label, f"rep{rep_index}"),
                    **overrides,
                )
                report = run_experiment(cell_cfg)
                error = report.failure
            except Exception as exc:  # isolate the cell, keep siblings running
                report, error = None, f"{type(exc).__name__}: {exc}"
            results.append(CellResult(label, method, rep_index, report, error))
    return tuple(results)


def sweep(config: Config, axis: str, values, replicates: int = 3) -> tuple[CellResult, ...]:
    """One run per (value, replicate), tabled in ``out_dir/sweep_<axis>.md``."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis '{axis}'; expected one of {SWEEP_AXES}")
    values = tuple(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    cells = grid(config, axis, [("", {axis: v}) for v in values], replicates)
    _write(os.path.join(config.out_dir, f"sweep_{axis}.md"), grid_table(cells))
    return cells


# Table reproduction presets. Each entry: base config overrides, the
# methods to compare, and the single swept axis with its values (a
# method comparison leaves axis None). Scales are calibrated so every
# preset's directional claim is measurable inside its runtime budget;
# table1 runs the paper's full desk-scale setting.
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


def run_preset(name: str, config: Config, replicates: int = 3) -> tuple[CellResult, ...]:
    """Run one named preset, tabled in ``out_dir/<name>/summary.md``.

    Every cell starts from ``config`` with the preset's overrides, its
    method and its swept value applied on top; its runs go under
    ``out_dir/<name>/<method>``. A method comparison pairs its cells on
    the ``method`` axis, so table1 and table2 share their sub-seeds.
    """
    if name not in PRESETS:
        raise ValueError(f"unknown preset '{name}'; expected one of {sorted(PRESETS)}")
    spec = PRESETS[name]
    axis = spec["axis"] or "method"
    cells = [
        (os.path.join(name, method), {"method": method, axis: value})
        for method in spec["methods"]
        for value in spec["values"] or (method,)
    ]
    result = grid(replace(config, **spec["overrides"]), axis, cells, replicates)
    _write(os.path.join(config.out_dir, name, "summary.md"),
           f"# preset {name}\n\n" + grid_table(result))
    return result
