"""Run reports: per-round records, the report container, and file emission.

Every emitted file is a byte-deterministic function of the report's
records and config, so reruns can be compared with ``cmp``: no file
carries a wall-clock timestamp or a machine-specific value.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .config import Config, config_hash, config_lines
from .metrics import METRIC_NAMES, MetricRecord

CSV_HEADER = ",".join(("round", "client", *METRIC_NAMES, "score", "weight"))

# headline numbers average the global record over this many final rounds
SUMMARY_WINDOW = 5


@dataclass(frozen=True)
class RoundRecord:
    """One round's evaluations: per-client rows plus the global row.

    Client metrics are measured on the server validation split; the
    global record is measured on the balanced test set. Round 0 is the
    evaluation of the initial prompts and carries no client entries.
    """

    round: int
    client_records: list[MetricRecord]
    scores: list[float]
    weights: list[float]
    global_record: MetricRecord


@dataclass
class FairnessReport:
    """Complete record of one federation run. ``prompts`` holds the global
    prompts the last recorded round evaluated (round 0: the initial
    ones), as ``PromptSet.to_arrays()`` gives them. A run that ended
    early carries its diagnostic in ``failure`` and is ``incomplete``."""

    config: Config
    backbone_hash: str
    rounds: list[RoundRecord]
    prompts: dict[str, np.ndarray] = field(default_factory=dict)
    failure: str = ""

    @property
    def incomplete(self) -> bool:
        return bool(self.failure)

    @property
    def config_hash(self) -> str:
        return config_hash(self.config)

    def summary_records(self) -> list[MetricRecord]:
        """Global records inside the trailing summary window.

        The last SUMMARY_WINDOW training rounds; the round-0 snapshot
        (taken before any training) is excluded whenever at least one
        trained round exists.
        """
        if not self.rounds:
            raise ValueError("empty report")
        tail = self.rounds[max(1, len(self.rounds) - SUMMARY_WINDOW):]
        if not tail:
            tail = self.rounds[-1:]
        return [rec.global_record for rec in tail]

    def summary(self) -> dict:
        """Headline metrics: trailing-window means of the global records.

        Averaging the last few rounds damps round-to-round oscillation
        symmetrically; a single final round would make every headline
        number hostage to one optimizer step.
        """
        records = self.summary_records()
        return {
            "method": self.config.method,
            "rounds_completed": len(self.rounds) - 1,
            "incomplete": self.incomplete,
            **{
                name: float(np.mean([getattr(r, name) for r in records]))
                for name in METRIC_NAMES
            },
        }


def _fmt(value: float) -> str:
    return repr(float(value))


def _csv_text(report: FairnessReport) -> str:
    lines = [CSV_HEADER]
    for rec in report.rounds:
        for cid, (metrics, score, weight) in enumerate(
            zip(rec.client_records, rec.scores, rec.weights)
        ):
            cells = [str(rec.round), str(cid)]
            cells += [_fmt(getattr(metrics, name)) for name in METRIC_NAMES]
            cells += [_fmt(score), _fmt(weight)]
            lines.append(",".join(cells))
        cells = [str(rec.round), "global"]
        cells += [_fmt(getattr(rec.global_record, name)) for name in METRIC_NAMES]
        cells += ["", ""]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _markdown_text(report: FairnessReport) -> str:
    summary = report.summary()
    head = [
        "# Federation run summary",
        "",
        f"- method: `{report.config.method}`",
        f"- config hash: `{report.config_hash}`",
        f"- master seed: {report.config.master_seed}",
        f"- backbone hash: `{report.backbone_hash}`",
        f"- rounds completed: {len(report.rounds) - 1}",
        f"- headline window: mean over last {len(report.summary_records())} rounds",
    ]
    if report.incomplete:
        head.append(f"- **incomplete run**: {report.failure}")
    head += [
        "",
        "| method | A_B | Phi_A | Phi_demo | Phi_eq | F_global |",
        "| --- | --- | --- | --- | --- | --- |",
        "| {} | {} | {} | {} | {} | {} |".format(
            report.config.method,
            *(_fmt(summary[name]) for name in METRIC_NAMES),
        ),
        "",
    ]
    return "\n".join(head)


def _json_payload(report: FairnessReport) -> dict:
    return {
        "config_hash": report.config_hash,
        "master_seed": report.config.master_seed,
        "backbone_hash": report.backbone_hash,
        "incomplete": report.incomplete,
        "failure": report.failure,
        "summary": report.summary(),
        "rounds": [
            {
                "round": rec.round,
                "clients": [
                    {name: getattr(m, name) for name in METRIC_NAMES}
                    for m in rec.client_records
                ],
                "scores": list(rec.scores),
                "weights": list(rec.weights),
                "global": {
                    name: getattr(rec.global_record, name) for name in METRIC_NAMES
                },
            }
            for rec in report.rounds
        ],
    }


def emit_report(report: FairnessReport, out_dir: str) -> dict[str, str]:
    """Write rounds.csv, summary.md, config.txt, report.json and
    prompts.npz, the final prompts (``np.load`` reads them back).

    Returns the written paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "csv": os.path.join(out_dir, "rounds.csv"),
        "markdown": os.path.join(out_dir, "summary.md"),
        "config": os.path.join(out_dir, "config.txt"),
        "json": os.path.join(out_dir, "report.json"),
        "prompts": os.path.join(out_dir, "prompts.npz"),
    }
    texts = {
        "csv": _csv_text(report),
        "markdown": _markdown_text(report),
        "config": config_lines(report.config),
        "json": json.dumps(_json_payload(report), indent=2, sort_keys=True) + "\n",
    }
    for key, text in texts.items():
        with open(paths[key], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    # Every zip entry carries the same fixed date, so the bytes repeat.
    np.savez(paths["prompts"], **report.prompts)
    return paths
