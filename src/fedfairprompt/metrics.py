"""Group-conditioned accuracy and fairness metrics (binary task, binary groups).

Counts are tabulated once into a (group, label, prediction) cube;
every metric is a closed-form function of those counts. Degenerate
slices (an empty group, class, or group-class cell) raise instead of
defaulting to zero: a silent zero would read as perfect fairness.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

__all__ = [
    "GroupConfusion",
    "MetricRecord",
    "METRIC_NAMES",
    "confusion_by_group",
    "balanced_accuracy",
    "demographic_parity",
    "equalized_odds",
    "accuracy_gap",
    "eod_global",
]


@dataclass(frozen=True)
class GroupConfusion:
    """Exhaustive binary counts: ``counts[group, label, prediction]``."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (2, 2, 2):
            raise ValueError(f"counts must be (2, 2, 2), got {counts.shape}")
        if np.any(counts < 0):
            raise ValueError("negative counts")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def group_total(self, g: int) -> int:
        return int(self.counts[g].sum())

    def cell_total(self, g: int, y: int) -> int:
        return int(self.counts[g, y].sum())

    def true_positive_rate(self, g: int) -> float:
        positives = self.cell_total(g, 1)
        if positives == 0:
            raise ValueError(f"group {g} has no positive-label samples")
        return int(self.counts[g, 1, 1]) / positives

    def false_positive_rate(self, g: int) -> float:
        negatives = self.cell_total(g, 0)
        if negatives == 0:
            raise ValueError(f"group {g} has no negative-label samples")
        return int(self.counts[g, 0, 1]) / negatives


def _as_binary(name: str, values: Sequence[int]) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D")
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{name} must contain only 0/1 values")
    return arr.astype(np.int64)


def confusion_by_group(preds: Sequence[int], labels: Sequence[int],
                       groups: Sequence[int]) -> GroupConfusion:
    """Tabulate predictions into the (group, label, prediction) cube."""
    p = _as_binary("preds", preds)
    y = _as_binary("labels", labels)
    g = _as_binary("groups", groups)
    if not (p.shape == y.shape == g.shape):
        raise ValueError(
            f"length mismatch: preds {p.shape}, labels {y.shape}, groups {g.shape}"
        )
    counts = np.zeros((2, 2, 2), dtype=np.int64)
    np.add.at(counts, (g, y, p), 1)
    return GroupConfusion(counts)


def balanced_accuracy(conf: GroupConfusion) -> float:
    """Mean per-class recall, classes pooled across groups."""
    pooled = conf.counts.sum(axis=0)  # (label, prediction)
    recalls = []
    for y in (0, 1):
        n = int(pooled[y].sum())
        if n == 0:
            raise ValueError(f"class {y} has no samples")
        recalls.append(int(pooled[y, y]) / n)
    return (recalls[0] + recalls[1]) / 2.0


def demographic_parity(conf: GroupConfusion) -> float:
    """Absolute gap in positive-prediction rate between the groups."""
    rates = []
    for g in (0, 1):
        n = conf.group_total(g)
        if n == 0:
            raise ValueError(f"group {g} is empty")
        rates.append(int(conf.counts[g, :, 1].sum()) / n)
    return abs(rates[0] - rates[1])


def equalized_odds(conf: GroupConfusion) -> float:
    """Half the summed absolute TPR and FPR gaps between the groups."""
    tpr_gap = abs(conf.true_positive_rate(0) - conf.true_positive_rate(1))
    fpr_gap = abs(conf.false_positive_rate(0) - conf.false_positive_rate(1))
    return 0.5 * (tpr_gap + fpr_gap)


def accuracy_gap(conf: GroupConfusion) -> float:
    """Summed class-conditional accuracy gaps between the groups; in [0, 2]."""
    total = 0.0
    for y in (0, 1):
        accs = []
        for g in (0, 1):
            n = conf.cell_total(g, y)
            if n == 0:
                raise ValueError(f"empty (group={g}, class={y}) cell")
            accs.append(int(conf.counts[g, y, y]) / n)
        total += abs(accs[0] - accs[1])
    return total


def eod_global(per_client: Sequence[GroupConfusion]) -> tuple[float, list[int]]:
    """Cross-client TPR gap: |mean_i TPR_i(g=0) - mean_i TPR_i(g=1)|.

    Clients are weighted equally. A client lacking positive-label
    samples in either group has no defined TPR there and is excluded;
    excluded client indices are returned for reporting. All clients
    excluded is an error.
    """
    if not per_client:
        raise ValueError("no client confusions")
    tprs: list[tuple[float, float]] = []
    excluded: list[int] = []
    for i, conf in enumerate(per_client):
        if conf.cell_total(0, 1) == 0 or conf.cell_total(1, 1) == 0:
            excluded.append(i)
            continue
        tprs.append((conf.true_positive_rate(0), conf.true_positive_rate(1)))
    if not tprs:
        raise ValueError("every client lacks positive samples in some group")
    mean_g = sum(t[0] for t in tprs) / len(tprs)
    mean_h = sum(t[1] for t in tprs) / len(tprs)
    return abs(mean_g - mean_h), excluded


@dataclass(frozen=True)
class MetricRecord:
    """One evaluation's metric bundle; every value lies in [0, 1], phi_a in [0, 2]."""

    a_b: float
    phi_a: float
    phi_demo: float
    phi_eq: float
    f_global: float


# the report, sweep-table and CLI metric columns, in field order
METRIC_NAMES = tuple(f.name for f in fields(MetricRecord))
