"""Synthetic biased image data, non-IID partitioning, and embedding I/O.

Images are 32x32 grayscale in [0, 1]. A checkerboard in the four
center patches carries the class signal (sign flips with the label); a
solid brightening of the four corner patches marks group membership.
Group and label are coupled by a quota construction so the empirical
alignment rate equals the requested spurious strength exactly, and
both marginals stay balanced. Partitioning draws per-(label, group)
client proportions from a Dirichlet so smaller concentrations skew
both label and group composition per shard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Dataset",
    "SyntheticSpec",
    "Partition",
    "generate_synthetic",
    "dirichlet_partition",
    "balanced_test_sample",
    "load_embeddings",
    "save_embeddings",
]

_IMAGE_SIZE = 32
_PATCH = 8
_GRID = _IMAGE_SIZE // _PATCH
_CENTER_PATCHES = (5, 6, 9, 10)
_CORNER_PATCHES = (0, 3, 12, 15)


def _patch_block(index: int) -> tuple[slice, slice]:
    row, col = divmod(index, _GRID)
    return (slice(row * _PATCH, (row + 1) * _PATCH),
            slice(col * _PATCH, (col + 1) * _PATCH))


def _label_pattern() -> np.ndarray:
    """Checkerboard (+1/-1) on the center patches, zero elsewhere."""
    checker = np.indices((_PATCH, _PATCH)).sum(axis=0) % 2
    tile = np.where(checker == 0, 1.0, -1.0)
    pattern = np.zeros((_IMAGE_SIZE, _IMAGE_SIZE))
    for p in _CENTER_PATCHES:
        pattern[_patch_block(p)] = tile
    return pattern


def _label_pattern_alt() -> np.ndarray:
    """Row stripes (+1/-1) on the center patches; orthogonal to the
    checkerboard over the same support."""
    stripes = np.indices((_PATCH, _PATCH))[0] % 2
    tile = np.where(stripes == 0, 1.0, -1.0)
    pattern = np.zeros((_IMAGE_SIZE, _IMAGE_SIZE))
    for p in _CENTER_PATCHES:
        pattern[_patch_block(p)] = tile
    return pattern


def _group_pattern() -> np.ndarray:
    """Solid +1 on the corner patches, zero elsewhere."""
    pattern = np.zeros((_IMAGE_SIZE, _IMAGE_SIZE))
    for p in _CORNER_PATCHES:
        pattern[_patch_block(p)] = 1.0
    return pattern


@dataclass(frozen=True)
class Dataset:
    """Immutable columnar dataset: pixels or pre-embedded feature rows."""

    features: np.ndarray  # (n, 32, 32) pixels or (n, rows, d) feature rows
    labels: np.ndarray
    groups: np.ndarray
    kind: str = "pixels"

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        groups = np.asarray(self.groups, dtype=np.int64)
        if self.kind not in ("pixels", "features"):
            raise ValueError(f"unknown dataset kind '{self.kind}'")
        if feats.ndim != 3:
            raise ValueError(f"features must be 3-D, got {feats.shape}")
        n = feats.shape[0]
        if labels.shape != (n,) or groups.shape != (n,):
            raise ValueError("labels/groups must have one entry per sample")
        if n and not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be binary")
        if n and not np.isin(groups, (0, 1)).all():
            raise ValueError("groups must be binary")
        if not np.isfinite(feats).all():
            raise ValueError("non-finite feature values")
        for arr in (feats, labels, groups):
            arr.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "groups", groups)

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, indices: Sequence[int]) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            features=self.features[idx],
            labels=self.labels[idx],
            groups=self.groups[idx],
            kind=self.kind,
        )

    def cell_indices(self, label: int, group: int) -> np.ndarray:
        return np.flatnonzero((self.labels == label) & (self.groups == group))


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for the biased synthetic image dataset.

    ``spurious_strength`` (rho) is the probability that a sample's
    group marker copies its label; otherwise the marker is a fair coin.
    ``minority_attenuation`` scales the class cue down for group-1
    samples, so their labels are intrinsically harder to read; the
    less converged a classifier is, the wider its group recall gap.
    ``group_cue_rotation`` rotates group-1's class-cue pattern away
    from group-0's shared checkerboard (0 = identical direction,
    1 = orthogonal): past zero, what a model learns about one group's
    labels transfers only partially to the other, so demographic skew
    in the training pool becomes a group-specific handicap.
    Default amplitudes make the class cue noise-limited and the group
    marker highly salient: a prompt tuned on task loss alone plateaus
    around 0.75 balanced accuracy with a large equalized-odds gap,
    leaving headroom the fairness machinery has to close.
    """

    n: int = 4000
    label_signal: float = 0.3
    spurious_strength: float = 0.8
    noise_sigma: float = 0.3
    seed: int = 0
    group_signal: float = 2.0
    minority_attenuation: float = 0.5
    group_cue_rotation: float = 0.0


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic biased dataset from the spec alone.

    Labels alternate for an exactly balanced class marginal. Per class,
    a quota of rho + (1 - rho)/2 of the samples get a group marker equal
    to their label (rho direct copies plus half the fair coins); the
    rest get the opposite marker. Which samples land in the quota is
    the only sampled choice, so marginals and the alignment rate are
    exact while membership stays seed-dependent.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n = spec.n
    labels = np.arange(n, dtype=np.int64) % 2
    groups = np.empty(n, dtype=np.int64)
    align_rate = spec.spurious_strength + (1.0 - spec.spurious_strength) / 2.0
    for y in (0, 1):
        members = np.flatnonzero(labels == y)
        aligned = int(round(align_rate * members.size))
        order = rng.permutation(members)
        groups[order[:aligned]] = y
        groups[order[aligned:]] = 1 - y

    label_pat = _label_pattern()
    group_pat = _group_pattern()
    theta = spec.group_cue_rotation * np.pi / 2.0
    # group-1 reads its labels through a rotated pattern of equal energy
    minority_pat = np.cos(theta) * label_pat + np.sin(theta) * _label_pattern_alt()
    signs = (2 * labels - 1).astype(np.float64)
    cue = spec.label_signal * (1.0 - spec.minority_attenuation * groups)
    amp = 0.25 * cue * signs
    images = np.full((n, _IMAGE_SIZE, _IMAGE_SIZE), 0.5)
    images += (amp * (1 - groups))[:, None, None] * label_pat
    images += (amp * groups)[:, None, None] * minority_pat
    images += 0.25 * spec.group_signal * groups[:, None, None].astype(np.float64) * group_pat
    images += rng.normal(scale=spec.noise_sigma, size=images.shape) if spec.noise_sigma else 0.0
    np.clip(images, 0.0, 1.0, out=images)
    return Dataset(features=images, labels=labels, groups=groups, kind="pixels")


@dataclass(frozen=True)
class Partition:
    """Disjoint, non-empty, covering index shards, one per client."""

    shards: tuple[np.ndarray, ...]


def _largest_remainder(fractions: np.ndarray, total: int) -> np.ndarray:
    """Integer apportionment of ``total`` by ``fractions`` (sum to 1)."""
    raw = fractions * total
    base = np.floor(raw).astype(np.int64)
    short = total - int(base.sum())
    if short:
        # ties broken toward lower client index for determinism
        order = np.lexsort((np.arange(fractions.size), -(raw - base)))
        base[order[:short]] += 1
    return base


def dirichlet_partition(dataset: Dataset, n_clients: int, alpha: float,
                        seed: int) -> Partition:
    """Per-(label, group)-cell Dirichlet split of sample indices.

    Every cell's client proportions are drawn independently, so low
    concentrations skew label and group composition simultaneously.
    Counts are rounded by largest remainder; an empty shard is repaired
    by taking one sample from the currently largest shard. Needs
    ``alpha > 0`` and ``1 <= n_clients <= len(dataset)``.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    shards: list[list[int]] = [[] for _ in range(n_clients)]
    for y in (0, 1):
        for g in (0, 1):
            cell = dataset.cell_indices(y, g)
            if cell.size == 0:
                continue
            props = rng.dirichlet(np.full(n_clients, alpha))
            counts = _largest_remainder(props, cell.size)
            order = rng.permutation(cell)
            offsets = np.concatenate(([0], np.cumsum(counts)))
            for c in range(n_clients):
                shards[c].extend(int(i) for i in order[offsets[c]:offsets[c + 1]])
    while True:
        sizes = [len(s) for s in shards]
        if min(sizes) > 0:
            break
        needy = sizes.index(0)
        donor = int(np.argmax(sizes))
        shards[needy].append(shards[donor].pop())
    return Partition(shards=tuple(np.sort(np.array(s, dtype=np.int64)) for s in shards))


def balanced_test_sample(dataset: Dataset, size: int, seed: int) -> np.ndarray:
    """Equal-count per (label, group) cell sample, without replacement.

    ``size`` is a positive multiple of 4. Returns sorted indices into
    ``dataset``.
    """
    per_cell = size // 4
    rng = np.random.Generator(np.random.PCG64(seed))
    chosen: list[np.ndarray] = []
    for y in (0, 1):
        for g in (0, 1):
            cell = dataset.cell_indices(y, g)
            if cell.size < per_cell:
                raise ValueError(
                    f"cell (label={y}, group={g}) has {cell.size} available samples, "
                    f"need {per_cell}"
                )
            pick = rng.choice(cell, size=per_cell, replace=False)
            chosen.append(pick)
    return np.sort(np.concatenate(chosen))


# ---------------------------------------------------------------------------
# embedding file format: line 1 `dim=<d> count=<n>`, rows `y,g,v1,...,vd`


def save_embeddings(dataset: Dataset, path: str) -> None:
    """Write a feature dataset in the line-based text format."""
    if dataset.kind != "features":
        raise ValueError("save_embeddings needs a feature dataset")
    if dataset.features.shape[1] != 1:
        raise ValueError("embedding files hold one feature row per sample")
    d = dataset.features.shape[2]
    lines = [f"dim={d} count={len(dataset)}"]
    for i in range(len(dataset)):
        values = ",".join(repr(float(v)) for v in dataset.features[i, 0])
        lines.append(f"{int(dataset.labels[i])},{int(dataset.groups[i])},{values}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_embeddings(path: str) -> Dataset:
    """Parse the text embedding format; errors carry 1-based line numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 2 or not header[0].startswith("dim=") or not header[1].startswith("count="):
        raise ValueError(f"{path}:1: header must be 'dim=<d> count=<n>', got {lines[0]!r}")
    try:
        dim = int(header[0][4:])
        count = int(header[1][6:])
    except ValueError:
        raise ValueError(f"{path}:1: non-integer dim/count in header") from None
    if dim < 1 or count < 0:
        raise ValueError(f"{path}:1: dim must be >= 1 and count >= 0")
    rows = [line for line in lines[1:] if line.strip()]
    if len(rows) != count:
        raise ValueError(f"{path}: header declares count={count} but found {len(rows)} rows")
    features = np.zeros((count, 1, dim))
    labels = np.zeros(count, dtype=np.int64)
    groups = np.zeros(count, dtype=np.int64)
    for r, line in enumerate(rows):
        lineno = r + 2
        parts = line.split(",")
        if len(parts) != 2 + dim:
            raise ValueError(
                f"{path}:{lineno}: expected {2 + dim} comma-separated fields "
                f"(declared dim={dim}), found {len(parts)}"
            )
        try:
            y, g = int(parts[0]), int(parts[1])
            vec = np.array([float(v) for v in parts[2:]])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed numeric field") from None
        if y not in (0, 1) or g not in (0, 1):
            raise ValueError(f"{path}:{lineno}: label/group must be 0 or 1")
        if not np.isfinite(vec).all():
            raise ValueError(f"{path}:{lineno}: non-finite embedding value")
        labels[r], groups[r] = y, g
        features[r, 0] = vec
    return Dataset(features=features, labels=labels, groups=groups, kind="features")
