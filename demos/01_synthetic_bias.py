"""Generate the synthetic cohort and look at where its bias comes from.

Images are 32x32 grids built from three ingredients: a class-aligned
checkerboard in the four center patches, a solid group watermark in the
four corner patches, and Gaussian noise. The watermark is the trap:
group membership co-occurs with the label at a configurable rate, and
the watermark is far more salient than the class cue, so a model tuned
on accuracy alone keys on the corners and fails on whichever samples
break the correlation.
"""

import numpy as np

from fedfairprompt import SyntheticSpec, balanced_test_sample, dirichlet_partition, generate_synthetic

spec = SyntheticSpec(n=2000, seed=11, spurious_strength=0.8, minority_attenuation=0.5)
data = generate_synthetic(spec)

print("cohort:", data.features.shape, "kind", data.kind)

# Marginals are exactly balanced by construction.
for name, arr in (("label", data.labels), ("group", data.groups)):
    print(f"  P({name}=1) = {arr.mean():.3f}")

# spurious_strength=0.8 means 80% direct copies plus half of the fair
# coins: groups agree with labels on 90% of samples.
agree = np.mean(data.groups == data.labels)
print(f"  group/label agreement = {agree:.3f} (expected {0.8 + 0.2 / 2:.3f})")

# The watermark lives in the corner patches, the class cue in the
# center. Compare their contrast: the shortcut is the louder signal.
corner = data.features[:, :8, :8].mean(axis=(1, 2))
print(f"\ncorner brightness by group: g=0 {corner[data.groups == 0].mean():.3f},"
      f" g=1 {corner[data.groups == 1].mean():.3f}")

center = data.features[:, 8:16, 8:16]
checker = np.indices((8, 8)).sum(axis=0) % 2
checker = np.where(checker == 0, 1.0, -1.0)
cls = (center * checker).mean(axis=(1, 2))
for g in (0, 1):
    sel = data.groups == g
    gap = cls[sel & (data.labels == 1)].mean() - cls[sel & (data.labels == 0)].mean()
    print(f"class-cue contrast for group {g}: {gap:.4f}")
# Group 1's contrast is attenuated: its labels are intrinsically harder
# to read, which is what widens recall gaps under distribution skew.

# Heterogeneous client shards come from a per-(label, group) Dirichlet
# split. Small alpha concentrates each cell on few clients.
print()
for alpha in (100.0, 0.5, 0.1):
    shards = dirichlet_partition(data, n_clients=5, alpha=alpha, seed=3)
    sizes = [len(s) for s in shards]
    purest = max(
        max(np.mean(data.labels[s] == 1), np.mean(data.labels[s] == 0)) for s in shards
    )
    print(f"alpha={alpha:>5}: shard sizes {sizes}, most label-pure shard {purest:.2f}")

# Evaluation always happens on a balanced draw so the four (y, g) cells
# carry equal weight in every metric.
idx = balanced_test_sample(data, size=400, seed=5)
test = data.subset(idx)
cells = [int(np.sum((test.labels == y) & (test.groups == g))) for y in (0, 1) for g in (0, 1)]
print("\nbalanced eval cells:", cells)
