"""The four bias numbers, computed on a deliberately unfair predictor.

Every metric reduces to one group-conditional confusion table, counted
once and reused. The predictor below is the watermark shortcut in its
purest form: it answers with the group bit and ignores the image, so
it is exactly right whenever group and label agree.
"""

import numpy as np

from fedfairprompt import (
    accuracy_gap,
    balanced_accuracy,
    confusion_by_group,
    demographic_parity,
    eod_global,
    equalized_odds,
)

rng = np.random.Generator(np.random.PCG64(0))
n = 2000
labels = rng.integers(0, 2, n)
# groups copy labels 90% of the time, mirroring the synthetic cohort
groups = np.where(rng.random(n) < 0.9, labels, 1 - labels)

preds = groups.copy()  # the shortcut predictor
conf = confusion_by_group(preds, labels, groups)
print("confusion counts (group, label, pred):")
print(conf.counts)

print(f"\nbalanced accuracy      {balanced_accuracy(conf):.4f}")
print(f"accuracy gap           {accuracy_gap(conf):.4f}  (summed over classes, maxes at 2)")
print(f"demographic parity gap {demographic_parity(conf):.4f}")
print(f"equalized odds gap     {equalized_odds(conf):.4f}  (mean of TPR and FPR gaps, maxes at 1)")

# The shortcut looks 90% accurate overall, but its errors are carried
# entirely by the label-group-disagree samples: within group 0 recall
# is perfect for label 0 and zero for label 1, group 1 mirrors it, so
# every gap metric saturates while accuracy stays high.

# A fair coin has no gaps at all: bias metrics ignore accuracy.
fair = rng.integers(0, 2, n)
conf_fair = confusion_by_group(fair, labels, groups)
print(f"\nrandom predictor: accuracy {balanced_accuracy(conf_fair):.3f},"
      f" equalized odds gap {equalized_odds(conf_fair):.3f}")

# The federated variant averages each group's TPR over clients first,
# then takes the gap; clients with no positives in a group sit out.
shards = np.array_split(rng.permutation(n), 5)
per_client = [confusion_by_group(preds[s], labels[s], groups[s]) for s in shards]
print(f"\n5-client global TPR gap {eod_global(per_client):.4f}")
