"""Metric contracts against brute-force recomputation from raw rows.

The oracles below never touch the counts cube: they re-derive every
quantity by looping over (pred, label, group) rows, so agreement is a
genuine dual-route check. The exhaustive test sweeps every possible
prediction vector on a fixed 8-sample dataset and demands exact float
equality (both routes divide the same integers).
"""

import numpy as np
import pytest

from fedfairprompt.metrics import (
    GroupConfusion,
    accuracy_gap,
    balanced_accuracy,
    confusion_by_group,
    demographic_parity,
    eod_global,
    equalized_odds,
)


# ---------------------------------------------------------------------------
# row-level oracles (independent of the counts cube)


def _rows(preds, labels, groups):
    return list(zip(list(preds), list(labels), list(groups)))


def brute_balanced_accuracy(preds, labels, groups):
    rows = _rows(preds, labels, groups)
    recalls = []
    for y in (0, 1):
        cls = [r for r in rows if r[1] == y]
        recalls.append(sum(1 for r in cls if r[0] == y) / len(cls))
    return (recalls[0] + recalls[1]) / 2.0


def brute_demographic_parity(preds, labels, groups):
    rows = _rows(preds, labels, groups)
    rates = []
    for g in (0, 1):
        members = [r for r in rows if r[2] == g]
        rates.append(sum(1 for r in members if r[0] == 1) / len(members))
    return abs(rates[0] - rates[1])


def brute_equalized_odds(preds, labels, groups):
    rows = _rows(preds, labels, groups)
    tpr, fpr = {}, {}
    for g in (0, 1):
        pos = [r for r in rows if r[2] == g and r[1] == 1]
        neg = [r for r in rows if r[2] == g and r[1] == 0]
        tpr[g] = sum(1 for r in pos if r[0] == 1) / len(pos)
        fpr[g] = sum(1 for r in neg if r[0] == 1) / len(neg)
    return 0.5 * (abs(tpr[0] - tpr[1]) + abs(fpr[0] - fpr[1]))


def brute_accuracy_gap(preds, labels, groups):
    rows = _rows(preds, labels, groups)
    total = 0.0
    for y in (0, 1):
        accs = []
        for g in (0, 1):
            cell = [r for r in rows if r[2] == g and r[1] == y]
            accs.append(sum(1 for r in cell if r[0] == y) / len(cell))
        total += abs(accs[0] - accs[1])
    return total


def brute_eod_global(client_rows):
    tprs = []
    for rows in client_rows:
        per_group = {}
        for g in (0, 1):
            pos = [r for r in rows if r[2] == g and r[1] == 1]
            if not pos:
                per_group = None
                break
            per_group[g] = sum(1 for r in pos if r[0] == 1) / len(pos)
        if per_group is not None:
            tprs.append(per_group)
    mean_g = sum(t[0] for t in tprs) / len(tprs)
    mean_h = sum(t[1] for t in tprs) / len(tprs)
    return abs(mean_g - mean_h)


# ---------------------------------------------------------------------------
# tabulation


def test_confusion_all_correct_has_no_errors():
    labels = [0, 1, 0, 1, 1, 0]
    groups = [0, 0, 1, 1, 0, 1]
    conf = confusion_by_group(labels, labels, groups)
    for g in (0, 1):
        assert conf.counts[g, 0, 1] == 0  # no false positives
        assert conf.counts[g, 1, 0] == 0  # no false negatives
    assert conf.counts.sum() == 6


def test_confusion_empty_input_is_all_zero():
    conf = confusion_by_group([], [], [])
    assert conf.counts.sum() == 0
    np.testing.assert_array_equal(conf.counts, 0)


def test_confusion_hand_tabulated():
    preds = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1]
    labels = [1, 1, 0, 1, 0, 1, 1, 0, 0, 1]
    groups = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
    conf = confusion_by_group(preds, labels, groups)
    # hand tabulation, row by row
    want = np.zeros((2, 2, 2), dtype=np.int64)
    want[0, 1, 1] = 2  # rows 0, 3
    want[0, 1, 0] = 1  # row 1
    want[0, 0, 1] = 1  # row 2
    want[0, 0, 0] = 1  # row 4
    want[1, 1, 0] = 1  # row 5
    want[1, 1, 1] = 2  # rows 6, 9
    want[1, 0, 0] = 1  # row 7
    want[1, 0, 1] = 1  # row 8
    np.testing.assert_array_equal(conf.counts, want)


def test_confusion_validation_errors():
    with pytest.raises(ValueError):
        confusion_by_group([1, 0], [1], [0, 0])
    with pytest.raises(ValueError):
        confusion_by_group([2, 0], [1, 0], [0, 0])
    with pytest.raises(ValueError):
        confusion_by_group([1, 0], [1, 0], [0, 3])
    with pytest.raises(ValueError):
        GroupConfusion(np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        GroupConfusion(np.full((2, 2, 2), -1))
    with pytest.raises(ValueError, match="preds must be 1-D"):
        confusion_by_group([[1, 0]], [1, 0], [0, 1])


# ---------------------------------------------------------------------------
# individual metrics, frozen cases


def test_balanced_accuracy_endpoints():
    labels = [0, 1, 0, 1]
    groups = [0, 0, 1, 1]
    assert balanced_accuracy(confusion_by_group(labels, labels, groups)) == 1.0
    assert balanced_accuracy(confusion_by_group([1, 1, 1, 1], labels, groups)) == 0.5


def test_balanced_accuracy_empty_class_errors():
    conf = confusion_by_group([1, 1], [1, 1], [0, 1])
    with pytest.raises(ValueError):
        balanced_accuracy(conf)


def test_demographic_parity_frozen():
    # group 0: 8 of 10 predicted positive; group 1: 6 of 10
    preds = [1] * 8 + [0] * 2 + [1] * 6 + [0] * 4
    labels = [0, 1] * 10
    groups = [0] * 10 + [1] * 10
    conf = confusion_by_group(preds, labels, groups)
    assert abs(demographic_parity(conf) - 0.2) < 1e-15
    same = confusion_by_group([1, 0] * 4, [0, 1] * 4, [0, 0, 1, 1] * 2)
    assert demographic_parity(same) == 0.0


def test_demographic_parity_empty_group_errors():
    conf = confusion_by_group([1, 0], [1, 0], [0, 0])
    with pytest.raises(ValueError):
        demographic_parity(conf)


def test_equalized_odds_frozen():
    # group TPRs 1.0 vs 0.5, FPRs both zero -> 0.25
    preds = [1, 1, 0, 0, 1, 0, 0, 0]
    labels = [1, 1, 0, 0, 1, 1, 0, 0]
    groups = [0, 0, 0, 0, 1, 1, 1, 1]
    conf = confusion_by_group(preds, labels, groups)
    assert equalized_odds(conf) == 0.25
    ident = confusion_by_group([1, 0, 1, 0], [1, 0, 1, 0], [0, 0, 1, 1])
    assert equalized_odds(ident) == 0.0


def test_equalized_odds_empty_cell_errors():
    conf = confusion_by_group([1, 1, 0, 1], [1, 1, 0, 1], [0, 0, 1, 1])
    with pytest.raises(ValueError):
        equalized_odds(conf)  # group 0 has no negatives
    conf = confusion_by_group([1, 0, 0, 1], [1, 0, 0, 0], [0, 0, 1, 1])
    with pytest.raises(ValueError, match="group 1 has no positive-label samples"):
        equalized_odds(conf)


def test_accuracy_gap_frozen():
    counts = np.zeros((2, 2, 2), dtype=np.int64)
    counts[0, 0, 0] = 5   # group 0 perfect on both classes
    counts[0, 1, 1] = 5
    counts[1, 0, 0] = 1   # group 1 at accuracy 0.1 on both classes
    counts[1, 0, 1] = 9
    counts[1, 1, 1] = 1
    counts[1, 1, 0] = 9
    assert accuracy_gap(GroupConfusion(counts)) == 1.8
    sym = confusion_by_group([1, 0, 1, 0], [1, 0, 1, 0], [0, 0, 1, 1])
    assert accuracy_gap(sym) == 0.0


def test_accuracy_gap_empty_cell_errors():
    conf = confusion_by_group([0, 0, 1, 0], [0, 0, 1, 0], [0, 0, 1, 1])
    with pytest.raises(ValueError):
        accuracy_gap(conf)  # group 0 has no positive-class cell


# ---------------------------------------------------------------------------
# cross-client TPR gap


def _conf_with_tprs(tpr0_num, tpr0_den, tpr1_num, tpr1_den):
    counts = np.zeros((2, 2, 2), dtype=np.int64)
    counts[0, 1, 1] = tpr0_num
    counts[0, 1, 0] = tpr0_den - tpr0_num
    counts[1, 1, 1] = tpr1_num
    counts[1, 1, 0] = tpr1_den - tpr1_num
    return GroupConfusion(counts)


def test_eod_global_frozen_two_clients():
    c1 = _conf_with_tprs(2, 2, 1, 2)  # TPRs 1.0 / 0.5
    c2 = _conf_with_tprs(1, 2, 1, 2)  # TPRs 0.5 / 0.5
    assert eod_global([c1, c2]) == 0.25


def test_eod_global_zero_when_all_equal():
    confs = [_conf_with_tprs(3, 4, 3, 4) for _ in range(3)]
    assert eod_global(confs) == 0.0


def test_eod_global_excludes_degenerate_clients():
    c1 = _conf_with_tprs(2, 2, 1, 2)  # TPRs 1.0 / 0.5
    c2 = _conf_with_tprs(1, 2, 1, 2)  # TPRs 0.5 / 0.5
    bad = GroupConfusion(np.zeros((2, 2, 2), dtype=np.int64))  # no positives anywhere
    no_g1 = _conf_with_tprs(1, 1, 0, 0)  # no positives in group 1
    # counted with TPRs 0 / 0 (bad) or 1 / 0 (no_g1), either would move the gap off 0.25
    assert eod_global([c1, bad, c2]) == eod_global([c1, no_g1, c2]) == eod_global([c1, c2]) == 0.25
    with pytest.raises(ValueError):
        eod_global([bad])
    with pytest.raises(ValueError):
        eod_global([])


def test_eod_global_matches_raw_recomputation():
    rng = np.random.default_rng(29)
    client_rows = []
    confs = []
    for _ in range(3):
        n = 12
        preds = rng.integers(0, 2, size=n)
        labels = np.array([0, 1] * (n // 2))
        groups = np.array([0, 1, 1, 0] * (n // 4))
        client_rows.append(_rows(preds, labels, groups))
        confs.append(confusion_by_group(preds, labels, groups))
    # a fourth client with no positives in group 1 sits out of both
    preds, labels, groups = np.array([1, 0, 1, 0]), np.array([1, 1, 0, 0]), np.array([0, 0, 1, 1])
    client_rows.append(_rows(preds, labels, groups))
    confs.append(confusion_by_group(preds, labels, groups))
    assert eod_global(confs) == brute_eod_global(client_rows)


# ---------------------------------------------------------------------------
# exhaustive equivalence and symmetry properties


def test_all_prediction_vectors_match_brute_force_exactly():
    labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    groups = np.array([0, 0, 1, 1, 0, 0, 1, 1])
    n = labels.size
    for mask in range(2**n):
        preds = np.array([(mask >> i) & 1 for i in range(n)])
        conf = confusion_by_group(preds, labels, groups)
        assert balanced_accuracy(conf) == brute_balanced_accuracy(preds, labels, groups)
        assert demographic_parity(conf) == brute_demographic_parity(preds, labels, groups)
        assert equalized_odds(conf) == brute_equalized_odds(preds, labels, groups)
        assert accuracy_gap(conf) == brute_accuracy_gap(preds, labels, groups)


def test_group_relabeling_leaves_metrics_unchanged():
    rng = np.random.default_rng(37)
    for _ in range(20):
        n = 16
        preds = rng.integers(0, 2, size=n)
        labels = np.array([0, 1] * (n // 2))
        groups = np.array([0, 1, 1, 0] * (n // 4))
        a = confusion_by_group(preds, labels, groups)
        b = confusion_by_group(preds, labels, 1 - groups)
        assert balanced_accuracy(a) == balanced_accuracy(b)
        assert demographic_parity(a) == demographic_parity(b)
        assert equalized_odds(a) == equalized_odds(b)
        assert accuracy_gap(a) == accuracy_gap(b)


def test_metrics_stay_in_declared_ranges():
    rng = np.random.default_rng(43)
    for _ in range(50):
        n = 12
        preds = rng.integers(0, 2, size=n)
        labels = np.array([0, 1] * (n // 2))
        groups = np.array([0, 1, 1, 0] * (n // 4))
        conf = confusion_by_group(preds, labels, groups)
        assert 0.0 <= balanced_accuracy(conf) <= 1.0
        assert 0.0 <= demographic_parity(conf) <= 1.0
        assert 0.0 <= equalized_odds(conf) <= 1.0
        assert 0.0 <= accuracy_gap(conf) <= 2.0
