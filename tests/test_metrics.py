"""Worst-group and balanced-class accuracy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchbias.errors import ValidationError
from patchbias.metrics import CountStat, evaluate

# convention everywhere: group id = 2*label + spurious bit


def _case(group_sizes, group_correct):
    """Build (preds, labels, groups) with exact per-group correct counts."""
    labels, groups, preds = [], [], []
    for g, (n, k) in enumerate(zip(group_sizes, group_correct)):
        y = g // 2
        labels += [y] * n
        groups += [g] * n
        preds += [y] * k + [1 - y] * (n - k)
    return np.array(preds), np.array(labels), np.array(groups)


def test_perfect_predictor_scores_one():
    preds, labels, groups = _case([5, 5, 5, 5], [5, 5, 5, 5])
    ev = evaluate(preds, labels, groups)
    assert ev.wga == 1.0
    assert ev.bca == 1.0
    assert ev.empty_groups == ()


def test_wga_is_the_minimum_group_accuracy():
    preds, labels, groups = _case([10, 10, 10, 10], [9, 8, 5, 10])
    ev = evaluate(preds, labels, groups)
    assert ev.per_group_acc() == {0: 0.9, 1: 0.8, 2: 0.5, 3: 1.0}
    assert ev.wga == 0.5


def test_bca_ignores_class_imbalance():
    # class 0: 1000 samples at 0.9, class 1: 10 samples at 0.7
    preds, labels, groups = _case([1000, 0, 10, 0], [900, 0, 7, 0])
    ev = evaluate(preds, labels, groups)
    assert ev.per_group_acc() == {0: 0.9, 2: 0.7}  # each class is one group here
    assert ev.bca == pytest.approx(0.8, abs=0)
    # weighted accuracy would be (900 + 7) / 1010, nowhere near 0.8
    assert (900 + 7) / 1010 != ev.bca


def test_accuracies_are_exact_integer_ratios():
    preds, labels, groups = _case([3, 3, 3, 3], [1, 2, 3, 0])
    ev = evaluate(preds, labels, groups)
    assert ev.per_group[0].accuracy == 1 / 3
    assert ev.per_group[1].accuracy == 2 / 3
    assert ev.per_group[0].correct == 1 and ev.per_group[0].total == 3
    assert ev.wga == 0.0


def test_empty_groups_are_flagged_not_scored():
    preds, labels, groups = _case([4, 0, 4, 4], [4, 0, 2, 4])
    ev = evaluate(preds, labels, groups)
    assert ev.empty_groups == (1,)
    assert 1 not in ev.per_group
    assert ev.wga == 0.5  # min over the three populated groups


def test_single_class_bca_averages_over_present_classes():
    preds, labels, groups = _case([8, 0, 0, 0], [6, 0, 0, 0])
    ev = evaluate(preds, labels, groups)
    assert ev.bca == 0.75
    assert ev.empty_groups == (1, 2, 3)


def test_permutation_invariance():
    preds, labels, groups = _case([7, 5, 6, 9], [3, 4, 2, 9])
    ev = evaluate(preds, labels, groups)
    perm = np.random.default_rng(0).permutation(len(preds))
    ev_p = evaluate(preds[perm], labels[perm], groups[perm])
    assert ev_p.wga == ev.wga
    assert ev_p.bca == ev.bca
    assert ev_p.per_group_acc() == ev.per_group_acc()


def test_duplication_invariance():
    preds, labels, groups = _case([6, 4, 5, 5], [5, 2, 4, 3])
    ev = evaluate(preds, labels, groups)
    ev_d = evaluate(np.tile(preds, 3), np.tile(labels, 3), np.tile(groups, 3))
    assert ev_d.wga == ev.wga
    assert ev_d.bca == ev.bca
    assert ev_d.per_group[2].total == 3 * ev.per_group[2].total


def test_wga_never_exceeds_bca_when_groups_refine_classes():
    # group = 2y + z partitions each class, so the worst group is at most
    # the class mean, which is at most the mean over classes... only when
    # both classes are present; check over random instances
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(8, 40))
        labels = rng.integers(0, 2, n)
        groups = 2 * labels + rng.integers(0, 2, n)
        preds = rng.integers(0, 2, n)
        if len(np.unique(labels)) < 2:
            continue
        ev = evaluate(preds, labels, groups)
        assert ev.wga <= ev.bca + 1e-12


def test_counts_add_up():
    preds, labels, groups = _case([7, 3, 4, 6], [6, 1, 2, 5])
    ev = evaluate(preds, labels, groups)
    assert sum(s.total for s in ev.per_group.values()) == 20
    # groups 0 and 1 hold class 0, groups 2 and 3 class 1
    for groups_of_class in ((0, 1), (2, 3)):
        assert sum(ev.per_group[g].total for g in groups_of_class) == 10
        assert sum(ev.per_group[g].correct for g in groups_of_class) == 7
    assert ev.bca == (7 / 10 + 7 / 10) / 2


def test_input_validation():
    with pytest.raises(ValidationError, match="length mismatch"):
        evaluate(np.zeros(3, dtype=int), np.zeros(2, dtype=int), np.zeros(3, dtype=int))
    with pytest.raises(ValidationError, match="zero samples"):
        evaluate(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0, dtype=int))
    ok = np.array([0, 1])
    with pytest.raises(ValidationError, match="preds must be binary"):
        evaluate(np.array([0, 2]), ok, ok)
    with pytest.raises(ValidationError, match="labels must be binary"):
        evaluate(ok, np.array([-1, 1]), ok)
    with pytest.raises(ValidationError, match="group ids"):
        evaluate(ok, ok, np.array([0, 4]))


def test_empty_groups_and_per_group_counts():
    preds, labels, groups = _case([3, 0, 3, 3], [2, 0, 1, 3])
    ev = evaluate(preds, labels, groups)
    assert ev.empty_groups == (1,)
    assert set(ev.per_group) == {0, 2, 3}
    assert ev.per_group[0] == CountStat(correct=2, total=3)


@st.composite
def scored_samples(draw):
    """(preds, labels, groups) with group = 2 * label + spurious bit, as the pipeline assigns them."""
    n = draw(st.integers(1, 80))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    labels, spurious, preds = (np.array(draw(bits)) for _ in range(3))
    return preds, labels, 2 * labels + spurious


@settings(max_examples=200, deadline=None)
@given(case=scored_samples())
def test_wga_bounds_every_class_accuracy_and_bca_is_their_mean(case):
    preds, labels, groups = case
    ev = evaluate(preds, labels, groups)
    class_acc = [
        int(np.sum(preds[labels == c] == c)) / int(np.sum(labels == c)) for c in (0, 1) if np.any(labels == c)
    ]
    assert all(ev.wga <= acc for acc in class_acc)
    assert ev.bca == sum(class_acc) / len(class_acc)
    assert ev.wga <= ev.bca
