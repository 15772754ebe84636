"""Batch stream contracts: bias-preserving, group-balanced, and epoch-shuffled."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from patchbias.errors import ValidationError
from patchbias.sampler import (
    GroupedDataset,
    balanced_group_counts,
    draw_biased,
    draw_erm,
    draw_less_biased,
    erm_steps_per_epoch,
)


def dataset(counts=(70, 10, 10, 10), seed=0):
    groups = np.repeat(np.arange(4), counts)
    return GroupedDataset.from_group_ids(groups, seed=seed)


def test_from_group_ids_partitions_every_record():
    ds = dataset((3, 1, 4, 2))
    assert ds.size == 10
    assert tuple(len(ix) for ix in ds.group_indices) == (3, 1, 4, 2)
    all_indices = np.sort(np.concatenate(ds.group_indices))
    assert np.array_equal(all_indices, np.arange(10))


def test_from_group_ids_rejects_bad_ids():
    with pytest.raises(ValidationError):
        GroupedDataset.from_group_ids(np.array([0, 1, 4]), seed=0)


def test_biased_single_record_repeats():
    ds = GroupedDataset.from_group_ids(np.array([2]), seed=1)
    idx = draw_biased(ds, 4)
    assert idx.tolist() == [0, 0, 0, 0]


def test_biased_same_seed_identical_sequences():
    a = draw_biased(dataset(seed=5), 32, epoch=2, step=7)
    b = draw_biased(dataset(seed=5), 32, epoch=2, step=7)
    assert np.array_equal(a, b)
    c = draw_biased(dataset(seed=5), 32, epoch=2, step=8)
    assert not np.array_equal(a, c)


def test_biased_group_frequencies_match_dataset_proportions():
    """100 batches of 1000: per-group totals within 3 sigma of multinomial."""
    ds = dataset((700, 100, 100, 100), seed=3)
    counts = np.zeros(4)
    n_draws, batch = 100, 1000
    groups = np.repeat(np.arange(4), (700, 100, 100, 100))
    for step in range(n_draws):
        idx = draw_biased(ds, batch, epoch=0, step=step)
        counts += np.bincount(groups[idx], minlength=4)
    total = n_draws * batch
    for g, p in enumerate((0.7, 0.1, 0.1, 0.1)):
        sigma = np.sqrt(total * p * (1 - p))
        assert abs(counts[g] - total * p) <= 3 * sigma, (g, counts[g])


def test_biased_chi_square_over_many_draws():
    ds = dataset((50, 25, 15, 10), seed=11)
    groups = np.repeat(np.arange(4), (50, 25, 15, 10))
    idx = draw_biased(ds, 100000, epoch=0, step=0)
    observed = np.bincount(groups[idx], minlength=4)
    expected = np.array([0.5, 0.25, 0.15, 0.10]) * 100000
    assert stats.chisquare(observed, expected).pvalue > 0.001


def test_balanced_counts_exact_division():
    assert balanced_group_counts(8) == (2, 2, 2, 2)


def test_balanced_counts_residue_to_lowest_group_ids():
    assert balanced_group_counts(6) == (2, 2, 1, 1)
    assert balanced_group_counts(7) == (2, 2, 2, 1)
    assert balanced_group_counts(5) == (2, 1, 1, 1)


def test_balanced_histogram_deviates_at_most_one_from_uniform():
    for batch in range(4, 40):
        counts = balanced_group_counts(batch)
        assert sum(counts) == batch
        assert max(counts) - min(counts) <= 1


def test_less_biased_batch_is_group_balanced():
    ds = dataset((100, 3, 2, 50), seed=2)
    groups = np.repeat(np.arange(4), (100, 3, 2, 50))
    idx = draw_less_biased(ds, 8, epoch=1, step=0)
    assert np.bincount(groups[idx], minlength=4).tolist() == [2, 2, 2, 2]


def test_less_biased_minority_upsamples_with_replacement():
    ds = dataset((30, 1, 5, 4), seed=9)
    idx = draw_less_biased(ds, 40, epoch=0, step=0)
    # group 1 holds only record index 30; it must appear exactly 10 times
    assert int(np.sum(idx == 30)) == 10


def test_less_biased_errors_name_the_empty_group():
    groups = np.array([0, 0, 1, 3])  # group 2 missing
    ds = GroupedDataset.from_group_ids(groups, seed=0)
    with pytest.raises(ValidationError, match="2"):
        draw_less_biased(ds, 8)


def test_less_biased_requires_batch_of_at_least_four():
    with pytest.raises(ValidationError):
        draw_less_biased(dataset(), 3)


def test_erm_epoch_is_a_permutation():
    ds = dataset((4, 3, 2, 1), seed=6)
    idx = draw_erm(ds, ds.size, epoch=1, step=0)
    assert sorted(idx.tolist()) == list(range(10))


def test_erm_each_record_exactly_once_per_epoch():
    ds = dataset((40, 12, 9, 3), seed=8)
    batch = 16
    seen = []
    for step in range(erm_steps_per_epoch(ds.size, batch)):
        seen.extend(draw_erm(ds, batch, epoch=3, step=step).tolist())
    assert sorted(seen) == list(range(ds.size))


def test_erm_last_batch_may_be_short():
    ds = dataset((5, 2, 2, 1), seed=1)
    assert erm_steps_per_epoch(10, 4) == 3
    assert len(draw_erm(ds, 4, epoch=0, step=2)) == 2
    with pytest.raises(ValidationError):
        draw_erm(ds, 4, epoch=0, step=3)


def test_erm_epochs_reshuffle_reproducibly():
    a1 = draw_erm(dataset(seed=4), 100, epoch=1, step=0)
    a2 = draw_erm(dataset(seed=4), 100, epoch=2, step=0)
    assert not np.array_equal(a1, a2)
    b1 = draw_erm(dataset(seed=4), 100, epoch=1, step=0)
    assert np.array_equal(a1, b1)


def test_draws_are_pure_functions_of_seed_epoch_step():
    """No hidden state: interleaving draws in any order gives the same batches."""
    ds = dataset(seed=12)
    forward = [draw_less_biased(ds, 12, epoch=0, step=s) for s in range(5)]
    backward = [draw_less_biased(ds, 12, epoch=0, step=s) for s in reversed(range(5))]
    for s in range(5):
        assert np.array_equal(forward[s], backward[4 - s])


def test_streams_are_independent():
    ds = dataset(seed=13)
    assert not np.array_equal(draw_biased(ds, 16, 1, 1), draw_erm(ds, 16, 1, 1))


# ---- properties over random group sizes, seeds and batch sizes ----------------------------

PROPERTY = settings(max_examples=80, deadline=None)
group_sizes = st.tuples(*[st.integers(1, 40)] * 4)
seeds = st.integers(0, 2**63 - 1)


@PROPERTY
@given(batch=st.integers(4, 2000), sizes=group_sizes, seed=seeds)
def test_balanced_quotas_sum_to_the_batch_and_differ_by_at_most_one(batch, sizes, seed):
    counts = balanced_group_counts(batch)
    assert sum(counts) == batch
    assert max(counts) - min(counts) <= 1
    idx = draw_less_biased(dataset(sizes, seed), batch, epoch=1, step=2)
    assert tuple(np.bincount(np.repeat(np.arange(4), sizes)[idx], minlength=4)) == counts


@PROPERTY
@given(
    sizes=group_sizes, seed=seeds, batch=st.integers(4, 64),
    calls=st.lists(
        st.tuples(st.sampled_from((draw_biased, draw_less_biased, draw_erm)), st.integers(0, 9), st.integers(0, 9)),
        min_size=1, max_size=10,
    ),
)
def test_every_draw_is_a_pure_function_of_seed_stream_epoch_step(sizes, seed, batch, calls):
    steps = erm_steps_per_epoch(sum(sizes), batch)
    calls = [(draw, epoch, step % steps) for draw, epoch, step in calls]
    first = [draw(dataset(sizes, seed), batch, epoch, step) for draw, epoch, step in calls]
    # one shared dataset object, the calls in reverse order: no state carries over
    shared = dataset(sizes, seed)
    again = [draw(shared, batch, epoch, step) for draw, epoch, step in reversed(calls)][::-1]
    for a, b in zip(first, again):
        assert np.array_equal(a, b)


@PROPERTY
@given(sizes=group_sizes, seed=seeds, batch=st.integers(1, 80), epoch=st.integers(0, 50))
def test_one_epoch_of_erm_slices_partitions_the_records(sizes, seed, batch, epoch):
    ds = dataset(sizes, seed)
    slices = [draw_erm(ds, batch, epoch, step) for step in range(erm_steps_per_epoch(ds.size, batch))]
    assert all(len(s) == batch for s in slices[:-1])
    assert 1 <= len(slices[-1]) <= batch
    assert np.array_equal(np.sort(np.concatenate(slices)), np.arange(ds.size))
