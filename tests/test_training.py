"""Optimizer arithmetic, extrapolated updates, checkpoint selection, experiment grid."""

import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from patchbias.errors import NonFiniteGradientError, ValidationError
from patchbias.harness import default_config, validate_config
from patchbias.model import ClassifierSpec, init_params, param_views, pool
from patchbias import parallel, training
from patchbias.training import (
    History,
    SplitData,
    TrainConfig,
    erm_step,
    evaluate_outcome,
    extrapolated_gradient,
    gerne_step,
    run_experiment,
    select_checkpoint,
    sgd_update,
    train_history,
)

SPEC = ClassifierSpec(input_height=8, input_width=8, channels=1, k1=2, k2=3, pool_target=8, seed=0)


def _split(n, seed, hw=(8, 8)):
    """Separable toy data: label-1 patches (h, w, 1) sit near +0.5, label-0 near -0.5.

    Groups cycle through all four (y, z) cells so worst-group selection works.
    """
    rng = np.random.default_rng(seed)
    groups = np.arange(n, dtype=np.int64) % 4
    y = groups // 2
    x = np.where(y == 1, 0.5, -0.5)[:, None, None, None] + rng.normal(0.0, 0.05, (n, *hw, 1))
    return SplitData(x=x.astype(np.float32), y=y, groups=groups)


def _separator_params():
    """Hand-built weights that label positive-mean patches 1 and the rest 0."""
    params = np.zeros_like(init_params(SPEC))
    views = param_views(SPEC, params)
    views["conv1_w"][...] = 0.5
    views["conv2_w"][...] = 0.5
    views["fc_w"][...] = np.array([[-1.0, 1.0]] * SPEC.k2)
    return params


def test_sgd_without_momentum_is_plain_descent():
    theta = np.array([1.0, -2.0, 0.5])
    g = np.array([0.5, 0.5, -1.0])
    new, vel = sgd_update(theta, np.zeros(3), g, lr=0.1, momentum=0.0)
    np.testing.assert_array_equal(new, theta - 0.1 * g)
    np.testing.assert_array_equal(vel, g)


def test_sgd_momentum_matches_hand_recursion():
    theta = np.array([1.0, 1.0])
    v = np.zeros(2)
    g1 = np.array([1.0, -1.0])
    g2 = np.array([0.25, 0.5])
    lr, mu = 0.2, 0.9
    t1, v1 = sgd_update(theta, v, g1, lr=lr, momentum=mu)
    t2, v2 = sgd_update(t1, v1, g2, lr=lr, momentum=mu)
    np.testing.assert_array_equal(v1, g1)
    np.testing.assert_array_equal(t1, theta - lr * g1)
    np.testing.assert_array_equal(v2, mu * g1 + g2)
    np.testing.assert_array_equal(t2, t1 - lr * (mu * g1 + g2))


def test_sgd_zero_gradient_is_a_fixed_point():
    theta = np.array([3.0, -4.0])
    v = np.zeros(2)
    for _ in range(2):
        theta, v = sgd_update(theta, v, np.zeros(2), lr=0.5, momentum=0.9)
    np.testing.assert_array_equal(theta, [3.0, -4.0])
    np.testing.assert_array_equal(v, [0.0, 0.0])


def test_extrapolated_gradient_worked_example():
    g_b = np.array([1.0, 0.0])
    g_lb = np.array([0.0, 1.0])
    np.testing.assert_array_equal(extrapolated_gradient(g_lb, g_b, 0.5), [-0.5, 1.5])


def test_extrapolated_gradient_limits_are_exact():
    rng = np.random.default_rng(0)
    g_lb = rng.normal(size=257)
    g_b = rng.normal(size=257)
    assert np.array_equal(extrapolated_gradient(g_lb, g_b, 0.0), g_lb)
    assert np.array_equal(extrapolated_gradient(g_lb, g_b, -1.0), g_b)


def test_extrapolated_gradient_is_affine_in_beta():
    rng = np.random.default_rng(1)
    g_lb = rng.normal(size=64)
    g_b = rng.normal(size=64)
    for b1, b2 in ((-0.5, 2.0), (0.25, 0.75), (-1.0, 1.0)):
        lhs = extrapolated_gradient(g_lb, g_b, b1) + extrapolated_gradient(g_lb, g_b, b2)
        rhs = 2.0 * extrapolated_gradient(g_lb, g_b, (b1 + b2) / 2.0)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_gerne_step_with_equal_batches_matches_erm_step():
    split = _split(16, 2)
    x, y = split.x[:8], split.y[:8]
    for beta in (-0.5, 0.0, 1.0, 2.0):
        p0 = init_params(SPEC)
        v0 = np.zeros_like(p0)
        pe, ve, _ = erm_step(SPEC, p0.copy(), v0.copy(), x, y, lr=0.1, momentum=0.9)
        pg, vg, _, _ = gerne_step(
            SPEC, p0.copy(), v0.copy(), x, y, x, y, beta=beta, lr=0.1, momentum=0.9
        )
        # g_lb == g_b makes the extrapolation a no-op up to rounding
        np.testing.assert_allclose(pg, pe, rtol=0, atol=1e-12)
        np.testing.assert_allclose(vg, ve, rtol=0, atol=1e-12)


def test_gerne_step_beta_zero_ignores_the_biased_batch():
    split = _split(16, 3)
    p0 = init_params(SPEC)
    v0 = np.zeros_like(p0)
    pe, ve, _ = erm_step(SPEC, p0.copy(), v0.copy(), split.x[8:], split.y[8:], lr=0.1, momentum=0.9)
    pg, vg, _, _ = gerne_step(
        SPEC, p0.copy(), v0.copy(),
        split.x[:8], split.y[:8],  # biased batch, arbitrary
        split.x[8:], split.y[8:],
        beta=0.0, lr=0.1, momentum=0.9,
    )
    assert np.array_equal(pg, pe)
    assert np.array_equal(vg, ve)


def test_gerne_step_rejects_empty_batches():
    split = _split(8, 4)
    p0 = init_params(SPEC)
    v0 = np.zeros_like(p0)
    empty_x = split.x[:0]
    empty_y = split.y[:0]
    with pytest.raises(ValidationError, match="non-empty"):
        gerne_step(SPEC, p0, v0, empty_x, empty_y, split.x, split.y, beta=0.5, lr=0.1, momentum=0.9)


def test_non_finite_gradients_abort_and_name_the_stream():
    split = _split(8, 5)
    p0 = init_params(SPEC)
    v0 = np.zeros_like(p0)
    bad = split.x.copy()
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(NonFiniteGradientError, match="training"):
        erm_step(SPEC, p0.copy(), v0.copy(), bad, split.y, lr=0.1, momentum=0.9)
    with pytest.raises(NonFiniteGradientError, match="biased"):
        gerne_step(SPEC, p0.copy(), v0.copy(), bad, split.y, split.x, split.y,
                   beta=0.5, lr=0.1, momentum=0.9)
    with pytest.raises(NonFiniteGradientError, match="less-biased"):
        gerne_step(SPEC, p0.copy(), v0.copy(), split.x, split.y, bad, split.y,
                   beta=0.5, lr=0.1, momentum=0.9)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(lr=float("nan")), "train.lr must be a positive finite number"),
        (dict(beta_grid=[0.0, float("nan")]), "train.beta_grid"),
        (dict(seed=-1), "train.seed"),
        (dict(batch_size=0), "batch_size"),
        (dict(epochs=0), "epochs"),
        (dict(lr=0.0), "lr"),
        (dict(momentum=1.0), "momentum"),
        (dict(trials=0), "trials"),
        (dict(beta=float("inf")), "beta"),
        (dict(beta_grid=[]), "beta_grid"),
    ],
)
def test_train_config_validation(kwargs, message):
    # the train section is checked by the config schema; TrainConfig is only its typed view
    config = default_config()
    config["train"].update(kwargs)
    with pytest.raises(ValidationError, match=message):
        validate_config(config)


def test_split_data_shape_checks():
    with pytest.raises(ValidationError, match="4-d"):
        SplitData(x=np.zeros((3, 8, 8)), y=np.zeros(3, dtype=np.int64), groups=np.zeros(3, dtype=np.int64))
    with pytest.raises(ValidationError, match="align"):
        SplitData(x=np.zeros((3, 8, 8, 1)), y=np.zeros(2, dtype=np.int64), groups=np.zeros(3, dtype=np.int64))


def test_train_history_snapshots_every_epoch_and_is_deterministic():
    split = _split(24, 6)
    kwargs = dict(seed=9, epochs=3, batch_size=8, lr=0.05, momentum=0.9)
    h1 = train_history(SPEC, "erm", split, **kwargs)
    h2 = train_history(SPEC, "erm", split, **kwargs)
    assert len(h1.snapshots) == 3 and len(h1.train_losses) == 3
    for a, b in zip(h1.snapshots, h2.snapshots):
        assert np.array_equal(a, b)
    assert h1.train_losses == h2.train_losses
    h3 = train_history(SPEC, "erm", split, seed=10, epochs=3, batch_size=8, lr=0.05, momentum=0.9)
    assert not np.array_equal(h1.snapshots[-1], h3.snapshots[-1])


def test_train_history_requires_beta_for_gerne_and_data():
    split = _split(16, 7)
    with pytest.raises(ValidationError, match="beta"):
        train_history(SPEC, "gerne", split, seed=0, epochs=1, batch_size=8, lr=0.1, momentum=0.9)
    empty = SplitData(
        x=np.zeros((0, 8, 8, 1), dtype=np.float32),
        y=np.zeros(0, dtype=np.int64),
        groups=np.zeros(0, dtype=np.int64),
    )
    with pytest.raises(ValidationError, match="empty"):
        train_history(SPEC, "erm", empty, seed=0, epochs=1, batch_size=8, lr=0.1, momentum=0.9)


def _history_from(snapshots):
    return History(
        spec=SPEC,
        snapshots=[s.copy() for s in snapshots],
        train_losses=[0.0] * len(snapshots),
    )


def test_select_checkpoint_single_epoch():
    val = _split(16, 8)
    history = _history_from([init_params(SPEC)])
    checkpoint, log = select_checkpoint(history, val, "bca")
    assert checkpoint.epoch == 1
    assert len(log) == 1
    assert log[0].epoch == 1


def test_select_checkpoint_takes_strictly_better_epoch():
    val = _split(32, 9)
    zeros = np.zeros_like(init_params(SPEC))
    history = _history_from([zeros, _separator_params()])
    for metric in ("bca", "wga"):
        checkpoint, log = select_checkpoint(history, val, metric)
        assert checkpoint.epoch == 2
        assert checkpoint.val_wga == 1.0 and checkpoint.val_bca == 1.0
    assert [r.epoch for r in log] == [1, 2]
    assert log[0].val_bca == 0.5  # all-zero net predicts class 0 everywhere


def test_select_checkpoint_keeps_earlier_epoch_on_tie():
    val = _split(16, 10)
    good = _separator_params()
    history = _history_from([good, good, good])
    checkpoint, _ = select_checkpoint(history, val, "wga")
    assert checkpoint.epoch == 1


def test_worst_group_selection_requires_all_groups_in_validation():
    val = _split(16, 11)
    val.groups[val.groups == 2] = 3  # drop group 2
    history = _history_from([init_params(SPEC)])
    with pytest.raises(ValidationError, match="missing \\[2\\]"):
        select_checkpoint(history, val, "wga")
    # bca selection does not need group coverage
    select_checkpoint(history, val, "bca")
    for bad_id in (-1, 4):
        val.groups[0] = bad_id
        with pytest.raises(ValidationError, match="group ids must lie in"):
            select_checkpoint(history, val, "wga")


def test_group_checks_do_not_import_numpy_ma():
    """The first np.unique call in a process imports numpy.ma (about 18 ms), inside
    a timed training run; select_checkpoint and run_experiment check groups without it."""
    code = """
import sys
import numpy as np
from patchbias.errors import ValidationError
from patchbias.model import ClassifierSpec, init_params
from patchbias.training import History, SplitData, TrainConfig, run_experiment, select_checkpoint

spec = ClassifierSpec(input_height=8, input_width=8, channels=1, k1=2, k2=3, pool_target=8)
groups = np.arange(16, dtype=np.int64) % 4
split = SplitData(x=np.zeros((16, 8, 8, 1)), y=groups // 2, groups=groups)
select_checkpoint(History(spec=spec, snapshots=[init_params(spec)], train_losses=[0.0]), split, "wga")
lacking = SplitData(x=split.x, y=split.y, groups=np.zeros(16, dtype=np.int64))
config = TrainConfig(batch_size=8, epochs=1, lr=0.1, momentum=0.9, seed=0, trials=1, beta=0.0, beta_grid=[0.0])
try:
    run_experiment(spec, {0.1: (split, lacking, split)}, config)
except ValidationError as e:
    assert "validation split" in str(e), e
else:
    raise AssertionError("a validation split lacking groups passed the group checks")
print("numpy.ma" in sys.modules)
"""
    src = str(Path(training.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "False"


def test_train_history_and_evaluate_outcome_learn_the_separable_toy_problem():
    train, val, test = _split(64, 12), _split(32, 13), _split(32, 14)

    def outcome():
        history = train_history(SPEC, "erm", train, seed=1, epochs=4, batch_size=16, lr=0.1, momentum=0.9)
        return evaluate_outcome(history, val, test, "bca")

    out = outcome()
    assert out.test_eval.bca > 0.9
    assert len(out.log) == 4
    assert out.test_preds.shape == (32,)
    repeat = outcome()
    assert np.array_equal(repeat.test_preds, out.test_preds)
    assert repeat.test_eval.bca == out.test_eval.bca


def test_raw_and_pooled_splits_give_the_same_trajectory_and_outcome():
    """At pool factor 2, training and selection on raw splits equal those on pooled splits, bit for bit."""
    spec = ClassifierSpec(input_height=17, input_width=16, channels=1, k1=2, k2=3, pool_target=9, seed=0)
    assert spec.pool_factor == 2 and spec.pooled_shape == (8, 8)
    raw = [_split(48, 40, hw=(17, 16)), _split(32, 41, hw=(17, 16)), _split(32, 42, hw=(17, 16))]
    pooled = [SplitData(x=pool(spec, s.x), y=s.y, groups=s.groups) for s in raw]
    assert pooled[0].x.shape == (48, 8, 8, 1)

    def run(train, val, test, method, beta):
        history = train_history(spec, method, train, seed=2, epochs=3, batch_size=16, lr=0.1, momentum=0.9,
                                beta=beta)
        return history, evaluate_outcome(history, val, test, "wga")

    for method, beta in (("erm", None), ("gerne", 0.5)):
        (h_raw, o_raw), (h_pooled, o_pooled) = run(*raw, method, beta), run(*pooled, method, beta)
        assert len(h_raw.snapshots) == len(h_pooled.snapshots) == 3
        for a, b in zip(h_raw.snapshots, h_pooled.snapshots):
            np.testing.assert_array_equal(a, b)
        assert h_raw.train_losses == h_pooled.train_losses
        assert o_raw.log == o_pooled.log
        assert o_raw.checkpoint.epoch == o_pooled.checkpoint.epoch
        np.testing.assert_array_equal(o_raw.checkpoint.params, o_pooled.checkpoint.params)
        np.testing.assert_array_equal(o_raw.test_preds, o_pooled.test_preds)


def test_evaluation_pools_chunk_by_chunk_and_holds_no_pooled_split():
    """Raw splits of many chunks give the pooled outcome bytes, without a pooled copy of either split."""
    spec = ClassifierSpec(input_height=17, input_width=16, channels=1, k1=2, k2=3, pool_target=9, seed=0)
    assert spec.pool_factor == 2
    train = _split(48, 50, hw=(17, 16))
    history = train_history(spec, "gerne", train, seed=4, epochs=3, batch_size=16, lr=0.1, momentum=0.9, beta=0.5)
    # neither size is a multiple of the chunk, so each split ends in a short chunk
    raw_val, raw_test = _split(1000, 51, hw=(17, 16)), _split(700, 52, hw=(17, 16))
    pooled_val, pooled_test = (SplitData(x=pool(spec, s.x), y=s.y, groups=s.groups) for s in (raw_val, raw_test))

    # the pooled call goes first: the first np.unique imports numpy.ma, about 1 MB traced
    from_pooled = evaluate_outcome(history, pooled_val, pooled_test, "wga")
    tracemalloc.start()
    try:
        from_raw = evaluate_outcome(history, raw_val, raw_test, "wga")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < pooled_val.x.nbytes
    assert from_raw.checkpoint.epoch == from_pooled.checkpoint.epoch
    assert from_raw.log == from_pooled.log
    assert from_raw.test_preds.tobytes() == from_pooled.test_preds.tobytes()

    # a split in neither the raw nor the pooled shape is refused, also when it is empty
    for n in (40, 0):
        wrong = _split(n, 53, hw=(16, 16))
        with pytest.raises(ValidationError, match="matches neither"):
            evaluate_outcome(history, wrong, raw_test, "bca")
        with pytest.raises(ValidationError, match="matches neither"):
            evaluate_outcome(history, raw_val, wrong, "bca")


def _experiment_config(**overrides):
    base = default_config()["train"]
    base.update(batch_size=16, epochs=2, lr=0.1, momentum=0.9, seed=3, trials=1, beta=0.5)
    base.update(overrides)
    return TrainConfig(**base)


def test_run_experiment_builds_the_full_grid():
    train, val, test = _split(48, 20), _split(32, 21), _split(32, 22)
    report = run_experiment(SPEC, {0.1: (train, val, test)}, _experiment_config())
    assert [c.row_label for c in report.cells] == ["ERM+BCA", "ERM+WGA", "GERNE+WGA"]
    cell = report.cell("gerne", "wga", 0.1)
    assert cell.beta == 0.5
    assert len(cell.outcomes) == 1
    assert cell.wga_std == 0.0 and cell.bca_std == 0.0  # single trial
    with pytest.raises(KeyError):
        report.cell("gerne", "bca", 0.1)


def test_run_experiment_repeated_seed_gives_zero_spread():
    train, val, test = _split(48, 23), _split(32, 24), _split(32, 25)
    config = _experiment_config(trials=2, seed=7)
    first, again = (run_experiment(SPEC, {0.1: (train, val, test)}, config) for _ in range(2))
    for a, b in zip(first.cells, again.cells):
        assert [t.seed for t in a.outcomes] == [7, 8]
        assert [t.to_dict() for t in a.outcomes] == [t.to_dict() for t in b.outcomes]
        assert (a.wga_mean, a.wga_std, a.bca_mean, a.bca_std) == (b.wga_mean, b.wga_std, b.bca_mean, b.bca_std)


def _two_thresholds():
    """Two thresholds over the same arrays, as different group views: only z flips."""
    train, val, test = _split(48, 26), _split(32, 27), _split(32, 28)
    flip = [SplitData(x=s.x, y=s.y, groups=s.y * 2 + 1 - s.groups % 2) for s in (train, val, test)]
    return {0.1: (train, val, test), 0.03: tuple(flip)}


def test_run_experiment_shares_erm_trajectories_across_thresholds():
    report = run_experiment(SPEC, _two_thresholds(), _experiment_config(trials=2))
    a = report.cell("erm", "bca", 0.1)
    b = report.cell("erm", "bca", 0.03)
    # balanced-class selection ignores groups, so shared weights mean equal scores
    assert a.bca_mean == b.bca_mean
    assert [t.checkpoint.epoch for t in a.outcomes] == [t.checkpoint.epoch for t in b.outcomes]


def test_run_experiment_validates_the_data_grid():
    train, val, test = _split(32, 29), _split(16, 30), _split(16, 31)
    with pytest.raises(ValidationError, match="data"):
        run_experiment(SPEC, {}, _experiment_config())
    # equal values are not enough: thresholds must share the very arrays
    copied = SplitData(x=val.x.copy(), y=val.y, groups=val.groups)
    with pytest.raises(ValidationError, match="share the first threshold's .* \\(tau=0.03\\)"):
        run_experiment(SPEC, {0.1: (train, val, test), 0.03: (train, copied, test)}, _experiment_config())


def test_run_experiment_checks_groups_at_every_threshold_before_training(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("train_history ran before the group preflight")

    train, val, test = _split(48, 32), _split(32, 33), _split(32, 34)
    no_group_1 = SplitData(x=train.x, y=train.y, groups=np.where(train.groups == 1, 0, train.groups))
    val_no_group_3 = SplitData(x=val.x, y=val.y, groups=np.where(val.groups == 3, 2, val.groups))
    monkeypatch.setattr(training, "train_history", no_training)
    # the bad threshold comes second, so the first one's trajectories would train today
    with pytest.raises(ValidationError, match="group 1 is empty; balanced sampling"):
        run_experiment(SPEC, {0.1: (train, val, test), 0.03: (no_group_1, val, test)},
                       _experiment_config())
    with pytest.raises(ValidationError, match="every group in the validation split; missing \\[3\\]"):
        run_experiment(SPEC, {0.1: (train, val, test), 0.03: (train, val_no_group_3, test)},
                       _experiment_config())


def test_run_experiment_requires_pooled_splits_before_training(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("train_history ran before the pooled-input check")

    spec = ClassifierSpec(input_height=17, input_width=16, channels=1, k1=2, k2=3, pool_target=9, seed=0)
    raw = (_split(48, 43, hw=(17, 16)), _split(32, 44, hw=(17, 16)), _split(32, 45, hw=(17, 16)))
    monkeypatch.setattr(training, "train_history", no_training)
    with pytest.raises(ValidationError, match="train split shape \\(48, 17, 16, 1\\) is not the pooled .*model.pool"):
        run_experiment(spec, {0.1: raw}, _experiment_config())
    # one raw split among pooled ones is named too
    pooled = [SplitData(x=pool(spec, s.x), y=s.y, groups=s.groups) for s in raw]
    with pytest.raises(ValidationError, match="test split shape .* model.pool"):
        run_experiment(spec, {0.1: (*pooled[:2], raw[2])}, _experiment_config())


@pytest.mark.parametrize("beta, trajectories", [(None, 10), (0.5, 6)])
def test_run_experiment_trains_each_trajectory_once(monkeypatch, beta, trajectories):
    histories, selected, val_predicted, test_predicted = [], [], [], []
    real_train, real_select, real_predictions = (
        training.train_history, training.select_checkpoint, training._predictions
    )
    data = _two_thresholds()
    _, val, test = data[0.1]  # the thresholds share the arrays

    def counted(*args, **kwargs):
        history = real_train(*args, **kwargs)
        histories.append((args[1], kwargs["seed"], history))
        return history

    def counted_select(history, val, eval_metric):
        selected.append(history)
        return real_select(history, val, eval_metric)

    def counted_predictions(spec, snapshots, x):
        if np.array_equal(x, val.x):
            val_predicted.extend(snapshots)
        elif np.array_equal(x, test.x):
            test_predicted.extend(snapshots)
        return real_predictions(spec, snapshots, x)

    # the counters live in this process, so every job must run here
    monkeypatch.setattr(parallel, "worker_count", lambda: 1)
    monkeypatch.setattr(training, "train_history", counted)
    monkeypatch.setattr(training, "select_checkpoint", counted_select)
    monkeypatch.setattr(training, "_predictions", counted_predictions)
    config = _experiment_config(trials=2, beta=beta, beta_grid=[-0.5, 0.0, 1.0])
    report = run_experiment(SPEC, data, config)
    # ERM once per seed for every threshold; per threshold, the grid at the first
    # seed (its winner is trial 0) plus the other seed, or one run per seed
    assert len(histories) == trajectories
    assert sorted(seed for method, seed, _ in histories if method == "erm") == [3, 4]
    # every epoch snapshot of every trajectory is predicted on validation exactly
    # once, although each ERM trajectory serves 2 thresholds x 2 metrics
    snapshots = [params for _, _, history in histories for params in history.snapshots]
    assert len(snapshots) == 2 * trajectories
    assert sorted(map(id, val_predicted)) == sorted(map(id, snapshots))
    # every GERNE trajectory goes through select_checkpoint exactly once, the
    # winning grid entry included; ERM selects from its own predictions
    gerne = [history for method, _, history in histories if method == "gerne"]
    assert sorted(map(id, selected)) == sorted(map(id, gerne))
    # test is predicted once per (trajectory, chosen epoch) that enters a cell,
    # never for a losing grid entry
    chosen = {id(o.checkpoint.params) for cell in report.cells for o in cell.outcomes}
    assert sorted(map(id, test_predicted)) == sorted(chosen)
    for tau in (0.1, 0.03):
        cell = report.cell("gerne", "wga", tau)
        assert [t.seed for t in cell.outcomes] == [3, 4]
        if beta is None:
            assert list(cell.beta_scores) == [-0.5, 0.0, 1.0]
            assert cell.beta_scores[cell.beta] == max(cell.beta_scores.values())
        else:
            assert cell.beta == 0.5 and cell.beta_scores == {}


def test_beta_tuning_tie_keeps_the_earlier_grid_entry(monkeypatch):
    real = training.select_checkpoint

    def all_equal(history, val, eval_metric):
        checkpoint, log = real(history, val, eval_metric)
        checkpoint.val_wga = checkpoint.val_bca = 0.5
        return checkpoint, log

    monkeypatch.setattr(training, "select_checkpoint", all_equal)
    config = _experiment_config(trials=1, beta=None, beta_grid=[1.0, -0.5, 0.0])
    report = run_experiment(SPEC, _two_thresholds(), config)
    for tau in (0.1, 0.03):
        cell = report.cell("gerne", "wga", tau)
        assert cell.beta == 1.0
        assert cell.beta_scores == {1.0: 0.5, -0.5: 0.5, 0.0: 0.5}


# ---- the biased-stream helper ---------------------------------------------------------

needs_blas_pin = pytest.mark.skipif(
    parallel._blas_threads() is None, reason="no OpenBLAS thread setter, so no helper is forked"
)
GERNE = dict(seed=5, epochs=3, batch_size=16, lr=0.1, momentum=0.9, beta=0.5)


@pytest.fixture
def helpers_started(monkeypatch, tmp_path):
    """Helpers forked from now on, in any process, as a list of marker files (one per helper)."""
    class Counted(parallel.Helper):
        def __init__(self, fn):
            super().__init__(fn)
            (tmp_path / f"helper-{self._process.pid}").touch()

    monkeypatch.setattr(parallel, "Helper", Counted)
    return lambda: sorted(tmp_path.glob("helper-*"))


def _serial_history(monkeypatch, train):
    with monkeypatch.context() as patch:
        patch.setattr(parallel, "worker_count", lambda: 1)
        assert not parallel.has_spare_core()
        return train_history(SPEC, "gerne", train, **GERNE)


def _assert_same_history(a, b):
    assert len(a.snapshots) == len(b.snapshots) == GERNE["epochs"]
    for x, y in zip(a.snapshots, b.snapshots):
        assert x.tobytes() == y.tobytes()
    assert a.train_losses == b.train_losses


@needs_blas_pin
def test_a_gerne_trajectory_with_a_helper_gives_the_serial_bits(monkeypatch, helpers_started):
    train = _split(72, 60)
    serial = _serial_history(monkeypatch, train)
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)
    with_helper = train_history(SPEC, "gerne", train, **GERNE)
    assert len(helpers_started()) == 1
    _assert_same_history(with_helper, serial)
    assert multiprocessing.active_children() == []
    # ERM has one stream, so it forks nothing
    train_history(SPEC, "erm", train, **{k: v for k, v in GERNE.items() if k != "beta"})
    assert len(helpers_started()) == 1


def _gerne_job(train):
    return train_history(SPEC, "gerne", train, **GERNE)


@needs_blas_pin
@pytest.mark.parametrize("cores", [2, 4])
def test_pool_jobs_fork_no_helper_and_give_the_serial_bits(monkeypatch, helpers_started, cores):
    trains = [_split(72, 61), _split(72, 62)]
    serial = [_serial_history(monkeypatch, train) for train in trains]
    monkeypatch.setattr(parallel, "worker_count", lambda: cores)
    pooled = parallel.run_jobs([partial(_gerne_job, train) for train in trains])
    assert helpers_started() == []
    for a, b in zip(pooled, serial):
        _assert_same_history(a, b)
    assert multiprocessing.active_children() == []


def _loss_and_grad_failing(caller, where, caller_calls, real, *args):
    loss, grad = real(*args)
    if os.getpid() != caller:
        return (float("nan"), grad) if where == "helper" else (loss, grad)
    caller_calls.append(1)
    if where == "caller" and len(caller_calls) == 5:  # while the helper holds a request
        raise RuntimeError("failed mid-trajectory")
    return loss, grad


@needs_blas_pin
@pytest.mark.parametrize("where, error, message", [
    ("helper", NonFiniteGradientError, "on the biased batch"),
    ("caller", RuntimeError, "mid-trajectory"),
])
def test_a_failed_trajectory_leaves_no_helper_running(monkeypatch, helpers_started, where, error, message):
    failing = partial(_loss_and_grad_failing, os.getpid(), where, [], training.loss_and_grad)
    monkeypatch.setattr(training, "loss_and_grad", failing)
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)
    with pytest.raises(error, match=message):
        train_history(SPEC, "gerne", _split(72, 65), **GERNE)
    assert len(helpers_started()) == 1
    assert multiprocessing.active_children() == []
