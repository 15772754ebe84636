"""Optimizer arithmetic, extrapolated updates, checkpoint selection, experiment grid."""

import numpy as np
import pytest

from patchbias.errors import NonFiniteGradientError, ValidationError
from patchbias.harness import default_config
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
        (dict(beta_grid=(0.0, float("nan"))), "train.beta_grid"),
        (dict(seed=-1), "train.seed"),
        (dict(batch_size=0), "batch_size"),
        (dict(epochs=0), "epochs"),
        (dict(lr=0.0), "lr"),
        (dict(momentum=1.0), "momentum"),
        (dict(trials=0), "trials"),
        (dict(beta=float("inf")), "beta"),
        (dict(beta_grid=()), "beta_grid"),
    ],
)
def test_train_config_validation(kwargs, message):
    with pytest.raises(ValidationError, match=message):
        TrainConfig(**{**default_config()["train"], **kwargs})


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
    real_train, real_select, real_predict = (
        training.train_history, training.select_checkpoint, training._predict_split
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

    def counted_predict(spec, params, x):
        if np.array_equal(x, val.x):
            val_predicted.append(params)
        elif np.array_equal(x, test.x):
            test_predicted.append(params)
        return real_predict(spec, params, x)

    # the counters live in this process, so every job must run here
    monkeypatch.setattr(parallel, "worker_count", lambda: 1)
    monkeypatch.setattr(training, "train_history", counted)
    monkeypatch.setattr(training, "select_checkpoint", counted_select)
    monkeypatch.setattr(training, "_predict_split", counted_predict)
    config = _experiment_config(trials=2, beta=beta, beta_grid=(-0.5, 0.0, 1.0))
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
    config = _experiment_config(trials=1, beta=None, beta_grid=(1.0, -0.5, 0.0))
    report = run_experiment(SPEC, _two_thresholds(), config)
    for tau in (0.1, 0.03):
        cell = report.cell("gerne", "wga", tau)
        assert cell.beta == 1.0
        assert cell.beta_scores == {1.0: 0.5, -0.5: 0.5, 0.0: 0.5}
