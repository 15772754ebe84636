"""Training loops: ERM baseline and gradient-extrapolation debiasing.

The debiased update draws two batches per step, a biased one (uniform over
records, so it inherits the dataset skew) and a less-biased one (group
balanced), and steps along

    g_ext = g_lb + beta * (g_lb - g_b)

evaluated as (1 + beta) * g_lb - beta * g_b so that beta = 0 reduces exactly
to the less-biased gradient and beta = -1 to the biased one. beta > 0
extrapolates past the balanced batch, beta in (-1, 0) interpolates.

`run_experiment` is the one way into training. At every threshold tau it
fills each row of ROWS, a (method, selection metric) pair, with `trials`
seeded runs and reports test worst-group and balanced-class accuracy as
mean +/- sample std. Checkpoint selection happens on validation after every
epoch. The thresholds share the patch and label arrays and differ only in
group ids, which ERM never reads, so one ERM trajectory per seed serves every
threshold and both selection metrics. Each threshold runs every entry of the
beta grid (a fixed beta is a one-point grid) at the first seed, picks beta by
validation score, and keeps the chosen run's outcome as its first trial; the
other grid entries are never scored on test. Each trajectory, with its
selection, is one job of `parallel.run_jobs`, so the trajectories run on every
usable core and give the same bytes as one process would.

The model takes only pooled input. `run_experiment` requires the three shared
split arrays to be pooled already: `harness.cmd_train` has split assembly pool
each scene as it goes (`harness.build_split_data` with the model spec), so no
raw split array ever exists. An ERM job predicts each epoch snapshot once on
the shared validation array, selects for every (threshold, metric) pair from
those predictions, and predicts test once per distinct chosen epoch. The
single-trajectory entry points (`train_history`, `select_checkpoint`,
`evaluate_outcome`) also take raw splits. `train_history` pools the train
split once, after priming the allocator (see `_ALLOCATOR_PRIMER_BYTES`). Every
prediction goes through `_predictions`, which walks a split in
`_EVAL_CHUNK`-row chunks, pools each chunk with `model.pool` (a pass-through
for pooled input) and predicts it under every snapshot before the next, so
evaluation never holds a pooled copy of val or test.

A GERNE trajectory run outside a `run_jobs` pool on two or more usable cores
(`parallel.has_spare_core`) uses two. After pooling the train split it forks
one `parallel.Helper`, which inherits the pooled array copy-on-write. Each
step sends it the parameters and the biased row indices, computes the
less-biased gradient meanwhile, and takes back the biased loss and gradient.
The helper runs one BLAS thread, as the caller does meanwhile, so the bits
are those of the serial step; the package still starts no threads. The
memory the stages record is the caller's alone. Trajectories in a pool, ERM
trajectories and one-core hosts compute both gradients in the one process.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .errors import NonFiniteGradientError, ValidationError
from .metrics import N_GROUPS, EvalResult, evaluate
from .model import ClassifierSpec, init_params, loss_and_grad, pool, predict
from .parallel import pool_size, run_jobs, spare_core_helper
from .sampler import GroupedDataset, draw_biased, draw_erm, draw_less_biased, erm_steps_per_epoch

METHOD_ERM = "erm"
METHOD_GERNE = "gerne"
METHODS = (METHOD_ERM, METHOD_GERNE)
EVAL_METRICS = ("wga", "bca")
# (method, selection metric) per result row, in the order of results.json and the final table
ROWS = ((METHOD_ERM, "bca"), (METHOD_ERM, "wga"), (METHOD_GERNE, "wga"))


def row_label(method: str, eval_metric: str) -> str:
    """A result row's name in results.json and the final table, e.g. "GERNE+WGA"."""
    return f"{method.upper()}+{eval_metric.upper()}"


@dataclass(frozen=True)
class TrainConfig:
    """A typed view of the config's `train` section.

    It checks nothing itself: `harness.validate_config` checks the section
    against `harness.CONFIG_SCHEMA` before `cmd_train` builds this view.
    """

    batch_size: int
    epochs: int
    lr: float
    momentum: float
    seed: int
    trials: int
    beta: float | None  # None tunes beta over beta_grid
    beta_grid: list[float]


@dataclass
class SplitData:
    """One split as dense arrays: patches, binary labels, group ids.

    `x` holds either raw patches or the model's pooled input (see `model.pool`).
    """

    x: np.ndarray  # (N, h, w, M) float32 raw, or (N, h/f, w/f, M) float64 pooled
    y: np.ndarray  # (N,) int64
    groups: np.ndarray  # (N,) int64

    def __post_init__(self) -> None:
        if self.x.ndim != 4:
            raise ValidationError(f"patch array must be 4-d, got shape {self.x.shape}")
        n = self.x.shape[0]
        if self.y.shape != (n,) or self.groups.shape != (n,):
            raise ValidationError("labels and groups must align with the patch array")

    @property
    def size(self) -> int:
        return self.x.shape[0]


def _missing_groups(groups: np.ndarray) -> list[int]:
    """The group ids in [0, N_GROUPS) that `groups` lacks; an id outside that range is a ValidationError."""
    # np.bincount, not np.unique: the first np.unique call in a process imports numpy.ma
    if groups.size and (groups.min() < 0 or groups.max() >= N_GROUPS):
        raise ValidationError(f"group ids must lie in [0, {N_GROUPS})")
    return np.flatnonzero(np.bincount(groups, minlength=N_GROUPS) == 0).tolist()


def sgd_update(
    values: np.ndarray, velocity: np.ndarray, grad: np.ndarray, lr: float, momentum: float
) -> tuple[np.ndarray, np.ndarray]:
    """Heavy-ball step: v <- mu v + g, theta <- theta - lr v."""
    velocity = momentum * velocity + grad
    return values - lr * velocity, velocity


def extrapolated_gradient(g_lb: np.ndarray, g_b: np.ndarray, beta: float) -> np.ndarray:
    # this form makes beta=0 return g_lb and beta=-1 return g_b without
    # rounding, which the naive g_lb + beta*(g_lb - g_b) does not
    return (1.0 + beta) * g_lb - beta * g_b


def _ensure_finite(loss: float, grad: np.ndarray, stream: str) -> None:
    if not math.isfinite(loss) or not np.isfinite(grad).all():
        raise NonFiniteGradientError(f"non-finite gradient on the {stream} batch; aborting the run")


def erm_step(
    spec: ClassifierSpec,
    params: np.ndarray,
    velocity: np.ndarray,
    batch: np.ndarray,
    labels: np.ndarray,
    *,
    lr: float,
    momentum: float,
) -> tuple[np.ndarray, np.ndarray, float]:
    loss, grad = loss_and_grad(spec, params, batch, labels)
    _ensure_finite(loss, grad, "training")
    params, velocity = sgd_update(params, velocity, grad, lr, momentum)
    return params, velocity, loss


def gerne_step(
    spec: ClassifierSpec,
    params: np.ndarray,
    velocity: np.ndarray,
    batch_b: np.ndarray | None,
    labels_b: np.ndarray | None,
    batch_lb: np.ndarray,
    labels_lb: np.ndarray,
    *,
    beta: float,
    lr: float,
    momentum: float,
    biased: Callable[[], tuple[float, np.ndarray]] | None = None,
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """One GERNE update from a biased and a less-biased batch.

    The biased (loss, gradient) at `params` is `loss_and_grad` on `batch_b`,
    or, if given, `biased()`, which a helper may be computing meanwhile
    (see `train_history`); `batch_b` and `labels_b` are then None.
    """
    if batch_lb.shape[0] == 0 or (biased is None and batch_b.shape[0] == 0):
        raise ValidationError("both batches must be non-empty")
    if biased is None:
        biased = partial(loss_and_grad, spec, params, batch_b, labels_b)
    loss_lb, g_lb = loss_and_grad(spec, params, batch_lb, labels_lb)
    loss_b, g_b = biased()
    _ensure_finite(loss_b, g_b, "biased")
    _ensure_finite(loss_lb, g_lb, "less-biased")
    g_ext = extrapolated_gradient(g_lb, g_b, beta)
    params, velocity = sgd_update(params, velocity, g_ext, lr, momentum)
    return params, velocity, loss_b, loss_lb


def _rows_loss_and_grad(
    spec: ClassifierSpec, x: np.ndarray, y: np.ndarray, params: np.ndarray, rows: np.ndarray
) -> tuple[float, np.ndarray]:
    """`loss_and_grad` on rows of a split: the biased stream's job."""
    return loss_and_grad(spec, params, x[rows], y[rows])


# glibc serves a block above its mmap threshold (128 KiB at start) with a
# fresh mmap, and freeing such a block raises the threshold to its size, up
# to 32 MiB. Until a block larger than the per-step temporaries (conv1's
# im2col columns, about 1.1 MB) has been freed, each of them is mapped and
# zero-faulted anew on every call. So a trajectory first allocates and frees
# one untouched block of this size, whatever its caller freed before: it
# costs no resident memory and lifts the threshold above every temporary.
_ALLOCATOR_PRIMER_BYTES = 16 << 20


@dataclass
class History:
    """Per-epoch parameter snapshots from one training run; `spec.seed` is its seed."""

    spec: ClassifierSpec
    snapshots: list[np.ndarray]
    train_losses: list[float]


def train_history(
    model_spec: ClassifierSpec,
    method: str,
    train: SplitData,
    *,
    seed: int,
    epochs: int,
    batch_size: int,
    lr: float,
    momentum: float,
    beta: float | None = None,
) -> History:
    """Run one training trajectory, snapshotting parameters after each epoch."""
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}")
    if method == METHOD_GERNE and beta is None:
        raise ValidationError("gerne training requires beta")
    if train.size == 0:
        raise ValidationError("training split is empty")

    np.empty(_ALLOCATOR_PRIMER_BYTES, dtype=np.uint8)  # allocated and freed at once, never touched
    spec = replace(model_spec, seed=seed)
    spec.validate()
    x = pool(spec, train.x)
    params = init_params(spec)
    velocity = np.zeros_like(params)
    ds = GroupedDataset.from_group_ids(train.groups, seed)
    steps = erm_steps_per_epoch(train.size, batch_size)

    snapshots: list[np.ndarray] = []
    losses: list[float] = []
    # with a core to spare, a forked helper computes each biased gradient; it
    # inherits the pooled split copy-on-write and is sent only rows
    biased_rows = partial(_rows_loss_and_grad, spec, x, train.y)
    with spare_core_helper(biased_rows) if method == METHOD_GERNE else nullcontext() as biased:
        for epoch in range(1, epochs + 1):
            epoch_losses = []
            for step in range(steps):
                if method == METHOD_ERM:
                    idx = draw_erm(ds, batch_size, epoch, step)
                    params, velocity, loss = erm_step(
                        spec, params, velocity, x[idx], train.y[idx], lr=lr, momentum=momentum
                    )
                    epoch_losses.append(loss)
                else:
                    idx_b = draw_biased(ds, batch_size, epoch, step)
                    idx_lb = draw_less_biased(ds, batch_size, epoch, step)
                    biased.submit(params, idx_b)
                    params, velocity, loss_b, loss_lb = gerne_step(
                        spec, params, velocity,
                        None, None,
                        x[idx_lb], train.y[idx_lb],
                        beta=beta, lr=lr, momentum=momentum, biased=biased.result,
                    )
                    epoch_losses.append(0.5 * (loss_b + loss_lb))
            # every step returns a new array, so the snapshot needs no copy
            snapshots.append(params)
            losses.append(float(np.mean(epoch_losses)))
    return History(spec=spec, snapshots=snapshots, train_losses=losses)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_wga: float
    val_bca: float


@dataclass
class Checkpoint:
    params: np.ndarray
    epoch: int
    val_wga: float
    val_bca: float


@dataclass
class TrialOutcome:
    seed: int
    checkpoint: Checkpoint
    log: list[EpochRecord]
    test_eval: EvalResult
    test_preds: np.ndarray

    def to_dict(self) -> dict:
        cp, ev = self.checkpoint, self.test_eval
        return {
            "seed": self.seed,
            "best_epoch": cp.epoch,
            "val_wga": round(cp.val_wga, 4),
            "val_bca": round(cp.val_bca, 4),
            "test_wga": round(ev.wga, 4),
            "test_bca": round(ev.bca, 4),
            "test_per_group": {str(g): round(a, 4) for g, a in ev.per_group_acc().items()},
            "empty_test_groups": list(ev.empty_groups),
        }


# rows pooled and predicted at a time: bounds evaluation's temporaries (the
# pooled chunk and conv1's im2col columns) independently of the split size
_EVAL_CHUNK = 64


def _predictions(spec: ClassifierSpec, snapshots: list[np.ndarray], x: np.ndarray) -> list[np.ndarray]:
    """Labels for split `x` (raw or pooled) under each parameter vector, in the order given.

    Each chunk of `x` is pooled once and predicted under every snapshot, so
    no pooled copy of the whole split exists.
    """
    pool(spec, x[:0])  # the shape check, which an empty split would otherwise skip
    out = [np.empty(x.shape[0], dtype=np.int64) for _ in snapshots]
    for lo in range(0, x.shape[0], _EVAL_CHUNK):
        chunk = pool(spec, x[lo : lo + _EVAL_CHUNK])
        for labels, params in zip(out, snapshots):
            labels[lo : lo + _EVAL_CHUNK] = predict(spec, params, chunk)
    return out


def _choose(
    history: History, val_preds: list[np.ndarray], val: SplitData, eval_metric: str
) -> tuple[Checkpoint, list[EpochRecord]]:
    """Strict improvement of the metric wins, ties keep the earlier epoch."""
    log: list[EpochRecord] = []
    best: Checkpoint | None = None
    best_score = -np.inf
    for i, (params, preds) in enumerate(zip(history.snapshots, val_preds)):
        ev = evaluate(preds, val.y, val.groups)
        epoch = i + 1
        log.append(EpochRecord(epoch=epoch, train_loss=history.train_losses[i], val_wga=ev.wga, val_bca=ev.bca))
        score = ev.wga if eval_metric == "wga" else ev.bca
        if score > best_score:
            best_score = score
            best = Checkpoint(params=params, epoch=epoch, val_wga=ev.wga, val_bca=ev.bca)
    assert best is not None
    return best, log


def select_checkpoint(
    history: History, val: SplitData, eval_metric: str
) -> tuple[Checkpoint, list[EpochRecord]]:
    """Validation sweep over the epoch snapshots; strict improvement wins, ties keep the earlier epoch.

    The checkpoint holds the chosen snapshot itself, not a copy.
    """
    if eval_metric not in EVAL_METRICS:
        raise ValidationError(f"unknown eval_metric {eval_metric!r}")
    if eval_metric == "wga":
        missing = _missing_groups(val.groups)
        if missing:
            raise ValidationError(
                f"worst-group selection needs every group in the validation split; missing {missing}"
            )
    return _choose(history, _predictions(history.spec, history.snapshots, val.x), val, eval_metric)


def _outcome(
    seed: int, checkpoint: Checkpoint, log: list[EpochRecord], test: SplitData, preds: np.ndarray
) -> TrialOutcome:
    test_eval = evaluate(preds, test.y, test.groups)
    return TrialOutcome(seed=seed, checkpoint=checkpoint, log=log, test_eval=test_eval, test_preds=preds)


def _score_on_test(
    spec: ClassifierSpec, checkpoint: Checkpoint, log: list[EpochRecord], test: SplitData
) -> TrialOutcome:
    [preds] = _predictions(spec, [checkpoint.params], test.x)
    return _outcome(spec.seed, checkpoint, log, test, preds)


def evaluate_outcome(
    history: History, val: SplitData, test: SplitData, eval_metric: str
) -> TrialOutcome:
    """Select a checkpoint on validation and score it on test."""
    checkpoint, log = select_checkpoint(history, val, eval_metric)
    return _score_on_test(history.spec, checkpoint, log, test)


@dataclass
class CellReport:
    """One (method, selection metric) row at one threshold: its trials and their test statistics."""

    method: str
    eval_metric: str
    tau: float
    beta: float | None
    beta_scores: dict[float, float]
    outcomes: list[TrialOutcome]

    @property
    def row_label(self) -> str:
        return row_label(self.method, self.eval_metric)

    def _test_scores(self, metric: str) -> list[float]:
        return [getattr(o.test_eval, metric) for o in self.outcomes]

    @property
    def wga_mean(self) -> float:
        return float(np.mean(self._test_scores("wga")))

    @property
    def wga_std(self) -> float:
        return _sample_std(self._test_scores("wga"))

    @property
    def bca_mean(self) -> float:
        return float(np.mean(self._test_scores("bca")))

    @property
    def bca_std(self) -> float:
        return _sample_std(self._test_scores("bca"))

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "eval_metric": self.eval_metric,
            "row": self.row_label,
            "tau": self.tau,
            "beta": self.beta,
            "beta_scores": {repr(b): round(s, 4) for b, s in self.beta_scores.items()},
            "wga_mean": round(self.wga_mean, 4),
            "wga_std": round(self.wga_std, 4),
            "bca_mean": round(self.bca_mean, 4),
            "bca_std": round(self.bca_std, 4),
            "trials": [o.to_dict() for o in self.outcomes],
        }


def _sample_std(xs: list[float]) -> float:
    if len(xs) < 2:
        return 0.0
    return float(np.std(np.asarray(xs, dtype=np.float64), ddof=1))


@dataclass
class RunReport:
    cells: list[CellReport]
    workers: int = 1  # the most pool processes that trained at once, not counting biased-stream helpers

    def cell(self, method: str, eval_metric: str, tau: float) -> CellReport:
        for c in self.cells:
            if c.method == method and c.eval_metric == eval_metric and c.tau == tau:
                return c
        raise KeyError((method, eval_metric, tau))


def run_experiment(
    model_spec: ClassifierSpec,
    data_by_tau: dict[float, tuple[SplitData, SplitData, SplitData]],
    config: TrainConfig,
) -> RunReport:
    """Every row of ROWS at every threshold, with trial i at seed config.seed + i.

    Before anything trains, every threshold must share the first threshold's
    patch and label arrays, the patch arrays must hold the pooled model input
    (see `model.pool`), and every threshold must hold all four groups in train
    (balanced sampling) and all four in validation (worst-group selection).
    """
    if not data_by_tau:
        raise ValidationError("data grid must be non-empty")
    shared = next(iter(data_by_tau.values()))
    pooled = (*model_spec.pooled_shape, model_spec.channels)
    for name, split in zip(("train", "val", "test"), shared):
        if split.x.shape[1:] != pooled:
            raise ValidationError(
                f"{name} split shape {split.x.shape} is not the pooled model input "
                f"(N, {', '.join(map(str, pooled))}); pool the splits with model.pool first"
            )
    for tau, splits in data_by_tau.items():
        if any(s.x is not first.x or s.y is not first.y for s, first in zip(splits, shared)):
            raise ValidationError(
                f"every threshold must share the first threshold's patch and label arrays (tau={tau})"
            )
        train, val, _ = splits
        missing = _missing_groups(train.groups)
        if missing:
            raise ValidationError(
                f"group {missing[0]} is empty; balanced sampling needs all four groups "
                f"(training split at tau={tau})"
            )
        missing = _missing_groups(val.groups)
        if missing:
            raise ValidationError(
                f"worst-group selection needs every group in the validation split; missing {missing} "
                f"(tau={tau})"
            )

    seeds = [config.seed + i for i in range(config.trials)]
    sgd = dict(epochs=config.epochs, batch_size=config.batch_size, lr=config.lr, momentum=config.momentum)
    erm_metrics = [metric for method, metric in ROWS if method == METHOD_ERM]
    gerne_cells = [(tau, metric) for tau in data_by_tau for method, metric in ROWS if method == METHOD_GERNE]
    # a fixed beta is a one-point grid; a repeated grid entry names the same
    # trajectory, so it trains once
    grid = [config.beta] if config.beta is not None else list(dict.fromkeys(config.beta_grid))

    def erm_job(seed: int) -> list[TrialOutcome]:
        # ERM never reads group ids, so one trajectory serves every threshold
        # and ERM row: each snapshot is predicted once on the shared validation
        # array, and test once per distinct chosen epoch
        history = train_history(model_spec, METHOD_ERM, shared[0], seed=seed, **sgd)
        val_preds = _predictions(history.spec, history.snapshots, shared[1].x)
        choices = [
            (*_choose(history, val_preds, val, metric), test)
            for _, val, test in data_by_tau.values() for metric in erm_metrics
        ]
        chosen = {cp.epoch: cp.params for cp, _, _ in choices}
        test_preds = dict(zip(chosen, _predictions(history.spec, list(chosen.values()), shared[2].x)))
        return [_outcome(seed, cp, log, test, test_preds[cp.epoch]) for cp, log, test in choices]

    def gerne_history(tau: float, seed: int, beta: float) -> History:
        return train_history(model_spec, METHOD_GERNE, data_by_tau[tau][0], seed=seed, beta=beta, **sgd)

    def grid_job(tau: float, metric: str, beta: float) -> tuple[ClassifierSpec, Checkpoint, list[EpochRecord]]:
        # validation only: the test split is predicted for the winning entry alone
        history = gerne_history(tau, seeds[0], beta)
        return (history.spec, *select_checkpoint(history, data_by_tau[tau][1], metric))

    def trial_job(tau: float, metric: str, beta: float, seed: int) -> TrialOutcome:
        _, val, test = data_by_tau[tau]
        return evaluate_outcome(gerne_history(tau, seed, beta), val, test, metric)

    # every job is a pure function of its arguments, so two batches run on a
    # process pool: the ERM seeds and every beta grid, then the remaining seeds
    # at each chosen beta; results come back in plan order
    first = [partial(erm_job, seed) for seed in seeds]
    first += [partial(grid_job, tau, metric, beta) for tau, metric in gerne_cells for beta in grid]
    done = run_jobs(first)
    erm_outcomes = iter(zip(*done[: len(seeds)]))
    tuning = iter(done[len(seeds) :])
    tuned = {}
    for tau, metric in gerne_cells:
        entries = [next(tuning) for _ in grid]
        scores = [checkpoint.val_wga for _, checkpoint, _ in entries]
        best = scores.index(max(scores))  # a tie keeps the earlier grid entry
        beta_scores = dict(zip(grid, scores)) if config.beta is None else {}
        # the winner's outcome is trial 0; the other entries are never tested
        tuned[tau, metric] = grid[best], beta_scores, _score_on_test(*entries[best], data_by_tau[tau][2])
    second = [
        partial(trial_job, tau, metric, tuned[tau, metric][0], seed)
        for tau, metric in gerne_cells for seed in seeds[1:]
    ]
    trials = iter(run_jobs(second))

    cells: list[CellReport] = []
    for tau in data_by_tau:
        for method, metric in ROWS:
            if method == METHOD_ERM:
                beta, beta_scores, outcomes = None, {}, list(next(erm_outcomes))
            else:
                beta, beta_scores, trial0 = tuned[tau, metric]
                outcomes = [trial0] + [next(trials) for _ in seeds[1:]]
            cells.append(CellReport(
                method=method, eval_metric=metric, tau=tau, beta=beta, beta_scores=beta_scores,
                outcomes=outcomes,
            ))
    return RunReport(cells=cells, workers=pool_size(len(first)))
