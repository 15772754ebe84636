"""Training loops: ERM baseline and gradient-extrapolation debiasing.

The debiased update draws two batches per step, a biased one (uniform over
records, so it inherits the dataset skew) and a less-biased one (group
balanced), and steps along

    g_ext = g_lb + beta * (g_lb - g_b)

evaluated as (1 + beta) * g_lb - beta * g_b so that beta = 0 reduces exactly
to the less-biased gradient and beta = -1 to the biased one. beta > 0
extrapolates past the balanced batch, beta in (-1, 0) interpolates.

Experiments run several seeds per (method, selection metric, threshold) cell
and report test worst-group and balanced-class accuracy as mean +/- sample
std. Checkpoint selection happens on validation after every epoch; ERM
trajectories are trained once per seed and re-selected per cell, since the
weights do not depend on the threshold or the selection metric.

Pooling is the model's fixed first layer, so every entry point pools a split
once (`model.pool`) and then indexes the pooled arrays: a trajectory pools
its training split, selection pools validation, evaluation pools test, and
`run_experiment` pools each distinct array once for all thresholds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NonFiniteGradientError, ValidationError
from .metrics import N_GROUPS, EvalResult, evaluate
from .model import ClassifierSpec, ParamVector, init_params, loss_and_grad, param_layout, pool, predict
from .sampler import GroupedDataset, draw_biased, draw_erm, draw_less_biased, erm_steps_per_epoch

METHOD_ERM = "erm"
METHOD_GERNE = "gerne"
METHODS = (METHOD_ERM, METHOD_GERNE)
EVAL_METRICS = ("wga", "bca")
DEFAULT_BETA_GRID = (-0.5, 0.0, 0.5, 1.0, 2.0)
DEFAULT_ROWS = ((METHOD_ERM, "bca"), (METHOD_ERM, "wga"), (METHOD_GERNE, "wga"))


@dataclass(frozen=True)
class TrainConfig:
    method: str
    eval_metric: str
    tau: float
    batch_size: int = 64
    epochs: int = 20
    lr: float = 0.01
    momentum: float = 0.9
    seed: int = 0
    trials: int = 3
    beta: float | None = None
    beta_grid: tuple[float, ...] = DEFAULT_BETA_GRID

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValidationError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.eval_metric not in EVAL_METRICS:
            raise ValidationError(f"unknown eval_metric {self.eval_metric!r}, expected one of {EVAL_METRICS}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValidationError(f"tau must lie in [0, 1], got {self.tau}")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if self.lr <= 0:
            raise ValidationError("lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if self.beta is not None and not math.isfinite(self.beta):
            raise ValidationError("beta must be finite")
        if not self.beta_grid:
            raise ValidationError("beta_grid must be non-empty")


@dataclass
class SplitData:
    """One split as dense arrays: patches, binary labels, group ids.

    `x` holds either raw patches or the model's pooled input; see `pooled`.
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

    def pooled(self, spec: ClassifierSpec) -> "SplitData":
        """The same split with `x` pooled to the model input; labels and groups are shared."""
        return replace(self, x=pool(spec, self.x))


def _missing_groups(groups: np.ndarray) -> list[int]:
    return sorted(set(range(N_GROUPS)) - set(np.unique(groups).tolist()))


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
    params: ParamVector,
    velocity: np.ndarray,
    batch: np.ndarray,
    labels: np.ndarray,
    *,
    lr: float,
    momentum: float,
) -> tuple[ParamVector, np.ndarray, float]:
    loss, grad = loss_and_grad(spec, params, batch, labels)
    _ensure_finite(loss, grad, "training")
    values, velocity = sgd_update(params.values, velocity, grad, lr, momentum)
    return ParamVector(values, params.layout), velocity, loss


def gerne_step(
    spec: ClassifierSpec,
    params: ParamVector,
    velocity: np.ndarray,
    batch_b: np.ndarray,
    labels_b: np.ndarray,
    batch_lb: np.ndarray,
    labels_lb: np.ndarray,
    *,
    beta: float,
    lr: float,
    momentum: float,
) -> tuple[ParamVector, np.ndarray, float, float]:
    if batch_b.shape[0] == 0 or batch_lb.shape[0] == 0:
        raise ValidationError("both batches must be non-empty")
    loss_b, g_b = loss_and_grad(spec, params, batch_b, labels_b)
    _ensure_finite(loss_b, g_b, "biased")
    loss_lb, g_lb = loss_and_grad(spec, params, batch_lb, labels_lb)
    _ensure_finite(loss_lb, g_lb, "less-biased")
    g_ext = extrapolated_gradient(g_lb, g_b, beta)
    values, velocity = sgd_update(params.values, velocity, g_ext, lr, momentum)
    return ParamVector(values, params.layout), velocity, loss_b, loss_lb


@dataclass
class History:
    """Per-epoch parameter snapshots from one training run."""

    spec: ClassifierSpec
    method: str
    seed: int
    beta: float | None
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

    spec = replace(model_spec, seed=seed)
    spec.validate()
    x = pool(spec, train.x)
    params = init_params(spec)
    velocity = np.zeros_like(params.values)
    ds = GroupedDataset.from_group_ids(train.groups, seed)
    steps = erm_steps_per_epoch(train.size, batch_size)

    snapshots: list[np.ndarray] = []
    losses: list[float] = []
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
                params, velocity, loss_b, loss_lb = gerne_step(
                    spec, params, velocity,
                    x[idx_b], train.y[idx_b],
                    x[idx_lb], train.y[idx_lb],
                    beta=beta, lr=lr, momentum=momentum,
                )
                epoch_losses.append(0.5 * (loss_b + loss_lb))
        snapshots.append(params.values.copy())
        losses.append(float(np.mean(epoch_losses)))
    return History(spec=spec, method=method, seed=seed, beta=beta, snapshots=snapshots, train_losses=losses)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_wga: float
    val_bca: float


@dataclass
class Checkpoint:
    params: ParamVector
    epoch: int
    val_wga: float
    val_bca: float


@dataclass
class TrialOutcome:
    seed: int
    eval_metric: str
    checkpoint: Checkpoint
    log: list[EpochRecord]
    test_eval: EvalResult
    test_preds: np.ndarray


def _predict_split(spec: ClassifierSpec, values: np.ndarray, split: SplitData) -> np.ndarray:
    params = ParamVector(values, param_layout(spec))
    # chunked so large splits stay within memory
    out = np.empty(split.size, dtype=np.int64)
    chunk = 512
    for lo in range(0, split.size, chunk):
        out[lo : lo + chunk] = predict(spec, params, split.x[lo : lo + chunk])
    return out


def select_checkpoint(
    history: History, val: SplitData, eval_metric: str
) -> tuple[Checkpoint, list[EpochRecord]]:
    """Validation sweep over the epoch snapshots; strict improvement wins, ties keep the earlier epoch."""
    if eval_metric not in EVAL_METRICS:
        raise ValidationError(f"unknown eval_metric {eval_metric!r}")
    if eval_metric == "wga":
        missing = _missing_groups(val.groups)
        if missing:
            raise ValidationError(
                f"worst-group selection needs every group in the validation split; missing {missing}"
            )
    val = val.pooled(history.spec)
    log: list[EpochRecord] = []
    best: Checkpoint | None = None
    best_score = -np.inf
    for i, values in enumerate(history.snapshots):
        preds = _predict_split(history.spec, values, val)
        ev = evaluate(preds, val.y, val.groups)
        epoch = i + 1
        log.append(EpochRecord(epoch=epoch, train_loss=history.train_losses[i], val_wga=ev.wga, val_bca=ev.bca))
        score = ev.wga if eval_metric == "wga" else ev.bca
        if score > best_score:
            best_score = score
            best = Checkpoint(
                params=ParamVector(values.copy(), param_layout(history.spec)),
                epoch=epoch, val_wga=ev.wga, val_bca=ev.bca,
            )
    assert best is not None
    return best, log


def evaluate_outcome(
    history: History, val: SplitData, test: SplitData, eval_metric: str
) -> TrialOutcome:
    checkpoint, log = select_checkpoint(history, val, eval_metric)
    preds = _predict_split(history.spec, checkpoint.params.values, test.pooled(history.spec))
    test_eval = evaluate(preds, test.y, test.groups)
    return TrialOutcome(
        seed=history.seed, eval_metric=eval_metric, checkpoint=checkpoint,
        log=log, test_eval=test_eval, test_preds=preds,
    )


def run_trial(
    model_spec: ClassifierSpec,
    config: TrainConfig,
    train: SplitData,
    val: SplitData,
    test: SplitData,
) -> TrialOutcome:
    """Train once with config.seed, select the best epoch on validation, evaluate on test."""
    config.validate()
    if config.method == METHOD_GERNE and config.beta is None:
        raise ValidationError("run_trial needs an explicit beta for gerne; tune it via run_experiment")
    history = train_history(
        model_spec, config.method, train,
        seed=config.seed, epochs=config.epochs, batch_size=config.batch_size,
        lr=config.lr, momentum=config.momentum, beta=config.beta,
    )
    return evaluate_outcome(history, val, test, config.eval_metric)


def tune_beta(
    model_spec: ClassifierSpec,
    config: TrainConfig,
    train: SplitData,
    val: SplitData,
) -> tuple[float, dict[float, float]]:
    """Pick beta from config.beta_grid by validation score at the tuning seed.

    Ties keep the earlier grid entry. Returns (best_beta, score per beta).
    """
    config.validate()
    train, val = train.pooled(model_spec), val.pooled(model_spec)
    scores: dict[float, float] = {}
    best_beta, best_score = None, -np.inf
    for beta in config.beta_grid:
        history = train_history(
            model_spec, METHOD_GERNE, train,
            seed=config.seed, epochs=config.epochs, batch_size=config.batch_size,
            lr=config.lr, momentum=config.momentum, beta=beta,
        )
        checkpoint, _ = select_checkpoint(history, val, config.eval_metric)
        score = checkpoint.val_wga if config.eval_metric == "wga" else checkpoint.val_bca
        scores[beta] = score
        if score > best_score:
            best_score = score
            best_beta = beta
    assert best_beta is not None
    return best_beta, scores


@dataclass
class TrialReport:
    seed: int
    best_epoch: int
    val_wga: float
    val_bca: float
    test_wga: float
    test_bca: float
    test_per_group: dict[int, float | None]
    empty_test_groups: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "best_epoch": self.best_epoch,
            "val_wga": round(self.val_wga, 4),
            "val_bca": round(self.val_bca, 4),
            "test_wga": round(self.test_wga, 4),
            "test_bca": round(self.test_bca, 4),
            "test_per_group": {
                str(g): (None if a is None else round(a, 4)) for g, a in self.test_per_group.items()
            },
            "empty_test_groups": list(self.empty_test_groups),
        }


@dataclass
class CellReport:
    method: str
    eval_metric: str
    tau: float
    beta: float | None
    beta_scores: dict[float, float]
    trials: list[TrialReport]
    wga_mean: float
    wga_std: float
    bca_mean: float
    bca_std: float
    outcomes: list[TrialOutcome] = field(repr=False, default_factory=list)

    @property
    def row_label(self) -> str:
        return f"{self.method.upper()}+{self.eval_metric.upper()}"

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
            "trials": [t.to_dict() for t in self.trials],
        }


def _sample_std(xs: list[float]) -> float:
    if len(xs) < 2:
        return 0.0
    return float(np.std(np.asarray(xs, dtype=np.float64), ddof=1))


def _trial_report(outcome: TrialOutcome) -> TrialReport:
    cp, ev = outcome.checkpoint, outcome.test_eval
    return TrialReport(
        seed=outcome.seed, best_epoch=cp.epoch,
        val_wga=cp.val_wga, val_bca=cp.val_bca,
        test_wga=ev.wga, test_bca=ev.bca,
        test_per_group=ev.per_group_acc(),
        empty_test_groups=ev.empty_groups,
    )


@dataclass
class RunReport:
    cells: list[CellReport]
    elapsed_seconds: float

    def cell(self, method: str, eval_metric: str, tau: float) -> CellReport:
        for c in self.cells:
            if c.method == method and c.eval_metric == eval_metric and c.tau == tau:
                return c
        raise KeyError((method, eval_metric, tau))


def run_experiment(
    model_spec: ClassifierSpec,
    data_by_tau: dict[float, tuple[SplitData, SplitData, SplitData]],
    base_config: TrainConfig,
    rows: tuple[tuple[str, str], ...] = DEFAULT_ROWS,
    trial_seeds: list[int] | None = None,
) -> RunReport:
    """Full result grid: every (method, eval_metric) row at every threshold.

    Trial i runs with seed base_config.seed + i unless trial_seeds overrides
    the list. ERM trajectories are shared across cells with the same seed;
    gerne rows tune beta on validation at the first trial seed when
    base_config.beta is None. Before anything trains, every threshold is
    checked for the groups its rows need: all four in train for gerne rows,
    all four in validation for worst-group selection.
    """
    base_config.validate()
    if not rows:
        raise ValidationError("row grid must be non-empty")
    if not data_by_tau:
        raise ValidationError("data grid must be non-empty")
    for method, metric in rows:
        if method not in METHODS or metric not in EVAL_METRICS:
            raise ValidationError(f"bad row ({method!r}, {metric!r})")
    if trial_seeds is None:
        trial_seeds = [base_config.seed + i for i in range(base_config.trials)]
    if len(trial_seeds) != base_config.trials:
        raise ValidationError(f"expected {base_config.trials} trial seeds, got {len(trial_seeds)}")
    for tau, (train, val, _) in data_by_tau.items():
        missing = _missing_groups(train.groups)
        if missing and any(method == METHOD_GERNE for method, _ in rows):
            raise ValidationError(
                f"group {missing[0]} is empty; balanced sampling needs all four groups "
                f"(training split at tau={tau})"
            )
        missing = _missing_groups(val.groups)
        if missing and any(metric == "wga" for _, metric in rows):
            raise ValidationError(
                f"worst-group selection needs every group in the validation split; missing {missing} "
                f"(tau={tau})"
            )

    started = time.monotonic()
    # pool each distinct patch array once; thresholds that share pixels share
    # the pooled array too, which keeps the ERM cache key below valid
    pooled: dict[int, np.ndarray] = {}

    def pooled_split(split: SplitData) -> SplitData:
        if id(split.x) not in pooled:
            pooled[id(split.x)] = pool(model_spec, split.x)
        return replace(split, x=pooled[id(split.x)])

    data_by_tau = {tau: tuple(pooled_split(s) for s in splits) for tau, splits in data_by_tau.items()}
    erm_histories: dict[tuple[int, int, int], History] = {}
    gerne_histories: dict[tuple[int, float, float], History] = {}

    def erm_history(seed: int, train: SplitData) -> History:
        # ERM weights do not depend on tau (only group ids change with it),
        # so trajectories are shared whenever the underlying arrays are
        key = (seed, id(train.x), id(train.y))
        if key not in erm_histories:
            erm_histories[key] = train_history(
                model_spec, METHOD_ERM, train,
                seed=seed, epochs=base_config.epochs, batch_size=base_config.batch_size,
                lr=base_config.lr, momentum=base_config.momentum,
            )
        return erm_histories[key]

    def gerne_history(seed: int, tau: float, beta: float, train: SplitData) -> History:
        key = (seed, tau, beta)
        if key not in gerne_histories:
            gerne_histories[key] = train_history(
                model_spec, METHOD_GERNE, train,
                seed=seed, epochs=base_config.epochs, batch_size=base_config.batch_size,
                lr=base_config.lr, momentum=base_config.momentum, beta=beta,
            )
        return gerne_histories[key]

    cells: list[CellReport] = []
    for tau, (train, val, test) in data_by_tau.items():
        for method, metric in rows:
            beta: float | None = None
            beta_scores: dict[float, float] = {}
            if method == METHOD_GERNE:
                if base_config.beta is not None:
                    beta = base_config.beta
                else:
                    # tune on validation at the first trial seed, reusing histories
                    best_beta, best_score = None, -np.inf
                    for b in base_config.beta_grid:
                        history = gerne_history(trial_seeds[0], tau, b, train)
                        checkpoint, _ = select_checkpoint(history, val, metric)
                        score = checkpoint.val_wga if metric == "wga" else checkpoint.val_bca
                        beta_scores[b] = score
                        if score > best_score:
                            best_score, best_beta = score, b
                    beta = best_beta

            outcomes: list[TrialOutcome] = []
            for seed in trial_seeds:
                if method == METHOD_ERM:
                    history = erm_history(seed, train)
                else:
                    assert beta is not None
                    history = gerne_history(seed, tau, beta, train)
                outcomes.append(evaluate_outcome(history, val, test, metric))

            wgas = [o.test_eval.wga for o in outcomes]
            bcas = [o.test_eval.bca for o in outcomes]
            cells.append(CellReport(
                method=method, eval_metric=metric, tau=tau, beta=beta, beta_scores=beta_scores,
                trials=[_trial_report(o) for o in outcomes],
                wga_mean=float(np.mean(wgas)), wga_std=_sample_std(wgas),
                bca_mean=float(np.mean(bcas)), bca_std=_sample_std(bcas),
                outcomes=outcomes,
            ))
    return RunReport(cells=cells, elapsed_seconds=time.monotonic() - started)
