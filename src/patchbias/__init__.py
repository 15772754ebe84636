"""Tissue-size shortcut learning on synthetic pathology patches.

Generates seeded synthetic whole-image scenes with pixel masks, tiles them
into binary-labeled patches, quantifies how patch tissue size spuriously
predicts the label, and trains a small classifier either conventionally or
with a two-batch extrapolated-gradient debiasing step. Results are judged by
worst-group and balanced-class accuracy.
"""

__version__ = "0.1.0"

from .analysis import ConditionalHistogram, bias_report, histogram
from .composition import (
    DEFAULT_TISSUE_EPSILON,
    GROUP_NAMES,
    PatchRatios,
    assign_group,
    binarize_spurious,
    compute_ratios,
    infer_tissue,
)
from .errors import NonFiniteGradientError, PatchBiasError, ValidationError
from .metrics import CountStat, EvalResult, evaluate
from .model import ClassifierSpec, forward, init_params, loss_and_grad, pool, predict
from .patchgrid import Patch, PatchGridSpec, binary_label, partition
from .records import PatchRecord, read_patch_index, tau_key, write_patch_index
from .sampler import GroupedDataset, draw_biased, draw_erm, draw_less_biased, erm_steps_per_epoch
from .synthdata import (
    SPLITS,
    ManifestEntry,
    SceneSpec,
    TissueClass,
    generate_corpus,
    generate_scene,
    load_scene,
    materialize,
    split_counts,
)
from .tensorio import read_tensor, write_tensor
from .training import (
    CellReport,
    RunReport,
    SplitData,
    TrainConfig,
    TrialOutcome,
    erm_step,
    extrapolated_gradient,
    gerne_step,
    run_experiment,
    sgd_update,
    train_history,
)

__all__ = [
    "__version__",
    "ConditionalHistogram", "bias_report", "histogram",
    "DEFAULT_TISSUE_EPSILON", "GROUP_NAMES", "PatchRatios", "assign_group",
    "binarize_spurious", "compute_ratios", "infer_tissue",
    "NonFiniteGradientError", "PatchBiasError", "ValidationError",
    "CountStat", "EvalResult", "evaluate",
    "ClassifierSpec", "forward", "init_params", "loss_and_grad", "pool", "predict",
    "Patch", "PatchGridSpec", "binary_label", "partition",
    "PatchRecord", "read_patch_index", "tau_key", "write_patch_index",
    "GroupedDataset", "draw_biased", "draw_erm", "draw_less_biased", "erm_steps_per_epoch",
    "SPLITS", "ManifestEntry", "SceneSpec", "TissueClass",
    "generate_corpus", "generate_scene", "load_scene", "materialize", "split_counts",
    "read_tensor", "write_tensor",
    "CellReport", "RunReport", "SplitData", "TrainConfig", "TrialOutcome",
    "erm_step", "extrapolated_gradient", "gerne_step", "run_experiment",
    "sgd_update", "train_history",
]
