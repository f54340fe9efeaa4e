"""Ordinal soft-labelling toolkit: unimodal supervision targets, soft
cross-entropy training of small classifiers, ordinal evaluation metrics, and
joint-distribution / nonparametric statistical analysis of grading strategies.
"""

from .core import (
    ConfusionMatrix,
    LabelSpace,
    PredictionSet,
    RunResult,
    SampleSet,
    build_confusion,
    confusion_from_labels,
)
from .jointanalysis import (
    ContingencyTable,
    JointDistribution,
    ResidualMatrix,
    TestResult,
    kld,
    kruskal_wallis,
    normalise,
    residuals,
    table_mae,
    two_way_anova,
    wilcoxon_signed_rank,
)
from .loss import soft_ce, soft_ce_grad, softmax
from .metrics import MetricReport, amae, balanced_accuracy, compute_report, mae, min_sensitivity, mmae, qwk
from .softlabel import (
    SmoothingParams,
    SoftTargetMatrix,
    beta_row,
    binomial_row,
    blend_ordinal_row,
    build_target_matrix,
    exponential_row,
    nominal_smooth_row,
    triangular_row,
)
from .synth import PairedSynthSpec, SynthSpec, generate, generate_paired
from .trainer import (
    ProtocolSettings,
    SearchSpace,
    TrainConfig,
    random_search,
    stratified_split,
    train,
)

__version__ = "0.1.0"
