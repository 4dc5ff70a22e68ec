"""Generative-field analysis for convolutional generator stacks.

Static computation of "generative fields" (inverted receptive fields) for
conv generator architectures, brute-force influence oracles that verify
them, style-space layout and field-threshold mask planning, control-signal
sparsity analytics, Gaussian style regularization, and editing-loss kernels.
"""

from .archgraph import (
    ArchError,
    ArchParseError,
    ArchSpec,
    ArchValidationError,
    LayerSpec,
    input_resolution,
    load_arch,
    parse_arch,
    serialize_arch,
    stylegan2_preset,
)
from .fields import FieldRecord, FieldTable, fields_table, generative_field, table_csv
from .losses import (
    EulerAngles,
    EvalMetrics,
    attr_loss,
    eval_metrics,
    identity_loss,
    landmark_loss,
    ms_ssim,
    pose_loss,
    reconstruction_loss,
    total_loss,
)
from .oracle import (
    DEFAULT_SEED,
    FootprintResult,
    Semantics,
    boolean_footprint,
    numeric_footprint,
    verify_arch,
)
from .regularizer import (
    ChannelStats,
    estimate_stats,
    log_likelihood,
    log_likelihood_grad,
    regularized_objective,
)
from .sparsity import (
    ReuseTable,
    SparsityReport,
    TopKSet,
    histogram_counts,
    mean_histogram,
    normalize_abs,
    reuse_rates,
    topk_set,
)
from .stylespace import (
    LayerRange,
    MaskPlan,
    StyleLayout,
    apply_control,
    face_scale,
    mask_rle,
    plan_by_gf,
    plan_by_layers,
    style_layout,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ArchError",
    "ArchParseError",
    "ArchSpec",
    "ArchValidationError",
    "LayerSpec",
    "input_resolution",
    "load_arch",
    "parse_arch",
    "serialize_arch",
    "stylegan2_preset",
    "FieldRecord",
    "FieldTable",
    "fields_table",
    "generative_field",
    "table_csv",
    "DEFAULT_SEED",
    "FootprintResult",
    "Semantics",
    "boolean_footprint",
    "numeric_footprint",
    "verify_arch",
    "LayerRange",
    "MaskPlan",
    "StyleLayout",
    "apply_control",
    "face_scale",
    "mask_rle",
    "plan_by_gf",
    "plan_by_layers",
    "style_layout",
    "ReuseTable",
    "SparsityReport",
    "TopKSet",
    "histogram_counts",
    "mean_histogram",
    "normalize_abs",
    "reuse_rates",
    "topk_set",
    "ChannelStats",
    "estimate_stats",
    "log_likelihood",
    "log_likelihood_grad",
    "regularized_objective",
    "EulerAngles",
    "EvalMetrics",
    "attr_loss",
    "eval_metrics",
    "identity_loss",
    "landmark_loss",
    "ms_ssim",
    "pose_loss",
    "reconstruction_loss",
    "total_loss",
]
