"""Latent-domain discovery through multi-domain alignment layers.

A small numpy library for domain adaptation with hidden source domains: a
normalization layer that estimates and mixes per-domain statistics from soft
assignment probabilities, a predictor branch that produces those assignments,
an entropy-regularized training objective, and the synthetic benchmarks and
experiment runners that exercise them.
"""

from .alignment import (
    AlignConfig,
    AlignmentLayer,
    AlphaWeights,
    DomainStats,
    RunningStats,
    UninitializedStatsError,
    compute_alpha,
    weighted_moments,
)
from .assignment import Assignment, DomainPredictor, DomainTag, merge_assignments
from .data import (
    Batch,
    BatchSampler,
    BatchSpec,
    Dataset,
    FeatureShift,
    ImageShift,
    LabeledSample,
    Split,
    SynthConfig,
    idx_load,
    image_transform,
    load_manifest,
    make_batch,
    synth_make,
)
from .losses import (
    LossBreakdown,
    LossWeights,
    class_entropy,
    domain_entropy,
    total_loss,
)
from .model import (
    Model,
    ModelConfig,
    backward_train,
    compute_loss,
    forward_eval,
    forward_train,
    load_checkpoint,
    save_checkpoint,
)
from .primitives import ParamBlock
from .training import (
    MetricsRow,
    NumericalAbortError,
    TrainConfig,
    accuracy,
    domain_discovery_metrics,
    lr_at,
    sgd_step,
    train,
)

__version__ = "0.1.0"
