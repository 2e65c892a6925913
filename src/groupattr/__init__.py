"""Counterfactual group-wise attribution for toy diffusion models.

Train a small eps-prediction diffusion model on synthetic grouped data,
build per-group counterfactual models by leave-one-group-out retraining
(the oracle) or by unlearning, score generated samples by ELBO
differences between the full and counterfactual models, and evaluate
ranking agreement with a top-heavy metric suite.
"""

__version__ = "0.1.0"

from .attribution import AttributionMatrix, attribution_matrix, prototype_baseline
from .checkpoint import load_checkpoint, save_checkpoint
from .data import DatasetSpec, GroupedDataset, generate_grouped_dataset
from .denoiser import (
    AdamW,
    Architecture,
    DenoiserParams,
    init_network,
    loss_and_grad,
    optimizer_step,
    predict_eps,
)
from .diffusion import (
    GaussianLaw,
    Schedule,
    build_schedule,
    forward_marginal,
    model_posterior,
    sample,
    true_posterior,
)
from .harness import (
    ExperimentConfig,
    Pipeline,
    TimingReport,
    default_experiment_config,
    run_experiment,
    study,
)
from .metrics import RankReport, rank, rank_report
from .scoring import ElboSpec, elbo_estimate, gaussian_kl_isotropic, paired_score_difference
from .training import (
    KernelDenoiser,
    TrainSpec,
    empirical_denoiser,
    train_full,
    train_logo,
)
from .unlearning import (
    AnchorSelector,
    UnlearnSpec,
    anchor_select,
    conditional_forget_loss,
    esd_forget_loss,
    preservation_loss,
    retain_mixture_logpdf,
    retrack_forget_loss,
    retrack_target,
    unlearn,
)
