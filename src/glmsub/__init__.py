"""Optimal and model-robust subsampling for generalized linear models.

Large-N GLM datasets are analyzed on an informative subsample: a pilot
draw yields rough parameter estimates, optimality-based selection
probabilities are evaluated at the pilot, and a second draw plus a
weighted maximum-likelihood fit produce the final estimates with a
sandwich variance.  Selection probabilities can target a single assumed
model (A-optimal ``mMSE`` or L-optimal ``mVc``) or average over a set of
candidate models to stay robust to model choice.
"""

__version__ = "0.1.0"

from .alias import AliasSampler, draw_with_replacement
from .errors import (
    ConfigError,
    DegenerateResponseError,
    FitError,
    GlmsubError,
    NonConvergenceError,
    NumericOverflowError,
    SingularInformationError,
    StageOneError,
    ValidationError,
)
from .families import Family, Logistic, Poisson, get_family
from .fitting import (
    FitResult,
    WeightedSample,
    fit_weighted_mle,
    full_information,
    score_and_hessian,
    weighted_loglik,
)
from .models import (
    ModelSet,
    ModelSpec,
    build_design,
    enumerate_quadratic_models,
    validate_alpha,
)
from .probabilities import (
    DEFAULT_EPS,
    Criterion,
    LazyDesign,
    ProbabilityVector,
    floored_residuals,
    initial_probabilities,
    phi_model_robust,
    phi_single,
)
from .twostage import (
    TwoStageResult,
    pilot_probabilities,
    random_sampling_baseline,
    two_stage,
)
from .simulate import (
    CovariateDistribution,
    ExponentialCovariates,
    MetricsRecord,
    MultivariateNormalCovariates,
    ScenarioConfig,
    UniformCovariates,
    gen_covariates,
    gen_response,
    model_information,
    run_study,
    smse,
    ssmse,
)
from .datasets import CovariateColumn, DatasetDescriptor, Scaling, apply_scaling, load_csv
from .config import RealDataConfig, parse_config
from .realdata import SsmseRecord, full_data_mles, run_ssmse_study, run_subsample
from .cli import atomic_write, read_metrics_csv, write_metrics_csv

__all__ = [
    "__version__",
    # errors
    "GlmsubError",
    "ValidationError",
    "ConfigError",
    "NumericOverflowError",
    "DegenerateResponseError",
    "FitError",
    "SingularInformationError",
    "NonConvergenceError",
    "StageOneError",
    # families
    "Family",
    "Logistic",
    "Poisson",
    "get_family",
    # fitting
    "WeightedSample",
    "FitResult",
    "weighted_loglik",
    "score_and_hessian",
    "fit_weighted_mle",
    "full_information",
    # models
    "ModelSpec",
    "ModelSet",
    "build_design",
    "enumerate_quadratic_models",
    "validate_alpha",
    # probabilities
    "Criterion",
    "LazyDesign",
    "ProbabilityVector",
    "initial_probabilities",
    "floored_residuals",
    "phi_single",
    "phi_model_robust",
    "DEFAULT_EPS",
    # sampling
    "AliasSampler",
    "draw_with_replacement",
    # two-stage
    "TwoStageResult",
    "two_stage",
    "random_sampling_baseline",
    "pilot_probabilities",
    # simulation
    "CovariateDistribution",
    "ExponentialCovariates",
    "MultivariateNormalCovariates",
    "UniformCovariates",
    "gen_covariates",
    "gen_response",
    "smse",
    "ssmse",
    "model_information",
    "ScenarioConfig",
    "MetricsRecord",
    "run_study",
    # datasets / config / real data
    "Scaling",
    "CovariateColumn",
    "DatasetDescriptor",
    "load_csv",
    "apply_scaling",
    "RealDataConfig",
    "parse_config",
    "SsmseRecord",
    "full_data_mles",
    "run_subsample",
    "run_ssmse_study",
    # artifacts
    "atomic_write",
    "read_metrics_csv",
    "write_metrics_csv",
]
