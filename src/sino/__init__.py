"""SINO: a spectral-inspired neural operator that learns PDE right-hand
sides from a handful of trajectories, plus the pseudo-spectral reference
solvers that generate its data and a self-contained training engine.
"""

from .errors import (
    ContainerError,
    DegenerateTruth,
    IncompatibleDomain,
    InsufficientLength,
    NonFinite,
    SinoError,
    ZeroVariance,
)
from .spectral import (
    FreqGrid,
    GridSpec,
    forward_transform,
    freq_grid,
    grf_sample,
    inverse_transform,
    spectral_derivative,
    spectral_resample,
    two_thirds_mask,
)
from .solvers import (
    PDESpec,
    SolverConfig,
    TrajectoryDataset,
    biot_savart,
    burgers_rhs,
    generate_dataset,
    integrate,
    kse_rhs,
    nse_rhs,
)
from .model import (
    ModelConfig,
    config_for_grid,
    count_params,
    dump_features,
    exact_burgers_params,
    freq2vec_eval,
    init_params,
    model_step,
    pi_block,
    rhs_eval,
    rollout,
    slb_apply,
)
from .training import (
    OptimizerState,
    TrainConfig,
    TrainResult,
    adam_init,
    adam_step,
    backward,
    clip_global_norm,
    loss_rollout,
    onecycle_lr,
    sample_curriculum,
    train,
)
from .evaluation import (
    EvalReport,
    PatternIC,
    evaluate_rollout,
    export_csv,
    pattern_ic,
    pcc,
    relative_l2,
    superres_eval,
)

__version__ = "0.1.0"
