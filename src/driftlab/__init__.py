"""driftlab: simulation and inference for discretely observed SDE models.

Core pieces: exact and Euler-Maruyama simulators, transition-density
likelihoods (closed form, Euler, forward-PDE, bridge-sampled), Monte Carlo
estimating functions, a bootstrap particle filter with a Kalman oracle,
penalized spline collocation, and synthetic-data adequacy checks.
"""

from .adequacy import AdequacyReport, envelope_check, synthetic_replicates
from .collocation import (
    BasisConfig,
    PenaltySpec,
    collocation_fit,
    map_equivalent_sigma,
)
from .densities import gbm_transition_logdensity
from .estimating import EstimatingFunction, ee_solve, raw_moment_psi
from .fokker_planck import FokkerPlanckResult, fokker_planck_transition_density
from .kalman import LinearGaussianSSM, kalman_filter, kalman_loglik, ou_to_ssm
from .likelihood import (
    BridgeDensity,
    EulerDensity,
    FokkerPlanckDensity,
    GbmDensity,
    OuDensity,
    TransitionDensity,
    bridge_loglikelihood,
    discrete_loglikelihood,
    mle_fit,
)
from .models import (
    DiffusionSpec,
    GbmParams,
    OuParams,
    TvGrowthParams,
    gbm_beta_spec,
    gbm_spec,
    ou_spec,
)
from .movement import gaussian_position_model, preset_integrated_rw_t
from .observe import (
    NoisyObservationSet,
    ObservationModel,
    ObservationSet,
    projection_link,
    read_noisy_csv,
    read_observations_csv,
    write_observations_csv,
)
from .particle import (
    DiscreteKernel,
    FilterResult,
    particle_filter,
    systematic_resample,
)
from .paths import Path, TimeGrid, quadratic_variation, write_path_csv
from .results import FitResult
from .rng import replicate_normals, stream
from .simulate import simulate_gbm_exact, simulate_ou, simulate_tv_growth

__version__ = "0.1.0"
