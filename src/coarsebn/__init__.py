"""Parameter learning for discrete Bayesian networks from incomplete data
whose missingness mechanism is unknown and possibly informative.

The pieces: exact inference and ML fitting on networks (`network`,
`inference`), incomplete datasets and completions (`data`), a non-random
missingness generator (`coarsen`), likelihoods under different mechanism
assumptions (`likelihoods`), three learners (`aim`, `em`, `conservative`),
evaluation metrics (`evaluate`), and a CLI harness (`cli`).
"""

from .aim import AimOptions, AimResult, aim_fit
from .coarsen import CoarseningSpec, build_coarsening_network, generate_dataset
from .conservative import conservative_intervals, marginal_bounds, random_completion
from .data import Completion, Dataset, read_dataset, write_dataset
from .em import EmOptions, EmResult, em_fit
from .evaluate import EvalReport, evaluate, kl_decomposed, kl_enumerate, mse
from .likelihoods import (
    LikelihoodReport,
    car_normalizer,
    car_profile_loglik,
    exact_sat_profile_loglik,
    face_value_loglik,
    lr_statistic,
)
from .netformat import format_network, parse_network, read_network, write_network
from .network import (
    Network,
    NodeSpec,
    ml_estimate,
    randomize_parameters,
    sample,
    smooth,
    validate_network,
)

__all__ = [name for name in dir() if not name.startswith("_")]
