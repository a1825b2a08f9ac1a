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
from .conservative import conservative_ensemble, marginal_bounds, random_completion
from .data import (
    CoarseningModel,
    Completion,
    Dataset,
    completion_distribution,
    read_dataset,
    recover_coarsening,
    write_dataset,
)
from .em import EmOptions, EmResult, em_fit
from .evaluate import EvalReport, evaluate, kl_decomposed, kl_enumerate, mse
from .inference import (
    evidence_probability,
    full_joint_table,
    posterior_family_marginals,
)
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
    joint_probability,
    ml_estimate,
    randomize_parameters,
    sample,
    smooth,
    validate_network,
)

__all__ = [name for name in dir() if not name.startswith("_")]
