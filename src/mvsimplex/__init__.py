"""Multi-view clustering with simplex-factorized co-assignment probabilities.

Each view's similarity matrix is approximated by a low-rank co-assignment
matrix W W^T whose rows live on the probability simplex; views share a small
pool of candidate clusterings, and an EM loop assigns views to clusterings
while descending a Bernoulli divergence between model and observed
similarities.  A Monte-Carlo harness checks the generalization bound for the
induced partition distribution.
"""

from .datagen import (
    consensus_views,
    multi_view,
    screen_columns,
    single_view,
)
from .metrics import mad, nmi
from .model import (
    FitDivergedError,
    FitState,
    ModelConfig,
    coassignment_matrix,
    fit,
    kl_bernoulli,
    load_fit_state,
    m_step,
    reg_loss,
    row_softmax,
    save_fit_state,
)
from .initialization import initialize, kmeans_pp, log_odds_features
from .partition import (
    BoundReport,
    bound_rhs,
    canonicalize_labels,
    verify_theorem,
)
from .postprocess import (
    ConsensusResult,
    ViewEstimate,
    consensus_matrix,
    effective_counts,
    spectral_labels,
    view_estimates,
)
from .similarity import SimilarityTensor, ViewData, similarity_matrix

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ConsensusResult",
    "FitDivergedError",
    "FitState",
    "ModelConfig",
    "SimilarityTensor",
    "ViewData",
    "ViewEstimate",
    "bound_rhs",
    "canonicalize_labels",
    "coassignment_matrix",
    "consensus_matrix",
    "consensus_views",
    "effective_counts",
    "fit",
    "initialize",
    "kl_bernoulli",
    "kmeans_pp",
    "load_fit_state",
    "log_odds_features",
    "m_step",
    "mad",
    "multi_view",
    "nmi",
    "reg_loss",
    "row_softmax",
    "save_fit_state",
    "screen_columns",
    "similarity_matrix",
    "single_view",
    "spectral_labels",
    "verify_theorem",
    "view_estimates",
]
