"""Multi-view clustering with simplex-factorized co-assignment probabilities.

Each view's similarity matrix is approximated by a low-rank co-assignment
matrix W W^T whose rows live on the probability simplex; views share a small
pool of candidate clusterings, and an EM loop assigns views to clusterings
while descending a Bernoulli divergence between model and observed
similarities.  A harness checks the generalization bound for the induced
partition distribution, exactly for up to 6 items and by Monte Carlo past that.
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
    fit,
    load_fit_state,
    save_fit_state,
)
from .partition import BoundReport, verify_theorem
from .postprocess import (
    ConsensusResult,
    EntryEstimate,
    consensus_matrix,
    spectral_labels,
    view_estimates,
)
from .similarity import SimilarityTensor, similarity_matrix

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ConsensusResult",
    "EntryEstimate",
    "FitDivergedError",
    "FitState",
    "ModelConfig",
    "SimilarityTensor",
    "consensus_matrix",
    "consensus_views",
    "fit",
    "load_fit_state",
    "mad",
    "multi_view",
    "nmi",
    "save_fit_state",
    "screen_columns",
    "similarity_matrix",
    "single_view",
    "spectral_labels",
    "verify_theorem",
    "view_estimates",
]
