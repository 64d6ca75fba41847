import importlib

import mvsimplex

PUBLIC = [
    "BoundReport",
    "ConsensusResult",
    "EntryEstimate",
    "FitDivergedError",
    "FitState",
    "ModelConfig",
    "SimilarityTensor",
    "ViewData",
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

# internals that left the package namespace, by the module they live in
INTERNAL = {
    "initialization": ["initialize", "kmeans_pp", "log_odds_features"],
    "model": ["coassignment_matrix", "kl_bernoulli", "m_step", "reg_loss", "row_softmax"],
    "partition": ["bound_rhs", "canonicalize_labels"],
}


def test_all_lists_the_public_names():
    assert mvsimplex.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(mvsimplex, name) is not None


def test_internals_import_from_their_modules():
    for module, names in INTERNAL.items():
        mod = importlib.import_module(f"mvsimplex.{module}")
        for name in names:
            assert callable(getattr(mod, name))
            assert name not in mvsimplex.__all__
