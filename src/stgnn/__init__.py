"""Spatio-temporal graph classification engine for connectome-style data.

Per-node 1D-convolutional encoders (plain or causal/dilated), optional
graph-convolutional information sharing, global-mean or hierarchical
differentiable pooling, and a subject-grouped stratified cross-validation
harness, all on a self-contained numpy autodiff core.
"""

from .autodiff import Tensor, default_dtype, get_default_dtype, set_default_dtype
from .evaluation import (ExperimentConfig, FoldPlan, HyperGrid, baseline_flat_correlation,
                         compute_metrics, plan_folds, run_experiment)
from .models import GraphClassifier, ModelSpec, bce_loss, build_model
from .prep import (GraphSample, SubjectRecord, balance_by_subject, covariance_to_correlation,
                   ledoit_wolf_covariance, load_manifest, prepare_graph_samples, robust_scale,
                   threshold_edges, window_split)
from .synth import SynthConfig, generate, generate_dataset

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig", "FoldPlan", "GraphClassifier", "GraphSample", "HyperGrid",
    "ModelSpec", "SubjectRecord", "SynthConfig", "Tensor",
    "balance_by_subject", "baseline_flat_correlation", "bce_loss", "build_model",
    "compute_metrics", "covariance_to_correlation", "default_dtype", "generate",
    "generate_dataset", "get_default_dtype", "ledoit_wolf_covariance",
    "load_manifest", "plan_folds", "prepare_graph_samples",
    "robust_scale", "run_experiment", "set_default_dtype", "threshold_edges",
    "window_split",
]
