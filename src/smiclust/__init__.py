"""Information-maximization clustering with pairwise link constraints.

Clusters by maximizing a squared-loss mutual information objective whose
global optimum is available analytically through an eigendecomposition.
Must-link and cannot-link side information enters both the similarity matrix
and the objective, and hyperparameters are selected by a least-squares mutual
information criterion penalized by link violations.
"""

__version__ = "0.1.0"

from .data import (
    ConstraintFormatError,
    ConstraintSet,
    Dataset,
    DatasetFormatError,
    empty_constraints,
    load_constraints,
    load_dataset,
    make_blobs,
    normalize,
    sample_constraints,
    save_constraints,
)
from .evaluation import (
    BenchmarkConfig,
    BenchmarkReport,
    adjusted_rand_index,
    ari,
    run_benchmark,
    write_report_csv,
    write_report_summary,
)
from .kernel import KernelMatrix, apply_constraints, local_scaling_kernel, nearest_neighbors
from .lsmi import (
    RatioModel,
    cross_validate,
    cv_error,
    evaluate_ratio,
    fit_ratio_model,
    lsmi_from_ratios,
    lsmi_value,
    ratio_matrix,
)
from .model_select import (
    Candidate,
    GridSearchResult,
    LsmiConfig,
    count_violations,
    grid_search,
    score_candidates,
)
from .solver import (
    ClusterModel,
    ObjectiveMatrix,
    PredictionError,
    assign_clusters,
    cluster,
    cluster_unsupervised,
    fix_signs,
    load_model,
    objective_matrix,
    predict,
    save_model,
    top_eigenpairs,
)

__all__ = [
    "__version__",
    "adjusted_rand_index",
    "apply_constraints",
    "ari",
    "assign_clusters",
    "BenchmarkConfig",
    "BenchmarkReport",
    "Candidate",
    "cluster",
    "cluster_unsupervised",
    "ClusterModel",
    "ConstraintFormatError",
    "ConstraintSet",
    "count_violations",
    "cross_validate",
    "cv_error",
    "Dataset",
    "DatasetFormatError",
    "empty_constraints",
    "evaluate_ratio",
    "fit_ratio_model",
    "fix_signs",
    "grid_search",
    "GridSearchResult",
    "KernelMatrix",
    "load_constraints",
    "load_dataset",
    "load_model",
    "local_scaling_kernel",
    "lsmi_from_ratios",
    "lsmi_value",
    "LsmiConfig",
    "make_blobs",
    "nearest_neighbors",
    "normalize",
    "objective_matrix",
    "ObjectiveMatrix",
    "predict",
    "PredictionError",
    "ratio_matrix",
    "RatioModel",
    "run_benchmark",
    "sample_constraints",
    "save_constraints",
    "save_model",
    "score_candidates",
    "top_eigenpairs",
    "write_report_csv",
    "write_report_summary",
]
