"""Information-maximization clustering with pairwise link constraints.

Clusters by maximizing a squared-loss mutual information objective whose
global optimum is available analytically through an eigendecomposition.
Must-link and cannot-link side information enters both the similarity matrix
and the objective, and hyperparameters are selected by a least-squares mutual
information criterion penalized by link violations.

The names below are the API that the README and ``demos/`` use; everything
else stays importable from its module (``smiclust.kernel``, ``smiclust.solver``,
...).
"""

__version__ = "0.1.0"

from .data import (
    ConstraintFormatError,
    ConstraintSet,
    Dataset,
    DatasetFormatError,
    load_dataset,
    make_blobs,
    sample_constraints,
)
from .evaluation import BenchmarkConfig, adjusted_rand_index, run_benchmark, write_report_csv
from .lsmi import cross_validate, fit_ratio_model, lsmi_value
from .model_select import LsmiConfig, count_violations, grid_search
from .solver import PredictionError, cluster, load_model, predict, save_model

__all__ = [
    "__version__",
    "adjusted_rand_index",
    "BenchmarkConfig",
    "cluster",
    "ConstraintFormatError",
    "ConstraintSet",
    "count_violations",
    "cross_validate",
    "Dataset",
    "DatasetFormatError",
    "fit_ratio_model",
    "grid_search",
    "load_dataset",
    "load_model",
    "lsmi_value",
    "LsmiConfig",
    "make_blobs",
    "predict",
    "PredictionError",
    "run_benchmark",
    "sample_constraints",
    "save_model",
    "write_report_csv",
]
