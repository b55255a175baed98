"""Greedy column subset selection, sketching, and a partitioned pipeline."""

from .distributed import (
    DistributedConfig,
    DistributedReport,
    Partition,
    PartitionResult,
    distributed_select,
    map_phase,
    naive_distributed_baseline,
    partition_columns,
    reduce_phase,
)
from .evaluate import (
    MetricUndefinedError,
    evaluate_selection,
    hybrid_select,
    naive_generalized_oracle,
    naive_greedy_oracle,
    relative_accuracy,
    sketch_svd_select,
    uniform_select,
)
from .generalized import generalized_init, generalized_select
from .greedy import (
    SelectionResult,
    SelectionState,
    greedy_select,
    init_state,
    select_next,
)
from .linalg import (
    DegenerateBasisError,
    SvdResult,
    as_matrix,
    frobenius_sq,
    orthonormal_basis,
    randomized_svd,
    reconstruction_error,
)
from .matrixio import MatrixFormatError, load_matrix, save_matrix
from .seeds import derive_seed
from .sketch import SketchSpec, sketch_matrix, sketch_partitioned, sketch_row

__version__ = "0.1.0"

__all__ = [
    "DistributedConfig",
    "DistributedReport",
    "Partition",
    "PartitionResult",
    "distributed_select",
    "map_phase",
    "naive_distributed_baseline",
    "partition_columns",
    "reduce_phase",
    "MetricUndefinedError",
    "evaluate_selection",
    "hybrid_select",
    "naive_generalized_oracle",
    "naive_greedy_oracle",
    "relative_accuracy",
    "sketch_svd_select",
    "uniform_select",
    "generalized_init",
    "generalized_select",
    "SelectionResult",
    "SelectionState",
    "greedy_select",
    "init_state",
    "select_next",
    "DegenerateBasisError",
    "SvdResult",
    "as_matrix",
    "frobenius_sq",
    "orthonormal_basis",
    "randomized_svd",
    "reconstruction_error",
    "MatrixFormatError",
    "load_matrix",
    "save_matrix",
    "derive_seed",
    "SketchSpec",
    "sketch_matrix",
    "sketch_partitioned",
    "sketch_row",
]
