"""Greedy column subset selection, sketching, and a partitioned pipeline.

Submodules are imported on first use of a name they export (PEP 562), so a
process that only loads a matrix imports ``matrixio`` and ``linalg`` alone.
Every random draw derives from one master seed through the splitmix64
stream of ``sketch``, which exports ``derive_seed``.
"""

import importlib

__version__ = "0.1.0"

# The public names, each under the submodule that defines it: the only
# declaration of the API, since no submodule declares __all__.
_EXPORTS = {
    "baselines": (
        "SvdResult",
        "hybrid_select",
        "naive_generalized_oracle",
        "naive_greedy_oracle",
        "randomized_svd",
        "sketch_svd_select",
        "uniform_select",
    ),
    "cli": (),
    "distributed": (
        "DistributedConfig",
        "DistributedReport",
        "Partition",
        "PartitionResult",
        "distributed_select",
        "map_phase",
        "naive_distributed_baseline",
        "partition_columns",
        "reduce_phase",
    ),
    "evaluate": ("MetricUndefinedError", "evaluate_selection", "relative_accuracy"),
    "generalized": ("generalized_init",),
    "greedy": (
        "SelectionResult",
        "SelectionState",
        "generalized_select",
        "greedy_select",
        "init_state",
        "select_next",
    ),
    "linalg": ("as_matrix", "frobenius_sq", "reconstruction_error"),
    "matrixio": ("MatrixFormatError", "load_matrix", "save_matrix"),
    "sketch": ("SketchSpec", "derive_seed", "sketch_matrix", "sketch_partitioned", "sketch_row"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)


def __getattr__(name):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_ORIGIN) | set(_EXPORTS))
