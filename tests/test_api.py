import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import colsel


@pytest.mark.parametrize("name", ["colsel"])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), name
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, (name, missing)


def test_only_the_package_declares_all():
    # colsel._EXPORTS is the one list of public names
    package = Path(colsel.__file__).parent
    declaring = sorted(
        path.name for path in package.glob("*.py")
        if re.search(r"^__all__\b", path.read_text(encoding="utf-8"), re.M)
    )
    assert declaring == ["__init__.py"]


_A = np.random.default_rng(3).standard_normal((12, 9))
_B = np.random.default_rng(4).standard_normal((12, 4))
_SPEC = colsel.SketchSpec("gaussian", 4, seed=0)

# Every public selector that takes a budget l, called on the 9 columns of _A;
# the oracles accept this size.
_SELECTORS = {
    "greedy_select": lambda l: colsel.greedy_select(_A, l),
    "generalized_select": lambda l: colsel.generalized_select(_A, _B, l),
    "distributed_select":
        lambda l: colsel.distributed_select(_A, colsel.DistributedConfig(2, l, _SPEC)),
    "naive_distributed_baseline":
        lambda l: colsel.naive_distributed_baseline(_A, colsel.DistributedConfig(2, l, None)),
    "uniform_select": lambda l: colsel.uniform_select(_A.shape[1], l, 0),
    "hybrid_select": lambda l: colsel.hybrid_select(_A, l, "uniform", 0),
    "sketch_svd_select": lambda l: colsel.sketch_svd_select(_A, l, 3, 0),
    "naive_greedy_oracle": lambda l: colsel.naive_greedy_oracle(_A, l),
    "naive_generalized_oracle": lambda l: colsel.naive_generalized_oracle(_A, _B, l),
}


@pytest.mark.parametrize("name", list(_SELECTORS))
def test_every_selector_rejects_a_budget_past_the_column_count(name):
    n = _A.shape[1]
    message = f"budget l must satisfy 1 <= l <= {n}, got {n + 1}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _SELECTORS[name](n + 1)


@pytest.mark.parametrize("budget", [True, 2.5])
@pytest.mark.parametrize("name", list(_SELECTORS))
def test_every_selector_rejects_a_budget_that_is_no_integer(name, budget):
    message = f"budget l must satisfy 1 <= l <= {_A.shape[1]}, got {budget}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _SELECTORS[name](budget)


# Every other count parameter: a call that passes value v to it, and the
# message of that parameter's own check.
_COUNTS = {
    "DistributedConfig.partitions": (
        lambda v: colsel.distributed_select(_A, colsel.DistributedConfig(v, 3, _SPEC)),
        "cannot split 9 columns into {} partitions"),
    "naive_distributed_baseline partitions": (
        lambda v: colsel.naive_distributed_baseline(_A, colsel.DistributedConfig(v, 3, None)),
        "cannot split 9 columns into {} partitions"),
    "SketchSpec.r": (lambda v: colsel.SketchSpec("gaussian", v),
                     "sketch dimension must be >= 1, got {}"),
    "randomized_svd k": (lambda v: colsel.randomized_svd(_A, v),
                         "rank k must satisfy 1 <= k <= 9, got {}"),
    "sketch_svd_select k": (lambda v: colsel.sketch_svd_select(_A, 3, v, 0),
                            "rank k must satisfy 1 <= k <= 9, got {}"),
    "evaluate_selection uniform_trials": (
        lambda v: colsel.evaluate_selection(_A, [0, 1], uniform_trials=v),
        "uniform_trials must be >= 1"),
    "distributed_select threads": (
        lambda v: colsel.distributed_select(_A, colsel.DistributedConfig(2, 3, _SPEC), threads=v),
        "thread count must be >= 1, got {}"),
}


@pytest.mark.parametrize("value", [True, 2.5])
@pytest.mark.parametrize("name", list(_COUNTS))
def test_every_count_rejects_a_value_that_is_no_integer(name, value):
    # the budget's rule: Python would run True as 1 and fail on 2.5 in range()
    call, message = _COUNTS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(value))}$"):
        call(value)
