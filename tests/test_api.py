import dataclasses
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


# Every seeded call: a call that passes seed s to it.  SketchSpec is reached
# through each public name that draws its rows.
_SEEDS = {
    "derive_seed master": lambda s: colsel.derive_seed(s, "x"),
    "derive_seed label": lambda s: colsel.derive_seed(1, s),
    "SketchSpec sketch_matrix":
        lambda s: colsel.sketch_matrix(_A, colsel.SketchSpec("gaussian", 4, seed=s)),
    "SketchSpec sketch_row": lambda s: colsel.sketch_row(colsel.SketchSpec("sign", 4, seed=s), 3),
    "SketchSpec distributed_select": lambda s: colsel.distributed_select(
        _A, colsel.DistributedConfig(2, 3, colsel.SketchSpec("sparse-sign", 4, seed=s))),
    "uniform_select": lambda s: colsel.uniform_select(_A.shape[1], 3, s),
    "evaluate_selection": lambda s: colsel.evaluate_selection(_A, [0, 1], 2, seed=s),
    "hybrid_select": lambda s: colsel.hybrid_select(_A, 3, "svd-rows", s),
    "sketch_svd_select": lambda s: colsel.sketch_svd_select(_A, 3, 2, s),
    "randomized_svd": lambda s: colsel.randomized_svd(_A, 3, s),
}


def _bits(value):
    """``value`` as nested tuples of raw bytes, without a report's timings."""
    if dataclasses.is_dataclass(value):
        return _bits([v for k, v in vars(value).items() if k != "timings"])
    if isinstance(value, (list, tuple)):
        return tuple(map(_bits, value))
    value = np.asarray(value)
    return value.dtype.str, value.shape, value.tobytes()


@pytest.mark.parametrize("seed", [
    pytest.param(np.int64(5), id="int64(5)"),
    pytest.param(np.uint64(5), id="uint64(5)"),
    pytest.param(-1, id="-1"),
    pytest.param(2**64 + 5, id="2**64+5"),
])
@pytest.mark.parametrize("name", list(_SEEDS))
def test_every_seed_is_taken_modulo_2_64(name, seed):
    call = _SEEDS[name]
    assert _bits(call(seed)) == _bits(call(int(seed) % 2**64))


@pytest.mark.parametrize("name, value", [
    (name, value) for name in _SEEDS for value in (True, 2.5, None, "5")
    # a string label is hashed, not read as a seed
    if (name, value) != ("derive_seed label", "5")
])
def test_every_seeded_call_rejects_a_seed_that_is_no_integer(name, value):
    message = f"seed must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _SEEDS[name](value)
