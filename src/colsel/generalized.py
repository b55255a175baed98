"""Greedy selection of source columns that best reconstruct a target matrix.

The recursion is owned by :mod:`colsel.greedy`, which runs it against a
separate target when one is given; this module only names that entry
point.  With target == source the selection equals plain greedy selection.
"""

from __future__ import annotations

import numpy as np

from .greedy import SelectionResult, _check_budget, _select, init_state, select_next

generalized_init = init_state
_select_next_generalized = select_next


def generalized_select(a: np.ndarray, b: np.ndarray, l: int) -> SelectionResult:
    """Select ``l`` columns of ``a`` that best reconstruct the columns of ``b``.

    Stops early, with ``target_reconstructed`` set, once no candidate lowers
    the error by more than 1e-12 of ``||b||_F^2``, where :func:`select_next`
    on ``b`` raises ``ExhaustedError``: ``b`` is reconstructed, or what is
    left of it lies outside the columns' span.
    """
    _check_budget(l, a.shape[1])
    return _select(a, b, l)
