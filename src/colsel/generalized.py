"""Step-API names of generalized selection, which :mod:`colsel.greedy` owns.

``generalized_init`` and ``_select_next_generalized`` are ``init_state``
and ``select_next``, which take a separate target;
:func:`colsel.greedy.generalized_select` runs them to a budget.
"""

from .greedy import init_state as generalized_init, select_next as _select_next_generalized
