"""Five-valued partial labelings used by the branch-and-reduce search.

Besides the final values 0, 1, 2, a vertex can carry the promise
NOT_ONE ("will end up 0 or 2"), the promise NOT_TWO ("will end up 0 or
1"), or be ACTIVE (no decision yet).  A labeling is a list indexed by
vertex id; the search keeps it, with its label classes as bit sets, in
:class:`.enum_refined.SearchState`.  This module holds the labels and
the paper's measure.  The checks on a labeling (the invariants I1-I4 and
consistency with a total assignment) are test references in
``tests/support.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .enum_refined import SearchState

NOT_ONE = 3
NOT_TWO = 4
ACTIVE = 5

# The paper's measure weights for not-1 and not-2 vertices.
W1 = 2.0 / 3.0
W2 = 0.38488


def measure(state: SearchState) -> float:
    """Search-progress potential: |active| + W1*|not-1| + W2*|not-2|.

    At most n for the all-active start, exactly 0 at a fully resolved leaf.
    """
    masks = state.masks
    return (masks[ACTIVE].bit_count() + W1 * masks[NOT_ONE].bit_count()
            + W2 * masks[NOT_TWO].bit_count())

