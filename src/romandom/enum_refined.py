"""Branch-and-reduce enumeration of all minimal rdfs.

The search labels vertices with five-valued promises (see :mod:`.grdf`),
alternating binary branching ("this vertex gets 2" / "it does not") with
an exhaustive reduction pass, and prunes any branch whose state the
extension test proves dead, before reducing it.  This delivers every
minimal rdf exactly once, with polynomial delay (at most 2n inner nodes
between outputs) and polynomial space: label changes are undone on
backtracking, and no solution is ever stored.

The reduction pass applies, at each step, the first rule in a fixed order
at the lowest vertex where it applies.  The fixpoint depends on that
order: on P2 labelled (2, active), LPN first gives (2, 0) while V2 first
gives (2, not-1).  So the pass keeps this scan order, and gets its speed
from a worklist that re-tests a rule at a vertex only when a label
change next to it can newly satisfy the rule.  Labels only fall, and no
rule creates a 2 or an active vertex, so that is rare: a relabel old ->
new of w enables, by the label of each neighbor x,

    ===============  ============================================
    rule at x        when the transition of w
    ===============  ============================================
    LPN (2)          leaves {active, not-2}
    NPD (not-2)      enters {not-2, 0, 1} from {active, not-1, 2}
    NPN (active)     enters {0, not-1}
    Isolate (not-1)  leaves not-2, once nothing is active
    ===============  ============================================

and at w itself V0 (a new 0 with one 2-neighbor and a target, an active
or not-1 neighbor) or NPD (a new not-2).  V0, V1 and V2 never need a
neighbor's pend, as :func:`apply_reductions` explains.  The extension
test is local too: the search keeps the bit sets ``once``/``twice`` of
the vertices dominated by at least one/two 2-vertices, the primitive of
the subset walk in :mod:`.enum_simple`, and only 2-vertices near a new 2
can lose a private neighbor.  No rule changes what the test reads, so a
set child is tested before its pass, and a dead one is never reduced.
:func:`extension.gen_ext_rd` stays the reference: the search asserts
nothing, and the tests check it against the solver and against the
invariants and the measure of :mod:`.grdf` by wrapping it from outside.
The search has one state, ``SearchState(g, labels)``, the only store of
labels: the labels with their class bit sets and ``once``/``twice``, kept
in place and undone on backtracking (as in Knuth's "Dancing Links"), over
the graph's own neighborhood bit sets :attr:`.graph.Graph.nbr`.  So each
rule test, pend, branch pick, completeness check and privacy test is a few
operations on Python ints, not a scan.  A 2 enters ``once``/``twice`` only
through :meth:`SearchState.add_two`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from .graph import Graph
from .grdf import ACTIVE, NOT_ONE, NOT_TWO
from .rdf import Assignment
from .stats import EnumStats

Sink = Callable[[Assignment], None]

RULE_LPN = "LPN"
RULE_V0 = "V0"
RULE_V1 = "V1"
RULE_V2 = "V2"
RULE_NPD = "NPD"
RULE_NPN = "NPN"
RULE_ISOLATE = "Isolate"

# A trace step is (rule, vertex, old_label, new_label).
TraceStep = tuple[str, int, int, int]


@dataclass
class ReductionTrace:
    """Record of one reduction fixpoint computation, for undoing it."""

    steps: list[TraceStep] = field(default_factory=list)


def undo(trace: ReductionTrace, state: SearchState) -> None:
    """Reverse a recorded trace (mutates the state, relabelling inline)."""
    labels, masks = state.labels, state.masks
    for _rule, v, old, new in reversed(trace.steps):
        masks[new] ^= 1 << v
        masks[old] |= 1 << v
        labels[v] = old


class SearchState:
    """The search's one state: a labeling of a graph with its 2-domination.

    ``labels[v]`` is the label of v (see :mod:`.grdf`) and ``masks[x]`` the
    vertices labeled x as a bit set; :meth:`relabel` keeps both.  ``nbr``
    is the graph's :attr:`~.graph.Graph.nbr`, shared, not copied.  ``once``
    and ``twice`` are the vertices with at least one and at least two
    2-vertices in their closed neighborhood, and ``c1 = once & ~twice``
    those with exactly one, its private neighbors.  No rule creates a 2,
    so only :meth:`add_two` (for each initial 2 and at a set branch) and
    the branch's restore change them.
    """

    def __init__(self, g: Graph, labels: list[int]):
        self.labels = labels
        self.nbr = g.nbr
        self.masks = [0] * (ACTIVE + 1)
        self.once = self.twice = self.c1 = 0
        for v, x in enumerate(labels):
            self.masks[x] |= 1 << v
            if x == 2:
                self.add_two(v)

    def relabel(self, v: int, new: int) -> None:
        bit = 1 << v
        self.masks[self.labels[v]] ^= bit
        self.masks[new] |= bit
        self.labels[v] = new

    def add_two(self, v: int) -> None:
        """Count the 2 at v in ``once``, ``twice`` and ``c1``."""
        near = self.nbr[v] | 1 << v
        self.twice |= self.once & near
        self.once |= near
        self.c1 = self.once & ~self.twice


def _around(nbr: tuple[int, ...], vertices: int) -> int:
    # The union of the neighborhoods of a bit set of vertices.
    union = 0
    while vertices:
        low = vertices & -vertices
        union |= nbr[low.bit_length() - 1]
        vertices ^= low
    return union


# The rules in the order they are tried.  Each applies only at a vertex
# with one particular label (LPN and V2 at 2-vertices).
_RULES = (RULE_LPN, RULE_V0, RULE_V1, RULE_V2, RULE_NPD, RULE_NPN,
          RULE_ISOLATE)
_LPN, _V0, _V1, _V2, _NPD, _NPN, _ISOLATE = range(len(_RULES))


def _enabled_around(old: int, new: int, idle: bool) -> tuple:
    """(label, rule) pairs: a relabel old -> new of w pends the rule at the
    neighbors of w with that label (``idle``: nothing is active)."""
    near = []
    if old in (ACTIVE, NOT_TWO) and new not in (ACTIVE, NOT_TWO):
        near.append((2, _LPN))
    if old in (ACTIVE, NOT_ONE, 2) and new in (NOT_TWO, 0, 1):
        near.append((NOT_TWO, _NPD))
    if old not in (0, NOT_ONE) and new in (0, NOT_ONE):
        near.append((ACTIVE, _NPN))
    if idle and old == NOT_TWO:
        near.append((NOT_ONE, _ISOLATE))
    return tuple(near)


# Indexed [old][new][idle].
_ENABLED_AROUND = [[[_enabled_around(old, new, idle) for idle in (False, True)]
                    for new in range(ACTIVE + 1)] for old in range(ACTIVE + 1)]

# Each rule test takes (labels, masks, nbr, c1, v), the state's parts, and
# returns the relabels (w, new) it makes at v, empty if it does not apply.


def _lpn(labels, masks, nbr, c1, v):
    # Last potential private neighbor: a 2-vertex with a single remaining
    # candidate (active or not-2) must claim it as its 0-valued private
    # neighbor.
    if labels[v] == 2:
        cand = nbr[v] & (masks[ACTIVE] | masks[NOT_TWO])
        if cand and not cand & (cand - 1):
            return ((cand.bit_length() - 1, 0),)
    return ()


def _v0(labels, masks, nbr, c1, v):
    # A 0-vertex with a unique 2-neighbor u is u's only possible private
    # neighbor (provided u's other undecided neighbors are all dominated
    # twice); no other neighbor of the 0-vertex may take the value 2.
    # A blocker next to the 2-vertex u is dominated by u, so outside c1
    # it is dominated twice.
    if labels[v] != 0 or not c1 >> v & 1:
        return ()
    near = nbr[v]
    if not near & (masks[ACTIVE] | masks[NOT_ONE]):
        return ()
    u = (near & masks[2]).bit_length() - 1
    if nbr[u] & (masks[0] | masks[NOT_ONE] | masks[NOT_TWO]) & c1 & ~(1 << v):
        return ()
    return _lower_each(near & (masks[ACTIVE] | masks[NOT_ONE]), masks[ACTIVE],
                       NOT_TWO)


def _v1(labels, masks, nbr, c1, v):
    # Neighbors of a 1-vertex can never be 2.
    return _lower_each(nbr[v] & (masks[ACTIVE] | masks[NOT_ONE]),
                       masks[ACTIVE], NOT_TWO) if labels[v] == 1 else ()


def _v2(labels, masks, nbr, c1, v):
    # Neighbors of a 2-vertex can never be 1.
    return _lower_each(nbr[v] & (masks[ACTIVE] | masks[NOT_TWO]),
                       masks[ACTIVE], NOT_ONE) if labels[v] == 2 else ()


def _lower_each(targets: int, active: int, new: int) -> list:
    # Each target, lowest first, goes to ``new`` if active, else to 0.
    changes = []
    while targets:
        low = targets & -targets
        changes.append((low.bit_length() - 1, new if low & active else 0))
        targets ^= low
    return changes


def _npd(labels, masks, nbr, c1, v):
    # No potential domination: a not-2 vertex whose neighbors can never
    # take the value 2 cannot become 0, so it must be 1.
    if labels[v] == NOT_TWO and not nbr[v] & (masks[2] | masks[NOT_ONE]
                                              | masks[ACTIVE]):
        return ((v, 1),)
    return ()


def _npn(labels, masks, nbr, c1, v):
    # No private neighbor: an active vertex whose whole neighborhood is
    # already dominated cannot usefully take the value 2.
    if labels[v] == ACTIVE and not nbr[v] & (masks[1] | masks[2]
                                             | masks[NOT_TWO] | masks[ACTIVE]):
        return ((v, NOT_TWO),)
    return ()


def _isolate(labels, masks, nbr, c1, v):
    # Once nothing is active (the engine pends this rule only then), a
    # not-1 vertex with no not-2 neighbor has nothing left to dominate, so
    # it cannot be 2.
    if labels[v] == NOT_ONE and not nbr[v] & masks[NOT_TWO]:
        return ((v, 0),)
    return ()


_TESTS = (_lpn, _v0, _v1, _v2, _npd, _npn, _isolate)

# The paper's Edges rule (delete every edge between two vertices that can
# never be 2) is omitted, so the working graph is the input graph: every
# reader of a never-2 vertex's neighborhood filters it by label, and its
# never-2 neighbors fail every such filter alike, so deleting those edges
# would never change a decision.


def _pend_moved(pending: int, masks: list[int], nbr: tuple[int, ...], c1: int,
                n: int, w: int, old: int, new: int) -> int:
    """``pending`` with what the relabel old -> new of w can newly satisfy."""
    if old == ACTIVE and not masks[ACTIVE]:
        pending |= masks[NOT_ONE] << _ISOLATE * n
    if new == 0:
        if c1 >> w & 1 and nbr[w] & (masks[ACTIVE] | masks[NOT_ONE]):
            pending |= 1 << _V0 * n + w
    elif new == NOT_TWO:
        pending |= 1 << _NPD * n + w
    near = nbr[w]
    for label, rule in _ENABLED_AROUND[old][new][not masks[ACTIVE]]:
        pending |= (near & masks[label]) << rule * n
    return pending


def apply_reductions(state: SearchState,
                     branch: tuple[int, int, int] | None = None
                     ) -> ReductionTrace:
    """Run the reduction rules to fixpoint (relabels the state).

    Each step applies the first rule, in the order LPN, V0, V1, V2, NPD,
    NPN, Isolate, at the lowest vertex where it applies; any other order
    would change the search tree (see the module docs).  A worklist
    replays this order without rescanning: the pending (rule, vertex)
    pairs, a superset of those where the rule applies, form one bit set
    in scan order, and each step takes its lowest pair, dropping it if
    the rule does not apply.  A relabel old -> new of w pends only what
    the transition can newly satisfy, as in the module table; when the
    last active vertex goes, Isolate is pended at every not-1 vertex.

    V0, V1 and V2 need no neighbor pend.  Their targets, the neighbors
    that may still be 2 (V0, V1) or 1 (V2), only shrink: a vertex enters
    {active, not-1} or {active, not-2} only from active.  A 1 comes only
    from NPD, whose neighbors are all in {not-2, 0, 1}, so a new 1 has
    no V1 targets, and V0 is pended only at a 0-vertex with a target.
    V0's side condition at v, with u the 2-neighbor of v, needs each
    blocker x in N(u) (a 0, not-1 or not-2 vertex) to be in ``twice``;
    the 2-set is fixed here, and a rule could move a blocker out of its
    class only as not-2 -> 1, which NPD cannot do next to the 2-vertex u.

    No rule creates a 2, so ``once`` and ``twice`` stay fixed here.
    With ``branch = (b, old, c1)`` the state must be a fixpoint except
    at b, just relabelled from ``old`` by a branch, and ``c1`` is the
    parent's (a set branch has already called :meth:`SearchState.add_two`
    on b).  The branch pends as a relabel does; a set branch also pends
    LPN and V2 at b, and V0 (with a target) wherever a blocker went
    away: next to the 2-neighbors of each blocker in N(b) that ``c1``
    held, now dominated twice, and next to the 2-neighbors of b if b was
    a not-1 blocker.  Otherwise every vertex is pended.  Returns the
    trace needed to undo the relabelings.
    """
    labels, masks, nbr, c1 = state.labels, state.masks, state.nbr, state.c1
    n = len(labels)
    trace = ReductionTrace()
    steps = trace.steps
    # Bit rule * n + v of ``pending`` stands for the pair (rule, v).
    if branch is None:
        pending = sum(mask << rule * n for rule, mask in enumerate((
            masks[2], masks[0] & c1, masks[1], masks[2], masks[NOT_TWO],
            masks[ACTIVE], 0 if masks[ACTIVE] else masks[NOT_ONE])))
    else:
        b, old, c1_before = branch
        pending = _pend_moved(0, masks, nbr, c1, n, b, old, labels[b])
        if labels[b] == 2:
            pending |= 1 << _LPN * n + b | 1 << _V2 * n + b
            # A blocker of V0 went away where b's 2 made a private
            # neighbor dominated twice, and at b if it was not-1.
            blockers = masks[0] | masks[NOT_ONE] | masks[NOT_TWO]
            freed = _around(nbr, nbr[b] & c1_before & blockers)
            if old == NOT_ONE:
                freed |= nbr[b]
            cand = _around(nbr, freed & masks[2]) & masks[0] & c1
            targets = masks[ACTIVE] | masks[NOT_ONE]
            while cand:
                low = cand & -cand
                if nbr[low.bit_length() - 1] & targets:
                    pending |= low << _V0 * n
                cand ^= low

    while pending:
        lowest = pending & -pending
        pending ^= lowest
        rule, v = divmod(lowest.bit_length() - 1, n)
        changes = _TESTS[rule](labels, masks, nbr, c1, v)
        if not changes:
            continue
        name = _RULES[rule]
        for w, new in changes:
            old = labels[w]
            steps.append((name, w, old, new))
            # SearchState.relabel(w, new), inline.
            masks[old] ^= 1 << w
            masks[new] |= 1 << w
            labels[w] = new
            pending = _pend_moved(pending, masks, nbr, c1, n, w, old, new)
    return trace


def pick_branch_vertex(state: SearchState) -> tuple[int, int] | None:
    """Branch vertex and its priority class (1..3); None at a leaf.

    Priorities, in decreasing order: an active vertex with at least two
    active-or-not-2 neighbors; any active vertex; any not-1 vertex,
    preferring one whose not-2 neighborhood has size other than 2.
    Ties break to the lowest id.
    """
    masks, nbr = state.masks, state.nbr
    active = masks[ACTIVE]
    if active:
        open_ = active | masks[NOT_TWO]
        todo = active
        while todo:
            low = todo & -todo
            near = nbr[low.bit_length() - 1] & open_
            if near & (near - 1):
                return low.bit_length() - 1, 1
            todo ^= low
        return (active & -active).bit_length() - 1, 2
    not_one, not_two = masks[NOT_ONE], masks[NOT_TWO]
    todo = not_one
    while todo:
        low = todo & -todo
        if (nbr[low.bit_length() - 1] & not_two).bit_count() != 2:
            return low.bit_length() - 1, 3
        todo ^= low
    return ((not_one & -not_one).bit_length() - 1, 3) if not_one else None


def check_phase_properties(state: SearchState, phase: int) -> bool:
    """State conditions that must hold once branching priority 1 or 2 is
    exhausted (the tests check them where the search moves to a higher one).
    """
    masks, nbr = state.masks, state.nbr
    active = masks[ACTIVE]
    if phase == 1:
        # An active vertex with an active neighbor and degree at least 2
        # has one active neighbor, and its others are 0 or not-1.
        return not any(
            near & active and near & (near - 1) and (
                near & ~(active | masks[NOT_ONE] | masks[0])
                or (near & active).bit_count() > 1)
            for v, near in enumerate(nbr) if active >> v & 1)
    if phase == 2:
        # A not-2 vertex's neighbors that can still be 2 are non-empty and
        # all not-1.
        return not active and all(
            near & masks[NOT_ONE] and not near & masks[2]
            for v, near in enumerate(nbr) if masks[NOT_TWO] >> v & 1)
    raise ValueError(f"unknown phase {phase}")


class RefinedEnumerator:
    """One enumeration run; create, then call :meth:`run` once.

    The counters go into ``stats`` (a new :class:`EnumStats` by default) as
    the search runs; :meth:`run` completes them even if the search raises.
    The search itself asserts nothing: the tests check every entered child
    (invariants, rebuilt state, falling measure, a solver witness), every
    pruned child (no witness after a full pass on a copy) and the phase
    properties by wrapping :func:`apply_reductions`, :meth:`_private_near`
    and :meth:`_node`.
    """

    def __init__(self, g: Graph, sink: Sink, *,
                 stats: EnumStats | None = None):
        g.validate()
        self.graph = g
        self.sink = sink
        self.state = SearchState(g, [ACTIVE] * g.n)
        self.stats = EnumStats() if stats is None else stats
        self._gap = 0

    def run(self) -> EnumStats:
        start = time.perf_counter()
        try:
            self._node(last_priority=0)
        finally:
            self.stats.max_gap = max(self.stats.max_gap, self._gap)
            # 1.9332 ** n overflows a float from n = 1076; 1.9332 ** -n
            # only underflows towards 0.0.
            self.stats.tree_ratio = (self.stats.tree_nodes
                                     * 1.9332 ** -self.graph.n)
            self.stats.wall_ms = int((time.perf_counter() - start) * 1000)
        return self.stats

    def _emit(self) -> None:
        # _node has just checked that every label is final.
        self.sink(tuple(self.state.labels))
        self.stats.solutions += 1
        self.stats.max_gap = max(self.stats.max_gap, self._gap)
        self._gap = 0

    def _node(self, last_priority: int) -> None:
        """Visit one search node, at a reduction fixpoint but for the root."""
        self.stats.tree_nodes += 1
        state = self.state
        masks = state.masks
        if not masks[ACTIVE] | masks[NOT_ONE] | masks[NOT_TWO]:
            self._emit()
            return
        self._gap += 1
        # By I4 an incomplete fixpoint has an active or not-1 vertex.
        v, priority = pick_branch_vertex(state)
        if priority > last_priority:
            key = f"{last_priority}->{priority}"
            self.stats.phase_transitions[key] = (
                self.stats.phase_transitions.get(key, 0) + 1
            )
        fires = self.stats.rule_fires
        old = state.labels[v]
        once, twice, c1 = state.once, state.twice, state.c1
        # The all-active root is no fixpoint if some vertex is isolated, so
        # its children pend every vertex.
        seed = (v, old, c1) if last_priority else None
        # v is active or not-1: set it to 2, then deny it the 2.
        for new in (2, NOT_TWO if old == ACTIVE else 0):
            state.relabel(v, new)
            if new == 2:
                state.add_two(v)
            # A deny keeps the parent's 2-set and once/twice, which passed
            # the test.  The test reads only c1, nbr and the 2-set, which no
            # rule changes, so it runs before the pass; by I2 no 1 is next
            # to a 2 at a fixpoint, so the solver's saturation adds nothing.
            if new != 2 or self._private_near(v):
                trace = apply_reductions(state, seed)
                for step in trace.steps:
                    fires[step[0]] = fires.get(step[0], 0) + 1
                self._node(priority)
                undo(trace, state)
            else:
                self.stats.prunes += 1
            state.relabel(v, old)
            state.once, state.twice, state.c1 = once, twice, c1

    def _private_near(self, b: int) -> bool:
        """The extension test after setting b to 2, from the parent's pass.

        Only 2-vertices within distance 2 of b can have lost their last
        private neighbor (a neighbor in ``c1``), and b needs one too.
        """
        state = self.state
        nbr, c1 = state.nbr, state.c1
        ball = _around(nbr, nbr[b]) | nbr[b] | 1 << b
        twos = ball & state.masks[2]
        while twos:
            low = twos & -twos
            if not nbr[low.bit_length() - 1] & c1:
                return False
            twos ^= low
        return True


def enumerate_minimal_rdf_refined(g: Graph, sink: Sink, *,
                                  stats: EnumStats | None = None
                                  ) -> EnumStats:
    """Deliver every minimal rdf of ``g`` exactly once; see module docs."""
    return RefinedEnumerator(g, sink, stats=stats).run()
