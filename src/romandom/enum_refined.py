"""Branch-and-reduce enumeration of all minimal rdfs.

The search labels vertices with five-valued promises (see :mod:`.grdf`),
alternating binary branching ("this vertex gets 2" / "it does not") with
an exhaustive reduction pass, and prunes any branch whose state the
extension solver proves dead.  This delivers every minimal rdf exactly
once, with polynomial delay (at most 2n inner nodes between outputs) and
polynomial space: label changes are undone on backtracking, and no
solution is ever stored.

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

and at w itself V0 (a new 0 with one 2-neighbor) or NPD (a new not-2).
V0, V1 and V2 never need a neighbor's pend, as :func:`apply_reductions`
explains.  The extension test is local too: the search keeps the closed
2-neighbor counts, and only 2-vertices near a new 2 can lose a private
neighbor.
:func:`extension.gen_ext_rd` stays the reference, checked against it
under ``assert_invariants``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from .extension import gen_ext_rd, project_grdf
from .graph import Graph
from .grdf import (ACTIVE, NOT_ONE, NOT_TWO, Grdf, measure,
                   violated_invariants)
from .rdf import Assignment, two_counts
from .stats import EnumStats

Sink = Callable[[Assignment], None]

RULE_LPN = "LPN"
RULE_V0 = "V0"
RULE_V1 = "V1"
RULE_V2 = "V2"
RULE_NPD = "NPD"
RULE_NPN = "NPN"
RULE_ISOLATE = "Isolate"

Adjacency = tuple[frozenset[int], ...]

# A trace step is (rule, vertex, old_label, new_label).
TraceStep = tuple[str, int, int, int]


@dataclass
class ReductionTrace:
    """Record of one reduction fixpoint computation, for undoing it."""

    steps: list[TraceStep] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)


def undo(trace: ReductionTrace, grdf: Grdf) -> None:
    """Reverse a recorded trace (mutates the grdf)."""
    for _rule, v, old, _new in reversed(trace.steps):
        grdf.labels[v] = old


# The rules in the order they are tried.  Each applies only at a vertex
# with one particular label (LPN and V2 at 2-vertices).
_RULES = (RULE_LPN, RULE_V0, RULE_V1, RULE_V2, RULE_NPD, RULE_NPN,
          RULE_ISOLATE)
_LPN, _V0, _V1, _V2, _NPD, _NPN, _ISOLATE = range(len(_RULES))
# The rules that may apply at a vertex, by its label, for a full seed.  V0
# is pended only at 0-vertices with count 1, Isolate only once nothing is
# active.
_RULES_AT = {0: (), 1: (_V1,), 2: (_LPN, _V2), NOT_ONE: (), NOT_TWO: (_NPD,),
             ACTIVE: (_NPN,)}


def _enabled_around(old: int, new: int, idle: bool) -> tuple:
    """The rule a relabel old -> new of w can newly satisfy at a neighbor.

    Indexed by the neighbor's label; ``idle`` means nothing is active.
    """
    near = [None] * (ACTIVE + 1)
    if old in (ACTIVE, NOT_TWO) and new not in (ACTIVE, NOT_TWO):
        near[2] = _LPN
    if old in (ACTIVE, NOT_ONE, 2) and new in (NOT_TWO, 0, 1):
        near[NOT_TWO] = _NPD
    if old not in (0, NOT_ONE) and new in (0, NOT_ONE):
        near[ACTIVE] = _NPN
    if idle and old == NOT_TWO:
        near[NOT_ONE] = _ISOLATE
    return tuple(near) if any(r is not None for r in near) else ()


_ENABLED_AROUND = {(old, new, idle): _enabled_around(old, new, idle)
                   for old in range(ACTIVE + 1) for new in range(ACTIVE + 1)
                   for idle in (False, True)}


def _lpn(adj, labels, counts, v):
    # Last potential private neighbor: a 2-vertex with a single remaining
    # candidate (active or not-2) must claim it as its 0-valued private
    # neighbor.
    if labels[v] != 2:
        return ()
    cand = [u for u in adj[v] if labels[u] in (ACTIVE, NOT_TWO)]
    return ((cand[0], 0),) if len(cand) == 1 else ()


def _v0(adj, labels, counts, v):
    # A 0-vertex with a unique 2-neighbor u is u's only possible private
    # neighbor (provided u's other undecided neighbors are all dominated
    # twice); no other neighbor of the 0-vertex may take the value 2.
    # A vertex that is not 2 has as many 2-neighbors as its count says.
    if labels[v] != 0 or counts[v] != 1:
        return ()
    changes = _bar_two_around(adj, labels, v)
    if not changes:
        return ()
    for u in adj[v]:
        if labels[u] == 2:
            break
    if any(counts[x] < 2 for x in adj[u]
           if x != v and labels[x] in (0, NOT_ONE, NOT_TWO)):
        return ()
    return changes


def _v1(adj, labels, counts, v):
    # Neighbors of a 1-vertex can never be 2.
    return _bar_two_around(adj, labels, v) if labels[v] == 1 else ()


def _bar_two_around(adj, labels, v):
    # The relabels that bar every undecided neighbor of v from value 2.
    return tuple((w, NOT_TWO if labels[w] == ACTIVE else 0)
                 for w in sorted(adj[v]) if labels[w] in (ACTIVE, NOT_ONE))


def _v2(adj, labels, counts, v):
    # Neighbors of a 2-vertex can never be 1.
    if labels[v] != 2:
        return ()
    return tuple((w, NOT_ONE if labels[w] == ACTIVE else 0)
                 for w in sorted(adj[v]) if labels[w] in (ACTIVE, NOT_TWO))


def _npd(adj, labels, counts, v):
    # No potential domination: a not-2 vertex whose neighbors can never
    # take the value 2 cannot become 0, so it must be 1.
    if labels[v] == NOT_TWO and all(labels[u] in (NOT_TWO, 0, 1)
                                    for u in adj[v]):
        return ((v, 1),)
    return ()


def _npn(adj, labels, counts, v):
    # No private neighbor: an active vertex whose whole neighborhood is
    # already dominated cannot usefully take the value 2.
    if labels[v] == ACTIVE and all(labels[u] in (0, NOT_ONE) for u in adj[v]):
        return ((v, NOT_TWO),)
    return ()


def _isolate(adj, labels, counts, v):
    # Once nothing is active (the engine pends this rule only then), a
    # not-1 vertex with no not-2 neighbor has nothing left to dominate, so
    # it cannot be 2.
    if labels[v] == NOT_ONE and not any(labels[u] == NOT_TWO for u in adj[v]):
        return ((v, 0),)
    return ()


_TESTS = (_lpn, _v0, _v1, _v2, _npd, _npn, _isolate)

# The paper's Edges rule (delete every edge between two vertices that can
# never be 2) is omitted, so the working graph is the input graph: every
# reader of a never-2 vertex's neighborhood filters it by label, and its
# never-2 neighbors fail every such filter alike, so deleting those edges
# would never change a decision.


def apply_reductions(adj: Adjacency, grdf: Grdf,
                     counts: list[int] | None = None,
                     branch: tuple[int, int] | None = None) -> ReductionTrace:
    """Run the reduction rules to fixpoint (relabels the grdf; reads adj).

    Each step applies the first rule, in the order LPN, V0, V1, V2, NPD,
    NPN, Isolate, at the lowest vertex where it applies.  The fixpoint
    depends on that order: on P2 labelled (2, active), LPN first gives
    (2, 0) while V2 first gives (2, not-1), so any other order would
    change the search tree.  A worklist replays this order without
    rescanning: each rule keeps a set of pending vertices, a superset of
    those where it applies, and each step takes the first rule's lowest
    pending vertex, dropping it if the rule does not apply.

    Labels only fall, and no rule creates a 2 or an active vertex, so a
    relabel old -> new of w pends only what that transition can newly
    satisfy.  At w itself, by its new label: V0 if 0 with count 1, NPD if
    not-2.  At a neighbor x, by the label of x:

    - LPN at a 2-vertex, when w leaves {active, not-2};
    - NPD at a not-2 vertex, when w enters {not-2, 0, 1} from {active,
      not-1, 2};
    - NPN at an active vertex, when w enters {0, not-1};
    - Isolate at a not-1 vertex, once nothing is active, when w leaves
      not-2; when the last active vertex goes, every not-1 vertex.

    V0, V1 and V2 need no neighbor pend.  Their targets, the neighbors
    that may still be 2 (V0, V1) or 1 (V2), only shrink: a vertex enters
    {active, not-1} or {active, not-2} only from active.  A 1 comes only
    from NPD, whose neighbors are all in {not-2, 0, 1}, so a new 1 has
    no V1 targets.  V0's side condition at v, with u
    the 2-neighbor of v, needs each blocker x in N(u) (a 0, not-1 or
    not-2 vertex) to have count at least 2; the counts are fixed here,
    and a rule could move a blocker out of its class only as not-2 -> 1,
    which NPD cannot do next to the 2-vertex u.

    ``counts`` holds the closed 2-neighbor counts of ``rdf.two_counts``;
    no rule creates a 2, so they stay fixed here.  With ``branch = (b,
    old)`` the grdf must be a fixpoint except at b, just relabelled from
    ``old`` by a branch (which also updated ``counts`` if it set a 2).
    The branch pends as a relabel does; a set branch also pends LPN and
    V2 at b, and V0 wherever a blocker went away: where a count rose to
    2, and next to the 2-neighbors of b if b was a not-1 blocker.
    Otherwise every vertex is pended and the counts are computed if not
    given.  Returns the trace needed to undo the relabelings.
    """
    labels = grdf.labels
    n = len(labels)
    if counts is None:
        counts = two_counts(adj, [v for v in range(n) if labels[v] == 2])
    trace = ReductionTrace()
    steps = trace.steps
    # Pending vertices of each rule, as bit sets: bit v stands for v.
    pending = [0] * len(_RULES)
    actives = labels.count(ACTIVE)

    def pend_not_one() -> None:
        for v in range(n):
            if labels[v] == NOT_ONE:
                pending[_ISOLATE] |= 1 << v

    def pend_v0_around(u: int) -> None:
        # V0 at each 0-vertex with count 1 next to the 2-vertex u.
        for v in adj[u]:
            if labels[v] == 0 and counts[v] == 1:
                pending[_V0] |= 1 << v

    def moved(w: int, old: int) -> None:
        """Pend what the relabel of w from ``old`` can newly satisfy."""
        new = labels[w]
        if new == 0:
            if counts[w] == 1:
                pending[_V0] |= 1 << w
        elif new == NOT_TWO:
            pending[_NPD] |= 1 << w
        near = _ENABLED_AROUND[old, new, not actives]
        if near:
            for x in adj[w]:
                rule = near[labels[x]]
                if rule is not None:
                    pending[rule] |= 1 << x

    if branch is None:
        for v in range(n):
            label = labels[v]
            for rule in _RULES_AT[label]:
                pending[rule] |= 1 << v
            if label == 0 and counts[v] == 1:
                pending[_V0] |= 1 << v
        if not actives:
            pend_not_one()
    else:
        b, old = branch
        if old == ACTIVE and not actives:
            pend_not_one()
        moved(b, old)
        if labels[b] == 2:
            pending[_LPN] |= 1 << b
            pending[_V2] |= 1 << b
            for x in adj[b]:
                # The counts rose by one on N[b].
                if counts[x] == 2 and labels[x] in (0, NOT_ONE, NOT_TWO):
                    for u in adj[x]:
                        if labels[u] == 2:
                            pend_v0_around(u)
            if old == NOT_ONE:
                for u in adj[b]:
                    if labels[u] == 2:
                        pend_v0_around(u)

    rule, n_rules = 0, len(_RULES)
    while rule < n_rules:
        todo = pending[rule]
        if not todo:
            rule += 1
            continue
        lowest = todo & -todo
        pending[rule] = todo ^ lowest
        changes = _TESTS[rule](adj, labels, counts, lowest.bit_length() - 1)
        if not changes:
            continue
        name = _RULES[rule]
        for w, new in changes:
            old = labels[w]
            steps.append((name, w, old, new))
            labels[w] = new
            if old == ACTIVE:
                actives -= 1
                if not actives:
                    pend_not_one()
            moved(w, old)
        rule = 0
    return trace


def pick_branch_vertex(adj: Adjacency, grdf: Grdf) -> tuple[int, int] | None:
    """Branch vertex and its priority class (1..3); None at a leaf.

    Priorities, in decreasing order: an active vertex with at least two
    active-or-not-2 neighbors; any active vertex; any not-1 vertex,
    preferring one whose not-2 neighborhood has size other than 2.
    Ties break to the lowest id.
    """
    labels = grdf.labels
    n = len(labels)
    first_active = None
    for v in range(n):
        if labels[v] == ACTIVE:
            if first_active is None:
                first_active = v
            if sum(1 for u in adj[v] if labels[u] in (ACTIVE, NOT_TWO)) >= 2:
                return v, 1
    if first_active is not None:
        return first_active, 2
    preferred = None
    fallback = None
    for v in range(n):
        if labels[v] == NOT_ONE:
            if fallback is None:
                fallback = v
            if preferred is None and sum(
                1 for u in adj[v] if labels[u] == NOT_TWO
            ) != 2:
                preferred = v
    if preferred is not None:
        return preferred, 3
    if fallback is not None:
        return fallback, 3
    return None


def branch_set_two(grdf: Grdf, v: int) -> None:
    """Commit the branch vertex to value 2 (mutates the grdf)."""
    if grdf.labels[v] not in (ACTIVE, NOT_ONE):
        raise ValueError(f"vertex {v} is not branchable")
    grdf.labels[v] = 2


def branch_deny_two(grdf: Grdf, v: int) -> None:
    """Commit the branch vertex to never take value 2 (mutates the grdf)."""
    if grdf.labels[v] == ACTIVE:
        grdf.labels[v] = NOT_TWO
    elif grdf.labels[v] == NOT_ONE:
        grdf.labels[v] = 0
    else:
        raise ValueError(f"vertex {v} is not branchable")


def check_phase_properties(adj: Adjacency, grdf: Grdf, phase: int) -> bool:
    """State conditions that must hold once the given phase is complete.

    Phase 0 stands for "reductions are at fixpoint" and checks the edge
    conditions; phases 1..3 correspond to the branching priorities.
    """
    labels = grdf.labels
    n = len(labels)
    if phase == 0:
        for u in range(n):
            for v in adj[u]:
                if labels[u] == 2 and labels[v] in (NOT_TWO, ACTIVE):
                    return False
                if labels[u] == 1 and labels[v] in (NOT_ONE, ACTIVE):
                    return False
        return True
    if phase == 1:
        for v in range(n):
            if labels[v] != ACTIVE:
                continue
            if not any(labels[u] == ACTIVE for u in adj[v]):
                continue
            if len(adj[v]) == 1:
                continue
            others = [u for u in adj[v] if labels[u] != ACTIVE]
            if any(labels[u] not in (NOT_ONE, 0) for u in others):
                return False
            if sum(1 for u in adj[v] if labels[u] == ACTIVE) > 1:
                return False
        return True
    if phase == 2:
        if any(x == ACTIVE for x in labels):
            return False
        for v in range(n):
            if labels[v] == NOT_TWO:
                may_be_two = [u for u in adj[v]
                              if labels[u] not in (NOT_TWO, 0, 1)]
                if not may_be_two:
                    return False
                if any(labels[u] != NOT_ONE for u in may_be_two):
                    return False
        return True
    if phase == 3:
        return all(x <= 2 for x in labels)
    raise ValueError(f"unknown phase {phase}")


class RefinedEnumerator:
    """One enumeration run; create, then call :meth:`run` once.

    ``assert_invariants`` turns on the state-invariant, phase-property and
    measure-monotonicity assertions at every fixpoint (slow; for tests).
    """

    def __init__(self, g: Graph, sink: Sink, *,
                 assert_invariants: bool = False):
        g.validate()
        self.graph = g
        self.sink = sink
        self.assert_invariants = assert_invariants
        self.grdf = Grdf.all_active(g.n)
        self.stats = EnumStats()
        self._gap = 0
        # Closed 2-neighbor counts (see rdf.two_counts), kept in step with
        # the 2-labels: only a set branch creates a 2.
        self.counts = [0] * g.n

    def run(self) -> EnumStats:
        start = time.perf_counter()
        if self.graph.n == 0:
            # The empty assignment is vacuously a minimal rdf.
            self.sink(())
            self.stats.solutions = 1
            self.stats.tree_nodes = 1
        else:
            self._node(parent_measure=None, last_priority=0)
            self.stats.max_gap = max(self.stats.max_gap, self._gap)
            # 1.9332 ** n overflows a float from n = 1076; 1.9332 ** -n
            # only underflows towards 0.0.
            self.stats.tree_ratio = (self.stats.tree_nodes
                                     * 1.9332 ** -self.graph.n)
        self.stats.wall_ms = int((time.perf_counter() - start) * 1000)
        return self.stats

    def _emit(self) -> None:
        # _node has just checked that every label is final.
        self.sink(tuple(self.grdf.labels))
        self.stats.solutions += 1
        self.stats.max_gap = max(self.stats.max_gap, self._gap)
        self._gap = 0

    def _node(self, parent_measure: float | None, last_priority: int) -> None:
        """Visit one search node (``parent_measure`` only when asserting)."""
        self.stats.tree_nodes += 1
        if self.grdf.is_complete():
            self._emit()
            return
        self._gap += 1
        adj = self.graph.adj
        picked = pick_branch_vertex(adj, self.grdf)
        if picked is None:
            raise AssertionError("incomplete state with no branch vertex")
        v, priority = picked
        if priority > last_priority:
            key = f"{last_priority}->{priority}"
            self.stats.phase_transitions[key] = (
                self.stats.phase_transitions.get(key, 0) + 1
            )
            if self.assert_invariants:
                for done in range(max(last_priority, 1), priority):
                    assert check_phase_properties(adj, self.grdf, done), (
                        f"phase {done} properties violated"
                    )
        labels = self.grdf.labels
        counts = self.counts
        fires = self.stats.rule_fires
        old = labels[v]
        # The all-active root is no fixpoint if some vertex is isolated, so
        # its children pend every vertex.
        seed = (v, old) if last_priority else None
        for deny in (False, True):
            if deny:
                branch_deny_two(self.grdf, v)
            else:
                branch_set_two(self.grdf, v)
                for u in (v, *adj[v]):
                    counts[u] += 1
            trace = apply_reductions(adj, self.grdf, counts, seed)
            for step in trace.steps:
                fires[step[0]] = fires.get(step[0], 0) + 1
            # A deny keeps the 2-set and the counts of the parent, which
            # passed the test; by I2 no 1 is next to a 2 at a fixpoint, so
            # the solver's saturation step changes nothing either.
            alive = deny or self._private_near(v)
            child_measure = None
            if self.assert_invariants:
                bad = violated_invariants(adj, labels)
                assert not bad, f"invariants {bad} violated after reductions"
                assert check_phase_properties(adj, self.grdf, 0), (
                    "fixpoint edge conditions violated"
                )
                child_measure = measure(self.grdf)
                assert parent_measure is None or child_measure < parent_measure
                assert alive == (
                    gen_ext_rd(project_grdf(self.graph, self.grdf)) is not None
                ), "local extension test disagrees with the solver"
            if alive:
                self._node(child_measure, priority)
            else:
                self.stats.prunes += 1
            undo(trace, self.grdf)
            labels[v] = old
            if not deny:
                for u in (v, *adj[v]):
                    counts[u] -= 1

    def _private_near(self, b: int) -> bool:
        """The extension test after setting b to 2, from the parent's pass.

        Only 2-vertices within distance 2 of b can have lost their last
        private neighbor (a neighbor with count 1), and b needs one too.
        """
        adj = self.graph.adj
        labels = self.grdf.labels
        counts = self.counts
        for x in (b, *adj[b]):
            for v in (x, *adj[x]):
                if labels[v] == 2 and not any(counts[u] == 1 for u in adj[v]):
                    return False
        return True


def enumerate_minimal_rdf_refined(g: Graph, sink: Sink, *,
                                  assert_invariants: bool = False
                                  ) -> EnumStats:
    """Deliver every minimal rdf of ``g`` exactly once; see module docs."""
    return RefinedEnumerator(g, sink,
                             assert_invariants=assert_invariants).run()
