"""Branch-and-reduce enumeration of all minimal rdfs.

The search labels vertices with five-valued promises (see :mod:`.grdf`),
alternating binary branching ("this vertex gets 2" / "it does not") with
an exhaustive reduction pass, and prunes any branch whose state the
extension solver proves dead.  This delivers every minimal rdf exactly
once, with polynomial delay (at most 2n inner nodes between outputs) and
polynomial space: label changes are undone on backtracking, and no
solution is ever stored.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from .extension import gen_ext_rd, project_grdf
from .graph import Graph
from .grdf import (ACTIVE, NOT_ONE, NOT_TWO, Grdf, measure,
                   violated_invariants)
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


def _relabel(trace: ReductionTrace, grdf: Grdf, rule: str, v: int,
             new: int) -> None:
    trace.steps.append((rule, v, grdf.labels[v], new))
    grdf.labels[v] = new


def _apply_one_rule(adj: Adjacency, grdf: Grdf,
                    trace: ReductionTrace) -> bool:
    """Apply the first applicable rule instance; True if anything changed."""
    labels = grdf.labels
    n = len(labels)

    # Last potential private neighbor: a 2-vertex with a single remaining
    # candidate (active or not-2) must claim it as its 0-valued private
    # neighbor.
    for v in range(n):
        if labels[v] != 2:
            continue
        cand = [u for u in adj[v] if labels[u] in (ACTIVE, NOT_TWO)]
        if len(cand) == 1:
            _relabel(trace, grdf, RULE_LPN, cand[0], 0)
            return True

    # A 0-vertex with a unique 2-neighbor u is u's only possible private
    # neighbor (provided u's other undecided neighbors are all dominated
    # twice); no other neighbor of the 0-vertex may take the value 2.
    for v in range(n):
        if labels[v] != 0:
            continue
        twos = [u for u in adj[v] if labels[u] == 2]
        if len(twos) != 1:
            continue
        u = twos[0]
        side_ok = all(
            sum(1 for y in adj[x] if labels[y] == 2) >= 2
            for x in adj[u]
            if x != v and labels[x] in (0, NOT_ONE, NOT_TWO)
        )
        if not side_ok:
            continue
        targets = [w for w in sorted(adj[v]) if labels[w] in (ACTIVE, NOT_ONE)]
        if targets:
            for w in targets:
                _relabel(trace, grdf, RULE_V0, w,
                         NOT_TWO if labels[w] == ACTIVE else 0)
            return True

    # Neighbors of a 1-vertex can never be 2.
    for v in range(n):
        if labels[v] != 1:
            continue
        targets = [w for w in sorted(adj[v]) if labels[w] in (ACTIVE, NOT_ONE)]
        if targets:
            for w in targets:
                _relabel(trace, grdf, RULE_V1, w,
                         NOT_TWO if labels[w] == ACTIVE else 0)
            return True

    # Neighbors of a 2-vertex can never be 1.
    for v in range(n):
        if labels[v] != 2:
            continue
        targets = [w for w in sorted(adj[v]) if labels[w] in (ACTIVE, NOT_TWO)]
        if targets:
            for w in targets:
                _relabel(trace, grdf, RULE_V2, w,
                         NOT_ONE if labels[w] == ACTIVE else 0)
            return True

    # No potential domination: a not-2 vertex whose neighbors can never
    # take the value 2 cannot become 0, so it must be 1.
    for v in range(n):
        if labels[v] == NOT_TWO and all(
            labels[u] in (NOT_TWO, 0, 1) for u in adj[v]
        ):
            _relabel(trace, grdf, RULE_NPD, v, 1)
            return True

    # No private neighbor: an active vertex whose whole neighborhood is
    # already dominated cannot usefully take the value 2.
    for v in range(n):
        if labels[v] == ACTIVE and all(
            labels[u] in (0, NOT_ONE) for u in adj[v]
        ):
            _relabel(trace, grdf, RULE_NPN, v, NOT_TWO)
            return True

    # Once nothing is active, a not-1 vertex with no not-2 neighbor has
    # nothing left to dominate, so it cannot be 2.
    if not any(x == ACTIVE for x in labels):
        for v in range(n):
            if labels[v] == NOT_ONE and not any(
                labels[u] == NOT_TWO for u in adj[v]
            ):
                _relabel(trace, grdf, RULE_ISOLATE, v, 0)
                return True

    # The paper's Edges rule (delete every edge between two vertices that
    # can never be 2) is omitted, so the working graph is the input graph:
    # every reader of a never-2 vertex's neighborhood filters it by label,
    # and its never-2 neighbors fail every such filter alike, so deleting
    # those edges would never change a decision.
    return False


def apply_reductions(adj: Adjacency, grdf: Grdf) -> ReductionTrace:
    """Run the reduction rules to fixpoint (relabels the grdf; reads adj).

    Rules are scanned in a fixed order and the scan restarts from the top
    after every application.  Returns the trace needed to undo the
    relabelings.
    """
    trace = ReductionTrace()
    while _apply_one_rule(adj, grdf, trace):
        pass
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
        self.sink(self.grdf.assignment())
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
        for deny in (False, True):
            old = self.grdf.labels[v]
            if deny:
                branch_deny_two(self.grdf, v)
            else:
                branch_set_two(self.grdf, v)
            trace = apply_reductions(adj, self.grdf)
            child_measure = None
            if self.assert_invariants:
                bad = violated_invariants(adj, self.grdf.labels)
                assert not bad, f"invariants {bad} violated after reductions"
                assert check_phase_properties(adj, self.grdf, 0), (
                    "fixpoint edge conditions violated"
                )
                child_measure = measure(self.grdf)
                assert parent_measure is None or child_measure < parent_measure
            if gen_ext_rd(project_grdf(self.graph, self.grdf)) is not None:
                self._node(child_measure, priority)
            undo(trace, self.grdf)
            self.grdf.labels[v] = old


def enumerate_minimal_rdf_refined(g: Graph, sink: Sink, *,
                                  assert_invariants: bool = False
                                  ) -> EnumStats:
    """Deliver every minimal rdf of ``g`` exactly once; see module docs."""
    return RefinedEnumerator(g, sink,
                             assert_invariants=assert_invariants).run()
