"""Branch-and-reduce enumeration of all minimal rdfs.

The search labels vertices with five-valued promises (see :mod:`.grdf`),
alternating binary branching ("this vertex gets 2" / "it does not") with
an exhaustive reduction pass, and prunes any branch whose state the
extension test proves dead, before reducing it.  This delivers every
minimal rdf exactly once, with polynomial delay (at most 2n inner nodes
between outputs) and polynomial space: label changes are undone on
backtracking, no solution is ever stored, and the open nodes wait as at
most n suspended generators on a list, not on the Python stack: a branch
leaves its vertex at 2, not-2 or 0, and none of these is branched on again.

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
    LPN (2)          leaves {active, not-2}, and x keeps one of them
    NPD (not-2)      enters {not-2, 0, 1} from {active, not-1, 2}
    NPN (active)     enters {0, not-1}
    Isolate (not-1)  leaves not-2, once nothing is active
    ===============  ============================================

and at w itself V0 (a new 0 with one 2-neighbor and a target, an active
or not-1 neighbor) or NPD (a new not-2 with no neighbor in {2, not-1,
active}).  V0 and V2 never need a neighbor's pend, as
:func:`apply_reductions` explains, and an NPD relabel (not-2 -> 1)
enables nothing: its w has no neighbor in {2, not-1, active}, and 1 is
neither a new 0 or not-2 nor in {0, not-1}.  A rule that needs its
vertex to have one candidate left (LPN) or no blocker left (NPD, and
Isolate when the last active vertex goes) is pended only where it
applies at that moment: if it applies later, the relabel that makes it
apply pends it then.  So few of a pass's tests find nothing to do, and
a pass ends once every label is final: every rule's targets are active,
not-1 or not-2.  Of the paper's rules, Edges and V1 are left out: they
never change a decision of the search (see the notes after the rules).
The extension test is local
too: the search keeps the bit sets ``once``/``twice`` of the vertices
dominated by at least one/two 2-vertices, the primitive of the subset
walk in :mod:`.enum_simple`, and only 2-vertices near a new 2 can lose
a private neighbor.  No rule changes what the test reads, so a set
child is tested before its pass, a dead one is never reduced, and a
live one's pass seeds V0 from the neighborhoods the test walked.
:func:`extension.gen_ext_rd` stays the reference: the search asserts
nothing.  The tests wrap it from outside and check it against the solver,
the measure of :mod:`.grdf`, and the state invariants and phase
properties, whose checks are test references in ``tests/support.py``.
The search has one state, ``SearchState(g, labels)``, the only store of
labels: the labels with their class bit sets and ``once``/``twice``, kept
in place and undone on backtracking (as in Knuth's "Dancing Links"), over
the graph's own neighborhood bit sets :attr:`.graph.Graph.nbr`.  So each
rule test, pend, branch pick, completeness check and privacy test is a few
operations on Python ints, not a scan, and a rule test returns its targets
as a bit set.  A 2 enters ``once``/``twice`` only through
:meth:`SearchState.add_two`.  A pass's trace is the list of its steps,
and the state counts the relabels per rule in a list, not a dict.
"""

from __future__ import annotations

import time

from .graph import Graph
from .grdf import ACTIVE, NOT_ONE, NOT_TWO
from .rdf import _DIGITS, Sink
from .stats import EnumStats

class ReductionTrace(list):
    """A reduction pass's steps (rule, vertex, old, new label), in order."""

    __slots__ = ()
    steps = property(lambda self: self)  # the trace itself


def undo(trace: ReductionTrace, state: SearchState) -> None:
    """Reverse a recorded trace, last step first (mutates the state)."""
    labels, masks = state.labels, state.masks
    for _rule, w, old, new in reversed(trace):
        masks[new] ^= 1 << w
        masks[old] |= 1 << w
        labels[w] = old


class SearchState:
    """The search's one state: a labeling of a graph with its 2-domination.

    ``labels[v]`` is the label of v (see :mod:`.grdf`) and ``masks[x]`` the
    vertices labeled x as a bit set.  Only the branch in ``_branch``,
    :func:`apply_reductions` and :func:`undo` change a label, and each
    writes both in place.  ``nbr`` and ``ball2`` are the graph's
    :attr:`~.graph.Graph.nbr` and :attr:`~.graph.Graph.ball2`, shared, not
    copied.  ``once`` and ``twice`` are the vertices with at least one and
    at least two 2-vertices in their closed neighborhood; their readers
    derive ``once & ~twice``, the vertices with exactly one, the private
    neighbors.  No rule creates a 2, so only :meth:`add_two` (for each
    initial 2 and at a set branch) and the branch's restore change them.
    ``fires[rule]`` counts the relabels of each rule (in ``_RULES`` order)
    by the passes on this state; ``1 << shift`` >= n is a pass's stride.
    """

    def __init__(self, g: Graph, labels: list[int]):
        self.labels = labels
        self.nbr, self.ball2 = g.nbr, g.ball2
        self.masks = [0] * (ACTIVE + 1)
        self.once = self.twice = 0
        self.fires = [0] * len(_RULES)
        self.shift = max(len(labels) - 1, 0).bit_length()
        for v, x in enumerate(labels):
            self.masks[x] |= 1 << v
            if x == 2:
                self.add_two(v)

    def add_two(self, v: int) -> None:
        """Count the 2 at v in ``once`` and ``twice``."""
        near = self.nbr[v] | 1 << v
        self.twice |= self.once & near
        self.once |= near


# The rules in the order they are tried.  Each applies only at a vertex
# with one particular label (LPN and V2 at 2-vertices).
_RULES = ("LPN", "V0", "V2", "NPD", "NPN", "Isolate")
_LPN, _V0, _V2, _NPD, _NPN, _ISOLATE = range(len(_RULES))


def _enabled_around(old: int, new: int, idle: bool) -> tuple:
    """(label, rule) pairs: a relabel old -> new of w pends the rule at the
    neighbors of w with that label (``idle``: nothing is active).  LPN is
    not among them: :func:`_pend_moved` pends it where it applies."""
    near = []
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

# Each rule test takes (labels, masks, nbr, c1 = once & ~twice, v) and
# returns the bit set of the vertices it relabels at v, 0 if it does not
# apply.  A target labelled ``old`` goes to ``_NEW_LABEL[rule][old]``: the
# rule's label if active, 1 for NPD's not-2 target, else 0.
_NEW_LABEL = tuple(
    tuple(label if old == ACTIVE else 1 if rule == _NPD else 0
          for old in range(ACTIVE + 1))
    for rule, label in enumerate((0, NOT_TWO, NOT_ONE, 1, NOT_TWO, 0)))


def _lpn(labels, masks, nbr, c1, v):
    # Last potential private neighbor: a 2-vertex with a single remaining
    # candidate (active or not-2) must claim it as its 0-valued private
    # neighbor.
    if labels[v] == 2:
        cand = nbr[v] & (masks[ACTIVE] | masks[NOT_TWO])
        if not cand & (cand - 1):
            return cand
    return 0


def _v0(labels, masks, nbr, c1, v):
    # A 0-vertex with a unique 2-neighbor u is u's only possible private
    # neighbor (provided u's other undecided neighbors are all dominated
    # twice); no other neighbor of the 0-vertex may take the value 2.
    # A blocker next to the 2-vertex u is dominated by u, so outside c1
    # it is dominated twice.
    if labels[v] != 0 or not c1 >> v & 1:
        return 0
    near = nbr[v]
    if not near & (masks[ACTIVE] | masks[NOT_ONE]):
        return 0
    u = (near & masks[2]).bit_length() - 1
    if nbr[u] & (masks[0] | masks[NOT_ONE] | masks[NOT_TWO]) & c1 & ~(1 << v):
        return 0
    return near & (masks[ACTIVE] | masks[NOT_ONE])


def _v2(labels, masks, nbr, c1, v):
    # Neighbors of a 2-vertex can never be 1.
    return (nbr[v] & (masks[ACTIVE] | masks[NOT_TWO]) if labels[v] == 2
            else 0)


def _npd(labels, masks, nbr, c1, v):
    # No potential domination: a not-2 vertex whose neighbors can never
    # take the value 2 cannot become 0, so it must be 1.
    if labels[v] == NOT_TWO and not nbr[v] & (masks[2] | masks[NOT_ONE]
                                              | masks[ACTIVE]):
        return 1 << v
    return 0


def _npn(labels, masks, nbr, c1, v):
    # No private neighbor: an active vertex whose whole neighborhood is
    # already dominated cannot usefully take the value 2.
    if labels[v] == ACTIVE and not nbr[v] & (masks[1] | masks[2]
                                             | masks[NOT_TWO] | masks[ACTIVE]):
        return 1 << v
    return 0


def _isolate(labels, masks, nbr, c1, v):
    # Once nothing is active (the engine pends this rule only then), a
    # not-1 vertex with no not-2 neighbor has nothing left to dominate, so
    # it cannot be 2.
    if labels[v] == NOT_ONE and not nbr[v] & masks[NOT_TWO]:
        return 1 << v
    return 0


_TESTS = (_lpn, _v0, _v2, _npd, _npn, _isolate)

# The paper's Edges rule (delete every edge between two vertices that can
# never be 2) is omitted, so the working graph is the input graph: every
# reader of a never-2 vertex's neighborhood filters it by label, and its
# never-2 neighbors fail every such filter alike, so deleting those edges
# would never change a decision.  Its V1 rule (the neighbors of a 1 can
# never be 2) is omitted too: a 1 comes only from NPD, whose neighbors
# are all in {not-2, 0, 1}, labels only fall, and the all-active root has
# no 1, so no reached state has a 1 next to an active or not-1 vertex
# (invariant I3).


def _pend_moved(pending: int, masks: list[int], nbr: tuple[int, ...], c1: int,
                stride: int, w: int, old: int, new: int) -> int:
    """``pending`` with what the relabel old -> new of w newly satisfies.

    Three of these pends are made only where the rule applies at once.
    The pair may apply later instead, and the relabel that makes it
    apply pends it then:

    - NPD at a new not-2 w: when its last neighbor in {2, not-1, active}
      leaves that set (a 2 never does);
    - Isolate at a not-1 x when the last active vertex goes: when x's
      last not-2 neighbor leaves not-2;
    - LPN at a 2-neighbor x of a w that leaves {active, not-2}: x's
      candidates (its neighbors in that set) only shrink, so the relabel
      that leaves it one pends it, and one that leaves none need not.
    """
    near = nbr[w]
    if old == ACTIVE and not masks[ACTIVE]:
        not_two, todo, bare = masks[NOT_TWO], masks[NOT_ONE], 0
        while todo:
            low = todo & -todo
            if not nbr[low.bit_length() - 1] & not_two:
                bare |= low
            todo ^= low
        pending |= bare << _ISOLATE * stride
    if new == NOT_TWO:
        if not near & (masks[ACTIVE] | masks[NOT_ONE] | masks[2]):
            pending |= 1 << _NPD * stride + w
    else:
        if new == 0 and c1 >> w & 1 and near & (masks[ACTIVE]
                                                 | masks[NOT_ONE]):
            pending |= 1 << _V0 * stride + w
        if old != NOT_ONE:
            # A not-1 vertex never becomes not-2, so w left {active, not-2}.
            twos = near & masks[2]
            if twos:
                open_ = masks[ACTIVE] | masks[NOT_TWO]
                while twos:
                    low = twos & -twos
                    cand = nbr[low.bit_length() - 1] & open_
                    if cand and not cand & (cand - 1):
                        pending |= low  # LPN's pairs are the lowest bits
                    twos ^= low
    for label, rule in _ENABLED_AROUND[old][new][not masks[ACTIVE]]:
        hit = near & masks[label]
        if hit:  # an OR copies the whole of ``pending``
            pending |= hit << rule * stride
    return pending


def apply_reductions(state: SearchState,
                     branch: tuple[int, int, int] | None = None
                     ) -> ReductionTrace:
    """Run the reduction rules to fixpoint (relabels the state).

    Each step applies the first rule, in the order LPN, V0, V2, NPD, NPN,
    Isolate, at the lowest vertex where it applies; any other order
    would change the search tree (see the module docs).  A step relabels
    the rule's targets, lowest first, in place, one trace step each.  A
    worklist replays this order without rescanning: the pending (rule,
    vertex) pairs, which hold every pair where the rule applies (but V2
    at a new 2, see below), form one bit set in scan order, and each
    step takes its lowest pair, dropping it if the rule does not apply.
    A relabel old -> new of w pends only what the transition newly
    satisfies, as in the module table (an NPD relabel, nothing), and the
    pass ends once no vertex is active, not-1 or not-2;
    :func:`_pend_moved` says which pends it makes only where the rule
    applies at once.

    V0 and V2 need no neighbor pend.  Their targets, the neighbors that
    may still be 2 (V0) or 1 (V2), only shrink: a vertex enters
    {active, not-1} or {active, not-2} only from active, and V0 is
    pended only at a 0-vertex with a target.
    V0's side condition at v, with u the 2-neighbor of v, needs each
    blocker x in N(u) (a 0, not-1 or not-2 vertex) to be in ``twice``;
    the 2-set is fixed here, and a rule could move a blocker out of its
    class only as not-2 -> 1, which NPD cannot do next to the 2-vertex u.

    No rule creates a 2, so ``once`` and ``twice`` stay fixed here.
    With ``branch = (b, old, near)`` the state must be a fixpoint except
    at b, just relabelled from ``old`` by a branch (a set branch has
    already called :meth:`SearchState.add_two` on b).  The branch pends
    as a relabel does.  A set branch also pends LPN at b if b has one
    open neighbor (active or not-2), and V2 if it has more.  With one,
    V2 applies too, at that neighbor alone, but LPN at b comes first in
    the scan: open neighbors only shrink, so it either sets that
    neighbor to 0 or finds none, and V2 then has no target.  With two
    or more, LPN applies only after the relabel that leaves one, which
    pends it.  It also pends V0 (with a target) at each 0-vertex of
    ``near & once & ~twice``, where ``near`` covers N(u) for each
    2-vertex u within distance 2 of b: b's 2 takes a V0 blocker away
    only in N[b], and a blocker lies in N(u).
    Otherwise every vertex is pended.  Returns the trace that undoes the
    relabelings; each firing adds its target count to ``state.fires``.
    """
    labels, masks, nbr = state.labels, state.masks, state.nbr
    c1 = state.once & ~state.twice
    shift, fires = state.shift, state.fires
    stride = 1 << shift
    low_bits = stride - 1
    trace = ReductionTrace()
    append = trace.append
    # Bit (rule << shift) + v of ``pending`` stands for the pair (rule, v).
    if branch is None:
        pending = sum(mask << rule * stride for rule, mask in enumerate((
            masks[2], masks[0] & c1, masks[2], masks[NOT_TWO],
            masks[ACTIVE], 0 if masks[ACTIVE] else masks[NOT_ONE])))
    else:
        b, old, near = branch
        pending = _pend_moved(0, masks, nbr, c1, stride, b, old, labels[b])
        if labels[b] == 2:
            open_ = nbr[b] & (masks[ACTIVE] | masks[NOT_TWO])
            if open_:
                pending |= (1 << _V2 * stride + b if open_ & (open_ - 1)
                            else 1 << _LPN * stride + b)
            cand = near & masks[0] & c1
            targets = masks[ACTIVE] | masks[NOT_ONE]
            while cand:
                low = cand & -cand
                if nbr[low.bit_length() - 1] & targets:
                    pending |= low << _V0 * stride
                cand ^= low

    while pending:
        lowest = pending & -pending
        pending ^= lowest
        bit = lowest.bit_length() - 1
        rule = bit >> shift
        targets = _TESTS[rule](labels, masks, nbr, c1, bit & low_bits)
        if not targets:
            continue
        fires[rule] += targets.bit_count()
        name, new_label = _RULES[rule], _NEW_LABEL[rule]
        while targets:
            low = targets & -targets
            targets ^= low
            w = low.bit_length() - 1
            old = labels[w]
            labels[w] = new = new_label[old]
            append((name, w, old, new))
            masks[old] ^= low
            masks[new] |= low
            if not masks[ACTIVE] | masks[NOT_ONE] | masks[NOT_TWO]:
                return trace  # every label is final: no rule has a target
            if rule != _NPD:  # an NPD relabel enables nothing
                pending = _pend_moved(pending, masks, nbr, c1, stride, w,
                                      old, new)
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


class RefinedEnumerator:
    """One enumeration run; create, then call :meth:`run` once.

    The counters go into ``stats`` (a new :class:`EnumStats` by default) as
    the search runs; :meth:`run` completes them even if the search raises,
    adding the state's ``fires`` to ``rule_fires`` in ``_RULES`` order.
    The search itself asserts nothing: the tests check every entered child
    (invariants, rebuilt state, falling measure, a solver witness), every
    pruned child (no witness after a full pass on a copy) and the phase
    properties by wrapping :func:`apply_reductions`, :meth:`_private_near`,
    :meth:`_node` and :meth:`_branch`; the invariant and phase checks they
    call live in ``tests/support.py``.
    """

    def __init__(self, g: Graph, sink: Sink, *,
                 stats: EnumStats | None = None, lines: bool = False):
        self.graph, self.sink, self.lines = g, sink, lines
        self.state = SearchState(g, [ACTIVE] * g.n)
        self.stats = EnumStats() if stats is None else stats
        self._gap = 0

    def run(self) -> EnumStats:
        start = time.perf_counter()
        try:
            self._node(last_priority=0)
        finally:
            self.stats.max_gap = max(self.stats.max_gap, self._gap)
            fires = self.stats.rule_fires
            for name, count in zip(_RULES, self.state.fires):
                if count:
                    fires[name] = fires.get(name, 0) + count
            # 1.9332 ** n overflows a float from n = 1076; 1.9332 ** -n
            # only underflows towards 0.0.
            self.stats.tree_ratio = (self.stats.tree_nodes
                                     * 1.9332 ** -self.graph.n)
            self.stats.wall_ms = int((time.perf_counter() - start) * 1000)
        return self.stats

    def _node(self, last_priority: int):
        """Visit one search node, at a reduction fixpoint but for the root:
        a leaf goes to the sink, an inner node returns its unstarted
        :meth:`_branch`, and the root's call runs the search on ``path``:
        the open nodes' branches, one per vertex branched on, so at most n."""
        stats = self.stats
        stats.tree_nodes += 1
        state = self.state
        labels, masks = state.labels, state.masks
        if not masks[ACTIVE] | masks[NOT_ONE] | masks[NOT_TWO]:
            # Every label is final: a leaf.
            self.sink(bytes(labels).translate(_DIGITS).decode() + "\n"
                      if self.lines else tuple(labels))
            stats.solutions += 1
            if self._gap > stats.max_gap:
                stats.max_gap = self._gap
            self._gap = 0
            return
        self._gap += 1
        # By I4 an incomplete fixpoint has an active or not-1 vertex.
        v, priority = pick_branch_vertex(state)
        if priority > last_priority:
            key, seen = f"{last_priority}->{priority}", stats.phase_transitions
            seen[key] = seen.get(key, 0) + 1
        if last_priority:
            return self._branch(v, priority, True)
        # The all-active root is no fixpoint if some vertex is isolated, so
        # its children pend every vertex.
        path = [self._branch(v, priority, False)]
        while path:
            below = next(path[-1], None)
            if below is None:
                path.pop()
            else:
                path.append(below)

    def _branch(self, v: int, priority: int, seeded: bool):
        """Enter the children of the node that branches on v (active or
        not-1), with v at 2, then at not-2 or 0; yield each inner child's
        branch, and go on once the caller has exhausted it, so this
        generator ends with the node's subtree.  A ``seeded`` child's pass
        starts from ``(v, old, near)``, ``near`` from the privacy test."""
        stats, state = self.stats, self.state
        labels, masks = state.labels, state.masks
        old, bit = labels[v], 1 << v
        once, twice = state.once, state.twice
        # v is active or not-1: set it to 2, then deny it the 2.
        for new in (2, NOT_TWO if old == ACTIVE else 0):
            masks[old] ^= bit
            masks[new] |= bit
            labels[v] = new
            if new == 2:
                state.add_two(v)
            # A deny keeps the parent's 2-set and once/twice, which passed
            # the test; its pass reads no near (-1).  The test reads only these
            # and nbr, which no rule changes, so it runs before the pass; by I2
            # no 1 is next to a 2 at a fixpoint, so saturation adds nothing.
            near = self._private_near(v) if new == 2 else -1
            if near:
                trace = apply_reductions(state, (v, old, near) if seeded
                                         else None)
                below = self._node(priority)
                if below is not None:
                    yield below
                undo(trace, state)
            else:
                stats.prunes += 1
            masks[new] ^= bit
            masks[old] |= bit
            labels[v] = old
            state.once, state.twice = once, twice

    def _private_near(self, b: int) -> int:
        """The extension test after setting b to 2, from the parent's pass.

        Only the 2-vertices u within distance 2 of b can have lost their
        last private neighbor (one in ``once & ~twice``), and b needs one
        too.  Returns 0 if one has none, else their N(u) joined (not 0).
        """
        state = self.state
        nbr, c1 = state.nbr, state.once & ~state.twice
        twos, near = state.ball2[b] & state.masks[2], 0
        while twos:
            low = twos & -twos
            around = nbr[low.bit_length() - 1]
            if not around & c1:
                return 0
            near |= around
            twos ^= low
        return near


def enumerate_minimal_rdf_refined(g: Graph, sink: Sink, *,
                                  stats: EnumStats | None = None,
                                  lines: bool = False) -> EnumStats:
    """Deliver every minimal rdf of ``g`` exactly once; see module docs.
    ``lines`` is as for :func:`.enum_simple.enumerate_minimal_rdf_simple`."""
    return RefinedEnumerator(g, sink, stats=stats, lines=lines).run()
