"""Metamorphic laws past the oracle's n <= 12, on seeded random graphs.

A minimal rdf of a disjoint union is a pair of minimal rdfs of its parts,
so counts multiply; an isolated vertex must be 1 in a minimal rdf but may
be 1 or 2 in a PO-minimal one; and the solutions do not depend on the
vertex ids.  Past the cap too, the counts on paths and cycles are pinned
and follow one linear recurrence, and a state machine that counts
without listing matches the walk on paths, cycles and trees.
"""

import random

import networkx as nx
import pytest

from romandom import (Graph, enumerate_minimal_rdf_refined,
                      enumerate_minimal_rdf_simple, enumerate_po_minimal_simple,
                      gen_c5_copies, gen_cycle, gen_disjoint_union, gen_null,
                      gen_random)

ENUMERATORS = {
    "refined": enumerate_minimal_rdf_refined,
    "sweep": enumerate_minimal_rdf_simple,
    "po": enumerate_po_minimal_simple,
}


def _count(name, g):
    return ENUMERATORS[name](g, lambda f: None).solutions


@pytest.mark.parametrize("name", list(ENUMERATORS))
@pytest.mark.parametrize("n1, n2, p, seed", [
    (8, 8, 0.3, 1), (9, 9, 0.35, 2), (7, 12, 0.25, 3), (10, 10, 0.4, 4),
])
def test_product_law(name, n1, n2, p, seed):
    g, h = gen_random(n1, p, seed), gen_random(n2, p, seed + 100)
    union = gen_disjoint_union([g, h])
    assert _count(name, union) == _count(name, g) * _count(name, h)


@pytest.mark.parametrize("n, p, seed", [(15, 0.2, 5), (15, 0.3, 6)])
def test_isolated_vertex(n, p, seed):
    g = gen_random(n, p, seed)
    plus = gen_disjoint_union([g, gen_null(1)])
    assert _count("refined", plus) == _count("refined", g)
    assert _count("sweep", plus) == _count("sweep", g)
    assert _count("po", plus) == 2 * _count("po", g)


def test_relabelling_permutes_refined_solutions():
    g = gen_random(14, 0.25, 11)
    perm = list(range(g.n))
    random.Random(12).shuffle(perm)
    moved = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    out, moved_out = [], []
    enumerate_minimal_rdf_refined(g, out.append)
    enumerate_minimal_rdf_refined(moved, moved_out.append)
    expected = set()
    for f in out:
        image = [0] * g.n
        for v, x in enumerate(f):
            image[perm[v]] = x
        expected.add(tuple(image))
    assert len(moved_out) == len(set(moved_out)) == len(out)
    assert set(moved_out) == expected


# The number of minimal rdfs of the path P_n, n = 1..20, and of the cycle
# C_n, n = 3..20.
PATH_COUNTS = {n: a for n, a in enumerate((
    1, 3, 4, 7, 12, 20, 34, 57, 96, 162, 273, 460, 775, 1306, 2201, 3709,
    6250, 10532, 17748, 29908), start=1)}
CYCLE_COUNTS = {n: a for n, a in enumerate((
    4, 9, 16, 22, 36, 65, 112, 186, 309, 522, 885, 1492, 2509, 4225, 7124,
    12010, 20236, 34094), start=3)}


def _path(n):
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


@pytest.mark.parametrize("name, top", [("sweep", 20), ("refined", 16)])
def test_path_and_cycle_counts(name, top):
    # refined takes about ten times the walk's time: it stops at n = 16
    for n in range(1, top + 1):
        assert _count(name, _path(n)) == PATH_COUNTS[n], n
    for n in range(3, top + 1):
        assert _count(name, gen_cycle(n)) == CYCLE_COUNTS[n], n


@pytest.mark.parametrize("counts", [PATH_COUNTS, CYCLE_COUNTS],
                         ids=["path", "cycle"])
def test_path_and_cycle_counts_recurrence(counts):
    for n in range(8, max(counts) + 1):
        assert counts[n] == (counts[n - 1] + counts[n - 3] + counts[n - 4]
                             + counts[n - 5]), n


# A left-to-right state machine that counts minimal rdfs without listing
# them.  A minimal rdf puts no 1 next to a 2, gives every 0 a 2-neighbour,
# and gives every 2 a private 0-neighbour, one with no other 2-neighbour.
# Reading a path from the left, a vertex's state is its value and what its
# left side has settled:
#   "1"   a 1;
#   "0"   a 0 with no 2 on its left: it needs a 2 on its right, and is
#         that 2's private neighbour;
#   "0+"  a 0 with a 2 on its left that needs nothing more from it;
#   "0*"  a 0 that the 2 on its left still needs as its private
#         neighbour: the right may not be a 2;
#   "2+"  a 2 whose private neighbour is on its left;
#   "2*"  a 2 that still needs its right neighbour as its private one.
# STEP[s][y] is the state of the next vertex, valued y, after a vertex in
# state s; a missing entry breaks a condition.
STEP = {
    "1": {0: "0", 1: "1"},
    "0": {2: "2+"},
    "0+": {0: "0", 1: "1", 2: "2*"},
    "0*": {0: "0", 1: "1"},
    "2+": {0: "0+", 2: "2*"},
    "2*": {0: "0*"},
}
FIRST = {0: "0", 1: "1", 2: "2*"}  # a vertex with nothing on its left
DONE = {"1", "0+", "0*", "2+"}  # may end a path: nothing owed to the right


def _step(counts):
    out = dict.fromkeys(STEP, 0)
    for s, k in counts.items():
        for t in STEP[s].values():
            out[t] += k
    return out


def machine_path_counts(top):
    """[count(P_1), ..., count(P_top)] in one left-to-right pass."""
    counts = dict.fromkeys(STEP, 0)
    for s in FIRST.values():
        counts[s] += 1
    out = []
    for _ in range(top):
        out.append(sum(counts[s] for s in DONE))
        counts = _step(counts)
    return out


def machine_cycle_counts(top):
    """{n: count(C_n)} for 3 <= n <= top: the walks that start in some
    state at vertex 0 and, n steps on, come back to vertex 0 in it."""
    walks = {s: {t: int(t == s) for t in STEP} for s in STEP}
    out = {}
    for n in range(1, top + 1):
        walks = {s: _step(w) for s, w in walks.items()}
        out[n] = sum(w[s] for s, w in walks.items())
    return {n: a for n, a in out.items() if n >= 3}


def _merge(x, a, b):
    # one vertex valued x, in state a from some of its children and b from
    # the others: a 0 owed by one 2-child may have no other 2-neighbour
    if x == 0:
        if "0" in (a, b):
            return b if a == "0" else a
        return None if "0*" in (a, b) else "0+"
    if x == 2:
        return "2+" if "2+" in (a, b) else "2*"
    return "1"


def machine_tree_count(adj):
    """The same states in a DP rooted at vertex 0: a vertex's children are
    its left, and each child steps into it as on a path."""
    def table(v, parent):
        kids = [table(u, v) for u in adj[v] if u != parent]
        out = {}
        for x, first in FIRST.items():
            part = {first: 1}
            for kid in kids:
                merged = {}
                for a, k in part.items():
                    for s, m in kid.items():
                        t = STEP[s].get(x)
                        b = t and _merge(x, a, t)
                        if b:
                            merged[b] = merged.get(b, 0) + k * m
                part = merged
            for s, k in part.items():
                out[s] = out.get(s, 0) + k
        return out

    return sum(k for s, k in table(0, None).items() if s in DONE)


def test_machine_matches_the_walk_on_paths_and_cycles():
    # to n = 20 through the walk's pinned counts, past them by the walk
    paths, cycles = machine_path_counts(24), machine_cycle_counts(24)
    assert paths[:20] == list(PATH_COUNTS.values())
    assert {n: cycles[n] for n in CYCLE_COUNTS} == CYCLE_COUNTS
    for n in range(21, 25):
        assert _count("sweep", _path(n)) == paths[n - 1], n
        assert _count("sweep", gen_cycle(n)) == cycles[n], n


def test_machine_matches_the_walk_on_trees():
    for n in range(1, 11):
        for tree in nx.nonisomorphic_trees(n):
            g = Graph.from_edges(n, list(tree.edges()))
            assert machine_tree_count(g.adj) == _count("sweep", g), (n, g)
    assert machine_tree_count(_path(30).adj) == machine_path_counts(30)[-1]


def test_machine_counts_obey_the_recurrence_to_1000():
    paths = [None] + machine_path_counts(1000)
    cycles = machine_cycle_counts(1000)
    for counts in (paths, cycles):
        for n in range(8, 1001):
            assert counts[n] == (counts[n - 1] + counts[n - 3]
                                 + counts[n - 4] + counts[n - 5]), n
    # exact integers: the counts at n = 1000 have 227 digits
    assert len(str(paths[1000])) == len(str(cycles[1000])) == 227


def test_machine_c5_count_gives_c5_copies_by_the_product_law():
    assert machine_cycle_counts(5)[5] == 16
    for k in range(1, 4):
        assert _count("sweep", gen_c5_copies(k)) == 16 ** k
