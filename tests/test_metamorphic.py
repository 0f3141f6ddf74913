"""Metamorphic laws past the oracle's n <= 12, on seeded random graphs.

A minimal rdf of a disjoint union is a pair of minimal rdfs of its parts,
so counts multiply; an isolated vertex must be 1 in a minimal rdf but may
be 1 or 2 in a PO-minimal one; and the solutions do not depend on the
vertex ids.  Past the cap too, the counts on paths and cycles are pinned
and follow one linear recurrence.
"""

import random

import pytest

from romandom import (Graph, enumerate_minimal_rdf_refined,
                      enumerate_minimal_rdf_simple, enumerate_po_minimal_simple,
                      gen_cycle, gen_disjoint_union, gen_null, gen_random)

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
