"""Metamorphic laws past the oracle's n <= 12, on seeded random graphs.

A minimal rdf of a disjoint union is a pair of minimal rdfs of its parts,
so counts multiply; an isolated vertex must be 1 in a minimal rdf but may
be 1 or 2 in a PO-minimal one; and the solutions do not depend on the
vertex ids.
"""

import random

import pytest

from romandom import (Graph, enumerate_minimal_rdf_refined,
                      enumerate_minimal_rdf_simple, enumerate_po_minimal_simple,
                      gen_disjoint_union, gen_null, gen_random)

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
