"""Minimal Roman dominating functions: checkers, extension solvers, enumerators.

A Roman dominating function (rdf) assigns each vertex 0, 1 or 2 so that
every 0-vertex has a 2-neighbor.  This package decides extension
questions for minimal rdfs in polynomial time and enumerates all minimal
(or PO-minimal) rdfs of a graph, with a branch-and-reduce enumerator
that guarantees polynomial delay, polynomial space and no duplicates.
"""

from .enum_refined import enumerate_minimal_rdf_refined
from .enum_simple import (enumerate_minimal_rdf_simple,
                          enumerate_po_minimal_simple)
from .extension import (ExtensionInstance, ext_po_rd, ext_rd, gen_ext_po_rd,
                        gen_ext_rd, project_grdf)
from .graph import (Graph, gen_c5_copies, gen_cycle, gen_disjoint_union,
                    gen_null, gen_random, gen_star, parse_edge_list,
                    to_edge_list)
from .oracle import brute_minimal_rdfs
from .rdf import (Assignment, format_assignment, is_minimal_rdf,
                  is_po_minimal_rdf, is_rdf, parse_assignment)
from .stats import EnumStats

__all__ = [
    "Assignment",
    "EnumStats",
    "ExtensionInstance",
    "Graph",
    "brute_minimal_rdfs",
    "enumerate_minimal_rdf_refined",
    "enumerate_minimal_rdf_simple",
    "enumerate_po_minimal_simple",
    "ext_po_rd",
    "ext_rd",
    "format_assignment",
    "gen_c5_copies",
    "gen_cycle",
    "gen_disjoint_union",
    "gen_ext_po_rd",
    "gen_ext_rd",
    "gen_null",
    "gen_random",
    "gen_star",
    "is_minimal_rdf",
    "is_po_minimal_rdf",
    "is_rdf",
    "parse_assignment",
    "parse_edge_list",
    "project_grdf",
    "to_edge_list",
]
