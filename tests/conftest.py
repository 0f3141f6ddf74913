import networkx as nx
import pytest
from hypothesis import settings

from romandom import Graph

# Every property test draws the same examples on every run, so a failure
# repeats and the data cannot drift into passing.
settings.register_profile("fixed", derandomize=True, deadline=None)
settings.load_profile("fixed")


def nx_to_graph(nxg) -> Graph:
    nodes = sorted(nxg.nodes())
    index = {u: i for i, u in enumerate(nodes)}
    edges = [(index[u], index[v]) for u, v in nxg.edges()]
    return Graph.from_edges(len(nodes), edges)


def connected_catalog(max_n: int) -> list[Graph]:
    """Every connected graph with 1 <= n <= max_n vertices, up to isomorphism."""
    assert max_n <= 7
    out = []
    for nxg in nx.graph_atlas_g():
        if 1 <= nxg.number_of_nodes() <= max_n and nx.is_connected(nxg):
            out.append(nx_to_graph(nxg))
    return out


@pytest.fixture(scope="session")
def catalog7() -> list[Graph]:
    return connected_catalog(7)


@pytest.fixture(scope="session")
def catalog6() -> list[Graph]:
    return connected_catalog(6)


@pytest.fixture(scope="session")
def catalog5() -> list[Graph]:
    return connected_catalog(5)


@pytest.fixture
def p2() -> Graph:
    return Graph.from_edges(2, [(0, 1)])


@pytest.fixture
def c5() -> Graph:
    from romandom import gen_cycle

    return gen_cycle(5)


@pytest.fixture
def k13() -> Graph:
    from romandom import gen_star

    return gen_star(3)
