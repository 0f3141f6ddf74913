import hashlib

import networkx as nx
import pytest

import romandom.oracle as oracle
from romandom import Graph, brute_minimal_rdfs, gen_null, gen_star
from romandom.oracle import CAP, OracleCapExceeded
from romandom.rdf import format_assignment
from support import brute_ext


def _strings(g, order="standard"):
    return [format_assignment(f) for f in brute_minimal_rdfs(g, order=order)]


def test_p2_standard(p2):
    assert _strings(p2) == ["02", "11", "20"]


def test_c5_count(c5):
    assert len(list(brute_minimal_rdfs(c5))) == 16


def test_k1_standard():
    assert _strings(gen_null(1)) == ["1"]


def test_null2_po():
    assert _strings(gen_null(2), order="po") == ["11", "12", "21", "22"]


def test_null_po_counts():
    for n in range(1, 6):
        assert len(list(brute_minimal_rdfs(gen_null(n), order="po"))) == 2 ** n


def test_star_po_counts():
    for n in range(2, 7):
        assert (len(list(brute_minimal_rdfs(gen_star(n), order="po")))
                == 2 ** n + 1)


def test_output_sorted(c5):
    out = _strings(c5)
    assert out == sorted(out)
    assert len(set(out)) == len(out)


def test_cap_refusal(monkeypatch):
    # the boundary at the real cap, without running the 3^12 assignments
    assert CAP == 12
    monkeypatch.setattr(oracle, "product", lambda *args, **kwargs: ())
    assert list(brute_minimal_rdfs(gen_null(12))) == []
    with pytest.raises(OracleCapExceeded, match="n=13 exceeds cap=12"):
        brute_minimal_rdfs(gen_null(13))


def test_atlas_digest_up_to_order_6():
    # Pins the oracle's output, in both orders and its order, on all 209
    # graphs of order <= 6 in the networkx atlas, disconnected ones and
    # the empty graph included.
    digest = hashlib.sha256()
    for x in nx.graph_atlas_g():
        if x.number_of_nodes() > 6:
            continue
        g = Graph.from_edges(x.number_of_nodes(), x.edges())
        for order in ("standard", "po"):
            line = ",".join(format_assignment(f)
                            for f in brute_minimal_rdfs(g, order))
            digest.update(f"{order}:{line};".encode())
    assert digest.hexdigest() == (
        "5e220336cfb794864f2670f8330e9b3fbf7f2e76fcc643c7ba460d56b58c5abb")


def test_bad_order(p2):
    with pytest.raises(ValueError):
        brute_minimal_rdfs(p2, order="lex")


def test_brute_ext_examples(p2):
    assert not brute_ext(p2, (1, 2))
    assert brute_ext(p2, (0, 0))
    assert brute_ext(p2, (0, 0), forbidden={0, 1})
    assert not brute_ext(p2, (2, 2), order="po")


def test_brute_ext_precomputed_list(p2):
    minimal = list(brute_minimal_rdfs(p2))
    assert brute_ext(p2, (2, 0), minimal=minimal)
    assert not brute_ext(p2, (2, 0), forbidden={0}, minimal=minimal)
