import json

import pytest

from romandom import gen_cycle, to_edge_list
from romandom.cli import main


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.edges"
    path.write_text(to_edge_list(gen_cycle(5)))
    return str(path)


@pytest.fixture
def p2_file(tmp_path):
    path = tmp_path / "p2.edges"
    path.write_text("2 1\n0 1\n")
    return str(path)


def _lines(capsys):
    return capsys.readouterr().out.splitlines()


def test_enumerate_count_refined(c5_file, capsys):
    assert main(["enumerate", c5_file, "--mode", "refined",
                 "--count-only"]) == 0
    assert _lines(capsys) == ["16"]


def test_enumerate_modes_agree(c5_file, capsys):
    outputs = []
    for mode in ("simple", "refined", "oracle"):
        assert main(["enumerate", c5_file, "--mode", mode, "--sorted"]) == 0
        outputs.append(_lines(capsys))
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0]) == 16


def test_enumerate_po_star_count(tmp_path, capsys):
    path = tmp_path / "k13.edges"
    path.write_text("4 3\n0 1\n0 2\n0 3\n")
    assert main(["enumerate", str(path), "--mode", "simple", "--order", "po",
                 "--count-only"]) == 0
    assert _lines(capsys) == ["9"]


def test_enumerate_order_zero(tmp_path, capsys):
    path = tmp_path / "empty.edges"
    path.write_text("0 0\n")
    assert main(["enumerate", str(path), "--count-only"]) == 0
    assert _lines(capsys) == ["1"]
    assert main(["enumerate", str(path)]) == 0
    assert capsys.readouterr().out == "\n"


def test_enumerate_refined_po_rejected(c5_file, capsys):
    assert main(["enumerate", c5_file, "--mode", "refined",
                 "--order", "po"]) == 2
    assert "standard order only" in capsys.readouterr().err


def test_enumerate_stats_json(c5_file, capsys):
    assert main(["enumerate", c5_file, "--count-only", "--stats",
                 "json"]) == 0
    captured = capsys.readouterr()
    stats = json.loads(captured.err)
    assert stats["solutions"] == 16
    assert set(stats) == {"solutions", "tree_nodes", "max_gap", "wall_ms"}


def test_enumerate_missing_file(capsys):
    assert main(["enumerate", "/nonexistent/g.edges"]) == 2
    assert "error:" in capsys.readouterr().err


def test_extend_no(p2_file, capsys):
    assert main(["extend", p2_file, "12"]) == 1
    assert _lines(capsys) == ["NO"]


def test_extend_yes(p2_file, capsys):
    assert main(["extend", p2_file, "00"]) == 0
    out = _lines(capsys)
    assert len(out) == 1 and out[0].startswith("YES ")


def test_extend_forbidden_witness(p2_file, capsys):
    assert main(["extend", p2_file, "00", "--forbidden", "0,1"]) == 0
    assert _lines(capsys) == ["YES 11"]


def test_extend_bad_assignment(p2_file, capsys):
    assert main(["extend", p2_file, "012"]) == 2


def test_extend_bad_forbidden(p2_file, capsys):
    assert main(["extend", p2_file, "00", "--forbidden", "7"]) == 2
    assert main(["extend", p2_file, "00", "--forbidden", "x"]) == 2


def test_check_minimal(c5_file, capsys):
    assert main(["check", c5_file, "20200"]) == 0
    assert _lines(capsys) == ["minimal: all conditions pass"]


def test_check_failures(p2_file, capsys):
    assert main(["check", p2_file, "22"]) == 1
    out = capsys.readouterr().out
    assert "privacy condition" in out
    assert main(["check", p2_file, "12"]) == 1
    assert "N[V2]" in capsys.readouterr().out


def test_gen_c5pow(capsys):
    assert main(["gen", "c5pow", "2"]) == 0
    header = _lines(capsys)[0]
    assert header == "10 10"


def test_gen_star(capsys):
    assert main(["gen", "star", "4"]) == 0
    assert _lines(capsys)[0] == "5 4"


def test_gen_random_deterministic(capsys):
    assert main(["gen", "random", "20", "0.2", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "random", "20", "0.2", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first


def test_gen_bad_params(capsys):
    assert main(["gen", "cycle", "2"]) == 2
    assert main(["gen", "cycle"]) == 2


def test_bench_csv(capsys):
    assert main(["bench", "--family", "c5pow:1:2",
                 "--modes", "simple,refined"]) == 0
    rows = _lines(capsys)
    assert rows[0] == "n,mode,solutions,tree_nodes,max_gap,wall_ms"
    cells = [row.split(",") for row in rows[1:]]
    assert [(c[0], c[1], c[2]) for c in cells] == [
        ("5", "simple", "16"), ("5", "refined", "16"),
        ("10", "simple", "256"), ("10", "refined", "256"),
    ]


def test_bench_empty_modes(capsys):
    assert main(["bench", "--family", "c5pow:1:1", "--modes", ""]) == 2


def test_bench_bad_family(capsys):
    assert main(["bench", "--family", "c5pow", "--modes", "simple"]) == 2
    assert main(["bench", "--family", "tree:1:2", "--modes", "simple"]) == 2
    assert main(["bench", "--family", "c5pow:a:3", "--modes", "simple"]) == 2
    assert main(["bench", "--family", "cycle:1:3", "--modes", "simple"]) == 2
