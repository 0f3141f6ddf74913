import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import romandom
from romandom import gen_c5_copies, gen_cycle, gen_star, to_edge_list
from romandom.cli import build_parser, main


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
    # the empty root is a leaf: one node, and 1 / 1.9332^0 = 1.0
    assert main(["enumerate", str(path), "--stats", "json"]) == 0
    stats = json.loads(capsys.readouterr().err)
    assert (stats["solutions"], stats["tree_nodes"], stats["tree_ratio"]) == (
        1, 1, 1.0)


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
    assert set(stats) == {"solutions", "tree_nodes", "max_gap", "wall_ms",
                          "phase_transitions", "tree_ratio", "rule_fires",
                          "prunes"}
    assert sum(stats["rule_fires"].values()) > 0
    assert sum(stats["phase_transitions"].values()) > 0
    assert stats["tree_ratio"] == pytest.approx(
        stats["tree_nodes"] / 1.9332 ** 5)


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(romandom.__file__).parents[1]), env.get("PYTHONPATH", "")])
    return env


def _start_enumerate_c5pow4(tmp_path, *options):
    # 16^4 lines overflow the pipe buffer, so the run outlasts the reader
    path = tmp_path / "c5pow4.edges"
    path.write_text(to_edge_list(gen_c5_copies(4)))
    return subprocess.Popen(
        [sys.executable, "-m", "romandom.cli", "enumerate", str(path),
         *options],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env())


def test_enumerate_closed_stdout_exits_quietly(tmp_path):
    with _start_enumerate_c5pow4(tmp_path) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert len(first.strip()) == 20
    assert b"Traceback" not in err and b"Error" not in err, err


def test_enumerate_interrupt_exits_130(tmp_path):
    proc = _start_enumerate_c5pow4(tmp_path)
    first = proc.stdout.readline()
    proc.send_signal(signal.SIGINT)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 130
    assert len(first.strip()) == 20
    assert err.strip() == b"interrupted", err


@pytest.mark.parametrize("mode", ["refined", "simple"])
def test_enumerate_interrupt_prints_partial_stats(tmp_path, mode):
    with _start_enumerate_c5pow4(tmp_path, "--mode", mode,
                                 "--stats", "json") as proc:
        first = proc.stdout.readline()
        proc.send_signal(signal.SIGINT)
        # Read through proc.stdout: readline may have buffered more lines.
        rest, err = proc.stdout.read(), proc.stderr.read()
        assert proc.wait(timeout=60) == 130
    assert b"Traceback" not in err, err
    *_, stats_line, last = err.splitlines()
    assert last == b"interrupted"
    stats = json.loads(stats_line)
    # The line being written when Ctrl-C came is not counted yet.
    written = (first + rest).count(b"\n")
    assert stats["solutions"] <= written <= stats["solutions"] + 1
    assert stats["solutions"] < 16 ** 4
    assert stats["tree_nodes"] >= stats["solutions"]
    assert stats["max_gap"] >= 1


@pytest.mark.parametrize("argv", [
    ["enumerate", "{path}", "--mode", "refined"],
    ["bench", "--family", "star:400:400", "--modes", "refined"],
])
def test_refined_deeper_than_recursion_limit_exits_2(tmp_path, argv):
    path = tmp_path / "star400.edges"
    path.write_text(to_edge_list(gen_star(400)))
    code = ("import sys; sys.setrecursionlimit(300); "
            "from romandom.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", code,
         *[arg.format(path=path) for arg in argv]],
        capture_output=True, env=_cli_env(), timeout=60)
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stderr, proc.stderr
    assert proc.stderr.startswith(b"error: refined search on 401 vertices")
    assert proc.stderr.strip().endswith(b"use --mode simple")


def test_parser_reuse_leaks_nothing_between_calls(c5_file, p2_file, capsys):
    build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["enumerate"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: romandom enumerate")
    assert "required: graph" in err
    assert main(["enumerate", "/nonexistent/g.edges"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot read")
    assert main(["enumerate", p2_file, "--count-only"]) == 0
    assert capsys.readouterr() == ("3\n", "")
    assert main(["enumerate", p2_file, "--sorted"]) == 0
    assert capsys.readouterr() == ("02\n11\n20\n", "")
    # Raising the 1 next to the 2 is what the forbidden vertex 1 blocks.
    assert main(["extend", c5_file, "01200", "--forbidden", "1"]) == 1
    assert capsys.readouterr() == ("NO\n", "")
    assert main(["extend", c5_file, "01200"]) == 0
    assert capsys.readouterr() == ("YES 02201\n", "")
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 5)


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


def test_extend_po_yes(p2_file, capsys):
    assert main(["extend", p2_file, "00", "--order", "po"]) == 0
    assert _lines(capsys) == ["YES 11"]


def test_extend_po_no(p2_file, capsys):
    # under the PO order the 1 next to the 2 can never be raised
    assert main(["extend", p2_file, "12", "--order", "po"]) == 1
    assert _lines(capsys) == ["NO"]


def test_extend_po_forbidden_witness(p2_file, capsys):
    assert main(["extend", p2_file, "20", "--order", "po",
                 "--forbidden", "1"]) == 0
    assert _lines(capsys) == ["YES 20"]


@pytest.mark.parametrize("order", ["standard", "po"])
def test_extend_forbidden_meets_two_set(p2_file, capsys, order):
    assert main(["extend", p2_file, "20", "--order", order,
                 "--forbidden", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_extend_bad_assignment(p2_file, capsys):
    assert main(["extend", p2_file, "012"]) == 2


def test_extend_bad_forbidden(p2_file, capsys):
    assert main(["extend", p2_file, "00", "--forbidden", "7"]) == 2
    err = capsys.readouterr().err
    assert "must lie in" in err and "[7]" in err
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
    # an empty range is a usage error, not a bare header
    capsys.readouterr()
    assert main(["bench", "--family", "c5pow:3:1", "--modes", "simple"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "empty family range 3..1" in err


def test_bench_oracle_above_cap_rejected_before_output(capsys):
    # c5pow:1:3 reaches n = 15; no row may go out before the refusal
    assert main(["bench", "--family", "c5pow:1:3",
                 "--modes", "simple,oracle"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "n=15 exceeds cap=12" in err


def test_bench_refined_po_rejected_before_output(capsys):
    # the simple row must not go out before refined is refused
    assert main(["bench", "--family", "c5pow:1:2", "--modes", "simple,refined",
                 "--order", "po"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "standard order only" in err
