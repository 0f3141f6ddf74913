import dataclasses
import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import romandom
from romandom import (enumerate_minimal_rdf_simple, format_assignment,
                      gen_c5_copies, gen_cycle, gen_null, gen_star,
                      to_edge_list)
from romandom.cli import _run_enumeration, build_parser, main
from romandom.oracle import OracleCapExceeded
from support import InterruptingStdout


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
        assert main(["enumerate", c5_file, "--mode", mode]) == 0
        outputs.append(sorted(_lines(capsys)))
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
    assert main(["enumerate", str(path), "--mode", "refined",
                 "--count-only"]) == 0
    assert _lines(capsys) == ["1"]
    assert main(["enumerate", str(path), "--mode", "refined"]) == 0
    assert capsys.readouterr().out == "\n"
    # the empty root is a leaf: one node, and 1 / 1.9332^0 = 1.0
    assert main(["enumerate", str(path), "--mode", "refined", "--stats",
                 "json"]) == 0
    stats = json.loads(capsys.readouterr().err)
    assert (stats["solutions"], stats["tree_nodes"], stats["tree_ratio"]) == (
        1, 1, 1.0)


def test_enumerate_defaults_to_the_walk(tmp_path, catalog6, capsys):
    # both runs print the walk's own lines; the library walk's tuples,
    # formatted, are the reference
    path = tmp_path / "g.edges"
    for g in catalog6:
        path.write_text(to_edge_list(g))
        outputs = []
        for mode in ([], ["--mode", "simple"]):
            assert main(["enumerate", str(path), *mode]) == 0
            outputs.append(capsys.readouterr().out)
        walk = []
        enumerate_minimal_rdf_simple(g, walk.append)
        outputs.append("".join(format_assignment(f) + "\n" for f in walk))
        assert outputs[0] == outputs[1] == outputs[2]


def test_enumerate_has_no_sorted_option(c5_file, capsys):
    # enumerate only streams; sorted output is one pipe away
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", c5_file, "--sorted"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --sorted" in err


def test_enumerate_unknown_mode_exits_2(c5_file, capsys):
    # argparse's choices are the one refusal of a mode name
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", c5_file, "--mode", "foo"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid choice: 'foo'" in err


def test_bench_subcommand_is_gone(capsys):
    # enumerate is the one enumeration command; gen plus --stats json give
    # the rows bench printed
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--family", "c5pow:1:1", "--modes", "simple"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid choice: 'bench'" in err


def test_enumerate_refined_po_rejected(c5_file, capsys):
    assert main(["enumerate", c5_file, "--mode", "refined",
                 "--order", "po"]) == 2
    assert "standard order only" in capsys.readouterr().err


# What ``--stats json`` prints in every mode, and the counters that only
# the refined search fills.
_COMMON_STATS = {"solutions", "tree_nodes", "max_gap", "wall_ms"}
_REFINED_STATS = {"phase_transitions", "tree_ratio", "rule_fires", "prunes"}


# Every mode with every order it accepts.
_MODE_ORDERS = [("simple", "standard"), ("simple", "po"),
                ("oracle", "standard"), ("oracle", "po"),
                ("refined", "standard")]


@pytest.mark.parametrize("mode, order", _MODE_ORDERS)
def test_enumerate_stats_json_keys_per_mode(c5_file, capsys, mode, order):
    assert main(["enumerate", c5_file, "--mode", mode, "--order", order,
                 "--count-only", "--stats", "json"]) == 0
    out, err = capsys.readouterr()
    stats = json.loads(err)
    expected = _COMMON_STATS | (_REFINED_STATS if mode == "refined" else set())
    assert set(stats) == expected
    assert stats["solutions"] == int(out) > 0 and stats["tree_nodes"] > 0
    if mode == "oracle":
        # the 3^5 assignments the oracle examines
        assert stats["tree_nodes"] == stats["max_gap"] == 243


def test_counting_formats_no_solution(c5_file, capsys, monkeypatch):
    # --count-only asks no search for lines, and its sinks never see text;
    # the oracle, which formats its own lines, never formats one
    def refuse(f):
        raise AssertionError(f"formatted {f}")

    called = set()

    def counting(search):
        def run(g, sink, *, lines=False, **kwargs):
            assert not lines, f"{search.__name__} asked for lines"
            called.add(search.__name__)

            def checked(f):
                assert not isinstance(f, str), f"{search.__name__} sent {f!r}"
                sink(f)

            return search(g, checked, **kwargs)
        return run

    monkeypatch.setattr(romandom.cli, "format_assignment", refuse)
    for name in ("enumerate_minimal_rdf_refined",
                 "enumerate_minimal_rdf_simple",
                 "enumerate_po_minimal_simple"):
        monkeypatch.setattr(romandom.cli, name,
                            counting(getattr(romandom.cli, name)))
    for mode, order in _MODE_ORDERS:
        assert main(["enumerate", c5_file, "--mode", mode, "--order", order,
                     "--count-only"]) == 0
        assert int(capsys.readouterr().out) > 0
    assert len(called) == 3


def test_enumerate_stats_json(c5_file, capsys):
    assert main(["enumerate", c5_file, "--mode", "refined", "--count-only",
                 "--stats", "json"]) == 0
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


@pytest.mark.parametrize("mode", ["simple", "refined"])
def test_stats_json_matches_the_asdict_form(mode):
    # --stats json reads the fields with vars, copying nothing, and prints
    # the same bytes as a dump of dataclasses.asdict
    search = (romandom.enumerate_minimal_rdf_refined if mode == "refined"
              else enumerate_minimal_rdf_simple)
    stats = search(gen_c5_copies(2), lambda f: None)
    if mode == "refined":
        assert stats.rule_fires and stats.phase_transitions
    expected = json.dumps({key: value for key, value
                           in dataclasses.asdict(stats).items()
                           if mode == "refined"
                           or key not in romandom.cli._REFINED_ONLY})
    assert romandom.cli._stats_json(stats, mode) == expected


def _cli_env():
    # without PYTHONUNBUFFERED: the child buffers stdout as users' runs do
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
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


@pytest.mark.parametrize("argv", [
    ["gen", "cycle", "5"],
    ["enumerate", "{c5}"],
    ["enumerate", "{c5}", "--count-only"],
    ["check", "{c5}", "20200"],
    ["extend", "{c5}", "20000"],
], ids=["gen", "enumerate", "enumerate-count-only", "check", "extend"])
def test_closed_pipe_exits_0_quietly(c5_file, argv):
    # the reader is gone before the child starts, and the whole output fits
    # in stdout's buffer, so the first write to the pipe is main's flush
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "romandom.cli",
             *[arg.format(c5=c5_file) for arg in argv]],
            stdout=write, stderr=subprocess.PIPE, env=_cli_env(), timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, b"")


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
    assert set(stats) == _COMMON_STATS | (
        _REFINED_STATS if mode == "refined" else set())
    # The line being written when Ctrl-C came is not counted yet.
    written = (first + rest).count(b"\n")
    assert stats["solutions"] <= written <= stats["solutions"] + 1
    assert stats["solutions"] < 16 ** 4
    assert stats["tree_nodes"] >= stats["solutions"]
    assert stats["max_gap"] >= 1
    if mode == "refined":
        assert sum(stats["rule_fires"].values()) > 0


@pytest.mark.parametrize("mode", ["simple", "refined", "oracle"])
def test_enumerate_interrupt_reports_wall_time(tmp_path, capsys, monkeypatch,
                                               mode):
    # Ctrl-C during the third line, 20 ms into its write: the partial
    # counters still time the run.
    path = tmp_path / "cycle7.edges"
    path.write_text(to_edge_list(gen_cycle(7)))
    monkeypatch.setattr(sys, "stdout", InterruptingStdout(3, pause=0.02))
    assert main(["enumerate", str(path), "--mode", mode,
                 "--stats", "json"]) == 130
    stats_line, last = capsys.readouterr().err.splitlines()
    assert last == "interrupted"
    stats = json.loads(stats_line)
    assert stats["solutions"] == 2
    assert stats["wall_ms"] >= 20


def test_refined_runs_past_the_recursion_limit(tmp_path):
    # the refined search keeps its open nodes off the Python stack, so a
    # tree 401 levels deep runs under a recursion limit of 300
    path = tmp_path / "star400.edges"
    path.write_text(to_edge_list(gen_star(400)))
    code = ("import sys; sys.setrecursionlimit(300); "
            "from romandom.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, "enumerate", str(path), "--mode",
         "refined", "--stats", "json"],
        capture_output=True, env=_cli_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert b"Traceback" not in proc.stderr, proc.stderr
    assert len(proc.stdout.splitlines()) == 402
    assert json.loads(proc.stderr)["tree_nodes"] == 803


def _exhausted(*args, **kwargs):
    # a raise stands in for the allocation that fails; nothing is allocated
    raise MemoryError


@pytest.mark.parametrize("mode, engine", [
    ("simple", "enumerate_minimal_rdf_simple"),
    ("refined", "enumerate_minimal_rdf_refined"),
    ("oracle", "brute_minimal_rdfs"),
])
def test_enumerate_out_of_memory_exits_2(c5_file, capsys, monkeypatch, mode,
                                         engine):
    monkeypatch.setattr(f"romandom.cli.{engine}", _exhausted)
    assert main(["enumerate", c5_file, "--mode", mode]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {mode} enumeration on 5 vertices ran out of "
                   "memory\n")


@pytest.mark.parametrize("command", ["enumerate", "extend", "check"])
def test_loading_out_of_memory_exits_2(c5_file, capsys, monkeypatch,
                                       command):
    monkeypatch.setattr("romandom.cli.parse_edge_list", _exhausted)
    argv = [command, c5_file] + (["00000"] if command != "enumerate" else [])
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", f"error: {c5_file}: out of memory loading the graph\n")


def test_gen_out_of_memory_exits_2(capsys, monkeypatch):
    monkeypatch.setitem(romandom.cli.GENERATORS, "null", (_exhausted, (int,)))
    assert main(["gen", "null", "60000000"]) == 2
    assert capsys.readouterr() == (
        "", "error: null 60000000: out of memory\n")


@pytest.mark.parametrize("command, solver", [("extend", "gen_ext_rd"),
                                             ("check", "minimality_report")])
def test_query_out_of_memory_exits_2(c5_file, capsys, monkeypatch, command,
                                     solver):
    monkeypatch.setattr(f"romandom.cli.{solver}", _exhausted)
    assert main([command, c5_file, "20200"]) == 2
    assert capsys.readouterr() == ("", "error: out of memory\n")


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
    # the walk's stream order: the 2-sets' bit patterns
    assert main(["enumerate", p2_file]) == 0
    assert capsys.readouterr() == ("11\n20\n02\n", "")
    # Raising the 1 next to the 2 is what the forbidden vertex 1 blocks.
    assert main(["extend", c5_file, "01200", "--forbidden", "1"]) == 1
    assert capsys.readouterr() == ("NO\n", "")
    assert main(["extend", c5_file, "01200"]) == 0
    assert capsys.readouterr() == ("YES 02201\n", "")
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 5)


@pytest.fixture
def bad_inputs(tmp_path):
    # a file that is not UTF-8 (a UTF-16 byte-order mark), one that does not
    # parse, and a graph above the oracle's cap
    paths = {name: tmp_path / f"{name}.edges"
             for name in ("binary", "malformed", "c5pow3")}
    paths["binary"].write_bytes(b"\xff\xfe 2 1\n0 1\n")
    paths["malformed"].write_text("2 1\n0 x\n")
    paths["c5pow3"].write_text(to_edge_list(gen_c5_copies(3)))
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("argv, message", [
    (["enumerate", "{binary}"], "cannot read {binary}: 'utf-8' codec"),
    (["extend", "{binary}", "00"], "cannot read {binary}: 'utf-8' codec"),
    (["check", "{binary}", "00"], "cannot read {binary}: 'utf-8' codec"),
    (["enumerate", "{malformed}"], "{malformed}: line 2: non-integer vertex"),
    (["enumerate", "{c5pow3}", "--mode", "oracle"], "n=15 exceeds cap=12"),
    (["check", "{c5pow3}", "2020"], "assignment length 4 != graph order 15"),
], ids=["enumerate-not-utf8", "extend-not-utf8", "check-not-utf8",
        "parse-error", "oracle-above-cap", "check-wrong-length"])
def test_refusals_exit_2_with_a_message(bad_inputs, capsys, argv, message):
    assert main([arg.format(**bad_inputs) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert message.format(**bad_inputs) in err


def test_oracle_refuses_before_its_tree_size_is_set():
    # the oracle's own refusal comes before 3 ** n is computed
    stats = romandom.EnumStats()
    with pytest.raises(OracleCapExceeded, match="n=13 exceeds cap=12"):
        _run_enumeration(gen_null(13), "oracle", "standard", None, stats)
    assert stats == romandom.EnumStats()


def test_readme_cli_examples_run(tmp_path):
    # each line of README's CLI examples, in order, in one directory, with
    # ``romandom`` standing for the module and no pipefail
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8").split("## CLI examples", 1)[1]
    lines = text.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    assert len(lines) == 6
    prelude = f'romandom() {{ "{sys.executable}" -m romandom.cli "$@"; }}\n'
    for line in lines:
        proc = subprocess.run(["bash", "-c", prelude + line], cwd=tmp_path,
                              capture_output=True, env=_cli_env(), timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b""), line
        if "--count-only" in line:
            assert proc.stdout == b"256\n"


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


@pytest.mark.parametrize("spec", ["+0", "1_0", "\uff11", "0,+1"])
def test_extend_forbidden_ids_in_ascii_decimal(p2_file, capsys, spec):
    # int() reads each form; --forbidden, like an edge list, does not
    assert main(["extend", p2_file, "00", "--forbidden", spec]) == 2
    assert "bad forbidden list" in capsys.readouterr().err


@pytest.mark.parametrize("param", ["1_0", "+5", "\uff13"])
def test_gen_parameters_in_ascii_decimal(capsys, param):
    # int() reads each form; gen, like an edge list, does not
    assert main(["gen", "cycle", param]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "not in ASCII decimal" in err


@pytest.mark.parametrize("p", ["\uff10.\uff15", "0_5e-1", "+0.5"])
def test_gen_probability_in_ascii_decimal(capsys, p):
    # float() reads each form; gen's probability, like its integers, does not
    assert main(["gen", "random", "4", p, "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "not in ASCII decimal" in err


def test_gen_probability_forms_that_still_run(capsys):
    for p in ("0.2", "1e-1", "1"):
        assert main(["gen", "random", "4", p, "--seed", "1"]) == 0
        assert capsys.readouterr().out.startswith("4 ")
    assert main(["gen", "random", "4", "nan"]) == 2
    assert "edge probability must be in [0, 1]" in capsys.readouterr().err


def test_gen_seed_in_ascii_decimal(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "random", "4", "0.5", "--seed", "\uff13"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --seed: invalid decimal value" in err
    for seed in ("-3", "7"):
        assert main(["gen", "random", "20", "0.2", "--seed", seed]) == 0
        assert capsys.readouterr().out.startswith("20 ")


@pytest.mark.parametrize("header", ["0 \uff10", "1_0 0", "+1 0"])
def test_enumerate_refuses_a_header_not_in_ascii_decimal(tmp_path, capsys,
                                                         header):
    # "0 ０" once enumerated the order-0 graph: one empty solution, exit 0
    path = tmp_path / "g.edges"
    path.write_text(header + "\n", encoding="utf-8")
    assert main(["enumerate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "line 1: header not in ASCII decimal" in err


def test_check_minimal(c5_file, capsys):
    assert main(["check", c5_file, "20200"]) == 0
    assert _lines(capsys) == ["minimal: all conditions pass"]


def test_check_failures(p2_file, capsys):
    assert main(["check", p2_file, "22"]) == 1
    out = capsys.readouterr().out
    assert "privacy condition" in out
    assert main(["check", p2_file, "12"]) == 1
    assert "N[V2]" in capsys.readouterr().out


def test_extend_and_check_read_the_assignment_from_stdin(tmp_path):
    # 140,000 digits: more than Linux lets one argv string hold (128 KiB)
    n = 140_000
    path = tmp_path / "null.edges"
    path.write_text(to_edge_list(gen_null(n)))

    def run(command, digits):
        proc = subprocess.run(
            [sys.executable, "-m", "romandom.cli", command, str(path), "-"],
            input=digits, capture_output=True, env=_cli_env(), timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    assert run("check", b"1" * n) == (
        0, b"minimal: all conditions pass\n", b"")
    assert run("extend", b"0" * n + b"\n") == (
        0, b"YES " + b"1" * n + b"\n", b"")


@pytest.mark.parametrize("command", ["extend", "check"])
def test_empty_stdin_assignment_exits_2(c5_file, capsys, monkeypatch,
                                        command):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert main([command, c5_file, "-"]) == 2
    assert capsys.readouterr() == (
        "", "error: assignment length 0 != graph order 5\n")


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


@pytest.mark.parametrize("k, mode, row", [
    (1, "simple", (16, 41, 5)), (1, "refined", (16, 32, 2)),
    (1, "oracle", (16, 243, 243)),
    (2, "simple", (256, 681, 10)), (2, "refined", (256, 538, 4)),
    (3, "simple", (4096, 10921, 15)), (3, "refined", (4096, 8744, 6)),
])
def test_gen_and_enumerate_stats_give_the_bench_rows(tmp_path, capsys, k,
                                                     mode, row):
    # the (solutions, tree_nodes, max_gap) of the rows that the removed
    # ``bench --family c5pow:1:3 --modes simple,refined`` printed, and of
    # the oracle on c5pow 1, from gen plus --stats json
    assert main(["gen", "c5pow", str(k)]) == 0
    path = tmp_path / f"c5pow{k}.edges"
    path.write_text(capsys.readouterr().out)
    assert main(["enumerate", str(path), "--mode", mode, "--count-only",
                 "--stats", "json"]) == 0
    out, err = capsys.readouterr()
    stats = json.loads(err)
    assert int(out) == stats["solutions"]
    assert (stats["solutions"], stats["tree_nodes"], stats["max_gap"]) == row
