"""The package ships only what the program runs.

Every top-level function and class in ``src/romandom``, and every public
method, must have a use outside its own definition: a reference by name
from the package (``__init__.py``'s re-exports do not count), or a name
in the benchmark, ``bench/*.py``, which also traces functions by string.
Every module-level constant must be read by code: a function or class of
the package, or the benchmark.  A constant that only other constants
read is a second name for their value.  A definition that only tests
reach belongs in ``tests/support.py``.
"""

import ast
import re
from pathlib import Path

import romandom

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "romandom"

# Kept with no caller in the program: the one public checker of the base
# definition (every 0-vertex has a 2-neighbor), which the minimality
# checkers refine; it shares ``rdf._census`` with ``minimality_report``.
ALLOWED = {"is_rdf"}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _uses(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every name, attribute and dotted-name string."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            out.extend((part, node.lineno) for part in node.value.split("."))
    return out


def _definitions(tree: ast.Module):
    """(qualified name, name, first line, last line) of each top-level
    function and class and each public method."""
    for node in tree.body:
        if not isinstance(node, _DEFS):
            continue
        yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS) and not item.name.startswith("_"):
                    yield (f"{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno)


def _constants(tree: ast.Module):
    """Each name a top-level assignment binds, tuple targets unpacked."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            yield from (name.id for target in targets
                        for name in ast.walk(target)
                        if isinstance(name, ast.Name))


def _read_by_code(tree: ast.Module) -> set[str]:
    """The names used inside the top-level functions and classes."""
    return {name for node in tree.body if isinstance(node, _DEFS)
            for name, _ in _uses(node)}


def unused_definitions(package: Path, bench: Path) -> list[str]:
    """``module.name`` of each definition and constant in ``package`` with
    no use."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))
             if path.name != "__init__.py"}
    uses = {stem: _uses(tree) for stem, tree in trees.items()}
    named_in_bench = {name for path in bench.glob("*.py")
                      for name, _ in _uses(ast.parse(path.read_text()))}
    unused = []
    for stem, tree in trees.items():
        for qualname, name, first, last in _definitions(tree):
            if name not in named_in_bench and not any(
                ref == name and (other != stem or not first <= line <= last)
                for other, found in uses.items() for ref, line in found):
                unused.append(f"{stem}.{qualname}")
    read = named_in_bench.union(*map(_read_by_code, trees.values()))
    unused.extend(f"{stem}.{name}" for stem, tree in trees.items()
                  for name in _constants(tree) if name not in read)
    return unused


def test_every_definition_is_used_by_the_program():
    unused = unused_definitions(PACKAGE, ROOT / "bench")
    assert sorted(unused) == sorted(f"rdf.{name}" for name in ALLOWED)


def test_unused_definitions_are_found(tmp_path):
    # the scan itself: a helper only its own body names, a public method
    # no one calls, a function only a bench string names, a constant only
    # another constant reads, and one name of a tuple target no code reads
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "__init__.py").write_text("from .m import dead, traced\n")
    (package / "m.py").write_text(
        "ALIAS = 'a'\n_TABLE = (ALIAS,)\n_A, _B = range(2)\n\n\n"
        "def dead(n):\n    return dead(n - 1) if n else 0\n\n\n"
        "def traced():\n    return Box().kept(), _TABLE[_A]\n\n\n"
        "class Box:\n    def kept(self):\n        return 1\n\n"
        "    def unkept(self):\n        return 2\n")
    (bench / "b.py").write_text('TARGETS = [("m", "m.traced")]\n')
    assert unused_definitions(package, bench) == [
        "m.dead", "m.Box.unkept", "m.ALIAS", "m._B"]


def test_all_names_resolve_without_duplicates():
    assert len(set(romandom.__all__)) == len(romandom.__all__)
    assert [name for name in romandom.__all__
            if not hasattr(romandom, name)] == []
