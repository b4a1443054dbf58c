"""The README's Library example and command examples print what the
README says they print, the package names it quotes exist, and every
public name of the package is called by the package or quoted by the
README."""

import ast
import importlib
import itertools
import pathlib
import pkgutil
import re
import shlex

import pytest

import tensebench
from tensebench import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    # the printed values that the example's comments describe
    assert capsys.readouterr().out.splitlines() == [
        "D(-1) + A(0,1) + A(0,2) + S(1,1)", "True", "Separated",
    ]


def test_module_names_resolve():
    # every backticked `module.name` of the package names something that exists
    modules = {info.name for info in pkgutil.iter_modules(tensebench.__path__)}
    text = README.read_text(encoding="utf-8")
    found = re.findall(r"`(tensebench|%s)\.(\w+)`" % "|".join(sorted(modules)), text)
    assert ("search", "classify_minimal") in found
    for module, name in found:
        package = "tensebench" if module == "tensebench" else f"tensebench.{module}"
        assert hasattr(importlib.import_module(package), name), f"{module}.{name}"


SRC = pathlib.Path(tensebench.__file__).resolve().parent

# public top-level names that no other code in the package calls and the
# README does not quote, each with the reason it stays
UNCALLED = {
    "restrict_to_window": "perfbench/trace_layers.py wraps it by name",
    "FiniteHandle": "the oracle side of the tests: evaluation on finite carriers",
    "minimal_point_algebra": "names M_1, M_2 and M_3 for ROADMAP item 1's covers",
    "modal_depth": "bounds the window of ROADMAP item 7's certificate",
}


def top_level_names(tree):
    """``(name, statement)`` for each function, class and assigned name
    that a module defines at its top level."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                if isinstance(target, ast.Name):
                    yield target.id, stmt


def names_used(stmt) -> set[str]:
    """The names, attributes and imported names that a statement reads."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_every_public_name_is_called_or_documented():
    # __init__.py only re-exports, so a name it imports still counts as uncalled
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    statements = [stmt for tree in trees.values() for stmt in tree.body]
    used = {id(stmt): names_used(stmt) for stmt in statements}
    quoted = {word for span in re.findall(r"`([^`]*)`", README.read_text(encoding="utf-8"))
              for word in re.findall(r"\w+", span)}
    uncalled = {
        name
        for tree in trees.values()
        for name, stmt in top_level_names(tree)
        if not name.startswith("_") and name not in quoted
        and not any(name in used[id(other)] for other in statements if other is not stmt)
    }
    # an entry that has gained a caller leaves the allowlist
    assert uncalled == set(UNCALLED)


def command_examples():
    """``(argv, last line)`` for each ``tw ...  # -> X`` line, and ``(argv,
    records)`` for a ``tw`` line followed by the ``#   key=value`` lines it
    prints."""
    lines = README.read_text(encoding="utf-8").splitlines()
    for at, line in enumerate(lines):
        if not line.startswith("tw "):
            continue
        command, arrow, last = line.partition("# -> ")
        if arrow:
            yield shlex.split(command)[1:], last, None
            continue
        records = itertools.takewhile(lambda text: text.startswith("#   "), lines[at + 1:])
        records = [text.removeprefix("#   ") for text in records]
        if records:
            yield shlex.split(command)[1:], None, records


EXAMPLES = list(command_examples())


def test_examples_found():
    assert sum(last is not None for _, last, _ in EXAMPLES) >= 2
    assert [argv[0] for argv, _, records in EXAMPLES if records] == ["distinguish"]


@pytest.mark.parametrize("argv, last, records",
                         [pytest.param(*example, id=" ".join(example[0])) for example in EXAMPLES])
def test_command_example_prints_what_the_readme_says(capsys, argv, last, records):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    if last is not None:
        assert out[-1] == last
    else:
        assert out[1:] == records  # every line after the configuration echo
