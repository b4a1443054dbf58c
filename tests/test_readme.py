"""The README's Library example and command examples print what the
README says they print, and the package names it quotes exist."""

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
