"""The README's Library example runs as printed, and the package names it
quotes exist."""

import importlib
import pathlib
import pkgutil
import re

import tensebench

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
