"""The README's Library example runs as printed."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    # the printed values that the example's comments describe
    assert capsys.readouterr().out.splitlines() == [
        "D(-1) + A(0,1) + A(0,2) + S(1,1)", "True", "Separated",
    ]
