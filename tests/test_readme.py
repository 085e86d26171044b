"""The README quickstart runs and prints the output block that follows it."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_prints_its_documented_output(capsys):
    text = README.read_text(encoding="utf-8")
    # The first python block and the plain block right after it.
    found = re.search(r"```python\n(.*?)```\s*```\n(.*?)```", text, re.DOTALL)
    assert found, "README has no python block followed by an output block"
    code, expected = found.groups()
    exec(compile(code, str(README), "exec"), {"__name__": "readme_quickstart"})
    assert capsys.readouterr().out == expected
