"""The public API in skewcodes.__all__ and the README's library example."""

import contextlib
import io
import pathlib
import re

import skewcodes

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_every_public_name_resolves():
    missing = [name for name in skewcodes.__all__ if not hasattr(skewcodes, name)]
    assert missing == []
    assert len(set(skewcodes.__all__)) == len(skewcodes.__all__)


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue() == "16 12 2\nTrue\n"
