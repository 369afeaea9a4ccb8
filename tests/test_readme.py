"""The README's library quick start runs as documented: each print(...)
line prints its trailing `# ...` comment."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    """The first python block under the "Library quick start" heading."""
    text = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", text, re.S).group(1)


def test_quick_start_prints_its_comments():
    code = _quick_start()
    want = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert want and out.getvalue().splitlines() == want
