"""README's examples run and print what their comments say.

The `## Quickstart (library)` block is run line by line; every line that is
an expression with a comment must evaluate to the comment's Python literal.
The `kummerlcp dim` example of the CLI section is run on the curve file that
section shows, and its stdout must be the commented line below it.
"""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

from kummerlcp import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(section: str, lang: str) -> list[str]:
    """The fenced blocks of language lang in the README section with the given heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", body, flags=re.S)


def test_quickstart_comments_hold():
    (block,) = _blocks("Quickstart (library)", "python")
    namespace: dict = {}
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        (stmt,) = ast.parse(code).body
        if isinstance(stmt, ast.Expr) and comment.strip():
            value = eval(compile(ast.Expression(stmt.value), "<README>", "eval"), namespace)
            assert value == ast.literal_eval(comment.strip()), line
            checked.append(code.strip())
        else:
            exec(compile(ast.Module([stmt], []), "<README>", "exec"), namespace)
    assert len(checked) >= 6, checked


def test_cli_dim_example_output(tmp_path, monkeypatch):
    (curve,) = _blocks("CLI", "json")
    (shell,) = _blocks("CLI", "sh")
    (tmp_path / "h3.json").write_text(curve)
    monkeypatch.chdir(tmp_path)
    lines = shell.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("kummerlcp dim "))
    want = lines[i + 1].lstrip("#").strip()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(shlex.split(lines[i])[1:]) == 0
    assert out.getvalue() == want + "\n"
