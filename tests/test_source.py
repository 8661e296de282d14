"""Source-level rules for the package."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "bentkit").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert, so a runtime check must be an explicit raise
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} uses assert at lines {lines}"


def test_readme_library_example_runs():
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


def test_all_names_exactly_the_imports():
    import bentkit

    tree = ast.parse((ROOT / "src" / "bentkit" / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(bentkit.__all__) == len(set(bentkit.__all__))
    assert sorted(bentkit.__all__) == sorted(imported)


def test_only_the_ball_index_lists_a_ball():
    # the ball's array form is built in one place and every reader shares it
    callers = {
        (path.name, func.name)
        for path in SOURCES
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and "ball_points" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }
    assert callers == {("geometry.py", "_ball_index")}


def test_console_checks_pin_no_output_that_golden_pins():
    # an output is pinned in one place, so an intended change is re-pinned once
    def digests(path):
        return set(re.findall(r"\b[0-9a-f]{64}\b", (ROOT / path).read_text()))

    assert digests("ci/console_checks.sh") & digests("tests/test_cli.py") == set()
