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


def _calls(path, name):
    """(module, function) of every call of ``name``, as a plain or attribute call."""
    return {
        (path.name, func.name)
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }


def test_only_the_ball_index_lists_a_ball():
    # the ball's array form is built in one place and every reader shares it
    callers = {caller for path in SOURCES for caller in _calls(path, "ball_points")}
    assert callers == {("geometry.py", "_ball_index")}


def test_console_checks_pin_no_output_that_golden_pins():
    # an output is pinned in one place, so an intended change is re-pinned once
    def digests(path):
        return set(re.findall(r"\b[0-9a-f]{64}\b", (ROOT / path).read_text()))

    assert digests("ci/console_checks.sh") & digests("tests/test_cli.py") == set()


def test_only_core_names_the_block_size():
    # core.blocks is the one block rule, so it alone reads CHUNK_POINTS
    naming = [path.name for path in SOURCES if "CHUNK_POINTS" in path.read_text()]
    assert naming == ["core.py"]


def test_only_core_packs_table_ints():
    # core.table_words is the one layout of table ints as words; the rng words
    # of random_invertible and the JSON bits of reconstruct are not tables
    callers = {
        caller
        for path in SOURCES
        if path.name != "core.py"
        for name in ("to_bytes", "frombuffer")
        for caller in _calls(path, name)
    }
    assert callers == {("bent.py", "random_invertible"), ("cli.py", "_cmd_reconstruct")}


def test_both_census_methods_share_one_filter():
    tree = ast.parse((ROOT / "src" / "bentkit" / "census.py").read_text())
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "bent_rows"
    ]
    assert len(calls) == 1


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        alias.asname or alias.name.split(".")[0]: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py imports to re-export, which test_all_names_exactly_the_imports checks
    paths = [path for path in SOURCES if path.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    unused = {path.name: _unused_imports(path) for path in paths}
    assert {name: found for name, found in unused.items() if found} == {}
