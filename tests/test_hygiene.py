"""Static checks on the package source that need no linter."""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).parent.parent / "src" / "charpos").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that no expression reads.

    A name listed in a literal __all__ counts as read, so re-exports pass.
    Docstrings and comments do not count.
    """
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_detector_flags_a_name_read_only_in_a_docstring():
    tree = ast.parse('from m import BLOCK, used\n'
                     'def f():\n    """Slabs of BLOCK entries."""\n'
                     '    return used\n')
    assert unused_imports(tree) == ["BLOCK (line 1)"]
