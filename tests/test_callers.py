"""Every public module-level function and class of the package must have a
caller inside the package: code that only its own tests call is dead
weight.  References are counted on the syntax tree (names read and
attributes), so a docstring or comment that mentions a name does not
count, and a definition's references to itself do not count.  A console
script in pyproject.toml counts as a caller of its entry point."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "reprogram_lab"


def referenced_names(tree: ast.AST, skip: ast.AST) -> set[str]:
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def uncalled_public_names(package: Path, pyproject: Path) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    entry_points = set(re.findall(
        r'^\s*[\w-]+\s*=\s*"reprogram_lab\.(\w+):(\w+)"', pyproject.read_text(), re.MULTILINE
    ))
    uncalled = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or (module, node.name) in entry_points:
                continue
            if not any(node.name in referenced_names(t, node) for t in trees.values()):
                uncalled.append(f"{module}.{node.name}")
    return uncalled


def test_every_public_name_has_a_caller_in_the_package():
    assert uncalled_public_names(PACKAGE, ROOT / "pyproject.toml") == []


def test_guard_sees_a_test_only_function(tmp_path):
    (tmp_path / "alpha.py").write_text(
        '"""Mentions helper and spare."""\n\n'
        "def helper(n):\n    return helper(n - 1) if n else 0\n\n\n"
        "def used():\n    return 1\n\n\n"
        "def main():\n    return used()\n"
    )
    (tmp_path / "beta.py").write_text("spare = 2  # helper\n\n\nclass Spare:\n    pass\n")
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text('[project.scripts]\ntool = "reprogram_lab.alpha:main"\n')
    assert uncalled_public_names(tmp_path, pyproject) == ["alpha.helper", "beta.Spare"]
