"""Every public module-level function and class of the package must have a
caller inside the package: code that only its own tests call is dead
weight.  References are counted on the syntax tree (names read and
attributes), so a docstring or comment that mentions a name does not
count, and a definition's references to itself do not count.  A console
script in pyproject.toml counts as a caller of its entry point.

Likewise every field of the package's dataclasses must be read as an
attribute outside its own class, in the package or in the benchmark's
code (its tracer reads some results); a field that only its own class or
the tests read is dead weight too.  Every name the package lists in
``__all__`` must be an attribute of the package.  And no code of the
package but SuiteVerdict's own consistency check raises a plain
ValueError: an argument or input check raises ConfigError, the one type
the command line reports as a configuration error."""

import ast
import re
from pathlib import Path

import reprogram_lab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "reprogram_lab"
BENCHMARK = ROOT / "perfbench"


def _walk_except(tree: ast.AST, skip: ast.AST):
    """Every node of ``tree`` outside the subtree ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            yield node
            stack.extend(ast.iter_child_nodes(node))


def referenced_names(tree: ast.AST, skip: ast.AST) -> set[str]:
    names = set()
    for node in _walk_except(tree, skip):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
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


def attributes_read(tree: ast.AST, skip: ast.AST) -> set[str]:
    return {
        node.attr for node in _walk_except(tree, skip)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def unread_dataclass_fields(package: Path, benchmark: Path) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    readers = list(trees.values()) + [
        ast.parse(path.read_text()) for path in sorted(benchmark.glob("*.py"))
        if not path.name.startswith("test_")
    ]
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
                continue
            read = set().union(*(attributes_read(t, node) for t in readers))
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    if stmt.target.id not in read:
                        unread.append(f"{module}.{node.name}.{stmt.target.id}")
    return unread


def _raising_scopes(tree: ast.AST, error: str, scope: str = ""):
    """The dotted name of the function or class around each ``raise error``
    in ``tree`` ("" at module level), in source order."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _raising_scopes(node, error, f"{scope}.{node.name}".lstrip("."))
            continue
        if isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(target, "id", getattr(target, "attr", None)) == error:
                yield scope
        yield from _raising_scopes(node, error, scope)


def value_error_raises(package: Path) -> list[str]:
    return [
        f"{path.stem}.{scope}".rstrip(".") for path in sorted(package.glob("*.py"))
        for scope in _raising_scopes(ast.parse(path.read_text()), "ValueError")
    ]


def test_every_public_name_has_a_caller_in_the_package():
    assert uncalled_public_names(PACKAGE, ROOT / "pyproject.toml") == []


def test_every_name_in_all_is_an_attribute_of_the_package():
    missing = [name for name in reprogram_lab.__all__ if not hasattr(reprogram_lab, name)]
    assert missing == []


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


def test_every_dataclass_field_is_read_outside_its_class():
    assert unread_dataclass_fields(PACKAGE, BENCHMARK) == []


def test_guard_sees_a_field_only_its_class_reads(tmp_path):
    package, benchmark = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    benchmark.mkdir()
    (package / "alpha.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\nclass Box:\n"
        "    used: int\n    inner: int\n    traced: int\n    written: int\n\n"
        "    @property\n    def twice(self):\n        return 2 * self.inner\n\n\n"
        "class Plain:\n    spare: int\n\n\n"
        "def main(box, other):\n    other.written = box.used\n    return box.twice\n"
    )
    (benchmark / "tracer.py").write_text("def work(box):\n    return box.traced\n")
    (benchmark / "test_tracer.py").write_text("def test_it(box):\n    assert box.written\n")
    assert unread_dataclass_fields(package, benchmark) == ["alpha.Box.inner", "alpha.Box.written"]


def test_argument_checks_raise_config_error():
    raises = value_error_raises(PACKAGE)
    assert [scope for scope in raises if scope != "verify.SuiteVerdict.__post_init__"] == []


def test_guard_sees_a_value_error_raise(tmp_path):
    (tmp_path / "alpha.py").write_text(
        '"""Says raise ValueError(x)."""\n\n'
        "class Box:\n    def check(self, x):\n        if x:\n"
        "            raise ValueError(f'x = {x}')\n\n\n"
        "def parse(text):\n    try:\n        return int(text)\n"
        "    except ValueError:\n        raise ConfigError(text) from None\n\n\n"
        "def bare():\n    raise ValueError  # not a ConfigError\n"
    )
    (tmp_path / "beta.py").write_text(
        "import builtins\n\nif builtins:\n    raise builtins.ValueError('at import')\n"
    )
    assert value_error_raises(tmp_path) == ["alpha.Box.check", "alpha.bare", "beta"]
