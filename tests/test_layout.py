"""The package carries no code without a caller: every module-level name in
src/mmner is read by code elsewhere in the package, a demo or the benchmark
(an export alone does not count), and every name a module of the package, a
demo or a test imports is used in that module. The README's "Layout" block
lists each of its modules."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mmner"
README = PACKAGE.parent.parent / "README.md"
DEMOS = PACKAGE.parent.parent / "demos"
PERFBENCH = PACKAGE.parent.parent / "perfbench"
TESTS = Path(__file__).resolve().parent


def _definitions(tree: ast.Module):
    """(name, node) of each module-level def, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id, node


def _references(tree: ast.Module, imports: bool = True):
    """(name, line) of each name the code reads: a Name, an Attribute, an
    import (unless ``imports`` is false)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif imports and isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((alias.name, node.lineno) for alias in node.names)


def uncalled(package: Path, callers=()) -> list[str]:
    """``module.name`` of every module-level name that no code of the package
    or of the ``callers`` files references outside the name's own definition.
    An import counts, except in the package ``__init__``: an export is not a
    caller. A docstring or comment does not count either."""
    trees = {path: ast.parse(path.read_text("utf-8")) for path in sorted(package.glob("*.py"))}
    references = [(path, name, line) for path, tree in trees.items()
                  for name, line in _references(tree, imports=path.name != "__init__.py")]
    references += [(path, name, line) for path in callers
                   for name, line in _references(ast.parse(path.read_text("utf-8")))]
    found = []
    for path, tree in trees.items():
        for name, node in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(ref == name and not (where == path and node.lineno <= line <= node.end_lineno)
                       for where, ref, line in references):
                found.append(f"{path.stem}.{name}")
    return found


def unused_imports(path: Path) -> list[str]:
    """``file:name`` of every name the module imports (``__future__`` aside)
    that no other expression of the module reads."""
    tree = ast.parse(path.read_text("utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{name}" for name in imported if name not in used]


def test_every_src_name_has_a_caller():
    callers = sorted(DEMOS.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    assert uncalled(PACKAGE, callers) == []


def test_a_mention_in_prose_is_not_a_caller(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import exported\n", "utf-8")
    (tmp_path / "a.py").write_text(
        'def exported():\n    """Unlike mentioned, which only this docstring names."""\n'
        "    return helper() + CONSTANT  # a comment naming recursive\n\n\n"
        "def mentioned():\n    pass\n\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "CONSTANT = 2\n", "utf-8")
    assert uncalled(tmp_path) == ["a.exported", "a.mentioned", "a.recursive"]
    caller = tmp_path / "caller" / "demo.py"
    caller.parent.mkdir()
    caller.write_text("from pkg import exported\n", "utf-8")
    assert uncalled(tmp_path, [caller]) == ["a.mentioned", "a.recursive"]


def test_readme_layout_lists_every_module():
    block = README.read_text("utf-8").split("## Layout", 1)[1].split("```")[1]
    listed = set(re.findall(r"^ +(\w+\.py) ", block, re.MULTILINE))
    assert listed == {path.name for path in PACKAGE.glob("*.py")} - {"__init__.py"}


def test_every_import_is_used():
    modules = [path for d in (PACKAGE, DEMOS, TESTS) for path in sorted(d.glob("*.py"))]
    found = [hit for path in modules if path.name != "__init__.py" for hit in unused_imports(path)]
    assert found == []
